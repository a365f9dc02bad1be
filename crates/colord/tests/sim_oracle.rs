//! colord ↔ simulator oracle: with static membership the service is a
//! lock-step simulation, so it must reproduce `Lockstep` exactly.
//!
//! A shuffled lattice joins before the first step, κ₂ is pinned and the
//! watchdog is off. colord steps until idle, at slot `S`. The simulator
//! then runs the same unit disk graph for slots `0..S`: colord's node
//! `i` (token `i + 1`, stream `node_rng(seed, i + 1)`, wake 1) is the
//! simulator's index `i + 1`, and an isolated index 0 that wakes only
//! after `S` keeps the run going until the slot budget. Every color
//! and the service's transmission, delivery and collision counters
//! must equal the simulator's.

use colord::{Service, ServiceConfig};
use radio_graph::generators::build_udg;
use radio_graph::Point2;
use radio_sim::{Lockstep, NodeStats, NullMonitor, SimConfig, SimDriver, Slot};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use urn_coloring::{AlgorithmParams, ColoringNode, ProtoId};

/// Lattice spacing: with radius 1 each site hears its four axis
/// neighbors.
const SPACING: f64 = 0.75;

/// Slots per `Service::step` call.
const BATCH: u64 = 256;

/// A `side × side` lattice in a Fisher–Yates shuffled join order.
fn lattice(side: usize, seed: u64) -> Vec<Point2> {
    let mut pos: Vec<Point2> = (0..side * side)
        .map(|i| Point2::new((i % side) as f64 * SPACING, (i / side) as f64 * SPACING))
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..pos.len()).rev() {
        pos.swap(i, rng.gen_range(0..=i));
    }
    pos
}

fn check(side: usize, kappa2: usize, shards: usize) {
    let cfg = ServiceConfig {
        kappa2: Some(kappa2),
        stall_slots: 0,
        shards,
        ..ServiceConfig::default()
    };
    let pos = lattice(side, side as u64);
    let svc = Service::new(cfg);
    let tokens: Vec<u64> = pos.iter().map(|p| svc.join(p.x, p.y).unwrap()).collect();
    while !svc.idle() {
        svc.step(BATCH);
    }
    let snap = svc.snapshot();
    let settle: Slot = snap.slot;
    assert!(snap.valid(), "{side}×{side} k={shards}: invalid coloring");

    // Index 0 is isolated and sleeps through the run; index i + 1 is
    // colord's node i.
    let mut points = vec![Point2::new(-1e3, -1e3)];
    points.extend(&pos);
    let graph = build_udg(&points, cfg.radius);
    let mut wake = vec![1; points.len()];
    wake[0] = settle;
    let params = AlgorithmParams::practical(kappa2, cfg.delta_cap, cfg.n_cap);
    let protocols = (0..points.len())
        .map(|i| ColoringNode::new(i as ProtoId, params))
        .collect();
    let out = SimDriver::run::<Lockstep>(
        &graph,
        &wake,
        protocols,
        (),
        cfg.seed,
        &SimConfig::with_max_slots(settle - 1),
        &mut NullMonitor,
    );
    assert!(out.error.is_none(), "{:?}", out.error);
    assert_eq!(out.slots_run, settle - 1);

    let what = format!("{side}×{side} κ₂={kappa2} k={shards} S={settle}");
    for (i, &t) in tokens.iter().enumerate() {
        assert_eq!(t, i as u64 + 1, "{what}: token order");
        assert_eq!(
            svc.heartbeat(t).unwrap().color,
            out.protocols[i + 1].color(),
            "{what}: color of token {t}"
        );
    }
    let stats = &out.stats[1..];
    let sum = |f: fn(&NodeStats) -> u64| stats.iter().map(f).sum::<u64>();
    assert_eq!(snap.stats.transmissions, sum(|s| s.sent), "{what}: sent");
    assert_eq!(
        snap.stats.deliveries,
        sum(|s| s.received),
        "{what}: received"
    );
    assert_eq!(
        snap.stats.collisions,
        sum(|s| s.collisions),
        "{what}: collisions"
    );
}

#[test]
fn lattice_6x6_matches_lockstep() {
    for k in [1, 2, 4] {
        check(6, 9, k);
    }
}

#[test]
fn lattice_8x8_matches_lockstep() {
    for k in [1, 2, 4] {
        check(8, 5, k);
    }
}
