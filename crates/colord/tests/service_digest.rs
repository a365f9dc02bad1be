//! Churn-path pin: seeded join/leave/heartbeat/step schedules, folded
//! into digests and compared with constants recorded from the service
//! that walked its own copy of the slot rule.
//!
//! `shard_equivalence` compares k shards against k = 1 running the same
//! code, and `sim_oracle` ties static membership to the simulator. This
//! suite pins the membership changes neither of them reaches to fixed
//! numbers:
//!
//! - joins mid-run, across at least three strips;
//! - a leave before the joiner's first slot;
//! - watchdog restarts (`stall_slots: 150`);
//! - κ̂₂ reprovision restarts (estimator on), next to pinned-κ₂ runs.
//!
//! Each digest folds every snapshot after every op (all fields except
//! `collisions` and `shard_undecided`) and every heartbeat answer
//! through `splitmix64`. Every schedule runs at one and at three shards
//! and must give the same digest both times.

use colord::{Service, ServiceConfig, Snapshot};
use radio_transport::rng::splitmix64;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn cfg(seed: u64, kappa2: Option<usize>, shards: usize) -> ServiceConfig {
    ServiceConfig {
        radius: 1.0,
        kappa2,
        delta_cap: 2,
        n_cap: 8,
        seed,
        max_live: 64,
        stall_slots: 150,
        shards,
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Join(f64, f64),
    /// Join, then leave again before the joiner's first slot.
    JoinLeave(f64, f64),
    /// Leave the i-th (mod live) session.
    Leave(usize),
    /// Heartbeat the i-th (mod live) session.
    Heartbeat(usize),
    Step(u64),
}

/// A deterministic schedule: a burst of joins over five radius-wide
/// strips, then mixed churn and step bursts.
fn schedule(seed: u64) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let pos = |rng: &mut SmallRng| (rng.gen_range(0.0..4.5_f64), rng.gen_range(0.0..3.0_f64));
    let mut ops = Vec::new();
    for _ in 0..6 {
        let (x, y) = pos(&mut rng);
        ops.push(Op::Join(x, y));
    }
    for i in 0..36 {
        let op = match rng.gen_range(0..12) {
            0..=3 => {
                let (x, y) = pos(&mut rng);
                Op::Join(x, y)
            }
            4 => {
                let (x, y) = pos(&mut rng);
                Op::JoinLeave(x, y)
            }
            5 => Op::Leave(rng.gen_range(0..64)),
            6..=7 => Op::Heartbeat(rng.gen_range(0..64)),
            _ => Op::Step(rng.gen_range(1..600)),
        };
        ops.push(op);
        if i == 12 {
            let (x, y) = pos(&mut rng);
            ops.push(Op::JoinLeave(x, y));
        }
    }
    ops
}

fn fold(h: &mut u64, x: u64) {
    *h ^= x;
    *h = splitmix64(h);
}

fn fold_snapshot(h: &mut u64, s: &Snapshot) {
    for x in [
        s.slot,
        s.live as u64,
        s.decided as u64,
        s.conflicts as u64,
        u64::from(s.frame_len),
        s.leaders as u64,
        s.kappa2_est as u64,
        s.stats.joins,
        s.stats.leaves,
        s.stats.heartbeats,
        s.stats.slots,
        s.stats.transmissions,
        s.stats.deliveries,
        s.stats.resets,
        s.stats.reprovisions,
    ] {
        fold(h, x);
    }
}

/// Runs one schedule; returns its digest and the final snapshot.
fn run(seed: u64, kappa2: Option<usize>, shards: usize) -> (u64, Snapshot) {
    let svc = Service::new(cfg(seed, kappa2, shards));
    let mut live: Vec<u64> = Vec::new();
    let mut h = seed;
    for op in schedule(seed) {
        match op {
            Op::Join(x, y) => live.push(svc.join(x, y).expect("join under max_live")),
            Op::JoinLeave(x, y) => {
                let t = svc.join(x, y).expect("join under max_live");
                svc.leave(t).expect("fresh token");
            }
            Op::Leave(i) => {
                if !live.is_empty() {
                    let t = live.remove(i % live.len());
                    svc.leave(t).expect("live token");
                }
            }
            Op::Heartbeat(i) => {
                if !live.is_empty() {
                    let hb = svc.heartbeat(live[i % live.len()]).expect("live token");
                    fold(&mut h, hb.slot);
                    fold(&mut h, hb.color.map_or(u64::MAX, u64::from));
                    fold(&mut h, u64::from(hb.leader));
                }
            }
            Op::Step(slots) => svc.step(slots),
        }
        fold_snapshot(&mut h, &svc.snapshot());
    }
    (h, svc.snapshot())
}

/// `(schedule seed, κ₂ pin, digest)`; `None` runs the online estimator.
const PINS: [(u64, Option<usize>, u64); 8] = [
    (1, Some(2), 0x96270b55b496c917),
    (1, None, 0x0590d285a41ab04f),
    (2, Some(3), 0x6ec8e3cefb26dc07),
    (2, None, 0x6d82323d0d58d95c),
    (4, Some(4), 0xa8bf48726981360c),
    (4, None, 0xd235073e5ea399c6),
    (5, Some(2), 0x2eb5394203528108),
    (5, None, 0x91adfd824249a47b),
];

#[test]
fn churn_schedules_match_pinned_digests() {
    let (mut resets, mut reprovisions) = (0, 0);
    let mut got = Vec::new();
    for (seed, kappa2, _) in PINS {
        let (digest, snap) = run(seed, kappa2, 1);
        let (sharded, _) = run(seed, kappa2, 3);
        assert_eq!(digest, sharded, "seed {seed} κ₂ {kappa2:?}: 3 shards vs 1");
        resets += snap.stats.resets;
        reprovisions += snap.stats.reprovisions;
        got.push((seed, kappa2, digest));
    }
    assert!(resets > 0, "no schedule reached a watchdog restart");
    assert!(reprovisions > 0, "no schedule reached a reprovision");
    for ((seed, kappa2, digest), (_, _, pinned)) in got.iter().zip(PINS) {
        assert_eq!(
            *digest, pinned,
            "seed {seed} κ₂ {kappa2:?}: digest {digest:#018x}"
        );
    }
}
