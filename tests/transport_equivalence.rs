//! Cross-implementation oracle for the slot kernel: the same
//! `ColoringNode` protocol run (a) by monitored `Lockstep`, which steps
//! the kernel's four phases, and (b) by the `Jittered` engine with every
//! phase bit `false`, whose messages cross a byte codec, must agree on
//! every node's color, decision slot and transmission count.
//!
//! `Jittered` is independent of the kernel's slot loop: it keeps its own
//! wake queue, per-node draw loop, packet queue and overlap kernel, and
//! runs no kernel phase, only the per-node hooks. With aligned phases
//! its packets cover exactly one slot, so a node draws, transmits and
//! receives at the same local slots as under lock-step. Each node runs
//! inside [`Wired`], which encodes every message with `to_payload` and
//! decodes it with `from_payload` before the FSM sees it, so the codec
//! `ColoringMsg` declares for the wire is exercised on whole runs.
//!
//! `received` and `collisions` are not compared. `Jittered` stops with
//! the last slot's packets still in flight, so a node can count one
//! reception fewer, and it counts a collision for each packet lost, not
//! one per slot.

use proptest::prelude::*;
use radio_graph::analysis::kappa;
use radio_graph::{Graph, NodeId};
use radio_sim::{
    Behavior, BehaviorFault, EngineKind, Jittered, NullMonitor, RadioProtocol, SimConfig,
    SimDriver, Slot,
};
use radio_transport::WireMessage;
use rand::rngs::SmallRng;
use urn_coloring::{color_graph, AlgorithmParams, ColoringConfig, ColoringMsg, ColoringNode};

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(|n| {
        prop::collection::vec((0..n as NodeId, 0..n as NodeId), 0..n * 2)
            .prop_map(move |edges| Graph::from_edges(n, edges))
    })
}

fn params_for(g: &Graph) -> AlgorithmParams {
    let k = kappa(g);
    AlgorithmParams::practical(k.k2.max(2), g.max_closed_degree().max(2), 256)
}

/// A `ColoringNode` whose messages travel as bytes: `message` encodes,
/// `on_receive` decodes. A frame that fails to decode is reported as a
/// contract breach; the node's own breaches are forwarded.
struct Wired {
    inner: ColoringNode,
    breach: Option<BehaviorFault>,
}

impl RadioProtocol for Wired {
    type Message = Vec<u8>;

    fn on_wake(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
        self.inner.on_wake(now, rng)
    }

    fn on_deadline(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
        self.inner.on_deadline(now, rng)
    }

    fn message(&mut self, now: Slot, rng: &mut SmallRng) -> Vec<u8> {
        self.inner.message(now, rng).to_payload()
    }

    fn on_receive(&mut self, now: Slot, frame: &Vec<u8>, rng: &mut SmallRng) -> Option<Behavior> {
        match ColoringMsg::from_payload(frame) {
            Ok(msg) => self.inner.on_receive(now, &msg, rng),
            Err(_) => {
                self.breach = Some(BehaviorFault::ContractBreach {
                    context: "undecodable frame",
                });
                None
            }
        }
    }

    fn is_decided(&self) -> bool {
        self.inner.is_decided()
    }

    fn take_breach(&mut self) -> Option<BehaviorFault> {
        self.breach.take().or_else(|| self.inner.take_breach())
    }
}

/// Runs both sides on `(g, wake, seed)` and asserts that they agree.
fn assert_equivalent(g: &Graph, wake: &[u64], seed: u64) -> Result<(), TestCaseError> {
    let params = params_for(g);
    let max_slots = 30_000_000;

    // Lock-step side: sequential IDs (1..=n, the scheme the wired side
    // reproduces below), monitor on.
    let mut config = ColoringConfig::new(params).with_monitor();
    config.engine = EngineKind::Lockstep;
    config.sim = SimConfig::with_max_slots(max_slots);
    let sim = color_graph(g, wake, &config, seed);

    // Jittered side: aligned phases, every message through the codec.
    let protocols: Vec<Wired> = (1..=g.len() as u64)
        .map(|id| Wired {
            inner: ColoringNode::new(id, params),
            breach: None,
        })
        .collect();
    let phases = vec![false; g.len()];
    let net = SimDriver::run::<Jittered>(
        g,
        wake,
        protocols,
        &phases,
        seed,
        &SimConfig::with_max_slots(max_slots),
        &mut NullMonitor,
    );

    prop_assert_eq!(&sim.error, &None, "lock-step protocol error");
    prop_assert_eq!(&net.error, &None, "jittered protocol error");
    prop_assert!(sim.all_decided, "lock-step run hit the slot limit");
    prop_assert!(net.all_decided, "jittered run hit the slot limit");
    prop_assert!(
        sim.violations.is_empty(),
        "monitored lock-step trace broke an invariant: {:?}",
        sim.violations
    );

    for v in 0..g.len() {
        prop_assert_eq!(
            sim.colors[v],
            net.protocols[v].inner.color(),
            "color diverged at node {}",
            v
        );
        let (s, j) = (&sim.stats[v], &net.stats[v]);
        prop_assert_eq!(
            s.decided_at,
            j.decided_at,
            "decided_at diverged at node {}",
            v
        );
        prop_assert_eq!(s.sent, j.sent, "sent count diverged at node {}", v);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn aligned_jittered_matches_lockstep_simultaneous_wake(
        g in arb_graph(8),
        seed in 0u64..1000,
    ) {
        assert_equivalent(&g, &vec![0; g.len()], seed)?;
    }

    #[test]
    fn aligned_jittered_matches_lockstep_staggered_wake(
        g in arb_graph(7),
        wake_raw in prop::collection::vec(0u64..3000, 7),
        seed in 0u64..1000,
    ) {
        let wake: Vec<u64> = wake_raw[..g.len()].to_vec();
        assert_equivalent(&g, &wake, seed)?;
    }
}

/// One pinned non-property case so a plain `cargo test` failure here
/// is immediately reproducible without a proptest seed.
#[test]
fn aligned_jittered_matches_lockstep_on_a_path() {
    let g = Graph::from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
    assert_equivalent(&g, &[0, 10, 0, 25, 3], 0xC0102).unwrap();
}
