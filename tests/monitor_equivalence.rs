//! Cross-engine monitor equivalence: the invariant monitor must report
//! the *same* violations whichever engine drives it.
//!
//! Two halves:
//!
//! * honest runs are monitor-clean under every engine × channel model —
//!   the violation lists are identical because they are all empty;
//! * a deterministic misbehaving protocol (no RNG draws at all) yields
//!   *identical non-empty* violation lists across the lock-step,
//!   event-driven and jittered engines, relying on the engines' final
//!   `(slot, node, rule, detail)` canonical sort.
//!
//! The jittered engine runs with all-false phases, where it fires the
//! same hooks at the same local slots as lock-step, except that it
//! stops before delivering the last slot's packets; monitors see
//! per-node *local* slots, so the lists stay comparable.

use radio_graph::generators::special::{complete, path, star};
use radio_graph::Graph;
use radio_sim::{
    Behavior, ChannelSpec, EventSkip, Jittered, Lockstep, RadioProtocol, SimConfig, SimDriver,
    Slot, Violation,
};
use rand::rngs::SmallRng;
use urn_coloring::{
    AlgorithmParams, ColoringMonitor, ColoringMsg, ColoringNode, MutationKind, ObservableColoring,
    ObservedState, ProtoId, ReproCase,
};

/// The channel sweep every test runs under.
fn channels() -> Vec<ChannelSpec> {
    vec![
        ChannelSpec::Ideal,
        ChannelSpec::ProbabilisticLoss { p: 0.2 },
        ChannelSpec::GilbertElliott {
            p_bad: 0.02,
            p_good: 0.15,
            loss_good: 0.02,
            loss_bad: 0.9,
        },
        ChannelSpec::AdversarialJam {
            window: 32,
            budget: 3,
        },
    ]
}

/// Runs honest coloring nodes under one engine and returns the sorted
/// flat violations from the outcome.
fn violations_under(
    which: usize,
    graph: &Graph,
    wake: &[Slot],
    params: AlgorithmParams,
    channel: ChannelSpec,
    seed: u64,
) -> Vec<Violation> {
    let n = graph.len();
    let protocols: Vec<ColoringNode> = (1..=n as ProtoId)
        .map(|id| ColoringNode::new(id, params))
        .collect();
    let cfg = SimConfig::with_max_slots(400_000).with_channel(channel);
    let mut monitor = ColoringMonitor::new(graph);
    let out = match which {
        0 => SimDriver::run::<Lockstep>(graph, wake, protocols, (), seed, &cfg, &mut monitor),
        1 => SimDriver::run::<EventSkip>(graph, wake, protocols, (), seed, &cfg, &mut monitor),
        _ => {
            let phases = vec![false; n];
            SimDriver::run::<Jittered>(graph, wake, protocols, &phases, seed, &cfg, &mut monitor)
        }
    };
    assert!(out.error.is_none());
    out.violations
}

#[test]
fn honest_runs_are_monitor_clean_under_every_engine_and_channel() {
    let graphs = [path(6), star(5), complete(4)];
    for graph in &graphs {
        let delta = graph.max_closed_degree().max(2);
        let params = AlgorithmParams::practical(2, delta, 64);
        // Simultaneous wake keeps the stateful adversarial jammer's
        // budget spending identical across engines; the monitor must be
        // clean regardless.
        let wake = vec![0; graph.len()];
        for channel in channels() {
            for seed in [3u64, 11] {
                for which in 0..3 {
                    let vs = violations_under(which, graph, &wake, params, channel, seed);
                    assert!(
                        vs.is_empty(),
                        "engine {which} under {channel:?} seed {seed}: {vs:?}"
                    );
                }
            }
        }
    }
}

/// A deterministic liar: claims `C_5` from the very first observation
/// (the wake hook must see `A_0(waiting)`), never transmits, never
/// draws randomness, and is decided immediately. Every engine sees the
/// exact same hook sequence, so the monitor must produce the exact
/// same violations: one illegal wake observation per node plus one
/// commit conflict per edge (all nodes claim the same color).
struct StuckColored {
    id: ProtoId,
    params: AlgorithmParams,
}

impl RadioProtocol for StuckColored {
    type Message = ColoringMsg;

    fn on_wake(&mut self, _now: Slot, _rng: &mut SmallRng) -> Behavior {
        Behavior::Silent { until: None }
    }

    fn on_deadline(&mut self, _now: Slot, _rng: &mut SmallRng) -> Behavior {
        Behavior::Silent { until: None }
    }

    fn message(&mut self, _now: Slot, _rng: &mut SmallRng) -> ColoringMsg {
        ColoringMsg::Decided {
            class: 5,
            sender: self.id,
        }
    }

    fn on_receive(
        &mut self,
        _now: Slot,
        _msg: &ColoringMsg,
        _rng: &mut SmallRng,
    ) -> Option<Behavior> {
        None
    }

    fn is_decided(&self) -> bool {
        true
    }
}

impl ObservableColoring for StuckColored {
    fn observe(&self, _now: Slot) -> ObservedState {
        ObservedState::Colored { class: 5 }
    }
    fn proto_id(&self) -> ProtoId {
        self.id
    }
    fn observe_params(&self) -> &AlgorithmParams {
        &self.params
    }
}

#[test]
fn deterministic_violator_yields_identical_violations_across_engines() {
    let graph = path(4);
    let params = AlgorithmParams::practical(2, 3, 16);
    let wake: Vec<Slot> = vec![0, 2, 5, 9];
    for channel in channels() {
        let cfg = SimConfig::with_max_slots(1_000).with_channel(channel);
        let mk =
            || -> Vec<StuckColored> { (1..=4).map(|id| StuckColored { id, params }).collect() };
        let mut runs: Vec<Vec<Violation>> = Vec::new();
        for which in 0..3 {
            let mut monitor = ColoringMonitor::new(&graph);
            let out = match which {
                0 => SimDriver::run::<Lockstep>(&graph, &wake, mk(), (), 7, &cfg, &mut monitor),
                1 => SimDriver::run::<EventSkip>(&graph, &wake, mk(), (), 7, &cfg, &mut monitor),
                _ => SimDriver::run::<Jittered>(
                    &graph,
                    &wake,
                    mk(),
                    &[false; 4],
                    7,
                    &cfg,
                    &mut monitor,
                ),
            };
            assert!(
                !out.violations.is_empty(),
                "engine {which} under {channel:?} missed the violator"
            );
            // One illegal wake observation per node, one conflict per
            // edge of the path.
            let illegal = out
                .violations
                .iter()
                .filter(|v| v.rule == "illegal-transition")
                .count();
            let conflicts = out
                .violations
                .iter()
                .filter(|v| v.rule == "commit-conflict")
                .count();
            assert_eq!(illegal, 4, "engine {which}: {:?}", out.violations);
            assert_eq!(conflicts, 3, "engine {which}: {:?}", out.violations);
            runs.push(out.violations);
        }
        assert_eq!(runs[0], runs[1], "lockstep vs event under {channel:?}");
        assert_eq!(runs[0], runs[2], "lockstep vs jittered under {channel:?}");
    }
}

#[test]
fn mutated_runs_are_detected_by_both_replay_engines() {
    for engine in [
        radio_sim::EngineKind::Lockstep,
        radio_sim::EngineKind::Event,
    ] {
        let graph = path(4);
        let case = ReproCase {
            label: "equivalence copycat".to_string(),
            n: 4,
            edges: graph.edges().collect(),
            wake: vec![0; 4],
            seed: 5,
            engine,
            channel: ChannelSpec::Ideal,
            params: AlgorithmParams::practical(2, 3, 16),
            mutation: MutationKind::CopycatLeader,
            max_slots: 200_000,
            witness: None,
        };
        assert!(case.fails(), "{engine:?} replay missed the copycat");
    }
}
