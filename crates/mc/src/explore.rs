//! The bounded explorer: exhaustive enumeration of the coloring FSM's
//! executions under channel nondeterminism, with every transition
//! audited by the Lemma 4–9 monitor and projected onto the Fig. 2
//! legality table.
//!
//! # The budgeted-deviation execution model
//!
//! Branching over every transmit coin and channel outcome of every
//! node is hopeless even at n = 3 (the per-slot outcome space is
//! exponential and the interesting horizons are hundreds of slots).
//! The explorer instead fixes a *deterministic fair baseline* — exactly
//! one transmitter per slot, rotating round-robin through the
//! transmit-entitled set ([`urn_coloring::round_robin`]) — and grants
//! the adversary a *deviation budget*: each explored slot may either
//!
//! * follow the baseline (cost 0),
//! * flip one entitled node's transmit decision (cost 1) — silencing
//!   the scheduled transmitter or adding a second one (a collision), or
//! * drop one listener's otherwise-successful singleton delivery
//!   (cost 1 — the engines' `Drop` outcome).
//!
//! With budget *b* the explorer covers **every** execution within
//! Hamming distance *b* of the fair schedule, at every possible slot.
//! Budget 1 is the checked default: the protocol's safety lemmas are
//! *deterministically* true there (a commit requires a full
//! `critical_range` of separation, and under round-robin every
//! competitor is heard at least twice per range — blocking that takes
//! two deviations), so any violation found is a genuine bug rather
//! than a low-probability channel conspiracy. Higher budgets cross
//! into the paper's with-high-probability regime where manufactured
//! conflicts are *expected*; see DESIGN.md.
//!
//! States are deduplicated by a fingerprint of the full protocol
//! vector (plus behaviors and slot), keyed to the best remaining
//! budget seen — a state revisited with no more budget than before
//! cannot reach anything new.

use crate::project::ProjectionMonitor;
use radio_graph::{Graph, NodeId};
use radio_sim::{ChannelSpec, EngineKind, Fanout, InvariantMonitor, NullMonitor, Slot, Violation};
use std::collections::{BTreeMap, BTreeSet};
use urn_coloring::invariants::ColoringMonitor;
use urn_coloring::step::{round_robin, SlotChoice, SlotStepper, Witness};
use urn_coloring::transitions::Transition;
use urn_coloring::{AlgorithmParams, ColoringNode, MutatedNode, MutationKind, ReproCase};

/// Slot cap given to engine-based replays of model-checker artifacts
/// (the witness replay itself needs no cap — its schedule is finite).
pub const ENGINE_REPLAY_SLOTS: Slot = 20_000;

/// One exploration problem: a topology, the wake schedules to explore
/// from, and the deviation budget.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Display name (also used in reports and artifact labels).
    pub name: String,
    /// Node count (≤ 64; the catalog stays at n ≤ 5).
    pub n: usize,
    /// Undirected edge list.
    pub edges: Vec<(NodeId, NodeId)>,
    /// Wake vectors to explore, each a root of its own search tree.
    pub wakes: Vec<Vec<Slot>>,
    /// Exploration horizon: paths still undecided at this slot end.
    pub horizon: Slot,
    /// Deviations available per path (see the module docs).
    pub budget: u8,
    /// Algorithm parameters shared by all nodes.
    pub params: AlgorithmParams,
    /// Seeded deviation (honest scenarios use [`MutationKind::None`]).
    pub mutation: MutationKind,
}

/// A violating path found by the explorer: everything needed to replay
/// it deterministically and to convert it into a repro artifact.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The scenario it was found in.
    pub scenario: String,
    /// The wake vector of the violating root.
    pub wake: Vec<Slot>,
    /// The per-slot choice schedule from slot 0 to the violation.
    pub witness: Witness,
    /// The monitor violations the final slot produced.
    pub violations: Vec<Violation>,
}

/// What an exploration covered, and whether it found a violation.
#[derive(Clone, Debug)]
pub struct ExploreReport {
    /// Scenario name.
    pub scenario: String,
    /// Concrete slot transitions executed (search effort).
    pub expansions: u64,
    /// Distinct states seen across all roots (fingerprint count).
    pub unique_states: u64,
    /// Completed paths (terminated or horizon-capped).
    pub paths: u64,
    /// Paths that hit the horizon before every node decided.
    pub horizon_hits: u64,
    /// Children skipped because an equal-or-better visit existed.
    pub dedup_hits: u64,
    /// Abstract Fig. 2 edges covered across all explored transitions.
    pub covered: BTreeSet<Transition>,
    /// `true` if the expansion cap ended the search early.
    pub truncated: bool,
    /// The first violating path found, if any (the search stops there).
    pub counterexample: Option<Counterexample>,
}

impl ExploreReport {
    fn new(scenario: String) -> Self {
        ExploreReport {
            scenario,
            expansions: 0,
            unique_states: 0,
            paths: 0,
            horizon_hits: 0,
            dedup_hits: 0,
            covered: BTreeSet::new(),
            truncated: false,
            counterexample: None,
        }
    }
}

/// Sentinel parent index for search-tree roots.
const ROOT: usize = usize::MAX;

struct Frame<'a> {
    stepper: SlotStepper<'a, MutatedNode>,
    budget: u8,
    path: usize,
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn fingerprint(stepper: &SlotStepper<'_, MutatedNode>) -> u64 {
    let repr = format!(
        "{:?}|{:?}|{}",
        stepper.nodes(),
        stepper.behaviors(),
        stepper.slot()
    );
    fnv64(repr.as_bytes())
}

fn fresh_nodes(sc: &Scenario) -> Vec<MutatedNode> {
    (1..=sc.n as u64)
        .map(|id| MutatedNode::new(ColoringNode::new(id, sc.params), sc.mutation))
        .collect()
}

fn reconstruct(arena: &[(usize, SlotChoice)], mut idx: usize, last: SlotChoice) -> Vec<SlotChoice> {
    let mut rev = vec![last];
    while idx != ROOT {
        let (parent, choice) = arena[idx];
        rev.push(choice);
        idx = parent;
    }
    rev.reverse();
    rev
}

/// Exhaustively explores `sc` up to `max_expansions` slot transitions,
/// running the Lemma 4–9 monitor and the Fig. 2 projection on every
/// one. Stops at the first violating path (reported as a
/// [`Counterexample`]) or when the budgeted state space is exhausted.
pub fn explore(sc: &Scenario, max_expansions: u64) -> ExploreReport {
    let graph = Graph::from_edges(sc.n, sc.edges.iter().copied());
    let mut report = ExploreReport::new(sc.name.clone());
    for wake in &sc.wakes {
        assert_eq!(
            wake.len(),
            sc.n,
            "wake vector length mismatch in {}",
            sc.name
        );
        explore_root(sc, &graph, wake, max_expansions, &mut report);
        if report.counterexample.is_some() || report.truncated {
            break;
        }
    }
    report
}

fn explore_root(
    sc: &Scenario,
    graph: &Graph,
    wake: &[Slot],
    max_expansions: u64,
    report: &mut ExploreReport,
) {
    let mut arena: Vec<(usize, SlotChoice)> = Vec::new();
    let mut visited: BTreeMap<u64, u8> = BTreeMap::new();
    let mut stack = vec![Frame {
        stepper: SlotStepper::new(graph, wake, fresh_nodes(sc)),
        budget: sc.budget,
        path: ROOT,
    }];
    while let Some(frame) = stack.pop() {
        if frame.stepper.slot() >= sc.horizon {
            report.horizon_hits += 1;
            report.paths += 1;
            continue;
        }
        // Probe the slot's branch points without committing: a clone
        // runs the wake/deadline phase to learn who may transmit and,
        // under the baseline pick, who would receive.
        let mut probe = frame.stepper.clone();
        let capable = probe.begin_slot(&mut NullMonitor);
        let baseline = round_robin(capable, frame.stepper.slot());
        let mut choices: Vec<(SlotChoice, u8)> = vec![(
            SlotChoice {
                tx: baseline,
                drop: 0,
            },
            0,
        )];
        if frame.budget > 0 {
            let mut flips = capable;
            while flips != 0 {
                let v = flips.trailing_zeros();
                flips &= flips - 1;
                choices.push((
                    SlotChoice {
                        tx: baseline ^ (1u64 << v),
                        drop: 0,
                    },
                    1,
                ));
            }
            let mut drops = probe.singleton_receivers(baseline);
            while drops != 0 {
                let u = drops.trailing_zeros();
                drops &= drops - 1;
                choices.push((
                    SlotChoice {
                        tx: baseline,
                        drop: 1u64 << u,
                    },
                    1,
                ));
            }
        }
        for (choice, cost) in choices {
            if report.expansions >= max_expansions {
                report.truncated = true;
                report.unique_states += visited.len() as u64;
                return;
            }
            report.expansions += 1;
            let mut child = frame.stepper.clone();
            // Both monitors resume from the parent's pre-slot state, so
            // every check below sees exactly one slot of history plus
            // the parent snapshot — equivalent to having watched the
            // whole path, because the monitors are Markovian in the
            // (snapshot, colors) state the resume seam carries over.
            let mut monitor = Fanout(
                ColoringMonitor::resume(graph, child.observations()),
                ProjectionMonitor::resume(child.abstract_tags()),
            );
            child.begin_slot(&mut monitor);
            let done = child.finish_slot(choice, &mut monitor);
            report.covered.extend(monitor.1.covered().iter().copied());
            let mut violations = InvariantMonitor::<MutatedNode>::take_violations(&mut monitor);
            // A protocol error (contract breach, malformed behavior)
            // stops the kernel mid-slot: report it, never let the path
            // stall silently to the horizon.
            violations.extend(child.error().map(|e| Violation {
                node: e.node,
                slot: e.slot,
                rule: "protocol-error",
                detail: e.fault.to_string(),
            }));
            if !violations.is_empty() {
                report.paths += 1;
                report.unique_states += visited.len() as u64;
                report.counterexample = Some(Counterexample {
                    scenario: sc.name.clone(),
                    wake: wake.to_vec(),
                    witness: Witness {
                        schedule: reconstruct(&arena, frame.path, choice),
                    },
                    violations,
                });
                return;
            }
            if done {
                report.paths += 1;
                continue;
            }
            let left = frame.budget - cost;
            let fp = fingerprint(&child);
            match visited.get(&fp) {
                Some(&seen) if seen >= left => report.dedup_hits += 1,
                _ => {
                    visited.insert(fp, left);
                    arena.push((frame.path, choice));
                    stack.push(Frame {
                        stepper: child,
                        budget: left,
                        path: arena.len() - 1,
                    });
                }
            }
        }
    }
    report.unique_states += visited.len() as u64;
}

/// Converts a counterexample into a witness-carrying [`ReproCase`]:
/// the deterministic half of the counterexample-to-repro pipeline.
/// The returned case replays through the stepper (`detect` sees the
/// witness); [`engine_seed_search`] supplies the engine-replayable
/// seed for the artifact's non-witness fallback.
pub fn to_repro_case(sc: &Scenario, cx: &Counterexample, label: &str) -> ReproCase {
    ReproCase {
        label: label.to_string(),
        n: sc.n,
        edges: sc.edges.clone(),
        wake: cx.wake.clone(),
        seed: 0,
        engine: EngineKind::Lockstep,
        channel: ChannelSpec::Ideal,
        params: sc.params,
        mutation: sc.mutation,
        max_slots: ENGINE_REPLAY_SLOTS,
        witness: Some(cx.witness.clone()),
    }
}

/// Searches for a seed under which the case *also* fails when the
/// witness is stripped and the configured engine replays it with its
/// own randomness — so the committed artifact is red both ways.
pub fn engine_seed_search(case: &ReproCase, tries: u64) -> Option<u64> {
    let mut stripped = case.clone();
    stripped.witness = None;
    for seed in 0..tries {
        stripped.seed = seed;
        if stripped.fails() {
            return Some(seed);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{mc_params, mutant_scenario};

    fn lone() -> Scenario {
        Scenario {
            name: "lone".into(),
            n: 1,
            edges: vec![],
            wakes: vec![vec![0]],
            horizon: 80,
            budget: 1,
            params: mc_params(),
            mutation: MutationKind::None,
        }
    }

    #[test]
    fn lone_node_explores_clean() {
        let report = explore(&lone(), 100_000);
        assert!(report.counterexample.is_none(), "{report:?}");
        assert!(!report.truncated);
        assert!(report.paths > 0);
        for edge in [
            ("Wake", "VerifyWaiting"),
            ("VerifyWaiting", "VerifyActive"),
            ("VerifyActive", "Leader"),
            ("Leader", "Leader"),
        ] {
            assert!(report.covered.contains(&edge), "missing {edge:?}");
        }
    }

    #[test]
    fn expansion_cap_truncates() {
        let report = explore(&lone(), 10);
        assert!(report.truncated);
        assert_eq!(report.expansions, 10);
    }

    #[test]
    fn lying_counter_yields_shrinkable_counterexample() {
        let sc = mutant_scenario(MutationKind::LyingCounter);
        let report = explore(&sc, 2_000_000);
        let cx = report.counterexample.expect("mutant must be caught");
        assert!(
            cx.violations.iter().any(|v| v.rule.contains("message")),
            "{:?}",
            cx.violations
        );
        let case = to_repro_case(&sc, &cx, "mc_lying_counter");
        assert!(case.fails(), "witness replay must be red");
        let small = urn_coloring::shrink(&case);
        assert!(small.fails());
        assert!(small.n <= case.n);
        // The minimal lying-counter case is a single node caught
        // claiming a counter it does not have.
        assert_eq!(small.n, 1, "{small:?}");
        let round = ReproCase::from_json(&small.to_json()).expect("codec");
        assert_eq!(round.witness, small.witness);
        assert!(round.fails(), "artifact must replay red after round-trip");
    }
}
