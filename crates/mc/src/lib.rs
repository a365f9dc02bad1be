//! `radio-mc` — bounded model checking for the coloring FSM.
//!
//! Where the engines in `radio-sim` *sample* executions (one seed, one
//! path) and the monitor in `urn-coloring` audits whatever path was
//! sampled, this crate *enumerates*: every execution of a small
//! network within a deviation budget of the fair transmission
//! schedule, each transition checked against the Lemma 4–9 invariants
//! and projected onto the Fig. 2 legality table
//! (`LEGAL_TRANSITIONS`). Three layers:
//!
//! * [`mod@explore`] — the explorer itself: budgeted-deviation branching
//!   over `urn_coloring::step::SlotStepper`, canonical-state
//!   deduplication, counterexample paths as replayable
//!   `urn_coloring::step::Witness` schedules, and the pipeline that
//!   turns a violating path into a shrunk `ReproCase` artifact.
//! * [`project`] — trace projection for *concrete* executions: an
//!   `InvariantMonitor` and a protocol wrapper that map engine runs
//!   onto the same abstract machine, for conformance checking and edge
//!   coverage.
//! * [`diagram`] — the Graphviz rendering of the legality table that
//!   `docs/state_machine.dot` is generated from.
//!
//! The `radio-mc` binary drives all three (`--check`, `--mutants`,
//! `--diagram`); CI runs it as the `--model-check` gate.

pub mod diagram;
pub mod explore;
pub mod project;
pub mod scenarios;

pub use diagram::state_machine_dot;
pub use explore::{
    engine_seed_search, explore, to_repro_case, Counterexample, ExploreReport, Scenario,
    ENGINE_REPLAY_SLOTS,
};
pub use project::{Projected, ProjectionMonitor, WAKE};
pub use scenarios::{mc_params, mutant_scenario, standard_scenarios};

use std::collections::BTreeSet;
use urn_coloring::{Transition, LEGAL_TRANSITIONS};

/// The abstract edges reachable by some execution of some network with
/// at most `max_n` nodes.
///
/// Every table edge is reachable at n = 4: `VerifyActive →
/// VerifyWaiting` (losing a class-i verification, i ≥ 1) needs two
/// *adjacent* nodes verifying the *same* non-zero class, which takes
/// two distinct leaders each serving one of two adjacent requesters —
/// four nodes, as in the `two-clusters` catalog scenario. At n ≤ 3
/// two requesters always share their single leader and therefore get
/// distinct classes, so exactly that one edge is missing.
pub fn expected_reachable(max_n: usize) -> BTreeSet<Transition> {
    let mut set: BTreeSet<Transition> = LEGAL_TRANSITIONS.iter().copied().collect();
    if max_n < 4 {
        set.remove(&("VerifyActive", "VerifyWaiting"));
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_reachable_tracks_the_table() {
        assert_eq!(expected_reachable(4).len(), LEGAL_TRANSITIONS.len());
        assert_eq!(expected_reachable(5).len(), LEGAL_TRANSITIONS.len());
        assert_eq!(expected_reachable(3).len(), LEGAL_TRANSITIONS.len() - 1);
        assert!(!expected_reachable(3).contains(&("VerifyActive", "VerifyWaiting")));
    }
}
