//! Integration tests for the model checker: the pinned n ≤ 3
//! reachable-edge set, and the seeded-mutant counterexample pipeline
//! (found → shrunk → round-tripped → replayable both ways).

use radio_mc::{
    engine_seed_search, expected_reachable, explore, mutant_scenario, standard_scenarios,
    to_repro_case,
};
use std::collections::BTreeSet;
use urn_coloring::{MutationKind, ReproCase, Transition};

/// The exact abstract-edge set reachable with at most three nodes.
/// Everything in `LEGAL_TRANSITIONS` except `VerifyActive →
/// VerifyWaiting`, which needs two adjacent same-class requesters and
/// therefore two leaders — four nodes (see `expected_reachable`).
const PINNED_N3: [Transition; 12] = [
    ("Wake", "VerifyWaiting"),
    ("VerifyWaiting", "VerifyWaiting"),
    ("VerifyWaiting", "VerifyActive"),
    ("VerifyWaiting", "Request"),
    ("VerifyActive", "VerifyActive"),
    ("VerifyActive", "Request"),
    ("VerifyActive", "Colored"),
    ("VerifyActive", "Leader"),
    ("Request", "Request"),
    ("Request", "VerifyWaiting"),
    ("Colored", "Colored"),
    ("Leader", "Leader"),
];

#[test]
fn n3_exhaustive_pass_pins_the_reachable_edge_set() {
    let mut covered: BTreeSet<Transition> = BTreeSet::new();
    for sc in standard_scenarios(3, 1) {
        let report = explore(&sc, 5_000_000);
        assert!(
            report.counterexample.is_none(),
            "honest scenario {} violated an invariant: {:?}",
            sc.name,
            report.counterexample
        );
        assert!(!report.truncated, "{} truncated", sc.name);
        covered.extend(report.covered.iter().copied());
    }
    let pinned: BTreeSet<Transition> = PINNED_N3.iter().copied().collect();
    // Named diff in both directions: a bare count mismatch would hide
    // *which* table row died or which edge appeared from nowhere.
    let missing: Vec<Transition> = pinned.difference(&covered).copied().collect();
    let extra: Vec<Transition> = covered.difference(&pinned).copied().collect();
    assert!(
        missing.is_empty(),
        "edges no longer reachable at n<=3 (dead table rows): {missing:?}"
    );
    assert!(
        extra.is_empty(),
        "edges newly reachable at n<=3 (stale pin or semantics change): {extra:?}"
    );
    // The pin and the library's expectation are the same set.
    assert_eq!(pinned, expected_reachable(3));
}

fn check_mutant(kind: MutationKind, label: &str, expect_rules: &[&str], expect_min_n: usize) {
    let sc = mutant_scenario(kind);
    let report = explore(&sc, 5_000_000);
    let cx = report
        .counterexample
        .unwrap_or_else(|| panic!("explorer must catch the {} mutant", kind.as_str()));
    assert!(
        cx.violations.iter().any(|v| expect_rules.contains(&v.rule)),
        "{}: expected one of {expect_rules:?}, got {:?}",
        kind.as_str(),
        cx.violations
    );

    // Pipeline: counterexample -> witness-carrying case -> shrink.
    let case = to_repro_case(&sc, &cx, label);
    assert!(case.fails(), "witness replay must be red");
    let mut small = urn_coloring::shrink(&case);
    assert!(small.fails(), "shrunk case must stay red");
    assert_eq!(small.n, expect_min_n, "minimal size changed: {small:?}");
    assert!(small.witness.is_some(), "shrinking must keep the witness");

    // The artifact replays red through the engine as well: the stored
    // seed drives EngineKind::Lockstep when the witness is stripped.
    let seed = engine_seed_search(&small, 64).expect("an engine seed must reproduce the failure");
    small.seed = seed;
    let mut stripped = small.clone();
    stripped.witness = None;
    assert!(stripped.fails(), "engine replay with the found seed is red");

    // And it round-trips through the artifact codec, witness included.
    let round = ReproCase::from_json(&small.to_json()).expect("codec");
    assert_eq!(round, small);
    assert!(round.fails());
}

#[test]
fn lying_counter_mutant_pipeline() {
    // The lie is caught at the first dishonest transmission; alone on
    // a one-node graph the claim still contradicts the observed state.
    check_mutant(
        MutationKind::LyingCounter,
        "mc_lying_counter",
        &["message-state-mismatch"],
        1,
    );
}

#[test]
fn copycat_leader_mutant_pipeline() {
    // The copycat needs a real leader to imitate, so the minimal
    // configuration keeps both nodes.
    check_mutant(
        MutationKind::CopycatLeader,
        "mc_copycat_leader",
        &[
            "illegal-transition",
            "commit-conflict",
            "illegal-projection",
        ],
        2,
    );
}

/// The exact search effort of the checked n ≤ 4, budget-1 catalog, as
/// recorded in `MC.json`: expansions, unique states and paths per
/// scenario. Any change to the stepper's transition function or to the
/// explorer's branching shows up here as a count drift, so this is the
/// check that a rewritten stepper still explores the same state space.
#[test]
fn n4_budget1_catalog_counts_are_pinned() {
    const PINNED: [(&str, u64, u64, u64); 6] = [
        ("lone", 84, 43, 2),
        ("pair", 1274, 566, 15),
        ("late-joiner", 705, 299, 11),
        ("triangle", 2716, 1537, 26),
        ("line", 1890, 993, 20),
        ("two-clusters", 1915, 983, 16),
    ];
    let got: Vec<(String, u64, u64, u64)> = standard_scenarios(4, 1)
        .iter()
        .map(|sc| {
            let r = explore(sc, 20_000_000);
            assert!(r.counterexample.is_none(), "{} violated", sc.name);
            assert!(!r.truncated, "{} truncated", sc.name);
            (r.scenario, r.expansions, r.unique_states, r.paths)
        })
        .collect();
    let want: Vec<(String, u64, u64, u64)> = PINNED
        .iter()
        .map(|&(name, e, s, p)| (name.to_string(), e, s, p))
        .collect();
    assert_eq!(got, want);
}
