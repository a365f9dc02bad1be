//! Runs the linter over the red/green fixture corpora under
//! `tests/fixtures/` and pins the exact per-rule outcome. Each rule
//! R1–R10 (R8 is retired) has at least one red (violations) and one
//! green (clean) fixture; the corpora mirror real workspace-relative
//! paths so the scope logic (and the path-anchored semantic rules R7
//! and R9) in `run_lint` is exercised identically.

use radio_lint::{run_lint, Rule};
use std::path::PathBuf;

fn fixture_root(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn count(report: &radio_lint::Report, rule: Rule) -> usize {
    report.violations.iter().filter(|d| d.rule == rule).count()
}

#[test]
fn clean_corpus_is_green() {
    let report = run_lint(&fixture_root("clean")).expect("scan clean corpus");
    assert_eq!(
        report.violations.len(),
        0,
        "clean corpus must be violation-free, got: {:#?}",
        report.violations
    );
    // `transport/src/pacing.rs` uses `Instant` twice and still comes
    // back green: the R1/R6 scope split (not a waiver) is what lets
    // service code read the wall clock. The corpus also carries green
    // anchors for the semantic rules: a disciplined `engine/sharded.rs`
    // (R7/R10), a fully covered wire enum + dispatch + event kinds
    // (R9), and a disciplined colord shard worker + router (the R7/R10
    // anchors added with the sharded service).
    assert_eq!(report.files_scanned, 12, "full green corpus in scope");
    // The one deliberate, justified waiver in `engine/good.rs` — it
    // both proves waiver application suppresses a real finding and
    // that waivers are counted.
    assert_eq!(report.waivers.len(), 1);
    assert_eq!(report.waivers[0].rule, Rule::NoPanic);
}

#[test]
fn violation_corpus_is_red_per_rule() {
    let report = run_lint(&fixture_root("violations")).expect("scan violation corpus");
    // R1: `Instant` (use + call site) and `thread_rng` (call + def) in
    // sim scope. The `Instant`s in `colord/src/entropy.rs` do NOT
    // count — service scope swaps R1 for the narrower R6.
    assert_eq!(count(&report, Rule::AmbientTimeRng), 4);
    // R6: `thread_rng` + `from_entropy` in `colord/src/entropy.rs`.
    assert_eq!(count(&report, Rule::ServiceAmbientRng), 2);
    // R2: `HashMap` x2 and `HashSet` x2 in `hashy.rs`.
    assert_eq!(count(&report, Rule::HashIteration), 4);
    // R3: unwrap, expect, panic!, unreachable! in `engine/panicky.rs`.
    assert_eq!(count(&report, Rule::NoPanic), 4);
    // R4: in `lonely.rs` — missing sibling, non-delegating plain fn,
    // sibling missing the monitor hook, sibling missing the channel
    // hook; in `rogue.rs` — plain fn routing around `SimDriver`
    // without delegating, monitored fn routing around `SimDriver`
    // with only the monitor hook.
    assert_eq!(count(&report, Rule::HookParity), 6);
    // R5: unmarked assignment + illegal node edge + malformed marker,
    // illegal monitor edge, unadjudicated table edge, duplicate entry.
    assert_eq!(count(&report, Rule::TransitionTable), 6);
    // R7 in `engine/sharded.rs`: unlocked mailbox touch in
    // `phase_tx`, mailbox traffic in non-phase `collect_all`, raw
    // write + raw read of `Shared` fields in `phase_report`, a 5-wait
    // monitored barrier schedule, and only one barrier site. Same
    // shapes in `colord/src/shard.rs`: unlocked mailbox touch in
    // `phase_transmit`, mailbox traffic in non-phase `drain_all`, raw
    // write + raw read in `phase_commit`, and a 2-wait `worker_loop`
    // against the documented 3-wait schedule.
    assert_eq!(count(&report, Rule::ShardPhase), 11);
    // R9: `decode` hole in `colord/src/wire.rs`, a dropped variant in
    // the server dispatch, and a consumer-less `EventKind::Tx`.
    assert_eq!(count(&report, Rule::WireExhaustive), 3);
    // R10: RefCell + `unsafe` + `static mut` directly in
    // `engine/cells.rs`, plus the RefCell in `sim/src/side.rs` reached
    // only through the sharded engine's `ShardState::outbox` field.
    // The colord anchors add a RefCell directly in `colord/src/shard.rs`,
    // `static mut` + `unsafe` in `colord/src/router.rs`, and the
    // RefCell in `colord/src/ledger.rs` reached only through
    // `Shard::ledger`.
    assert_eq!(count(&report, Rule::InteriorMutability), 8);
    // W0: unknown rule name, missing justification.
    assert_eq!(count(&report, Rule::WaiverSyntax), 2);
    // Malformed waivers never count as waivers.
    assert_eq!(report.waivers.len(), 0);
}

#[test]
fn diagnostics_are_sorted_and_carry_locations() {
    let report = run_lint(&fixture_root("violations")).expect("scan violation corpus");
    let keys: Vec<_> = report
        .violations
        .iter()
        .map(|d| (d.file.clone(), d.line, d.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted, "diagnostics must be reported in sorted order");
    for d in &report.violations {
        assert!(d.file.starts_with("crates/"), "workspace-relative: {d}");
        assert!(d.line >= 1, "1-based lines: {d}");
    }
}
