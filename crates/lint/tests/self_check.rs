//! The linter's own dogfood gate: the real workspace must be
//! lint-clean at exactly the committed waiver budget, and the
//! semantic rules must be demonstrably *engaged* — R8's two hook
//! sequences extracted and equal, R7/R9/R10 anchored on files that
//! exist. This is the same check `ci.sh` runs via the binary, kept as
//! a test so plain `cargo test` catches regressions without invoking
//! the CLI.

use radio_lint::{hook_order_sequences, run_lint, run_lint_with, LintOptions, Rule};
use std::path::PathBuf;

/// Must match `EXPECTED_WAIVERS` in `src/main.rs`.
const EXPECTED_WAIVERS: usize = 0;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn workspace_is_lint_clean() {
    let report = run_lint(&workspace_root()).expect("scan workspace");
    assert!(
        report.files_scanned > 20,
        "expected to scan the full crates/ tree, got {} files",
        report.files_scanned
    );
    assert!(
        report.violations.is_empty(),
        "workspace has unwaived lint violations:\n{}",
        report
            .violations
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(
        report.waivers.len(),
        EXPECTED_WAIVERS,
        "waiver count drifted — update the budget (with justification) in \
         crates/lint/src/main.rs AND crates/lint/tests/self_check.rs"
    );
    // Every rule reports a wall-time entry (R1..R10 + W0).
    assert_eq!(report.timings_ms.len(), 11);
    assert!(report.timings_ms.iter().any(|(id, _)| *id == "R7"));
}

/// R8 is only meaningful if both slot loops were actually found and
/// walked: the slot kernel through `lockstep.rs::drive`, and
/// `pump_node`. The sequences must exist, be non-trivial, and agree.
#[test]
fn hook_sequences_extracted_and_equal() {
    let seqs = hook_order_sequences(&workspace_root()).expect("scan workspace");
    assert_eq!(
        seqs.len(),
        2,
        "expected the lockstep kernel and pump slot loops, got: {:?}",
        seqs.iter().map(|s| &s.file).collect::<Vec<_>>()
    );
    for s in &seqs {
        assert_eq!(
            s.classes,
            ["Wake", "Deadline", "Transmit", "Receive"],
            "`{}::{}` drives hooks out of order",
            s.file,
            s.fn_name
        );
    }
}

/// `--only` narrows the report to one rule without breaking the scan.
#[test]
fn only_filter_narrows_to_one_rule() {
    let report = run_lint_with(
        &workspace_root(),
        &LintOptions {
            only: Some(Rule::ShardPhase),
        },
    )
    .expect("scan workspace");
    assert!(report.violations.iter().all(|d| d.rule == Rule::ShardPhase));
    assert!(report.violations.is_empty());
}
