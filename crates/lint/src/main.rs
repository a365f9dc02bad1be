//! `radio-lint` CLI — the CI red/green gate.
//!
//! ```text
//! radio-lint [--root DIR] [--json PATH] [--only RULE]
//!            [--expect-waivers N | --no-waiver-check]
//! ```
//!
//! Prints one `file:line` diagnostic per unwaived violation, then a
//! final machine-readable line `{"violations":N,"waivers":M}` on
//! stdout. Exit codes: 0 clean, 1 violations found, 2 waiver-count
//! drift, 3 usage or I/O error.

use radio_lint::{run_lint_with, LintOptions, Report, Rule};
use std::path::PathBuf;
use std::process::ExitCode;

/// The committed waiver budget. Adding or removing a
/// `lint:allow` waiver anywhere in scanned code must come with a
/// matching bump here (and a justification in the diff) — silent
/// waiver creep fails CI.
///
/// The budget is zero: the two historical `no-panic` waivers in
/// `crates/core/src/node.rs` were burned down by replacing the panics
/// with typed `BehaviorFault::ContractBreach` faults drained through
/// `RadioProtocol::take_breach`.
const EXPECTED_WAIVERS: usize = 0;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json_out: Option<PathBuf> = None;
    let mut expect_waivers: Option<usize> = Some(EXPECTED_WAIVERS);
    let mut only: Option<Rule> = None;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a directory"),
            },
            "--json" => match args.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => return usage("--json needs a path"),
            },
            "--only" => match args.next().as_deref().and_then(Rule::from_name) {
                Some(r) => {
                    only = Some(r);
                    // A single-rule run is a focused query, not the CI
                    // gate — the workspace-wide waiver budget does not
                    // apply to it.
                    expect_waivers = None;
                }
                None => return usage("--only needs a rule ID or slug (e.g. R7 or shard-phase)"),
            },
            "--expect-waivers" => match args.next().and_then(|n| n.parse().ok()) {
                Some(n) => expect_waivers = Some(n),
                None => return usage("--expect-waivers needs a number"),
            },
            "--no-waiver-check" => expect_waivers = None,
            "-h" | "--help" => {
                print!("{}", HELP);
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("radio-lint: no workspace root found (pass --root)");
            return ExitCode::from(3);
        }
    };

    let report = match run_lint_with(&root, &LintOptions { only }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("radio-lint: scan failed: {e}");
            return ExitCode::from(3);
        }
    };

    for d in &report.violations {
        println!("{d}");
    }
    for w in &report.waivers {
        println!(
            "waiver: {}:{}: {}: {}",
            w.file,
            w.line,
            w.rule.name(),
            w.reason
        );
    }
    println!(
        "radio-lint: {} file(s) scanned, {} violation(s), {} waiver(s)",
        report.files_scanned,
        report.violations.len(),
        report.waivers.len()
    );

    if let Some(path) = &json_out {
        if let Err(e) = std::fs::write(path, report_json(&report)) {
            eprintln!("radio-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(3);
        }
    }

    // The machine-readable summary is always the last stdout line.
    println!(
        "{{\"violations\":{},\"waivers\":{}}}",
        report.violations.len(),
        report.waivers.len()
    );

    if !report.violations.is_empty() {
        return ExitCode::from(1);
    }
    if let Some(expected) = expect_waivers {
        if report.waivers.len() != expected {
            eprintln!(
                "radio-lint: waiver count drifted: found {}, budget is {} \
                 (update EXPECTED_WAIVERS in crates/lint/src/main.rs with a justification)",
                report.waivers.len(),
                expected
            );
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

const HELP: &str = "\
radio-lint: offline determinism & protocol-conformance linter

USAGE:
    radio-lint [--root DIR] [--json PATH] [--only RULE]
               [--expect-waivers N | --no-waiver-check]

OPTIONS:
    --root DIR          workspace root (default: walk up to [workspace])
    --json PATH         write the full report as JSON
    --only RULE         run one rule (ID or slug); disables the waiver gate
    --expect-waivers N  override the committed waiver budget
    --no-waiver-check   skip the waiver-count gate
    -h, --help          this help

RULES:
    R1  ambient-time-rng     no Instant/SystemTime/thread_rng in sim library code
    R2  hash-iteration       no HashMap/HashSet on deterministic paths
    R3  no-panic             no unwrap/expect/panic! in engine hot paths
    R4  hook-parity          run_* entries route through SimDriver or delegate
                             (transitively) to their run_*_monitored sibling
    R5  transition-table     LEGAL_TRANSITIONS <-> node.rs <-> invariants.rs
    R6  service-ambient-rng  transport/colord: wall clock ok, ambient RNG banned
    R7  shard-phase          sharded engine: cross-shard state only in phase_*
                             fns behind Mutex/atomics; 6/2 barrier schedule
    R9  wire-exhaustive      wire enums covered in encode/decode/dispatch
    R10 interior-mutability  no Cell/RefCell/unsafe in shard-shared types

Waive inline: // lint:allow(<rule>): <reason>
Exit codes: 0 clean, 1 violations, 2 waiver drift, 3 usage/I-O error.
";

fn usage(msg: &str) -> ExitCode {
    eprintln!("radio-lint: {msg}\n\n{HELP}");
    ExitCode::from(3)
}

/// Walks up from the current directory to the first `Cargo.toml`
/// declaring `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Hand-rolled JSON report (no serde in a zero-dependency crate).
fn report_json(report: &Report) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!(
        "  \"violations\": {},\n  \"waivers\": {},\n  \"files_scanned\": {},\n",
        report.violations.len(),
        report.waivers.len(),
        report.files_scanned
    ));
    s.push_str("  \"timings_ms\": {");
    for (i, (id, ms)) in report.timings_ms.iter().enumerate() {
        s.push_str(&format!(
            "{}{}: {:.3}",
            if i == 0 { "" } else { ", " },
            json_str(id),
            ms
        ));
    }
    s.push_str("},\n");
    s.push_str("  \"diagnostics\": [\n");
    for (i, d) in report.violations.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}{}\n",
            json_str(&d.file),
            d.line,
            json_str(d.rule.name()),
            json_str(&d.message),
            if i + 1 < report.violations.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ],\n  \"waiver_list\": [\n");
    for (i, w) in report.waivers.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"reason\": {}}}{}\n",
            json_str(&w.file),
            w.line,
            json_str(w.rule.name()),
            json_str(&w.reason),
            if i + 1 < report.waivers.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Minimal JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Keep the help text honest: `find_workspace_root` is also exercised
/// end-to-end by `tests/self_check.rs`.
#[cfg(test)]
mod tests {
    use super::json_str;

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }
}
