//! `radio-lint`: offline determinism & protocol-conformance linter.
//!
//! A zero-dependency static-analysis pass over the workspace's
//! library code, gating CI (see `ci.sh`). It enforces the guarantees
//! the paper reproduction leans on but the compiler cannot check:
//!
//! | rule | slug               | guarantee                                            |
//! |------|--------------------|------------------------------------------------------|
//! | R1   | `ambient-time-rng` | no wall-clock / OS-entropy in `crates/{sim,core,graph,mc}` library code |
//! | R2   | `hash-iteration`   | no `HashMap`/`HashSet` on deterministic paths        |
//! | R3   | `no-panic`         | no `unwrap`/`expect`/`panic!` in engine hot paths & protocol transitions |
//! | R4   | `hook-parity`      | every `run_*` engine entry routes through `SimDriver` or (transitively) shares a code path with its `run_*_monitored` sibling |
//! | R5   | `transition-table` | `LEGAL_TRANSITIONS`, `node.rs` and `invariants.rs` agree on the Fig. 2 edge set |
//! | R6   | `service-ambient-rng` | `crates/{transport,colord}` may read the wall clock (real servers pace in seconds) but still may not use ambient RNG |
//! | R7   | `shard-phase`      | shard-parallel code (the sharded engine and colord's shard/router) touches cross-shard state only in `phase_*` functions, behind `Mutex`/atomics, with the 6/2 engine barrier schedule and colord's 3-wait worker loop |
//! | R9   | `wire-exhaustive`  | wire enums are covered in `encode`, `decode` and the colord dispatch; `EventKind` variants each have a producer and consumer |
//! | R10  | `interior-mutability` | no `Cell`/`RefCell`/`unsafe`/`static mut` in shard-parallel code (engine + colord shard/router) or in types reachable from its state |
//!
//! R1–R3, R6 and W0 are per-line token rules ([`rules`]). R4, R7, R9
//! and R10 are semantic: they run over an item-level parse of every
//! scanned file ([`parse`]) joined by an intra-crate call graph
//! ([`graph`]), so delegation across files counts ([`semantic`]).
//!
//! R8 (`hook-order`) is retired: it compared the hook order of two slot
//! loops, and the slot kernel is now the only one. Its ID is not
//! reused.
//!
//! R1 and R6 partition the scanned tree: simulation crates get the
//! full ambient ban, real-network service crates get only its RNG
//! half. The split is a scope decision in this file — not a pile of
//! per-line waivers in transport code, which would have also silenced
//! the RNG ban.
//!
//! Waive a finding inline with `// lint:allow(<slug>): <reason>` on the
//! offending line or the line above; the reason is mandatory and the
//! total waiver count is gated against a committed budget in `main.rs`.
//!
//! Test code (`#[cfg(test)]` / `#[test]` items) is stripped before any
//! rule runs — tests may unwrap and hash freely.

pub mod graph;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod semantic;

pub use graph::{CallGraph, ParsedFile};
pub use rules::{Diagnostic, Rule, Waiver};

use lexer::{strip_test_code, tokenize};
use rules::{comment_facts, Marker};
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;

/// The outcome of linting a workspace.
pub struct Report {
    /// Unwaived violations, sorted by `(file, line, rule)`.
    pub violations: Vec<Diagnostic>,
    /// All well-formed waivers found in scanned code.
    pub waivers: Vec<Waiver>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Per-rule wall time in milliseconds, in report order (`R1`…`R10`
    /// without the retired R8, then `W0`).
    /// Rules skipped by [`LintOptions::only`] report `0.0`.
    pub timings_ms: Vec<(&'static str, f64)>,
}

/// Knobs for [`run_lint_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct LintOptions {
    /// Run only this rule's checks (waiver collection still runs, so
    /// waivers for the selected rule keep applying).
    pub only: Option<Rule>,
}

/// The directories scanned, relative to the workspace root. Everything
/// outside (benches, tests, fixtures, vendored crates, the linter
/// itself) is out of scope by construction.
const SCAN_DIRS: &[&str] = &[
    "crates/core/src",
    "crates/graph/src",
    "crates/mc/src",
    "crates/sim/src",
    "crates/transport/src",
    "crates/colord/src",
];

/// All rules, in report order.
const ALL_RULES: &[Rule] = &[
    Rule::AmbientTimeRng,
    Rule::HashIteration,
    Rule::NoPanic,
    Rule::HookParity,
    Rule::TransitionTable,
    Rule::ServiceAmbientRng,
    Rule::ShardPhase,
    Rule::WireExhaustive,
    Rule::InteriorMutability,
    Rule::WaiverSyntax,
];

/// R1 scope: simulation-side library code, where *any* ambient
/// nondeterminism (wall clock included) breaks replay. The model
/// checker is included: its state enumeration must be reproducible.
fn in_sim_scope(rel: &str) -> bool {
    rel.starts_with("crates/core/src")
        || rel.starts_with("crates/graph/src")
        || rel.starts_with("crates/mc/src")
        || rel.starts_with("crates/sim/src")
}

/// R6 scope: real-network service code, where the wall clock is a
/// feature but ambient RNG still breaks protocol replay.
fn in_service_scope(rel: &str) -> bool {
    rel.starts_with("crates/transport/src") || rel.starts_with("crates/colord/src")
}

/// R3 scope: engine hot paths and the protocol state machine.
fn in_panic_scope(rel: &str) -> bool {
    rel.starts_with("crates/sim/src/engine/")
        || rel == "crates/sim/src/delivery.rs"
        || rel == "crates/core/src/node.rs"
}

/// R4 scope: engine implementation files.
fn in_parity_scope(rel: &str) -> bool {
    rel.starts_with("crates/sim/src/engine/")
}

/// Accumulates per-rule wall time.
struct Timings {
    ms: Vec<(&'static str, f64)>,
}

impl Timings {
    fn new() -> Self {
        Timings {
            ms: ALL_RULES.iter().map(|r| (r.id(), 0.0)).collect(),
        }
    }

    fn timed<T>(&mut self, rule: Rule, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let id = rule.id();
        if let Some(entry) = self.ms.iter_mut().find(|(k, _)| *k == id) {
            entry.1 += t0.elapsed().as_secs_f64() * 1e3;
        }
        out
    }
}

/// Lints the workspace rooted at `root` with default options.
pub fn run_lint(root: &Path) -> io::Result<Report> {
    run_lint_with(root, &LintOptions::default())
}

/// Lints the workspace rooted at `root`. `root` must contain the
/// `crates/` tree; missing scan directories are skipped (fixture
/// corpora mirror only the paths they need).
pub fn run_lint_with(root: &Path, options: &LintOptions) -> io::Result<Report> {
    let only = options.only;
    let enabled = |r: Rule| only.is_none() || only == Some(r);

    let parsed = parse_workspace(root)?;
    let mut timings = Timings::new();
    let mut violations: Vec<Diagnostic> = Vec::new();
    let mut waivers: Vec<Waiver> = Vec::new();
    // R5 inputs gathered during the walk, cross-checked at the end.
    let mut table_idx: Option<usize> = None;
    let mut node_markers: Option<(usize, Vec<Marker>)> = None;
    let mut inv_markers: Option<(String, Vec<Marker>)> = None;

    for (idx, file) in parsed.iter().enumerate() {
        let rel = &file.rel;
        let toks = &file.toks;
        // Waiver collection always runs — the selected rule's waivers
        // must keep applying under `--only`.
        let facts = timings.timed(Rule::WaiverSyntax, || comment_facts(rel, toks));
        violations.extend(facts.diags);
        waivers.extend(facts.waivers);

        if in_sim_scope(rel) {
            if enabled(Rule::AmbientTimeRng) {
                violations.extend(
                    timings.timed(Rule::AmbientTimeRng, || rules::check_ambient(rel, toks)),
                );
            }
        } else if in_service_scope(rel) && enabled(Rule::ServiceAmbientRng) {
            violations.extend(timings.timed(Rule::ServiceAmbientRng, || {
                rules::check_service_ambient(rel, toks)
            }));
        }
        if enabled(Rule::HashIteration) {
            violations.extend(timings.timed(Rule::HashIteration, || rules::check_hash(rel, toks)));
        }
        if enabled(Rule::NoPanic) && in_panic_scope(rel) {
            violations.extend(timings.timed(Rule::NoPanic, || rules::check_panic(rel, toks)));
        }
        match rel.as_str() {
            "crates/core/src/transitions.rs" => table_idx = Some(idx),
            "crates/core/src/node.rs" => node_markers = Some((idx, facts.markers)),
            "crates/core/src/invariants.rs" => {
                inv_markers = Some((rel.clone(), facts.markers));
            }
            _ => {}
        }
    }

    // R5: three-way cross-check (only when the protocol crate is in the
    // scanned tree — fixture corpora may exercise other rules alone).
    if enabled(Rule::TransitionTable) {
        let r5 = timings.timed(Rule::TransitionTable, || {
            check_transition_consistency(&parsed, table_idx, &node_markers, &inv_markers)
        });
        violations.extend(r5);
    }

    // Semantic rules over the parsed set and its call graph.
    let graph = CallGraph::build(&parsed);
    if enabled(Rule::HookParity) {
        violations.extend(timings.timed(Rule::HookParity, || {
            semantic::check_hook_parity(&graph, &in_parity_scope)
        }));
    }
    if enabled(Rule::ShardPhase) {
        violations.extend(timings.timed(Rule::ShardPhase, || {
            semantic::check_shard_phase(graph.files())
        }));
    }
    if enabled(Rule::WireExhaustive) {
        violations.extend(timings.timed(Rule::WireExhaustive, || {
            semantic::check_wire_exhaustive(graph.files())
        }));
    }
    if enabled(Rule::InteriorMutability) {
        violations.extend(timings.timed(Rule::InteriorMutability, || {
            semantic::check_interior_mutability(graph.files())
        }));
    }

    // A waiver covers its own line and the next one (same file & rule).
    violations.retain(|d| {
        !waivers.iter().any(|w| {
            w.file == d.file && w.rule == d.rule && (d.line == w.line || d.line == w.line + 1)
        })
    });
    if let Some(rule) = only {
        violations.retain(|d| d.rule == rule);
    }

    violations.sort_by(|a, b| {
        (&a.file, a.line, a.rule)
            .cmp(&(&b.file, b.line, b.rule))
            .then_with(|| a.message.cmp(&b.message))
    });
    Ok(Report {
        violations,
        waivers,
        files_scanned: parsed.len(),
        timings_ms: timings.ms,
    })
}

/// Reads, tokenizes, test-strips and item-parses every scanned file.
fn parse_workspace(root: &Path) -> io::Result<Vec<ParsedFile>> {
    let mut files: Vec<String> = Vec::new();
    for dir in SCAN_DIRS {
        collect_rs_files(root, Path::new(dir), &mut files)?;
    }
    files.sort();
    let mut parsed = Vec::with_capacity(files.len());
    for rel in files {
        let src = fs::read_to_string(root.join(&rel))?;
        let toks = strip_test_code(&tokenize(&src));
        let items = parse::parse_items(&toks);
        parsed.push(ParsedFile { rel, toks, items });
    }
    Ok(parsed)
}

/// The R5 cross-check over the gathered table / marker inputs.
fn check_transition_consistency(
    parsed: &[ParsedFile],
    table_idx: Option<usize>,
    node_markers: &Option<(usize, Vec<Marker>)>,
    inv_markers: &Option<(String, Vec<Marker>)>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if let Some(ti) = table_idx {
        let table_file = &parsed[ti];
        match rules::parse_transition_table(&table_file.rel, &table_file.toks) {
            Err(d) => out.push(d),
            Ok(table) => {
                if let Some((ni, markers)) = node_markers {
                    let node_file = &parsed[*ni];
                    out.extend(rules::check_node_transitions(
                        &node_file.rel,
                        &node_file.toks,
                        markers,
                        &table,
                    ));
                }
                if let Some((inv_rel, markers)) = inv_markers {
                    out.extend(rules::check_monitor_coverage(
                        &table_file.rel,
                        inv_rel,
                        markers,
                        &table,
                    ));
                }
            }
        }
    } else if node_markers.is_some() || inv_markers.is_some() {
        out.push(Diagnostic {
            file: "crates/core/src/transitions.rs".to_string(),
            line: 1,
            rule: Rule::TransitionTable,
            message: "protocol crate present but `transitions.rs` \
                      (the `LEGAL_TRANSITIONS` table) is missing"
                .to_string(),
        });
    }
    out
}

/// Recursively collects `.rs` files under `root.join(rel_dir)` in
/// sorted order, pushing workspace-relative `/`-separated paths.
fn collect_rs_files(root: &Path, rel_dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let abs = root.join(rel_dir);
    if !abs.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = fs::read_dir(&abs)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let rel = rel_dir.join(name);
        if path.is_dir() {
            collect_rs_files(root, &rel, out)?;
        } else if name.ends_with(".rs") {
            // Workspace-relative paths always use `/` in diagnostics.
            let s = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(s);
        }
    }
    Ok(())
}
