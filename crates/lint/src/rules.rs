//! The repo-specific rules R1–R5 (see DESIGN.md "Static analysis").
//!
//! Every rule works on the stripped token stream of [`crate::lexer`]
//! (test code removed). Diagnostics carry `file:line` and a stable rule
//! ID; inline waivers (`// lint:allow(<rule>): <reason>`) are applied
//! by [`crate::run_lint`], not here.

use crate::lexer::{Tok, TokKind};
use std::fmt;

/// The enforced rules (plus the waiver-syntax meta rule).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// R1: no ambient time / RNG sources in library code — randomness
    /// flows through the counter-based `unit_draw` / `rng.rs` streams.
    AmbientTimeRng,
    /// R2: no `HashMap`/`HashSet` in deterministic paths (hash-order
    /// iteration breaks bit-identity and replay).
    HashIteration,
    /// R3: no `unwrap`/`expect`/`panic!`-family in engine hot paths and
    /// protocol state transitions — surface typed faults instead.
    NoPanic,
    /// R4: every `run_*` engine entry point has a `run_*_monitored`
    /// sibling threading both the channel model and the monitor hooks.
    HookParity,
    /// R5: `LEGAL_TRANSITIONS`, the `node.rs` transition markers and
    /// the `invariants.rs` legality arms agree on the Fig. 2 edge set.
    TransitionTable,
    /// R6: the narrower R1 for real-network service code
    /// (`crates/transport`, `crates/colord`): wall-clock time is fine —
    /// servers pace and report in seconds — but ambient RNG is still
    /// banned, because protocol coin flips must replay from
    /// `node_rng(seed, id)` regardless of which transport carries them.
    ServiceAmbientRng,
    /// R7: in the sharded engine, cross-shard state (`Ctx::mailbox`,
    /// the `Shared` block) is touched only inside `phase_*` functions
    /// and only through its synchronization, and the `SpinBarrier`
    /// schedule keeps the documented 6-wait monitored / 2-wait
    /// unmonitored shape in both slot loops.
    ShardPhase,
    /// R8: the two slot loops (the slot kernel, reached through
    /// `lockstep::drive`, and `pump_node`) fire monitor/channel hooks
    /// in the same event-class order.
    HookOrder,
    /// R9: every wire-enum variant is covered in `encode`, `decode`,
    /// and the colord server dispatch; `EventKind` variants each have
    /// a producer and a consumer.
    WireExhaustive,
    /// R10: no `Cell`-family types, `unsafe`, or mutable statics in
    /// engine code or in any type reachable from the sharded engine's
    /// shared state.
    InteriorMutability,
    /// A malformed `lint:allow` waiver comment.
    WaiverSyntax,
}

impl Rule {
    /// Short stable ID (`R1`…`R6`, `W0`).
    pub fn id(self) -> &'static str {
        match self {
            Rule::AmbientTimeRng => "R1",
            Rule::HashIteration => "R2",
            Rule::NoPanic => "R3",
            Rule::HookParity => "R4",
            Rule::TransitionTable => "R5",
            Rule::ServiceAmbientRng => "R6",
            Rule::ShardPhase => "R7",
            Rule::HookOrder => "R8",
            Rule::WireExhaustive => "R9",
            Rule::InteriorMutability => "R10",
            Rule::WaiverSyntax => "W0",
        }
    }

    /// Waiver-facing slug (`lint:allow(<slug>)`).
    pub fn name(self) -> &'static str {
        match self {
            Rule::AmbientTimeRng => "ambient-time-rng",
            Rule::HashIteration => "hash-iteration",
            Rule::NoPanic => "no-panic",
            Rule::HookParity => "hook-parity",
            Rule::TransitionTable => "transition-table",
            Rule::ServiceAmbientRng => "service-ambient-rng",
            Rule::ShardPhase => "shard-phase",
            Rule::HookOrder => "hook-order",
            Rule::WireExhaustive => "wire-exhaustive",
            Rule::InteriorMutability => "interior-mutability",
            Rule::WaiverSyntax => "waiver-syntax",
        }
    }

    /// Parses a slug or ID back to a rule.
    pub fn from_name(s: &str) -> Option<Rule> {
        [
            Rule::AmbientTimeRng,
            Rule::HashIteration,
            Rule::NoPanic,
            Rule::HookParity,
            Rule::TransitionTable,
            Rule::ServiceAmbientRng,
            Rule::ShardPhase,
            Rule::HookOrder,
            Rule::WireExhaustive,
            Rule::InteriorMutability,
            Rule::WaiverSyntax,
        ]
        .into_iter()
        .find(|r| r.name() == s || r.id() == s)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.id(), self.name())
    }
}

/// One violation.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One `lint:allow` waiver found in scanned code.
#[derive(Clone, Debug)]
pub struct Waiver {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the waiver comment.
    pub line: u32,
    /// The waived rule.
    pub rule: Rule,
    /// The mandatory justification.
    pub reason: String,
}

/// A `// transition: A -> B` marker comment.
#[derive(Clone, Debug)]
pub struct Marker {
    /// 1-based line of the marker comment.
    pub line: u32,
    /// The edges the marker claims.
    pub edges: Vec<(String, String)>,
}

/// Waivers + markers extracted from one file's comments, plus any
/// syntax diagnostics raised while parsing them.
pub struct CommentFacts {
    /// Well-formed waivers.
    pub waivers: Vec<Waiver>,
    /// Well-formed transition markers.
    pub markers: Vec<Marker>,
    /// Malformed waiver/marker comments.
    pub diags: Vec<Diagnostic>,
}

/// Parses waivers and transition markers out of the comment tokens.
pub fn comment_facts(file: &str, toks: &[Tok]) -> CommentFacts {
    let mut facts = CommentFacts {
        waivers: Vec::new(),
        markers: Vec::new(),
        diags: Vec::new(),
    };
    // A directive only counts when it leads the comment (after the
    // `//`/`/*` markers and whitespace) — prose *about* the syntax in
    // doc comments must not parse as a live directive.
    fn leads_comment(text: &str, pos: usize) -> bool {
        text[..pos]
            .chars()
            .all(|c| c == '/' || c == '*' || c == '!' || c.is_whitespace())
    }
    for t in toks {
        if t.kind != TokKind::Comment {
            continue;
        }
        if let Some(pos) = t
            .text
            .find("lint:allow")
            .filter(|&p| leads_comment(&t.text, p))
        {
            match parse_waiver(&t.text[pos..]) {
                Ok((rule, reason)) => facts.waivers.push(Waiver {
                    file: file.to_string(),
                    line: t.line,
                    rule,
                    reason,
                }),
                Err(why) => facts.diags.push(Diagnostic {
                    file: file.to_string(),
                    line: t.line,
                    rule: Rule::WaiverSyntax,
                    message: why,
                }),
            }
        }
        if let Some(pos) = t
            .text
            .find("transition:")
            .filter(|&p| leads_comment(&t.text, p))
        {
            let rest = &t.text[pos + "transition:".len()..];
            let mut edges = Vec::new();
            let mut ok = true;
            for seg in rest.split(',') {
                let seg = seg.trim();
                if seg.is_empty() {
                    continue; // trailing comma continues on the next line
                }
                match seg.split_once("->") {
                    Some((a, b)) if !a.trim().is_empty() && !b.trim().is_empty() => {
                        edges.push((a.trim().to_string(), b.trim().to_string()));
                    }
                    _ => {
                        facts.diags.push(Diagnostic {
                            file: file.to_string(),
                            line: t.line,
                            rule: Rule::TransitionTable,
                            message: format!("malformed transition marker segment `{seg}`"),
                        });
                        ok = false;
                    }
                }
            }
            if ok && !edges.is_empty() {
                facts.markers.push(Marker {
                    line: t.line,
                    edges,
                });
            }
        }
    }
    facts
}

/// Parses `lint:allow(<rule>): <reason>` starting at `lint:allow`.
fn parse_waiver(s: &str) -> Result<(Rule, String), String> {
    let open = s
        .find('(')
        .ok_or_else(|| "waiver is missing `(<rule>)`".to_string())?;
    let close = s
        .find(')')
        .ok_or_else(|| "waiver is missing closing `)`".to_string())?;
    if close < open {
        return Err("waiver is missing `(<rule>)`".to_string());
    }
    let rule_name = s[open + 1..close].trim();
    let rule = Rule::from_name(rule_name)
        .ok_or_else(|| format!("unknown rule `{rule_name}` in waiver"))?;
    let rest = s[close + 1..].trim_start();
    let reason = rest.strip_prefix(':').map(str::trim).unwrap_or_default();
    if reason.is_empty() {
        return Err(format!(
            "waiver for `{}` has no justification (`lint:allow({}): <reason>`)",
            rule.name(),
            rule.name()
        ));
    }
    Ok((rule, reason.to_string()))
}

/// R1: ambient nondeterminism sources.
pub fn check_ambient(file: &str, toks: &[Tok]) -> Vec<Diagnostic> {
    const BANNED: &[(&str, &str)] = &[
        (
            "Instant",
            "wall-clock time in simulation state breaks replay",
        ),
        (
            "SystemTime",
            "wall-clock time in simulation state breaks replay",
        ),
        (
            "thread_rng",
            "ambient RNG bypasses the counter-based `unit_draw`/`node_rng` streams",
        ),
        (
            "from_entropy",
            "OS-entropy seeding bypasses the counter-based `unit_draw`/`node_rng` streams",
        ),
    ];
    let mut out = Vec::new();
    for t in toks {
        if t.kind != TokKind::Ident {
            continue;
        }
        if let Some((name, why)) = BANNED.iter().find(|(n, _)| t.text == *n) {
            out.push(Diagnostic {
                file: file.to_string(),
                line: t.line,
                rule: Rule::AmbientTimeRng,
                message: format!("`{name}`: {why}"),
            });
        }
    }
    out
}

/// R6: ambient RNG in real-network service code.
///
/// Deliberately narrower than [`check_ambient`]: `Instant`/`SystemTime`
/// are legitimate in a server (pacing, timeouts, throughput reporting),
/// so only the RNG half of R1 applies. This is a scoped rule, not a
/// waiver — blanket `lint:allow(ambient-time-rng)` waivers in transport
/// code would also have silenced the RNG ban.
pub fn check_service_ambient(file: &str, toks: &[Tok]) -> Vec<Diagnostic> {
    const BANNED: &[(&str, &str)] = &[
        (
            "thread_rng",
            "ambient RNG in service code: protocol coin flips must replay \
             from `node_rng(seed, id)` under any transport",
        ),
        (
            "from_entropy",
            "OS-entropy seeding in service code: protocol coin flips must \
             replay from `node_rng(seed, id)` under any transport",
        ),
    ];
    let mut out = Vec::new();
    for t in toks {
        if t.kind != TokKind::Ident {
            continue;
        }
        if let Some((name, why)) = BANNED.iter().find(|(n, _)| t.text == *n) {
            out.push(Diagnostic {
                file: file.to_string(),
                line: t.line,
                rule: Rule::ServiceAmbientRng,
                message: format!("`{name}`: {why}"),
            });
        }
    }
    out
}

/// R2: hash-ordered collections on deterministic paths.
pub fn check_hash(file: &str, toks: &[Tok]) -> Vec<Diagnostic> {
    toks.iter()
        .filter(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
        .map(|t| Diagnostic {
            file: file.to_string(),
            line: t.line,
            rule: Rule::HashIteration,
            message: format!(
                "`{}` in a deterministic path: iteration order is \
                 hash-seeded — use `BTree{}` or a sorted `Vec`",
                t.text,
                &t.text[4..]
            ),
        })
        .collect()
}

/// R3: panic paths in hot code.
pub fn check_panic(file: &str, toks: &[Tok]) -> Vec<Diagnostic> {
    const MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let diag = |line: u32, what: String| Diagnostic {
            file: file.to_string(),
            line,
            rule: Rule::NoPanic,
            message: format!(
                "{what} in an engine hot path / protocol transition: \
                 surface a typed `BehaviorFault`/`ProtocolError` (or waive with a reason)"
            ),
        };
        if t.is_punct('.') {
            if let (Some(name), Some(paren)) = (toks.get(i + 1), toks.get(i + 2)) {
                if (name.is_ident("unwrap") || name.is_ident("expect")) && paren.is_punct('(') {
                    out.push(diag(name.line, format!("`.{}()`", name.text)));
                }
            }
        }
        if t.kind == TokKind::Ident && MACROS.contains(&t.text.as_str()) {
            if let Some(bang) = toks.get(i + 1) {
                if bang.is_punct('!') {
                    out.push(diag(t.line, format!("`{}!`", t.text)));
                }
            }
        }
    }
    out
}

/// The parsed `LEGAL_TRANSITIONS` table: edges with their source lines.
pub struct TransitionTable {
    /// `(from, to, line)` per table entry.
    pub edges: Vec<(String, String, u32)>,
}

/// Parses the `LEGAL_TRANSITIONS` const out of `transitions.rs` tokens.
pub fn parse_transition_table(file: &str, toks: &[Tok]) -> Result<TransitionTable, Diagnostic> {
    let Some(start) = toks.iter().position(|t| t.is_ident("LEGAL_TRANSITIONS")) else {
        return Err(Diagnostic {
            file: file.to_string(),
            line: 1,
            rule: Rule::TransitionTable,
            message: "no `LEGAL_TRANSITIONS` const found".to_string(),
        });
    };
    // Scan past the `=` (skipping the `&[Transition]` type annotation)
    // to the opening `[` of the literal, then to its matching `]`.
    let mut i = start;
    while i < toks.len() && !toks[i].is_punct('=') {
        i += 1;
    }
    while i < toks.len() && !toks[i].is_punct('[') {
        i += 1;
    }
    let mut depth = 0i32;
    let mut edges = Vec::new();
    let mut pair: Vec<(String, u32)> = Vec::new();
    while i < toks.len() {
        match &toks[i].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            TokKind::Punct('(') => pair.clear(),
            TokKind::Punct(')') => {
                if pair.len() == 2 {
                    edges.push((pair[0].0.clone(), pair[1].0.clone(), pair[0].1));
                }
                pair.clear();
            }
            TokKind::Str => pair.push((toks[i].text.clone(), toks[i].line)),
            _ => {}
        }
        i += 1;
    }
    if edges.is_empty() {
        return Err(Diagnostic {
            file: file.to_string(),
            line: toks[start].line,
            rule: Rule::TransitionTable,
            message: "`LEGAL_TRANSITIONS` is empty or unparseable".to_string(),
        });
    }
    Ok(TransitionTable { edges })
}

/// R5 (part 1): every `self.state = …` / `*phase = …` assignment in
/// `node.rs` carries a transition marker, and every marked edge is in
/// the table.
pub fn check_node_transitions(
    file: &str,
    toks: &[Tok],
    markers: &[Marker],
    table: &TransitionTable,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // Assignment sites.
    for i in 0..toks.len() {
        let state_assign = toks[i].is_ident("self")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('.'))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("state"))
            && toks.get(i + 3).is_some_and(|t| t.is_punct('='))
            && !toks.get(i + 4).is_some_and(|t| t.is_punct('='));
        let phase_assign = toks[i].is_punct('*')
            && toks.get(i + 1).is_some_and(|t| t.is_ident("phase"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct('='))
            && !toks.get(i + 3).is_some_and(|t| t.is_punct('='));
        if !(state_assign || phase_assign) {
            continue;
        }
        let line = toks[i].line;
        let covered = markers
            .iter()
            .any(|m| m.line <= line && line.saturating_sub(m.line) <= 4);
        if !covered {
            out.push(Diagnostic {
                file: file.to_string(),
                line,
                rule: Rule::TransitionTable,
                message: "state-machine assignment without a \
                          `// transition: A -> B` marker"
                    .to_string(),
            });
        }
    }
    out.extend(check_marker_edges(file, markers, table));
    out
}

/// R5 (shared): every marked edge must be a `LEGAL_TRANSITIONS` entry.
pub fn check_marker_edges(
    file: &str,
    markers: &[Marker],
    table: &TransitionTable,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for m in markers {
        for (from, to) in &m.edges {
            if !table.edges.iter().any(|(f, t, _)| f == from && t == to) {
                out.push(Diagnostic {
                    file: file.to_string(),
                    line: m.line,
                    rule: Rule::TransitionTable,
                    message: format!(
                        "marked transition `{from} -> {to}` is not in \
                         `LEGAL_TRANSITIONS` — the implementation and the \
                         table diverged"
                    ),
                });
            }
        }
    }
    out
}

/// R5 (part 2): the monitor adjudicates every legal edge — each
/// `LEGAL_TRANSITIONS` entry must be claimed by a marker in
/// `invariants.rs` — and claims nothing beyond the table.
pub fn check_monitor_coverage(
    table_file: &str,
    inv_file: &str,
    inv_markers: &[Marker],
    table: &TransitionTable,
) -> Vec<Diagnostic> {
    let mut out = check_marker_edges(inv_file, inv_markers, table);
    for (from, to, line) in &table.edges {
        let claimed = inv_markers
            .iter()
            .any(|m| m.edges.iter().any(|(f, t)| f == from && t == to));
        if !claimed {
            out.push(Diagnostic {
                file: table_file.to_string(),
                line: *line,
                rule: Rule::TransitionTable,
                message: format!(
                    "legal edge `{from} -> {to}` is not adjudicated by any \
                     marked `ColoringMonitor` legality arm in {inv_file}"
                ),
            });
        }
    }
    // Duplicate table entries accumulate silently; flag them here too.
    for (i, (f1, t1, line)) in table.edges.iter().enumerate() {
        if table.edges[..i]
            .iter()
            .any(|(f2, t2, _)| f1 == f2 && t1 == t2)
        {
            out.push(Diagnostic {
                file: table_file.to_string(),
                line: *line,
                rule: Rule::TransitionTable,
                message: format!("duplicate `LEGAL_TRANSITIONS` entry `{f1} -> {t1}`"),
            });
        }
    }
    out
}
