//! Semantic rules: R7 shard-phase discipline, R9 wire exhaustiveness,
//! R10 interior-mutability, and the call-graph-aware R4 hook-parity
//! check.
//!
//! Unlike the per-line rules in [`crate::rules`], these run over the
//! whole parsed file set at once: they need item structure
//! ([`crate::parse`]) and cross-file resolution ([`crate::graph`]).

use crate::graph::{CallGraph, ParsedFile};
use crate::lexer::TokKind;
use crate::rules::{Diagnostic, Rule};
use std::collections::{BTreeMap, BTreeSet};

/// The sharded engine file R7 and R10's closure are anchored on.
const SHARDED_FILE: &str = "crates/sim/src/engine/sharded.rs";

/// The slot kernel every engine shard is built on — anchored with the
/// sharded engine, since its per-node state is the shard state.
const KERNEL_FILE: &str = "crates/sim/src/engine/kernel.rs";

/// colord's shard worker module — anchored by R7 and R10 since the
/// service grew strip-parallel stepping; it must honor the same
/// phase/synchronization discipline as the engine.
const COLORD_SHARD_FILE: &str = "crates/colord/src/shard.rs";

/// colord's membership router, the other half of the sharded service.
const COLORD_ROUTER_FILE: &str = "crates/colord/src/router.rs";

/// Every file R7's phase discipline is anchored on. Each file's own
/// `Shared` struct (if any) defines the guarded field set.
const SHARD_PHASE_FILES: &[&str] = &[
    SHARDED_FILE,
    KERNEL_FILE,
    COLORD_ROUTER_FILE,
    COLORD_SHARD_FILE,
];

/// Synchronized accessors through which shard-shared state may be
/// touched: atomics, mutex locks, and the post-join drain.
const APPROVED_ACCESSORS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
    "compare_exchange",
    "lock",
    "into_inner",
];

/// Interior-mutability types that must not appear in shard-shared
/// state (`Mutex` + atomics are the approved mechanisms).
const INTERIOR_MUTABILITY: &[&str] = &["Cell", "RefCell", "UnsafeCell", "OnceCell", "LazyCell"];

fn file_index(files: &[ParsedFile], rel: &str) -> Option<usize> {
    files.iter().position(|f| f.rel == rel)
}

fn diag(file: &str, line: u32, rule: Rule, message: String) -> Diagnostic {
    Diagnostic {
        file: file.to_string(),
        line,
        rule,
        message,
    }
}

// ---------------------------------------------------------------------------
// R4 — hook parity, upgraded to delegation-aware across files.
// ---------------------------------------------------------------------------

/// R4: every public `run_*` engine entry point must either route
/// through `SimDriver` or (transitively) share a code path with its
/// `run_*_monitored` sibling; monitored entry points must thread both
/// the `monitor` and `channel` hook layers somewhere in their call
/// closure. `in_scope` selects the parity-scope files.
pub fn check_hook_parity(
    graph: &CallGraph<'_>,
    in_scope: &dyn Fn(&str) -> bool,
) -> Vec<Diagnostic> {
    let files = graph.files();
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if !in_scope(&file.rel) {
            continue;
        }
        for (ni, f) in file.items.fns.iter().enumerate() {
            if f.is_pub && f.name.starts_with("run_") {
                runs.push((fi, ni));
            }
        }
    }
    let names: BTreeSet<&str> = runs
        .iter()
        .map(|&(fi, ni)| files[fi].items.fns[ni].name.as_str())
        .collect();
    let mut out = Vec::new();
    for &(fi, ni) in &runs {
        let f = &files[fi].items.fns[ni];
        let name = f.name.as_str();
        let cl = graph.closure((fi, ni));
        let via_driver = cl.idents.contains("SimDriver");
        if name.ends_with("_monitored") {
            if via_driver {
                continue;
            }
            for hook in ["monitor", "channel"] {
                if !cl.idents.contains(hook) {
                    out.push(diag(
                        &files[fi].rel,
                        f.line,
                        Rule::HookParity,
                        format!(
                            "`{name}` neither routes through `SimDriver` nor \
                             threads the `{hook}` hook (monitored entry points \
                             must drive both `ChannelModel` and \
                             `InvariantMonitor`)"
                        ),
                    ));
                }
            }
        } else if via_driver {
            continue;
        } else {
            let sibling = format!("{name}_monitored");
            if !names.contains(sibling.as_str()) {
                out.push(diag(
                    &files[fi].rel,
                    f.line,
                    Rule::HookParity,
                    format!(
                        "engine entry point `{name}` routes around `SimDriver` \
                         and has no `{sibling}` sibling"
                    ),
                ));
            } else if !cl.fn_names.contains(&sibling) && !cl.idents.contains(&sibling) {
                out.push(diag(
                    &files[fi].rel,
                    f.line,
                    Rule::HookParity,
                    format!(
                        "`{name}` neither routes through `SimDriver` nor \
                         delegates to `{sibling}` (plain and monitored runs \
                         must share one code path)"
                    ),
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// R7 — shard-phase discipline.
// ---------------------------------------------------------------------------

/// R7: in shard-parallel code (the sharded engine and colord's
/// shard/router modules), cross-shard state may only be touched inside
/// `phase_*` functions and only through its synchronization: `mailbox`
/// rows behind a `Mutex` lock, `Shared` fields behind atomics / locks,
/// and the `SpinBarrier` schedule pinned per file — the engine runs
/// exactly 6 waits on the monitored slot path and 2 on the unmonitored
/// one (in both the worker loop and the main-thread fallback); the
/// colord worker runs exactly 3 (detect / transmit / commit).
pub fn check_shard_phase(files: &[ParsedFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for &rel in SHARD_PHASE_FILES {
        if let Some(fi) = file_index(files, rel) {
            scan_shard_file(&files[fi], &mut out);
        }
    }
    out
}

/// One anchored file's R7 scan: parts (a) and (b) everywhere, the 6/2
/// monitored/unmonitored barrier schedule in the engine file, the
/// 3-wait `worker_loop` pin in the colord shard file.
fn scan_shard_file(file: &ParsedFile, out: &mut Vec<Diagnostic>) {
    let toks = &file.toks;
    let sig: Vec<usize> = (0..toks.len())
        .filter(|&i| toks[i].kind != TokKind::Comment)
        .collect();
    let shared_fields: BTreeSet<&str> = file
        .items
        .structs
        .iter()
        .find(|s| s.name == "Shared")
        .map(|s| s.fields.iter().map(String::as_str).collect())
        .unwrap_or_default();

    let mut barrier_sites = 0usize;
    let mut first_site_line = 0u32;
    for (w, &i) in sig.iter().enumerate() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // (a) `.mailbox` — phase-fn-only, and locked within arm's reach.
        if t.text == "mailbox" && w > 0 && toks[sig[w - 1]].is_punct('.') {
            match file.items.enclosing_fn(i) {
                Some(f) if f.name.starts_with("phase_") => {
                    let locked = sig[w + 1..]
                        .iter()
                        .take(16)
                        .any(|&j| toks[j].is_ident("lock"));
                    if !locked {
                        out.push(diag(
                            &file.rel,
                            t.line,
                            Rule::ShardPhase,
                            "cross-shard `mailbox` access is not guarded by a \
                             `Mutex` lock"
                                .to_string(),
                        ));
                    }
                }
                enclosing => {
                    let place = enclosing
                        .map(|f| format!("`fn {}`", f.name))
                        .unwrap_or_else(|| "top-level code".to_string());
                    out.push(diag(
                        &file.rel,
                        t.line,
                        Rule::ShardPhase,
                        format!(
                            "cross-shard `mailbox` accessed from {place} — \
                             mailbox traffic belongs in a `phase_*` function"
                        ),
                    ));
                }
            }
        }
        // (b) `shared.<field>` must go through an approved accessor.
        if t.text == "shared"
            && sig.get(w + 1).is_some_and(|&j| toks[j].is_punct('.'))
            && sig.get(w + 2).is_some_and(|&j| {
                toks[j].kind == TokKind::Ident && shared_fields.contains(toks[j].text.as_str())
            })
        {
            let field = toks[sig[w + 2]].text.clone();
            let synchronized = sig.get(w + 3).is_some_and(|&j| toks[j].is_punct('.'))
                && sig.get(w + 4).is_some_and(|&j| {
                    toks[j].kind == TokKind::Ident
                        && APPROVED_ACCESSORS.contains(&toks[j].text.as_str())
                });
            if !synchronized {
                out.push(diag(
                    &file.rel,
                    t.line,
                    Rule::ShardPhase,
                    format!(
                        "shard-shared field `{field}` touched without a \
                         synchronized accessor (atomics, `lock()`, or \
                         `into_inner()` after join)"
                    ),
                ));
            }
        }
        // (c) `if monitored { … } else { … }` barrier schedules — the
        // engine's slot loops only; colord has no monitored path.
        if file.rel == SHARDED_FILE
            && t.text == "if"
            && sig
                .get(w + 1)
                .is_some_and(|&j| toks[j].is_ident("monitored"))
            && sig.get(w + 2).is_some_and(|&j| toks[j].is_punct('{'))
        {
            let then_close = sig_brace_match(toks, &sig, w + 2);
            let then_waits = count_waits(toks, &sig[w + 2..=then_close]);
            let mut else_waits = None;
            if sig
                .get(then_close + 1)
                .is_some_and(|&j| toks[j].is_ident("else"))
                && sig
                    .get(then_close + 2)
                    .is_some_and(|&j| toks[j].is_punct('{'))
            {
                let else_close = sig_brace_match(toks, &sig, then_close + 2);
                else_waits = Some(count_waits(toks, &sig[then_close + 2..=else_close]));
            }
            if then_waits + else_waits.unwrap_or(0) == 0 {
                continue;
            }
            barrier_sites += 1;
            if first_site_line == 0 {
                first_site_line = t.line;
            }
            if then_waits != 6 {
                out.push(diag(
                    &file.rel,
                    t.line,
                    Rule::ShardPhase,
                    format!(
                        "monitored slot path runs {then_waits} barrier waits \
                         (the documented schedule is 6)"
                    ),
                ));
            }
            if else_waits.unwrap_or(0) != 2 {
                out.push(diag(
                    &file.rel,
                    t.line,
                    Rule::ShardPhase,
                    format!(
                        "unmonitored slot path runs {} barrier waits (the \
                         documented schedule is 2)",
                        else_waits.unwrap_or(0)
                    ),
                ));
            }
        }
    }
    if file.rel == SHARDED_FILE && barrier_sites < 2 {
        out.push(diag(
            &file.rel,
            first_site_line.max(1),
            Rule::ShardPhase,
            format!(
                "the 6/2 barrier schedule must appear in both the worker loop \
                 and the main-thread shard loop (found {barrier_sites} site(s))"
            ),
        ));
    }
    // (d) colord's slot schedule: `worker_loop` synchronizes each slot
    // with exactly 3 barrier waits (token issue / exchange / commit) —
    // the k = 1 ↔ k > 1 equivalence proof counts on that shape.
    if file.rel == COLORD_SHARD_FILE {
        match file
            .items
            .fn_named("worker_loop")
            .and_then(|ni| file.items.fns[ni].body.map(|b| (ni, b)))
        {
            Some((ni, body)) => {
                let f = &file.items.fns[ni];
                let span: Vec<usize> = sig
                    .iter()
                    .copied()
                    .filter(|&j| body.0 <= j && j <= body.1)
                    .collect();
                let waits = count_waits(toks, &span);
                if waits != 3 {
                    out.push(diag(
                        &file.rel,
                        f.line,
                        Rule::ShardPhase,
                        format!(
                            "colord `worker_loop` runs {waits} barrier waits \
                             per slot (the documented schedule is 3: token \
                             issue, boundary exchange, commit)"
                        ),
                    ));
                }
            }
            None => out.push(diag(
                &file.rel,
                1,
                Rule::ShardPhase,
                "colord shard module has no `worker_loop` slot driver to \
                 check the 3-wait barrier schedule"
                    .to_string(),
            )),
        }
    }
}

/// Matching `}` for the `{` at sig position `open`; sig positions.
fn sig_brace_match(toks: &[crate::lexer::Tok], sig: &[usize], open: usize) -> usize {
    let mut depth = 0i32;
    for (k, &j) in sig.iter().enumerate().skip(open) {
        match toks[j].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
            _ => {}
        }
    }
    sig.len().saturating_sub(1)
}

/// `.wait(` occurrences within a slice of sig-token indices.
fn count_waits(toks: &[crate::lexer::Tok], span: &[usize]) -> usize {
    span.iter()
        .enumerate()
        .filter(|&(k, &j)| {
            toks[j].is_ident("wait")
                && k > 0
                && toks[span[k - 1]].is_punct('.')
                && span.get(k + 1).is_some_and(|&n| toks[n].is_punct('('))
        })
        .count()
}

// ---------------------------------------------------------------------------
// R9 — wire exhaustiveness.
// ---------------------------------------------------------------------------

/// R9: every enum with a same-file `WireMessage` impl must mention
/// each variant in both `encode` and `decode`; the colord server's
/// `handle` must dispatch every wire `Request` variant; and each
/// `EventKind` variant must have both a producer and a consumer.
pub fn check_wire_exhaustive(files: &[ParsedFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // (a) Same-file `impl WireMessage for <enum>` blocks, wherever
    // they appear.
    for file in files {
        for im in &file.items.impls {
            if im.trait_name.as_deref() != Some("WireMessage") {
                continue;
            }
            let Some(en) = file.items.enums.iter().find(|e| e.name == im.type_name) else {
                continue;
            };
            for dir in ["encode", "decode"] {
                let body = im
                    .fns
                    .iter()
                    .find(|&&ni| file.items.fns[ni].name == dir)
                    .and_then(|&ni| file.items.fns[ni].body);
                let Some(body) = body else {
                    out.push(diag(
                        &file.rel,
                        im.line,
                        Rule::WireExhaustive,
                        format!(
                            "`WireMessage` impl for `{}` has no `{dir}` body \
                             to check for variant coverage",
                            en.name
                        ),
                    ));
                    continue;
                };
                let idents = body_idents(file, body);
                for (v, vline) in &en.variants {
                    if !idents.contains(v.as_str()) {
                        out.push(diag(
                            &file.rel,
                            *vline,
                            Rule::WireExhaustive,
                            format!(
                                "`{}::{v}` is not handled in `{dir}` of its \
                                 `WireMessage` impl",
                                en.name
                            ),
                        ));
                    }
                }
            }
        }
    }
    // (b) colord server dispatch: `handle` must route every wire
    // `Request` variant.
    let wire = file_index(files, "crates/colord/src/wire.rs");
    let server = file_index(files, "crates/colord/src/server.rs");
    if let (Some(wi), Some(si)) = (wire, server) {
        if let Some(req) = files[wi].items.enums.iter().find(|e| e.name == "Request") {
            let server_file = &files[si];
            match server_file
                .items
                .fn_named("handle")
                .and_then(|ni| server_file.items.fns[ni].body.map(|b| (ni, b)))
            {
                Some((ni, body)) => {
                    let idents = body_idents(server_file, body);
                    let line = server_file.items.fns[ni].line;
                    for (v, _) in &req.variants {
                        if !idents.contains(v.as_str()) {
                            out.push(diag(
                                &server_file.rel,
                                line,
                                Rule::WireExhaustive,
                                format!(
                                    "wire `Request::{v}` is never dispatched \
                                     in the colord server's `handle`"
                                ),
                            ));
                        }
                    }
                }
                None => out.push(diag(
                    &server_file.rel,
                    1,
                    Rule::WireExhaustive,
                    "colord server has no `handle` function dispatching wire \
                     `Request`s"
                        .to_string(),
                )),
            }
        }
    }
    // (c) EventKind: symmetric producer/consumer coverage inside the
    // event-driven engine.
    if let Some(ei) = file_index(files, "crates/sim/src/engine/event.rs") {
        let file = &files[ei];
        if let Some(en) = file.items.enums.iter().find(|e| e.name == "EventKind") {
            for (v, vline) in &en.variants {
                let uses = file
                    .toks
                    .iter()
                    .enumerate()
                    .filter(|(i, t)| t.is_ident(v) && !(en.body.0 <= *i && *i <= en.body.1))
                    .count();
                if uses < 2 {
                    out.push(diag(
                        &file.rel,
                        *vline,
                        Rule::WireExhaustive,
                        format!(
                            "`EventKind::{v}` appears {uses} time(s) outside \
                             its declaration — every event kind needs both a \
                             producer (heap push) and a consumer (match arm)"
                        ),
                    ));
                }
            }
        }
    }
    out
}

fn body_idents(file: &ParsedFile, body: (usize, usize)) -> BTreeSet<&str> {
    file.toks[body.0..=body.1]
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
        .collect()
}

// ---------------------------------------------------------------------------
// R10 — no interior mutability in shard-shared types.
// ---------------------------------------------------------------------------

/// Files under R10's blanket ban: engine code plus colord's
/// shard-parallel modules (`Mutex` + atomics are the approved
/// cross-shard mechanisms in both).
fn in_shared_state_scope(rel: &str) -> bool {
    rel.starts_with("crates/sim/src/engine/")
        || rel == COLORD_SHARD_FILE
        || rel == COLORD_ROUTER_FILE
}

/// R10: shard-parallel code (see `in_shared_state_scope`) may not
/// use `Cell`-family types, `unsafe`, or mutable statics (the waivered
/// `SpinBarrier` internals are the one sanctioned exception, carried
/// by an explicit waiver, not by this rule); and no type reachable
/// from the sharded engine's struct fields (anywhere in the sim crate)
/// or from colord's shard/router state (anywhere in the colord crate)
/// may embed interior mutability.
pub fn check_interior_mutability(files: &[ParsedFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // (a) Blanket scan of shard-parallel files.
    for file in files {
        if !in_shared_state_scope(&file.rel) {
            continue;
        }
        let toks = &file.toks;
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            if INTERIOR_MUTABILITY.contains(&t.text.as_str()) {
                out.push(diag(
                    &file.rel,
                    t.line,
                    Rule::InteriorMutability,
                    format!(
                        "interior-mutability type `{}` in shard-parallel code \
                         — cross-shard state must use `Mutex` or atomics",
                        t.text
                    ),
                ));
            } else if t.text == "unsafe" {
                out.push(diag(
                    &file.rel,
                    t.line,
                    Rule::InteriorMutability,
                    "`unsafe` in shard-parallel code (only the waivered \
                     `SpinBarrier` internals may carry one)"
                        .to_string(),
                ));
            } else if t.text == "static"
                && toks
                    .iter()
                    .skip(i + 1)
                    .find(|n| n.kind != TokKind::Comment)
                    .is_some_and(|n| n.is_ident("mut"))
            {
                out.push(diag(
                    &file.rel,
                    t.line,
                    Rule::InteriorMutability,
                    "mutable static in shard-parallel code".to_string(),
                ));
            }
        }
    }
    // (b) Type closure: walk field types from every struct/enum the
    // shard anchors declare, across their whole crate — the sharded
    // engine over crates/sim, colord's shard + router over
    // crates/colord.
    closure_scan(
        files,
        &[SHARDED_FILE, KERNEL_FILE],
        "crates/sim",
        "the sharded engine",
        &mut out,
    );
    closure_scan(
        files,
        &[COLORD_SHARD_FILE, COLORD_ROUTER_FILE],
        "crates/colord",
        "colord's sharded service",
        &mut out,
    );
    out
}

/// One anchor set's R10 type-closure scan: seeds the walk with every
/// struct/enum the anchor files declare and follows embedded type
/// names through `crate_rel`'s declarations.
fn closure_scan(
    files: &[ParsedFile],
    anchors: &[&str],
    crate_rel: &str,
    what: &str,
    out: &mut Vec<Diagnostic>,
) {
    let anchor_idx: Vec<usize> = anchors
        .iter()
        .filter_map(|rel| file_index(files, rel))
        .collect();
    if anchor_idx.is_empty() {
        return;
    }
    // type name -> (declaring file index, typed fields, embedded type names)
    type Decl = (usize, Vec<(String, u32)>, Vec<String>);
    let mut decls: BTreeMap<&str, Decl> = BTreeMap::new();
    for (fi, file) in files.iter().enumerate() {
        if crate::graph::crate_key(&file.rel) != crate_rel {
            continue;
        }
        for s in &file.items.structs {
            let embedded: Vec<String> = s.field_types.iter().map(|(t, _)| t.clone()).collect();
            decls
                .entry(s.name.as_str())
                .or_insert((fi, s.field_types.clone(), embedded));
        }
        for e in &file.items.enums {
            let embedded: Vec<String> = e.embedded_types.iter().map(|(t, _)| t.clone()).collect();
            decls
                .entry(e.name.as_str())
                .or_insert((fi, e.embedded_types.clone(), embedded));
        }
    }
    let mut queue: Vec<String> = anchor_idx
        .iter()
        .flat_map(|&si| {
            files[si]
                .items
                .structs
                .iter()
                .map(|s| s.name.clone())
                .chain(files[si].items.enums.iter().map(|e| e.name.clone()))
        })
        .collect();
    let mut seen: BTreeSet<String> = queue.iter().cloned().collect();
    while let Some(name) = queue.pop() {
        let Some((fi, typed_fields, embedded)) = decls.get(name.as_str()) else {
            continue;
        };
        let rel = &files[*fi].rel;
        for (t, line) in typed_fields {
            // Shard-parallel files were already blanket-scanned above.
            if INTERIOR_MUTABILITY.contains(&t.as_str()) && !in_shared_state_scope(rel) {
                out.push(diag(
                    rel,
                    *line,
                    Rule::InteriorMutability,
                    format!(
                        "interior-mutability type `{t}` inside `{name}`, \
                         which is reachable from {what}'s state"
                    ),
                ));
            }
        }
        for t in embedded {
            if seen.insert(t.clone()) {
                queue.push(t.clone());
            }
        }
    }
}
