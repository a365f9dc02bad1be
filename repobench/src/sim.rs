//! `sim-colorize`: the `colorize` CLI path on a seeded jittered-grid
//! unit disk graph, colored once on each of the Event, Lockstep and
//! Sharded(2) engines. No TCP, so the colord layers do nothing here.

use crate::stats::{median, percentile, Hist};
use crate::trace::{SpanId, Timed, Tracer, CALLBACKS};
use crate::{host, Args, Report};
use radio_graph::analysis::independence::{kappa_bounded, kappa_greedy};
use radio_graph::generators::{build_udg, grid_jitter};
use radio_graph::{check_coloring, Coloring, Graph, Partition};
use radio_sim::rng::node_rng;
use radio_sim::{EngineKind, ExecutedEngine, SimConfig, Slot, WakePattern};
use std::time::Instant;
use urn_coloring::{
    color_graph, AlgorithmParams, ColoringConfig, ColoringNode, ColoringOutcome, ProtoId,
};

/// Node budget `kappa_bounded` may spend before `colorize` falls back
/// to the greedy estimate (the CLI's value).
const KAPPA_FUEL: u64 = 5_000_000;
/// Grid pitch and per-axis jitter of the deployment (radius 1): a mean
/// closed degree near 17, like a uniform square at target Δ* = 16, but
/// with a Δ and κ₂ that do not move from seed to seed (a uniform
/// square's do, and the run time with them; see README.md).
const PITCH: f64 = 0.44;
const JITTER: f64 = 0.15;
/// Shards of the sharded engine.
const SHARDS: u32 = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

const ENGINES: [(&str, EngineKind); 3] = [
    ("event", EngineKind::Event),
    ("lockstep", EngineKind::Lockstep),
    ("sharded", EngineKind::Sharded),
];

/// One deployment, with everything `colorize` derives before coloring.
#[derive(PartialEq)]
struct Instance {
    graph: Graph,
    params: AlgorithmParams,
    wake: Vec<Slot>,
}

/// Builds the instance the way `colorize --points` does, from `seed`:
/// positions, UDG, κ₂ (greedy fallback), practical parameters, and a
/// `UniformWindow { 2·waiting_slots }` wake schedule. Returns the
/// instance and the seconds spent on deploy and on κ.
fn setup(n: usize, seed: u64, report: &mut Report) -> (Instance, f64, f64) {
    let t = Instant::now();
    let (cols, rows) = grid_shape(n);
    let points = grid_jitter(cols, rows, PITCH, JITTER, &mut node_rng(seed, 0xF00D));
    let graph = build_udg(&points, 1.0);
    let deploy_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let kappa = match kappa_bounded(&graph, KAPPA_FUEL) {
        Some(k) => k,
        None => {
            report.host("kappa", crate::string("greedy fallback"));
            kappa_greedy(&graph)
        }
    };
    let kappa_s = t.elapsed().as_secs_f64();
    let params =
        AlgorithmParams::practical(kappa.k2.max(2), graph.max_closed_degree().max(2), n.max(16));
    let wake = WakePattern::UniformWindow {
        window: 2 * params.waiting_slots(),
    }
    .generate(n, &mut node_rng(seed, 0));
    (
        Instance {
            graph,
            params,
            wake,
        },
        deploy_s,
        kappa_s,
    )
}

fn config(inst: &Instance, engine: EngineKind) -> ColoringConfig {
    let mut cfg = ColoringConfig::new(inst.params);
    cfg.engine = engine;
    if engine == EngineKind::Sharded {
        cfg.sim = SimConfig::default().with_shards(SHARDS);
    }
    cfg
}

/// The checks every coloring must pass: complete, proper, no protocol
/// error, and a sharded request that really ran on `SHARDS` shards.
fn check_outcome(report: &mut Report, name: &str, out: &ColoringOutcome) {
    report.check(out.error.is_none(), || {
        format!("{name}: protocol error {:?}", out.error)
    });
    report.check(out.all_decided && out.valid(), || {
        format!(
            "{name}: coloring invalid (decided={} proper={} complete={})",
            out.all_decided, out.report.proper, out.report.complete
        )
    });
    if name == "sharded" {
        report.check(
            out.executed == ExecutedEngine::Sharded { shards: SHARDS },
            || {
                format!(
                    "sharded: executed {} instead of sharded({SHARDS})",
                    out.executed
                )
            },
        );
    }
}

/// Colors the instance once per engine, untraced, checking each
/// outcome and that Lockstep and Sharded agree bit for bit. Returns
/// the wall seconds per engine and the outcomes.
fn untraced_pass(inst: &Instance, seed: u64, report: &mut Report) -> Vec<(f64, ColoringOutcome)> {
    let mut pass = Vec::with_capacity(ENGINES.len());
    for (name, engine) in ENGINES {
        let cfg = config(inst, engine);
        let t = Instant::now();
        let out = color_graph(&inst.graph, &inst.wake, &cfg, seed);
        let secs = t.elapsed().as_secs_f64();
        check_outcome(report, name, &out);
        pass.push((secs, out));
    }
    let (lock, shard) = (&pass[1].1, &pass[2].1);
    report.check(
        lock.colors == shard.colors && lock.slots_run == shard.slots_run,
        || "lockstep and sharded outcomes differ".into(),
    );
    pass
}

/// Columns × rows of a two-to-one grid of `n` nodes (`n` = 2·k²).
fn grid_shape(n: usize) -> (usize, usize) {
    let rows = ((n / 2) as f64).sqrt() as usize;
    (n / rows, rows)
}

fn instance_size(args: &Args) -> usize {
    if args.tiny {
        72
    } else {
        2048
    }
}

pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    if args.trace {
        return traced(args, report);
    }
    let n = instance_size(args);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inst = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (i, _, _) = setup(n, args.seed, report);
        setups.push(t.elapsed().as_secs_f64());
        if let Some(first) = &inst {
            report.check(i == *first, || {
                "set-up is not deterministic in the seed".into()
            });
        } else {
            inst = Some(i);
        }
    }
    let inst = inst.expect("at least one set-up");
    describe(&inst, report);

    // Whole passes until the next one would overrun the budget. A pass
    // is the workload's request: the instance colored on every engine.
    let start = Instant::now();
    let mut passes_ms: Vec<f64> = Vec::new();
    loop {
        let pass = untraced_pass(&inst, args.seed, report);
        passes_ms.push(pass.iter().map(|(s, _)| s * 1e3).sum());
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / passes_ms.len() as f64 > args.seconds {
            break;
        }
    }
    report.host("passes", passes_ms.len().to_string());
    report.metric("setup_s", median(&setups));
    report.metric("latency_p50_ms", median(&passes_ms));
    report.metric("latency_p90_ms", percentile(&passes_ms, 0.9));
    report.metric(
        "peak_rss_mb",
        host::peak_rss_mb(None).ok_or("no VmHWM in /proc/self/status")?,
    );
    Ok(())
}

fn describe(inst: &Instance, report: &mut Report) {
    report.host("n", inst.graph.len().to_string());
    report.host("delta", inst.graph.max_closed_degree().to_string());
    report.host("kappa2", inst.params.kappa2.to_string());
    report.host("waiting_slots", inst.params.waiting_slots().to_string());
}

/// What the traced run learns from one engine.
struct TracedColor {
    /// Span of the whole coloring: engine run, color read-out, verify.
    wall_s: f64,
    /// Span of the engine's `run` call alone.
    engine_s: f64,
    verify_s: f64,
    /// FSM callback time summed over all nodes (all threads).
    fsm: Hist,
    calls: [u64; 4],
    colors: Coloring,
    valid: bool,
}

fn traced_color(
    inst: &Instance,
    seed: u64,
    name: &str,
    engine: EngineKind,
    tr: &mut Tracer,
    parent: SpanId,
) -> TracedColor {
    let cfg = config(inst, engine);
    let span = tr.open(&format!("color.{name}"), Some(parent));
    let protocols: Vec<Timed<ColoringNode>> = (1..=inst.graph.len() as ProtoId)
        .map(|id| Timed::new(ColoringNode::new(id, inst.params)))
        .collect();
    let run = tr.open(&format!("sim.engine.{name}"), Some(span));
    let out = engine.run(&inst.graph, &inst.wake, protocols, seed, &cfg.sim);
    tr.close(run);
    let colors: Coloring = out.protocols.iter().map(|p| p.inner.color()).collect();
    let verify = tr.open("graph.verify", Some(span));
    let checked = check_coloring(&inst.graph, &colors);
    tr.close(verify);
    tr.close(span);
    let mut fsm = Hist::default();
    let mut calls = [0u64; 4];
    for p in &out.protocols {
        fsm.merge(&p.hist);
        for (c, k) in calls.iter_mut().zip(p.calls) {
            *c += k;
        }
    }
    TracedColor {
        valid: checked.valid() && out.all_decided && out.error.is_none(),
        wall_s: tr.secs(span),
        engine_s: tr.secs(run),
        verify_s: tr.secs(verify),
        fsm,
        calls,
        colors,
    }
}

/// `--trace 1`: one traced set-up, one untraced pass (the baseline for
/// the tracing overhead and the source of the counts), one traced pass.
fn traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let n = instance_size(args);
    let mut tr = Tracer::new();
    let root = tr.open("sim-colorize", None);
    let span = tr.open("setup", Some(root));
    let (inst, deploy_s, kappa_s) = setup(n, args.seed, report);
    tr.close(span);
    describe(&inst, report);
    report.metric("graph.deploy_s", deploy_s);
    report.metric("graph.kappa_s", kappa_s);
    let partition = Partition::contiguous(n, SHARDS as usize);
    let boundary: usize = partition.boundary(&inst.graph).iter().map(Vec::len).sum();
    report.metric("graph.boundary_nodes", boundary as f64);

    let span = tr.open("pass.untraced", Some(root));
    let pass = untraced_pass(&inst, args.seed, report);
    tr.close(span);
    let untraced_s: f64 = pass.iter().map(|(s, _)| s).sum();
    for ((name, _), (secs, _)) in ENGINES.iter().zip(&pass) {
        report.metric(&format!("sim.color_s.{name}"), *secs);
    }
    let reference = &pass[1].1;
    let (sent, received, collisions) = reference.stats.iter().fold((0, 0, 0), |a, s| {
        (a.0 + s.sent, a.1 + s.received, a.2 + s.collisions)
    });
    report.metric("sim.slots", reference.slots_run as f64);
    report.metric("sim.transmissions", sent as f64);
    report.metric("sim.deliveries", received as f64);
    report.metric("sim.collisions", collisions as f64);
    report.metric(
        "sim.delivery_ratio",
        received as f64 / (received + collisions).max(1) as f64,
    );
    let loops = &pass[1..];
    report.metric(
        "sim.slots_per_s",
        loops.iter().map(|(_, o)| o.slots_run as f64).sum::<f64>()
            / loops.iter().map(|(s, _)| s).sum::<f64>(),
    );
    report.metric("sim.sharded.speedup", pass[1].0 / pass[2].0);
    report.metric("sim.sharded.threads", host::nproc() as f64);

    let traced_pass = tr.open("pass.traced", Some(root));
    let (mut fsm_all, mut calls_all) = (Hist::default(), [0u64; 4]);
    let (mut covered, mut wall, mut verify) = (0.0, 0.0, 0.0);
    for ((name, engine), (_, plain)) in ENGINES.iter().zip(&pass) {
        let t = traced_color(&inst, args.seed, name, *engine, &mut tr, traced_pass);
        report.check(t.valid && t.colors == plain.colors, || {
            format!("{name}: traced coloring invalid or changed by the timing wrapper")
        });
        // Sharded callbacks run on SHARDS threads at once: the FSM's
        // share of each thread's wall time is the per-thread mean.
        let threads = if *engine == EngineKind::Sharded {
            SHARDS as f64
        } else {
            1.0
        };
        let fsm_s = t.fsm.total_ns as f64 * 1e-9 / threads;
        // The wrapper's clock runs inside the engine span, so FSM self
        // time outside (0, engine span) means misattributed callbacks.
        report.check(fsm_s > 0.0 && fsm_s < t.engine_s, || {
            format!(
                "{name}: FSM self time {fsm_s:.4} s outside the engine span {:.4} s",
                t.engine_s
            )
        });
        report.metric(&format!("core.fsm.self_s.{name}"), fsm_s);
        report.metric(&format!("sim.engine.self_s.{name}"), t.engine_s - fsm_s);
        covered += t.engine_s;
        wall += t.wall_s;
        verify += t.verify_s;
        fsm_all.merge(&t.fsm);
        for (c, k) in calls_all.iter_mut().zip(t.calls) {
            *c += k;
        }
    }
    tr.close(traced_pass);
    tr.close(root);
    for (kind, count) in CALLBACKS.iter().zip(calls_all) {
        report.metric(&format!("core.fsm.calls.{kind}"), count as f64);
    }
    report.metric("core.fsm.mean_ns", fsm_all.mean_ns());
    report.metric("graph.verify_s", verify / ENGINES.len() as f64);
    // FSM self + engine self is the engine span by construction, so
    // this is the engine span's share of the traced colorings; the rest
    // is read-out and verification.
    let coverage = covered / wall;
    report.check(coverage >= 0.9, || {
        format!("trace coverage {coverage:.3}: the engine spans are under 90 % of the colorings")
    });
    report.metric("trace.coverage", coverage);
    report.metric("trace.overhead_s", tr.secs(traced_pass) - untraced_s);
    report.detail("fsm_hist", fsm_all.to_json());
    report.detail("spans", tr.to_json());
    Ok(())
}
