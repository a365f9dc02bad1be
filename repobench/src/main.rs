//! `repobench` — the repository benchmark.
//!
//! ```text
//! repobench --workload sim-colorize|colord-serve --seed N
//!           --seconds S --trace 0|1 --colord PATH --out DIR
//!           [--size full|tiny] [--source ID]
//! ```
//!
//! Runs one workload (see `README.md` in this directory for why each
//! exists), checks every output it gets, and prints one JSON object as
//! the last line of stdout:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones. The host record, the spans and the histograms go to
//! `DIR/<workload>-seed<N>-trace<T>.json` and to stderr. The exit code
//! is 0 only when every check passed.

mod colord_load;
mod host;
mod sim;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The command line, checked.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub colord: PathBuf,
    pub out: PathBuf,
    pub tiny: bool,
    pub source: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut colord = None;
    let mut out = None;
    let mut tiny = false;
    let mut source = String::from("unknown");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            "--colord" => colord = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            "--size" => {
                tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--size must be full or tiny, not {other:?}")),
                }
            }
            "--source" => source = value()?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        colord: colord.ok_or("--colord is required")?,
        out: out.ok_or("--out is required")?,
        tiny,
        source,
    })
}

const WORKLOADS: [&str; 2] = ["sim-colorize", "colord-serve"];

/// End-to-end metrics (`--trace 0`), every one measured on every
/// workload; `README.md` gives each its meaning per workload.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`). A workload that does not run a
/// layer reports that layer's metrics as 0.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("graph.deploy_s", "s"),
    ("graph.kappa_s", "s"),
    ("graph.verify_s", "s"),
    ("graph.boundary_nodes", "count"),
    ("core.fsm.self_s.event", "s"),
    ("core.fsm.self_s.lockstep", "s"),
    ("core.fsm.self_s.sharded", "s"),
    ("core.fsm.calls.wake", "count"),
    ("core.fsm.calls.deadline", "count"),
    ("core.fsm.calls.message", "count"),
    ("core.fsm.calls.receive", "count"),
    ("core.fsm.mean_ns", "ns"),
    ("sim.engine.self_s.event", "s"),
    ("sim.engine.self_s.lockstep", "s"),
    ("sim.engine.self_s.sharded", "s"),
    ("sim.color_s.event", "s"),
    ("sim.color_s.lockstep", "s"),
    ("sim.color_s.sharded", "s"),
    ("sim.slots_per_s", "1/s"),
    ("sim.slots", "count"),
    ("sim.transmissions", "count"),
    ("sim.deliveries", "count"),
    ("sim.collisions", "count"),
    ("sim.delivery_ratio", "ratio"),
    ("sim.sharded.speedup", "ratio"),
    ("sim.sharded.threads", "count"),
    ("colord.service.join_us.p50", "us"),
    ("colord.service.join_us.p99", "us"),
    ("colord.join_wait_ms.p50", "ms"),
    ("colord.join_wait_ms.p99", "ms"),
    ("colord.service.step_us_per_slot", "us"),
    ("colord.service.settle_slots", "count"),
    ("colord.service.reprovisions", "count"),
    ("colord.service.resets", "count"),
    ("colord.service.kappa2_est", "count"),
    ("colord.service.frame_len", "count"),
    ("colord.server.settle_slots", "count"),
    ("colord.server.slots_per_s", "1/s"),
    ("colord.server.settle_s", "s"),
    ("colord.service.heartbeat_us", "us"),
    ("colord.service.snapshot_us", "us"),
    ("colord.wire.codec_ns", "ns"),
    ("colord.server.cpu_us_per_req", "us"),
    ("colord.server.threads", "count"),
    ("colord.server.peak_rss_mb", "MiB"),
    ("colord.server.join_p50_ms", "ms"),
    ("colord.server.join_p99_ms", "ms"),
    ("colord.server.sweep_s", "s"),
    ("colord.server.req_per_s", "1/s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Metrics, correctness bookkeeping and the host record of one run.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    /// `(key, JSON value)` pairs for the host record.
    host: Vec<(String, String)>,
    /// `(key, JSON value)` pairs written to the output file only.
    detail: Vec<(String, String)>,
}

impl Report {
    /// Records a measured metric; its unit comes from the canonical
    /// lists above.
    pub fn metric(&mut self, name: &str, value: f64) {
        match END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
        {
            Some(&(n, unit)) => self.metrics.push((n.to_string(), value, unit)),
            None => self.fail(format!("internal: metric {name:?} is not declared")),
        }
    }

    /// Puts the metrics of this run's kind in canonical order. A missing
    /// end-to-end metric is a failure; a missing per-layer metric is a
    /// layer this workload does not run, reported as 0.
    fn finish_metrics(&mut self, trace: bool) {
        let list: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut out = Vec::with_capacity(list.len());
        for &(name, unit) in list {
            match self.metrics.iter().find(|(n, _, _)| n == name) {
                Some(&(_, value, _)) => out.push((name.to_string(), value, unit)),
                None if trace => out.push((name.to_string(), 0.0, unit)),
                None => self.fail(format!("end-to-end metric {name} was not measured")),
            }
        }
        self.metrics = out;
    }

    /// Counts one checked operation; a failed one is also kept by name.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
        ok
    }

    /// Counts `n` operations that passed (their failures are reported
    /// one by one through [`Report::fail`]).
    pub fn ops(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, what: String) {
        eprintln!("repobench: CHECK FAILED: {what}");
        self.failed += 1;
        if self.failures.len() < 32 {
            self.failures.push(what);
        }
    }

    pub fn host(&mut self, key: &str, json_value: String) {
        self.host.push((key.to_string(), json_value));
    }

    pub fn detail(&mut self, key: &str, json_value: String) {
        self.detail.push((key.to_string(), json_value));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// keeps; non-finite values (never expected) become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub fn string(s: &str) -> String {
    let escaped = s
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    format!("\"{escaped}\"")
}

pub fn object(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}:{v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable (not a git checkout)".into())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let mut report = Report::default();
    report.host("workload", string(&args.workload));
    report.host("seed", args.seed.to_string());
    report.host("seconds", num(args.seconds));
    report.host("trace", (args.trace as u8).to_string());
    report.host("size", string(if args.tiny { "tiny" } else { "full" }));
    report.host("nproc", host::nproc().to_string());
    report.host("loadavg_start", num(host::loadavg()));
    report.host("commit", string(&git_commit()));
    report.host("source", string(&args.source));
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    report.host("build_profile", string(profile));

    let outcome = match args.workload.as_str() {
        "sim-colorize" => sim::run(&args, &mut report),
        _ => colord_load::serve(&args, &mut report),
    };
    if let Err(e) = outcome {
        report.fail(format!("run aborted: {e}"));
    }
    report.finish_metrics(args.trace);

    report.host("loadavg_end", num(host::loadavg()));
    report.host("wall_s", num(started.elapsed().as_secs_f64()));
    let host_json = object(&report.host);
    eprintln!("repobench: host {host_json}");
    let file = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload, args.seed, args.trace as u8
    ));
    let failures: Vec<String> = report.failures.iter().map(|f| string(f)).collect();
    let mut doc = vec![
        ("host".to_string(), host_json),
        ("result".to_string(), report.result_line()),
        ("failures".to_string(), format!("[{}]", failures.join(","))),
    ];
    doc.extend(report.detail.iter().cloned());
    if let Err(e) =
        std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&file, object(&doc) + "\n"))
    {
        report.fail(format!("cannot write {}: {e}", file.display()));
    }
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
