//! `colord-serve`: the real `colord` binary, spawned with default
//! flags and driven over loopback TCP by at most `nproc` (and never
//! more than 2) connections. The traced run also splits the set-up's
//! joins and settles into layers, with an in-process `Service` replay
//! of the same arrivals.

use crate::stats::{median, percentile, Hist};
use crate::trace::Tracer;
use crate::{host, Args, Report};
use colord::{Client, Request, Response, Service, ServiceConfig};
use radio_graph::generators::build_udg;
use radio_graph::geometry::Point2;
use radio_graph::{check_coloring, Graph};
use radio_transport::{node_rng, WireMessage};
use rand::Rng;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use urn_coloring::json;

/// Lattice spacing at radius 1 (the E21 geometry: κ₂ = 9).
const SPACING: f64 = 0.75;
/// Interval between `Snapshot` polls while waiting for a settled coloring.
const POLL: Duration = Duration::from_micros(200);
/// A set-up or replay that takes longer than this fails the run.
const PHASE_TIMEOUT: Duration = Duration::from_secs(30);
/// One `Snapshot` per this many heartbeats, per connection.
const SNAPSHOT_EVERY: u64 = 1000;
/// Slots per `Service::step` call: `colord`'s default `--batch`.
const BATCH: u64 = 128;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Sessions: a 12×12 lattice. One-at-a-time arrivals of a 16×16 one
/// already take 8–10 s per set-up, and the E21 lattice is 50×50 (see
/// README.md).
fn sessions(args: &Args) -> usize {
    if args.tiny {
        16
    } else {
        144
    }
}

/// Client connections: no more than the host has threads, and never
/// more than 2, so the offered load is the same on any host with ≥ 2.
fn connections() -> usize {
    host::nproc().clamp(1, 2)
}

/// The square lattice at [`SPACING`], in a join order drawn from
/// `seed` (Fisher–Yates on a `node_rng` stream).
fn lattice(sessions: usize, seed: u64) -> Vec<Point2> {
    let side = (sessions as f64).sqrt().ceil() as usize;
    let mut pos: Vec<Point2> = (0..sessions)
        .map(|i| Point2::new((i % side) as f64 * SPACING, (i / side) as f64 * SPACING))
        .collect();
    let mut rng = node_rng(seed, 0x1A77);
    for i in (1..pos.len()).rev() {
        pos.swap(i, rng.gen_range(0..=i));
    }
    pos
}

/// A running `colord` child. Dropping it kills and reaps the process.
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    /// Spawns `colord` with default flags and waits for its listening
    /// line.
    fn spawn(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading colord's first line: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("colord: listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected first line from colord: {line:?}"))?;
        Ok(server)
    }

    fn pid(&self) -> Option<u32> {
        Some(self.child.id())
    }

    /// The shutdown handshake: `Shutdown` answered by `Bye`, then a
    /// zero exit with `colord: shut down cleanly` on stdout.
    fn shutdown(mut self, client: &mut Client) -> Result<(), String> {
        client
            .shutdown()
            .map_err(|e| format!("shutdown request: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("colord still running 10 s after Bye".into()),
                Err(e) => return Err(format!("waiting for colord: {e}")),
            }
        };
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        if status.success() && rest.contains("colord: shut down cleanly") {
            Ok(())
        } else {
            Err(format!("unclean shutdown: {status}, stdout {rest:?}"))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The snapshot fields the benchmark checks and reports.
#[derive(Clone, Copy, Debug, Default)]
struct Snap {
    slot: u64,
    live: u64,
    decided: u64,
    conflicts: u64,
    reprovisions: u64,
    kappa2_est: u64,
}

impl Snap {
    fn parse(text: &str) -> Result<Snap, String> {
        let v = json::parse(text)?;
        let obj = v.as_obj("snapshot")?;
        let get = |k: &str| json::get(obj, k).and_then(|v| v.as_u64(k));
        Ok(Snap {
            slot: get("slot")?,
            live: get("live")?,
            decided: get("decided")?,
            conflicts: get("conflicts")?,
            reprovisions: get("reprovisions")?,
            kappa2_est: get("kappa2_est")?,
        })
    }

    fn valid(&self) -> bool {
        self.live == self.decided && self.conflicts == 0
    }
}

/// The outcome of the set-up's arrivals.
struct Joined {
    /// One per connection, for the requests that follow.
    clients: Vec<Client>,
    /// Session tokens by arrival index.
    tokens: Vec<u64>,
    /// Per arrival: join sent, token received, every session decided.
    times: Vec<(Instant, Instant, Instant)>,
    /// The snapshot that ended the last arrival.
    last: Snap,
}

impl Joined {
    fn join_ms(&self) -> Vec<f64> {
        self.times
            .iter()
            .map(|(sent, acked, _)| acked.duration_since(*sent).as_secs_f64() * 1e3)
            .collect()
    }

    /// Seconds from each token to the settled snapshot, summed.
    fn settle_s(&self) -> f64 {
        self.times
            .iter()
            .map(|(_, acked, settled)| settled.duration_since(*acked).as_secs_f64())
            .sum()
    }
}

/// Brings the devices at `pos` up one at a time through one blocking
/// connection: a device sends its join, waits for its token, and the
/// next one arrives once every session has decided again. That is the
/// state in which `colord`'s ticker parks on `idle()`, so every join
/// finds it parked, no join races a step batch, and the service steps
/// the same slots on every run of a seed. Opens the other
/// [`connections`] for the requests that follow.
fn arrive_all(addr: SocketAddr, pos: &[Point2], report: &mut Report) -> Result<Joined, String> {
    let deadline = Instant::now() + PHASE_TIMEOUT;
    let connect = || Client::connect(addr).map_err(|e| format!("connecting to colord: {e}"));
    let mut client = connect()?;
    let mut tokens = Vec::with_capacity(pos.len());
    let mut times = Vec::with_capacity(pos.len());
    let mut last = Snap::default();
    for (i, p) in pos.iter().enumerate() {
        let sent = Instant::now();
        let token = client
            .join(p.x, p.y)
            .map_err(|e| format!("join {i}: {e}"))?;
        let acked = Instant::now();
        tokens.push(token);
        last = await_settled(&mut client, i + 1, deadline, report)?;
        times.push((sent, acked, Instant::now()));
    }
    report.ops(pos.len() as u64);
    report.check(last.valid(), || {
        format!("{} conflicts after the last arrival", last.conflicts)
    });
    let mut unique = tokens.clone();
    unique.sort_unstable();
    unique.dedup();
    report.check(unique.len() == pos.len(), || {
        "join tokens are not unique".into()
    });
    let mut clients = vec![client];
    while clients.len() < connections() {
        clients.push(connect()?);
    }
    Ok(Joined {
        clients,
        tokens,
        times,
        last,
    })
}

/// Polls `Snapshot` every [`POLL`] until all `live` sessions have
/// decided, and returns that snapshot.
fn await_settled(
    client: &mut Client,
    live: usize,
    deadline: Instant,
    report: &mut Report,
) -> Result<Snap, String> {
    loop {
        let text = client.snapshot().map_err(|e| format!("snapshot: {e}"))?;
        let snap = Snap::parse(&text)?;
        report.ops(1);
        if snap.live == live as u64 && snap.decided == snap.live {
            return Ok(snap);
        }
        if Instant::now() > deadline {
            return Err(format!(
                "set-up not done after {PHASE_TIMEOUT:?}: live {} decided {}",
                snap.live, snap.decided
            ));
        }
        std::thread::sleep(POLL);
    }
}

/// The in-process twin of a set-up: the same arrivals in the same order
/// through `Service::join`, each followed by `Service::step(BATCH)`
/// until idle, as `colord`'s ticker steps. It is deterministic, so its
/// counts repeat exactly for a seed.
struct Replay {
    svc: Service,
    tokens: Vec<u64>,
    join_us: Vec<f64>,
    step_us_per_slot: f64,
}

fn replay(pos: &[Point2], report: &mut Report) -> Result<Replay, String> {
    let svc = Service::new(ServiceConfig::default());
    let mut tokens = Vec::with_capacity(pos.len());
    let mut join_us = Vec::with_capacity(pos.len());
    let (mut slots, mut step_s) = (0u64, 0.0);
    let start = Instant::now();
    for p in pos {
        let t = Instant::now();
        let token = svc
            .join(p.x, p.y)
            .map_err(|e| format!("in-process join: {e}"))?;
        join_us.push(t.elapsed().as_secs_f64() * 1e6);
        tokens.push(token);
        let t = Instant::now();
        while !svc.idle() {
            if start.elapsed() > PHASE_TIMEOUT {
                return Err(format!("in-process replay not idle after {slots} slots"));
            }
            svc.step(BATCH);
            slots += BATCH;
        }
        step_s += t.elapsed().as_secs_f64();
    }
    report.ops(pos.len() as u64);
    let snap = svc.snapshot();
    report.check(snap.valid() && snap.live == pos.len(), || {
        format!(
            "in-process replay settled invalid: live {} decided {} conflicts {}",
            snap.live, snap.decided, snap.conflicts
        )
    });
    Ok(Replay {
        svc,
        tokens,
        join_us,
        step_us_per_slot: step_s * 1e6 / slots.max(1) as f64,
    })
}

/// A `colord` with the lattice joined and settled, ready to serve.
struct Ready {
    server: Server,
    joined: Joined,
    /// Seconds from spawn until the last arrival has settled.
    setup_s: f64,
    /// Colors by arrival index, read back by heartbeat and checked to
    /// be a proper coloring of the lattice's unit disk graph.
    colors: Vec<Option<u32>>,
}

fn ready(args: &Args, pos: &[Point2], graph: &Graph, report: &mut Report) -> Result<Ready, String> {
    let t = Instant::now();
    let server = Server::spawn(&args.colord)?;
    let mut joined = arrive_all(server.addr, pos, report)?;
    let setup_s = t.elapsed().as_secs_f64();
    let join_ms = joined.join_ms();
    eprintln!(
        "repobench: colord-serve set-up: {setup_s:.3} s, joins p50 {:.3} ms p99 {:.3} ms, \
         settles {:.3} s, {} slots",
        median(&join_ms),
        percentile(&join_ms, 0.99),
        joined.settle_s(),
        joined.last.slot,
    );
    let mut colors = Vec::with_capacity(pos.len());
    for &token in &joined.tokens {
        let (_, color, _) = joined.clients[0]
            .heartbeat(token)
            .map_err(|e| format!("heartbeat: {e}"))?;
        colors.push(color);
    }
    report.ops(colors.len() as u64);
    let checked = check_coloring(graph, &colors);
    report.check(checked.valid(), || {
        format!(
            "heartbeat colors are not a proper coloring of the lattice: {} conflicts, {} uncolored",
            checked.conflicts.len(),
            checked.uncolored
        )
    });
    Ok(Ready {
        server,
        joined,
        setup_s,
        colors,
    })
}

/// What one closed-loop serving phase measured.
#[derive(Default)]
struct Served {
    heartbeat_ms: Vec<f64>,
    /// Start, end and requests of each sweep over every session.
    sweeps: Vec<(Instant, Instant, u64)>,
    requests: u64,
    cpu_ticks: u64,
    hist: Hist,
}

impl Served {
    fn sweep_secs(&self) -> Vec<f64> {
        self.sweeps
            .iter()
            .map(|(s, e, _)| e.duration_since(*s).as_secs_f64())
            .collect()
    }

    /// Requests per second within each sweep.
    fn sweep_rates(&self) -> Vec<f64> {
        self.sweeps
            .iter()
            .map(|(s, e, n)| *n as f64 / e.duration_since(*s).as_secs_f64())
            .collect()
    }
}

/// Heartbeats round-robin over every session for about `seconds`, one
/// connection per client thread, each thread taking every
/// `connections()`-th session; a `Snapshot` every [`SNAPSHOT_EVERY`]
/// heartbeats per thread. Sweeps are separated by barriers so a sweep's
/// time is the time every session needs to hear its color. A `traced`
/// phase also records every heartbeat in a histogram, its only tracing.
fn serve_phase(ready: &mut Ready, seconds: f64, traced: bool, report: &mut Report) -> Served {
    let conns = ready.joined.clients.len();
    let barrier = Barrier::new(conns);
    let stop = AtomicBool::new(false);
    let broken = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let cpu0 = host::cpu_ticks(ready.server.pid());
    let (tokens, colors) = (&ready.joined.tokens, &ready.colors);
    type Thread = (
        Vec<f64>,
        Vec<(Instant, Instant, u64)>,
        u64,
        Vec<String>,
        Hist,
    );
    let per_thread: Vec<Thread> = std::thread::scope(|s| {
        let handles: Vec<_> = ready
            .joined
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let (barrier, stop, broken) = (&barrier, &stop, &broken);
                s.spawn(move || {
                    let mut lat = Vec::new();
                    let mut sweeps = Vec::new();
                    let mut hist = Hist::default();
                    let mut errors = Vec::new();
                    let (mut requests, mut since_snapshot) = (0u64, 0u64);
                    loop {
                        barrier.wait();
                        let t0 = Instant::now();
                        let before = requests;
                        for j in (c..tokens.len()).step_by(conns) {
                            if broken.load(Ordering::Relaxed) {
                                break;
                            }
                            let t = Instant::now();
                            let rsp = client.heartbeat(tokens[j]);
                            let ns = t.elapsed().as_nanos() as u64;
                            requests += 1;
                            match rsp {
                                Ok((_, color, _)) if color == colors[j] => {
                                    lat.push(ns as f64 * 1e-6);
                                    if traced {
                                        hist.record(ns);
                                    }
                                }
                                Ok((_, color, _)) => errors.push(format!(
                                    "session {j}: heartbeat color {color:?}, settled {:?}",
                                    colors[j]
                                )),
                                Err(e) => {
                                    errors.push(format!("heartbeat: {e}"));
                                    broken.store(true, Ordering::Relaxed);
                                }
                            }
                            since_snapshot += 1;
                            if since_snapshot == SNAPSHOT_EVERY {
                                since_snapshot = 0;
                                requests += 1;
                                match client
                                    .snapshot()
                                    .map_err(|e| e.to_string())
                                    .and_then(|t| Snap::parse(&t))
                                {
                                    Ok(snap) if snap.valid() => {}
                                    Ok(snap) => errors
                                        .push(format!("snapshot invalid while serving: {snap:?}")),
                                    Err(e) => {
                                        errors.push(format!("snapshot: {e}"));
                                        broken.store(true, Ordering::Relaxed);
                                    }
                                }
                            }
                        }
                        sweeps.push((t0, Instant::now(), requests - before));
                        if barrier.wait().is_leader()
                            && (Instant::now() >= deadline || broken.load(Ordering::Relaxed))
                        {
                            stop.store(true, Ordering::Relaxed);
                        }
                        barrier.wait();
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    (lat, sweeps, requests, errors, hist)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve thread panicked"))
            .collect()
    });
    let cpu1 = host::cpu_ticks(ready.server.pid());
    let mut served = Served {
        cpu_ticks: cpu1.zip(cpu0).map_or(0, |(b, a)| b.saturating_sub(a)),
        ..Served::default()
    };
    let rounds = per_thread.iter().map(|t| t.1.len()).min().unwrap_or(0);
    for k in 0..rounds {
        let s = per_thread.iter().map(|t| t.1[k].0).min().expect("a thread");
        let e = per_thread.iter().map(|t| t.1[k].1).max().expect("a thread");
        let n = per_thread.iter().map(|t| t.1[k].2).sum();
        served.sweeps.push((s, e, n));
    }
    for (lat, _, requests, errors, hist) in per_thread {
        served.heartbeat_ms.extend(lat);
        served.requests += requests;
        served.hist.merge(&hist);
        report.ops(requests.saturating_sub(errors.len() as u64));
        for e in errors {
            report.check(false, || e);
        }
    }
    served
}

pub fn serve(args: &Args, report: &mut Report) -> Result<(), String> {
    let pos = lattice(sessions(args), args.seed);
    let graph = build_udg(&pos, 1.0);
    report.host("sessions", pos.len().to_string());
    report.host("connections", connections().to_string());
    if args.trace {
        return serve_traced(args, &pos, &graph, report);
    }
    // Latencies per phase, then the median over the set-ups' phases, so
    // a noisy neighbour moves a few phases, not the run.
    let (mut setups, mut rss, mut slots) = (vec![], vec![], vec![]);
    let (mut p50, mut p90) = (vec![], vec![]);
    let mut requests = 0;
    for _ in 0..SETUPS {
        let mut r = ready(args, &pos, &graph, report)?;
        setups.push(r.setup_s);
        slots.push(r.joined.last.slot.to_string());
        let served = serve_phase(&mut r, args.seconds / SETUPS as f64, false, report);
        rss.push(host::peak_rss_mb(r.server.pid()).ok_or("no VmHWM for colord")?);
        let clean = r.server.shutdown(&mut r.joined.clients[0]);
        report.check(clean.is_ok(), || clean.unwrap_err());
        p50.push(median(&served.heartbeat_ms));
        p90.push(percentile(&served.heartbeat_ms, 0.9));
        requests += served.requests;
    }
    report.host("colord_setup_slots", format!("[{}]", slots.join(",")));
    report.host("requests", requests.to_string());
    report.metric("setup_s", median(&setups));
    report.metric("latency_p50_ms", median(&p50));
    report.metric("latency_p90_ms", median(&p90));
    report.metric("peak_rss_mb", median(&rss));
    Ok(())
}

/// Mean nanoseconds to encode and decode one heartbeat request and its
/// `State` response, over the workload's own tokens and colors.
fn codec_ns(tokens: &[u64], colors: &[Option<u32>], rounds: usize) -> Result<f64, String> {
    let t = Instant::now();
    let mut n = 0u64;
    for _ in 0..rounds {
        for (&token, &color) in tokens.iter().zip(colors) {
            let req = Request::Heartbeat { token };
            let back =
                Request::from_payload(&black_box(req.to_payload())).map_err(|e| e.to_string())?;
            let rsp = Response::State {
                slot: token,
                color,
                leader: color == Some(0),
            };
            let back_rsp =
                Response::from_payload(&black_box(rsp.to_payload())).map_err(|e| e.to_string())?;
            black_box((back, back_rsp));
            n += 1;
        }
    }
    Ok(t.elapsed().as_nanos() as f64 / n.max(1) as f64)
}

/// Seconds per sweep that a traced phase spends on tracing. Its sweeps
/// differ from untraced ones only by one `Hist::record` per heartbeat
/// (spans are written after the phase), so this times exactly that
/// work: the phase's own samples recorded into a fresh histogram. A
/// difference of two phases' sweep times would be noise, not this cost.
fn tracing_s_per_sweep(served: &Served) -> f64 {
    let samples: Vec<u64> = served
        .heartbeat_ms
        .iter()
        .map(|ms| (ms * 1e6) as u64)
        .collect();
    let mut hist = Hist::default();
    let t = Instant::now();
    for &ns in &samples {
        hist.record(black_box(ns));
    }
    black_box(&hist);
    t.elapsed().as_secs_f64() / served.sweeps.len().max(1) as f64
}

/// `--trace 1`: one set-up (its joins and settles split into layers), a
/// traced serving phase on it, then the in-process replay of the same
/// arrivals, heartbeats and snapshots, and the codec.
fn serve_traced(
    args: &Args,
    pos: &[Point2],
    graph: &Graph,
    report: &mut Report,
) -> Result<(), String> {
    let mut tr = Tracer::new();
    let root = tr.open("colord-serve", None);
    let setup = tr.open("colord.setup", Some(root));
    let mut r = ready(args, pos, graph, report)?;
    tr.close(setup);
    for &(sent, acked, settled) in &r.joined.times {
        let arrival = tr.record("colord.arrival", Some(setup), sent, settled);
        tr.record("colord.join", Some(arrival), sent, acked);
    }
    let phase = tr.open("colord.serve_phase", Some(root));
    let traced = serve_phase(&mut r, args.seconds / 3.0, true, report);
    tr.close(phase);
    // Sweep spans are recorded after the phase, from instants it takes
    // anyway; per-request times are aggregated in `traced.hist`.
    for (s, e, _) in &traced.sweeps {
        tr.record("colord.sweep", Some(phase), *s, *e);
    }
    let threads = host::threads(r.server.pid()).ok_or("no thread count for colord")?;
    let rss_mb = host::peak_rss_mb(r.server.pid()).ok_or("no VmHWM for colord")?;
    let clean = r.server.shutdown(&mut r.joined.clients[0]);
    report.check(clean.is_ok(), || clean.unwrap_err());

    let rp = tr.open("colord.service.replay", Some(root));
    let replay = replay(pos, report)?;
    let snap = replay.svc.snapshot();
    // The TCP set-up and its replay step the same slots: the settled
    // snapshot falls inside the replay's last batch, with the same κ̂₂
    // history.
    let last = r.joined.last;
    report.check(
        last.slot + BATCH > snap.slot
            && last.slot <= snap.slot
            && last.reprovisions == snap.stats.reprovisions
            && last.kappa2_est == snap.kappa2_est as u64,
        || {
            format!(
                "TCP set-up and replay differ: slot {} vs {}, reprovisions {} vs {}, κ̂₂ {} vs {}",
                last.slot,
                snap.slot,
                last.reprovisions,
                snap.stats.reprovisions,
                last.kappa2_est,
                snap.kappa2_est
            )
        },
    );
    let t = Instant::now();
    let mut calls = 0u64;
    while t.elapsed() < Duration::from_secs_f64((args.seconds / 10.0).min(2.0)) {
        for &token in &replay.tokens {
            black_box(replay.svc.heartbeat(token).map_err(|e| e.to_string())?);
        }
        calls += replay.tokens.len() as u64;
    }
    let heartbeat_us = t.elapsed().as_secs_f64() * 1e6 / calls as f64;
    let t = Instant::now();
    let snapshots = 200;
    for _ in 0..snapshots {
        black_box(replay.svc.snapshot().to_json());
    }
    let snapshot_us = t.elapsed().as_secs_f64() * 1e6 / f64::from(snapshots);
    tr.close(rp);
    let codec = codec_ns(&r.joined.tokens, &r.colors, 100)?;
    tr.close(root);

    let join_ms = r.joined.join_ms();
    let settle_s = r.joined.settle_s();
    let (svc_p50, svc_p99) = (median(&replay.join_us), percentile(&replay.join_us, 0.99));
    let (tcp_p50, tcp_p99) = (median(&join_ms), percentile(&join_ms, 0.99));
    report.metric("colord.service.join_us.p50", svc_p50);
    report.metric("colord.service.join_us.p99", svc_p99);
    report.metric("colord.join_wait_ms.p50", tcp_p50 - svc_p50 * 1e-3);
    report.metric("colord.join_wait_ms.p99", tcp_p99 - svc_p99 * 1e-3);
    report.metric("colord.service.step_us_per_slot", replay.step_us_per_slot);
    report.metric("colord.service.settle_slots", snap.slot as f64);
    report.metric(
        "colord.service.reprovisions",
        snap.stats.reprovisions as f64,
    );
    report.metric("colord.service.resets", snap.stats.resets as f64);
    report.metric("colord.service.kappa2_est", snap.kappa2_est as f64);
    report.metric("colord.service.frame_len", f64::from(snap.frame_len));
    report.metric("colord.server.settle_slots", last.slot as f64);
    report.metric("colord.server.slots_per_s", last.slot as f64 / settle_s);
    report.metric("colord.server.settle_s", settle_s);
    report.metric("colord.service.heartbeat_us", heartbeat_us);
    report.metric("colord.service.snapshot_us", snapshot_us);
    report.metric("colord.wire.codec_ns", codec);
    report.metric(
        "colord.server.cpu_us_per_req",
        traced.cpu_ticks as f64 / host::USER_HZ * 1e6 / traced.requests.max(1) as f64,
    );
    report.metric("colord.server.threads", threads as f64);
    report.metric("colord.server.peak_rss_mb", rss_mb);
    report.metric("colord.server.join_p50_ms", tcp_p50);
    report.metric("colord.server.join_p99_ms", tcp_p99);
    report.metric("colord.server.sweep_s", median(&traced.sweep_secs()));
    report.metric("colord.server.req_per_s", median(&traced.sweep_rates()));
    report.metric("trace.overhead_s", tracing_s_per_sweep(&traced));
    report.detail("heartbeat_hist", traced.hist.to_json());
    report.detail("spans", tr.to_json());
    Ok(())
}
