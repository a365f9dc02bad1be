//! Slot-throughput microbenchmark: measures the delivery hot path of
//! the simulation engines on dense UDG workloads and emits
//! `BENCH_sim.json` so future changes have a perf trajectory to compare
//! against.
//!
//! Two code paths are timed on identical transmitter schedules:
//!
//! * `reference` — the pre-kernel listener-side re-scan
//!   (`delivery::ReferenceSweep`), `O(Σ_t deg(t) · Δ)` per slot;
//! * `kernel` — the scatter-accumulate `delivery::DeliveryKernel`,
//!   `O(Σ_t deg(t))` per slot.
//!
//! Both paths must produce the same delivery checksum (verified every
//! run), and the end-to-end lock-step engine is timed as well. The
//! channel-model layer is timed on top of the kernel path in two
//! flavors — the `Ideal` model (must keep the kernel's ≥2× margin over
//! the reference at Δ* = 128: the trait layer is not allowed to eat
//! the kernel win) and a lossy model (`ProbabilisticLoss`, one hash
//! draw per delivery). A fourth leg re-runs the kernel+Ideal path with
//! an attached [`EngineOrderMonitor`] firing on every transmit and
//! delivery — the invariant-monitor layer must keep that path ≥1.8×
//! the reference at Δ* = 128, so monitoring stays cheap enough to
//! leave on in CI. A fifth, end-to-end leg times the slot-parallel
//! sharded driver on the lock-step beacon workload (one shard per
//! worker thread): on hosts with ≥ 4 threads it must reach ≥ 2× the
//! dense kernel micro-loop at n = 1024, Δ* = 128; on smaller hosts the
//! ratio is recorded in `BENCH_sim.json` (next to a `threads` field)
//! but not asserted, since the driver falls back to sequential there.
//!
//! ```text
//! slot_throughput [OUT.json]        # default: BENCH_sim.json
//! ```

use radio_graph::generators::{build_udg, udg_side_for_target_degree, uniform_square};
use radio_graph::{Graph, NodeId};
use radio_sim::delivery::{DeliveryKernel, ReferenceSweep};
use radio_sim::rng::node_rng;
use radio_sim::{
    Behavior, ChannelModel, ChannelSpec, EngineKind, EngineOrderMonitor, InvariantMonitor,
    RadioProtocol, Reception, SimConfig, Slot,
};
use rand::rngs::SmallRng;
use rand::Rng;
use std::fmt::Write as _;
use std::time::Instant;

/// Per-slot transmission probability used for the delivery micro loop —
/// dense enough that most listeners are touched every slot.
const TX_P: f64 = 0.1;
/// Micro-loop slot count per workload and path.
const MICRO_SLOTS: usize = 300;
/// End-to-end lock-step slot budget per workload.
const E2E_SLOTS: Slot = 1_500;

/// A never-deciding beacon: sustained per-slot load for the end-to-end
/// engine measurement.
struct Beacon {
    p: f64,
}

impl RadioProtocol for Beacon {
    type Message = u32;

    fn on_wake(&mut self, _now: Slot, _rng: &mut SmallRng) -> Behavior {
        Behavior::Transmit {
            p: self.p,
            until: None,
        }
    }

    fn on_deadline(&mut self, _now: Slot, _rng: &mut SmallRng) -> Behavior {
        unreachable!("Beacon sets no deadline")
    }

    fn message(&mut self, _now: Slot, _rng: &mut SmallRng) -> u32 {
        0
    }

    fn on_receive(&mut self, _now: Slot, _msg: &u32, _rng: &mut SmallRng) -> Option<Behavior> {
        None
    }

    fn is_decided(&self) -> bool {
        false
    }
}

/// Pre-drawn transmitter sets, identical for both timed paths.
fn draw_schedule(n: usize, slots: usize, seed: u64) -> Vec<Vec<NodeId>> {
    let mut rng = node_rng(seed, 0xBE7C);
    (0..slots)
        .map(|_| (0..n as NodeId).filter(|_| rng.gen_bool(TX_P)).collect())
        .collect()
}

/// Folds one delivery outcome into a checksum (order-sensitive, so the
/// two paths must also agree on touched-listener order).
#[inline]
fn fold(acc: u64, listener: NodeId, sender: Option<NodeId>) -> u64 {
    let s = sender.map_or(u64::MAX, u64::from);
    acc.wrapping_mul(0x100_0000_01B3)
        .wrapping_add(u64::from(listener) ^ s)
}

fn time_reference(graph: &Graph, schedule: &[Vec<NodeId>]) -> (f64, u64) {
    let mut sweep = ReferenceSweep::new(graph.len());
    let mut out: Vec<(NodeId, Option<NodeId>)> = Vec::new();
    let mut checksum = 0u64;
    let start = Instant::now();
    for transmitters in schedule {
        sweep.begin_slot();
        for &t in transmitters {
            sweep.transmit(t);
        }
        out.clear();
        sweep.sweep(graph, &mut out);
        for &(u, s) in &out {
            checksum = fold(checksum, u, s);
        }
    }
    (start.elapsed().as_secs_f64(), checksum)
}

fn time_kernel(graph: &Graph, schedule: &[Vec<NodeId>]) -> (f64, u64) {
    let mut kernel = DeliveryKernel::new(graph.len());
    let mut checksum = 0u64;
    let start = Instant::now();
    for transmitters in schedule {
        kernel.begin_slot();
        for &t in transmitters {
            kernel.transmit(graph, t);
        }
        for &u in kernel.touched() {
            checksum = fold(checksum, u, kernel.unique_sender(u));
        }
    }
    (start.elapsed().as_secs_f64(), checksum)
}

/// Times the kernel path with a channel model deciding every touched
/// listener — the delivery loop the engines actually run since the
/// channel-model layer landed.
fn time_kernel_channel(graph: &Graph, schedule: &[Vec<NodeId>], spec: ChannelSpec) -> (f64, u64) {
    let mut kernel = DeliveryKernel::new(graph.len());
    let mut channel = spec.build(graph.len(), 42);
    let mut checksum = 0u64;
    let start = Instant::now();
    for (slot, transmitters) in schedule.iter().enumerate() {
        kernel.begin_slot();
        for &t in transmitters {
            kernel.transmit(graph, t);
        }
        for &u in kernel.touched() {
            let sender = match channel.decide(&kernel.contention(u, u, slot as Slot)) {
                Reception::Deliver(w) => Some(w),
                Reception::Collide | Reception::Drop | Reception::Jam => None,
            };
            checksum = fold(checksum, u, sender);
        }
    }
    (start.elapsed().as_secs_f64(), checksum)
}

/// Times the kernel + Ideal-channel path with an [`EngineOrderMonitor`]
/// hooked onto every transmit and delivery — the monitored delivery
/// loop the engines run when `SimOutcome::violations` is requested.
/// The monitor must stay clean (the micro loop honors the engine
/// contract) and must not change the checksum.
fn time_kernel_monitored(graph: &Graph, schedule: &[Vec<NodeId>]) -> (f64, u64) {
    let n = graph.len();
    let mut kernel = DeliveryKernel::new(n);
    let mut channel = ChannelSpec::Ideal.build(n, 42);
    let mut monitor = EngineOrderMonitor::new();
    let probe = Beacon { p: 0.0 };
    // Wake every node up front (untimed) so the order monitor's
    // first-hook-is-wake contract holds for the micro loop.
    for v in 0..n as NodeId {
        monitor.after_wake(v, 0, &probe);
    }
    let mut tx_slot: Vec<Slot> = vec![Slot::MAX; n];
    let mut checksum = 0u64;
    let start = Instant::now();
    for (slot, transmitters) in schedule.iter().enumerate() {
        let now = slot as Slot;
        kernel.begin_slot();
        for &t in transmitters {
            kernel.transmit(graph, t);
            monitor.on_transmit(t, now, &0u32, &probe);
            tx_slot[t as usize] = now;
        }
        for &u in kernel.touched() {
            let sender = match channel.decide(&kernel.contention(u, u, now)) {
                Reception::Deliver(w) => Some(w),
                Reception::Collide | Reception::Drop | Reception::Jam => None,
            };
            // Half-duplex: a transmitter never hears this slot's traffic.
            if sender.is_some() && tx_slot[u as usize] != now {
                monitor.after_receive(u, now, &0u32, &probe);
            }
            checksum = fold(checksum, u, sender);
        }
    }
    let secs = start.elapsed().as_secs_f64();
    assert!(
        monitor.is_clean(),
        "micro loop violated the engine contract: {:?}",
        InvariantMonitor::<Beacon>::take_violations(&mut monitor)
    );
    (secs, checksum)
}

fn time_lockstep(graph: &Graph, delta: usize) -> f64 {
    let n = graph.len();
    let protos: Vec<Beacon> = (0..n)
        .map(|_| Beacon {
            p: (1.0 / delta as f64).max(1e-3),
        })
        .collect();
    let cfg = SimConfig::with_max_slots(E2E_SLOTS);
    let start = Instant::now();
    let out = EngineKind::Lockstep.run(graph, &vec![0; n], protos, 7, &cfg);
    let secs = start.elapsed().as_secs_f64();
    (out.slots_run + 1) as f64 / secs
}

/// End-to-end sharded-driver leg on the same beacon workload as
/// [`time_lockstep`]: `shards = 0` lets the driver pick one shard per
/// available worker thread (on a single-core host that degenerates to
/// the sequential fallback, which is exactly what users get there).
fn time_sharded(graph: &Graph, delta: usize, shards: u32) -> f64 {
    let n = graph.len();
    let protos: Vec<Beacon> = (0..n)
        .map(|_| Beacon {
            p: (1.0 / delta as f64).max(1e-3),
        })
        .collect();
    let cfg = SimConfig::with_max_slots(E2E_SLOTS).with_shards(shards);
    let start = Instant::now();
    let out = EngineKind::Sharded.run(graph, &vec![0; n], protos, 7, &cfg);
    let secs = start.elapsed().as_secs_f64();
    (out.slots_run + 1) as f64 / secs
}

struct Row {
    n: usize,
    target_delta: usize,
    measured_delta: usize,
    reference_sps: f64,
    kernel_sps: f64,
    speedup: f64,
    kernel_ideal_sps: f64,
    ideal_speedup: f64,
    kernel_lossy_sps: f64,
    monitored_sps: f64,
    monitor_speedup: f64,
    lockstep_sps: f64,
    sharded_sps: f64,
    sharded_vs_kernel: f64,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_sim.json".to_string());

    let threads = radio_sim::parallel::default_threads();
    let mut rows: Vec<Row> = Vec::new();
    for &n in &[256usize, 1024] {
        for &target_delta in &[16usize, 64, 128] {
            let mut rng = node_rng(0xC0FFEE ^ n as u64, target_delta as u32);
            let side = udg_side_for_target_degree(n, target_delta as f64);
            let points = uniform_square(n, side, &mut rng);
            let graph = build_udg(&points, 1.0);
            let measured_delta = graph.max_closed_degree();

            let schedule = draw_schedule(n, MICRO_SLOTS, 42);
            // Untimed warm-up pass for each path.
            let _ = time_kernel(&graph, &schedule[..10.min(schedule.len())]);
            let _ = time_reference(&graph, &schedule[..10.min(schedule.len())]);
            let (ref_secs, ref_sum) = time_reference(&graph, &schedule);
            let (ker_secs, ker_sum) = time_kernel(&graph, &schedule);
            assert_eq!(
                ref_sum, ker_sum,
                "kernel and reference disagree on n={n} Δ*={target_delta}"
            );
            let (ideal_secs, ideal_sum) =
                time_kernel_channel(&graph, &schedule, ChannelSpec::Ideal);
            assert_eq!(
                ker_sum, ideal_sum,
                "Ideal channel path diverged from the bare kernel on n={n} Δ*={target_delta}"
            );
            let (lossy_secs, _) =
                time_kernel_channel(&graph, &schedule, ChannelSpec::ProbabilisticLoss { p: 0.1 });
            let (mon_secs, mon_sum) = time_kernel_monitored(&graph, &schedule);
            assert_eq!(
                ker_sum, mon_sum,
                "monitored path diverged from the bare kernel on n={n} Δ*={target_delta}"
            );

            let reference_sps = MICRO_SLOTS as f64 / ref_secs;
            let kernel_sps = MICRO_SLOTS as f64 / ker_secs;
            let kernel_ideal_sps = MICRO_SLOTS as f64 / ideal_secs;
            let monitored_sps = MICRO_SLOTS as f64 / mon_secs;
            let sharded_sps = time_sharded(&graph, measured_delta, 0);
            let row = Row {
                n,
                target_delta,
                measured_delta,
                reference_sps,
                kernel_sps,
                speedup: kernel_sps / reference_sps,
                kernel_ideal_sps,
                ideal_speedup: kernel_ideal_sps / reference_sps,
                kernel_lossy_sps: MICRO_SLOTS as f64 / lossy_secs,
                monitored_sps,
                monitor_speedup: monitored_sps / reference_sps,
                lockstep_sps: time_lockstep(&graph, measured_delta),
                sharded_sps,
                sharded_vs_kernel: sharded_sps / kernel_sps,
            };
            println!(
                "n={:5} Δ*={:3} (measured {:3}): reference {:>12.0} slots/s, kernel {:>12.0} slots/s ({:4.1}x), +ideal channel {:>12.0} slots/s ({:4.1}x), +lossy {:>12.0} slots/s, +monitor {:>12.0} slots/s ({:4.1}x), lockstep e2e {:>10.0} slots/s, sharded e2e {:>10.0} slots/s ({:4.1}x kernel)",
                row.n,
                row.target_delta,
                row.measured_delta,
                row.reference_sps,
                row.kernel_sps,
                row.speedup,
                row.kernel_ideal_sps,
                row.ideal_speedup,
                row.kernel_lossy_sps,
                row.monitored_sps,
                row.monitor_speedup,
                row.lockstep_sps,
                row.sharded_sps,
                row.sharded_vs_kernel,
            );
            rows.push(row);
        }
    }

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"slot_throughput\",\n");
    let _ = writeln!(json, "  \"tx_probability\": {TX_P},");
    let _ = writeln!(json, "  \"micro_slots\": {MICRO_SLOTS},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"n\": {}, \"target_delta\": {}, \"measured_delta\": {}, \"reference_slots_per_sec\": {:.1}, \"kernel_slots_per_sec\": {:.1}, \"speedup\": {:.2}, \"kernel_ideal_channel_slots_per_sec\": {:.1}, \"ideal_channel_speedup\": {:.2}, \"kernel_lossy_channel_slots_per_sec\": {:.1}, \"kernel_monitored_slots_per_sec\": {:.1}, \"monitor_speedup\": {:.2}, \"lockstep_slots_per_sec\": {:.1}, \"sharded_slots_per_sec\": {:.1}, \"sharded_vs_kernel\": {:.2}}}",
            r.n,
            r.target_delta,
            r.measured_delta,
            r.reference_sps,
            r.kernel_sps,
            r.speedup,
            r.kernel_ideal_sps,
            r.ideal_speedup,
            r.kernel_lossy_sps,
            r.monitored_sps,
            r.monitor_speedup,
            r.lockstep_sps,
            r.sharded_sps,
            r.sharded_vs_kernel,
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("wrote {out_path}");

    // The refactor's reason to exist: the dense workloads must beat the
    // pre-change kernel by a wide margin — and the channel-model trait
    // layer must not eat that margin on the Ideal path.
    for r in rows.iter().filter(|r| r.target_delta == 128) {
        assert!(
            r.speedup >= 2.0,
            "kernel speedup {:.2}x < 2x on n={} Δ*=128",
            r.speedup,
            r.n
        );
        assert!(
            r.ideal_speedup >= 2.0,
            "kernel+Ideal channel speedup {:.2}x < 2x on n={} Δ*=128",
            r.ideal_speedup,
            r.n
        );
        assert!(
            r.monitor_speedup >= 1.8,
            "monitored kernel+Ideal speedup {:.2}x < 1.8x on n={} Δ*=128 — monitoring got too expensive",
            r.monitor_speedup,
            r.n
        );
        // The sharded-driver gate only bites where parallelism exists:
        // with < 4 worker threads the leg degenerates to the sequential
        // fallback and the ratio merely gets recorded, not asserted.
        if threads >= 4 && r.n == 1024 {
            assert!(
                r.sharded_vs_kernel >= 2.0,
                "sharded e2e {:.2}x < 2x kernel on n=1024 Δ*=128 with {threads} threads",
                r.sharded_vs_kernel,
            );
        }
    }
}
