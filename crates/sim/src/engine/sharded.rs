//! The spatially-sharded slot-parallel driver: shards of the node set
//! run concurrently within each slot, with a deterministic boundary
//! exchange merging cross-shard transmissions — bit-identical to the
//! sequential [`SimDriver`] running the [`Lockstep`] strategy.
//!
//! # Execution model
//!
//! The node set is split by a [`Partition`] (spatial for UDG workloads,
//! contiguous otherwise). Each shard is a [`SlotKernel`] over its
//! members — the same per-node state and slot phases the sequential
//! driver runs — plus a full-size channel clone, per-destination
//! staging buffers and a hook tape. One thread per shard steps the
//! slot loop in lock-step, synchronized by a [`SpinBarrier`]. Per slot:
//!
//! ```text
//!   phase A   wake-ups + deadlines (shard-local; no cross-node reads)
//!   phase B   transmission draws; local scatter into the shard's
//!             accumulator, boundary scatter into per-(src,dst) mailboxes
//!   --------- barrier: all transmissions visible ----------
//!   phase C   mailbox merge (ascending source shard) + delivery sweep:
//!             channel decides each touched local listener
//!   --------- barrier: evaluate global termination ----------
//! ```
//!
//! # Why this is bit-identical to the sequential driver
//!
//! A shard runs the sequential driver's own kernel code, so only the
//! split needs arguing (DESIGN.md, "Sharded driver"): every draw comes
//! from the node's private `node_rng` stream, whichever thread makes
//! it; per-listener counts are sums of local and merged boundary adds,
//! and the channel models only tell `1` from `≥ 2`; every shard builds
//! the same channel from the run seed and decides each listener only on
//! its home shard (the order-dependent
//! [`AdversarialJam`](crate::channel::ChannelSpec::AdversarialJam) is
//! not [`is_shardable`](crate::channel::ChannelSpec::is_shardable) and
//! falls back to the sequential driver); and fault and violation logs
//! are sorted into the same canonical `(slot, node)` order.
//!
//! # Monitor replay
//!
//! [`InvariantMonitor`]s are not required to be [`Send`], and the
//! monitor contract only guarantees hook-order independence *within* a
//! slot. The sharded driver therefore never calls the monitor from a
//! worker: each shard's kernel drives a recording `Tape`, and the
//! main thread replays the tapes (sorted by node id, phases in
//! sequential order) between barrier pairs while the workers are
//! parked. Unmonitored runs ([`InvariantMonitor::is_null`]) skip the
//! replay windows entirely and run two barriers per slot instead of
//! six.
//!
//! # Protocol errors
//!
//! Each kernel stops at its first error, exactly like the sequential
//! driver. The other shards finish the slot's phases, then every
//! thread stops; when several shards error in the same slot the
//! smallest `(slot, node)` error is reported, where the sequential
//! driver reports the first one in its visit order. The stats of such
//! runs can differ between the two drivers (`all_decided` is `false`
//! and [`SimOutcome::error`] is `Some` either way).

use super::driver::SimDriver;
use super::kernel::{bernoulli, SlotKernel};
use super::lockstep::Lockstep;
use super::{collect_violations, ExecutedEngine, NodeStats, SimConfig, SimOutcome, MAX_FAULT_LOG};
use crate::channel::BuiltinChannel;
use crate::monitor::InvariantMonitor;
use crate::protocol::{RadioProtocol, Slot};
use crate::trace::Event;
use parking_lot::Mutex;
use radio_graph::{Graph, NodeId, Partition};
use radio_transport::SpinBarrier;
use std::sync::atomic::{AtomicBool, Ordering};

/// One boundary delivery: `(listener, sender, message)`, all ids global.
type Delivery<P> = (NodeId, NodeId, <P as RadioProtocol>::Message);

/// Cross-shard coordination state (`Relaxed`: the barrier provides the
/// ordering, see [`SpinBarrier::wait`]).
struct Shared {
    /// Set by the termination evaluation; all threads leave the slot
    /// loop at the end of the slot in which it is raised.
    stop: AtomicBool,
}

/// Read-only per-run context shared by all shard threads.
struct Ctx<'a, P: RadioProtocol> {
    graph: &'a Graph,
    wake: &'a [Slot],
    /// Global node id → owning shard.
    shard_of: &'a [u32],
    /// Global node id → index within its shard's kernel.
    local_of: &'a [u32],
    shared: &'a Shared,
    /// `mailbox[src][dst]`: boundary deliveries scattered by shard
    /// `src` in phase B, drained by shard `dst` in phase C. Each cell
    /// has exactly one writer and one reader per slot, on opposite
    /// sides of a barrier.
    mailbox: &'a [Vec<Mutex<Vec<Delivery<P>>>>],
}

impl<P: RadioProtocol> Ctx<'_, P> {
    /// Shard `id`'s member map: `v`'s local index iff `id` owns it.
    fn local(&self, id: usize, v: NodeId) -> Option<u32> {
        (self.shard_of[v as usize] as usize == id).then(|| self.local_of[v as usize])
    }
}

/// One recorded monitor hook.
enum Hook<M> {
    Wake,
    Deadline,
    Transmit(M),
    Receive(M),
}

/// The recording monitor a shard's kernel drives: one row per hook
/// (`kind, global id, decided-now`), replayed by the main thread. Off
/// (records nothing) for unmonitored runs.
struct Tape<P: RadioProtocol> {
    on: bool,
    rows: Vec<(Hook<P::Message>, NodeId, bool)>,
}

impl<P: RadioProtocol> Tape<P> {
    fn push(&mut self, node: NodeId, hook: impl FnOnce() -> Hook<P::Message>) {
        if self.on {
            self.rows.push((hook(), node, false));
        }
    }
}

impl<P: RadioProtocol> InvariantMonitor<P> for Tape<P> {
    fn after_wake(&mut self, node: NodeId, _slot: Slot, _proto: &P) {
        self.push(node, || Hook::Wake);
    }

    fn after_deadline(&mut self, node: NodeId, _slot: Slot, _proto: &P) {
        self.push(node, || Hook::Deadline);
    }

    fn on_transmit(&mut self, node: NodeId, _slot: Slot, msg: &P::Message, _proto: &P) {
        self.push(node, || Hook::Transmit(msg.clone()));
    }

    fn after_receive(&mut self, node: NodeId, _slot: Slot, msg: &P::Message, _proto: &P) {
        self.push(node, || Hook::Receive(msg.clone()));
    }

    /// The kernel fires this right after the hook that caused it, for
    /// the same node: flag that row.
    fn on_decided(&mut self, node: NodeId, _slot: Slot, _proto: &P) {
        if let Some(row) = self.rows.last_mut() {
            debug_assert_eq!(row.1, node, "on_decided follows its own hook");
            row.2 = true;
        }
    }
}

/// One shard: a kernel over its members plus the boundary exchange.
struct ShardState<P: RadioProtocol> {
    /// This shard's index.
    id: usize,
    kernel: SlotKernel<P>,
    /// Full-size channel clone; only local listeners are ever decided.
    channel: BuiltinChannel,
    /// Per-destination-shard staging buffers, flushed once per slot.
    outgoing: Vec<Vec<Delivery<P>>>,
    tape: Tape<P>,
}

impl<P: RadioProtocol> ShardState<P> {
    /// Phase A: the kernel's wake-ups and deadline firings. Errors
    /// stay on the kernel, where the termination evaluation sees them.
    fn phase_wakes_deadlines(&mut self, slot: Slot) {
        let _ = self.kernel.wake_phase(slot, &mut self.tape)
            && self.kernel.deadline_phase(slot, &mut self.tape);
    }

    /// Phase B: Bernoulli transmission draws; local transmissions
    /// scatter into the kernel's accumulator, boundary transmissions
    /// into the staging buffers, flushed to the mailboxes at the end.
    fn phase_tx(&mut self, slot: Slot, ctx: &Ctx<'_, P>) {
        if !self
            .kernel
            .transmit_phase(slot, |_, t, rng| bernoulli(t, rng), &mut self.tape)
        {
            return;
        }
        let (id, outgoing) = (self.id, &mut self.outgoing);
        self.kernel.scatter(
            |v| ctx.graph.neighbors(v),
            |u| ctx.local(id, u),
            |u, g, msg| {
                // Sleeping remote listeners receive nothing and record
                // no collisions; skipping them sheds boundary traffic
                // without changing any outcome.
                if ctx.wake[u as usize] <= slot {
                    outgoing[ctx.shard_of[u as usize] as usize].push((u, g, msg.clone()));
                }
            },
        );
        for (dst, q) in self.outgoing.iter_mut().enumerate() {
            if !q.is_empty() {
                ctx.mailbox[self.id][dst].lock().append(q);
            }
        }
    }

    /// Phase C: merge boundary deliveries (ascending source shard),
    /// then the kernel's delivery sweep over the local listeners.
    fn phase_deliver(&mut self, slot: Slot, ctx: &Ctx<'_, P>) {
        for row in ctx.mailbox {
            let mut q = row[self.id].lock();
            for (u, t, msg) in q.drain(..) {
                self.kernel.inbound(ctx.local_of[u as usize], t, msg);
            }
        }
        let id = self.id;
        let local = |w| ctx.local(id, w);
        self.kernel
            .deliver_phase(slot, &mut self.channel, local, &mut self.tape);
    }
}

/// Global termination evaluation, run once per slot strictly between
/// the delivery barrier and the slot-end release, while every shard is
/// parked: stop once a kernel hit a protocol error, or once every
/// kernel's members all woke and decided.
fn evaluate<P: RadioProtocol>(shared: &Shared, cells: &[Mutex<ShardState<P>>]) {
    let done = cells.iter().all(|c| c.lock().kernel.undecided() == 0);
    if done || cells.iter().any(|c| c.lock().kernel.error().is_some()) {
        shared.stop.store(true, Ordering::Relaxed);
    }
}

/// Worker slot loop for shards `1..k` (the main thread runs shard 0
/// inline so the non-`Send` monitor never leaves it). The barrier
/// schedule must mirror the main thread's exactly: six waits per
/// monitored slot (two per phase, bracketing the main thread's replay
/// windows), two per unmonitored slot.
fn worker_loop<P: RadioProtocol>(
    i: usize,
    max_slots: Slot,
    ctx: &Ctx<'_, P>,
    cells: &[Mutex<ShardState<P>>],
    barrier: &SpinBarrier,
    monitored: bool,
) {
    let mut slot: Slot = 0;
    while slot <= max_slots {
        {
            let mut s = cells[i].lock();
            s.phase_wakes_deadlines(slot);
            if !monitored {
                s.phase_tx(slot, ctx);
            }
        }
        if monitored {
            barrier.wait(|| {});
            barrier.wait(|| {}); // main: replay wakes + deadlines
            cells[i].lock().phase_tx(slot, ctx);
            barrier.wait(|| {});
            barrier.wait(|| {}); // main: replay transmissions
            cells[i].lock().phase_deliver(slot, ctx);
            barrier.wait(|| {});
            barrier.wait(|| {}); // main: replay receptions, evaluate
        } else {
            barrier.wait(|| {});
            cells[i].lock().phase_deliver(slot, ctx);
            barrier.wait(|| evaluate(ctx.shared, cells));
        }
        if ctx.shared.stop.load(Ordering::Relaxed) {
            break;
        }
        cells[i].lock().kernel.compact();
        slot += 1;
    }
}

/// Replays the hooks every shard recorded since the last window, in the
/// sequential driver's order: hook class first (wake-ups before
/// deadlines), then ascending node id — exactly the sequential
/// wake-order tie-break. Runs on the main thread while the workers are
/// parked between two barriers, so the locks never contend.
fn replay<P: RadioProtocol, M: InvariantMonitor<P>>(
    monitor: &mut M,
    slot: Slot,
    cells: &[Mutex<ShardState<P>>],
    ctx: &Ctx<'_, P>,
) {
    let mut guards: Vec<_> = cells.iter().map(|c| c.lock()).collect();
    let mut rows = Vec::new();
    for s in guards.iter_mut() {
        rows.append(&mut s.tape.rows);
    }
    let rank = |h: &Hook<P::Message>| match h {
        Hook::Wake => 0,
        Hook::Deadline => 1,
        Hook::Transmit(_) => 2,
        Hook::Receive(_) => 3,
    };
    rows.sort_by_key(|(h, g, _)| (rank(h), *g));
    for (hook, g, newly) in &rows {
        let shard = &guards[ctx.shard_of[*g as usize] as usize];
        let p = &shard.kernel.protocols[ctx.local_of[*g as usize] as usize];
        match hook {
            Hook::Wake => monitor.after_wake(*g, slot, p),
            Hook::Deadline => monitor.after_deadline(*g, slot, p),
            Hook::Transmit(msg) => monitor.on_transmit(*g, slot, msg, p),
            Hook::Receive(msg) => monitor.after_receive(*g, slot, msg, p),
        }
        if *newly {
            monitor.on_decided(*g, slot, p);
        }
    }
}

/// Runs `protocols` on `graph` with the shards of `partition` stepped
/// in parallel — bit-identical to
/// `SimDriver::run::<Lockstep>` for error-free runs (see the module
/// docs for the argument, `tests/driver_identity.rs` for the pin).
///
/// Falls back to the sequential driver when the partition has a single
/// shard or the channel model is not shardable
/// ([`crate::channel::ChannelSpec::is_shardable`]).
///
/// # Panics
/// Panics if `wake.len()`, `protocols.len()` or `partition.len()`
/// differ from `graph.len()`.
pub fn run_sharded<P, M>(
    graph: &Graph,
    wake: &[Slot],
    protocols: Vec<P>,
    seed: u64,
    cfg: &SimConfig,
    monitor: &mut M,
    partition: &Partition,
) -> SimOutcome<P>
where
    P: RadioProtocol + Send,
    P::Message: Send,
    M: InvariantMonitor<P>,
{
    let n = graph.len();
    assert_eq!(wake.len(), n, "wake schedule length mismatch");
    assert_eq!(protocols.len(), n, "protocol vector length mismatch");
    assert_eq!(partition.len(), n, "partition length mismatch");
    let k = partition.shards();
    if k <= 1 || !cfg.channel.is_shardable() {
        // Not a silent degradation: scaling sweeps must be able to tell
        // that this run was sequential (the outcome's `executed` field
        // says so too; this line leaves a trace in the run log).
        let why = if k <= 1 {
            "partition has a single shard"
        } else {
            "channel model is not shardable"
        };
        eprintln!("radio-sim: sharded driver falling back to sequential ({why}; n={n}, k={k})");
        return SimDriver::run::<Lockstep>(graph, wake, protocols, (), seed, cfg, monitor);
    }

    // Global id → local index within the owning shard.
    let mut local_of = vec![0u32; n];
    for members in &partition.members {
        for (l, &g) in members.iter().enumerate() {
            local_of[g as usize] = l as u32;
        }
    }

    // Distribute the protocols to their shards without cloning.
    let monitored = !monitor.is_null();
    let mut pool: Vec<Option<P>> = protocols.into_iter().map(Some).collect();
    let cells: Vec<Mutex<ShardState<P>>> = partition
        .members
        .iter()
        .enumerate()
        .map(|(id, members)| {
            let protos = members.iter().filter_map(|&g| pool[g as usize].take());
            Mutex::new(ShardState {
                id,
                kernel: SlotKernel::new(members.clone(), protos.collect(), wake, seed),
                channel: cfg.channel.build(n, seed),
                outgoing: (0..k).map(|_| Vec::new()).collect(),
                tape: Tape {
                    on: monitored,
                    rows: Vec::new(),
                },
            })
        })
        .collect();

    let shared = Shared {
        stop: AtomicBool::new(false),
    };
    let mailbox: Vec<Vec<Mutex<Vec<Delivery<P>>>>> = (0..k)
        .map(|_| (0..k).map(|_| Mutex::new(Vec::new())).collect())
        .collect();
    let ctx = Ctx {
        graph,
        wake,
        shard_of: &partition.shard_of,
        local_of: &local_of,
        shared: &shared,
        mailbox: &mailbox,
    };
    let barrier = SpinBarrier::new(k);

    let mut slots_run: Slot = 0;
    std::thread::scope(|scope| {
        for i in 1..k {
            let (ctx, cells, barrier) = (&ctx, &cells, &barrier);
            scope.spawn(move || worker_loop(i, cfg.max_slots, ctx, cells, barrier, monitored));
        }
        // Main thread: shard 0, plus every monitor call (replay windows
        // while the workers are parked between paired barriers).
        let mut slot: Slot = 0;
        while slot <= cfg.max_slots {
            slots_run = slot;
            {
                let mut s = cells[0].lock();
                s.phase_wakes_deadlines(slot);
                if !monitored {
                    s.phase_tx(slot, &ctx);
                }
            }
            if monitored {
                barrier.wait(|| {});
                replay(monitor, slot, &cells, &ctx);
                barrier.wait(|| {});
                cells[0].lock().phase_tx(slot, &ctx);
                barrier.wait(|| {});
                replay(monitor, slot, &cells, &ctx);
                barrier.wait(|| {});
                cells[0].lock().phase_deliver(slot, &ctx);
                barrier.wait(|| {});
                replay(monitor, slot, &cells, &ctx);
                evaluate(&shared, &cells);
                barrier.wait(|| {});
            } else {
                barrier.wait(|| {});
                cells[0].lock().phase_deliver(slot, &ctx);
                barrier.wait(|| evaluate(&shared, &cells));
            }
            if shared.stop.load(Ordering::Relaxed) {
                break;
            }
            cells[0].lock().kernel.compact();
            slot += 1;
        }
    });

    // Merge the shards back into global node order and run the shared
    // epilogue (canonical fault sort, violation collection).
    let mut faults: Vec<Event> = Vec::new();
    let mut faults_dropped: u64 = 0;
    let mut errors = Vec::new();
    let mut undecided = 0;
    let mut rows: Vec<(NodeId, P, NodeStats)> = Vec::with_capacity(n);
    for cell in cells {
        let kernel = cell.into_inner().kernel;
        undecided += kernel.undecided();
        let SlotKernel {
            members,
            protocols,
            stats,
            faults: f,
            faults_dropped: d,
            error,
            ..
        } = kernel;
        faults_dropped += d;
        faults.extend(f);
        errors.extend(error);
        rows.extend(
            members
                .into_iter()
                .zip(protocols)
                .zip(stats)
                .map(|((g, p), st)| (g, p, st)),
        );
    }
    rows.sort_by_key(|r| r.0);
    faults.sort_by_key(|e| (e.slot(), e.node()));
    if faults.len() > MAX_FAULT_LOG {
        faults_dropped += (faults.len() - MAX_FAULT_LOG) as u64;
        faults.truncate(MAX_FAULT_LOG);
    }
    let violations = collect_violations::<P, M>(monitor, &mut faults, &mut faults_dropped);
    let error = errors.into_iter().min_by_key(|e| (e.slot, e.node));
    let (protocols, stats): (Vec<P>, Vec<NodeStats>) =
        rows.into_iter().map(|(_, p, st)| (p, st)).unzip();
    SimOutcome {
        protocols,
        stats,
        all_decided: undecided == 0 && error.is_none(),
        slots_run,
        error,
        faults,
        faults_dropped,
        violations,
        executed: ExecutedEngine::Sharded { shards: k as u32 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::ChannelSpec;
    use crate::monitor::{EngineOrderMonitor, NullMonitor};
    use crate::protocol::Behavior;
    use radio_graph::generators::gnp;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Exercises every phase: random-length transmit/silent segments
    /// switched by deadlines, receive-driven behavior changes, decision
    /// after enough traffic. All randomness flows through the per-node
    /// stream, so any drift between drivers desynchronizes everything.
    struct Hopper {
        id: u32,
        need: u64,
        got: u64,
        phases: u64,
    }

    impl Hopper {
        fn new(id: u32, need: u64) -> Self {
            Hopper {
                id,
                need,
                got: 0,
                phases: 0,
            }
        }
    }

    impl RadioProtocol for Hopper {
        type Message = u32;

        fn on_wake(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
            Behavior::Transmit {
                p: rng.gen_range(0.05..0.6),
                until: Some(now + rng.gen_range(1..6)),
            }
        }

        fn on_deadline(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
            self.phases += 1;
            if self.phases.is_multiple_of(2) {
                Behavior::Transmit {
                    p: rng.gen_range(0.05..0.6),
                    until: Some(now + rng.gen_range(1..6)),
                }
            } else {
                Behavior::Silent {
                    until: Some(now + rng.gen_range(1..4)),
                }
            }
        }

        fn message(&mut self, _now: Slot, rng: &mut SmallRng) -> u32 {
            self.id ^ (rng.gen_range(0..16) << 8)
        }

        fn on_receive(&mut self, now: Slot, _msg: &u32, rng: &mut SmallRng) -> Option<Behavior> {
            self.got += 1;
            if self.got >= self.need {
                Some(Behavior::Silent { until: None })
            } else if rng.gen_bool(0.3) {
                Some(Behavior::Transmit {
                    p: rng.gen_range(0.05..0.6),
                    until: Some(now + rng.gen_range(1..6)),
                })
            } else {
                None
            }
        }

        fn is_decided(&self) -> bool {
            self.got >= self.need
        }
    }

    fn workload(n: usize, seed: u64) -> (Graph, Vec<Slot>, Vec<Hopper>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = gnp(n, 0.3, &mut rng);
        let wake: Vec<Slot> = (0..n).map(|_| rng.gen_range(0..12)).collect();
        let protos: Vec<Hopper> = (0..n as u32).map(|v| Hopper::new(v, 2)).collect();
        (g, wake, protos)
    }

    fn fresh(protos: &[Hopper]) -> Vec<Hopper> {
        protos.iter().map(|h| Hopper::new(h.id, h.need)).collect()
    }

    fn assert_identical(a: &SimOutcome<Hopper>, b: &SimOutcome<Hopper>, what: &str) {
        assert_eq!(a.stats, b.stats, "{what}: stats");
        assert_eq!(a.all_decided, b.all_decided, "{what}: all_decided");
        assert_eq!(a.slots_run, b.slots_run, "{what}: slots_run");
        assert_eq!(a.error, b.error, "{what}: error");
        assert_eq!(a.faults, b.faults, "{what}: faults");
        assert_eq!(a.faults_dropped, b.faults_dropped, "{what}: faults_dropped");
        assert_eq!(a.violations, b.violations, "{what}: violations");
    }

    #[test]
    fn matches_sequential_across_shards_and_channels() {
        let channels = [
            ChannelSpec::Ideal,
            ChannelSpec::ProbabilisticLoss { p: 0.25 },
            ChannelSpec::GilbertElliott {
                p_bad: 0.05,
                p_good: 0.15,
                loss_good: 0.02,
                loss_bad: 0.9,
            },
        ];
        for n in [1usize, 2, 5, 17, 48] {
            let (g, wake, protos) = workload(n, 0x5AADED ^ n as u64);
            for (ci, channel) in channels.iter().enumerate() {
                let cfg = SimConfig::with_max_slots(3_000).with_channel(*channel);
                let seq = SimDriver::run::<Lockstep>(
                    &g,
                    &wake,
                    fresh(&protos),
                    (),
                    7 + ci as u64,
                    &cfg,
                    &mut NullMonitor,
                );
                for k in [2usize, 3, 8] {
                    let part = Partition::contiguous(n, k);
                    let shd = run_sharded(
                        &g,
                        &wake,
                        fresh(&protos),
                        7 + ci as u64,
                        &cfg,
                        &mut NullMonitor,
                        &part,
                    );
                    assert_identical(&seq, &shd, &format!("n={n} ch={ci} k={k}"));
                    let expect = if part.shards() <= 1 {
                        ExecutedEngine::Sequential
                    } else {
                        ExecutedEngine::Sharded {
                            shards: part.shards() as u32,
                        }
                    };
                    assert_eq!(shd.executed, expect, "n={n} ch={ci} k={k}: executed");
                    assert_eq!(seq.executed, ExecutedEngine::Sequential);
                }
            }
        }
    }

    #[test]
    fn matches_sequential_monitored() {
        for n in [5usize, 23] {
            let (g, wake, protos) = workload(n, 0xC0FFEE ^ n as u64);
            let cfg = SimConfig::with_max_slots(3_000)
                .with_channel(ChannelSpec::ProbabilisticLoss { p: 0.2 });
            let mut seq_mon = EngineOrderMonitor::new();
            let seq =
                SimDriver::run::<Lockstep>(&g, &wake, fresh(&protos), (), 11, &cfg, &mut seq_mon);
            for k in [2usize, 4] {
                let part = Partition::contiguous(n, k);
                let mut mon = EngineOrderMonitor::new();
                let shd = run_sharded(&g, &wake, fresh(&protos), 11, &cfg, &mut mon, &part);
                assert_identical(&seq, &shd, &format!("monitored n={n} k={k}"));
            }
        }
    }

    #[test]
    fn unshardable_channel_falls_back_to_sequential() {
        let (g, wake, protos) = workload(9, 0xBAD);
        let cfg = SimConfig::with_max_slots(500).with_channel(ChannelSpec::AdversarialJam {
            window: 16,
            budget: 2,
        });
        let seq =
            SimDriver::run::<Lockstep>(&g, &wake, fresh(&protos), (), 3, &cfg, &mut NullMonitor);
        let shd = run_sharded(
            &g,
            &wake,
            fresh(&protos),
            3,
            &cfg,
            &mut NullMonitor,
            &Partition::contiguous(9, 4),
        );
        assert_identical(&seq, &shd, "adversarial fallback");
        // The fallback must be visible to callers, not silent.
        assert_eq!(shd.executed, ExecutedEngine::Sequential);
        assert!(!shd.executed.is_parallel());
    }

    #[test]
    fn single_shard_and_empty_graph_take_the_sequential_path() {
        let (g, wake, protos) = workload(6, 0x0411);
        let cfg = SimConfig::with_max_slots(500);
        let seq =
            SimDriver::run::<Lockstep>(&g, &wake, fresh(&protos), (), 5, &cfg, &mut NullMonitor);
        let shd = run_sharded(
            &g,
            &wake,
            fresh(&protos),
            5,
            &cfg,
            &mut NullMonitor,
            &Partition::contiguous(6, 1),
        );
        assert_identical(&seq, &shd, "k=1");
        assert_eq!(shd.executed, ExecutedEngine::Sequential);

        let empty = Graph::empty(0);
        let out = run_sharded::<Hopper, _>(
            &empty,
            &[],
            vec![],
            1,
            &cfg,
            &mut NullMonitor,
            &Partition::contiguous(0, 4),
        );
        assert!(out.all_decided);
        assert_eq!(out.slots_run, 0);
    }

    /// Node 3 returns an out-of-range probability on wake: the run must
    /// stop gracefully with the error surfaced, never panic or hang.
    struct BadApple {
        id: u32,
    }

    impl RadioProtocol for BadApple {
        type Message = ();

        fn on_wake(&mut self, _now: Slot, _rng: &mut SmallRng) -> Behavior {
            Behavior::Transmit {
                p: if self.id == 3 { 2.0 } else { 0.5 },
                until: None,
            }
        }

        fn on_deadline(&mut self, _now: Slot, _rng: &mut SmallRng) -> Behavior {
            Behavior::Silent { until: None }
        }

        fn message(&mut self, _now: Slot, _rng: &mut SmallRng) {}

        fn on_receive(&mut self, _now: Slot, _msg: &(), _rng: &mut SmallRng) -> Option<Behavior> {
            None
        }

        fn is_decided(&self) -> bool {
            false
        }
    }

    #[test]
    fn protocol_error_stops_the_parallel_run() {
        let mut rng = SmallRng::seed_from_u64(9);
        let g = gnp(12, 0.4, &mut rng);
        let wake = vec![0; 12];
        let protos: Vec<BadApple> = (0..12).map(|id| BadApple { id }).collect();
        let out = run_sharded(
            &g,
            &wake,
            protos,
            2,
            &SimConfig::with_max_slots(100),
            &mut NullMonitor,
            &Partition::contiguous(12, 4),
        );
        assert!(!out.all_decided);
        let err = out.error.expect("error must surface");
        assert_eq!(err.node, 3);
        assert_eq!(err.slot, 0);
    }
}
