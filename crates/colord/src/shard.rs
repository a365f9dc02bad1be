//! The per-shard slot engine: one strip of the membership, stepped in
//! lockstep with its peers.
//!
//! A [`Shard`] is a [`SlotKernel`] — the simulator's implementation of
//! the paper's intra-slot rule — over the [`ColoringNode`] FSMs of the
//! nodes whose join position falls in its strip (see
//! [`crate::router`]), plus its boundary mailboxes: the shape of a
//! `run_sharded` shard. Shards advance together through a three-phase
//! slot loop ([`worker_loop`]) separated by a [`SpinBarrier`]:
//!
//! 1. **detect** — scan for watchdog-stalled sessions (read-only);
//!    the barrier leader then issues their fresh protocol tokens in
//!    ascending node order.
//! 2. **transmit** — restart the stalled sessions, run the kernel's
//!    wake-up, deadline and transmit phases, and scatter: local
//!    listeners into the kernel's accumulator, boundary frames into
//!    the mailbox, one lock per destination shard.
//! 3. **deliver** — merge the inbound mailboxes into the accumulator,
//!    then the kernel's delivery phase under the ideal channel. The
//!    kernel's `on_decided` hook records decisions; the barrier leader
//!    commits them to the TDMA schedule in ascending node order and
//!    advances the shared slot clock.
//!
//! Every draw comes from the node's private stream and the channel rule
//! only *counts* transmitting neighbors, so the split into shards
//! computes the same deliveries as one kernel over everything; the
//! order-sensitive steps (token issue, TDMA commit) run in a leader
//! closure, sorted by node id. That is the whole bit-identity argument:
//! a k-shard run is the single-shard run with the slot re-bracketed.

use crate::router::Router;
use crate::service::TdmaState;
use radio_graph::NodeId;
use radio_sim::{bernoulli, Ideal, InvariantMonitor, NodeStats, SlotKernel};
use radio_transport::rng::node_rng;
use radio_transport::{Slot, SpinBarrier};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use urn_coloring::{AlgorithmParams, ColoringMsg, ColoringNode, ProtoId};

/// Cross-shard service state. Every field is an atomic and every
/// access goes through an approved accessor — lint rule R7 pins that
/// discipline on this file. All counters are `Relaxed`: the barrier
/// provides the cross-phase ordering (see [`SpinBarrier::wait`]), and
/// outside the slot loop the router lock serializes writers.
pub(crate) struct Shared {
    /// The service slot clock; advanced once per slot by the commit
    /// barrier leader.
    pub(crate) slot: AtomicU64,
    /// Next session/protocol token. Tokens are unique forever; a
    /// watchdog reset or reprovision consumes one just like a join.
    pub(crate) next_token: AtomicU64,
    /// Heartbeats answered (stats only).
    pub(crate) heartbeats: AtomicU64,
}

impl Shared {
    pub(crate) fn new() -> Self {
        Shared {
            slot: AtomicU64::new(0),
            next_token: AtomicU64::new(1),
            heartbeats: AtomicU64::new(0),
        }
    }
}

/// One boundary frame in flight between shards: the listener it is
/// addressed to, its sender and the protocol message it carries.
pub(crate) type Frame = (NodeId, NodeId, ColoringMsg);

/// Read-only context shared by every worker for the duration of one
/// `step` batch. Holding it implies the router's read lock is held, so
/// membership, adjacency and shard placement are frozen.
pub(crate) struct StepCtx<'a> {
    pub(crate) router: &'a Router,
    pub(crate) shared: &'a Shared,
    /// `mailbox[src][dst]`: boundary frames staged by shard `src` for
    /// listeners owned by shard `dst`.
    pub(crate) mailbox: &'a [Vec<Mutex<Vec<Frame>>>],
    /// Parameters for FSMs re-admitted this batch (watchdog resets).
    pub(crate) params: AlgorithmParams,
    pub(crate) seed: u64,
    pub(crate) stall_slots: u64,
}

/// The monitor a shard's kernel runs: it records each decision, with
/// the color and leader flag the TDMA commit needs.
#[derive(Default)]
pub(crate) struct Decisions(Vec<(NodeId, u32, bool)>);

impl InvariantMonitor<ColoringNode> for Decisions {
    fn on_decided(&mut self, node: NodeId, _slot: Slot, proto: &ColoringNode) {
        let color = proto.color().expect("a decided node has a color");
        self.0.push((node, color, proto.is_leader()));
    }
}

/// One strip of the service: a kernel over its FSMs plus the boundary
/// exchange.
pub(crate) struct Shard {
    /// The strip's members; [`Router::local`] maps a node to its index.
    pub(crate) kernel: SlotKernel<ColoringNode>,
    /// Traffic counters of the members that left.
    retired: NodeStats,
    /// Watchdog restarts.
    pub(crate) resets: u64,
    /// Boundary frames staged per destination shard, flushed into the
    /// mailbox with one lock per destination.
    outgoing: Vec<Vec<Frame>>,
    /// Watchdog-stalled node ids detected this slot.
    stalled: Vec<NodeId>,
    /// Watchdog resets to apply in the transmit phase: (node, fresh
    /// protocol token), token issued by the barrier leader.
    to_reset: Vec<(NodeId, u64)>,
    /// Decisions staged for the commit leader.
    decisions: Decisions,
}

impl Shard {
    pub(crate) fn new(shards: usize) -> Shard {
        Shard {
            kernel: SlotKernel::empty(),
            retired: NodeStats::default(),
            resets: 0,
            outgoing: vec![Vec::new(); shards],
            stalled: Vec::new(),
            to_reset: Vec::new(),
            decisions: Decisions::default(),
        }
    }

    /// Evicts member `l`, keeping its traffic counters; returns its
    /// stats.
    pub(crate) fn evict(&mut self, l: u32) -> NodeStats {
        let s = self.kernel.evict(l);
        add_traffic(&mut self.retired, &s);
        s
    }

    /// Transmissions, receptions and collisions of every node this
    /// shard ever stepped.
    pub(crate) fn traffic(&self) -> NodeStats {
        let mut total = self.retired;
        for s in self.kernel.stats() {
            add_traffic(&mut total, s);
        }
        total
    }

    /// Phase 1: the stall watchdog scan (read-only). Stalled ids are
    /// staged; their fresh tokens are issued by the barrier leader
    /// ([`assign_reset_tokens`]) so the issue order is shard-count
    /// independent.
    pub(crate) fn phase_detect(&mut self, now: Slot, ctx: &StepCtx<'_>) {
        if ctx.stall_slots == 0 {
            return;
        }
        let k = &self.kernel;
        for (l, id) in k.live() {
            let s = &k.stats()[l as usize];
            if s.decided_at.is_none() && now >= s.wake && now - s.wake > ctx.stall_slots {
                self.stalled.push(id);
            }
        }
    }

    /// Phase 2: watchdog restarts, then the kernel's wake-ups,
    /// deadlines, transmission draws and contention scatter.
    pub(crate) fn phase_transmit(&mut self, at: usize, now: Slot, ctx: &StepCtx<'_>) {
        let Shard {
            kernel,
            resets,
            outgoing,
            to_reset,
            decisions,
            ..
        } = self;
        let router = ctx.router;

        // Stall watchdog: under churn the paper's FSM can wait on a
        // neighbor that no longer exists (a requester's leader that
        // left — state `R` sets no deadline), so an undecided node that
        // outlives the bound is restarted as a brand-new protocol node.
        // Same session token; fresh protocol ID and RNG stream, so to
        // its neighbors it is simply a late joiner.
        for (id, fresh) in to_reset.drain(..) {
            let proto = ColoringNode::new(fresh as ProtoId, ctx.params);
            let rng = node_rng(ctx.seed, fresh as u32);
            kernel.restart(router.local(id), proto, rng, now + 1);
            *resets += 1;
        }

        // A protocol error stops the kernel; `Service::step` reports it.
        if kernel.wake_phase(now, decisions)
            && kernel.deadline_phase(now, decisions)
            && kernel.transmit_phase(now, |_, t, rng| bernoulli(t, rng), decisions)
        {
            kernel.scatter(
                |v| router.neighbors(v),
                |u| router.local_in(at, u),
                |u, g, msg| outgoing[router.shard_of(u) as usize].push((u, g, *msg)),
            );
        }
        for (dst, staged) in outgoing.iter_mut().enumerate() {
            if !staged.is_empty() {
                ctx.mailbox[at][dst]
                    .lock()
                    .expect("mailbox lock")
                    .append(staged);
            }
        }
    }

    /// Phase 3: drain the inbound mailboxes, then the kernel's delivery
    /// under the ideal channel rule and the end-of-slot compaction.
    pub(crate) fn phase_deliver(&mut self, at: usize, now: Slot, ctx: &StepCtx<'_>) {
        let Shard {
            kernel, decisions, ..
        } = self;
        let router = ctx.router;
        for row in ctx.mailbox {
            let mut inbound = row[at].lock().expect("mailbox lock");
            for (u, g, msg) in inbound.drain(..) {
                kernel.inbound(router.local(u), g, msg);
            }
        }
        kernel.deliver_phase(now, &mut Ideal, |w| router.local_in(at, w), decisions);
        kernel.compact();
    }
}

/// Barrier-leader step between detect and transmit: gathers every
/// shard's stalled ids, sorts them globally, and issues fresh protocol
/// tokens in ascending node order — the exact sequence the monolithic
/// ascending scan produced, which keeps the k-shard token stream
/// bit-identical to k = 1.
pub(crate) fn assign_reset_tokens(shards: &[Mutex<Shard>], ctx: &StepCtx<'_>) {
    let mut all: Vec<(NodeId, usize)> = Vec::new();
    for (at, cell) in shards.iter().enumerate() {
        let mut shard = cell.lock().expect("shard lock");
        all.extend(shard.stalled.drain(..).map(|id| (id, at)));
    }
    if all.is_empty() {
        return;
    }
    all.sort_unstable();
    for (id, at) in all {
        let fresh = ctx.shared.next_token.fetch_add(1, Ordering::Relaxed);
        shards[at]
            .lock()
            .expect("shard lock")
            .to_reset
            .push((id, fresh));
    }
}

/// Barrier-leader step closing a slot: applies every shard's recorded
/// decisions to the TDMA schedule in ascending node order (so the
/// conflict and frame accounting is shard-count independent), then
/// advances the shared slot clock.
pub(crate) fn commit_slot(shards: &[Mutex<Shard>], tdma: &Mutex<TdmaState>, ctx: &StepCtx<'_>) {
    let mut all: Vec<(NodeId, u32, bool)> = Vec::new();
    for cell in shards {
        let mut shard = cell.lock().expect("shard lock");
        all.append(&mut shard.decisions.0);
    }
    if !all.is_empty() {
        all.sort_unstable_by_key(|&(id, _, _)| id);
        let mut schedule = tdma.lock().expect("tdma lock");
        for (id, color, leader) in all {
            schedule.decide(id, color, leader, ctx.router.neighbors(id));
        }
    }
    ctx.shared.slot.fetch_add(1, Ordering::Relaxed);
}

/// One worker's slot loop: exactly three barrier waits per slot
/// (detect → token issue, transmit → mailbox flush, deliver → TDMA
/// commit); lint rule R7 pins the count. `k = 1` runs the same loop on
/// a one-party barrier, so single- and multi-shard executions share
/// every line of slot logic.
pub(crate) fn worker_loop(
    at: usize,
    shards: &[Mutex<Shard>],
    tdma: &Mutex<TdmaState>,
    ctx: &StepCtx<'_>,
    barrier: &SpinBarrier,
    slots: u64,
) {
    for _ in 0..slots {
        let now = ctx.shared.slot.load(Ordering::Relaxed);
        shards[at]
            .lock()
            .expect("shard lock")
            .phase_detect(now, ctx);
        barrier.wait(|| assign_reset_tokens(shards, ctx));
        shards[at]
            .lock()
            .expect("shard lock")
            .phase_transmit(at, now, ctx);
        barrier.wait(|| {});
        shards[at]
            .lock()
            .expect("shard lock")
            .phase_deliver(at, now, ctx);
        barrier.wait(|| commit_slot(shards, tdma, ctx));
    }
}

/// Adds `s`'s transmissions, receptions and collisions to `total`.
fn add_traffic(total: &mut NodeStats, s: &NodeStats) {
    total.sent += s.sent;
    total.received += s.received;
    total.collisions += s.collisions;
}
