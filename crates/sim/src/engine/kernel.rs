//! The lock-step slot kernel: the one implementation of the paper's
//! intra-slot rule (Sect. 2) — wake-ups, then deadlines, then
//! independent transmit draws, then delivery iff exactly one neighbor
//! transmits.
//!
//! A [`SlotKernel`] owns the per-node state of a member set, indexed by
//! local index. Its per-node hooks (`wake_node`, `fire_deadline`,
//! `compose`, `receive`) are the only call sites of the
//! [`RadioProtocol`] callbacks; its four phases take the slot's
//! nondeterminism as input — the transmit draw as a closure, the
//! reception rule as a [`ChannelModel`] — plus the monitor.
//!
//! Every aligned-slot path runs on it: the sequential
//! [`SimDriver`](super::driver::SimDriver) holds one kernel over all
//! nodes (the lock-step engine runs its phases; the event engine hands
//! the slot's wake-ups, deadlines and transmitters to its hooks and then
//! runs its scatter and delivery phase; the half-slot jittered engine
//! calls the per-node hooks from its own loop), each shard of
//! [`run_sharded`](super::sharded::run_sharded) is a kernel plus the
//! boundary exchange, the model checker's `SlotStepper` is a kernel
//! driven by choice bitmasks, and each `colord` shard is a kernel whose
//! members change between slots. The first protocol error is recorded
//! at its `(node, slot)` and every later hook or phase returns `false`
//! / `None`, so each caller stops in the slot it was raised.

use super::{log_fault, NodeStats};
use crate::channel::{ChannelModel, Contention, Reception};
use crate::delivery::DeliveryKernel;
use crate::monitor::InvariantMonitor;
use crate::protocol::{Behavior, ProtocolError, RadioProtocol, Slot};
use crate::rng::node_rng;
use crate::trace::Event;
use radio_graph::bitset::BitSet;
use radio_graph::NodeId;
use rand::rngs::SmallRng;
use rand::RngCore;

/// The integer form of a Bernoulli(`p`) draw, computed once per
/// installed segment: `(p·2⁶⁴) as u64`, the bound `gen_bool(p)`
/// compares 64 random bits against, and `u64::MAX` for `p = 1`, which
/// draws nothing. No `p < 1` maps to `u64::MAX`: the largest,
/// `1 − 2⁻⁵³`, maps to `2⁶⁴ − 2¹¹`.
#[inline]
fn threshold(p: f64) -> u64 {
    if p >= 1.0 {
        u64::MAX
    } else {
        (p * (u64::MAX as f64 + 1.0)) as u64
    }
}

/// One Bernoulli draw against a segment's threshold, `(p·2⁶⁴) as u64`
/// or `u64::MAX` for p = 1: the same bits and the same answer as
/// `rng.gen_bool(p)`, without its per-call range check and float
/// conversion.
#[inline]
pub fn bernoulli(threshold: u64, rng: &mut SmallRng) -> bool {
    threshold == u64::MAX || rng.next_u64() < threshold
}

/// Struct-of-arrays storage for per-node behavior segments: the hot
/// sweeps read "woken?" / "transmitting?" for 64 nodes per [`BitSet`]
/// word instead of pointer-chasing `Option<Behavior>`s. `get`/`set`
/// round-trip [`Behavior`] values exactly.
#[derive(Clone, Debug, Default)]
struct BehaviorTable {
    /// Node has a behavior installed (woke up).
    present: BitSet,
    /// Node's current segment is `Transmit { .. }`.
    transmit: BitSet,
    /// Node's current segment carries a deadline (`until` is `Some`).
    has_deadline: BitSet,
    /// Transmission probability; meaningful iff the transmit bit is set.
    p: Vec<f64>,
    /// `threshold(p)`, the form the transmit draw reads.
    threshold: Vec<u64>,
    /// Segment deadline; meaningful iff the has_deadline bit is set.
    until: Vec<Slot>,
}

impl BehaviorTable {
    /// Room for `n` nodes, the new ones asleep.
    fn grow(&mut self, n: usize) {
        self.present.grow(n);
        self.transmit.grow(n);
        self.has_deadline.grow(n);
        self.p.resize(n, 0.0);
        self.threshold.resize(n, 0);
        self.until.resize(n, 0);
    }

    #[inline]
    fn get(&self, l: u32) -> Option<Behavior> {
        let li = l as usize;
        if !self.present.contains(li) {
            return None;
        }
        let until = self.until(l);
        Some(match self.tx_p(l) {
            Some(p) => Behavior::Transmit { p, until },
            None => Behavior::Silent { until },
        })
    }

    #[inline]
    fn set(&mut self, l: u32, b: Behavior) {
        let li = l as usize;
        self.present.insert(li);
        let until = match b {
            Behavior::Transmit { p, until } => {
                self.transmit.insert(li);
                self.p[li] = p;
                self.threshold[li] = threshold(p);
                until
            }
            Behavior::Silent { until } => {
                self.transmit.remove(li);
                until
            }
        };
        match until {
            Some(u) => {
                self.has_deadline.insert(li);
                self.until[li] = u;
            }
            None => self.has_deadline.remove(li),
        }
    }

    /// The segment deadline, if the node is awake and has one.
    #[inline]
    fn until(&self, l: u32) -> Option<Slot> {
        let li = l as usize;
        (self.present.contains(li) && self.has_deadline.contains(li)).then(|| self.until[li])
    }

    /// Transmission probability iff the node is in a transmit segment.
    #[inline]
    fn tx_p(&self, l: u32) -> Option<f64> {
        let li = l as usize;
        self.transmit.contains(li).then(|| self.p[li])
    }

    /// [`threshold`] of the transmission probability iff the node is in
    /// a transmit segment.
    #[inline]
    fn tx_threshold(&self, l: u32) -> Option<u64> {
        let li = l as usize;
        self.transmit.contains(li).then(|| self.threshold[li])
    }

    /// `true` iff installed as `Silent { until: None }`.
    #[inline]
    fn silent_forever(&self, l: u32) -> bool {
        let li = l as usize;
        self.present.contains(li) && !self.transmit.contains(li) && !self.has_deadline.contains(li)
    }
}

/// Per-node state and the lock-step slot rule over one member set (see
/// the module docs). Cloning a kernel snapshots the whole run state,
/// which is how the model checker branches.
#[derive(Clone)]
pub struct SlotKernel<P: RadioProtocol> {
    /// Global id of each member ([`VACANT`] once evicted).
    pub(crate) members: Vec<NodeId>,
    /// Protocol state per member.
    pub(crate) protocols: Vec<P>,
    /// Private per-node streams (`node_rng(seed, global id)` from
    /// [`new`](Self::new)), so the draws do not depend on the kernel.
    pub(crate) rngs: Vec<SmallRng>,
    behaviors: BehaviorTable,
    /// Per-member counters; `wake` doubles as the wake schedule.
    pub(crate) stats: Vec<NodeStats>,
    decided: BitSet,
    undecided: usize,
    /// Local indices stable-sorted by wake slot; the members not woken
    /// yet start at `next_wake`.
    wake_order: Vec<u32>,
    next_wake: usize,
    /// Free local indices, reused by [`admit`](Self::admit).
    vacant: Vec<u32>,
    /// Awake members needing per-slot attention; retired and asleep
    /// members are compacted out until a reception or wake-up.
    active: Vec<u32>,
    in_active: Vec<bool>,
    /// Set when a member may have left the active set since the last
    /// compaction: it installed `Silent { until: None }`, decided
    /// (retiring needs both), or was evicted or restarted.
    /// [`compact`](Self::compact) does nothing while it is clear.
    retiring: bool,
    /// A lower bound on every live deadline: each install lowers it,
    /// each deadline sweep recomputes it.
    /// [`deadline_phase`](Self::deadline_phase) skips slots below it.
    next_due: Slot,
    acc: DeliveryKernel,
    /// This slot's transmitters, in draw order.
    txs: Vec<u32>,
    /// This slot's receivers that installed a new segment, in delivery
    /// order.
    renewed: Vec<u32>,
    /// Message a member parked on the air (valid for the current slot
    /// iff it transmitted; never cleared).
    pub(crate) air: Vec<Option<P::Message>>,
    /// Message of the slot's first remote contributor per listener,
    /// sized on first use (only shards receive remote transmissions).
    pending: Vec<Option<P::Message>>,
    /// Channel faults, bounded by [`super::MAX_FAULT_LOG`].
    pub(crate) faults: Vec<Event>,
    pub(crate) faults_dropped: u64,
    /// The first protocol error; once set, every phase is a no-op.
    pub(crate) error: Option<ProtocolError>,
}

/// The member id of a slot freed by [`SlotKernel::evict`].
const VACANT: NodeId = NodeId::MAX;

impl<P: RadioProtocol> SlotKernel<P> {
    /// A kernel over `members` (global ids) running `protocols` (one
    /// per member), with `wake` the global wake schedule and `seed` the
    /// run seed.
    ///
    /// # Panics
    /// If `protocols.len() != members.len()`.
    pub fn new(members: Vec<NodeId>, protocols: Vec<P>, wake: &[Slot], seed: u64) -> Self {
        let m = members.len();
        assert_eq!(protocols.len(), m, "protocol vector length mismatch");
        let mut k = Self::with_room(m);
        k.protocols = protocols;
        for &g in &members {
            k.push(g, node_rng(seed, g), wake[g as usize]);
        }
        let (order, stats) = (&mut k.wake_order, &k.stats);
        order.extend(0..m as u32);
        order.sort_by_key(|&l| stats[l as usize].wake);
        k
    }

    /// A kernel over every node of the graph `wake` schedules (local
    /// index = node id).
    pub fn whole(protocols: Vec<P>, wake: &[Slot], seed: u64) -> Self {
        Self::new((0..wake.len() as NodeId).collect(), protocols, wake, seed)
    }

    /// A kernel with no members yet, for [`admit`](Self::admit).
    pub fn empty() -> Self {
        Self::with_room(0)
    }

    /// No members yet, and room for `m` without reallocating.
    fn with_room(m: usize) -> Self {
        SlotKernel {
            members: Vec::with_capacity(m),
            protocols: Vec::new(),
            rngs: Vec::with_capacity(m),
            behaviors: BehaviorTable::default(),
            stats: Vec::with_capacity(m),
            decided: BitSet::default(),
            undecided: 0,
            wake_order: Vec::new(),
            next_wake: 0,
            vacant: Vec::new(),
            active: Vec::with_capacity(m),
            in_active: Vec::with_capacity(m),
            retiring: false,
            next_due: Slot::MAX,
            acc: DeliveryKernel::default(),
            txs: Vec::new(),
            renewed: Vec::new(),
            air: Vec::with_capacity(m),
            pending: Vec::new(),
            faults: Vec::new(),
            faults_dropped: 0,
            error: None,
        }
    }

    /// Appends an undecided, unqueued member whose protocol is in place.
    fn push(&mut self, id: NodeId, rng: SmallRng, wake: Slot) -> u32 {
        self.members.push(id);
        self.rngs.push(rng);
        self.stats.push(NodeStats {
            wake,
            ..NodeStats::default()
        });
        self.in_active.push(false);
        self.air.push(None);
        if !self.pending.is_empty() {
            self.pending.push(None);
        }
        let m = self.members.len();
        self.behaviors.grow(m);
        self.decided.grow(m);
        self.acc.grow(m);
        self.undecided += 1;
        (m - 1) as u32
    }

    // ---- membership changes, between slots; rare, so out of line -----

    /// Admits member `id` running `protocol` on the private stream
    /// `rng`, asleep until `wake` (not before the next slot). Returns
    /// its local index: a slot vacated by [`evict`](Self::evict) if
    /// there is one, else a new one.
    #[inline(never)]
    pub fn admit(&mut self, id: NodeId, protocol: P, rng: SmallRng, wake: Slot) -> u32 {
        let Some(l) = self.vacant.pop() else {
            self.protocols.push(protocol);
            let l = self.push(id, rng, wake);
            self.schedule(l);
            return l;
        };
        self.members[l as usize] = id;
        self.undecided += 1;
        self.restart(l, protocol, rng, wake);
        l
    }

    /// Evicts member `l`: from now on it is never drawn, woken, touched
    /// or counted, and its slot is free for the next
    /// [`admit`](Self::admit). Returns its counters.
    #[inline(never)]
    pub fn evict(&mut self, l: u32) -> NodeStats {
        if !self.disarm(l) {
            self.undecided -= 1;
        }
        let li = l as usize;
        self.members[li] = VACANT;
        self.air[li] = None;
        self.vacant.push(l);
        std::mem::take(&mut self.stats[li])
    }

    /// Restarts member `l` as a fresh node: `protocol` on the stream
    /// `rng`, asleep (neither drawing nor receiving) until `wake` (not
    /// before the next slot). It counts as undecided again; its traffic
    /// counters carry over.
    #[inline(never)]
    pub fn restart(&mut self, l: u32, protocol: P, rng: SmallRng, wake: Slot) {
        if self.disarm(l) {
            self.undecided += 1;
        }
        let li = l as usize;
        self.protocols[li] = protocol;
        self.rngs[li] = rng;
        self.stats[li].wake = wake;
        self.stats[li].decided_at = None;
        self.schedule(l);
    }

    /// Puts member `l` to sleep and out of the wake queue, and clears
    /// its decided flag, returning it. The next compaction drops `l`
    /// from the active set.
    fn disarm(&mut self, l: u32) -> bool {
        let li = l as usize;
        if !self.behaviors.present.contains(li) {
            let queued = &mut self.wake_order;
            if let Some(at) = queued[self.next_wake..].iter().position(|&m| m == l) {
                queued.remove(self.next_wake + at);
            }
        }
        // Asleep and silent: no hook, draw or reception reaches `l`.
        self.behaviors.present.remove(li);
        self.behaviors.transmit.remove(li);
        self.retiring = true;
        let decided = self.decided.contains(li);
        self.decided.remove(li);
        decided
    }

    /// Queues member `l` to wake at `stats[l].wake`, after the queued
    /// members due no later, and drops the queue's woken prefix.
    fn schedule(&mut self, l: u32) {
        self.wake_order.drain(..self.next_wake);
        self.next_wake = 0;
        let stats = &self.stats;
        let wake = stats[l as usize].wake;
        let at = self
            .wake_order
            .partition_point(|&m| stats[m as usize].wake <= wake);
        self.wake_order.insert(at, l);
    }

    // ---- accessors -----------------------------------------------------

    /// Protocol state per member.
    pub fn protocols(&self) -> &[P] {
        &self.protocols
    }

    /// Counters per member; a vacated slot's are zero.
    pub fn stats(&self) -> &[NodeStats] {
        &self.stats
    }

    /// The current members as `(local index, global id)`, by local
    /// index (vacated slots skipped).
    pub fn live(&self) -> impl Iterator<Item = (u32, NodeId)> + '_ {
        (0..)
            .zip(self.members.iter().copied())
            .filter(|&(_, g)| g != VACANT)
    }

    /// Member `l`'s current behavior segment (`None` before wake-up).
    #[inline]
    pub fn behavior(&self, l: u32) -> Option<Behavior> {
        self.behaviors.get(l)
    }

    /// Member `l`'s transmit probability iff it is in a transmit
    /// segment.
    #[inline]
    pub fn tx_p(&self, l: u32) -> Option<f64> {
        self.behaviors.tx_p(l)
    }

    /// One transmit draw for member `l`'s current segment: `true` iff
    /// it is in a transmit segment and the Bernoulli draw succeeds
    /// (the draw [`transmit_phase`](Self::transmit_phase) makes, for
    /// engines that decide transmissions node by node).
    #[inline]
    pub(crate) fn draw_tx(&mut self, l: u32) -> bool {
        match self.behaviors.tx_threshold(l) {
            Some(t) => bernoulli(t, &mut self.rngs[l as usize]),
            None => false,
        }
    }

    /// The members [`deliver_phase`](Self::deliver_phase) handed a new
    /// segment this slot, in delivery order.
    #[inline]
    pub(crate) fn renewed(&self) -> &[u32] {
        &self.renewed
    }

    /// Members that have not decided yet. Zero means every member woke
    /// and decided: a member is only ever noted decided after a hook.
    #[inline]
    pub fn undecided(&self) -> usize {
        self.undecided
    }

    /// The first protocol error, if one stopped the kernel.
    #[inline]
    pub fn error(&self) -> Option<&ProtocolError> {
        self.error.as_ref()
    }

    // ---- per-node hooks ------------------------------------------------

    /// Wakes member `l` at `slot`: `on_wake`, breach poll, validation,
    /// install, `after_wake`, decision. `false` on a protocol error.
    #[inline]
    pub(crate) fn wake_node<M: InvariantMonitor<P>>(
        &mut self,
        l: u32,
        slot: Slot,
        monitor: &mut M,
    ) -> bool {
        let li = l as usize;
        let b = self.protocols[li].on_wake(slot, &mut self.rngs[li]);
        if !self.accept(l, slot, Some(b)) {
            return false;
        }
        monitor.after_wake(self.members[li], slot, &self.protocols[li]);
        self.note_decided(l, slot, monitor);
        true
    }

    /// Fires member `l`'s deadline at `slot`: `on_deadline`, breach
    /// poll, validation, install, `after_deadline`, decision. `false`
    /// on a protocol error.
    #[inline]
    pub(crate) fn fire_deadline<M: InvariantMonitor<P>>(
        &mut self,
        l: u32,
        slot: Slot,
        monitor: &mut M,
    ) -> bool {
        let li = l as usize;
        let b = self.protocols[li].on_deadline(slot, &mut self.rngs[li]);
        if !self.accept(l, slot, Some(b)) {
            return false;
        }
        monitor.after_deadline(self.members[li], slot, &self.protocols[li]);
        self.note_decided(l, slot, monitor);
        true
    }

    /// Builds member `l`'s message for `slot`: `message`, breach poll,
    /// `on_transmit`, `sent` counter. `None` on a contract breach. The
    /// caller owns the message's fate (the phases park it on the air,
    /// the jittered engine wraps it in a packet).
    #[inline]
    pub(crate) fn compose<M: InvariantMonitor<P>>(
        &mut self,
        l: u32,
        slot: Slot,
        monitor: &mut M,
    ) -> Option<P::Message> {
        let li = l as usize;
        let msg = self.protocols[li].message(slot, &mut self.rngs[li]);
        if !self.accept(l, slot, None) {
            return None;
        }
        monitor.on_transmit(self.members[li], slot, &msg, &self.protocols[li]);
        self.stats[li].sent += 1;
        Some(msg)
    }

    /// Delivers `msg` to member `l` at `slot`: `received` counter,
    /// `on_receive`, breach poll, validation and install of any new
    /// segment, `after_receive`, decision. `Some(true)` iff a new
    /// segment was installed; `None` on a protocol error.
    #[inline]
    pub(crate) fn receive<M: InvariantMonitor<P>>(
        &mut self,
        l: u32,
        slot: Slot,
        msg: &P::Message,
        monitor: &mut M,
    ) -> Option<bool> {
        let li = l as usize;
        self.stats[li].received += 1;
        let nb = self.protocols[li].on_receive(slot, msg, &mut self.rngs[li]);
        if !self.accept(l, slot, nb) {
            return None;
        }
        monitor.after_receive(self.members[li], slot, msg, &self.protocols[li]);
        self.note_decided(l, slot, monitor);
        Some(nb.is_some())
    }

    /// Starts the slot's transmissions: a fresh accumulator epoch and an
    /// empty draw list.
    #[inline]
    pub(crate) fn begin_slot(&mut self) {
        self.acc.begin_slot();
        self.txs.clear();
    }

    /// Member `l` transmits at `slot`: composes its message, parks it
    /// on the air, marks it in the accumulator and appends it to the
    /// draw list [`scatter`](Self::scatter) walks. `false` on a protocol
    /// error.
    #[inline]
    pub(crate) fn transmit<M: InvariantMonitor<P>>(
        &mut self,
        l: u32,
        slot: Slot,
        monitor: &mut M,
    ) -> bool {
        let Some(msg) = self.compose(l, slot, monitor) else {
            return false;
        };
        self.air[l as usize] = Some(msg);
        self.acc.mark_transmitter(l);
        self.txs.push(l);
        true
    }

    /// Lets `channel` decide contention `c` at listener `lu`: the
    /// winner on [`Reception::Deliver`]; collisions, drops and jams are
    /// counted (drops and jams also logged) and yield `None`.
    #[inline]
    pub(crate) fn resolve<C: ChannelModel>(
        &mut self,
        lu: u32,
        c: &Contention,
        channel: &mut C,
    ) -> Option<NodeId> {
        let li = lu as usize;
        let fault = match channel.decide(c) {
            Reception::Deliver(w) => return Some(w),
            Reception::Collide => {
                self.stats[li].collisions += 1;
                return None;
            }
            Reception::Drop => {
                self.stats[li].drops += 1;
                Event::Drop {
                    node: c.listener,
                    slot: c.slot,
                }
            }
            Reception::Jam => {
                self.stats[li].jams += 1;
                Event::Jam {
                    node: c.listener,
                    slot: c.slot,
                }
            }
        };
        log_fault(&mut self.faults, &mut self.faults_dropped, fault);
        None
    }

    /// Polls the breach the last callback on `l` recorded, then
    /// validates and installs `b`. On either fault records the first
    /// error and returns `false`.
    #[inline]
    fn accept(&mut self, l: u32, slot: Slot, b: Option<Behavior>) -> bool {
        let li = l as usize;
        let fault = match (self.protocols[li].take_breach(), b) {
            (Some(fault), _) => fault,
            (None, None) => return true,
            (None, Some(b)) => match b.validate_at(slot) {
                Ok(()) => {
                    self.install(l, b);
                    return true;
                }
                Err(fault) => fault,
            },
        };
        let node = self.members[li];
        self.error
            .get_or_insert(ProtocolError { node, slot, fault });
        false
    }

    /// Installs `l`'s validated segment `b` and keeps the sweep bounds:
    /// a deadline lowers `next_due`, and `Silent { until: None }` may
    /// retire `l`. Kept out of line: installs are rare next to the
    /// deliveries whose path runs through [`accept`](Self::accept), which
    /// stays small enough to inline there.
    #[inline(never)]
    fn install(&mut self, l: u32, b: Behavior) {
        match b.until() {
            Some(u) => self.next_due = self.next_due.min(u),
            None => self.retiring |= matches!(b, Behavior::Silent { .. }),
        }
        self.behaviors.set(l, b);
    }

    /// Flips `l`'s decided flag (once) when its protocol reports
    /// decided, recording the slot and firing `on_decided`.
    #[inline]
    fn note_decided<M: InvariantMonitor<P>>(&mut self, l: u32, slot: Slot, monitor: &mut M) {
        let li = l as usize;
        if !self.decided.contains(li) && self.protocols[li].is_decided() {
            self.decided.insert(li);
            self.retiring = true;
            self.stats[li].decided_at = Some(slot);
            self.undecided -= 1;
            monitor.on_decided(self.members[li], slot, &self.protocols[li]);
        }
    }

    #[inline]
    fn activate(&mut self, l: u32) {
        if !self.in_active[l as usize] {
            self.in_active[l as usize] = true;
            self.active.push(l);
        }
    }

    // ---- the four phases -----------------------------------------------

    /// Phase 1: wakes every member due at `slot` (in wake-queue order)
    /// into the active set. Slots must be visited in order from 0.
    /// `false` once the kernel has an error.
    pub fn wake_phase<M: InvariantMonitor<P>>(&mut self, slot: Slot, monitor: &mut M) -> bool {
        if self.error.is_some() {
            return false;
        }
        while let Some(&l) = self.wake_order.get(self.next_wake) {
            if self.stats[l as usize].wake != slot {
                break;
            }
            self.next_wake += 1;
            self.activate(l);
            if !self.wake_node(l, slot, monitor) {
                return false;
            }
        }
        true
    }

    /// Phase 2: fires every active member's deadline due at `slot`, in
    /// active-set order. Slots before the next deadline cost nothing;
    /// a sweep recomputes that bound from the deadlines it passes and
    /// the ones its firings install.
    pub fn deadline_phase<M: InvariantMonitor<P>>(&mut self, slot: Slot, monitor: &mut M) -> bool {
        if self.error.is_some() {
            return false;
        }
        if slot < self.next_due {
            return true;
        }
        self.next_due = Slot::MAX;
        // Hooks never touch the active set; holding it outside `self`
        // keeps the sweep a plain slice walk.
        let active = std::mem::take(&mut self.active);
        let ok = active.iter().all(|&l| match self.behaviors.until(l) {
            Some(u) if u == slot => self.fire_deadline(l, slot, monitor),
            Some(u) => {
                self.next_due = self.next_due.min(u);
                true
            }
            None => true,
        });
        self.active = active;
        ok
    }

    /// Phase 3: `begin_slot`, then every active
    /// member in a transmit segment asks `draw(l, threshold, rng)`
    /// (local index, the segment's integer threshold — `(p·2⁶⁴) as
    /// u64`, or `u64::MAX` for p = 1 — and the member's stream) whether
    /// it transmits: the simulator passes `bernoulli`, one `next_u64`
    /// compare with the bits `gen_bool(p)` reads; the model checker
    /// reads a bitmask. Each transmitter goes through
    /// `transmit`; [`scatter`](Self::scatter) then
    /// reaches the listeners.
    pub fn transmit_phase<M: InvariantMonitor<P>>(
        &mut self,
        slot: Slot,
        mut draw: impl FnMut(u32, u64, &mut SmallRng) -> bool,
        monitor: &mut M,
    ) -> bool {
        if self.error.is_some() {
            return false;
        }
        self.begin_slot();
        let active = std::mem::take(&mut self.active);
        let ok = active.iter().all(|&l| {
            let Some(t) = self.behaviors.tx_threshold(l) else {
                return true;
            };
            !draw(l, t, &mut self.rngs[l as usize]) || self.transmit(l, slot, monitor)
        });
        self.active = active;
        ok
    }

    /// Scatters the slot's transmissions, in draw order, to the
    /// transmitters' `neighbors(global id)`: `local(v)` maps a neighbor
    /// to its local index if it is a member; any other neighbor is
    /// handed to `remote(listener, sender, msg)` (the shards' boundary
    /// mailboxes). A whole-graph kernel passes `Some` and a no-op.
    #[inline]
    pub fn scatter<'g>(
        &mut self,
        neighbors: impl Fn(NodeId) -> &'g [NodeId],
        local: impl Fn(NodeId) -> Option<u32>,
        mut remote: impl FnMut(NodeId, NodeId, &P::Message),
    ) {
        for &t in &self.txs {
            let g = self.members[t as usize];
            for &u in neighbors(g) {
                match local(u) {
                    Some(lu) => {
                        self.acc.add(lu, g);
                    }
                    None => {
                        if let Some(msg) = &self.air[t as usize] {
                            remote(u, g, msg);
                        }
                    }
                }
            }
        }
    }

    /// Merges one remote transmission into listener `lu`'s
    /// accumulator. The first contribution's message is kept: local
    /// contributions are scattered before the merge, so if the slot's
    /// unique winner is remote, this is its message.
    pub fn inbound(&mut self, lu: u32, sender: NodeId, msg: P::Message) {
        if self.acc.add(lu, sender) {
            if self.pending.is_empty() {
                self.pending = std::iter::repeat_with(|| None)
                    .take(self.members.len())
                    .collect();
            }
            self.pending[lu as usize] = Some(msg);
        }
    }

    /// Phase 4: `channel` decides every touched member that is awake
    /// and not transmitting (under the ideal channel: receive iff
    /// exactly one neighbor transmitted); each winner's message is
    /// delivered, and receivers that install a new segment are listed
    /// in `renewed`. `local` is the member map passed
    /// to [`scatter`](Self::scatter).
    pub fn deliver_phase<C: ChannelModel, M: InvariantMonitor<P>>(
        &mut self,
        slot: Slot,
        channel: &mut C,
        local: impl Fn(NodeId) -> Option<u32>,
        monitor: &mut M,
    ) -> bool {
        if self.error.is_some() {
            return false;
        }
        self.renewed.clear();
        for i in 0..self.acc.touched().len() {
            let lu = self.acc.touched()[i];
            let li = lu as usize;
            // Transmitting itself, or still asleep: cannot receive.
            if self.acc.is_transmitter(lu) || !self.behaviors.present.contains(li) {
                continue;
            }
            let c = self.acc.contention(lu, self.members[li], slot);
            let Some(w) = self.resolve(lu, &c, channel) else {
                continue;
            };
            let msg = match local(w) {
                Some(lw) => self.air[lw as usize].clone(),
                None => self.pending.get_mut(li).and_then(Option::take),
            };
            let Some(msg) = msg else {
                debug_assert!(false, "winner {w} has no message at listener {lu}");
                continue;
            };
            match self.receive(lu, slot, &msg, monitor) {
                None => return false,
                // A retired member that picked up a new segment needs
                // per-slot attention again.
                Some(true) => {
                    self.activate(lu);
                    self.renewed.push(lu);
                }
                Some(false) => {}
            }
        }
        true
    }

    /// End-of-slot compaction: drops retired and asleep (evicted or
    /// restarted) members from the active set. They draw no randomness
    /// and never transmit, so removal cannot change any outcome — it
    /// only shrinks the per-slot loops. Runs only after a slot in which
    /// a member may have left.
    pub fn compact(&mut self) {
        if !std::mem::take(&mut self.retiring) {
            return;
        }
        let (behaviors, decided, in_active) = (&self.behaviors, &self.decided, &mut self.in_active);
        self.active.retain(|&l| {
            let li = l as usize;
            let keep = behaviors.present.contains(li)
                && !(decided.contains(li) && behaviors.silent_forever(l));
            in_active[li] = keep;
            keep
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Ideal;
    use crate::monitor::NullMonitor;
    use radio_graph::generators::gnp;
    use radio_graph::Graph;
    use rand::{Rng, SeedableRng};

    const SEED: u64 = 0x4D3B;

    /// A probe's part in a run.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Role {
        /// Random transmit and silent segments switched by deadlines.
        Mixed,
        /// Silent for good from wake-up.
        Listener,
        /// Transmits with p = 1 for good.
        Beacon,
    }

    /// Decides on its `need`-th reception and retires. Counts its
    /// callbacks and hashes what it draws and hears, so any drift in the
    /// kernel's use of it shows.
    #[derive(Clone, Debug, PartialEq)]
    struct Probe {
        id: u32,
        role: Role,
        need: u64,
        heard: u64,
        calls: u64,
        hash: u64,
        first_draw: Option<u64>,
    }

    impl Probe {
        fn new(id: u32, role: Role, need: u64) -> Self {
            Probe {
                id,
                role,
                need,
                heard: 0,
                calls: 0,
                hash: 0,
                first_draw: None,
            }
        }

        fn segment(&self, now: Slot, rng: &mut SmallRng) -> Behavior {
            match self.role {
                Role::Mixed => Behavior::Transmit {
                    p: rng.gen_range(0.1..0.6),
                    until: Some(now + rng.gen_range(1..6)),
                },
                Role::Listener => Behavior::Silent { until: None },
                Role::Beacon => Behavior::Transmit {
                    p: 1.0,
                    until: None,
                },
            }
        }
    }

    impl RadioProtocol for Probe {
        type Message = u32;

        fn on_wake(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
            self.calls += 1;
            self.first_draw = Some(rng.gen());
            self.segment(now, rng)
        }

        fn on_deadline(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
            self.calls += 1;
            if rng.gen_bool(0.5) {
                Behavior::Silent {
                    until: Some(now + rng.gen_range(1..4)),
                }
            } else {
                self.segment(now, rng)
            }
        }

        fn message(&mut self, _now: Slot, rng: &mut SmallRng) -> u32 {
            self.calls += 1;
            self.id ^ (rng.gen_range(0..256) << 16)
        }

        fn on_receive(&mut self, _now: Slot, msg: &u32, _rng: &mut SmallRng) -> Option<Behavior> {
            self.calls += 1;
            self.heard += 1;
            self.hash = (self.hash ^ u64::from(*msg)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            (self.heard == self.need).then_some(Behavior::Silent { until: None })
        }

        fn is_decided(&self) -> bool {
            self.heard >= self.need
        }
    }

    /// One lock-step slot over `k`, whose members `local` maps by id.
    fn slot(k: &mut SlotKernel<Probe>, g: &Graph, local: &[Option<u32>], now: Slot) {
        let m = &mut NullMonitor;
        if k.wake_phase(now, m)
            && k.deadline_phase(now, m)
            && k.transmit_phase(now, |_, t, rng| bernoulli(t, rng), m)
        {
            k.scatter(|v| g.neighbors(v), |v| local[v as usize], |_, _, _| {});
            k.deliver_phase(now, &mut Ideal, |v| local[v as usize], m);
        }
        k.compact();
    }

    /// Every member's id, protocol state and counters, by id.
    fn outcome(k: &SlotKernel<Probe>) -> Vec<(NodeId, Probe, NodeStats)> {
        let mut rows: Vec<_> = k
            .live()
            .map(|(l, g)| (g, k.protocols[l as usize].clone(), k.stats[l as usize]))
            .collect();
        rows.sort_by_key(|r| r.0);
        rows
    }

    /// Admitting every member at the boundary before its wake slot, in
    /// any order, runs the same as building the kernel over all of them.
    #[test]
    fn admitting_at_wake_slots_matches_new() {
        let mut rng = SmallRng::seed_from_u64(SEED);
        let n = 32;
        let g = gnp(n, 0.25, &mut rng);
        let wake: Vec<Slot> = (0..n).map(|_| rng.gen_range(0..12)).collect();
        let ids: Vec<NodeId> = (0..n as NodeId).collect();
        let protos = ids.iter().map(|&v| Probe::new(v, Role::Mixed, 3)).collect();
        let mut whole = SlotKernel::new(ids.clone(), protos, &wake, SEED);
        let all: Vec<Option<u32>> = ids.iter().map(|&v| Some(v)).collect();
        let mut grown = SlotKernel::empty();
        let mut local = vec![None; n];
        for now in 0..400 {
            // Descending ids, so local indices differ from global ones.
            for v in ids.iter().rev().filter(|&&v| wake[v as usize] == now) {
                let rng = node_rng(SEED, *v);
                let l = grown.admit(*v, Probe::new(*v, Role::Mixed, 3), rng, now);
                local[*v as usize] = Some(l);
            }
            slot(&mut whole, &g, &all, now);
            slot(&mut grown, &g, &local, now);
        }
        let out = outcome(&whole);
        assert!(out.iter().any(|r| r.2.decided_at.is_some()), "trivial run");
        assert!(out.iter().any(|r| r.2.collisions > 0), "no contention");
        assert_eq!(out, outcome(&grown));
        assert_eq!(whole.undecided(), grown.undecided());
        assert_ne!(local, all, "local indices are not the ids");
    }

    /// Beacons 1 and 2 flank listener 0 (a collision every awake slot);
    /// beacon 1 alone reaches listener 3 (a reception every awake slot).
    fn flanked() -> (Graph, SlotKernel<Probe>) {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (1, 3)]);
        let protos = vec![
            Probe::new(0, Role::Listener, u64::MAX),
            Probe::new(1, Role::Beacon, u64::MAX),
            Probe::new(2, Role::Beacon, u64::MAX),
            Probe::new(3, Role::Listener, 2),
        ];
        (g, SlotKernel::whole(protos, &[0; 4], SEED))
    }

    #[test]
    fn restarted_member_sleeps_through_its_restart_slot() {
        let (g, mut k) = flanked();
        let local: Vec<Option<u32>> = (0..4).map(Some).collect();
        for now in 0..5 {
            slot(&mut k, &g, &local, now);
        }
        assert_eq!(k.stats[0].collisions, 5);
        assert_eq!(k.stats[3].received, 5);
        assert_eq!(k.undecided(), 3, "listener 3 decided");
        let before = (k.stats[0], k.stats[3]);

        // Restart both listeners between slots 4 and 5, waking at 6.
        let listener = |id, need| Probe::new(id, Role::Listener, need);
        k.restart(0, listener(0, u64::MAX), node_rng(SEED, 100), 6);
        k.restart(3, listener(3, 2), SmallRng::seed_from_u64(77), 6);
        assert_eq!(k.undecided(), 4, "3 is undecided again");
        slot(&mut k, &g, &local, 5);
        assert_eq!((k.stats[0].collisions, k.stats[3].received), (5, 5));
        assert_eq!(k.protocols[3].calls, 0, "no callback in slot 5");
        assert_eq!(k.stats[3].decided_at, None);

        slot(&mut k, &g, &local, 6);
        let first = SmallRng::seed_from_u64(77).gen::<u64>();
        assert_eq!(k.protocols[3].first_draw, Some(first), "new stream");
        assert_eq!(k.stats[0].collisions, before.0.collisions + 1);
        assert_eq!(k.stats[3].received, before.1.received + 1);
        assert_eq!(k.stats[3].wake, 6);
        slot(&mut k, &g, &local, 7);
        assert_eq!(k.undecided(), 3, "3 decided again");
        assert_eq!(k.stats[3].decided_at, Some(7));
    }

    #[test]
    fn evicted_member_is_never_drawn_touched_or_counted() {
        let (g, mut k) = flanked();
        let mut local: Vec<Option<u32>> = (0..4).map(Some).collect();
        for now in 0..3 {
            slot(&mut k, &g, &local, now);
        }
        // Node 4 joins beside listener 3, due at slot 6, and leaves
        // before it wakes; beacon 1 leaves while transmitting.
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (1, 3), (3, 4)]);
        let l4 = k.admit(
            4,
            Probe::new(4, Role::Beacon, u64::MAX),
            node_rng(SEED, 4),
            6,
        );
        local.push(Some(l4));
        assert_eq!(k.undecided(), 4, "3 decided; 4 joined");
        let stats1 = k.evict(1);
        assert_eq!(stats1.sent, 3);
        let gone = k.evict(l4);
        assert_eq!(
            gone,
            NodeStats {
                wake: 6,
                ..NodeStats::default()
            }
        );
        assert_eq!(k.undecided(), 2);
        let calls = (k.protocols[1].calls, k.protocols[l4 as usize].calls);
        // Stale map entries: the kernel must not count them either.
        for now in 3..10 {
            slot(&mut k, &g, &local, now);
        }
        assert_eq!(
            (k.protocols[1].calls, k.protocols[l4 as usize].calls),
            calls,
            "no callback after eviction"
        );
        assert_eq!(k.stats[1], NodeStats::default());
        assert_eq!(k.stats[l4 as usize], NodeStats::default());
        assert_eq!(k.stats[3].received, 3, "listener 3 heard only slots 0–2");
        assert_eq!(k.stats[0].collisions, 3, "0 now hears beacon 2 alone");
        assert_eq!(k.stats[0].received, 7);
        assert_eq!(k.live().collect::<Vec<_>>(), [(0, 0), (2, 2), (3, 3)]);
        assert!(
            !k.active.contains(&1),
            "compaction dropped the evicted beacon"
        );

        // The freed slots are reused, clean, and wake exactly once.
        let l = k.admit(9, Probe::new(9, Role::Listener, 1), node_rng(SEED, 9), 10);
        assert_eq!(l, l4, "reuses the last vacated slot");
        assert_eq!(
            k.stats[l as usize],
            NodeStats {
                wake: 10,
                ..NodeStats::default()
            }
        );
        assert_eq!(k.undecided(), 3);
        for now in 10..12 {
            slot(&mut k, &g, &local, now);
        }
        assert_eq!(k.protocols[l as usize].calls, 1, "one wake-up");
    }

    /// The threshold draw must be `gen_bool(p)` bit for bit: the same
    /// answers from the same stream, leaving the stream in the same
    /// state, and no draw at all for p = 1.
    #[test]
    fn threshold_draw_is_gen_bool() {
        let mut pick = SmallRng::seed_from_u64(0x7E57);
        let fixed = [
            1.0,
            1.0 - f64::EPSILON / 2.0,
            0.5,
            1.0 / 252.0,
            f64::MIN_POSITIVE,
        ];
        let random = (0..200).map(|_| 1.0 - pick.gen::<f64>());
        for (i, p) in fixed.into_iter().chain(random).enumerate() {
            assert!(p > 0.0 && p <= 1.0, "p = {p}");
            let t = threshold(p);
            assert_eq!(t == u64::MAX, p == 1.0, "p = {p}: sentinel");
            let mut ours = SmallRng::seed_from_u64(i as u64);
            let mut theirs = ours.clone();
            for k in 0..1_000 {
                assert_eq!(
                    bernoulli(t, &mut ours),
                    theirs.gen_bool(p),
                    "p = {p}, draw {k}"
                );
            }
            assert_eq!(ours, theirs, "p = {p}: stream state");
            if p == 1.0 {
                assert_eq!(ours, SmallRng::seed_from_u64(i as u64), "p = 1 draws");
            }
        }
    }
}
