//! The lock-step slot kernel: the one implementation of the paper's
//! intra-slot rule (Sect. 2) — wake-ups, then deadlines, then
//! independent transmit draws, then delivery iff exactly one neighbor
//! transmits.
//!
//! A [`SlotKernel`] owns the per-node state of a member set, indexed by
//! local index (the position in the ascending member list). Its
//! per-node hooks (`wake_node`, `fire_deadline`, `compose`, `receive`)
//! are the only call sites of the [`RadioProtocol`] callbacks in the
//! simulator and the model checker; its four phases take the slot's
//! nondeterminism as input — the transmit draw as a closure, the
//! reception rule as a [`ChannelModel`] — plus the monitor.
//!
//! Every lock-step path runs on it: the sequential
//! [`SimDriver`](super::driver::SimDriver) holds one kernel over all
//! nodes (the lock-step engine runs its phases, the event and jittered
//! engines call its hooks in their own order), each shard of
//! [`run_sharded`](super::sharded::run_sharded) is a kernel plus the
//! boundary exchange, and the model checker's `SlotStepper` is a kernel
//! driven by choice bitmasks. The first protocol error is recorded at
//! its `(node, slot)` and every later hook or phase returns `false` /
//! `None`, so each caller stops in the slot it was raised.

use super::{log_fault, NodeStats};
use crate::channel::{ChannelModel, Contention, Reception};
use crate::delivery::DeliveryKernel;
use crate::monitor::InvariantMonitor;
use crate::protocol::{Behavior, ProtocolError, RadioProtocol, Slot};
use crate::rng::node_rng;
use crate::trace::Event;
use radio_graph::bitset::BitSet;
use radio_graph::{Graph, NodeId};
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

/// One Bernoulli draw against a [`threshold`]: the same bits and the
/// same answer as `rng.gen_bool(p)`, without its per-call range check
/// and float conversion.
#[inline]
pub(crate) fn bernoulli(threshold: u64, rng: &mut SmallRng) -> bool {
    threshold == u64::MAX || rng.next_u64() < threshold
}

/// Struct-of-arrays storage for per-node behavior segments: the hot
/// sweeps read "woken?" / "transmitting?" for 64 nodes per [`BitSet`]
/// word instead of pointer-chasing `Option<Behavior>`s. `get`/`set`
/// round-trip [`Behavior`] values exactly.
#[derive(Clone, Debug)]
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
    fn new(n: usize) -> Self {
        BehaviorTable {
            present: BitSet::new(n),
            transmit: BitSet::new(n),
            has_deadline: BitSet::new(n),
            p: vec![0.0; n],
            threshold: vec![0; n],
            until: vec![0; n],
        }
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
    /// Global id of each member, ascending.
    pub(crate) members: Vec<NodeId>,
    /// Protocol state per member.
    pub(crate) protocols: Vec<P>,
    /// Private per-node streams (`node_rng(seed, global id)`), so the
    /// draws do not depend on which kernel owns the node.
    pub(crate) rngs: Vec<SmallRng>,
    behaviors: BehaviorTable,
    /// Per-member counters; `wake` doubles as the wake schedule.
    pub(crate) stats: Vec<NodeStats>,
    decided: BitSet,
    undecided: usize,
    /// Local indices stable-sorted by wake slot (ties: ascending id).
    wake_order: Vec<u32>,
    next_wake: usize,
    /// Awake members needing per-slot attention; retired members are
    /// compacted out and re-inserted by a reactivating reception.
    active: Vec<u32>,
    in_active: Vec<bool>,
    /// Set when a member may have retired since the last compaction: it
    /// installed `Silent { until: None }`, or decided (retiring needs
    /// both). [`compact`](Self::compact) does nothing while it is clear.
    retiring: bool,
    /// A lower bound on every live deadline: each install lowers it,
    /// each deadline sweep recomputes it.
    /// [`deadline_phase`](Self::deadline_phase) skips slots below it.
    next_due: Slot,
    acc: DeliveryKernel,
    /// This slot's transmitters, in draw order.
    txs: Vec<u32>,
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

impl<P: RadioProtocol> SlotKernel<P> {
    /// A kernel over `members` (global ids, ascending) running
    /// `protocols` (one per member), with `wake` the global wake
    /// schedule and `seed` the run seed.
    ///
    /// # Panics
    /// If `protocols.len() != members.len()`.
    pub fn new(members: Vec<NodeId>, protocols: Vec<P>, wake: &[Slot], seed: u64) -> Self {
        let m = members.len();
        assert_eq!(protocols.len(), m, "protocol vector length mismatch");
        let mut wake_order: Vec<u32> = (0..m as u32).collect();
        wake_order.sort_by_key(|&l| wake[members[l as usize] as usize]);
        SlotKernel {
            rngs: members.iter().map(|&g| node_rng(seed, g)).collect(),
            behaviors: BehaviorTable::new(m),
            stats: members
                .iter()
                .map(|&g| NodeStats {
                    wake: wake[g as usize],
                    ..NodeStats::default()
                })
                .collect(),
            decided: BitSet::new(m),
            undecided: m,
            wake_order,
            next_wake: 0,
            active: Vec::with_capacity(m),
            in_active: vec![false; m],
            retiring: false,
            next_due: Slot::MAX,
            acc: DeliveryKernel::new(m),
            txs: Vec::new(),
            air: std::iter::repeat_with(|| None).take(m).collect(),
            pending: Vec::new(),
            faults: Vec::new(),
            faults_dropped: 0,
            error: None,
            members,
            protocols,
        }
    }

    /// A kernel over every node of the graph `wake` schedules (local
    /// index = node id).
    pub fn whole(protocols: Vec<P>, wake: &[Slot], seed: u64) -> Self {
        Self::new((0..wake.len() as NodeId).collect(), protocols, wake, seed)
    }

    // ---- accessors -----------------------------------------------------

    /// Protocol state per member.
    pub fn protocols(&self) -> &[P] {
        &self.protocols
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

    /// Phase 1: wakes every member due at `slot` (ascending id among
    /// equal wake slots) into the active set. Slots must be visited in
    /// order from 0. `false` once the kernel has an error.
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

    /// Phase 3: starts the slot's accumulator epoch; every active member
    /// in a transmit segment asks `draw(l, threshold, rng)` (local
    /// index, the segment's integer threshold — `(p·2⁶⁴) as u64`, or
    /// `u64::MAX` for p = 1 — and the member's stream) whether it
    /// transmits: the simulator passes `bernoulli`, one `next_u64`
    /// compare with the bits `gen_bool(p)` reads; the model checker
    /// reads a bitmask. Each transmitter composes its message, parks it
    /// on the air and is marked in the accumulator;
    /// [`scatter`](Self::scatter) then reaches the listeners.
    pub fn transmit_phase<M: InvariantMonitor<P>>(
        &mut self,
        slot: Slot,
        mut draw: impl FnMut(u32, u64, &mut SmallRng) -> bool,
        monitor: &mut M,
    ) -> bool {
        if self.error.is_some() {
            return false;
        }
        self.acc.begin_slot();
        self.txs.clear();
        let active = std::mem::take(&mut self.active);
        let ok = active.iter().all(|&l| {
            let li = l as usize;
            let Some(t) = self.behaviors.tx_threshold(l) else {
                return true;
            };
            if !draw(l, t, &mut self.rngs[li]) {
                return true;
            }
            let Some(msg) = self.compose(l, slot, monitor) else {
                return false;
            };
            self.air[li] = Some(msg);
            self.acc.mark_transmitter(l);
            self.txs.push(l);
            true
        });
        self.active = active;
        ok
    }

    /// Scatters the slot's transmissions, in draw order, to the
    /// transmitters' neighbors: `local(v)` maps a neighbor to its local
    /// index if it is a member; any other neighbor is handed to
    /// `remote(listener, sender, msg)` (the sharded driver's boundary
    /// mailboxes). A whole-graph kernel passes `Some` and a no-op.
    #[inline]
    pub fn scatter(
        &mut self,
        graph: &Graph,
        local: impl Fn(NodeId) -> Option<u32>,
        mut remote: impl FnMut(NodeId, NodeId, &P::Message),
    ) {
        for &t in &self.txs {
            let g = self.members[t as usize];
            for &u in graph.neighbors(g) {
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
    pub(crate) fn inbound(&mut self, lu: u32, sender: NodeId, msg: P::Message) {
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
    /// delivered. `local` is the member map passed to
    /// [`scatter`](Self::scatter).
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
                Some(true) => self.activate(lu),
                Some(false) => {}
            }
        }
        true
    }

    /// End-of-slot compaction: drops retired members from the active
    /// set. They draw no randomness and never transmit, so removal
    /// cannot change any outcome — it only shrinks the per-slot loops.
    /// Runs only after a slot in which a member may have retired.
    pub fn compact(&mut self) {
        if !std::mem::take(&mut self.retiring) {
            return;
        }
        let (behaviors, decided, in_active) = (&self.behaviors, &self.decided, &mut self.in_active);
        self.active.retain(|&l| {
            let keep = !(decided.contains(l as usize) && behaviors.silent_forever(l));
            in_active[l as usize] = keep;
            keep
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

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
