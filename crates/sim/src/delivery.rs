//! Shared transmitter-side delivery kernels for all simulation
//! engines.
//!
//! # Why scatter-accumulate
//!
//! The unstructured radio network model delivers a message to a
//! listener iff **exactly one** of its neighbors transmits in the slot.
//! The engines originally verified that condition listener-side: for
//! every neighbor `u` of every transmitter, re-scan *all* of `u`'s
//! neighbors counting transmitters — `O(Σ_t deg(t) · Δ)` work per slot,
//! which is exactly the regime the paper's `O(κ₂⁴ Δ log n)` bound makes
//! interesting (dense graphs, large Δ).
//!
//! [`DeliveryKernel`] replaces the re-scan with a transmitter-side
//! *scatter*: each transmitter increments a per-listener accumulator
//! `(count, last_sender)` once per neighbor, and a listener then
//! receives iff its count is exactly 1 — `O(Σ_t deg(t))` per slot
//! total. Listeners touched this slot are collected in first-touch
//! order, which is identical to the order the old nested loop first
//! reached them, so engine observable behavior is unchanged.
//!
//! # Determinism contract
//!
//! The kernels draw **no randomness** and engines call them at exactly
//! the points where the old inline loops ran, so the per-node RNG draw
//! order is untouched: every `(graph, wake, seed)` triple reproduces
//! the bit-identical [`SimOutcome`](crate::SimOutcome) it produced
//! before the kernels existed. The cross-engine equivalence suite
//! (`tests/engine_equivalence.rs`) and the differential tests below
//! enforce this against [`ReferenceSweep`], a preserved copy of the
//! pre-kernel algorithm.
//!
//! Slots are tracked by an internal epoch counter incremented by
//! [`DeliveryKernel::begin_slot`], so per-listener state is
//! invalidated in O(1) with no per-slot clearing and no reserved
//! sentinel slot value.

use crate::channel::{ChannelModel, Contention, Reception};
use crate::protocol::Slot;
use radio_graph::{Graph, NodeId};

/// Scatter-accumulate delivery: per-listener transmitter counts for one
/// slot, over a member set indexed by *local* index.
///
/// Every aligned-slot path uses it: the lock-step kernel and the
/// event-driven engine over the whole graph (local index = node id),
/// and each shard of the sharded driver over its own members (dense
/// local indices, so a shard touches only its own cache-resident
/// arrays). Senders are always *global* ids — a shard's winner may
/// live in another shard, reaching it through the boundary exchange.
///
/// Per slot: call [`begin_slot`](Self::begin_slot) once, then
/// [`mark_transmitter`](Self::mark_transmitter) and [`add`](Self::add)
/// (or [`transmit`](Self::transmit) for a whole-graph member set), then
/// read the touched listeners back with [`touched`](Self::touched) /
/// [`unique_sender`](Self::unique_sender).
#[derive(Clone, Debug)]
pub struct DeliveryKernel {
    /// Current slot epoch; 0 means "no slot started yet".
    epoch: u64,
    /// Epoch at which each member last transmitted.
    tx_epoch: Vec<u64>,
    /// Epoch at which each listener's accumulator was last reset.
    stamp: Vec<u64>,
    /// Number of transmitting neighbors this slot.
    count: Vec<u32>,
    /// Most recent transmitting neighbor this slot (global id).
    sender: Vec<NodeId>,
    /// Listeners with `count > 0` this slot, in first-touch order.
    touched: Vec<u32>,
}

impl DeliveryKernel {
    /// An accumulator for `len` members.
    pub fn new(len: usize) -> Self {
        DeliveryKernel {
            epoch: 0,
            tx_epoch: vec![0; len],
            stamp: vec![0; len],
            count: vec![0; len],
            sender: vec![0; len],
            touched: Vec::new(),
        }
    }

    /// Starts a new slot, invalidating all per-slot state in O(1).
    #[inline]
    pub fn begin_slot(&mut self) {
        self.epoch += 1;
        self.touched.clear();
    }

    /// Records that member `lt` transmits this slot (a transmitter
    /// cannot receive). Scattering to its neighbors is the caller's
    /// job, through [`add`](Self::add).
    #[inline]
    pub fn mark_transmitter(&mut self, lt: u32) {
        self.tx_epoch[lt as usize] = self.epoch;
    }

    /// Accumulates one transmission from `sender` (global id) at
    /// listener `lu`. Returns `true` iff this was the slot's *first*
    /// contribution at `lu` — the sharded driver stores a boundary
    /// message exactly then, so a remote unique winner's payload is at
    /// hand without buffering every colliding message.
    #[inline]
    pub fn add(&mut self, lu: u32, sender: NodeId) -> bool {
        let ui = lu as usize;
        let first = self.stamp[ui] != self.epoch;
        if first {
            self.stamp[ui] = self.epoch;
            self.count[ui] = 0;
            self.touched.push(lu);
        }
        self.count[ui] += 1;
        self.sender[ui] = sender;
        first
    }

    /// Whole-graph shorthand (local index = node id): marks `t` as a
    /// transmitter and scatters the transmission to its neighbors.
    #[inline]
    pub fn transmit(&mut self, graph: &Graph, t: NodeId) {
        self.mark_transmitter(t);
        for &u in graph.neighbors(t) {
            self.add(u, t);
        }
    }

    /// `true` if member `lv` transmitted this slot.
    #[inline]
    pub fn is_transmitter(&self, lv: u32) -> bool {
        self.tx_epoch[lv as usize] == self.epoch
    }

    /// Listeners with at least one transmitting neighbor this slot, in
    /// first-touch order (the order the pre-kernel nested loop first
    /// reached them).
    #[inline]
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// For a touched listener: `Some(sender)` if exactly one neighbor
    /// transmitted, `None` on a collision (two or more).
    #[inline]
    pub fn unique_sender(&self, lu: u32) -> Option<NodeId> {
        debug_assert_eq!(
            self.stamp[lu as usize], self.epoch,
            "query of an untouched listener"
        );
        (self.count[lu as usize] == 1).then(|| self.sender[lu as usize])
    }

    /// The [`Contention`] a [`ChannelModel`] decides on for touched
    /// listener `lu`, whose global id is `listener`, at `slot` — the
    /// bridge between the scatter-accumulate result and the pluggable
    /// reception rule.
    #[inline]
    pub fn contention(&self, lu: u32, listener: NodeId, slot: Slot) -> Contention {
        Contention {
            listener,
            slot,
            transmitters: self.count[lu as usize],
            winner: self.unique_sender(lu),
        }
    }
}

/// The pre-kernel listener-side delivery algorithm, preserved verbatim
/// as a differential oracle for the kernels and as the baseline leg of
/// the `slot_throughput` microbenchmark. Do not use in engines.
#[derive(Clone, Debug)]
pub struct ReferenceSweep {
    epoch: u64,
    tx_epoch: Vec<u64>,
    seen: Vec<u64>,
    transmitters: Vec<NodeId>,
}

impl ReferenceSweep {
    /// A sweep for an `n`-node graph.
    pub fn new(n: usize) -> Self {
        ReferenceSweep {
            epoch: 0,
            tx_epoch: vec![0; n],
            seen: vec![0; n],
            transmitters: Vec::new(),
        }
    }

    /// Starts a new slot.
    pub fn begin_slot(&mut self) {
        self.epoch += 1;
        self.transmitters.clear();
    }

    /// Records that `t` transmits this slot.
    pub fn transmit(&mut self, t: NodeId) {
        self.tx_epoch[t as usize] = self.epoch;
        self.transmitters.push(t);
    }

    /// `true` if `v` transmitted this slot.
    pub fn is_transmitter(&self, v: NodeId) -> bool {
        self.tx_epoch[v as usize] == self.epoch
    }

    /// Runs the nested re-scan, appending `(listener, unique_sender)`
    /// pairs to `out` in first-touch order — `None` meaning collision.
    /// This is the `O(Σ_t deg(t) · Δ)` loop the kernels replace.
    pub fn sweep(&mut self, graph: &Graph, out: &mut Vec<(NodeId, Option<NodeId>)>) {
        self.sweep_impl(graph, |u, count, sender| {
            out.push((u, if count == 1 { sender } else { None }));
        });
    }

    /// Channel-aware re-scan: the same nested loop, but each listener's
    /// contention is resolved by `channel` instead of the inlined
    /// `count == 1` rule. The differential oracle for the kernel +
    /// channel delivery path. Transmitter counts are reported clamped
    /// to 2 (the re-scan stops counting there), which the
    /// [`ChannelModel`] contract permits.
    pub fn sweep_channel(
        &mut self,
        graph: &Graph,
        slot: Slot,
        channel: &mut impl ChannelModel,
        out: &mut Vec<(NodeId, Reception)>,
    ) {
        self.sweep_impl(graph, |u, count, sender| {
            let c = Contention {
                listener: u,
                slot,
                transmitters: count,
                winner: if count == 1 { sender } else { None },
            };
            out.push((u, channel.decide(&c)));
        });
    }

    /// The shared nested loop: calls `f(listener, count≤2, first_sender)`
    /// once per touched listener, in first-touch order.
    fn sweep_impl(&mut self, graph: &Graph, mut f: impl FnMut(NodeId, u32, Option<NodeId>)) {
        for ti in 0..self.transmitters.len() {
            let t = self.transmitters[ti];
            for &u in graph.neighbors(t) {
                let ui = u as usize;
                if self.seen[ui] == self.epoch {
                    continue; // already handled this listener
                }
                self.seen[ui] = self.epoch;
                let mut sender: Option<NodeId> = None;
                let mut count = 0u32;
                for &w in graph.neighbors(u) {
                    if self.tx_epoch[w as usize] == self.epoch {
                        count += 1;
                        if count > 1 {
                            break;
                        }
                        sender = Some(w);
                    }
                }
                f(u, count, sender);
            }
        }
    }
}

/// Interval-overlap scatter kernel for the non-aligned
/// ([`jittered`](crate::engine::jittered)) engine.
///
/// Time is counted in *half-slots*; a packet started at half-slot `s`
/// occupies `[s, s + 2)` and is destroyed at a listener iff any other
/// neighbor's packet start lies within `[s − 1, s + 1]` (the two-slot
/// vulnerability window of unslotted transmission). The old engine
/// re-scanned every neighbor's recent starts per delivery; this kernel
/// scatters each start into its neighbors' 4-deep half-slot rings at
/// transmission time, making the interference query O(1).
///
/// The ring depth of 4 suffices because a packet started at `s` is
/// delivered at half-slot `s + 2`, at which point the oldest start it
/// can conflict with (`s − 1`) is 3 half-slots old.
#[derive(Clone, Debug)]
pub struct OverlapKernel {
    /// `stamp[v][h % 4]`: the half-slot this ring entry belongs to.
    stamp: Vec<[u64; 4]>,
    /// Number of neighbor packet starts at that half-slot.
    count: Vec<[u32; 4]>,
    /// Most recent neighbor starting at that half-slot.
    last: Vec<[NodeId; 4]>,
}

impl OverlapKernel {
    /// A sentinel no half-slot ever equals (`begin`-less design: ring
    /// entries self-invalidate by stamp mismatch).
    const NEVER: u64 = u64::MAX;

    /// A kernel for an `n`-node graph.
    pub fn new(n: usize) -> Self {
        OverlapKernel {
            stamp: vec![[Self::NEVER; 4]; n],
            count: vec![[0; 4]; n],
            last: vec![[0; 4]; n],
        }
    }

    /// Records that `t` starts a packet at half-slot `half`, scattering
    /// the start into every neighbor's ring.
    #[inline]
    pub fn transmit(&mut self, graph: &Graph, t: NodeId, half: u64) {
        let ring = (half % 4) as usize;
        for &u in graph.neighbors(t) {
            let ui = u as usize;
            if self.stamp[ui][ring] != half {
                self.stamp[ui][ring] = half;
                self.count[ui][ring] = 0;
            }
            self.count[ui][ring] += 1;
            self.last[ui][ring] = t;
        }
    }

    /// `true` if, at listener `u`, any neighbor other than `sender`
    /// started a packet overlapping the packet `sender` started at
    /// half-slot `start`.
    #[inline]
    pub fn interferes(&self, u: NodeId, start: u64, sender: NodeId) -> bool {
        let ui = u as usize;
        // Same half-slot: `sender`'s own start is in the ring, so any
        // second start is interference.
        let ring = (start % 4) as usize;
        if self.stamp[ui][ring] == start
            && (self.count[ui][ring] >= 2 || self.last[ui][ring] != sender)
        {
            return true;
        }
        // Adjacent half-slots: any start at all interferes (`sender`
        // starts at most one packet per local slot, two half-slots
        // apart, so these cannot be its own).
        for h in [start.wrapping_sub(1), start + 1] {
            if h == Self::NEVER {
                continue; // start == 0 underflow: no half-slot −1
            }
            let ring = (h % 4) as usize;
            if self.stamp[ui][ring] == h && self.count[ui][ring] >= 1 {
                return true;
            }
        }
        false
    }

    /// The [`Contention`] a [`ChannelModel`] decides on for the packet
    /// `sender` started at half-slot `start`, as heard by listener `u`
    /// whose local slot is `slot`. The overlap query cannot count
    /// interferers exactly, so collisions are reported as 2
    /// transmitters (which the [`ChannelModel`] contract permits).
    #[inline]
    pub fn contention(&self, u: NodeId, start: u64, sender: NodeId, slot: Slot) -> Contention {
        let interfered = self.interferes(u, start, sender);
        Contention {
            listener: u,
            slot,
            transmitters: if interfered { 2 } else { 1 },
            winner: if interfered { None } else { Some(sender) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::generators::gnp;
    use radio_graph::generators::special::{complete, path, star};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Runs one slot through both the kernel and the reference sweep
    /// and asserts identical (listener, outcome) sequences.
    fn assert_slot_equivalent(graph: &Graph, transmitters: &[NodeId]) {
        let n = graph.len();
        let mut kernel = DeliveryKernel::new(n);
        let mut reference = ReferenceSweep::new(n);
        kernel.begin_slot();
        reference.begin_slot();
        for &t in transmitters {
            kernel.transmit(graph, t);
            reference.transmit(t);
        }
        let mut expect = Vec::new();
        reference.sweep(graph, &mut expect);
        let got: Vec<(NodeId, Option<NodeId>)> = kernel
            .touched()
            .iter()
            .map(|&u| (u, kernel.unique_sender(u)))
            .collect();
        assert_eq!(got, expect, "transmitters {transmitters:?}");
        for v in 0..n as NodeId {
            assert_eq!(
                kernel.is_transmitter(v),
                reference.is_transmitter(v),
                "transmitter flag for {v}"
            );
        }
    }

    #[test]
    fn single_transmitter_reaches_all_neighbors() {
        let g = star(5);
        let mut k = DeliveryKernel::new(5);
        k.begin_slot();
        k.transmit(&g, 0);
        assert_eq!(k.touched(), &[1, 2, 3, 4]);
        for u in 1..5 {
            assert_eq!(k.unique_sender(u), Some(0));
        }
        assert!(k.is_transmitter(0));
        assert!(!k.is_transmitter(1));
    }

    #[test]
    fn two_transmitters_collide_at_shared_listener() {
        let g = star(3); // center 0, leaves 1 and 2
        let mut k = DeliveryKernel::new(3);
        k.begin_slot();
        k.transmit(&g, 1);
        k.transmit(&g, 2);
        assert_eq!(k.touched(), &[0]);
        assert_eq!(k.unique_sender(0), None, "collision at the center");
    }

    #[test]
    fn begin_slot_invalidates_previous_state() {
        let g = path(3);
        let mut k = DeliveryKernel::new(3);
        k.begin_slot();
        k.transmit(&g, 0);
        assert_eq!(k.touched(), &[1]);
        k.begin_slot();
        assert!(k.touched().is_empty());
        assert!(!k.is_transmitter(0));
        k.transmit(&g, 2);
        assert_eq!(k.touched(), &[1]);
        assert_eq!(k.unique_sender(1), Some(2));
    }

    #[test]
    fn matches_reference_on_dense_and_sparse_random_graphs() {
        let mut rng = SmallRng::seed_from_u64(0xD15C0);
        for case in 0..200 {
            let n = rng.gen_range(1..40);
            let p = [0.05, 0.2, 0.5, 0.9][case % 4];
            let g = gnp(n, p, &mut rng);
            // Random transmitter set of random density, random order.
            let tx_p = [0.05, 0.3, 0.8][case % 3];
            let mut transmitters: Vec<NodeId> =
                (0..n as NodeId).filter(|_| rng.gen_bool(tx_p)).collect();
            // First-touch order depends on transmitter order; exercise
            // non-sorted orders too.
            if n > 1 {
                for i in (1..transmitters.len()).rev() {
                    let j = rng.gen_range(0..=i);
                    transmitters.swap(i, j);
                }
            }
            assert_slot_equivalent(&g, &transmitters);
        }
    }

    #[test]
    fn matches_reference_across_consecutive_slots() {
        // Epoch reuse: the same kernel must stay correct over many
        // slots without clearing.
        let mut rng = SmallRng::seed_from_u64(7);
        let g = complete(12);
        let mut kernel = DeliveryKernel::new(12);
        let mut reference = ReferenceSweep::new(12);
        for _ in 0..100 {
            kernel.begin_slot();
            reference.begin_slot();
            for v in 0..12u32 {
                if rng.gen_bool(0.3) {
                    kernel.transmit(&g, v);
                    reference.transmit(v);
                }
            }
            let mut expect = Vec::new();
            reference.sweep(&g, &mut expect);
            let got: Vec<(NodeId, Option<NodeId>)> = kernel
                .touched()
                .iter()
                .map(|&u| (u, kernel.unique_sender(u)))
                .collect();
            assert_eq!(got, expect);
        }
    }

    /// Brute-force overlap oracle: does any neighbor of `u` other than
    /// `sender` have a start within `[start − 1, start + 1]`?
    fn brute_force_interferes(
        g: &Graph,
        starts: &[Vec<u64>],
        u: NodeId,
        start: u64,
        sender: NodeId,
    ) -> bool {
        g.neighbors(u)
            .iter()
            .any(|&w| w != sender && starts[w as usize].iter().any(|&s| s.abs_diff(start) <= 1))
    }

    #[test]
    fn overlap_kernel_matches_brute_force() {
        let mut rng = SmallRng::seed_from_u64(42);
        for case in 0..100 {
            let n = rng.gen_range(2..24);
            let g = gnp(n, [0.2, 0.5, 0.9][case % 3], &mut rng);
            let mut kernel = OverlapKernel::new(n);
            // Per-node phase (parity of starts) and running schedule.
            let phases: Vec<u64> = (0..n).map(|_| u64::from(rng.gen_bool(0.5))).collect();
            let mut starts: Vec<Vec<u64>> = vec![Vec::new(); n];
            for half in 0..40u64 {
                // Nodes whose parity matches may start a packet.
                for v in 0..n as NodeId {
                    if half % 2 == phases[v as usize] && rng.gen_bool(0.4) {
                        kernel.transmit(&g, v, half);
                        starts[v as usize].push(half);
                    }
                }
                // Packets started at `half − 2` deliver now; check
                // interference for every (packet, listener) pair.
                let Some(s) = half.checked_sub(2) else {
                    continue;
                };
                for p in 0..n as NodeId {
                    if !starts[p as usize].contains(&s) {
                        continue;
                    }
                    for &u in g.neighbors(p) {
                        assert_eq!(
                            kernel.interferes(u, s, p),
                            brute_force_interferes(&g, &starts, u, s, p),
                            "case {case}, packet ({p}, {s}), listener {u}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn overlap_kernel_half_zero_has_no_negative_neighbor_window() {
        let g = path(2);
        let mut k = OverlapKernel::new(2);
        k.transmit(&g, 0, 0);
        // Only node 0's own start exists: no interference at listener 1.
        assert!(!k.interferes(1, 0, 0));
    }

    #[test]
    fn overlap_kernel_ring_wraparound_does_not_alias_stale_entries() {
        // Half-slots 0 and 4 share ring index 0 (mod 4). A start
        // recorded at half 0 must be invisible to queries about half 4,
        // and a new start at half 4 must overwrite the stale entry.
        let g = star(3); // center 0, leaves 1 and 2
        let mut k = OverlapKernel::new(3);
        k.transmit(&g, 1, 0);
        // Nothing started near half 4 yet: the half-0 entry at the same
        // ring index must not masquerade as interference.
        assert!(!k.interferes(0, 4, 2));
        // Same for the adjacent-window probes (half 3 and 5 rings hold
        // stamps from no one).
        assert!(!k.interferes(0, 5, 2));
        // Now 2 starts at half 4, overwriting ring index 0: its own
        // packet is clean (the stale count from half 0 must have been
        // reset, not accumulated)...
        k.transmit(&g, 2, 4);
        assert!(!k.interferes(0, 4, 2));
        // ...and a second start at the same half collides.
        k.transmit(&g, 1, 4);
        assert!(k.interferes(0, 4, 2));
        assert!(k.interferes(0, 4, 1));
    }

    #[test]
    fn overlap_kernel_adjacent_window_across_ring_boundary() {
        // Starts at halves 3 and 4 sit at ring indices 3 and 0 — the
        // wrap point of the 4-deep ring. They are adjacent in time, so
        // each must see the other as interference.
        let g = star(3);
        let mut k = OverlapKernel::new(3);
        k.transmit(&g, 1, 3);
        k.transmit(&g, 2, 4);
        assert!(k.interferes(0, 3, 1), "half 4 start overlaps half 3 packet");
        assert!(k.interferes(0, 4, 2), "half 3 start overlaps half 4 packet");
        // A start 2 halves away (same parity, distinct slots) does not
        // interfere: halves 3 and 5.
        let mut k = OverlapKernel::new(3);
        k.transmit(&g, 1, 3);
        k.transmit(&g, 2, 5);
        assert!(
            !k.interferes(0, 5, 2),
            "start at half 3 ended before half 5 packet"
        );
    }

    /// Differential: running one slot through per-shard accumulators
    /// with a manual boundary exchange must reproduce the global
    /// whole-graph accumulator's per-listener counts, unique senders and
    /// transmitter flags exactly, for any shard assignment.
    #[test]
    fn shard_kernels_with_boundary_exchange_match_global_kernel() {
        let mut rng = SmallRng::seed_from_u64(0x5AAD);
        for case in 0..120 {
            let n = rng.gen_range(1..48);
            let k = rng.gen_range(1..=4usize);
            let g = gnp(n, [0.1, 0.3, 0.7][case % 3], &mut rng);
            // Arbitrary (id-scrambled) shard assignment.
            let shard_of: Vec<usize> = (0..n).map(|v| (v * 7 + case) % k).collect();
            let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); k];
            let mut local_of = vec![0u32; n];
            for v in 0..n {
                local_of[v] = members[shard_of[v]].len() as u32;
                members[shard_of[v]].push(v as NodeId);
            }
            let transmitters: Vec<NodeId> =
                (0..n as NodeId).filter(|_| rng.gen_bool(0.3)).collect();

            let mut global = DeliveryKernel::new(n);
            global.begin_slot();
            let mut shards: Vec<DeliveryKernel> = members
                .iter()
                .map(|m| DeliveryKernel::new(m.len()))
                .collect();
            let mut boundary: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); k];
            for s in &mut shards {
                s.begin_slot();
            }
            for &t in &transmitters {
                global.transmit(&g, t);
                let ts = shard_of[t as usize];
                shards[ts].mark_transmitter(local_of[t as usize]);
                for &u in g.neighbors(t) {
                    let us = shard_of[u as usize];
                    if us == ts {
                        shards[us].add(local_of[u as usize], t);
                    } else {
                        boundary[us].push((u, t));
                    }
                }
            }
            for (s, queue) in boundary.iter().enumerate() {
                for &(u, t) in queue {
                    shards[s].add(local_of[u as usize], t);
                }
            }

            // Same touched set (as a set — first-touch order is
            // shard-local), same outcome per touched listener.
            let mut global_touched: Vec<NodeId> = global.touched().to_vec();
            global_touched.sort_unstable();
            let mut shard_touched: Vec<NodeId> = shards
                .iter()
                .enumerate()
                .flat_map(|(s, sk)| {
                    let shard_members = &members[s];
                    sk.touched()
                        .iter()
                        .map(move |&lu| shard_members[lu as usize])
                })
                .collect();
            shard_touched.sort_unstable();
            assert_eq!(global_touched, shard_touched, "case {case}");
            for &u in &global_touched {
                let (s, lu) = (shard_of[u as usize], local_of[u as usize]);
                assert_eq!(
                    global.contention(u, u, 3).transmitters,
                    shards[s].contention(lu, u, 3).transmitters,
                    "count at {u}"
                );
                assert_eq!(
                    global.unique_sender(u),
                    shards[s].unique_sender(lu),
                    "winner at {u}"
                );
            }
            for v in 0..n as NodeId {
                assert_eq!(
                    global.is_transmitter(v),
                    shards[shard_of[v as usize]].is_transmitter(local_of[v as usize]),
                    "tx flag at {v}"
                );
            }
        }
    }

    /// Multi-slot differential: the kernel + channel delivery path must
    /// equal the channel-aware reference sweep, reception by reception,
    /// for every built-in spec (exact counts vs clamped counts included).
    #[test]
    fn kernel_channel_path_matches_reference_oracle_for_all_specs() {
        use crate::channel::ChannelSpec;
        let specs = [
            ChannelSpec::Ideal,
            ChannelSpec::ProbabilisticLoss { p: 0.35 },
            ChannelSpec::GilbertElliott {
                p_bad: 0.05,
                p_good: 0.1,
                loss_good: 0.02,
                loss_bad: 0.9,
            },
            ChannelSpec::AdversarialJam {
                window: 16,
                budget: 3,
            },
        ];
        let mut rng = SmallRng::seed_from_u64(0xC4A);
        for spec in specs {
            for case in 0..30 {
                let n = rng.gen_range(2..24);
                let g = gnp(n, [0.1, 0.4, 0.8][case % 3], &mut rng);
                let mut kernel = DeliveryKernel::new(n);
                let mut reference = ReferenceSweep::new(n);
                let mut ch_kernel = spec.build(n, case as u64);
                let mut ch_ref = spec.build(n, case as u64);
                for slot in 0..50u64 {
                    kernel.begin_slot();
                    reference.begin_slot();
                    for v in 0..n as NodeId {
                        if rng.gen_bool(0.25) {
                            kernel.transmit(&g, v);
                            reference.transmit(v);
                        }
                    }
                    let mut expect = Vec::new();
                    reference.sweep_channel(&g, slot, &mut ch_ref, &mut expect);
                    let got: Vec<(NodeId, Reception)> = kernel
                        .touched()
                        .iter()
                        .map(|&u| (u, ch_kernel.decide(&kernel.contention(u, u, slot))))
                        .collect();
                    assert_eq!(got, expect, "{spec:?} case {case} slot {slot}");
                }
            }
        }
    }
}
