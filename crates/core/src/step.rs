//! A deterministic single-slot stepper over the coloring protocol —
//! the transition function the model checker (`radio-mc`) explores and
//! the repro corpus replays.
//!
//! The engines in `radio-sim` draw per-slot transmission decisions and
//! channel outcomes from seeded RNG streams; exhaustive exploration
//! instead needs those decisions as *explicit inputs* so every
//! resolution of the nondeterminism can be enumerated. [`SlotStepper`]
//! is the simulator's own lock-step [`SlotKernel`] — the code
//! `Lockstep` and every shard of the sharded driver run — with the two
//! coin flips replaced by a [`SlotChoice`]: the transmit draw reads the
//! `tx` bitmask, and the reception rule is the ideal channel except
//! where the `drop` bitmask drops a singleton delivery (the engines'
//! `Drop` outcome). Everything else — hook order, breach polling,
//! behavior validation, monitor hooks, decision bookkeeping — is the
//! one shared transition semantics.
//!
//! A recorded sequence of choices is a [`Witness`]: the model checker
//! attaches one to each counterexample it converts into a
//! [`crate::repro::ReproCase`], and `ReproCase::detect` replays it
//! through [`replay`] — bit-deterministically, with no seed search.

use crate::invariants::ObservableColoring;
use radio_graph::{Graph, NodeId};
use radio_sim::{
    Behavior, ChannelModel, Contention, InvariantMonitor, ProtocolError, RadioProtocol, Reception,
    Slot, SlotKernel,
};

/// One slot's resolution of the model's nondeterminism, as bitmasks
/// over node ids (bit `v` = node `v`; exploration is bounded to 64
/// nodes, far above the model checker's n ≤ 5).
///
/// Bits are *permissive*: a `tx` bit only takes effect if the node is
/// awake and in a `Transmit` segment that slot, and a `drop` bit only
/// if the node would otherwise receive a singleton delivery. This
/// keeps every mask well-formed under the shrinker's node removal and
/// wake rewrites — an inapplicable bit is a no-op, never a panic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlotChoice {
    /// Nodes that transmit this slot (among those entitled to).
    pub tx: u64,
    /// Listeners whose singleton delivery the channel drops.
    pub drop: u64,
}

/// An explored path's choice schedule, one [`SlotChoice`] per slot
/// starting at slot 0. Replaying it through [`replay`] reproduces the
/// path exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Witness {
    /// Per-slot choices; the run ends after the last entry.
    pub schedule: Vec<SlotChoice>,
}

impl Witness {
    /// Rewrites every mask for the removal of node `k`: bit `k` is
    /// dropped and higher bits shift down, mirroring the id remap of
    /// `ReproCase::without_node`.
    pub fn without_node(&self, k: NodeId) -> Witness {
        let drop_bit = |m: u64| {
            let low = m & ((1u64 << k) - 1);
            let high = (m >> (k + 1)) << k;
            low | high
        };
        Witness {
            schedule: self
                .schedule
                .iter()
                .map(|c| SlotChoice {
                    tx: drop_bit(c.tx),
                    drop: drop_bit(c.drop),
                })
                .collect(),
        }
    }
}

/// The ideal reception rule with the choice's `drop` bits applied.
struct DropMask(u64);

impl ChannelModel for DropMask {
    fn decide(&mut self, c: &Contention) -> Reception {
        match c.winner {
            Some(_) if self.0 >> c.listener & 1 == 1 => Reception::Drop,
            Some(w) => Reception::Deliver(w),
            None => Reception::Collide,
        }
    }
}

/// The deterministic single-slot transition function: a whole-graph
/// [`SlotKernel`] stepped by [`SlotChoice`]s (see the module docs).
///
/// A stepper is cheap to clone (per-node protocol state plus a few
/// small arrays), which is what makes it the explorer's search-node
/// representation: branch by cloning, then [`step`](Self::step) each
/// clone with a different [`SlotChoice`].
#[derive(Clone)]
pub struct SlotStepper<'a, P: RadioProtocol> {
    graph: &'a Graph,
    kernel: SlotKernel<P>,
    slot: Slot,
}

impl<'a, P: ObservableColoring> SlotStepper<'a, P> {
    /// A stepper at slot 0 with all nodes still asleep.
    ///
    /// # Panics
    ///
    /// If `wake.len()` or `nodes.len()` differ from `graph.len()`, or
    /// the graph has more than 64 nodes (the bitmask width).
    pub fn new(graph: &'a Graph, wake: &[Slot], nodes: Vec<P>) -> Self {
        let n = graph.len();
        assert_eq!(wake.len(), n, "wake schedule length mismatch");
        assert!(n <= 64, "choice bitmasks cover at most 64 nodes");
        SlotStepper {
            graph,
            // The coloring protocol draws no randomness (all its
            // Bernoulli behavior lives in the engine's transmission
            // draws, which the SlotChoice replaces), so any fixed seed
            // yields the same deterministic run.
            kernel: SlotKernel::whole(nodes, wake, 0),
            slot: 0,
        }
    }

    /// The next slot to execute.
    pub fn slot(&self) -> Slot {
        self.slot
    }

    /// The per-node protocol states.
    pub fn nodes(&self) -> &[P] {
        self.kernel.protocols()
    }

    /// `true` once node `v` has woken (has a behavior installed).
    pub fn awake(&self, v: NodeId) -> bool {
        self.kernel.behavior(v).is_some()
    }

    /// The per-node behavior segments (`None` before wake-up) — with
    /// [`nodes`](Self::nodes) and [`slot`](Self::slot), the full search
    /// state the explorer fingerprints for deduplication.
    pub fn behaviors(&self) -> Vec<Option<Behavior>> {
        (0..self.graph.len() as NodeId)
            .map(|v| self.kernel.behavior(v))
            .collect()
    }

    /// The first protocol error (a contract breach or malformed
    /// behavior), if one stopped the run.
    pub fn error(&self) -> Option<&ProtocolError> {
        self.kernel.error()
    }

    /// `true` when every node has woken and decided — the engines'
    /// termination condition.
    pub fn all_decided(&self) -> bool {
        self.kernel.undecided() == 0
    }

    /// Per-node `(state, slot)` observations for the awake nodes
    /// (`None` for sleepers), in the form
    /// [`crate::invariants::ColoringMonitor::resume`] takes: the
    /// explorer seeds a fresh monitor from the parent state before
    /// every expansion.
    pub fn observations(&self) -> Vec<Option<(crate::node::ObservedState, Slot)>> {
        let at = self.slot;
        (0..self.graph.len() as NodeId)
            .map(|v| {
                self.awake(v)
                    .then(|| (self.nodes()[v as usize].observe(at), at))
            })
            .collect()
    }

    /// Per-node abstract machine labels (`"Wake"` for sleepers), the
    /// projection-monitor seed matching [`observations`](Self::observations).
    pub fn abstract_tags(&self) -> Vec<&'static str> {
        self.observations()
            .into_iter()
            .map(|o| o.map_or("Wake", |(obs, _)| obs.abstract_tag()))
            .collect()
    }

    /// Phase 1–2 of the current slot: wake-ups and deadline firings,
    /// with their monitor hooks. Returns the mask of nodes entitled to
    /// transmit this slot (awake, in a `Transmit` segment) — the
    /// domain the caller picks a [`SlotChoice::tx`] from.
    pub fn begin_slot<M: InvariantMonitor<P>>(&mut self, monitor: &mut M) -> u64 {
        let _ = self.kernel.wake_phase(self.slot, monitor)
            && self.kernel.deadline_phase(self.slot, monitor);
        (0..self.graph.len() as NodeId)
            .filter(|&v| self.kernel.tx_p(v).is_some())
            .fold(0, |m, v| m | 1 << v)
    }

    /// The listeners that receive a singleton delivery under
    /// transmitter set `tx`: awake, not transmitting, exactly one
    /// transmitting neighbor. Valid between
    /// [`begin_slot`](Self::begin_slot) and
    /// [`finish_slot`](Self::finish_slot); the domain the caller picks
    /// a [`SlotChoice::drop`] from.
    pub fn singleton_receivers(&self, tx: u64) -> u64 {
        let mut out = 0u64;
        for u in 0..self.graph.len() as NodeId {
            if tx >> u & 1 == 1 || !self.awake(u) {
                continue;
            }
            let hot = self
                .graph
                .neighbors(u)
                .iter()
                .filter(|&&w| tx >> w & 1 == 1)
                .count();
            if hot == 1 {
                out |= 1 << u;
            }
        }
        out
    }

    /// Phase 3–4 of the current slot: transmissions for the effective
    /// transmitter set and the resulting deliveries, then the slot
    /// advances. Returns `true` when the run is complete
    /// ([`all_decided`](Self::all_decided)).
    pub fn finish_slot<M: InvariantMonitor<P>>(
        &mut self,
        choice: SlotChoice,
        monitor: &mut M,
    ) -> bool {
        let k = &mut self.kernel;
        if k.transmit_phase(self.slot, |v, _, _| choice.tx >> v & 1 == 1, monitor) {
            k.scatter(|v| self.graph.neighbors(v), Some, |_, _, _| {});
            k.deliver_phase(self.slot, &mut DropMask(choice.drop), Some, monitor);
        }
        k.compact();
        self.slot += 1;
        self.all_decided()
    }

    /// One full slot under `choice`:
    /// [`begin_slot`](Self::begin_slot) + [`finish_slot`](Self::finish_slot).
    pub fn step<M: InvariantMonitor<P>>(&mut self, choice: SlotChoice, monitor: &mut M) -> bool {
        self.begin_slot(monitor);
        self.finish_slot(choice, monitor)
    }
}

/// The deterministic fair transmission baseline the model checker
/// deviates from: exactly one transmitter per slot, rotating
/// round-robin through the entitled set (`capable`, as returned by
/// [`SlotStepper::begin_slot`]) by slot number. Every entitled node
/// transmits at least once in any window of `|capable|` slots, which
/// is what makes single-deviation exploration sound — see the model
/// checking section of DESIGN.md.
pub fn round_robin(capable: u64, slot: Slot) -> u64 {
    let k = capable.count_ones();
    if k == 0 {
        return 0;
    }
    let mut pick = (slot % k as u64) as u32;
    let mut m = capable;
    loop {
        let v = m.trailing_zeros();
        if pick == 0 {
            return 1u64 << v;
        }
        pick -= 1;
        m &= m - 1;
    }
}

/// Replays a recorded [`Witness`] from slot 0, driving `monitor`
/// through every hook. Stops early when the run completes; returns
/// `true` in that case.
pub fn replay<P: ObservableColoring, M: InvariantMonitor<P>>(
    graph: &Graph,
    wake: &[Slot],
    nodes: Vec<P>,
    witness: &Witness,
    monitor: &mut M,
) -> bool {
    let mut stepper = SlotStepper::new(graph, wake, nodes);
    for &choice in &witness.schedule {
        if stepper.step(choice, monitor) {
            return true;
        }
    }
    stepper.all_decided()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ColoringNode;
    use crate::params::AlgorithmParams;
    use radio_graph::generators::special::path;
    use radio_sim::NullMonitor;

    fn mc_params() -> AlgorithmParams {
        AlgorithmParams::practical(2, 2, 4)
    }

    fn fresh(n: usize) -> Vec<ColoringNode> {
        (1..=n as u64)
            .map(|id| ColoringNode::new(id as crate::messages::ProtoId, mc_params()))
            .collect()
    }

    #[test]
    fn round_robin_rotates_through_capable_set() {
        // capable = {0, 2, 5}: slots cycle 0, 2, 5, 0, ...
        let cap = 0b100101u64;
        assert_eq!(round_robin(cap, 0), 1 << 0);
        assert_eq!(round_robin(cap, 1), 1 << 2);
        assert_eq!(round_robin(cap, 2), 1 << 5);
        assert_eq!(round_robin(cap, 3), 1 << 0);
        assert_eq!(round_robin(0, 7), 0);
    }

    #[test]
    fn witness_mask_remap_drops_bit_and_shifts() {
        let w = Witness {
            schedule: vec![SlotChoice {
                tx: 0b1011,
                drop: 0b0100,
            }],
        };
        // Removing node 1: bit 1 vanishes, bits 2..= shift down.
        let r = w.without_node(1);
        assert_eq!(r.schedule[0].tx, 0b101);
        assert_eq!(r.schedule[0].drop, 0b010);
        // Removing node 0 keeps the upper bits shifted into place.
        let r0 = w.without_node(0);
        assert_eq!(r0.schedule[0].tx, 0b101);
        assert_eq!(r0.schedule[0].drop, 0b010);
    }

    #[test]
    fn lone_node_runs_to_leader() {
        let g = path(1);
        let mut s = SlotStepper::new(&g, &[0], fresh(1));
        let mut m = NullMonitor;
        let mut done = false;
        for _ in 0..200 {
            let cap = s.begin_slot(&mut m);
            if s.finish_slot(
                SlotChoice {
                    tx: round_robin(cap, s.slot()),
                    drop: 0,
                },
                &mut m,
            ) {
                done = true;
                break;
            }
        }
        assert!(done, "a lone node must elect itself leader");
        let obs = s.nodes()[0].observe(s.slot());
        assert_eq!(obs.committed_class(), Some(0));
    }

    #[test]
    fn inapplicable_choice_bits_are_ignored() {
        // Node 1 sleeps until slot 50: tx/drop bits for it are no-ops.
        let g = path(2);
        let mut s = SlotStepper::new(&g, &[0, 50], fresh(2));
        let mut m = NullMonitor;
        let cap = s.begin_slot(&mut m);
        assert_eq!(cap & (1 << 1), 0, "a sleeper is never capable");
        s.finish_slot(
            SlotChoice {
                tx: 0b10,
                drop: 0b11,
            },
            &mut m,
        );
        assert!(!s.awake(1));
        assert_eq!(s.slot(), 1);
    }

    #[test]
    fn singleton_receivers_respect_collisions() {
        // Path 0-1-2, all awake in Transmit (active) phase eventually;
        // force wake at 0 and advance past the waiting deadline.
        let g = path(3);
        let wake = [0, 0, 0];
        let mut s = SlotStepper::new(&g, &wake, fresh(3));
        let mut m = NullMonitor;
        let mut cap = 0;
        for _ in 0..mc_params().waiting_slots() + 1 {
            cap = s.begin_slot(&mut m);
            if cap != 0 {
                break;
            }
            s.finish_slot(SlotChoice::default(), &mut m);
        }
        assert_eq!(cap, 0b111, "all three reach the active phase");
        // Only node 0 transmitting: 1 hears it, 2 is out of range.
        assert_eq!(s.singleton_receivers(0b001), 0b010);
        // 0 and 2 both transmitting: their common neighbor 1 collides.
        assert_eq!(s.singleton_receivers(0b101), 0b000);
    }

    #[test]
    fn replay_matches_interactive_stepping() {
        let g = path(2);
        let wake = [0, 3];
        let mut s = SlotStepper::new(&g, &wake, fresh(2));
        let mut m = NullMonitor;
        let mut schedule = Vec::new();
        for _ in 0..300 {
            let cap = s.begin_slot(&mut m);
            let choice = SlotChoice {
                tx: round_robin(cap, s.slot()),
                drop: 0,
            };
            schedule.push(choice);
            if s.finish_slot(choice, &mut m) {
                break;
            }
        }
        assert!(s.all_decided());
        let witness = Witness { schedule };
        let mut replayed = SlotStepper::new(&g, &wake, fresh(2));
        for &c in &witness.schedule {
            if replayed.step(c, &mut m) {
                break;
            }
        }
        assert!(replayed.all_decided());
        for (a, b) in s.nodes().iter().zip(replayed.nodes()) {
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "replay must be bit-identical"
            );
        }
        // replay() helper agrees too.
        assert!(replay(&g, &wake, fresh(2), &witness, &mut NullMonitor));
    }
}
