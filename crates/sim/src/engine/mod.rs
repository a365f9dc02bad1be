//! Simulation engines.
//!
//! Two engines share identical semantics (see the ordering contract in
//! [`crate::protocol`]):
//!
//! * [`lockstep`] — the auditable reference: slot by slot, transmission
//!   is one Bernoulli draw per node in a transmit segment; deadline and
//!   compaction sweeps run only on slots that can have work for them.
//! * [`event`] — the fast engine: transmissions are geometric skips,
//!   deadlines and wake-ups are heap events, and work happens only at
//!   slots where something is on the air. `O(events·log n)` instead of
//!   `O(slots·n)`.
//!
//! Experiment E14 and the integration tests cross-validate them. A
//! third, model-extension engine lives in [`jittered`]: non-aligned
//! slots with half-slot phase offsets (paper Sect. 2's remark). When
//! all phases agree it makes the lock-step engine's decisions — colors,
//! decision slots, transmissions — but stops with the last slot's
//! packets in flight and counts collisions per lost packet, so its
//! `received`, `collisions` and `slots_run` differ.
//!
//! The intra-slot rule itself is written once, in [`kernel`]: the
//! lock-step and event engines both deliver through its scatter and
//! delivery phase. All three engines are *slot-advance strategies*
//! ([`driver::Engine`] implementors) over the generic
//! [`driver::SimDriver`], which holds one whole-graph kernel plus the
//! channel model and the monitor. See the [`driver`] module docs for
//! the hook stack.
//!
//! A fourth execution strategy, the slot-parallel driver in
//! [`sharded`], partitions the node set spatially and runs one kernel
//! per shard, concurrently within each slot — verified bit-identical to
//! the sequential driver in `tests/driver_identity.rs` and sized for
//! million-node runs. The model checker's stepper
//! (`urn_coloring::step::SlotStepper`) is a kernel too.

pub mod driver;
pub mod event;
pub mod jittered;
pub mod kernel;
pub mod lockstep;
pub mod sharded;

use crate::channel::ChannelSpec;
use crate::monitor::{sort_violations, InvariantMonitor, Violation};
use crate::protocol::{ProtocolError, RadioProtocol, Slot};
use crate::trace::Event;

/// Engine limits and options.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Hard stop: the run aborts (with `all_decided = false`) if it
    /// reaches this slot.
    pub max_slots: Slot,
    /// The channel model deciding deliveries (see [`crate::channel`]).
    /// [`ChannelSpec::Ideal`] is the paper's model and is bit-identical
    /// to the pre-channel-layer engines.
    pub channel: ChannelSpec,
    /// Shard count for the sharded driver
    /// ([`crate::EngineKind::Sharded`]); `0` picks one shard per
    /// available worker thread. Ignored by the sequential engines.
    pub shards: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_slots: 50_000_000,
            channel: ChannelSpec::Ideal,
            shards: 0,
        }
    }
}

impl SimConfig {
    /// The default configuration with a custom slot cap.
    pub fn with_max_slots(max_slots: Slot) -> Self {
        SimConfig {
            max_slots,
            ..SimConfig::default()
        }
    }

    /// Replaces the channel model (builder style).
    pub fn with_channel(mut self, channel: ChannelSpec) -> Self {
        self.channel = channel;
        self
    }

    /// Sets the shard count for the sharded driver (builder style);
    /// `0` means auto (one shard per available worker thread).
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }
}

/// Cap on the per-run injected-fault event log ([`SimOutcome::faults`]):
/// aggregates in [`NodeStats`] stay exact, the per-slot log is bounded
/// so a long faulty run cannot eat the heap.
pub const MAX_FAULT_LOG: usize = 1 << 16;

/// Appends a fault event to a bounded log. Past [`MAX_FAULT_LOG`] the
/// event is dropped and counted in `dropped` (surfaced as
/// [`SimOutcome::faults_dropped`]); the [`NodeStats`] counters stay
/// exact either way.
#[inline]
pub(crate) fn log_fault(log: &mut Vec<Event>, dropped: &mut u64, e: Event) {
    if log.len() < MAX_FAULT_LOG {
        log.push(e);
    } else {
        *dropped += 1;
    }
}

/// Engine epilogue for the monitor: drains the monitor's violations,
/// sorts them into the canonical engine-independent order and mirrors
/// each one into the bounded fault log as [`Event::Violation`] (after
/// the channel faults, which the engines log as they happen).
pub(crate) fn collect_violations<P: RadioProtocol, M: InvariantMonitor<P>>(
    monitor: &mut M,
    faults: &mut Vec<Event>,
    faults_dropped: &mut u64,
) -> Vec<Violation> {
    let mut vs = monitor.take_violations();
    sort_violations(&mut vs);
    for v in &vs {
        log_fault(
            faults,
            faults_dropped,
            Event::Violation {
                node: v.node,
                slot: v.slot,
            },
        );
    }
    vs
}

/// Per-node counters collected by the engines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Wake-up slot.
    pub wake: Slot,
    /// Slot at which [`crate::protocol::RadioProtocol::is_decided`]
    /// first became true.
    pub decided_at: Option<Slot>,
    /// Number of transmissions.
    pub sent: u64,
    /// Number of successfully received messages.
    pub received: u64,
    /// Number of slots in which this node was listening while two or
    /// more neighbors transmitted. The *node* cannot observe this (no
    /// collision detection); the simulator records it for analysis only.
    pub collisions: u64,
    /// Deliverable slots the channel model dropped at this listener
    /// (fading / probabilistic loss). Like collisions, invisible to the
    /// node itself.
    pub drops: u64,
    /// Deliverable slots an adversarial channel jammed at this listener.
    pub jams: u64,
}

impl NodeStats {
    /// The paper's per-node time complexity `T_v`: slots from wake-up to
    /// the irrevocable final decision.
    pub fn decision_time(&self) -> Option<Slot> {
        self.decided_at.map(|d| d - self.wake)
    }
}

/// Which execution strategy actually stepped the run.
///
/// [`crate::EngineKind::Sharded`] silently degrades to the sequential
/// driver when the partition has a single shard or the channel model is
/// not shardable ([`ChannelSpec::is_shardable`]). Scaling sweeps that
/// read wall-clock numbers off such a run would misattribute them to
/// the parallel driver, so every outcome carries the engine that truly
/// executed it ([`SimOutcome::executed`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutedEngine {
    /// A sequential slot-advance strategy ran on one thread (lock-step,
    /// event-driven, jittered, or a sharded request that fell back).
    Sequential,
    /// The slot-parallel sharded driver ran with this many shards
    /// (always ≥ 2; a 1-shard request executes sequentially).
    Sharded {
        /// Number of shards stepped concurrently.
        shards: u32,
    },
}

impl ExecutedEngine {
    /// `true` iff the slot-parallel driver actually ran.
    pub fn is_parallel(&self) -> bool {
        matches!(self, ExecutedEngine::Sharded { .. })
    }
}

impl std::fmt::Display for ExecutedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecutedEngine::Sequential => write!(f, "sequential"),
            ExecutedEngine::Sharded { shards } => write!(f, "sharded({shards})"),
        }
    }
}

/// Result of a simulation run.
#[derive(Clone, Debug)]
pub struct SimOutcome<P> {
    /// Final protocol states, indexed by node.
    pub protocols: Vec<P>,
    /// Per-node statistics.
    pub stats: Vec<NodeStats>,
    /// `true` if every node decided before `max_slots`.
    pub all_decided: bool,
    /// The highest slot processed.
    pub slots_run: Slot,
    /// The first malformed behavior a protocol callback returned, if
    /// any: the run stopped there gracefully instead of panicking
    /// (`all_decided` is `false` in that case).
    pub error: Option<ProtocolError>,
    /// Injected channel faults ([`Event::Drop`] / [`Event::Jam`]) in
    /// slot order, capped at [`MAX_FAULT_LOG`] entries (the per-node
    /// counters in [`NodeStats`] remain exact beyond the cap). Empty
    /// under [`ChannelSpec::Ideal`].
    pub faults: Vec<Event>,
    /// Number of fault events that did not fit in [`SimOutcome::faults`]
    /// once it reached [`MAX_FAULT_LOG`] — `0` means the log is
    /// complete, anything else says exactly how much was truncated.
    pub faults_dropped: u64,
    /// Invariant violations reported by the run's
    /// [`crate::monitor::InvariantMonitor`], in canonical
    /// `(slot, node, rule, detail)` order so monitored outcomes compare
    /// across engines. Empty for unmonitored runs (the plain `run_*`
    /// entry points) and for monitored runs that stayed clean.
    pub violations: Vec<Violation>,
    /// The execution strategy that actually stepped the run — in
    /// particular, whether a sharded request really ran in parallel or
    /// fell back to the sequential driver (see [`ExecutedEngine`]).
    pub executed: ExecutedEngine,
}

impl<P> SimOutcome<P> {
    /// The algorithm's time complexity: the maximum `T_v` over all nodes
    /// (paper Sect. 2). `None` if some node never decided.
    pub fn max_decision_time(&self) -> Option<Slot> {
        self.stats
            .iter()
            .map(NodeStats::decision_time)
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .max()
    }

    /// Total number of transmissions across all nodes.
    pub fn total_sent(&self) -> u64 {
        self.stats.iter().map(|s| s.sent).sum()
    }

    /// Total number of collision slots observed across all listeners.
    pub fn total_collisions(&self) -> u64 {
        self.stats.iter().map(|s| s.collisions).sum()
    }

    /// Total channel-dropped deliveries across all listeners.
    pub fn total_drops(&self) -> u64 {
        self.stats.iter().map(|s| s.drops).sum()
    }

    /// Total adversarially jammed deliveries across all listeners.
    pub fn total_jams(&self) -> u64 {
        self.stats.iter().map(|s| s.jams).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_time_is_relative_to_wake() {
        let s = NodeStats {
            wake: 10,
            decided_at: Some(25),
            ..NodeStats::default()
        };
        assert_eq!(s.decision_time(), Some(15));
        let s = NodeStats {
            wake: 10,
            decided_at: None,
            ..NodeStats::default()
        };
        assert_eq!(s.decision_time(), None);
    }

    #[test]
    fn outcome_aggregates() {
        let out: SimOutcome<()> = SimOutcome {
            protocols: vec![(), ()],
            stats: vec![
                NodeStats {
                    wake: 0,
                    decided_at: Some(7),
                    sent: 3,
                    received: 1,
                    collisions: 2,
                    drops: 1,
                    jams: 0,
                },
                NodeStats {
                    wake: 2,
                    decided_at: Some(5),
                    sent: 4,
                    received: 0,
                    collisions: 1,
                    drops: 0,
                    jams: 2,
                },
            ],
            all_decided: true,
            slots_run: 7,
            error: None,
            faults: Vec::new(),
            faults_dropped: 0,
            violations: Vec::new(),
            executed: ExecutedEngine::Sequential,
        };
        assert_eq!(out.max_decision_time(), Some(7));
        assert_eq!(out.total_sent(), 7);
        assert_eq!(out.total_collisions(), 3);
        assert_eq!(out.total_drops(), 1);
        assert_eq!(out.total_jams(), 2);
    }

    #[test]
    fn undecided_node_voids_max_decision_time() {
        let out: SimOutcome<()> = SimOutcome {
            protocols: vec![()],
            stats: vec![NodeStats {
                wake: 0,
                decided_at: None,
                ..NodeStats::default()
            }],
            all_decided: false,
            slots_run: 9,
            error: None,
            faults: Vec::new(),
            faults_dropped: 0,
            violations: Vec::new(),
            executed: ExecutedEngine::Sharded { shards: 4 },
        };
        assert_eq!(out.max_decision_time(), None);
    }

    #[test]
    fn default_config_is_generous() {
        assert!(SimConfig::default().max_slots >= 1_000_000);
    }

    #[test]
    fn fault_log_truncation_is_counted() {
        let mut log = Vec::new();
        let mut dropped = 0u64;
        for s in 0..(MAX_FAULT_LOG as u64 + 10) {
            log_fault(&mut log, &mut dropped, Event::Drop { node: 0, slot: s });
        }
        assert_eq!(log.len(), MAX_FAULT_LOG);
        assert_eq!(dropped, 10);
    }
}
