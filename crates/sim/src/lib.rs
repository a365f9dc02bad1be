//! Simulator for the *unstructured radio network model* (Kuhn,
//! Moscibroda & Wattenhofer), as used by the SPAA 2005 coloring paper:
//!
//! * time is divided into synchronized discrete slots;
//! * in each slot a node either transmits or listens, never both;
//! * a listening node receives a message **iff exactly one** of its
//!   graph neighbors transmits — otherwise it hears nothing, and it
//!   cannot distinguish silence from collision (no collision detection);
//! * nodes wake up asynchronously under an arbitrary (possibly
//!   worst-case) schedule; sleeping nodes neither send nor receive;
//! * there is a single communication channel.
//!
//! Protocols implement [`protocol::RadioProtocol`] and run under the
//! lock-step reference engine, the event-driven fast engine, or the
//! slot-parallel sharded driver; all implement identical semantics
//! (cross-validated in tests and in experiment E14). The intra-slot
//! rule is written once, in the slot kernel
//! ([`engine::kernel::SlotKernel`]), which the lock-step engine, every
//! shard of the sharded driver and the model checker's stepper run,
//! and whose per-node hooks the other engines call.
//!
//! # Example: a minimal protocol
//!
//! A node that beacons with probability ¼ and is "done" after hearing
//! three neighbors:
//!
//! ```
//! use radio_sim::{Behavior, EngineKind, RadioProtocol, SimConfig, Slot};
//! use rand::rngs::SmallRng;
//!
//! struct Hello { heard: u32 }
//!
//! impl RadioProtocol for Hello {
//!     type Message = u64;
//!     fn on_wake(&mut self, _now: Slot, _rng: &mut SmallRng) -> Behavior {
//!         Behavior::Transmit { p: 0.25, until: None }
//!     }
//!     fn on_deadline(&mut self, _now: Slot, _rng: &mut SmallRng) -> Behavior {
//!         unreachable!("no deadlines scheduled")
//!     }
//!     fn message(&mut self, now: Slot, _rng: &mut SmallRng) -> u64 { now }
//!     fn on_receive(&mut self, _now: Slot, _m: &u64, _rng: &mut SmallRng) -> Option<Behavior> {
//!         self.heard += 1;
//!         None
//!     }
//!     fn is_decided(&self) -> bool { self.heard >= 3 }
//! }
//!
//! let g = radio_graph::generators::special::complete(5);
//! let protos = (0..5).map(|_| Hello { heard: 0 }).collect();
//! let out = EngineKind::Event.run(&g, &[0; 5], protos, 7, &SimConfig::default());
//! assert!(out.all_decided);
//! assert!(out.stats.iter().all(|s| s.received >= 3));
//! ```

pub mod channel;
pub mod delivery;
pub mod engine;
pub mod monitor;
pub mod parallel;
pub mod protocol;
pub mod rng;
pub mod trace;
pub mod wakeup;

pub use channel::{
    AdversarialJam, BuiltinChannel, ChannelModel, ChannelSpec, Contention, GilbertElliott, Ideal,
    ProbabilisticLoss, Reception,
};
pub use delivery::{DeliveryKernel, OverlapKernel};
pub use engine::driver::{Completion, Engine, SimDriver};
pub use engine::event::EventSkip;
pub use engine::jittered::{random_phases, Jittered};
pub use engine::kernel::SlotKernel;
pub use engine::lockstep::Lockstep;
pub use engine::sharded::run_sharded;
pub use engine::{ExecutedEngine, NodeStats, SimConfig, SimOutcome, MAX_FAULT_LOG};
pub use monitor::{
    sort_violations, EngineOrderMonitor, Fanout, InvariantMonitor, NullMonitor, Violation,
    MAX_VIOLATIONS,
};
pub use protocol::{Behavior, BehaviorFault, ProtocolError, RadioProtocol, Slot};
pub use trace::{render_timeline, Event, Recorded, Recorder};
pub use wakeup::{wake_wave, WakePattern};

/// Which slot-advance strategy executes a run — the dynamic
/// (value-level) selector used by experiments, scenario specs and the
/// repro corpus. The static counterpart is the [`Engine`] trait; the
/// sequential variants dispatch to the matching unit struct
/// ([`Lockstep`], [`EventSkip`], [`Jittered`]) through
/// [`SimDriver::run`], the [`Sharded`](EngineKind::Sharded) variant to
/// [`run_sharded`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The per-slot reference engine.
    Lockstep,
    /// The event-driven fast engine.
    Event,
    /// The non-aligned half-slot engine, with phase bits drawn from the
    /// run seed via [`random_phases`].
    Jittered,
    /// The slot-parallel sharded driver: a contiguous partition with
    /// [`SimConfig::shards`] shards (`0` = one per worker thread),
    /// bit-identical to [`Lockstep`](EngineKind::Lockstep). Spatial
    /// partitions are available through [`run_sharded`] directly.
    Sharded,
}

impl EngineKind {
    /// Every selectable engine, in canonical order.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Lockstep,
        EngineKind::Event,
        EngineKind::Jittered,
        EngineKind::Sharded,
    ];

    /// Stable lowercase name, used in scenario specs and the repro
    /// corpus JSON.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Lockstep => "lockstep",
            EngineKind::Event => "event",
            EngineKind::Jittered => "jittered",
            EngineKind::Sharded => "sharded",
        }
    }

    /// Inverse of [`EngineKind::name`].
    pub fn from_name(name: &str) -> Option<EngineKind> {
        match name {
            "lockstep" => Some(EngineKind::Lockstep),
            "event" => Some(EngineKind::Event),
            "jittered" => Some(EngineKind::Jittered),
            "sharded" => Some(EngineKind::Sharded),
            _ => None,
        }
    }

    /// Runs `protocols` on `graph` under this engine.
    pub fn run<P>(
        self,
        graph: &radio_graph::Graph,
        wake: &[Slot],
        protocols: Vec<P>,
        seed: u64,
        cfg: &SimConfig,
    ) -> SimOutcome<P>
    where
        P: RadioProtocol + Send,
        P::Message: Send,
    {
        self.run_monitored(graph, wake, protocols, seed, cfg, &mut NullMonitor)
    }

    /// Runs `protocols` on `graph` under this engine with an
    /// [`InvariantMonitor`] attached (monitors are pure observers, so
    /// outcomes are bit-identical to [`EngineKind::run`]).
    pub fn run_monitored<P, M>(
        self,
        graph: &radio_graph::Graph,
        wake: &[Slot],
        protocols: Vec<P>,
        seed: u64,
        cfg: &SimConfig,
        monitor: &mut M,
    ) -> SimOutcome<P>
    where
        P: RadioProtocol + Send,
        P::Message: Send,
        M: InvariantMonitor<P>,
    {
        match self {
            EngineKind::Lockstep => {
                SimDriver::run::<Lockstep>(graph, wake, protocols, (), seed, cfg, monitor)
            }
            EngineKind::Event => {
                SimDriver::run::<EventSkip>(graph, wake, protocols, (), seed, cfg, monitor)
            }
            EngineKind::Jittered => {
                let phases = random_phases(graph.len(), seed);
                SimDriver::run::<Jittered>(graph, wake, protocols, &phases, seed, cfg, monitor)
            }
            EngineKind::Sharded => {
                let k = match cfg.shards {
                    0 => parallel::default_threads(),
                    k => k as usize,
                };
                let partition = radio_graph::Partition::contiguous(graph.len(), k);
                run_sharded(graph, wake, protocols, seed, cfg, monitor, &partition)
            }
        }
    }
}
