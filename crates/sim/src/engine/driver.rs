//! The generic simulation driver: one owner for every cross-cutting
//! concern the sequential engines share.
//!
//! [`SimDriver`] holds one [`SlotKernel`] over all nodes — per-node RNG
//! streams, behaviors, stats, decision bookkeeping, the fault log and
//! the first protocol error — plus the built channel model and the
//! monitor, and exposes the kernel's per-node hooks as small methods
//! ([`wake_up`](SimDriver::wake_up),
//! [`fire_deadline`](SimDriver::fire_deadline),
//! [`compose`](SimDriver::compose), [`resolve`](SimDriver::resolve),
//! [`deliver`](SimDriver::deliver)) that fire the protocol callback,
//! validate the returned behavior, drive the monitor and update stats
//! in the one canonical order.
//!
//! An [`Engine`] is only a *slot-advance strategy*: a unit struct whose
//! [`drive`](Engine::drive) owns nothing but engine-local scheduling
//! state (an event heap, a packet queue) and calls back into the driver
//! for every semantic step — or, for [`Lockstep`](super::lockstep::Lockstep),
//! runs the kernel's four phases directly. The hook stack every run
//! goes through is:
//!
//! ```text
//!             SimDriver::run::<E, P, M>
//!                       │
//!             E::drive (slot advance)
//!        ┌──────────────┴──────────────┐
//!   Lockstep: kernel phases      EventSkip / Jittered:
//!   wake → deadline →            wake_up, fire_deadline,
//!   transmit → deliver           compose, resolve, deliver
//!        └──────────────┬──────────────┘
//!                       ▼
//!   SlotKernel per-node hook: RadioProtocol callback → take_breach
//!        → Behavior::validate_at → install
//!        │
//!        ▼
//!   ChannelModel::decide (resolve: Collide/Drop/Jam bookkeeping)
//!        │
//!        ▼
//!   InvariantMonitor hook (after_*, on_transmit, on_decided)
//!        │
//!        ▼
//!   NodeStats / fault log / first ProtocolError
//! ```
//!
//! [`SimDriver::run`] is the only entry point. The slot-parallel
//! sharded driver in [`super::sharded`] runs one kernel per shard; the
//! bit-identity pin in `tests/driver_identity.rs` compares it against
//! this sequential driver.

use super::kernel::SlotKernel;
use super::{collect_violations, ExecutedEngine, SimConfig, SimOutcome};
use crate::channel::{BuiltinChannel, Contention};
use crate::monitor::InvariantMonitor;
use crate::protocol::{Behavior, RadioProtocol, Slot};
use radio_graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;

/// What an [`Engine::drive`] implementation reports back to
/// [`SimDriver::run`] when the slot-advance loop ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// `true` if every node woke and decided before the slot budget ran
    /// out (the driver still vetoes this when a protocol error stopped
    /// the run).
    pub all_decided: bool,
    /// The highest slot processed.
    pub slots_run: Slot,
}

/// A slot-advance strategy: how simulated time moves forward.
///
/// Implementors are unit structs ([`Lockstep`](super::lockstep::Lockstep),
/// [`EventSkip`](super::event::EventSkip),
/// [`Jittered`](super::jittered::Jittered)) selected statically via
/// [`SimDriver::run`]; all protocol, channel, monitor and bookkeeping
/// semantics live in the driver's kernel, so an engine only decides
/// *which node acts at which slot* — never *what acting means*.
pub trait Engine {
    /// Extra per-run input the strategy needs beyond the common
    /// arguments: `()` for the aligned engines, the per-node phase bits
    /// for [`Jittered`](super::jittered::Jittered).
    type Aux<'a>: Copy;

    /// Advances the simulation to completion, calling back into the
    /// driver for every wake-up, deadline, transmission and delivery.
    fn drive<P: RadioProtocol, M: InvariantMonitor<P>>(
        driver: &mut SimDriver<'_, P, M>,
        aux: Self::Aux<'_>,
    ) -> Completion;
}

/// Shared simulation state and hook threading for all engines.
///
/// Constructed internally by [`SimDriver::run`]; engines receive
/// `&mut SimDriver` in [`Engine::drive`] and use the accessor and
/// stepping methods below. See the module docs for the hook stack.
pub struct SimDriver<'a, P: RadioProtocol, M: InvariantMonitor<P>> {
    graph: &'a Graph,
    wake: &'a [Slot],
    max_slots: Slot,
    monitor: &'a mut M,
    kernel: SlotKernel<P>,
    channel: BuiltinChannel,
}

impl<'a, P: RadioProtocol, M: InvariantMonitor<P>> SimDriver<'a, P, M> {
    /// Runs `protocols` on `graph` under slot-advance strategy `E`.
    ///
    /// This is the single code path behind every sequential run: it
    /// builds the shared state (the whole-graph kernel, the channel
    /// model), hands control to [`Engine::drive`], and assembles the
    /// [`SimOutcome`] epilogue (canonically sorted violations mirrored
    /// into the fault log).
    ///
    /// # Panics
    /// Panics if `wake.len()` or `protocols.len()` differ from
    /// `graph.len()` (and, for [`Jittered`](super::jittered::Jittered),
    /// if the phase vector length differs).
    pub fn run<E: Engine>(
        graph: &'a Graph,
        wake: &'a [Slot],
        protocols: Vec<P>,
        aux: E::Aux<'_>,
        seed: u64,
        cfg: &SimConfig,
        monitor: &'a mut M,
    ) -> SimOutcome<P> {
        let n = graph.len();
        assert_eq!(wake.len(), n, "wake schedule length mismatch");
        let mut driver = SimDriver {
            graph,
            wake,
            max_slots: cfg.max_slots,
            monitor,
            kernel: SlotKernel::whole(protocols, wake, seed),
            channel: cfg.channel.build(n, seed),
        };
        let completion = E::drive(&mut driver, aux);
        driver.finish(completion)
    }

    // ---- read-only accessors -------------------------------------------

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.wake.len()
    }

    /// The network graph (untied from the driver borrow, so engines can
    /// hold it across mutating driver calls).
    #[inline]
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// Per-node wake slots, in each node's local slot count.
    #[inline]
    pub fn wake(&self) -> &'a [Slot] {
        self.wake
    }

    /// The run's slot budget ([`SimConfig::max_slots`]).
    #[inline]
    pub fn max_slots(&self) -> Slot {
        self.max_slots
    }

    /// Node `v`'s current behavior segment (`None` before wake-up).
    #[inline]
    pub fn behavior(&self, v: NodeId) -> Option<Behavior> {
        self.kernel.behavior(v)
    }

    /// Node `v`'s current segment deadline, if any.
    #[inline]
    pub fn until(&self, v: NodeId) -> Option<Slot> {
        self.kernel.behavior(v).and_then(|b| b.until())
    }

    /// Number of nodes that have not yet decided.
    #[inline]
    pub fn undecided(&self) -> usize {
        self.kernel.undecided()
    }

    /// Node `v`'s private RNG stream (for engine-side schedule draws
    /// such as geometric transmission skips).
    #[inline]
    pub fn rng(&mut self, v: NodeId) -> &mut SmallRng {
        &mut self.kernel.rngs[v as usize]
    }

    /// The whole-graph kernel, the channel model and the monitor, for
    /// strategies that run the kernel's lock-step phases directly.
    pub(crate) fn parts(&mut self) -> (&mut SlotKernel<P>, &mut BuiltinChannel, &mut M) {
        (&mut self.kernel, &mut self.channel, &mut *self.monitor)
    }

    // ---- stepping methods ----------------------------------------------

    /// Wakes node `v` at `slot`: fires `on_wake`, validates and installs
    /// the returned behavior, drives the monitor and decision
    /// bookkeeping. Returns `false` on a protocol error (recorded; the
    /// engine must stop).
    #[inline]
    pub fn wake_up(&mut self, v: NodeId, slot: Slot) -> bool {
        self.kernel.wake_node(v, slot, self.monitor)
    }

    /// Fires node `v`'s deadline at `slot`: `on_deadline`, validation,
    /// monitor, decision bookkeeping. Returns `false` on a protocol
    /// error.
    #[inline]
    pub fn fire_deadline(&mut self, v: NodeId, slot: Slot) -> bool {
        self.kernel.fire_deadline(v, slot, self.monitor)
    }

    /// One Bernoulli transmission draw for node `v`'s current segment:
    /// `true` iff `v` is in a `Transmit { p, .. }` segment and the draw
    /// with probability `p` succeeds. Draws nothing for silent nodes.
    #[inline]
    pub fn bernoulli_tx(&mut self, v: NodeId) -> bool {
        match self.kernel.tx_p(v) {
            Some(p) => self.kernel.rngs[v as usize].gen_bool(p),
            None => false,
        }
    }

    /// Builds node `v`'s message for `slot` and fires the transmit-side
    /// hooks (monitor `on_transmit`, `sent` counter). `None` when the
    /// protocol breached its contract (recorded; the engine must stop).
    /// The caller owns the returned message's fate — aligned engines
    /// park it on the air via [`broadcast`](Self::broadcast), the
    /// jittered engine wraps it in a packet.
    #[inline]
    pub fn compose(&mut self, v: NodeId, slot: Slot) -> Option<P::Message> {
        self.kernel.compose(v, slot, self.monitor)
    }

    /// [`compose`](Self::compose) for aligned-slot engines: the message
    /// is parked on the air for this slot (read back by
    /// [`air`](Self::air) during delivery). `false` on a protocol error.
    #[inline]
    pub fn broadcast(&mut self, v: NodeId, slot: Slot) -> bool {
        let Some(msg) = self.compose(v, slot) else {
            return false;
        };
        self.kernel.air[v as usize] = Some(msg);
        true
    }

    /// The message node `w` parked on the air this slot (cloned), if
    /// any. Aligned engines never clear the air between slots — the
    /// delivery kernel only ever reports current-slot transmitters.
    #[inline]
    pub fn air(&self, w: NodeId) -> Option<P::Message> {
        self.kernel.air[w as usize].clone()
    }

    /// Lets the channel model decide a contention. On
    /// [`Reception::Deliver`](crate::channel::Reception::Deliver) returns
    /// the winning transmitter; the
    /// Collide / Drop / Jam outcomes are fully absorbed here (listener
    /// stats, bounded fault log) and return `None`.
    #[inline]
    pub fn resolve(&mut self, c: &Contention) -> Option<NodeId> {
        self.kernel.resolve(c.listener, c, &mut self.channel)
    }

    /// Delivers `msg` to listener `u` at its local `slot`: `received`
    /// counter, `on_receive`, validation of any returned behavior,
    /// monitor `after_receive`, decision bookkeeping. `Ok(true)` means
    /// the node installed a new behavior segment (engines react by
    /// re-activating / re-scheduling it); `Err(())` means a protocol
    /// error stopped the run — the unit error is deliberate: the typed
    /// [`ProtocolError`](crate::protocol::ProtocolError) is recorded on
    /// the kernel and surfaces in [`SimOutcome::error`], engines only
    /// need the stop signal.
    #[inline]
    #[allow(clippy::result_unit_err)]
    pub fn deliver(&mut self, u: NodeId, slot: Slot, msg: &P::Message) -> Result<bool, ()> {
        self.kernel.receive(u, slot, msg, self.monitor).ok_or(())
    }

    /// The engine epilogue: canonicalizes the channel-fault log, drains
    /// and sorts monitor violations, mirrors them into the fault log,
    /// and assembles the outcome.
    fn finish(self, completion: Completion) -> SimOutcome<P> {
        let SlotKernel {
            protocols,
            stats,
            mut faults,
            mut faults_dropped,
            error,
            ..
        } = self.kernel;
        // Channel faults are logged in delivery-visit order, which is an
        // engine-internal detail (the lock-step engine walks its active
        // set, the sharded driver merges per-shard logs). Sort them into
        // the canonical (slot, node) order — unique per fault, since a
        // listener records at most one Drop/Jam per slot — *before* the
        // monitor's violations are mirrored in, so outcomes compare
        // across execution strategies.
        faults.sort_by_key(|e| (e.slot(), e.node()));
        let violations = collect_violations::<P, M>(self.monitor, &mut faults, &mut faults_dropped);
        SimOutcome {
            protocols,
            stats,
            all_decided: completion.all_decided && error.is_none(),
            slots_run: completion.slots_run,
            error,
            faults,
            faults_dropped,
            violations,
            executed: ExecutedEngine::Sequential,
        }
    }
}
