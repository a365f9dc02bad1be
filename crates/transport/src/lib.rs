//! The transport seam under the radio protocol FSM.
//!
//! The MW-2005 node state machine is written against
//! [`RadioProtocol`]: a handful of callbacks fired on wake-up,
//! deadlines, transmissions and receptions, each threaded with the
//! node's private RNG stream. Historically the only thing that could
//! fire those callbacks was the simulator's slot-loop engines; this
//! crate extracts the protocol-driving surface so the *identical* FSM
//! code path runs over any medium that implements [`Transport`]:
//!
//! * the simulator (`radio-sim` re-exports this crate's protocol types
//!   and its engines remain one — highly optimized — driver of it);
//! * the in-process [`loopback`] medium: one OS thread per node, a
//!   shared slot clock, exactly the paper's collision rule — and
//!   bit-identical to the simulator's lock-step engine for the same
//!   `(graph, wake, seed)` (pinned by `tests/transport_equivalence.rs`
//!   at the workspace root).
//!
//! Layering: this crate sits *below* `radio-sim` (it depends only on
//! `radio-graph` and the vendored `rand`), so the simulator, the
//! algorithm crate and the `colord` service can all share one
//! definition of slots, behaviors, contention, wire framing and the
//! [`SpinBarrier`] their slot-parallel loops synchronize on.

pub mod barrier;
pub mod frame;
pub mod loopback;
pub mod medium;
pub mod protocol;
pub mod pump;
pub mod rng;

pub use barrier::SpinBarrier;
pub use frame::{read_frame, write_frame, FrameError, FramePayload, FrameReader, WireMessage};
pub use loopback::{run_loopback, LoopbackEndpoint, LoopbackHub, LoopbackOutcome};
pub use medium::{Contention, Reception};
pub use protocol::{Behavior, BehaviorFault, ProtocolError, RadioProtocol, Slot};
pub use pump::{pump_node, NodeReport, PumpError, Transport};
pub use rng::node_rng;
