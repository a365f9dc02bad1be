//! The vocabulary under the radio protocol FSM, shared by every crate
//! that runs it.
//!
//! The MW-2005 node state machine is written against
//! [`RadioProtocol`]: a handful of callbacks fired on wake-up,
//! deadlines, transmissions and receptions, each threaded with the
//! node's private RNG stream. One driver fires them: the slot kernel in
//! `radio-sim`, which the simulator's engines, the model checker's
//! stepper and the `colord` service all step. This crate holds what
//! those users share without depending on the simulator:
//!
//! * [`protocol`] — slots, behavior segments, the callback contract and
//!   its typed faults (`radio-sim` re-exports them);
//! * [`medium`] — the [`Contention`] a listener observes and the
//!   [`Reception`] a channel model maps it to;
//! * [`rng`] — the per-node streams `node_rng(seed, index)` every driver
//!   draws from;
//! * [`frame`] — length-prefixed frames and the [`WireMessage`] codec
//!   of `colord`'s client protocol;
//! * [`barrier`] — the [`SpinBarrier`] the slot-parallel loops (the
//!   sharded driver, `colord`'s shard workers) synchronize on.
//!
//! Layering: this crate sits *below* `radio-sim` (it depends only on
//! `radio-graph` and the vendored `rand`).

pub mod barrier;
pub mod frame;
pub mod medium;
pub mod protocol;
pub mod rng;

pub use barrier::SpinBarrier;
pub use frame::{read_frame, write_frame, FrameError, FramePayload, FrameReader, WireMessage};
pub use medium::{Contention, Reception};
pub use protocol::{Behavior, BehaviorFault, ProtocolError, RadioProtocol, Slot};
pub use rng::node_rng;
