//! Medium-level reception vocabulary.
//!
//! The unstructured radio network model (paper Sect. 2) delivers a
//! message to a listener iff **exactly one** of its graph neighbors
//! transmits in the slot — no collision detection, no fading. A driver
//! observes each listener's slot as a [`Contention`] and maps it to a
//! [`Reception`]; the simulator's pluggable channel models live on top
//! of this vocabulary in `radio-sim::channel`, where `Ideal` is the
//! paper's rule.

use crate::protocol::Slot;
use radio_graph::NodeId;

/// One reception opportunity: what the delivery kernel observed at a
/// single (listener, slot) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Contention {
    /// The listening node.
    pub listener: NodeId,
    /// The listener's (local) slot.
    pub slot: Slot,
    /// Number of transmitting neighbors, ≥ 1. Sources that cannot count
    /// beyond "more than one" (the reference sweep, the overlap kernel)
    /// report 2 for any collision; models must not distinguish counts
    /// ≥ 2.
    pub transmitters: u32,
    /// The unique sender when `transmitters == 1`.
    pub winner: Option<NodeId>,
}

/// What the listener experiences in the slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reception {
    /// The message of this (unique) sender is decoded.
    Deliver(NodeId),
    /// Two or more neighbors transmitted: physical collision.
    Collide,
    /// The channel silently lost a deliverable slot.
    Drop,
    /// An adversary jammed a deliverable slot.
    Jam,
}
