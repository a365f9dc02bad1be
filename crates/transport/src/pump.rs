//! The [`Transport`] seam and the transport-neutral protocol pump.
//!
//! [`pump_node`] is the one piece of code that drives a
//! [`RadioProtocol`] over a byte-oriented medium: it owns the node's
//! behavior segment, fires the callbacks in the intra-slot order the
//! protocol contract specifies (wake → deadline → transmission draw →
//! delivery), and consumes the node's private RNG stream in *exactly*
//! the sequence the simulator's `SimDriver` does — one `gen_bool(p)`
//! per transmit-segment slot, one `message` draw per transmission,
//! nothing else. That is what makes the loopback medium bit-identical
//! to the lock-step engine: same `(seed, node)` stream, same draw
//! sequence, same protocol code.
//!
//! A [`Transport`] is a blocking, slot-synchronous view of the medium
//! from one node's side:
//!
//! ```text
//!    next_slot() ──► Some(t)                 (the shared clock ticks)
//!    offer(t, Some(bytes) | None)            (transmit or listen)
//!    collect(t) ──► Some(bytes) | None       (what the medium delivered)
//!    commit(t, decided)                      (close the slot)
//! ```
//!
//! Every endpoint passes through all four calls every slot; the medium
//! resolves contention between `offer` and `collect` (under the ideal
//! rule a listener hears a frame iff exactly one neighbor offered one)
//! and uses the `commit` flags to decide when the whole run stops.

use crate::frame::{FrameError, WireMessage};
use crate::protocol::{Behavior, ProtocolError, RadioProtocol, Slot};
use radio_graph::NodeId;
use rand::rngs::SmallRng;
use rand::Rng;
use std::fmt;

/// One node's blocking, slot-synchronous connection to a medium.
///
/// See the [module docs](self) for the per-slot call sequence. A
/// `Transport` may be dropped mid-slot (a crashed or erroring node);
/// media must treat a dropped endpoint as permanently silent and
/// decided rather than deadlocking the surviving nodes.
pub trait Transport {
    /// Medium-specific failure type (I/O errors for a networked
    /// medium, infallible for the in-process loopback medium).
    type Error: fmt::Debug;

    /// Blocks until the shared clock reaches the next slot. `None`
    /// means the medium shut down (all nodes decided, the slot budget
    /// ran out, or the server went away) and the pump must stop.
    fn next_slot(&mut self) -> Result<Option<Slot>, Self::Error>;

    /// Declares this node's action for `slot`: `Some(frame)` transmits
    /// the encoded message, `None` listens.
    fn offer(&mut self, slot: Slot, tx: Option<Vec<u8>>) -> Result<(), Self::Error>;

    /// Blocks until the medium resolved `slot` and returns the frame
    /// delivered to this node, if any. A transmitter never receives.
    fn collect(&mut self, slot: Slot) -> Result<Option<Vec<u8>>, Self::Error>;

    /// Closes `slot` for this node, reporting whether its protocol has
    /// reached its irrevocable decision (media stop the clock once every
    /// live node commits `true`).
    fn commit(&mut self, slot: Slot, decided: bool) -> Result<(), Self::Error>;
}

/// Why [`pump_node`] stopped before the medium shut down cleanly.
#[derive(Debug)]
pub enum PumpError<E> {
    /// The protocol returned a malformed behavior.
    Protocol(ProtocolError),
    /// A delivered frame failed to decode.
    Frame {
        /// Node the frame was delivered to.
        node: NodeId,
        /// Slot of the delivery.
        slot: Slot,
        /// The decode failure.
        error: FrameError,
    },
    /// The transport itself failed.
    Transport(E),
}

impl<E: fmt::Debug> fmt::Display for PumpError<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PumpError::Protocol(e) => write!(f, "protocol error: {e}"),
            PumpError::Frame { node, slot, error } => {
                write!(f, "node {node} at slot {slot}: undecodable frame: {error}")
            }
            PumpError::Transport(e) => write!(f, "transport error: {e:?}"),
        }
    }
}

impl<E: fmt::Debug> std::error::Error for PumpError<E> {}

/// What one pumped node did over its run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeReport {
    /// The node's wake-up slot.
    pub wake: Slot,
    /// Slot at which [`RadioProtocol::is_decided`] first became true.
    pub decided_at: Option<Slot>,
    /// Number of transmissions.
    pub sent: u64,
    /// Number of successfully received messages.
    pub received: u64,
    /// The last slot this node processed.
    pub last_slot: Slot,
}

/// Drives `protocol` over `transport` until the medium shuts down.
///
/// `node` only labels errors; `wake` is the slot at which the node
/// wakes (it sleeps — neither sends nor receives — before that). The
/// RNG must be the node's private stream
/// ([`node_rng(seed, index)`](crate::rng::node_rng)) for cross-driver
/// bit-identity.
///
/// # Errors
/// Stops early on a malformed behavior, an undecodable frame, or a
/// transport failure. The transport is dropped by the caller in that
/// case; media detach dropped endpoints instead of deadlocking.
pub fn pump_node<P, T>(
    node: NodeId,
    wake: Slot,
    protocol: &mut P,
    rng: &mut SmallRng,
    transport: &mut T,
) -> Result<NodeReport, PumpError<T::Error>>
where
    P: RadioProtocol,
    P::Message: WireMessage,
    T: Transport,
{
    // Drains a contract breach recorded by the last protocol callback
    // into the typed error every driver reports for one.
    fn breach_check<P: RadioProtocol, E>(
        protocol: &mut P,
        node: NodeId,
        slot: Slot,
    ) -> Result<(), PumpError<E>> {
        match protocol.take_breach() {
            Some(fault) => Err(PumpError::Protocol(ProtocolError { node, slot, fault })),
            None => Ok(()),
        }
    }

    let mut behavior: Option<Behavior> = None;
    let mut report = NodeReport {
        wake,
        ..NodeReport::default()
    };
    // Mirrors SimDriver::note_decided: record the first slot at which
    // the protocol reports decided, checked after each callback.
    let note = |p: &P, slot: Slot, report: &mut NodeReport| {
        if report.decided_at.is_none() && p.is_decided() {
            report.decided_at = Some(slot);
        }
    };

    while let Some(slot) = transport.next_slot().map_err(PumpError::Transport)? {
        report.last_slot = slot;
        let awake = slot >= wake;

        // 1. Wake-up, or 2. deadline — mutually exclusive within a slot
        // (a fresh segment's deadline is strictly in the future).
        if awake && behavior.is_none() {
            let b = protocol.on_wake(slot, rng);
            breach_check(protocol, node, slot)?;
            b.validate_at(slot)
                .map_err(|fault| PumpError::Protocol(ProtocolError { node, slot, fault }))?;
            behavior = Some(b);
            note(protocol, slot, &mut report);
        } else if let Some(b) = behavior {
            if b.until() == Some(slot) {
                let nb = protocol.on_deadline(slot, rng);
                breach_check(protocol, node, slot)?;
                nb.validate_at(slot)
                    .map_err(|fault| PumpError::Protocol(ProtocolError { node, slot, fault }))?;
                behavior = Some(nb);
                note(protocol, slot, &mut report);
            }
        }

        // 3. Transmission decision: one Bernoulli draw per slot in a
        // transmit segment, none otherwise (matches
        // SimDriver::bernoulli_tx's draw discipline exactly).
        let mut transmitted = false;
        let tx = match behavior {
            Some(Behavior::Transmit { p, .. }) if rng.gen_bool(p) => {
                transmitted = true;
                report.sent += 1;
                let msg = protocol.message(slot, rng);
                breach_check(protocol, node, slot)?;
                Some(msg.to_payload())
            }
            _ => None,
        };
        transport.offer(slot, tx).map_err(PumpError::Transport)?;

        // 4. Delivery. The medium never delivers to a transmitter; the
        // sleeping check is ours (media don't know wake schedules).
        let delivered = transport.collect(slot).map_err(PumpError::Transport)?;
        if let Some(bytes) = delivered {
            if awake && !transmitted {
                let msg = P::Message::from_payload(&bytes).map_err(|error| PumpError::Frame {
                    node,
                    slot,
                    error,
                })?;
                report.received += 1;
                let nb = protocol.on_receive(slot, &msg, rng);
                breach_check(protocol, node, slot)?;
                if let Some(nb) = nb {
                    nb.validate_at(slot).map_err(|fault| {
                        PumpError::Protocol(ProtocolError { node, slot, fault })
                    })?;
                    // Takes effect at slot + 1: this slot's transmission
                    // phase already ran.
                    behavior = Some(nb);
                }
                note(protocol, slot, &mut report);
            }
        }

        transport
            .commit(slot, protocol.is_decided())
            .map_err(PumpError::Transport)?;
    }
    Ok(report)
}
