//! The protocol interface between per-node state machines and the
//! code that drives them: the slot kernel in `radio-sim`, which the
//! simulation engines, the model checker and the `colord` service step,
//! and the half-slot jittered engine.
//!
//! A protocol describes a node's externally visible behavior as a
//! sequence of [`Behavior`] segments: during a segment the node either
//! listens silently or transmits with a fixed per-slot probability.
//! Segments end when (a) a self-imposed deadline fires, or (b) a message
//! is received. This factoring lets the *same protocol code* run under
//! both the lock-step reference engine (one Bernoulli draw per slot) and
//! the event-driven engine (geometric skip sampling) — the two are
//! distributionally identical because Bernoulli trials are memoryless.
//!
//! # Intra-slot ordering contract (all drivers)
//!
//! 1. wake-ups ([`RadioProtocol::on_wake`]);
//! 2. deadlines ([`RadioProtocol::on_deadline`]) — the returned behavior
//!    governs this very slot (a node whose counter crosses the threshold
//!    at slot *t* may already transmit its `M_C` message at *t*, cf.
//!    Algorithm 1 lines 19–22 of the paper);
//! 3. transmission decisions — every node in a `Transmit { p, .. }`
//!    segment transmits independently with probability `p`;
//! 4. deliveries ([`RadioProtocol::on_receive`]) — a listening node
//!    receives iff **exactly one** of its graph neighbors transmitted
//!    (unstructured radio network model: no collision detection, a
//!    transmitter cannot receive in the same slot). A behavior returned
//!    from `on_receive` takes effect at slot *t + 1*.

use rand::rngs::SmallRng;
use std::fmt;

/// Discrete time slot index.
pub type Slot = u64;

/// What was wrong with a [`Behavior`] returned by a protocol callback.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BehaviorFault {
    /// Transmit probability outside `(0, 1]` or non-finite.
    InvalidProbability {
        /// The offending probability.
        p: f64,
    },
    /// A segment deadline not strictly in the future.
    StaleDeadline {
        /// Slot at which the behavior was returned.
        now: Slot,
        /// The (non-future) deadline it carried.
        until: Slot,
    },
    /// A driver called a callback outside the documented intra-slot
    /// contract (e.g. fired a deadline in a state that set none, or
    /// requested a message from a silent node). The protocol answered
    /// with a benign fallback and recorded the breach via
    /// [`RadioProtocol::take_breach`].
    ContractBreach {
        /// A static description of the violated contract clause.
        context: &'static str,
    },
}

impl fmt::Display for BehaviorFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BehaviorFault::InvalidProbability { p } => {
                write!(f, "transmit probability {p} not in (0,1]")
            }
            BehaviorFault::StaleDeadline { now, until } => {
                write!(f, "deadline {until} not after current slot {now}")
            }
            BehaviorFault::ContractBreach { context } => {
                write!(f, "driver breached the protocol contract: {context}")
            }
        }
    }
}

/// A malformed behavior returned by a protocol callback mid-run.
///
/// Drivers do not panic on one: they stop stepping the offending node
/// (the simulator marks the whole run undecided and reports the error
/// in its outcome) so harnesses degrade gracefully instead of aborting
/// the whole experiment.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProtocolError {
    /// Node whose callback produced the bad behavior.
    pub node: u32,
    /// Slot at which it was returned.
    pub slot: Slot,
    /// What was wrong with it.
    pub fault: BehaviorFault,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {} at slot {}: {}",
            self.node, self.slot, self.fault
        )
    }
}

impl std::error::Error for ProtocolError {}

/// One segment of a node's externally visible behavior.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Behavior {
    /// Listen every slot. `on_deadline` fires at the start of slot
    /// `until` (if `Some`); the behavior applies to slots `< until`.
    Silent {
        /// Slot at which [`RadioProtocol::on_deadline`] fires.
        until: Option<Slot>,
    },
    /// Transmit with probability `p` in each slot, listen otherwise.
    Transmit {
        /// Per-slot transmission probability in `(0, 1]`.
        p: f64,
        /// Slot at which [`RadioProtocol::on_deadline`] fires.
        until: Option<Slot>,
    },
}

impl Behavior {
    /// The deadline of this segment, if any.
    pub fn until(&self) -> Option<Slot> {
        match self {
            Behavior::Silent { until } | Behavior::Transmit { until, .. } => *until,
        }
    }

    /// The per-slot transmission probability (0 for silent segments).
    pub fn probability(&self) -> f64 {
        match self {
            Behavior::Silent { .. } => 0.0,
            Behavior::Transmit { p, .. } => *p,
        }
    }

    /// Checks that the behavior is well-formed: a transmit probability
    /// in `(0, 1]` (finite). Returns a typed fault instead of panicking
    /// so engines can degrade gracefully mid-run.
    pub fn validate(&self) -> Result<(), BehaviorFault> {
        if let Behavior::Transmit { p, .. } = self {
            if !(p.is_finite() && *p > 0.0 && *p <= 1.0) {
                return Err(BehaviorFault::InvalidProbability { p: *p });
            }
        }
        Ok(())
    }

    /// [`validate`](Self::validate) plus the engine-side deadline rule:
    /// a segment returned at slot `now` must carry a deadline `> now`.
    pub fn validate_at(&self, now: Slot) -> Result<(), BehaviorFault> {
        self.validate()?;
        if let Some(until) = self.until() {
            if until <= now {
                return Err(BehaviorFault::StaleDeadline { now, until });
            }
        }
        Ok(())
    }
}

/// A per-node distributed protocol for the unstructured radio network
/// model.
///
/// Implementations must be deterministic given the `rng` passed to the
/// callbacks (the driver provides an independent stream per node).
pub trait RadioProtocol {
    /// The message type broadcast on the channel.
    type Message: Clone;

    /// The node wakes up at slot `now`. Returns its first behavior
    /// segment. Sleeping nodes neither send nor receive (paper Sect. 2).
    fn on_wake(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior;

    /// The current segment's `until` deadline fired at the start of slot
    /// `now`. Returns the next segment, which governs slot `now` itself.
    /// The returned deadline must be `> now`.
    fn on_deadline(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior;

    /// The driver decided this node transmits at slot `now`; produce the
    /// message put on the air.
    fn message(&mut self, now: Slot, rng: &mut SmallRng) -> Self::Message;

    /// Exactly one neighbor transmitted at slot `now` while this node
    /// listened: the message is delivered. Return `Some(behavior)` to
    /// replace the current segment starting at slot `now + 1`, or `None`
    /// to continue unchanged. A returned deadline must be `> now`.
    fn on_receive(
        &mut self,
        now: Slot,
        msg: &Self::Message,
        rng: &mut SmallRng,
    ) -> Option<Behavior>;

    /// `true` once the node has taken its irrevocable final decision
    /// (paper Sect. 2: the time complexity `T_v` measures wake-up to
    /// final decision). A decided node may keep transmitting — e.g.
    /// nodes in `C_i` broadcast until the protocol is stopped.
    fn is_decided(&self) -> bool;

    /// Drains the contract breach recorded by the last callback, if any.
    ///
    /// A protocol driven outside its documented contract (a deadline
    /// fired in a state that set none, a message requested from a
    /// silent node) must not panic: it returns a benign, well-formed
    /// value from the callback and records a
    /// [`BehaviorFault::ContractBreach`] here. Every driver polls this
    /// immediately after each callback and converts a recorded breach
    /// into a typed [`ProtocolError`] at the exact `(node, slot)`, so a
    /// driver defect surfaces as a structured error instead of a
    /// process abort. The default implementation (for protocols with no
    /// unreachable callback states) reports no breach.
    fn take_breach(&mut self) -> Option<BehaviorFault> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn behavior_accessors() {
        let s = Behavior::Silent { until: Some(10) };
        assert_eq!(s.until(), Some(10));
        assert_eq!(s.probability(), 0.0);
        let t = Behavior::Transmit {
            p: 0.25,
            until: None,
        };
        assert_eq!(t.until(), None);
        assert_eq!(t.probability(), 0.25);
        assert_eq!(t.validate(), Ok(()));
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_probabilities_with_typed_faults() {
        for p in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let b = Behavior::Transmit { p, until: None };
            match b.validate() {
                Err(BehaviorFault::InvalidProbability { p: got }) => {
                    assert!(got == p || (p.is_nan() && got.is_nan()));
                }
                other => panic!("p={p}: expected InvalidProbability, got {other:?}"),
            }
        }
    }

    #[test]
    fn validate_at_rejects_stale_deadlines() {
        let b = Behavior::Silent { until: Some(5) };
        assert_eq!(b.validate_at(4), Ok(()));
        assert_eq!(
            b.validate_at(5),
            Err(BehaviorFault::StaleDeadline { now: 5, until: 5 })
        );
        assert_eq!(
            b.validate_at(9),
            Err(BehaviorFault::StaleDeadline { now: 9, until: 5 })
        );
        // No deadline: always fine.
        assert_eq!(Behavior::Silent { until: None }.validate_at(9), Ok(()));
    }

    #[test]
    fn protocol_error_displays_context() {
        let e = ProtocolError {
            node: 3,
            slot: 17,
            fault: BehaviorFault::InvalidProbability { p: 2.0 },
        };
        let s = e.to_string();
        assert!(s.contains("node 3"), "{s}");
        assert!(s.contains("slot 17"), "{s}");
        assert!(s.contains("probability"), "{s}");
    }
}
