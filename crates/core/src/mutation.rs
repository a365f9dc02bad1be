//! Seeded protocol mutations for exercising the invariant monitor.
//!
//! A monitor that never fires is indistinguishable from a monitor that
//! checks nothing. [`MutatedNode`] wraps a [`ColoringNode`] and injects
//! a deliberate, *test-only* deviation from Algorithms 1–3; the
//! mutation tests assert that [`crate::invariants::ColoringMonitor`]
//! catches each kind, that [`crate::repro`] shrinks the failing
//! configuration, and that the written artifact replays red.
//!
//! The wrapper implements [`ObservableColoring`] by reporting what its
//! observable behavior *claims* — exactly the situation the monitor
//! exists to audit. It never touches the inner node's private state, so
//! [`MutationKind::None`] is a transparent pass-through (used when
//! replaying repro artifacts of clean configurations).

use crate::invariants::ObservableColoring;
use crate::messages::{ColoringMsg, ProtoId};
use crate::node::{ColoringNode, ObservedState};
use crate::params::AlgorithmParams;
use radio_sim::{Behavior, BehaviorFault, RadioProtocol, Slot};
use rand::rngs::SmallRng;

/// Which deviation to inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MutationKind {
    /// No deviation: behaves exactly like the wrapped node.
    #[default]
    None,
    /// `M_A^i` messages report a counter 9 slots ahead of the real one
    /// — breaks message/state consistency (and quietly corrupts every
    /// listener's competitor copies, the failure mode Lemma 4's
    /// exclusivity argument assumes away).
    LyingCounter,
    /// On first hearing leader evidence the node *pretends* it is a
    /// leader itself: it starts beaconing `M_C^0` and reports itself
    /// decided — an uncommitted, below-threshold grab of color 0 right
    /// next to a real leader (illegal transition + commit conflict).
    CopycatLeader,
}

impl MutationKind {
    /// Stable identifier for JSON artifacts.
    pub fn as_str(&self) -> &'static str {
        match self {
            MutationKind::None => "none",
            MutationKind::LyingCounter => "lying-counter",
            MutationKind::CopycatLeader => "copycat-leader",
        }
    }

    /// Inverse of [`MutationKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "none" => Some(MutationKind::None),
            "lying-counter" => Some(MutationKind::LyingCounter),
            "copycat-leader" => Some(MutationKind::CopycatLeader),
            _ => None,
        }
    }
}

/// A [`ColoringNode`] with a seeded deviation (see [`MutationKind`]).
#[derive(Clone, Debug)]
pub struct MutatedNode {
    inner: ColoringNode,
    kind: MutationKind,
    /// `CopycatLeader` only: `true` once the node started impersonating.
    hijacked: bool,
}

impl MutatedNode {
    /// Wraps `inner` with deviation `kind`.
    pub fn new(inner: ColoringNode, kind: MutationKind) -> Self {
        MutatedNode {
            inner,
            kind,
            hijacked: false,
        }
    }

    /// The wrapped node.
    pub fn inner(&self) -> &ColoringNode {
        &self.inner
    }
}

impl RadioProtocol for MutatedNode {
    type Message = ColoringMsg;

    fn on_wake(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
        self.hijacked = false;
        self.inner.on_wake(now, rng)
    }

    fn on_deadline(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
        if self.hijacked {
            // The impersonator set an open-ended behavior; no deadline
            // should fire, but degrade gracefully if one does.
            return Behavior::Transmit {
                p: self.inner.params().p_leader(),
                until: None,
            };
        }
        self.inner.on_deadline(now, rng)
    }

    fn message(&mut self, now: Slot, rng: &mut SmallRng) -> ColoringMsg {
        if self.hijacked {
            return ColoringMsg::Decided {
                class: 0,
                sender: self.inner.id(),
            };
        }
        let msg = self.inner.message(now, rng);
        match (self.kind, msg) {
            (
                MutationKind::LyingCounter,
                ColoringMsg::Compete {
                    class,
                    sender,
                    counter,
                },
            ) => ColoringMsg::Compete {
                class,
                sender,
                counter: counter + 9,
            },
            (_, msg) => msg,
        }
    }

    fn on_receive(&mut self, now: Slot, msg: &ColoringMsg, rng: &mut SmallRng) -> Option<Behavior> {
        if self.hijacked {
            return None; // impersonators stop listening
        }
        if self.kind == MutationKind::CopycatLeader
            && !self.inner.is_decided()
            && matches!(msg.decided_evidence(), Some((0, _)))
        {
            self.hijacked = true;
            return Some(Behavior::Transmit {
                p: self.inner.params().p_leader(),
                until: None,
            });
        }
        self.inner.on_receive(now, msg, rng)
    }

    fn is_decided(&self) -> bool {
        self.hijacked || self.inner.is_decided()
    }

    fn take_breach(&mut self) -> Option<BehaviorFault> {
        self.inner.take_breach()
    }
}

impl ObservableColoring for MutatedNode {
    fn observe(&self, now: Slot) -> ObservedState {
        if self.hijacked {
            // The impersonator claims C_0 — the claim the monitor must
            // reject (no threshold run-up ever happened).
            return ObservedState::Leader {
                serving: None,
                tc: 0,
                queued: 0,
            };
        }
        self.inner.observe(now)
    }

    fn proto_id(&self) -> ProtoId {
        self.inner.id()
    }

    fn observe_params(&self) -> &AlgorithmParams {
        self.inner.params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    #[test]
    fn kind_round_trips_through_str() {
        for k in [
            MutationKind::None,
            MutationKind::LyingCounter,
            MutationKind::CopycatLeader,
        ] {
            assert_eq!(MutationKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(MutationKind::parse("bogus"), None);
    }

    #[test]
    fn none_is_transparent() {
        let params = AlgorithmParams::practical(2, 4, 16);
        let mut a = MutatedNode::new(ColoringNode::new(7, params), MutationKind::None);
        let mut b = ColoringNode::new(7, params);
        assert_eq!(a.on_wake(0, &mut rng()), b.on_wake(0, &mut rng()));
        assert_eq!(a.observe(5), b.observe(5));
        assert_eq!(a.is_decided(), b.is_decided());
        assert_eq!(a.proto_id(), 7);
    }

    #[test]
    fn lying_counter_shifts_compete_messages() {
        let params = AlgorithmParams::practical(2, 4, 16);
        let mut m = MutatedNode::new(ColoringNode::new(3, params), MutationKind::LyingCounter);
        let w = {
            let b = m.on_wake(0, &mut rng());
            let Behavior::Silent { until: Some(w) } = b else {
                panic!("fresh node waits");
            };
            w
        };
        m.on_deadline(w, &mut rng()); // waiting → active
        let msg = m.message(w + 2, &mut rng());
        let ColoringMsg::Compete { counter, .. } = msg else {
            panic!("active node competes");
        };
        let ObservedState::Verify {
            counter: Some(real),
            ..
        } = m.observe(w + 2)
        else {
            panic!("active observation");
        };
        assert_eq!(counter, real + 9, "message lies by exactly 9");
    }

    #[test]
    fn copycat_hijacks_on_leader_evidence() {
        let params = AlgorithmParams::practical(2, 4, 16);
        let mut m = MutatedNode::new(ColoringNode::new(3, params), MutationKind::CopycatLeader);
        m.on_wake(0, &mut rng());
        assert!(!m.is_decided());
        let beacon = ColoringMsg::Decided {
            class: 0,
            sender: 9,
        };
        let b = m.on_receive(1, &beacon, &mut rng());
        assert!(matches!(b, Some(Behavior::Transmit { until: None, .. })));
        assert!(m.is_decided(), "claims decided without a commit");
        assert_eq!(m.observe(2).committed_class(), Some(0));
        assert!(matches!(
            m.message(3, &mut rng()),
            ColoringMsg::Decided { class: 0, .. }
        ));
        // Honest inner state never committed.
        assert_eq!(m.inner().color(), None);
    }
}
