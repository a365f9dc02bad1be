//! Trace projection: mapping concrete executions onto the abstract
//! Fig. 2 machine (`urn_coloring::transitions::LEGAL_TRANSITIONS`).
//!
//! Two integration shapes cover every execution surface the workspace
//! has:
//!
//! * [`ProjectionMonitor`] is an
//!   [`InvariantMonitor`]: attach it (alone or via
//!   [`radio_sim::Fanout`]) to any engine run — Lockstep, EventSkip,
//!   Jittered, the sharded driver — or to the model checker's stepper,
//!   and it checks every observed abstract edge against the legality
//!   table while accumulating the covered edge set.
//! * [`Projected`] wraps a protocol *inside itself*, recording the
//!   projection from the node's own callbacks, so it needs no monitor
//!   seam; it forwards the wrapped node's contract breaches to the
//!   driver.
//!
//! Both record an edge at every observation, including self-loops —
//! a `Colored` node beaconing its class observes `Colored → Colored`,
//! which is how the two self-loop rows of the table get their
//! coverage.

use radio_graph::NodeId;
use radio_sim::{Behavior, BehaviorFault, InvariantMonitor, Slot, Violation, MAX_VIOLATIONS};
use rand::rngs::SmallRng;
use std::collections::BTreeSet;
use urn_coloring::messages::{ColoringMsg, ProtoId};
use urn_coloring::transitions::{is_legal, Transition};
use urn_coloring::{AlgorithmParams, ObservableColoring, ObservedState};

/// The label of a node that has not woken yet (the abstract machine's
/// start state).
pub const WAKE: &str = "Wake";

/// An [`InvariantMonitor`] that projects each node's observed states
/// onto the abstract machine, flagging edges outside
/// `LEGAL_TRANSITIONS` (rule `illegal-projection`) and accumulating
/// edge coverage.
#[derive(Clone, Debug)]
pub struct ProjectionMonitor {
    prev: Vec<&'static str>,
    covered: BTreeSet<Transition>,
    violations: Vec<Violation>,
}

impl ProjectionMonitor {
    /// A monitor for `n` nodes, all in the `Wake` start state.
    pub fn new(n: usize) -> Self {
        ProjectionMonitor {
            prev: vec![WAKE; n],
            covered: BTreeSet::new(),
            violations: Vec::new(),
        }
    }

    /// A monitor resumed from known per-node labels (the model
    /// checker's per-expansion seam, mirroring
    /// `ColoringMonitor::resume`).
    pub fn resume(tags: Vec<&'static str>) -> Self {
        ProjectionMonitor {
            prev: tags,
            covered: BTreeSet::new(),
            violations: Vec::new(),
        }
    }

    /// The set of abstract edges this monitor has seen.
    pub fn covered(&self) -> &BTreeSet<Transition> {
        &self.covered
    }

    /// The illegal-edge records collected so far (read-only view;
    /// [`InvariantMonitor::take_violations`] drains).
    pub fn illegal(&self) -> &[Violation] {
        &self.violations
    }

    fn observe<P: ObservableColoring>(&mut self, node: NodeId, slot: Slot, proto: &P) {
        let to = proto.observe(slot).abstract_tag();
        let from = std::mem::replace(&mut self.prev[node as usize], to);
        self.covered.insert((from, to));
        if !is_legal(from, to) && self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(Violation {
                node,
                slot,
                rule: "illegal-projection",
                detail: format!("{from} -> {to}"),
            });
        }
    }
}

impl<P: ObservableColoring> InvariantMonitor<P> for ProjectionMonitor {
    fn after_wake(&mut self, node: NodeId, slot: Slot, proto: &P) {
        self.observe(node, slot, proto);
    }

    fn after_deadline(&mut self, node: NodeId, slot: Slot, proto: &P) {
        self.observe(node, slot, proto);
    }

    fn on_transmit(&mut self, node: NodeId, slot: Slot, _msg: &ColoringMsg, proto: &P) {
        self.observe(node, slot, proto);
    }

    fn after_receive(&mut self, node: NodeId, slot: Slot, _msg: &ColoringMsg, proto: &P) {
        self.observe(node, slot, proto);
    }

    fn on_decided(&mut self, node: NodeId, slot: Slot, proto: &P) {
        self.observe(node, slot, proto);
    }

    fn take_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }
}

/// A protocol wrapper that projects its own execution: every callback
/// delegates to the inner protocol, then records the abstract edge the
/// callback produced. Where [`ProjectionMonitor`] watches from the
/// engine's side of the hook seam, `Projected` watches from the
/// protocol's side, with no monitor attached. Breaches of the inner
/// protocol are forwarded through `take_breach`.
#[derive(Clone, Debug)]
pub struct Projected<P> {
    inner: P,
    prev: &'static str,
    covered: BTreeSet<Transition>,
    illegal: Vec<(Slot, Transition)>,
}

impl<P: ObservableColoring> Projected<P> {
    /// Wraps `inner`, starting from the `Wake` label.
    pub fn new(inner: P) -> Self {
        Projected {
            inner,
            prev: WAKE,
            covered: BTreeSet::new(),
            illegal: Vec::new(),
        }
    }

    /// The abstract edges this node's own trace covered.
    pub fn covered(&self) -> &BTreeSet<Transition> {
        &self.covered
    }

    /// Edges outside the legality table, with the slot they occurred
    /// at (empty on a conforming trace).
    pub fn illegal(&self) -> &[(Slot, Transition)] {
        &self.illegal
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    fn record(&mut self, now: Slot) {
        let to = self.inner.observe(now).abstract_tag();
        let edge = (std::mem::replace(&mut self.prev, to), to);
        self.covered.insert(edge);
        if !is_legal(edge.0, edge.1) && self.illegal.len() < MAX_VIOLATIONS {
            self.illegal.push((now, edge));
        }
    }
}

impl<P: ObservableColoring> radio_sim::RadioProtocol for Projected<P> {
    type Message = ColoringMsg;

    fn on_wake(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
        let b = self.inner.on_wake(now, rng);
        self.record(now);
        b
    }

    fn on_deadline(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
        let b = self.inner.on_deadline(now, rng);
        self.record(now);
        b
    }

    fn message(&mut self, now: Slot, rng: &mut SmallRng) -> ColoringMsg {
        let m = self.inner.message(now, rng);
        self.record(now);
        m
    }

    fn on_receive(&mut self, now: Slot, msg: &ColoringMsg, rng: &mut SmallRng) -> Option<Behavior> {
        let b = self.inner.on_receive(now, msg, rng);
        self.record(now);
        b
    }

    fn is_decided(&self) -> bool {
        self.inner.is_decided()
    }

    fn take_breach(&mut self) -> Option<BehaviorFault> {
        self.inner.take_breach()
    }
}

impl<P: ObservableColoring> ObservableColoring for Projected<P> {
    fn observe(&self, now: Slot) -> ObservedState {
        self.inner.observe(now)
    }
    fn proto_id(&self) -> ProtoId {
        self.inner.proto_id()
    }
    fn observe_params(&self) -> &AlgorithmParams {
        self.inner.observe_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::generators::special::path;
    use radio_sim::{ChannelSpec, EngineKind, SimConfig};
    use urn_coloring::ColoringNode;

    fn params() -> AlgorithmParams {
        AlgorithmParams::practical(2, 2, 4)
    }

    #[test]
    fn monitor_and_wrapper_agree_on_a_pair_run() {
        let g = path(2);
        let wake = [0u64, 1];
        let cfg = SimConfig {
            max_slots: 50_000,
            channel: ChannelSpec::Ideal,
            ..SimConfig::default()
        };
        let protos: Vec<Projected<ColoringNode>> = (1..=2u64)
            .map(|id| Projected::new(ColoringNode::new(id, params())))
            .collect();
        let mut monitor = ProjectionMonitor::new(2);
        let out = EngineKind::Lockstep.run_monitored(&g, &wake, protos, 11, &cfg, &mut monitor);
        assert!(out.all_decided, "pair run must terminate");
        assert!(monitor.illegal().is_empty(), "{:?}", monitor.illegal());
        // The wrapper saw a subset of the monitor's edges (the monitor
        // additionally observes at decided hooks), and no illegal ones.
        let mut wrapped = BTreeSet::new();
        for p in &out.protocols {
            assert!(p.illegal().is_empty(), "{:?}", p.illegal());
            wrapped.extend(p.covered().iter().copied());
        }
        for e in &wrapped {
            assert!(
                monitor.covered().contains(e),
                "wrapper-only edge {e:?} (monitor saw {:?})",
                monitor.covered()
            );
        }
        assert!(monitor.covered().contains(&(WAKE, "VerifyWaiting")));
    }

    #[test]
    fn illegal_edge_is_flagged() {
        // Drive the monitor by hand through Wake -> Colored, which the
        // table does not have.
        let node = ColoringNode::new(1, params());
        let mut m = ProjectionMonitor::resume(vec!["Colored"]);
        // A fresh node observes as VerifyWaiting: Colored -> VerifyWaiting
        // is not a legal edge.
        InvariantMonitor::<ColoringNode>::after_receive(
            &mut m,
            0,
            5,
            &ColoringMsg::Decided {
                class: 1,
                sender: 9,
            },
            &node,
        );
        assert_eq!(m.illegal().len(), 1);
        assert_eq!(m.illegal()[0].rule, "illegal-projection");
        let vs = InvariantMonitor::<ColoringNode>::take_violations(&mut m);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("Colored -> VerifyWaiting"));
    }
}
