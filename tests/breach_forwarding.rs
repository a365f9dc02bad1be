//! Protocol wrappers must forward the wrapped FSM's contract breaches.
//!
//! The engines poll `take_breach` on the protocol they hold, which is
//! the wrapper. A wrapper that keeps the trait's `None` default hides
//! every breach the wrapped `ColoringNode` records, so a misuse of the
//! FSM under a trace recorder, a projection, a mutation or the adaptive
//! front end would never become a `ProtocolError`.

use radio_mc::Projected;
use radio_sim::{Behavior, BehaviorFault, RadioProtocol, Recorder, Slot};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use urn_coloring::{
    AdaptiveNode, AlgorithmParams, ColoringNode, EstimatorParams, MutatedNode, MutationKind,
};

const BREACH: BehaviorFault = BehaviorFault::ContractBreach {
    context: "message requested from a silent waiting node",
};

fn params() -> AlgorithmParams {
    AlgorithmParams::practical(2, 2, 64)
}

/// Wakes `p` at slot 0, asks the silent waiting node for a message two
/// slots later and returns the breach the wrapper reports.
fn breach_after_silent_message<P: RadioProtocol>(mut p: P) -> Option<BehaviorFault> {
    let mut rng = SmallRng::seed_from_u64(7);
    let b = p.on_wake(0, &mut rng);
    assert!(matches!(b, Behavior::Silent { .. }), "woke into {b:?}");
    assert_eq!(p.take_breach(), None, "a clean wake-up");
    p.message(2, &mut rng);
    p.take_breach()
}

#[test]
fn every_wrapper_forwards_the_inner_breach() {
    let node = || ColoringNode::new(1, params());
    assert_eq!(
        breach_after_silent_message(node()),
        Some(BREACH),
        "bare node"
    );
    let recorder = Recorder::new(16);
    assert_eq!(
        breach_after_silent_message(recorder.wrap(0, node())),
        Some(BREACH),
        "Recorded"
    );
    assert_eq!(
        breach_after_silent_message(Projected::new(node())),
        Some(BREACH),
        "Projected"
    );
    assert_eq!(
        breach_after_silent_message(MutatedNode::new(node(), MutationKind::None)),
        Some(BREACH),
        "MutatedNode"
    );

    // AdaptiveNode: march through the estimator's phases into the
    // coloring node's silent waiting phase, then misuse that node.
    let est = EstimatorParams::new(64, 8);
    let mut adaptive = AdaptiveNode::new(1, params(), est);
    let mut rng = SmallRng::seed_from_u64(7);
    let mut b = adaptive.on_wake(0, &mut rng);
    let mut now: Slot = 0;
    for _ in 0..est.phases {
        now = b.until().expect("estimator phases have deadlines");
        b = adaptive.on_deadline(now, &mut rng);
    }
    assert_eq!(b.probability(), 0.0, "coloring's waiting phase is silent");
    assert_eq!(adaptive.take_breach(), None, "a clean estimation");
    adaptive.message(now + 2, &mut rng);
    assert_eq!(adaptive.take_breach(), Some(BREACH), "AdaptiveNode");
}
