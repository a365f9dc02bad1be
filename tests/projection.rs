//! Cross-engine trace projection: every concrete execution any engine
//! produces — Lockstep, EventSkip, Jittered and the sharded driver at
//! several shard counts — must project onto the abstract Fig. 2
//! machine with **zero illegal edges**, under every channel model and
//! regardless of which invariant monitor is attached.
//!
//! The projection runs on both sides of the hook seam at once:
//! [`radio_mc::Projected`] records edges from inside the protocol,
//! while
//! [`radio_mc::ProjectionMonitor`] watches from the engine side. The
//! wrapper's edges must be a subset of the monitor's (the monitor
//! additionally observes at decision time), and neither may ever see
//! an edge outside `LEGAL_TRANSITIONS`.

use proptest::prelude::*;
use radio_graph::analysis::kappa;
use radio_graph::{Graph, NodeId, Partition};
use radio_mc::{Projected, ProjectionMonitor};
use radio_sim::{
    run_sharded, ChannelSpec, EngineKind, Fanout, InvariantMonitor, SimConfig, SimOutcome,
};
use urn_coloring::{AlgorithmParams, ColoringMonitor, ColoringNode, ProtoId};

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2..max_n).prop_flat_map(|n| {
        prop::collection::vec((0..n as NodeId, 0..n as NodeId), 0..n * 2)
            .prop_map(move |edges| Graph::from_edges(n, edges))
    })
}

fn params_for(g: &Graph) -> AlgorithmParams {
    let k = kappa(g);
    AlgorithmParams::practical(k.k2.max(2), g.max_closed_degree().max(2), 256)
}

fn wrapped_nodes(g: &Graph, params: AlgorithmParams) -> Vec<Projected<ColoringNode>> {
    (1..=g.len() as ProtoId)
        .map(|id| Projected::new(ColoringNode::new(id, params)))
        .collect()
}

const CHANNELS: [ChannelSpec; 3] = [
    ChannelSpec::Ideal,
    ChannelSpec::ProbabilisticLoss { p: 0.15 },
    ChannelSpec::GilbertElliott {
        p_bad: 0.05,
        p_good: 0.4,
        loss_good: 0.02,
        loss_bad: 0.8,
    },
];

/// Asserts that `out` carries a legal projection on every node and
/// returns nothing else; `context` labels failures.
fn assert_projection_clean(
    out: &SimOutcome<Projected<ColoringNode>>,
    context: &str,
) -> Result<(), TestCaseError> {
    for (v, p) in out.protocols.iter().enumerate() {
        prop_assert!(
            p.illegal().is_empty(),
            "{context}: node {v} took illegal edges {:?}",
            p.illegal()
        );
    }
    Ok(())
}

/// One engine × channel run, alternating the attached monitor between
/// `NullMonitor` and `ColoringMonitor` + engine-side projection: the
/// protocol-side wrapper must be clean either way, and when the
/// engine-side projection runs too, the two views must agree.
fn check_engine(
    engine: EngineKind,
    g: &Graph,
    wake: &[u64],
    seed: u64,
    channel: ChannelSpec,
    with_monitor: bool,
) -> Result<(), TestCaseError> {
    let params = params_for(g);
    let cfg = SimConfig::with_max_slots(5_000_000).with_channel(channel);
    let context = format!("{} / {channel:?} / monitored={with_monitor}", engine.name());
    if with_monitor {
        let mut monitor = Fanout(ColoringMonitor::new(g), ProjectionMonitor::new(g.len()));
        let out = engine.run_monitored(g, wake, wrapped_nodes(g, params), seed, &cfg, &mut monitor);
        assert_projection_clean(&out, &context)?;
        prop_assert!(
            monitor.1.illegal().is_empty(),
            "{context}: engine-side projection saw illegal edges {:?}",
            monitor.1.illegal()
        );
        let lemma_violations =
            InvariantMonitor::<Projected<ColoringNode>>::take_violations(&mut monitor.0);
        prop_assert!(
            lemma_violations.is_empty(),
            "{context}: Lemma 4-9 monitor fired: {lemma_violations:?}"
        );
        // Protocol-side edges are a subset of engine-side edges.
        for p in &out.protocols {
            for e in p.covered() {
                prop_assert!(
                    monitor.1.covered().contains(e),
                    "{context}: wrapper-only edge {e:?}"
                );
            }
        }
    } else {
        let out = engine.run(g, wake, wrapped_nodes(g, params), seed, &cfg);
        assert_projection_clean(&out, &context)?;
    }
    Ok(())
}

fn check_sharded(
    g: &Graph,
    wake: &[u64],
    seed: u64,
    channel: ChannelSpec,
) -> Result<(), TestCaseError> {
    let params = params_for(g);
    let cfg = SimConfig::with_max_slots(5_000_000).with_channel(channel);
    for k in [1usize, 2, 4] {
        let partition = Partition::contiguous(g.len(), k);
        let mut monitor = ProjectionMonitor::new(g.len());
        let out = run_sharded(
            g,
            wake,
            wrapped_nodes(g, params),
            seed,
            &cfg,
            &mut monitor,
            &partition,
        );
        let context = format!("sharded k={k} / {channel:?}");
        assert_projection_clean(&out, &context)?;
        prop_assert!(
            monitor.illegal().is_empty(),
            "{context}: engine-side projection saw illegal edges {:?}",
            monitor.illegal()
        );
    }
    Ok(())
}

proptest! {
    // Each case runs 3 engines x 3 channels x 2 monitor modes plus
    // three sharded runs: keep case counts small, the graphs are tiny.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_engine_projects_legally(
        g in arb_graph(7),
        seed in 0u64..1000,
        stagger in prop::collection::vec(0u64..400, 7),
    ) {
        let wake: Vec<u64> = stagger[..g.len()].to_vec();
        for channel in CHANNELS {
            for engine in [EngineKind::Lockstep, EngineKind::Event, EngineKind::Jittered] {
                check_engine(engine, &g, &wake, seed, channel, false)?;
                check_engine(engine, &g, &wake, seed, channel, true)?;
            }
            check_sharded(&g, &wake, seed, channel)?;
        }
    }
}

/// Pinned cross-engine case with simultaneous wake (the adversarial
/// default in the paper's model).
#[test]
fn pinned_star_projects_legally_everywhere() {
    let g = Graph::from_edges(5, vec![(0, 1), (0, 2), (0, 3), (0, 4)]);
    let wake = vec![0u64; 5];
    for engine in [
        EngineKind::Lockstep,
        EngineKind::Event,
        EngineKind::Jittered,
    ] {
        check_engine(engine, &g, &wake, 42, ChannelSpec::Ideal, true).unwrap();
    }
    check_sharded(&g, &wake, 42, ChannelSpec::Ideal).unwrap();
}
