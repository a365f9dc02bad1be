//! Property-based tests for the graph substrate.

use proptest::prelude::*;
use radio_graph::analysis::independence::{
    is_independent_set, kappa, kappa_greedy, max_independent_set_size, Kappa,
};
use radio_graph::analysis::{check_coloring, connected_components};
use radio_graph::generators::big::random_walls;
use radio_graph::generators::{build_big, build_udg, gnp};
use radio_graph::geometry::Point2;
use radio_graph::spatial::GridIndex;
use radio_graph::{Graph, NodeId};
use radio_sim::rng::node_rng;

fn arb_points(max_n: usize) -> impl Strategy<Value = Vec<Point2>> {
    arb_points_in(6.0, max_n)
}

/// Up to `max_n − 1` points in a `side × side` square.
fn arb_points_in(side: f64, max_n: usize) -> impl Strategy<Value = Vec<Point2>> {
    prop::collection::vec(
        (0.0..side, 0.0..side).prop_map(|(x, y)| Point2::new(x, y)),
        1..max_n,
    )
}

fn arb_edges(n: usize) -> impl Strategy<Value = Vec<(NodeId, NodeId)>> {
    prop::collection::vec((0..n as NodeId, 0..n as NodeId), 0..(n * 2))
}

/// Neighbor masks of a graph with at most 32 nodes.
fn adjacency_masks(g: &Graph) -> Vec<u32> {
    assert!(g.len() <= 32);
    g.nodes()
        .map(|v| g.neighbors(v).iter().fold(0, |m, &u| m | 1 << u))
        .collect()
}

/// Brute-force oracle: the largest independent subset of the node mask
/// `within`, found by enumerating every one of its subsets.
fn brute_force_mis(adj: &[u32], within: u32) -> usize {
    let mut best = 0;
    let mut sub = within;
    loop {
        let size = sub.count_ones() as usize;
        if size > best && (0..adj.len()).all(|v| sub >> v & 1 == 0 || adj[v] & sub == 0) {
            best = size;
        }
        if sub == 0 {
            return best;
        }
        sub = (sub - 1) & within;
    }
}

/// Brute-force κ₁/κ₂: the oracle over every closed 1-hop and 2-hop
/// neighborhood.
fn brute_force_kappa(g: &Graph) -> Kappa {
    let adj = adjacency_masks(g);
    let closed: Vec<u32> = g.nodes().map(|v| adj[v as usize] | 1 << v).collect();
    let mut k = Kappa { k1: 0, k2: 0 };
    for v in 0..g.len() {
        let two = (0..g.len())
            .filter(|&u| closed[v] >> u & 1 == 1)
            .fold(0, |m, u| m | closed[u]);
        k.k1 = k.k1.max(brute_force_mis(&adj, closed[v]));
        k.k2 = k.k2.max(brute_force_mis(&adj, two));
    }
    k
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_graph_invariants(edges in arb_edges(20)) {
        let g = Graph::from_edges(20, edges.clone());
        // Neighbor lists sorted, deduped, no self-loops, symmetric.
        for v in g.nodes() {
            let nb = g.neighbors(v);
            prop_assert!(nb.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(!nb.contains(&v));
            for &u in nb {
                prop_assert!(g.neighbors(u).contains(&v));
            }
        }
        // Edge count equals the number of distinct non-loop pairs.
        let mut set: Vec<(NodeId, NodeId)> = edges
            .iter()
            .filter(|(a, b)| a != b)
            .map(|&(a, b)| if a < b { (a, b) } else { (b, a) })
            .collect();
        set.sort_unstable();
        set.dedup();
        prop_assert_eq!(g.num_edges(), set.len());
        // Degree sums to 2m.
        let degsum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degsum, 2 * g.num_edges());
    }

    #[test]
    fn udg_packing_bounds_hold(points in arb_points(40)) {
        // Geometry forces κ₁ ≤ 5 and κ₂ ≤ 18 for ANY point set
        // (paper Sect. 2).
        let g = build_udg(&points, 1.0);
        let k = kappa(&g);
        prop_assert!(k.k1 <= 5, "κ₁ = {} > 5", k.k1);
        prop_assert!(k.k2 <= 18, "κ₂ = {} > 18", k.k2);
        prop_assert!(k.k1 <= k.k2);
    }

    #[test]
    fn big_is_subgraph_and_kappa_only_shrinks_edges(points in arb_points(30), nwalls in 0usize..12) {
        let mut rng = node_rng(7, nwalls as u32);
        let walls = random_walls(nwalls, 1.0, 6.0, &mut rng);
        let udg = build_udg(&points, 1.0);
        let big = build_big(&points, 1.0, &walls);
        prop_assert!(big.num_edges() <= udg.num_edges());
        for (u, v) in big.edges() {
            prop_assert!(udg.has_edge(u, v));
        }
    }

    #[test]
    fn grid_index_matches_brute_force(points in arb_points(30)) {
        let idx = GridIndex::build(&points, 1.0);
        for i in 0..points.len() as u32 {
            let fast = idx.neighbors_within(&points, i, 1.0);
            let mut brute: Vec<u32> = (0..points.len() as u32)
                .filter(|&j| j != i && points[j as usize].dist2(&points[i as usize]) <= 1.0)
                .collect();
            brute.sort_unstable();
            prop_assert_eq!(fast, brute);
        }
    }

    #[test]
    fn greedy_kappa_lower_bounds_exact(edges in arb_edges(14)) {
        let g = Graph::from_edges(14, edges);
        let exact = kappa(&g);
        let greedy = kappa_greedy(&g);
        prop_assert!(greedy.k1 <= exact.k1);
        prop_assert!(greedy.k2 <= exact.k2);
    }

    #[test]
    fn components_partition_nodes(edges in arb_edges(16)) {
        let g = Graph::from_edges(16, edges);
        let c = connected_components(&g);
        prop_assert_eq!(c.labels.len(), 16);
        prop_assert!(c.labels.iter().all(|&l| (l as usize) < c.num_components));
        // Adjacent nodes share a component.
        for (u, v) in g.edges() {
            prop_assert_eq!(c.labels[u as usize], c.labels[v as usize]);
        }
    }

    #[test]
    fn gnp_bounds(n in 1usize..40, p in 0.0f64..1.0) {
        let mut rng = node_rng(11, n as u32);
        let g = gnp(n, p, &mut rng);
        prop_assert_eq!(g.len(), n);
        prop_assert!(g.num_edges() <= n * (n - 1) / 2);
        for v in g.nodes() {
            prop_assert!(!g.neighbors(v).contains(&v));
        }
    }

    #[test]
    fn coloring_checker_agrees_with_definition(edges in arb_edges(12), colors in prop::collection::vec(0u32..4, 12)) {
        let g = Graph::from_edges(12, edges);
        let coloring: Vec<Option<u32>> = colors.iter().map(|&c| Some(c)).collect();
        let report = check_coloring(&g, &coloring);
        let manual_proper = g.edges().all(|(u, v)| colors[u as usize] != colors[v as usize]);
        prop_assert_eq!(report.proper, manual_proper);
        prop_assert!(report.complete);
    }
}

// The exact solver against brute force. Bugs in its prunes show only on
// the few small graphs where the greedy warm start is not optimal, so
// these run many more cases than the block above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn exact_mis_beats_greedy_and_is_independent(
        edges in arb_edges(14),
        points in arb_points_in(3.0, 15),
    ) {
        // Random graphs, and dense UDGs: the clique-cover bound's target.
        for g in [Graph::from_edges(14, edges), build_udg(&points, 1.0)] {
            let exact = max_independent_set_size(&g);
            // Any independent set found greedily is a witness lower bound.
            let order: Vec<NodeId> = g.nodes().collect();
            let witness = radio_graph::analysis::independence::greedy_independent_set(&g, &order);
            prop_assert!(is_independent_set(&g, &witness));
            prop_assert!(witness.len() <= exact);
            // MIS of a graph with m edges is ≥ n − m (each edge kills ≤ 1).
            prop_assert!(exact + g.num_edges() >= g.len());
            let all = (1u32 << g.len()) - 1;
            prop_assert_eq!(exact, brute_force_mis(&adjacency_masks(&g), all));
        }
    }

    #[test]
    fn kappa_matches_brute_force(edges in arb_edges(14), points in arb_points_in(3.0, 15)) {
        for g in [Graph::from_edges(14, edges), build_udg(&points, 1.0)] {
            prop_assert_eq!(kappa(&g), brute_force_kappa(&g));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn chi_is_maximal_nonpositive_avoider(
        centers in prop::collection::vec(-200i64..200, 0..12),
        range in 0i64..30,
    ) {
        let x = urn_coloring::chi::chi(&centers, range);
        prop_assert!(x <= 0);
        prop_assert!(urn_coloring::chi::avoids_all(x, &centers, range));
        // Maximality: everything between x and 0 is forbidden.
        for better in (x + 1)..=0 {
            prop_assert!(!urn_coloring::chi::avoids_all(better, &centers, range));
        }
        // Lemma 6 shape: χ ≥ −(2·k·range) − 1 … with the +1 per interval
        // step the worst case is k·(2r+1) intervals stacked end to end.
        let k = centers.len() as i64;
        prop_assert!(x >= -(k * (2 * range + 1)) - 1, "x = {x}");
    }
}
