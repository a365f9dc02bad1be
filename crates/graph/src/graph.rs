//! Compact undirected graph representation.
//!
//! The simulator and the coloring algorithm spend most of their time
//! iterating over neighborhoods, so the graph is stored in CSR
//! (compressed sparse row) form: one contiguous `Vec<NodeId>` of neighbor
//! lists plus an offset table. Construction goes through [`GraphBuilder`],
//! which deduplicates edges and drops self-loops.

use std::fmt;

/// Identifier of a node: a dense index in `0..n`.
///
/// The *protocol-level* identifiers of the paper (arbitrary unique IDs,
/// possibly drawn at random from `[1..n^3]`) are a separate concept; see
/// [`radio-sim`'s `random_ids`](https://example.org). `NodeId` is purely a
/// simulator-side index.
pub type NodeId = u32;

/// An immutable undirected graph in CSR form.
///
/// Neighbor lists are sorted, self-loop-free and duplicate-free.
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v + 1]` indexes `neighbors` for node `v`.
    offsets: Vec<u32>,
    /// Concatenated sorted neighbor lists.
    neighbors: Vec<NodeId>,
}

impl Graph {
    /// Builds a graph with `n` nodes from an iterator of undirected edges.
    ///
    /// Edges may appear in any order and direction; duplicates and
    /// self-loops are ignored.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// The empty graph on `n` nodes.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Sorted open neighborhood of `v` (excluding `v` itself).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Open degree of `v`: the number of neighbors, *excluding* `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbors(v).len()
    }

    /// Closed degree `δ_v = |N_v|` as defined in the paper (Sect. 2):
    /// the neighbor count *including `v` itself*.
    #[inline]
    pub fn closed_degree(&self, v: NodeId) -> usize {
        self.degree(v) + 1
    }

    /// The paper's `Δ`: the maximum closed degree over all nodes.
    ///
    /// Returns 0 for the empty graph.
    pub fn max_closed_degree(&self) -> usize {
        (0..self.len() as NodeId)
            .map(|v| self.closed_degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Maximum open degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.len() as NodeId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// `true` if the edge `{u, v}` exists. `O(log deg)`.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.len() as NodeId
    }

    /// Iterator over all undirected edges, each reported once as `(u, v)`
    /// with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v)
    }

    /// Closed two-hop neighborhood `N_v^2` of `v`: all nodes at distance at
    /// most 2, *including `v` itself*, sorted.
    pub fn two_hop_closed(&self, v: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = Vec::with_capacity(self.degree(v) * 2 + 1);
        out.push(v);
        out.extend_from_slice(self.neighbors(v));
        for &u in self.neighbors(v) {
            out.extend_from_slice(self.neighbors(u));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The subgraph induced by `nodes` (which must be sorted and unique),
    /// together with the mapping from new index to old `NodeId`.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        debug_assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "nodes must be sorted+unique"
        );
        let mut b = GraphBuilder::new(nodes.len());
        for (new_u, &old_u) in nodes.iter().enumerate() {
            for &old_v in self.neighbors(old_u) {
                if old_v > old_u {
                    if let Ok(new_v) = nodes.binary_search(&old_v) {
                        b.add_edge(new_u as NodeId, new_v as NodeId);
                    }
                }
            }
        }
        (b.build(), nodes.to_vec())
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Graph(n={}, m={})", self.len(), self.num_edges())
    }
}

/// Incremental builder for [`Graph`].
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` nodes with no edges yet.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the builder has zero nodes.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Records the undirected edge `{u, v}`. Self-loops are silently
    /// dropped; duplicates are deduplicated at [`build`](Self::build) time.
    ///
    /// # Panics
    /// Panics if `u >= n` or `v >= n`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge endpoint out of range"
        );
        if u == v {
            return;
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b));
    }

    /// Finalizes into CSR form.
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut degrees = vec![0u32; self.n];
        for &(u, v) in &self.edges {
            degrees[u as usize] += 1;
            degrees[v as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(self.n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..self.n].to_vec();
        let mut neighbors = vec![0 as NodeId; acc as usize];
        for &(u, v) in &self.edges {
            neighbors[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        // Each per-node slice is sorted because edges were processed in
        // global sorted order for the first endpoint; for the second
        // endpoint order is not guaranteed, so sort slices.
        for v in 0..self.n {
            let lo = offsets[v] as usize;
            let hi = offsets[v + 1] as usize;
            neighbors[lo..hi].sort_unstable();
        }
        Graph { offsets, neighbors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_pendant() -> Graph {
        // 0-1, 1-2, 2-0 triangle; 3 pendant on 0.
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    }

    #[test]
    fn builds_csr_with_sorted_neighbors() {
        let g = triangle_plus_pendant();
        assert_eq!(g.len(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(2), &[0, 1]);
        assert_eq!(g.neighbors(3), &[0]);
    }

    #[test]
    fn dedup_and_self_loops() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn degrees_match_paper_convention() {
        let g = triangle_plus_pendant();
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.closed_degree(0), 4);
        assert_eq!(g.max_closed_degree(), 4);
        assert_eq!(g.max_degree(), 3);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(0);
        assert!(g.is_empty());
        assert_eq!(g.max_closed_degree(), 0);
        let g = Graph::empty(5);
        assert_eq!(g.len(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_closed_degree(), 1);
    }

    #[test]
    fn has_edge_is_symmetric() {
        let g = triangle_plus_pendant();
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(g.has_edge(u, v), g.has_edge(v, u));
            }
        }
        assert!(g.has_edge(0, 3));
        assert!(!g.has_edge(1, 3));
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn edges_reported_once() {
        let g = triangle_plus_pendant();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (0, 3), (1, 2)]);
    }

    #[test]
    fn two_hop_closed_includes_self_and_distance_two() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(g.two_hop_closed(0), vec![0, 1, 2]);
        assert_eq!(g.two_hop_closed(2), vec![0, 1, 2, 3, 4]);
        assert_eq!(g.two_hop_closed(4), vec![2, 3, 4]);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = triangle_plus_pendant();
        let (sub, map) = g.induced_subgraph(&[0, 1, 3]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.num_edges(), 2); // 0-1 and 0-3
        assert_eq!(map, vec![0, 1, 3]);
        assert!(sub.has_edge(0, 1));
        assert!(sub.has_edge(0, 2));
        assert!(!sub.has_edge(1, 2));
    }
}
