//! Independence numbers: exact maximum independent sets on small
//! (sub)graphs and the paper's κ₁ / κ₂ parameters.
//!
//! A *bounded independence graph* is characterized by κ₁ and κ₂, the
//! sizes of the largest independent sets in the 1-hop and 2-hop
//! neighborhood of any node (paper Sect. 2). We compute them exactly by
//! running a branch-and-bound maximum-independent-set solver on each
//! (closed) neighborhood, whose adjacency bitset rows are built straight
//! from the CSR rows.
//!
//! The search peels vertices of degree ≤ 1, solves a remainder of
//! disjoint cycles directly and branches on a vertex of maximum degree.
//! Two upper bounds prune it: the chosen vertices plus the free ones,
//! then the chosen vertices plus the cliques of a greedy clique cover of
//! the free ones (an independent set meets each clique at most once). A
//! subtree is cut when its bound cannot beat the incumbent, which starts
//! at a greedy solution and, in [`kappa_bounded`], at the running
//! maximum over the neighborhoods already solved: κ is a maximum, so a
//! neighborhood only matters if it beats them. Dense wireless
//! neighborhoods are not easy without the cover: a jittered grid at
//! Δ = 21 took 11.6 M branching steps under the first bound alone.
//!
//! Fuel counts branching steps per (sub)graph. The cover and the
//! incumbent only cut subtrees out of the search with the first bound
//! alone, so no call takes more steps than that search, and `None`
//! means only that the fuel ran out.

use crate::bitset::BitSet;
use crate::graph::{Graph, NodeId};

/// The paper's independence parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kappa {
    /// Largest independent set in any closed 1-hop neighborhood.
    pub k1: usize,
    /// Largest independent set in any closed 2-hop neighborhood.
    pub k2: usize,
}

/// Exact maximum independent set size of `g` via branch and bound.
///
/// Exponential in the worst case; intended for neighborhood-sized
/// subgraphs (tens to a few hundred nodes, dense).
pub fn max_independent_set_size(g: &Graph) -> usize {
    max_independent_set_size_bounded(g, u64::MAX).expect("unbounded fuel cannot exhaust")
}

/// Like [`max_independent_set_size`] but giving up after `fuel`
/// branching steps; returns `None` on exhaustion.
pub fn max_independent_set_size_bounded(g: &Graph, fuel: u64) -> Option<usize> {
    Subgraphs::new(g).whole().max_independent_set(0, fuel)
}

/// Exact κ₁ and κ₂ of `g`.
///
/// Runs the exact MIS solver on every closed 1-hop and 2-hop
/// neighborhood. Cost grows with neighborhood size; use
/// [`kappa_bounded`] when working with adversarially sparse graphs.
pub fn kappa(g: &Graph) -> Kappa {
    kappa_bounded(g, u64::MAX).expect("unbounded fuel cannot exhaust")
}

/// κ₁/κ₂ with a per-neighborhood fuel limit; `None` if any neighborhood
/// solver ran out of fuel.
pub fn kappa_bounded(g: &Graph, fuel: u64) -> Option<Kappa> {
    fold_neighborhoods(g, |rows, k| rows.max_independent_set(k, fuel))
}

/// Greedy per-neighborhood κ estimate: a *lower bound* on (κ₁, κ₂)
/// computed with min-degree-first greedy MIS inside every closed 1-hop
/// and 2-hop neighborhood. Use when the exact solver's fuel runs out on
/// adversarially sparse graphs.
pub fn kappa_greedy(g: &Graph) -> Kappa {
    fold_neighborhoods(g, |rows, k| Some(k.max(rows.greedy_mis_size())))
        .expect("the greedy estimate never gives up")
}

/// Folds `solve` over the closed 1-hop and 2-hop neighborhood of every
/// node. `solve(rows, k)` gets the running maximum `k` of that kind and
/// returns the new one; `None` aborts the fold.
fn fold_neighborhoods(
    g: &Graph,
    mut solve: impl FnMut(&Rows, usize) -> Option<usize>,
) -> Option<Kappa> {
    let mut sub = Subgraphs::new(g);
    let mut k = Kappa { k1: 0, k2: 0 };
    for v in g.nodes() {
        k.k1 = solve(sub.ball(v, 1), k.k1)?;
        k.k2 = solve(sub.ball(v, 2), k.k2)?;
    }
    Some(k)
}

/// Marks a node outside the current subgraph in [`Subgraphs::pos`].
const ABSENT: u32 = u32::MAX;

/// Builds the adjacency [`Rows`] of induced subgraphs of one graph,
/// reusing its buffers from one node set to the next.
struct Subgraphs<'g> {
    g: &'g Graph,
    /// `pos[u]`: the index of `u` in `nodes`, or [`ABSENT`].
    pos: Vec<u32>,
    /// The current subgraph's nodes; sorted once [`Self::build`] ran.
    nodes: Vec<NodeId>,
    rows: Rows,
}

impl<'g> Subgraphs<'g> {
    fn new(g: &'g Graph) -> Self {
        Subgraphs {
            g,
            pos: vec![ABSENT; g.len()],
            nodes: Vec::new(),
            rows: Rows::default(),
        }
    }

    /// Rows of the subgraph induced by the closed `hops`-hop
    /// neighborhood of `v`.
    fn ball(&mut self, v: NodeId, hops: usize) -> &Rows {
        let g = self.g;
        self.clear();
        self.add(v);
        let mut frontier = 0;
        for _ in 0..hops {
            let end = self.nodes.len();
            for i in frontier..end {
                for &u in g.neighbors(self.nodes[i]) {
                    self.add(u);
                }
            }
            frontier = end;
        }
        self.build()
    }

    /// Rows of the whole graph.
    fn whole(&mut self) -> &Rows {
        self.clear();
        for v in self.g.nodes() {
            self.add(v);
        }
        self.build()
    }

    fn clear(&mut self) {
        for &u in &self.nodes {
            self.pos[u as usize] = ABSENT;
        }
        self.nodes.clear();
    }

    fn add(&mut self, u: NodeId) {
        if self.pos[u as usize] == ABSENT {
            self.pos[u as usize] = 0; // numbered by `build`
            self.nodes.push(u);
        }
    }

    /// Numbers the added nodes in increasing order and fills their rows
    /// from the CSR rows.
    fn build(&mut self) -> &Rows {
        self.nodes.sort_unstable();
        for (i, &u) in self.nodes.iter().enumerate() {
            self.pos[u as usize] = i as u32;
        }
        let rows = &mut self.rows;
        rows.n = self.nodes.len();
        rows.words = rows.n.div_ceil(64);
        rows.bits.clear();
        rows.bits.resize(rows.n * rows.words, 0);
        for (i, &u) in self.nodes.iter().enumerate() {
            let row = &mut rows.bits[i * rows.words..(i + 1) * rows.words];
            for &w in self.g.neighbors(u) {
                let j = self.pos[w as usize];
                if j != ABSENT {
                    row[j as usize / 64] |= 1 << (j % 64);
                }
            }
        }
        rows
    }
}

/// Adjacency-matrix rows of a small graph: bit `u` of row `v` is set
/// iff `{u, v}` is an edge.
#[derive(Default)]
struct Rows {
    n: usize,
    /// `u64`s per row.
    words: usize,
    /// Row `v` is `bits[v * words..(v + 1) * words]`.
    bits: Vec<u64>,
}

impl Rows {
    fn row(&self, v: usize) -> &[u64] {
        &self.bits[v * self.words..(v + 1) * self.words]
    }

    fn adjacent(&self, u: usize, v: usize) -> bool {
        self.row(u)[v / 64] >> (v % 64) & 1 == 1
    }

    /// First-fit independent set size in order of increasing degree
    /// (ties by index).
    fn greedy_mis_size(&self) -> usize {
        let mut order: Vec<usize> = (0..self.n).collect();
        order.sort_by_key(|&v| self.row(v).iter().map(|w| w.count_ones()).sum::<u32>());
        let mut open = BitSet::full(self.n);
        let mut size = 0;
        for v in order {
            if open.contains(v) {
                open.subtract_words(self.row(v));
                size += 1;
            }
        }
        size
    }

    /// The larger of `incumbent` and the maximum independent set size,
    /// or `None` if `fuel` branching steps do not settle which.
    fn max_independent_set(&self, incumbent: usize, fuel: u64) -> Option<usize> {
        if self.n == 0 {
            return Some(incumbent);
        }
        let mut search = Search {
            rows: self,
            best: incumbent.max(self.greedy_mis_size()),
            fuel,
            rest: BitSet::new(self.n),
            candidates: BitSet::new(self.n),
        };
        search.branch(BitSet::full(self.n), 0);
        (search.fuel > 0).then_some(search.best)
    }
}

/// One branch-and-bound search over a graph's [`Rows`].
struct Search<'a> {
    rows: &'a Rows,
    /// Size of the largest independent set known so far.
    best: usize,
    fuel: u64,
    /// Scratch of [`Self::cover_fits`]: the vertices no clique covers yet,
    /// and the candidates to extend the current clique with.
    rest: BitSet,
    candidates: BitSet,
}

impl Search<'_> {
    fn branch(&mut self, mut free: BitSet, mut current: usize) {
        if self.fuel == 0 {
            return;
        }
        self.fuel -= 1;
        let rows = self.rows;
        // Peel vertices of degree 0 or 1 in the remaining set: including
        // them is always optimal (dominance rule). Repeat until stable.
        let mut max_deg;
        let mut max_v = usize::MAX;
        loop {
            let mut peeled = false;
            max_deg = 0;
            for i in 0..free.words().len() {
                let mut word = free.words()[i];
                while word != 0 {
                    let v = i * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    if !free.contains(v) {
                        continue; // dropped earlier in this pass
                    }
                    let deg = free.intersection_len(rows.row(v));
                    if deg <= 1 {
                        // Take v and drop its remaining neighbor, if any.
                        free.remove(v);
                        free.subtract_words(rows.row(v));
                        current += 1;
                        peeled = true;
                    } else if deg > max_deg {
                        max_deg = deg;
                        max_v = v;
                    }
                }
            }
            if !peeled {
                break;
            }
        }
        if free.is_empty() {
            self.best = self.best.max(current);
            return;
        }
        if current + free.len() <= self.best {
            return; // even taking every free vertex cannot beat `best`
        }
        if current < self.best && self.cover_fits(&free, self.best - current) {
            return; // nor can one vertex from each clique of a cover
        }
        // Every remaining vertex has degree ≥ 2. If all have degree exactly
        // 2, the remainder is a disjoint union of cycles: solvable directly
        // (a k-cycle contributes ⌊k/2⌋), no branching needed.
        if max_deg <= 2 {
            self.best = self.best.max(current + mis_of_cycles(rows, &free));
            return;
        }
        // Branch on the vertex with maximum remaining degree.
        let v = max_v;
        debug_assert!(free.contains(v));
        // Branch 1: include v.
        let mut with_v = free.clone();
        with_v.remove(v);
        with_v.subtract_words(rows.row(v));
        self.branch(with_v, current + 1);
        // Branch 2: exclude v.
        free.remove(v);
        self.branch(free, current);
    }

    /// `true` if a greedy clique cover of `free` has at most `limit`
    /// cliques. Each clique starts at the lowest vertex no clique covers
    /// yet and grows by the lowest candidate adjacent to all its members.
    fn cover_fits(&mut self, free: &BitSet, limit: usize) -> bool {
        let rows = self.rows;
        self.rest.clone_from(free);
        for _ in 0..limit {
            let Some(u) = self.rest.first() else {
                return true;
            };
            self.rest.remove(u);
            self.candidates.clone_from(&self.rest);
            self.candidates.intersect_words(rows.row(u));
            while let Some(w) = self.candidates.first() {
                self.rest.remove(w);
                self.candidates.intersect_words(rows.row(w));
            }
        }
        self.rest.is_empty()
    }
}

/// Exact MIS size of a remainder in which every vertex has degree
/// exactly 2 within `free` (after deg ≤ 1 peeling): a disjoint union of
/// simple cycles; each `k`-cycle contributes `⌊k/2⌋`.
fn mis_of_cycles(rows: &Rows, free: &BitSet) -> usize {
    let mut unseen = free.clone();
    let mut total = 0;
    while let Some(start) = unseen.first() {
        // Walk the cycle.
        let mut len = 0usize;
        let mut v = start;
        loop {
            unseen.remove(v);
            len += 1;
            match unseen.iter().find(|&u| rows.adjacent(v, u)) {
                Some(u) => v = u,
                None => break,
            }
        }
        total += len / 2;
    }
    total
}

/// Greedy independent set in `order` (first-fit): a cheap lower bound and
/// the correctness oracle for MIS baselines.
pub fn greedy_independent_set(g: &Graph, order: &[NodeId]) -> Vec<NodeId> {
    let mut blocked = vec![false; g.len()];
    let mut out = Vec::new();
    for &v in order {
        if !blocked[v as usize] {
            out.push(v);
            blocked[v as usize] = true;
            for &u in g.neighbors(v) {
                blocked[u as usize] = true;
            }
        }
    }
    out
}

/// `true` iff `set` is an independent set of `g`.
pub fn is_independent_set(g: &Graph, set: &[NodeId]) -> bool {
    for (i, &u) in set.iter().enumerate() {
        for &v in &set[i + 1..] {
            if g.has_edge(u, v) {
                return false;
            }
        }
    }
    true
}

/// `true` iff `set` is a *maximal* independent set of `g`: independent,
/// and every node outside has a neighbor inside.
pub fn is_maximal_independent_set(g: &Graph, set: &[NodeId]) -> bool {
    if !is_independent_set(g, set) {
        return false;
    }
    let mut in_set = vec![false; g.len()];
    for &v in set {
        in_set[v as usize] = true;
    }
    g.nodes()
        .all(|v| in_set[v as usize] || g.neighbors(v).iter().any(|&u| in_set[u as usize]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::special::{complete, complete_bipartite, cycle, path, star};

    #[test]
    fn mis_on_known_graphs() {
        assert_eq!(max_independent_set_size(&path(5)), 3);
        assert_eq!(max_independent_set_size(&cycle(5)), 2);
        assert_eq!(max_independent_set_size(&cycle(6)), 3);
        assert_eq!(max_independent_set_size(&star(7)), 6);
        assert_eq!(max_independent_set_size(&complete(6)), 1);
        assert_eq!(max_independent_set_size(&complete_bipartite(3, 5)), 5);
        assert_eq!(max_independent_set_size(&Graph::empty(4)), 4);
        assert_eq!(max_independent_set_size(&Graph::empty(0)), 0);
    }

    #[test]
    fn kappa_on_known_graphs() {
        // Clique: every neighborhood is the whole clique.
        assert_eq!(kappa(&complete(5)), Kappa { k1: 1, k2: 1 });
        // Star: the center's 1-hop neighborhood holds all leaves.
        assert_eq!(kappa(&star(6)), Kappa { k1: 5, k2: 5 });
        // Path P5: N²[2] = everything, MIS {0,2,4}.
        let k = kappa(&path(5));
        assert_eq!(k.k1, 2);
        assert_eq!(k.k2, 3);
    }

    #[test]
    fn bounded_solver_gives_up_gracefully() {
        let g = complete_bipartite(10, 10);
        assert_eq!(max_independent_set_size_bounded(&g, u64::MAX), Some(10));
        assert_eq!(max_independent_set_size_bounded(&g, 1), None);
    }

    #[test]
    fn kappa_greedy_is_lower_bound_of_exact() {
        for g in [
            path(7),
            cycle(8),
            star(6),
            complete(5),
            complete_bipartite(3, 4),
        ] {
            let exact = kappa(&g);
            let lb = kappa_greedy(&g);
            assert!(lb.k1 <= exact.k1, "k1 {lb:?} vs {exact:?}");
            assert!(lb.k2 <= exact.k2, "k2 {lb:?} vs {exact:?}");
            // Greedy MIS is maximal, so at least half-decent: ≥ 1.
            assert!(lb.k1 >= 1 || g.is_empty());
        }
    }

    #[test]
    fn greedy_set_is_independent_and_maximal() {
        let g = cycle(9);
        let order: Vec<NodeId> = g.nodes().collect();
        let s = greedy_independent_set(&g, &order);
        assert!(is_independent_set(&g, &s));
        assert!(is_maximal_independent_set(&g, &s));
    }

    #[test]
    fn maximality_detects_non_maximal() {
        let g = path(5);
        assert!(is_independent_set(&g, &[0]));
        assert!(!is_maximal_independent_set(&g, &[0])); // 3 uncovered
        assert!(is_maximal_independent_set(&g, &[0, 2, 4]));
        assert!(!is_maximal_independent_set(&g, &[0, 1]));
    }
}
