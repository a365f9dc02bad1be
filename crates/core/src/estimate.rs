//! Neighborhood-size estimation and the adaptive two-phase protocol —
//! the paper's future-work direction (Sect. 6).
//!
//! > "A direction for future research is to address the issue that our
//! > algorithm is based on the assumption that nodes know an estimate
//! > of n and Δ. In single-hop radio networks … there are efficient
//! > methods enabling nodes to approximately count the number of their
//! > neighbors, e.g. \[9\]. If such techniques could be adapted to an
//! > asynchronous multi-hop scenario, nodes might be able to estimate
//! > the local maximum degree, which could then be used instead of Δ."
//!
//! [`DegreeEstimator`] adapts the decay-style counting idea to the
//! multi-hop model: probing proceeds in `K` *phases* of `W` slots with
//! geometrically decreasing ping probabilities `p_k = 2^{−(k+1)}`. A
//! listener's per-slot reception rate `r_k(d) = d·p_k·(1−p_k)^d` peaks
//! at the phase where `p_k ≈ 1/d`, so the phase with the most received
//! pings encodes the neighborhood size up to a factor ≈ 2 — exactly the
//! "rough bound" quality the algorithm needs.
//!
//! [`AdaptiveNode`] chains the estimator into the coloring algorithm:
//! each node finishes its probing, sets `Δ̂_v = safety · 2^{k*+1}` from
//! *its own* estimate, and runs [`ColoringNode`] with those per-node
//! parameters. Experiment E15 measures both the estimator's accuracy
//! and the end-to-end validity of the adaptive pipeline.
//!
//! [`Kappa2Estimator`] applies the same Sect. 6 philosophy to the
//! *other* provisioned parameter, κ₂: a coordinator that observes
//! neighborhood announcements (the `colord` service sees each
//! joiner's adjacency as it forms) maintains a running exact maximum
//! independent set over the closed 2-hop balls the announcements
//! touch, and hands the resulting κ̂₂ to [`AlgorithmParams`] instead
//! of an operator flag. Experiment E21's lattice converges with the
//! default config through it.

use crate::messages::{ColoringMsg, ProtoId};
use crate::node::ColoringNode;
use crate::params::AlgorithmParams;
use radio_sim::{Behavior, BehaviorFault, RadioProtocol, Slot};
use rand::rngs::SmallRng;
use std::collections::{BTreeMap, BTreeSet};

/// Configuration of the probing phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EstimatorParams {
    /// Number of probability phases: covers degrees up to `2^phases`.
    pub phases: u32,
    /// Slots per phase (`⌈w·log n̂⌉` is a good choice).
    pub slots_per_phase: Slot,
    /// Multiplier applied to the raw estimate before use as `Δ̂_v`
    /// (over-estimates are safe; under-estimates erode correctness).
    pub safety: f64,
}

impl EstimatorParams {
    /// Sensible defaults for a network of (estimated) size `n_est`
    /// and degrees up to `delta_cap`.
    pub fn new(n_est: usize, delta_cap: usize) -> Self {
        let log_n = (n_est.max(2) as f64).log2();
        EstimatorParams {
            phases: (delta_cap.max(4) as f64).log2().ceil() as u32,
            slots_per_phase: (16.0 * log_n).ceil() as Slot,
            safety: 2.0,
        }
    }

    /// Ping probability of phase `k`: `2^{−(k+1)}`, so phase 0 probes
    /// at 1/2 and phase k targets degrees around `2^{k+1}`.
    pub fn probability(&self, k: u32) -> f64 {
        0.5f64.powi(k as i32 + 1)
    }

    /// Total probing duration.
    pub fn total_slots(&self) -> Slot {
        self.phases as Slot * self.slots_per_phase
    }
}

/// The probing protocol: estimates the (open) neighborhood size.
#[derive(Clone, Debug)]
pub struct DegreeEstimator {
    params: EstimatorParams,
    /// Receptions counted per phase.
    counts: Vec<u32>,
    /// Current phase (== counts.len() - 1 while running).
    phase: u32,
    /// Estimate, set when probing completes.
    estimate: Option<usize>,
}

impl DegreeEstimator {
    /// A fresh estimator.
    pub fn new(params: EstimatorParams) -> Self {
        DegreeEstimator {
            params,
            counts: vec![0],
            phase: 0,
            estimate: None,
        }
    }

    /// The degree estimate `d̂` (defined once probing is over).
    pub fn estimate(&self) -> Option<usize> {
        self.estimate
    }

    /// Reception counts per phase (instrumentation).
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Finalizes: the best phase `k*` maps to `d̂ = 2^{k*+1}`.
    fn finalize(&mut self) -> usize {
        let best = self
            .counts
            .iter()
            .enumerate()
            .max_by_key(|&(k, &c)| (c, k)) // ties → larger k (conservative)
            .map(|(k, _)| k as u32)
            .unwrap_or(0);
        let total: u32 = self.counts.iter().sum();
        let est = if total == 0 {
            1 // silence: no neighbors heard at all
        } else {
            2usize.pow(best + 1)
        };
        self.estimate = Some(est);
        est
    }

    fn behavior(&self, now: Slot) -> Behavior {
        Behavior::Transmit {
            p: self.params.probability(self.phase),
            until: Some(now + self.params.slots_per_phase),
        }
    }
}

impl RadioProtocol for DegreeEstimator {
    type Message = ();

    fn on_wake(&mut self, now: Slot, _rng: &mut SmallRng) -> Behavior {
        self.behavior(now)
    }

    fn on_deadline(&mut self, now: Slot, _rng: &mut SmallRng) -> Behavior {
        self.phase += 1;
        if self.phase >= self.params.phases {
            self.finalize();
            return Behavior::Silent { until: None };
        }
        self.counts.push(0);
        self.behavior(now)
    }

    fn message(&mut self, _now: Slot, _rng: &mut SmallRng) {}

    fn on_receive(&mut self, _now: Slot, _msg: &(), _rng: &mut SmallRng) -> Option<Behavior> {
        if self.estimate.is_none() {
            *self.counts.last_mut().expect("phase counter exists") += 1;
        }
        None
    }

    fn is_decided(&self) -> bool {
        self.estimate.is_some()
    }
}

/// Online κ₂ estimation from observed neighborhood announcements.
///
/// The coloring algorithm's windows and probabilities all scale with
/// κ₂ — the largest independent set in any closed 2-hop neighborhood
/// (Sect. 2) — and an *under*-estimate shrinks every verification
/// window, eroding the w.h.p. guarantee (measurably: E21's lattice
/// stands 8 conflicts at κ̂₂ = 2). The paper's Sect. 6 future-work
/// direction is to estimate such parameters from what nodes actually
/// observe instead of trusting an operator-provisioned bound; this
/// estimator does exactly that for a coordinator (the `colord`
/// service) that sees each joiner's adjacency as it forms.
///
/// Feed it one [`observe`](Kappa2Estimator::observe) call per
/// announced neighborhood (idempotent per node — re-announcing
/// replaces); it maintains the union adjacency, marks every node whose
/// closed 2-hop ball the announcement touched as dirty, and on
/// [`refresh`](Kappa2Estimator::refresh) re-solves the exact maximum
/// independent set (branch-and-bound, greedy warm start, fuel-bounded)
/// over just the dirty balls. The estimate is a running maximum:
/// departures ([`retract`](Kappa2Estimator::retract)) never lower it,
/// because a parameter that was once justified stays safe — κ̂₂ may
/// only over-provision, never under-provision, after shrinkage.
#[derive(Clone, Debug)]
pub struct Kappa2Estimator {
    /// Union adjacency over every currently-announced node, sorted.
    adj: BTreeMap<u64, Vec<u64>>,
    /// Centers whose closed 2-hop ball changed since the last refresh.
    dirty: BTreeSet<u64>,
    /// Largest ball MIS seen so far (running maximum).
    best: usize,
    /// Branch-and-bound fuel per ball; exhaustion falls back to the
    /// greedy lower bound for that ball.
    fuel: u64,
}

impl Default for Kappa2Estimator {
    fn default() -> Self {
        Self::new()
    }
}

impl Kappa2Estimator {
    /// An empty estimator with the default per-ball solver fuel.
    /// Radio neighborhoods are dense, which keeps the exact solver
    /// comfortably inside this budget; pathological sparse balls fall
    /// back to the greedy lower bound instead of stalling the caller.
    pub fn new() -> Self {
        Self::with_fuel(1 << 20)
    }

    /// An empty estimator with an explicit per-ball solver fuel.
    pub fn with_fuel(fuel: u64) -> Self {
        Kappa2Estimator {
            adj: BTreeMap::new(),
            dirty: BTreeSet::new(),
            best: 0,
            fuel: fuel.max(1),
        }
    }

    /// Current κ̂₂: the largest refreshed ball MIS, floored at 2 (the
    /// smallest value [`AlgorithmParams::practical`] accepts — an
    /// empty or silent network still needs well-formed windows).
    pub fn estimate(&self) -> usize {
        self.best.max(2)
    }

    /// Nodes currently announced.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// `true` when no node is announced.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Records (or replaces) node `v`'s announced neighborhood and
    /// marks every closed 2-hop ball the change touches as dirty. The
    /// adjacency is kept symmetric: `v` is inserted into each
    /// neighbor's list even if that neighbor never announced `v` back.
    pub fn observe(&mut self, v: u64, neighbors: &[u64]) {
        // Dropping a previous announcement first keeps re-announcement
        // idempotent (the service re-announces on watchdog resets).
        if self.adj.contains_key(&v) {
            self.retract(v);
        }
        let mut list: Vec<u64> = neighbors.iter().copied().filter(|&w| w != v).collect();
        list.sort_unstable();
        list.dedup();
        for &w in &list {
            let wl = self.adj.entry(w).or_default();
            if let Err(at) = wl.binary_search(&v) {
                wl.insert(at, v);
            }
        }
        // Dirty set: v, N(v), and N²(v) — every center whose closed
        // 2-hop ball gained a member or an edge.
        self.dirty.insert(v);
        for &w in &list {
            self.dirty.insert(w);
            if let Some(wl) = self.adj.get(&w) {
                self.dirty.extend(wl.iter().copied());
            }
        }
        self.adj.insert(v, list);
    }

    /// Removes node `v` from the adjacency. Shrinkage never dirties:
    /// the estimate is a running maximum, so losing members can only
    /// leave κ̂₂ an over-estimate — which is the safe direction.
    pub fn retract(&mut self, v: u64) {
        let Some(list) = self.adj.remove(&v) else {
            return;
        };
        for w in list {
            if let Some(wl) = self.adj.get_mut(&w) {
                if let Ok(at) = wl.binary_search(&v) {
                    wl.remove(at);
                }
            }
        }
        self.dirty.remove(&v);
    }

    /// Re-solves every dirty ball and returns the (possibly raised)
    /// [`estimate`](Kappa2Estimator::estimate). Cost is proportional
    /// to the membership churn since the last call, not to the whole
    /// network: an unchanged graph refreshes for free.
    pub fn refresh(&mut self) -> usize {
        let centers: Vec<u64> = std::mem::take(&mut self.dirty).into_iter().collect();
        for c in centers {
            if self.adj.contains_key(&c) {
                self.best = self.best.max(self.ball_mis(c));
            }
        }
        self.estimate()
    }

    /// Exact MIS size of the closed 2-hop ball around `c` (greedy
    /// lower bound if the solver's fuel runs out).
    fn ball_mis(&self, c: u64) -> usize {
        use radio_graph::analysis::independence::{
            greedy_independent_set, max_independent_set_size_bounded,
        };
        use radio_graph::{Graph, NodeId};

        let mut ball: BTreeSet<u64> = BTreeSet::new();
        ball.insert(c);
        if let Some(nbrs) = self.adj.get(&c) {
            for &w in nbrs {
                ball.insert(w);
                if let Some(wl) = self.adj.get(&w) {
                    ball.extend(wl.iter().copied());
                }
            }
        }
        let index: BTreeMap<u64, NodeId> = ball
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as NodeId))
            .collect();
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for (&v, &vi) in &index {
            if let Some(vl) = self.adj.get(&v) {
                for &w in vl {
                    if let Some(&wi) = index.get(&w) {
                        if vi < wi {
                            edges.push((vi, wi));
                        }
                    }
                }
            }
        }
        let g = Graph::from_edges(ball.len(), edges);
        max_independent_set_size_bounded(&g, self.fuel).unwrap_or_else(|| {
            let order: Vec<NodeId> = g.nodes().collect();
            greedy_independent_set(&g, &order).len()
        })
    }
}

/// Messages of the adaptive two-phase protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdaptiveMsg {
    /// A probing ping (phase 1).
    Ping,
    /// A coloring-algorithm message (phase 2).
    Coloring(ColoringMsg),
}

#[derive(Clone, Debug)]
enum AdaptivePhase {
    Estimating(DegreeEstimator),
    Coloring(ColoringNode),
}

/// Estimate-then-color: runs [`DegreeEstimator`], then constructs a
/// [`ColoringNode`] whose `Δ̂` is this node's own local estimate
/// (instead of a globally provisioned bound).
///
/// The κ̂₂ and n̂ fields of `base` are kept; only `delta_est` is
/// replaced. Heterogeneous per-node `Δ̂` leaves the algorithm's
/// correctness *mechanism* intact (counters and critical ranges defend
/// each node with its own windows); the w.h.p. *analysis* no longer
/// applies verbatim — experiment E15 measures how the end-to-end
/// pipeline actually behaves.
#[derive(Clone, Debug)]
pub struct AdaptiveNode {
    id: ProtoId,
    base: AlgorithmParams,
    est_params: EstimatorParams,
    phase: AdaptivePhase,
}

impl AdaptiveNode {
    /// Creates a sleeping adaptive node. `base.delta_est` is ignored
    /// and replaced by the local estimate.
    pub fn new(id: ProtoId, base: AlgorithmParams, est_params: EstimatorParams) -> Self {
        AdaptiveNode {
            id,
            base,
            est_params,
            phase: AdaptivePhase::Estimating(DegreeEstimator::new(est_params)),
        }
    }

    /// The final color, once decided.
    pub fn color(&self) -> Option<u32> {
        match &self.phase {
            AdaptivePhase::Coloring(c) => c.color(),
            AdaptivePhase::Estimating(_) => None,
        }
    }

    /// The `Δ̂_v` this node derived for itself (once estimated).
    pub fn local_delta(&self) -> Option<usize> {
        match &self.phase {
            AdaptivePhase::Coloring(c) => Some(c.params().delta_est),
            AdaptivePhase::Estimating(e) => e.estimate().map(|d| self.scaled_delta(d)),
        }
    }

    fn scaled_delta(&self, d_open: usize) -> usize {
        ((d_open as f64 * self.est_params.safety).ceil() as usize + 1).max(2)
    }
}

impl RadioProtocol for AdaptiveNode {
    type Message = AdaptiveMsg;

    fn on_wake(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
        match &mut self.phase {
            AdaptivePhase::Estimating(e) => e.on_wake(now, rng),
            AdaptivePhase::Coloring(_) => unreachable!("wake happens once"),
        }
    }

    fn on_deadline(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
        match &mut self.phase {
            AdaptivePhase::Estimating(e) => {
                let b = e.on_deadline(now, rng);
                if let Some(d) = e.estimate() {
                    // Probing done: switch to coloring with a local Δ̂.
                    let mut params = self.base;
                    params.delta_est = self.scaled_delta(d);
                    let mut node = ColoringNode::new(self.id, params);
                    let b = node.on_wake(now, rng);
                    self.phase = AdaptivePhase::Coloring(node);
                    return b;
                }
                b
            }
            AdaptivePhase::Coloring(c) => c.on_deadline(now, rng),
        }
    }

    fn message(&mut self, now: Slot, rng: &mut SmallRng) -> AdaptiveMsg {
        match &mut self.phase {
            AdaptivePhase::Estimating(_) => AdaptiveMsg::Ping,
            AdaptivePhase::Coloring(c) => AdaptiveMsg::Coloring(c.message(now, rng)),
        }
    }

    fn on_receive(&mut self, now: Slot, msg: &AdaptiveMsg, rng: &mut SmallRng) -> Option<Behavior> {
        match (&mut self.phase, msg) {
            (AdaptivePhase::Estimating(e), AdaptiveMsg::Ping) => e.on_receive(now, &(), rng),
            (AdaptivePhase::Coloring(c), AdaptiveMsg::Coloring(m)) => c.on_receive(now, m, rng),
            // Cross-phase traffic is ignored: pings mean nothing to a
            // coloring node, and an estimating node does not count
            // coloring messages (their rates would bias the estimate).
            _ => None,
        }
    }

    fn is_decided(&self) -> bool {
        matches!(&self.phase, AdaptivePhase::Coloring(c) if c.is_decided())
    }

    fn take_breach(&mut self) -> Option<BehaviorFault> {
        match &mut self.phase {
            AdaptivePhase::Estimating(e) => e.take_breach(),
            AdaptivePhase::Coloring(c) => c.take_breach(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_graph::analysis::check_coloring;
    use radio_graph::generators::special::{complete, path, star};
    use radio_graph::Graph;
    use radio_sim::{EngineKind, SimConfig};
    use rand::SeedableRng;

    /// Feeds a static graph to the estimator the way the service
    /// would: one announcement per node, neighbors by id.
    fn announce_whole_graph(g: &Graph) -> Kappa2Estimator {
        let mut est = Kappa2Estimator::new();
        for v in g.nodes() {
            let nbrs: Vec<u64> = g.neighbors(v).iter().map(|&u| u as u64).collect();
            est.observe(v as u64, &nbrs);
        }
        est
    }

    #[test]
    fn kappa2_estimator_matches_exact_kappa_on_lattice() {
        // The load generator's workload: a 0.75-spacing lattice at
        // radius 1 (triangle-free, 4-neighborhood). Its true κ₂ is 9
        // once the grid is at least 5×5 — the estimator must find it
        // from announcements alone.
        use radio_graph::generators::build_udg;
        use radio_graph::Point2;
        let side = 6usize;
        let points: Vec<Point2> = (0..side * side)
            .map(|i| Point2::new((i % side) as f64 * 0.75, (i / side) as f64 * 0.75))
            .collect();
        let g = build_udg(&points, 1.0);
        let exact = radio_graph::analysis::kappa(&g);
        let mut est = announce_whole_graph(&g);
        assert_eq!(est.refresh(), exact.k2);
        assert_eq!(exact.k2, 9, "0.75-lattice κ₂");
        // A second refresh with nothing dirty is free and stable.
        assert_eq!(est.refresh(), 9);
    }

    #[test]
    fn kappa2_estimator_agrees_with_kappa_on_special_graphs() {
        for g in [path(7), star(9), complete(5)] {
            let mut est = announce_whole_graph(&g);
            let exact = radio_graph::analysis::kappa(&g).k2;
            assert_eq!(est.refresh(), exact.max(2), "{exact}");
        }
    }

    #[test]
    fn kappa2_estimate_grows_monotonically_and_survives_retraction() {
        let mut est = Kappa2Estimator::new();
        assert_eq!(est.estimate(), 2, "silence floors at 2");
        // A star center with 5 leaves: every leaf is in the center's
        // 2-hop ball and the leaves are mutually independent.
        for leaf in 1..=5u64 {
            est.observe(leaf, &[0]);
        }
        est.observe(0, &[1, 2, 3, 4, 5]);
        assert_eq!(est.refresh(), 5);
        // Departures never lower the estimate: once justified, κ̂₂
        // stays safe (over-provisioning only).
        for leaf in 2..=5u64 {
            est.retract(leaf);
        }
        assert_eq!(est.refresh(), 5);
        assert_eq!(est.len(), 2);
        // Growth past the old maximum is picked up incrementally.
        for leaf in 6..=8u64 {
            est.observe(leaf, &[0]);
        }
        est.observe(0, &[1, 6, 7, 8]);
        assert_eq!(est.refresh(), 5, "4 leaves stay below the high-water mark");
        for leaf in 9..=12u64 {
            est.observe(leaf, &[0]);
        }
        est.observe(0, &[1, 6, 7, 8, 9, 10, 11, 12]);
        assert_eq!(est.refresh(), 8);
    }

    #[test]
    fn kappa2_estimator_reannouncement_is_idempotent() {
        let mut est = Kappa2Estimator::new();
        est.observe(1, &[2]);
        est.observe(2, &[1]);
        assert_eq!(est.refresh(), 2);
        // The same announcement again must not double edges or nodes.
        est.observe(1, &[2]);
        assert_eq!(est.len(), 2);
        assert_eq!(est.refresh(), 2);
        // Moving node 1 away from 2 replaces, not accretes.
        est.observe(1, &[]);
        est.observe(2, &[]);
        assert_eq!(est.refresh(), 2);
        assert!(!est.is_empty());
    }

    #[test]
    fn estimator_phases_and_probabilities() {
        let p = EstimatorParams::new(256, 64);
        assert_eq!(p.phases, 6);
        assert_eq!(p.probability(0), 0.5);
        assert_eq!(p.probability(2), 0.125);
        assert_eq!(p.total_slots(), 6 * p.slots_per_phase);
    }

    #[test]
    fn isolated_node_estimates_one() {
        let g = Graph::empty(1);
        let params = EstimatorParams::new(64, 32);
        let protos = vec![DegreeEstimator::new(params)];
        let out = EngineKind::Lockstep.run(&g, &[0], protos, 1, &SimConfig::default());
        assert!(out.all_decided);
        assert_eq!(out.protocols[0].estimate(), Some(1));
    }

    #[test]
    fn clique_members_estimate_within_factor_four() {
        // K12: every node has 11 neighbors; the estimate should land in
        // a [d/4, 4d] band (factor-2 method + sampling noise).
        let d = 11usize;
        let g = complete(d + 1);
        let params = EstimatorParams::new(256, 64);
        let protos: Vec<DegreeEstimator> = (0..=d).map(|_| DegreeEstimator::new(params)).collect();
        let out = EngineKind::Event.run(&g, &vec![0; d + 1], protos, 3, &SimConfig::default());
        assert!(out.all_decided);
        for (v, p) in out.protocols.iter().enumerate() {
            let est = p.estimate().unwrap();
            assert!(
                est >= d / 4 && est <= d * 4,
                "node {v}: estimate {est} for true degree {d} (counts {:?})",
                p.counts()
            );
        }
    }

    #[test]
    fn star_center_vs_leaves_estimates_differ() {
        let g = star(17); // center degree 16, leaves degree 1
        let params = EstimatorParams::new(256, 64);
        let protos: Vec<DegreeEstimator> = (0..17).map(|_| DegreeEstimator::new(params)).collect();
        let out = EngineKind::Event.run(&g, &[0; 17], protos, 5, &SimConfig::default());
        assert!(out.all_decided);
        let center = out.protocols[0].estimate().unwrap();
        let leaf = out.protocols[1].estimate().unwrap();
        assert!(center >= 8, "center estimated {center} (true 16)");
        assert!(leaf <= 4, "leaf estimated {leaf} (true 1)");
    }

    #[test]
    fn adaptive_pipeline_colors_properly() {
        let g = path(6);
        // base params: κ̂₂ and n̂ provisioned, Δ̂ will be local.
        let base = AlgorithmParams::practical(2, 2, 256);
        let est = EstimatorParams::new(256, 16);
        let protos: Vec<AdaptiveNode> = (0..6)
            .map(|v| AdaptiveNode::new(v as u64 + 1, base, est))
            .collect();
        let out = EngineKind::Event.run(
            &g,
            &[0; 6],
            protos,
            7,
            &SimConfig::with_max_slots(20_000_000),
        );
        assert!(out.all_decided);
        let colors: Vec<Option<u32>> = out.protocols.iter().map(AdaptiveNode::color).collect();
        let r = check_coloring(&g, &colors);
        assert!(r.valid(), "{colors:?}");
        // Local Δ̂ on a path stays far below any global provisioning for
        // a dense network (factor-2 method + sampling noise ⇒ d̂ ≤ 4·d).
        for p in &out.protocols {
            let d = p.local_delta().unwrap();
            assert!((2..=2 * 4 * 2 + 1).contains(&d), "local Δ̂ = {d}");
        }
    }

    #[test]
    fn adaptive_node_decides_only_after_coloring() {
        let base = AlgorithmParams::practical(2, 2, 64);
        let est = EstimatorParams::new(64, 8);
        let mut node = AdaptiveNode::new(1, base, est);
        let mut rng = SmallRng::seed_from_u64(1);
        let b = node.on_wake(0, &mut rng);
        assert!(!node.is_decided());
        assert_eq!(b.probability(), 0.5);
        // March through all estimator phases.
        let mut b = b;
        for _ in 0..est.phases {
            let now = b.until().expect("estimator phases have deadlines");
            b = node.on_deadline(now, &mut rng);
        }
        // Now in the coloring waiting phase (silent).
        assert_eq!(b.probability(), 0.0);
        assert!(!node.is_decided());
        assert_eq!(node.local_delta(), Some(3)); // silence → d̂=1 → Δ̂ = ⌈2·1⌉+1 = 3
    }
}
