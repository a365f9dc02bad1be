//! Session→shard placement, live topology, and the online κ₂ estimate.
//!
//! The router is everything the shards must agree on: the mutating
//! unit disk graph, its cached sorted adjacency, which strip owns each
//! node and where in that shard's slot kernel it sits, and the
//! session-token table. Placement is geometric — a [`StripMap`] over
//! the join x-coordinate with strips exactly one connection radius
//! wide, so a node's neighbors live in its own strip or the two
//! adjacent ones (the paper's Lemma 1 bounded-boundary argument, the
//! same decomposition `radio_sim::run_sharded` uses).
//!
//! The router also owns the [`Kappa2Estimator`]: every join announces
//! the joiner's neighborhood (the Sect. 6 move — estimate what the
//! operator used to assert), every leave retracts it, and the service
//! refreshes the estimate before each step batch. κ̂₂ feeds
//! [`AlgorithmParams`], replacing the fixed `--kappa2` flag whose
//! under-provisioning E21 exposed.
//!
//! Locking: the router sits behind one `RwLock`. Membership changes
//! (join/leave) take it exclusively; heartbeats and the whole slot
//! loop take it shared — so topology is frozen while shards step, and
//! connection threads touch only the router read-lock plus their
//! target shard's mutex.

use crate::service::{ServiceConfig, ServiceError};
use radio_graph::{DynamicUdg, NodeId, Point2, StripMap};
use std::collections::BTreeMap;
use urn_coloring::{AlgorithmParams, Kappa2Estimator};

/// Shared routing state: topology, placement, tokens, κ̂₂.
pub(crate) struct Router {
    udg: DynamicUdg,
    /// Sorted adjacency lists, maintained incrementally on join/leave.
    /// The grid query (`DynamicUdg::neighbors`) costs a cell scan plus
    /// a sort per call; the slot loop asks for a transmitter's
    /// neighbors every slot, so membership changes (rare) pay the
    /// geometry and slots (hot) read a cached slice.
    nbrs: Vec<Vec<NodeId>>,
    /// Which shard owns each node id (valid while the id is live).
    owner: Vec<u32>,
    /// Each node's local index in its owner's slot kernel (valid while
    /// the id is live).
    local: Vec<u32>,
    free: Vec<NodeId>,
    by_token: BTreeMap<u64, NodeId>,
    strips: StripMap,
    /// `Some` when κ₂ is estimated online (config `kappa2: None`).
    estimator: Option<Kappa2Estimator>,
    /// The κ̂₂ currently provisioning new FSMs; only ever grows.
    kappa2_now: usize,
    pub(crate) joins: u64,
    pub(crate) leaves: u64,
    /// FSMs re-admitted because κ̂₂ grew past their provisioning.
    pub(crate) reprovisions: u64,
}

impl Router {
    pub(crate) fn new(cfg: &ServiceConfig) -> Router {
        Router {
            udg: DynamicUdg::new(cfg.radius),
            nbrs: Vec::new(),
            owner: Vec::new(),
            local: Vec::new(),
            free: Vec::new(),
            by_token: BTreeMap::new(),
            // Strip width = connection radius: neighbors land in
            // adjacent strips, so boundary exchange is nearest-neighbor.
            strips: StripMap::new(cfg.radius, cfg.shards.max(1)),
            estimator: cfg.kappa2.is_none().then(Kappa2Estimator::new),
            kappa2_now: cfg.kappa2.unwrap_or(2).max(2),
            joins: 0,
            leaves: 0,
            reprovisions: 0,
        }
    }

    /// Live node count.
    pub(crate) fn len(&self) -> usize {
        self.udg.len()
    }

    /// Id-space capacity (every live id is below it).
    pub(crate) fn capacity(&self) -> usize {
        self.nbrs.len()
    }

    /// The κ̂₂ provisioning new FSMs right now.
    pub(crate) fn kappa2(&self) -> usize {
        self.kappa2_now
    }

    /// Parameters for an FSM admitted under the current κ̂₂.
    pub(crate) fn params(&self, cfg: &ServiceConfig) -> AlgorithmParams {
        AlgorithmParams::practical(self.kappa2_now.max(2), cfg.delta_cap.max(2), cfg.n_cap)
    }

    /// The cached sorted neighbor list of a live node.
    pub(crate) fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.nbrs[v as usize]
    }

    /// Which shard owns a live node.
    pub(crate) fn shard_of(&self, v: NodeId) -> u32 {
        self.owner[v as usize]
    }

    /// A live node's local index in its owner's slot kernel.
    pub(crate) fn local(&self, v: NodeId) -> u32 {
        self.local[v as usize]
    }

    /// `v`'s local index in shard `at`'s kernel, if `at` owns it.
    #[inline]
    pub(crate) fn local_in(&self, at: usize, v: NodeId) -> Option<u32> {
        (self.owner[v as usize] as usize == at).then(|| self.local[v as usize])
    }

    /// Records where the owner's kernel admitted `v`.
    pub(crate) fn place(&mut self, v: NodeId, local: u32) {
        self.local[v as usize] = local;
    }

    /// Live ids in ascending order.
    pub(crate) fn live_ids(&self) -> Vec<NodeId> {
        let mut ids = self.udg.live_nodes();
        ids.sort_unstable();
        ids
    }

    pub(crate) fn resolve(&self, token: u64) -> Result<NodeId, ServiceError> {
        self.by_token
            .get(&token)
            .copied()
            .ok_or(ServiceError::UnknownToken)
    }

    /// Places a new session: allocates an id, inserts it into the
    /// topology and the strip map, and announces its neighborhood to
    /// the estimator. Returns the id and its owning shard; the caller
    /// admits it there and records its local index with
    /// [`place`](Self::place).
    pub(crate) fn admit(&mut self, token: u64, x: f64, y: f64) -> (NodeId, u32) {
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.nbrs.push(Vec::new());
                self.owner.push(0);
                self.local.push(0);
                (self.nbrs.len() - 1) as NodeId
            }
        };
        self.udg.insert(id, Point2::new(x, y));
        // Incremental adjacency: one grid query for the joiner, then a
        // sorted insert into each neighbor's cached list.
        let nbrs = self.udg.neighbors(id);
        for &w in &nbrs {
            let list = &mut self.nbrs[w as usize];
            if let Err(at) = list.binary_search(&id) {
                list.insert(at, id);
            }
        }
        if let Some(est) = self.estimator.as_mut() {
            let ball: Vec<u64> = nbrs.iter().map(|&w| u64::from(w)).collect();
            est.observe(u64::from(id), &ball);
        }
        self.nbrs[id as usize] = nbrs;
        let shard = self.strips.shard_of_x(x);
        self.owner[id as usize] = shard;
        self.by_token.insert(token, id);
        self.joins += 1;
        (id, shard)
    }

    /// Removes a session from the topology. Returns the id, its shard,
    /// and its former neighbor list (the TDMA schedule needs it to
    /// reverse-patch conflicts). Its [`local`](Self::local) index stays
    /// readable until the id is reused.
    pub(crate) fn evict(&mut self, token: u64) -> Result<(NodeId, u32, Vec<NodeId>), ServiceError> {
        let id = self.resolve(token)?;
        self.by_token.remove(&token);
        self.udg.remove(id);
        let old = std::mem::take(&mut self.nbrs[id as usize]);
        for &w in &old {
            let list = &mut self.nbrs[w as usize];
            if let Ok(at) = list.binary_search(&id) {
                list.remove(at);
            }
        }
        if let Some(est) = self.estimator.as_mut() {
            est.retract(u64::from(id));
        }
        self.free.push(id);
        self.leaves += 1;
        Ok((id, self.owner[id as usize], old))
    }

    /// Refreshes the online κ₂ estimate. Returns `Some(new)` only when
    /// the estimate *grew* past the current provisioning (the only
    /// direction that matters: over-provisioning is safe, Theorem 2
    /// still holds, only the constants stretch). Pinned configs
    /// (`kappa2: Some(_)`) never refresh.
    pub(crate) fn refresh_kappa2(&mut self) -> Option<usize> {
        let est = self.estimator.as_mut()?;
        let fresh = est.refresh();
        if fresh > self.kappa2_now {
            self.kappa2_now = fresh;
            Some(fresh)
        } else {
            None
        }
    }
}
