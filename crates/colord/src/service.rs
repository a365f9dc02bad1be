//! The deterministic service core: live membership + slot stepping.
//!
//! [`Service`] owns one [`ColoringNode`] FSM per joined node and steps
//! them on the simulator's own lock-step slot kernel
//! ([`radio_sim::SlotKernel`]: wake-ups → deadlines → transmission
//! draws → deliveries, receive-installed behaviors effective the next
//! slot). The only difference from a simulation run is that the graph
//! and the node set change over time: joins admit a fresh FSM that
//! wakes at the next slot, leaves evict a node mid-run, and watchdog
//! resets and κ̂₂ reprovisions restart one. Decided nodes keep
//! transmitting their `M_C` beacons forever — that is what lets a late
//! joiner compete against, and defer to, an already-colored
//! neighborhood.
//!
//! This type is a facade over three layers: the router (placement,
//! topology, tokens, κ̂₂), k spatial shards stepped in lockstep, each a
//! slot kernel plus mailboxes (see the `crate::shard` module docs for
//! the phase structure and the bit-identity argument), and an
//! incrementally patched `TdmaState`. Requests lock the router
//! (shared for heartbeats) plus one shard; only membership changes
//! take the router exclusively. `shards: 1` (the default) runs the
//! identical slot loop single-threaded — and a k-shard run settles to
//! the bit-identical coloring, which the equivalence tests pin.
//!
//! Everything here is pure state + the seeded per-node RNG streams
//! (`node_rng`): no sockets, no wall clock, no ambient randomness. The
//! server layer decides *when* to call [`Service::step`]; replaying the
//! same call sequence replays the same coloring bit-for-bit.
//!
//! [`ColoringNode`]: urn_coloring::ColoringNode

use crate::router::Router;
use crate::shard::{worker_loop, Frame, Shard, Shared, StepCtx};
use radio_graph::NodeId;
use radio_transport::rng::node_rng;
use radio_transport::{Slot, SpinBarrier};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{Mutex, RwLock};
use urn_coloring::json::{self, Value};
use urn_coloring::{ColoringNode, ProtoId};

/// Static service parameters, fixed at startup.
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Unit-disk connection radius for the live membership.
    pub radius: f64,
    /// κ̂₂ handed to every FSM (see `AlgorithmParams::practical`).
    /// `Some(k)` pins the operator's estimate, exactly the old
    /// `--kappa2` flag. `None` — the default — estimates κ₂ online
    /// from join-time neighborhood announcements (Sect. 6 style) and
    /// re-admits under-provisioned FSMs when the estimate grows; this
    /// is what lets E21's lattice converge without operator tuning.
    pub kappa2: Option<usize>,
    /// Δ̂ (max closed degree) estimate handed to every FSM. Joins that
    /// would exceed it are still accepted — the estimate governs the
    /// FSM's color-class count, not admission.
    pub delta_cap: usize,
    /// n̂ estimate handed to every FSM.
    pub n_cap: usize,
    /// Master seed; node `i`'s stream is `node_rng(seed, join id)`.
    pub seed: u64,
    /// Hard cap on concurrently joined nodes; joins beyond it are
    /// rejected with [`ServiceError::Full`].
    pub max_live: usize,
    /// Stall watchdog: an undecided node that has made no decision
    /// within this many slots of its wake is re-admitted as a fresh
    /// protocol node (same session token, new protocol ID and RNG
    /// stream — exactly a late joiner, which the algorithm supports by
    /// design). This is the service-level recovery for FSM states the
    /// paper leaves unbounded under churn: a requester whose leader
    /// left the membership waits forever (state `R` sets no deadline).
    /// `0` disables the watchdog.
    pub stall_slots: u64,
    /// Spatial shards. Each owns one set of strips of the plane
    /// (width = `radius`, round-robin by strip index) and steps its
    /// nodes on its own thread; `1` (the default) is the sequential
    /// service. Shard count changes throughput, never the coloring.
    pub shards: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            radius: 1.0,
            kappa2: None,
            delta_cap: 16,
            n_cap: 1 << 16,
            seed: 0xC0104D,
            max_live: 1 << 20,
            stall_slots: 300_000,
            shards: 1,
        }
    }
}

/// Why a request was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// The session token does not name a live node (never issued, or
    /// the node already left).
    UnknownToken,
    /// The membership is at [`ServiceConfig::max_live`].
    Full,
    /// A join position had a non-finite coordinate.
    BadPosition,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UnknownToken => write!(f, "unknown session token"),
            ServiceError::Full => write!(f, "membership full"),
            ServiceError::BadPosition => write!(f, "non-finite position"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Monotonic service counters (never reset).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Sessions ever admitted.
    pub joins: u64,
    /// Sessions that left.
    pub leaves: u64,
    /// Heartbeats answered.
    pub heartbeats: u64,
    /// Slots stepped.
    pub slots: u64,
    /// Protocol transmissions across all nodes.
    pub transmissions: u64,
    /// Successful single-transmitter deliveries.
    pub deliveries: u64,
    /// Listener-slots lost to collisions.
    pub collisions: u64,
    /// Stalled sessions reset by the watchdog
    /// (see [`ServiceConfig::stall_slots`]).
    pub resets: u64,
    /// FSMs re-admitted because the online κ̂₂ grew past the value they
    /// were provisioned with (always 0 when `kappa2` is pinned).
    pub reprovisions: u64,
}

/// What a heartbeat tells the client about its node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Heartbeat {
    /// The service's current slot clock.
    pub slot: Slot,
    /// The node's color, if it has decided.
    pub color: Option<u32>,
    /// `true` if the node is a cluster leader (color 0).
    pub leader: bool,
}

/// A consistent view of the coloring at one slot.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// The slot the snapshot was taken at.
    pub slot: Slot,
    /// Live nodes.
    pub live: usize,
    /// Live nodes whose FSM has decided.
    pub decided: usize,
    /// Edges of the live unit disk graph whose endpoints share a color
    /// (0 = the coloring is proper so far).
    pub conflicts: usize,
    /// TDMA frame length implied by the decided colors
    /// (max color + 1; 0 while nothing has decided).
    pub frame_len: u32,
    /// Cluster leaders among the decided nodes.
    pub leaders: usize,
    /// The κ̂₂ currently provisioning new FSMs (the pinned value, or
    /// the online estimate after its last refresh).
    pub kappa2_est: usize,
    /// Undecided nodes per shard — the per-strip progress/livelock
    /// signal (E21's rate, observable instead of anecdotal).
    pub shard_undecided: Vec<usize>,
    /// Service counters at snapshot time.
    pub stats: ServiceStats,
}

impl Snapshot {
    /// `true` when every live node has decided and no two neighbors
    /// share a color — the service analogue of
    /// `ColoringOutcome::valid()`.
    pub fn valid(&self) -> bool {
        self.live == self.decided && self.conflicts == 0
    }

    /// Renders the snapshot as a compact JSON object.
    pub fn to_json(&self) -> String {
        let num = |x: u64| Value::Num(x as f64);
        json::dump(&Value::Obj(vec![
            ("slot".into(), num(self.slot)),
            ("live".into(), num(self.live as u64)),
            ("decided".into(), num(self.decided as u64)),
            ("conflicts".into(), num(self.conflicts as u64)),
            ("frame_len".into(), num(u64::from(self.frame_len))),
            ("leaders".into(), num(self.leaders as u64)),
            ("kappa2_est".into(), num(self.kappa2_est as u64)),
            ("joins".into(), num(self.stats.joins)),
            ("leaves".into(), num(self.stats.leaves)),
            ("heartbeats".into(), num(self.stats.heartbeats)),
            ("slots".into(), num(self.stats.slots)),
            ("transmissions".into(), num(self.stats.transmissions)),
            ("deliveries".into(), num(self.stats.deliveries)),
            ("collisions".into(), num(self.stats.collisions)),
            ("resets".into(), num(self.stats.resets)),
            ("reprovisions".into(), num(self.stats.reprovisions)),
            (
                "shard_undecided".into(),
                Value::Arr(
                    self.shard_undecided
                        .iter()
                        .map(|&u| num(u as u64))
                        .collect(),
                ),
            ),
            ("valid".into(), Value::Bool(self.valid())),
        ]))
    }
}

/// Sentinel color for "not decided / not live".
const UNDECIDED: u32 = u32::MAX;

/// The incrementally maintained TDMA view of the live coloring:
/// per-node colors, a color histogram (frame length + decided count),
/// the monochromatic-edge count, and the leader count. Decide events
/// patch the affected neighborhood's entries; leaves reverse the patch
/// — the snapshot never rebuilds from the FSMs.
pub(crate) struct TdmaState {
    colors: Vec<u32>,
    leader: Vec<bool>,
    /// Color → how many live decided nodes hold it.
    hist: BTreeMap<u32, usize>,
    conflicts: usize,
    leaders: usize,
}

impl TdmaState {
    fn new() -> TdmaState {
        TdmaState {
            colors: Vec::new(),
            leader: Vec::new(),
            hist: BTreeMap::new(),
            conflicts: 0,
            leaders: 0,
        }
    }

    /// Grows the id-indexed tables to the router's capacity.
    fn ensure(&mut self, cap: usize) {
        if self.colors.len() < cap {
            self.colors.resize(cap, UNDECIDED);
            self.leader.resize(cap, false);
        }
    }

    /// A node decided: patch its neighborhood's conflict count and the
    /// histogram. `nbrs` is the node's live neighbor list at commit
    /// time.
    pub(crate) fn decide(&mut self, v: NodeId, color: u32, leader: bool, nbrs: &[NodeId]) {
        debug_assert_eq!(self.colors[v as usize], UNDECIDED, "double decide");
        for &w in nbrs {
            if self.colors[w as usize] == color {
                self.conflicts += 1;
            }
        }
        self.colors[v as usize] = color;
        self.leader[v as usize] = leader;
        *self.hist.entry(color).or_insert(0) += 1;
        if leader {
            self.leaders += 1;
        }
    }

    /// A decided node left (or is being re-admitted): reverse
    /// [`decide`](Self::decide)'s patch. `nbrs` is the neighbor list
    /// the node had while it was live. No-op for undecided ids.
    pub(crate) fn retire(&mut self, v: NodeId, nbrs: &[NodeId]) {
        let c = self.colors[v as usize];
        if c == UNDECIDED {
            return;
        }
        for &w in nbrs {
            if self.colors[w as usize] == c {
                self.conflicts -= 1;
            }
        }
        self.colors[v as usize] = UNDECIDED;
        if self.leader[v as usize] {
            self.leader[v as usize] = false;
            self.leaders -= 1;
        }
        match self.hist.get_mut(&c) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                self.hist.remove(&c);
            }
        }
    }

    fn frame_len(&self) -> u32 {
        self.hist.keys().next_back().map_or(0, |&c| c + 1)
    }
}

/// The service: live membership, one FSM per node, a slot clock.
pub struct Service {
    cfg: ServiceConfig,
    /// Placement, topology, tokens, κ̂₂. Read-locked by heartbeats and
    /// the whole slot loop; write-locked by join/leave/reprovision.
    router: RwLock<Router>,
    /// The per-strip FSM engines; `shards[router.shard_of(v)]` owns
    /// node `v`.
    shards: Vec<Mutex<Shard>>,
    /// Incrementally patched TDMA schedule (colors, conflicts, frame).
    tdma: Mutex<TdmaState>,
    /// Atomic cross-shard state (slot clock, token counter, heartbeats).
    shared: Shared,
    /// `mailbox[src][dst]`: boundary frames in flight between shards.
    mailbox: Vec<Vec<Mutex<Vec<Frame>>>>,
}

impl Service {
    /// An empty service.
    pub fn new(cfg: ServiceConfig) -> Self {
        let k = cfg.shards.max(1);
        let mut mailbox = Vec::with_capacity(k);
        for _ in 0..k {
            let mut lane = Vec::with_capacity(k);
            for _ in 0..k {
                lane.push(Mutex::new(Vec::new()));
            }
            mailbox.push(lane);
        }
        Service {
            router: RwLock::new(Router::new(&cfg)),
            shards: (0..k).map(|_| Mutex::new(Shard::new(k))).collect(),
            tdma: Mutex::new(TdmaState::new()),
            shared: Shared::new(),
            mailbox,
            cfg,
        }
    }

    /// The current slot clock.
    pub fn slot(&self) -> Slot {
        self.shared.slot.load(Ordering::Relaxed)
    }

    /// How many shards this service steps in parallel.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// `true` when stepping the clock cannot change anything: no node
    /// is live, or every live node has decided (decided beacons only
    /// matter to undecided listeners). The server parks its ticker on
    /// this.
    pub fn idle(&self) -> bool {
        self.shards
            .iter()
            .all(|cell| cell.lock().expect("shard lock").kernel.undecided() == 0)
    }

    /// Admits a node at position `(x, y)`; it wakes at the next slot.
    /// Returns the session token (also the node's protocol ID).
    pub fn join(&self, x: f64, y: f64) -> Result<u64, ServiceError> {
        if !(x.is_finite() && y.is_finite()) {
            return Err(ServiceError::BadPosition);
        }
        let mut router = self.router.write().expect("router lock");
        if router.len() >= self.cfg.max_live {
            return Err(ServiceError::Full);
        }
        // The token is unique per join, so a reused id gets a fresh,
        // never-reused RNG stream — exactly like a new simulated node.
        let token = self.shared.next_token.fetch_add(1, Ordering::Relaxed);
        let (id, at) = router.admit(token, x, y);
        let proto = ColoringNode::new(token as ProtoId, router.params(&self.cfg));
        let rng = node_rng(self.cfg.seed, token as u32);
        let wake = self.shared.slot.load(Ordering::Relaxed) + 1;
        let l = self.shards[at as usize]
            .lock()
            .expect("shard lock")
            .kernel
            .admit(id, proto, rng, wake);
        router.place(id, l);
        self.tdma
            .lock()
            .expect("tdma lock")
            .ensure(router.capacity());
        Ok(token)
    }

    /// Removes the session's node from the membership.
    pub fn leave(&self, token: u64) -> Result<(), ServiceError> {
        let mut router = self.router.write().expect("router lock");
        let (id, at, old_nbrs) = router.evict(token)?;
        let l = router.local(id);
        let gone = self.shards[at as usize]
            .lock()
            .expect("shard lock")
            .evict(l);
        if gone.decided_at.is_some() {
            // Reverse-patch the schedule with the adjacency the node
            // had while live (the router already forgot it).
            self.tdma.lock().expect("tdma lock").retire(id, &old_nbrs);
        }
        drop(router);
        Ok(())
    }

    /// Reports the session's node state. Takes the router lock shared
    /// and one shard mutex — heartbeats from different strips never
    /// serialize on each other.
    pub fn heartbeat(&self, token: u64) -> Result<Heartbeat, ServiceError> {
        let router = self.router.read().expect("router lock");
        let id = router.resolve(token)?;
        let at = router.shard_of(id) as usize;
        let shard = self.shards[at].lock().expect("shard lock");
        let node = &shard.kernel.protocols()[router.local(id) as usize];
        self.shared.heartbeats.fetch_add(1, Ordering::Relaxed);
        Ok(Heartbeat {
            slot: self.shared.slot.load(Ordering::Relaxed),
            color: node.color(),
            leader: node.is_leader(),
        })
    }

    /// κ̂₂ maintenance, run before each step batch: refresh the online
    /// estimate, and if it grew, sweep the membership and re-admit
    /// every FSM provisioned under a smaller κ̂₂ as a fresh protocol
    /// node — decided ones included, since their colors were chosen
    /// with verification windows now known to be too short (E21's
    /// standing-conflict mode). Session tokens are untouched; to its
    /// neighborhood a re-admitted node is simply a late joiner.
    fn reprovision(&self) {
        let mut router = self.router.write().expect("router lock");
        let Some(kappa2) = router.refresh_kappa2() else {
            return;
        };
        let params = router.params(&self.cfg);
        let wake = self.shared.slot.load(Ordering::Relaxed) + 1;
        for id in router.live_ids() {
            let (at, l) = (router.shard_of(id) as usize, router.local(id));
            let mut shard = self.shards[at].lock().expect("shard lock");
            let node = &shard.kernel.protocols()[l as usize];
            if node.params().kappa2 >= kappa2 {
                continue;
            }
            let was_decided = node.color().is_some();
            let fresh = self.shared.next_token.fetch_add(1, Ordering::Relaxed);
            let proto = ColoringNode::new(fresh as ProtoId, params);
            let rng = node_rng(self.cfg.seed, fresh as u32);
            shard.kernel.restart(l, proto, rng, wake);
            drop(shard);
            if was_decided {
                self.tdma
                    .lock()
                    .expect("tdma lock")
                    .retire(id, router.neighbors(id));
            }
            router.reprovisions += 1;
        }
    }

    /// Advances the slot clock by `slots`, stepping every live FSM on
    /// the slot kernel. With `shards: 1` the loop runs on the calling
    /// thread; otherwise k − 1 workers are scoped in and the caller
    /// drives shard 0. Either way the coloring is bit-identical (see
    /// the `crate::shard` module docs).
    ///
    /// # Panics
    /// If a kernel stopped on a [`ProtocolError`](radio_sim::ProtocolError)
    /// — an invalid behavior or a protocol contract breach. The FSM and
    /// the slot loop are both this workspace's code, so that is a bug,
    /// not client input; a stopped kernel would never go idle.
    pub fn step(&self, slots: u64) {
        if slots == 0 {
            return;
        }
        self.reprovision();
        let router = self.router.read().expect("router lock");
        let ctx = StepCtx {
            router: &router,
            shared: &self.shared,
            mailbox: &self.mailbox,
            params: router.params(&self.cfg),
            seed: self.cfg.seed,
            stall_slots: self.cfg.stall_slots,
        };
        let k = self.shards.len();
        let barrier = SpinBarrier::new(k);
        if k == 1 {
            worker_loop(0, &self.shards, &self.tdma, &ctx, &barrier, slots);
        } else {
            std::thread::scope(|scope| {
                for at in 1..k {
                    let ctx = &ctx;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        worker_loop(at, &self.shards, &self.tdma, ctx, barrier, slots)
                    });
                }
                worker_loop(0, &self.shards, &self.tdma, &ctx, &barrier, slots);
            });
        }
        for cell in &self.shards {
            if let Some(e) = cell.lock().expect("shard lock").kernel.error() {
                panic!("colord slot kernel stopped on a protocol error: {e}");
            }
        }
    }

    /// A consistent view of the live coloring at the current slot. The
    /// TDMA state is patched incrementally by decide/leave events, so
    /// only the traffic counters are summed over the nodes.
    pub fn snapshot(&self) -> Snapshot {
        let router = self.router.read().expect("router lock");
        let mut stats = ServiceStats {
            joins: router.joins,
            leaves: router.leaves,
            reprovisions: router.reprovisions,
            heartbeats: self.shared.heartbeats.load(Ordering::Relaxed),
            slots: self.shared.slot.load(Ordering::Relaxed),
            ..ServiceStats::default()
        };
        let mut shard_undecided = Vec::with_capacity(self.shards.len());
        for cell in &self.shards {
            let shard = cell.lock().expect("shard lock");
            let t = shard.traffic();
            stats.transmissions += t.sent;
            stats.deliveries += t.received;
            stats.collisions += t.collisions;
            stats.resets += shard.resets;
            shard_undecided.push(shard.kernel.undecided());
        }
        let tdma = self.tdma.lock().expect("tdma lock");
        let live = router.len();
        let undecided: usize = shard_undecided.iter().sum();
        Snapshot {
            slot: stats.slots,
            live,
            decided: live - undecided,
            conflicts: tdma.conflicts,
            frame_len: tdma.frame_len(),
            leaders: tdma.leaders,
            kappa2_est: router.kappa2(),
            shard_undecided,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> ServiceConfig {
        ServiceConfig {
            radius: 1.0,
            kappa2: Some(2),
            delta_cap: 8,
            n_cap: 256,
            seed,
            max_live: 64,
            // Watchdog off: these tests pin exact protocol behavior.
            stall_slots: 0,
            shards: 1,
        }
    }

    /// Steps until idle or the bound; panics if the bound is hit.
    fn settle(svc: &Service, bound: u64) {
        let mut left = bound;
        while !svc.idle() {
            assert!(left > 0, "service did not settle within {bound} slots");
            let batch = left.min(256);
            svc.step(batch);
            left -= batch;
        }
    }

    #[test]
    fn isolated_node_becomes_leader() {
        let svc = Service::new(cfg(1));
        let t = svc.join(0.0, 0.0).unwrap();
        settle(&svc, 200_000);
        let hb = svc.heartbeat(t).unwrap();
        assert_eq!(hb.color, Some(0));
        assert!(hb.leader);
        let snap = svc.snapshot();
        assert!(snap.valid());
        assert_eq!(snap.leaders, 1);
        assert_eq!(snap.frame_len, 1);
    }

    #[test]
    fn adjacent_pair_gets_distinct_colors() {
        let svc = Service::new(cfg(2));
        let a = svc.join(0.0, 0.0).unwrap();
        let b = svc.join(0.5, 0.0).unwrap();
        settle(&svc, 2_000_000);
        let ca = svc.heartbeat(a).unwrap().color.unwrap();
        let cb = svc.heartbeat(b).unwrap().color.unwrap();
        assert_ne!(ca, cb);
        assert!(svc.snapshot().valid());
    }

    #[test]
    fn late_joiner_against_settled_neighborhood() {
        let svc = Service::new(cfg(3));
        let a = svc.join(0.0, 0.0).unwrap();
        settle(&svc, 200_000);
        // Join next to the settled leader; the leader beacons keep
        // flowing, so the newcomer must end up with a different color.
        let b = svc.join(0.4, 0.0).unwrap();
        assert!(!svc.idle());
        settle(&svc, 2_000_000);
        let ca = svc.heartbeat(a).unwrap().color.unwrap();
        let cb = svc.heartbeat(b).unwrap().color.unwrap();
        assert_ne!(ca, cb);
        assert!(svc.snapshot().valid());
    }

    #[test]
    fn leave_frees_slot_and_tokens_stay_dead() {
        let svc = Service::new(cfg(4));
        let a = svc.join(0.0, 0.0).unwrap();
        let b = svc.join(3.0, 0.0).unwrap();
        svc.leave(a).unwrap();
        assert_eq!(svc.leave(a), Err(ServiceError::UnknownToken));
        assert_eq!(svc.heartbeat(a).unwrap_err(), ServiceError::UnknownToken);
        // Slot reuse must issue a fresh token.
        let c = svc.join(0.0, 0.0).unwrap();
        assert_ne!(c, a);
        settle(&svc, 2_000_000);
        assert!(svc.heartbeat(b).unwrap().color.is_some());
        assert!(svc.heartbeat(c).unwrap().color.is_some());
        assert!(svc.snapshot().valid());
        assert_eq!(svc.snapshot().stats.leaves, 1);
    }

    #[test]
    fn join_guards() {
        let svc = Service::new(ServiceConfig {
            max_live: 1,
            ..cfg(5)
        });
        assert_eq!(svc.join(f64::NAN, 0.0), Err(ServiceError::BadPosition));
        svc.join(0.0, 0.0).unwrap();
        assert_eq!(svc.join(1.0, 1.0), Err(ServiceError::Full));
    }

    #[test]
    fn snapshot_json_parses() {
        let svc = Service::new(cfg(6));
        svc.join(0.0, 0.0).unwrap();
        settle(&svc, 200_000);
        let text = svc.snapshot().to_json();
        let v = urn_coloring::json::parse(&text).unwrap();
        let obj = v.as_obj("snapshot").unwrap();
        assert_eq!(
            urn_coloring::json::get(obj, "live")
                .unwrap()
                .as_u64("live")
                .unwrap(),
            1
        );
        assert!(urn_coloring::json::get(obj, "valid")
            .unwrap()
            .as_bool("valid")
            .unwrap());
        // The sharding fields are on the wire too.
        assert_eq!(
            urn_coloring::json::get(obj, "kappa2_est")
                .unwrap()
                .as_u64("kappa2_est")
                .unwrap(),
            2
        );
        assert!(urn_coloring::json::get(obj, "shard_undecided").is_ok());
    }

    #[test]
    fn stall_watchdog_resets_stuck_sessions() {
        // A stall bound far below any decision time (an adjacent pair
        // needs hundreds of slots of waiting/verification) forces the
        // watchdog to fire: the sessions keep getting re-admitted as
        // fresh protocol nodes while their tokens stay serviceable.
        let mut svc = Service::new(ServiceConfig {
            stall_slots: 50,
            ..cfg(8)
        });
        let a = svc.join(0.0, 0.0).unwrap();
        let b = svc.join(0.5, 0.0).unwrap();
        svc.step(400);
        let resets = svc.snapshot().stats.resets;
        assert!(resets > 0, "watchdog never fired in 400 slots");
        // The session tokens survive every reset.
        assert!(svc.heartbeat(a).is_ok());
        assert!(svc.heartbeat(b).is_ok());
        // With the bound out of the way the pair still settles to a
        // proper coloring — a reset node is just a late joiner.
        svc.cfg.stall_slots = 0;
        settle(&svc, 2_000_000);
        let ca = svc.heartbeat(a).unwrap().color.unwrap();
        let cb = svc.heartbeat(b).unwrap().color.unwrap();
        assert_ne!(ca, cb);
        let snap = svc.snapshot();
        assert!(snap.valid());
        assert_eq!(snap.stats.resets, resets, "no resets after disabling");
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let svc = Service::new(cfg(7));
            let mut tokens = Vec::new();
            for i in 0..6 {
                tokens.push(svc.join(f64::from(i) * 0.45, 0.0).unwrap());
            }
            svc.step(500);
            svc.leave(tokens[2]).unwrap();
            settle(&svc, 4_000_000);
            let colors: Vec<Option<u32>> = tokens
                .iter()
                .map(|&t| svc.heartbeat(t).ok().and_then(|h| h.color))
                .collect();
            (colors, svc.slot(), svc.snapshot())
        };
        let (c1, s1, snap1) = run();
        let (c2, s2, snap2) = run();
        assert_eq!(c1, c2);
        assert_eq!(s1, s2);
        // Heartbeat counters differ only through the calls above, which
        // are identical — the whole snapshot must match.
        assert_eq!(snap1, snap2);
        assert!(snap1.valid());
    }

    #[test]
    fn online_estimator_reprovisions_and_converges() {
        // The E21 failure in miniature: a 3×3 lattice at spacing 0.75
        // has κ₂ = 5, far above the old default of 2 — pinning 2 left
        // standing conflicts on the full experiment. With `kappa2:
        // None` the estimator must discover the value from join
        // announcements, re-admit the under-provisioned FSMs, and
        // settle to a proper coloring with no operator tuning.
        let svc = Service::new(ServiceConfig {
            kappa2: None,
            ..cfg(11)
        });
        let mut tokens = Vec::new();
        for i in 0..9 {
            let (x, y) = ((i % 3) as f64 * 0.75, (i / 3) as f64 * 0.75);
            tokens.push(svc.join(x, y).unwrap());
        }
        settle(&svc, 30_000_000);
        let snap = svc.snapshot();
        assert!(
            snap.valid(),
            "{} live, {} decided, {} conflicts",
            snap.live,
            snap.decided,
            snap.conflicts
        );
        assert_eq!(snap.kappa2_est, 5, "estimator found the lattice κ₂");
        assert!(
            snap.stats.reprovisions > 0,
            "early joiners were provisioned at the floor and re-admitted"
        );
        for &t in &tokens {
            assert!(svc.heartbeat(t).unwrap().color.is_some());
        }
    }
}
