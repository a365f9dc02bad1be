//! Pluggable channel models: the reception decision as a first-class
//! abstraction.
//!
//! The unstructured radio network model of the paper (Sect. 2) delivers
//! a message to a listener iff **exactly one** neighbor transmits in
//! the slot — no collision detection, no fading, no adversary. That
//! rule used to be an inlined `count == 1` check in every engine; it is
//! now the [`Ideal`] implementation of the [`ChannelModel`] trait, and
//! the engines consult whichever model [`SimConfig`](crate::SimConfig)
//! carries. This turns the simulator into a robustness harness: the
//! same protocols run unchanged under probabilistic loss, bursty
//! Gilbert–Elliott fades, or budgeted adversarial jamming (experiment
//! E19 measures at which fault rates the coloring algorithms stop
//! producing correct colorings).
//!
//! # Contract
//!
//! For every slot, after the scatter-accumulate kernel has counted the
//! transmitting neighbors of each touched listener, the engine calls
//! [`ChannelModel::decide`] once per **awake, non-transmitting**
//! listener with at least one transmitting neighbor, in first-touch
//! order, with slots nondecreasing. The model maps that
//! [`Contention`] to a [`Reception`]:
//!
//! * [`Reception::Deliver`] — the winning sender's message is decoded;
//! * [`Reception::Collide`] — physical collision noise (≥ 2
//!   transmitters); the listener hears nothing;
//! * [`Reception::Drop`] — the channel lost an otherwise-deliverable
//!   slot (fading, loss);
//! * [`Reception::Jam`] — an adversary burned jamming budget on the
//!   slot.
//!
//! To the *listener* the last three are indistinguishable (it cannot
//! tell silence from collision); the simulator records them separately
//! in [`NodeStats`](crate::NodeStats) and the engines' fault logs for
//! analysis.
//!
//! # Determinism rules
//!
//! 1. A model must be a deterministic function of `(channel seed,
//!    listener, slot, contention history)`. All built-in models draw
//!    randomness **counter-based** — a hash of `(seed, listener, slot,
//!    salt)` — never from a sequential stream, so a draw for one
//!    listener/slot can never perturb another's.
//! 2. Models must not depend on *which* slots the engine visits, only
//!    on the sequence of `decide` calls. The event engine skips slots
//!    where nothing is on the air (geometric skip sampling); a
//!    per-slot-state model like [`GilbertElliott`] therefore advances
//!    its Markov chain *lazily* — per-slot draws for every skipped slot
//!    are replayed on the next query, which is exactly the per-slot
//!    fall-back the skip sampling needs when the model is non-trivial.
//!    [`Ideal`] is stateless ([`ChannelModel::is_trivial`]), so the
//!    fast path pays nothing.
//! 3. [`Ideal`] draws no randomness at all and reproduces the paper's
//!    rule bit-identically: any `(graph, wake, seed)` triple produces
//!    the same [`SimOutcome`](crate::SimOutcome) it produced before the
//!    channel layer existed (enforced by `tests/engine_equivalence.rs`
//!    and the differential tests in [`crate::delivery`]).
//!
//! Engines own a per-run model instance built from the declarative
//! [`ChannelSpec`] in their config, seeded from the run seed — runs
//! stay reproducible, and the channel's draws are independent of the
//! per-node protocol RNG streams.

use crate::protocol::Slot;
use crate::rng::splitmix64;
use radio_graph::NodeId;

// The (listener, slot) observation vocabulary lives in the transport
// crate; the historical `radio_sim::channel::{Contention, Reception}`
// paths keep working.
pub use radio_transport::medium::{Contention, Reception};

/// The reception decision, pluggable per run.
///
/// See the [module docs](self) for the call contract and determinism
/// rules. Implementations receive `decide` calls with nondecreasing
/// slots per listener and must be deterministic given their seed.
pub trait ChannelModel {
    /// Maps one reception opportunity to what the listener experiences.
    fn decide(&mut self, c: &Contention) -> Reception;

    /// `true` when the model never alters the ideal outcome and draws
    /// no randomness — engines may skip all fault bookkeeping.
    fn is_trivial(&self) -> bool {
        false
    }
}

/// A counter-based uniform draw in `[0, 1)`: a pure function of
/// `(seed, listener, slot, salt)`, so channel randomness is a stable
/// per-(listener, slot) sub-stream regardless of engine visit order.
#[inline]
fn unit_draw(seed: u64, listener: NodeId, slot: Slot, salt: u64) -> f64 {
    let mut s = seed
        ^ u64::from(listener).wrapping_mul(0xA076_1D64_78BD_642F)
        ^ slot.wrapping_mul(0xE703_7ED1_A0B4_28DB)
        ^ salt.wrapping_mul(0x8EBC_6AF0_9C88_C6E3);
    let z = splitmix64(&mut s);
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// The paper's idealized channel: deliver iff exactly one neighbor
/// transmits. Stateless, draws no randomness, bit-identical to the
/// pre-channel-layer engines.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ideal;

impl ChannelModel for Ideal {
    #[inline]
    fn decide(&mut self, c: &Contention) -> Reception {
        match c.winner {
            Some(w) if c.transmitters == 1 => Reception::Deliver(w),
            _ => Reception::Collide,
        }
    }

    fn is_trivial(&self) -> bool {
        true
    }
}

/// Independent per-slot loss: every deliverable slot is dropped with
/// probability `p` (collisions are already lost and stay collisions).
#[derive(Clone, Debug)]
pub struct ProbabilisticLoss {
    p: f64,
    seed: u64,
}

impl ProbabilisticLoss {
    /// A loss channel dropping deliveries with probability `p ∈ [0, 1]`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability {p} not in [0,1]"
        );
        ProbabilisticLoss { p, seed }
    }
}

impl ChannelModel for ProbabilisticLoss {
    fn decide(&mut self, c: &Contention) -> Reception {
        match c.winner {
            Some(w) if c.transmitters == 1 => {
                if unit_draw(self.seed, c.listener, c.slot, 0x10_55) < self.p {
                    Reception::Drop
                } else {
                    Reception::Deliver(w)
                }
            }
            _ => Reception::Collide,
        }
    }
}

/// Bursty fades: a per-listener two-state Gilbert–Elliott Markov chain.
///
/// Each listener's channel is either *good* or *bad*; per slot it
/// enters the bad state with probability `p_bad`, leaves it with
/// probability `p_good`, and a deliverable slot is dropped with
/// probability `loss_good` / `loss_bad` depending on the state. The
/// chain advances one step per slot but is evaluated lazily with
/// counter-based draws (see the module's determinism rules), so the
/// event engine's slot skipping cannot change outcomes.
#[derive(Clone, Debug)]
pub struct GilbertElliott {
    p_bad: f64,
    p_good: f64,
    loss_good: f64,
    loss_bad: f64,
    seed: u64,
    /// Per listener: (slot the state is valid at, in-bad-state).
    state: Vec<(Slot, bool)>,
}

impl GilbertElliott {
    /// A bursty channel for `n` listeners. `p_bad` is the per-slot
    /// good→bad transition probability, `p_good` the bad→good one;
    /// `loss_good`/`loss_bad` are the per-state delivery loss rates.
    pub fn new(
        n: usize,
        p_bad: f64,
        p_good: f64,
        loss_good: f64,
        loss_bad: f64,
        seed: u64,
    ) -> Self {
        for (name, p) in [
            ("p_bad", p_bad),
            ("p_good", p_good),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name}={p} not in [0,1]");
        }
        let mut ge = GilbertElliott {
            p_bad,
            p_good,
            loss_good,
            loss_bad,
            seed,
            state: Vec::with_capacity(n),
        };
        // Start each listener from the stationary distribution so short
        // runs are not biased towards the good state.
        let stationary_bad = if p_bad + p_good > 0.0 {
            p_bad / (p_bad + p_good)
        } else {
            0.0
        };
        for u in 0..n as NodeId {
            let bad = unit_draw(seed, u, 0, 0x6E_17) < stationary_bad;
            ge.state.push((0, bad));
        }
        ge
    }

    /// Advances listener `u`'s chain to `slot`, replaying one
    /// counter-based draw per intervening slot.
    fn state_at(&mut self, u: NodeId, slot: Slot) -> bool {
        let (last, mut bad) = self.state[u as usize];
        debug_assert!(slot >= last, "decide slots must be nondecreasing");
        for s in last + 1..=slot {
            let flip = if bad { self.p_good } else { self.p_bad };
            if unit_draw(self.seed, u, s, 0x6E_02) < flip {
                bad = !bad;
            }
        }
        self.state[u as usize] = (slot, bad);
        bad
    }
}

impl ChannelModel for GilbertElliott {
    fn decide(&mut self, c: &Contention) -> Reception {
        match c.winner {
            Some(w) if c.transmitters == 1 => {
                let loss = if self.state_at(c.listener, c.slot) {
                    self.loss_bad
                } else {
                    self.loss_good
                };
                if unit_draw(self.seed, c.listener, c.slot, 0x6E_55) < loss {
                    Reception::Drop
                } else {
                    Reception::Deliver(w)
                }
            }
            _ => Reception::Collide,
        }
    }
}

/// A budgeted adversary that jams the busiest listeners.
///
/// Time is divided into windows of `window` slots; in each window the
/// adversary may jam at most `budget` deliverable slots. It is *causal*
/// (it cannot look ahead): it tracks each listener's reception
/// opportunities within the current window and spends budget only on a
/// listener that is currently (tied for) the busiest — exactly the
/// nodes whose progress the coloring algorithm depends on most.
#[derive(Clone, Debug)]
pub struct AdversarialJam {
    window: Slot,
    budget: u32,
    /// Window index the per-listener traffic counts belong to.
    cur_window: Slot,
    spent: u32,
    /// Per-listener traffic this window, lazily reset via `stamp`.
    traffic: Vec<u32>,
    stamp: Vec<Slot>,
    max_traffic: u32,
}

impl AdversarialJam {
    /// An adversary for `n` listeners jamming at most `budget` slots per
    /// `window`-slot window.
    pub fn new(n: usize, window: Slot, budget: u32) -> Self {
        assert!(window > 0, "jam window must be positive");
        AdversarialJam {
            window,
            budget,
            cur_window: 0,
            spent: 0,
            traffic: vec![0; n],
            stamp: vec![Slot::MAX; n],
            max_traffic: 0,
        }
    }
}

impl ChannelModel for AdversarialJam {
    fn decide(&mut self, c: &Contention) -> Reception {
        let wdx = c.slot / self.window;
        if wdx != self.cur_window {
            self.cur_window = wdx;
            self.spent = 0;
            self.max_traffic = 0;
        }
        let ui = c.listener as usize;
        if self.stamp[ui] != wdx {
            self.stamp[ui] = wdx;
            self.traffic[ui] = 0;
        }
        // One opportunity == one unit of observed traffic, regardless of
        // how many neighbors collided (keeps the accounting identical
        // between the exact-count kernel and the clamped-count oracle).
        self.traffic[ui] += 1;
        self.max_traffic = self.max_traffic.max(self.traffic[ui]);
        match c.winner {
            Some(w) if c.transmitters == 1 => {
                if self.spent < self.budget && self.traffic[ui] >= self.max_traffic {
                    self.spent += 1;
                    Reception::Jam
                } else {
                    Reception::Deliver(w)
                }
            }
            _ => Reception::Collide,
        }
    }
}

/// Declarative, copyable channel description carried in
/// [`SimConfig`](crate::SimConfig). Engines build a fresh stateful
/// model instance per run via [`ChannelSpec::build`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum ChannelSpec {
    /// The paper's model: deliver iff exactly one neighbor transmits.
    #[default]
    Ideal,
    /// Drop each deliverable slot independently with probability `p`.
    ProbabilisticLoss {
        /// Per-delivery loss probability in `[0, 1]`.
        p: f64,
    },
    /// Per-listener two-state bursty fades.
    GilbertElliott {
        /// Per-slot good→bad transition probability.
        p_bad: f64,
        /// Per-slot bad→good transition probability (1/mean burst).
        p_good: f64,
        /// Delivery loss rate in the good state.
        loss_good: f64,
        /// Delivery loss rate in the bad state.
        loss_bad: f64,
    },
    /// Budgeted jamming of the busiest listeners per window.
    AdversarialJam {
        /// Window length in slots.
        window: Slot,
        /// Maximum jammed slots per window.
        budget: u32,
    },
}

impl ChannelSpec {
    /// `true` for specs whose model never alters the ideal outcome.
    pub fn is_trivial(&self) -> bool {
        matches!(self, ChannelSpec::Ideal)
    }

    /// `true` for specs the sharded driver can run without serializing.
    ///
    /// A model is shardable when its `decide` outcome for a
    /// `(listener, slot)` pair does not depend on `decide` calls for
    /// *other* listeners: shards then evaluate identical per-shard model
    /// clones for their own listeners only and still reproduce the
    /// sequential run bit for bit. [`Ideal`] draws nothing;
    /// [`ProbabilisticLoss`] and [`GilbertElliott`] draw counter-based
    /// per-listener streams. [`AdversarialJam`] is *globally*
    /// order-sensitive (one budget spent in decide-call order across all
    /// listeners), so the sharded driver falls back to the sequential
    /// path for it.
    pub fn is_shardable(&self) -> bool {
        !matches!(self, ChannelSpec::AdversarialJam { .. })
    }

    /// Builds the per-run model instance for an `n`-node graph. The
    /// channel derives its own seed from the run seed, so its draws are
    /// independent of the per-node protocol RNG streams.
    pub fn build(&self, n: usize, run_seed: u64) -> BuiltinChannel {
        let mut s = run_seed ^ 0xC4A7_7E1C_0DE1_F00D;
        let seed = splitmix64(&mut s);
        match *self {
            ChannelSpec::Ideal => BuiltinChannel::Ideal(Ideal),
            ChannelSpec::ProbabilisticLoss { p } => {
                BuiltinChannel::ProbabilisticLoss(ProbabilisticLoss::new(p, seed))
            }
            ChannelSpec::GilbertElliott {
                p_bad,
                p_good,
                loss_good,
                loss_bad,
            } => BuiltinChannel::GilbertElliott(GilbertElliott::new(
                n, p_bad, p_good, loss_good, loss_bad, seed,
            )),
            ChannelSpec::AdversarialJam { window, budget } => {
                BuiltinChannel::AdversarialJam(AdversarialJam::new(n, window, budget))
            }
        }
    }
}

/// Static-dispatch wrapper over the built-in models, used by the
/// engines so the [`Ideal`] hot path stays branch-predictable and
/// allocation-free.
#[derive(Clone, Debug)]
pub enum BuiltinChannel {
    /// See [`Ideal`].
    Ideal(Ideal),
    /// See [`ProbabilisticLoss`].
    ProbabilisticLoss(ProbabilisticLoss),
    /// See [`GilbertElliott`].
    GilbertElliott(GilbertElliott),
    /// See [`AdversarialJam`].
    AdversarialJam(AdversarialJam),
}

impl ChannelModel for BuiltinChannel {
    #[inline]
    fn decide(&mut self, c: &Contention) -> Reception {
        match self {
            BuiltinChannel::Ideal(m) => m.decide(c),
            BuiltinChannel::ProbabilisticLoss(m) => m.decide(c),
            BuiltinChannel::GilbertElliott(m) => m.decide(c),
            BuiltinChannel::AdversarialJam(m) => m.decide(c),
        }
    }

    fn is_trivial(&self) -> bool {
        matches!(self, BuiltinChannel::Ideal(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opp(listener: NodeId, slot: Slot, transmitters: u32) -> Contention {
        Contention {
            listener,
            slot,
            transmitters,
            winner: if transmitters == 1 { Some(99) } else { None },
        }
    }

    #[test]
    fn ideal_reproduces_the_paper_rule_without_randomness() {
        let mut ch = Ideal;
        assert!(ch.is_trivial());
        assert_eq!(ch.decide(&opp(0, 5, 1)), Reception::Deliver(99));
        assert_eq!(ch.decide(&opp(0, 5, 2)), Reception::Collide);
        assert_eq!(ch.decide(&opp(0, 5, 7)), Reception::Collide);
    }

    #[test]
    fn loss_rate_close_to_p_and_reproducible() {
        let p = 0.3;
        let mut a = ProbabilisticLoss::new(p, 42);
        let mut b = ProbabilisticLoss::new(p, 42);
        let n = 20_000;
        let mut dropped = 0;
        for slot in 0..n {
            let c = opp((slot % 7) as NodeId, slot, 1);
            let ra = a.decide(&c);
            assert_eq!(ra, b.decide(&c), "same seed must reproduce");
            if ra == Reception::Drop {
                dropped += 1;
            }
        }
        let rate = f64::from(dropped) / n as f64;
        assert!((rate - p).abs() < 0.02, "drop rate {rate} vs p={p}");
        // Collisions are never converted to drops.
        assert_eq!(a.decide(&opp(0, 0, 2)), Reception::Collide);
    }

    #[test]
    fn loss_draws_are_counter_based_not_sequential() {
        // Querying extra (listener, slot) pairs in between must not
        // change any other pair's outcome.
        let mut a = ProbabilisticLoss::new(0.5, 7);
        let mut b = ProbabilisticLoss::new(0.5, 7);
        let probe: Vec<Reception> = (0..100).map(|s| a.decide(&opp(3, s, 1))).collect();
        let interleaved: Vec<Reception> = (0..100)
            .map(|s| {
                let _ = b.decide(&opp(4, s, 1)); // extra traffic elsewhere
                b.decide(&opp(3, s, 1))
            })
            .collect();
        assert_eq!(probe, interleaved);
    }

    #[test]
    fn gilbert_elliott_is_bursty_and_lazy_advance_is_visit_independent() {
        // Mean burst 1/p_good = 20 slots, bad state lossy, good clean.
        let mk = || GilbertElliott::new(4, 0.02, 0.05, 0.0, 1.0, 11);
        // Query every slot...
        let mut dense = mk();
        let every: Vec<Reception> = (0..2000).map(|s| dense.decide(&opp(1, s, 1))).collect();
        // ...or only every 13th slot (the event engine skipping): the
        // overlapping outcomes must agree exactly.
        let mut sparse = mk();
        for (s, r) in every.iter().enumerate().step_by(13) {
            let got = sparse.decide(&opp(1, s as Slot, 1));
            assert_eq!(got, *r, "slot {s}: lazy advance diverged");
        }
        // Drops cluster: the mean run length of consecutive drops must
        // exceed what independent loss at the same rate would give.
        let drops: Vec<bool> = every.iter().map(|r| *r == Reception::Drop).collect();
        let total = drops.iter().filter(|&&d| d).count();
        let runs =
            drops.windows(2).filter(|w| w[1] && !w[0]).count().max(1) + usize::from(drops[0]);
        let mean_run = total as f64 / runs as f64;
        assert!(total > 0, "bad state never entered");
        assert!(
            mean_run > 3.0,
            "mean drop-burst {mean_run} too short for bursty fades"
        );
    }

    #[test]
    fn adversary_respects_budget_and_targets_busiest() {
        let mut ch = AdversarialJam::new(8, 100, 2);
        // Listener 0 is busiest (an opportunity every slot); listener 1
        // hears once. Budget 2 per window.
        let mut jams = 0;
        for slot in 0..100 {
            if ch.decide(&opp(0, slot, 1)) == Reception::Jam {
                jams += 1;
            }
        }
        assert_eq!(jams, 2, "budget must cap jams per window");
        assert_eq!(
            ch.decide(&opp(0, 100, 1)),
            Reception::Jam,
            "new window refills"
        );

        // Targeting: a listener with strictly less traffic than the
        // current busiest is spared even with budget left over.
        let mut ch = AdversarialJam::new(8, 1000, 100);
        for slot in 0..5 {
            assert_eq!(
                ch.decide(&opp(0, slot, 1)),
                Reception::Jam,
                "busiest jammed"
            );
        }
        assert_eq!(
            ch.decide(&opp(1, 5, 1)),
            Reception::Deliver(99),
            "non-busiest listener spared"
        );
    }

    #[test]
    fn spec_builds_and_trivial_flags() {
        assert!(ChannelSpec::Ideal.is_trivial());
        assert!(ChannelSpec::default().is_trivial());
        let specs = [
            ChannelSpec::ProbabilisticLoss { p: 0.1 },
            ChannelSpec::GilbertElliott {
                p_bad: 0.01,
                p_good: 0.1,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            ChannelSpec::AdversarialJam {
                window: 64,
                budget: 4,
            },
        ];
        for spec in specs {
            assert!(!spec.is_trivial());
            let mut ch = spec.build(16, 1);
            assert!(!ch.is_trivial());
            // Collisions always stay collisions.
            assert_eq!(ch.decide(&opp(0, 0, 2)), Reception::Collide);
        }
        let mut ideal = ChannelSpec::Ideal.build(16, 1);
        assert!(ideal.is_trivial());
        assert_eq!(ideal.decide(&opp(0, 0, 1)), Reception::Deliver(99));
    }

    #[test]
    fn different_run_seeds_give_different_fault_patterns() {
        let spec = ChannelSpec::ProbabilisticLoss { p: 0.5 };
        let pat = |seed: u64| -> Vec<Reception> {
            let mut ch = spec.build(4, seed);
            (0..64).map(|s| ch.decide(&opp(0, s, 1))).collect()
        };
        assert_eq!(pat(1), pat(1), "same seed reproduces");
        assert_ne!(pat(1), pat(2), "seeds decorrelate");
    }
}
