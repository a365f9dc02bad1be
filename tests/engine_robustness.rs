//! Engine robustness: a "chaos" protocol that exercises every corner of
//! the behavior-segment contract (short segments, immediate deadlines,
//! behavior churn on every reception, p = 1 bursts, near-zero
//! probabilities) across all three engines, plus explicit edge cases.

use proptest::prelude::*;
use radio_graph::generators::gnp;
use radio_graph::Graph;
use radio_sim::rng::node_rng;
use radio_sim::{Behavior, BehaviorFault, EngineKind, RadioProtocol, SimConfig, Slot};
use rand::rngs::SmallRng;
use rand::Rng;

/// Cycles through stress behaviors; decides after a fixed number of
/// callbacks of any kind.
struct Chaos {
    callbacks: u32,
    budget: u32,
    mode: u8,
}

impl Chaos {
    fn new(budget: u32, mode: u8) -> Self {
        Chaos {
            callbacks: 0,
            budget,
            mode,
        }
    }

    fn next_behavior(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
        self.mode = self.mode.wrapping_add(1);
        match self.mode % 4 {
            0 => Behavior::Silent {
                until: Some(now + 1 + rng.gen_range(0..3)),
            },
            1 => Behavior::Transmit {
                p: 1.0,
                until: Some(now + 1 + rng.gen_range(0..2)),
            },
            2 => Behavior::Transmit {
                p: 0.3,
                until: Some(now + 1 + rng.gen_range(0..5)),
            },
            _ => Behavior::Transmit {
                p: 1e-3,
                until: Some(now + 2),
            },
        }
    }
}

impl RadioProtocol for Chaos {
    type Message = u32;

    fn on_wake(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
        self.callbacks += 1;
        self.next_behavior(now, rng)
    }

    fn on_deadline(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
        self.callbacks += 1;
        self.next_behavior(now, rng)
    }

    fn message(&mut self, _now: Slot, _rng: &mut SmallRng) -> u32 {
        self.mode as u32
    }

    fn on_receive(&mut self, now: Slot, _msg: &u32, rng: &mut SmallRng) -> Option<Behavior> {
        self.callbacks += 1;
        // Churn behavior on every reception half the time.
        if rng.gen_bool(0.5) {
            Some(self.next_behavior(now, rng))
        } else {
            None
        }
    }

    fn is_decided(&self) -> bool {
        self.callbacks >= self.budget
    }
}

fn stats_invariants(
    out: &radio_sim::SimOutcome<Chaos>,
    wake: &[Slot],
    tag: &str,
) -> Result<(), TestCaseError> {
    for (v, s) in out.stats.iter().enumerate() {
        prop_assert_eq!(s.wake, wake[v], "{} node {} wake", tag, v);
        if let Some(d) = s.decided_at {
            prop_assert!(d >= s.wake, "{} node {} decided before wake", tag, v);
        }
        // A node transmits at most once per slot it was awake.
        if out.slots_run >= s.wake {
            prop_assert!(
                s.sent <= out.slots_run - s.wake + 1,
                "{} node {} sent {} in {} slots",
                tag,
                v,
                s.sent,
                out.slots_run - s.wake + 1
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn chaos_protocol_runs_clean_on_all_engines(
        n in 2usize..12,
        p in 0.0f64..0.6,
        budget in 3u32..30,
        seed in 0u64..10_000,
    ) {
        let mut rng = node_rng(seed, 0xC0);
        let g = gnp(n, p, &mut rng);
        let wake: Vec<Slot> = (0..n).map(|_| rng.gen_range(0..50)).collect();
        let cfg = SimConfig::with_max_slots(200_000);
        let mk = || (0..n).map(|v| Chaos::new(budget, v as u8)).collect::<Vec<_>>();

        let a = EngineKind::Lockstep.run(&g, &wake, mk(), seed, &cfg);
        stats_invariants(&a, &wake, "lockstep")?;
        let b = EngineKind::Event.run(&g, &wake, mk(), seed, &cfg);
        stats_invariants(&b, &wake, "event")?;
        let c = EngineKind::Jittered.run(&g, &wake, mk(), seed, &cfg);
        stats_invariants(&c, &wake, "jittered")?;
    }
}

#[test]
fn max_slots_zero_is_honored() {
    let g = Graph::empty(2);
    let protos = vec![Chaos::new(100, 0), Chaos::new(100, 1)];
    let out = EngineKind::Lockstep.run(&g, &[0, 0], protos, 1, &SimConfig::with_max_slots(0));
    assert!(!out.all_decided);
    assert!(out.slots_run <= 1);
}

#[test]
fn event_engine_with_all_far_future_wakes() {
    // No node wakes within the cap: zero work, clean abort.
    let g = Graph::empty(3);
    let protos = vec![Chaos::new(1, 0), Chaos::new(1, 1), Chaos::new(1, 2)];
    let out = EngineKind::Event.run(
        &g,
        &[10_000, 20_000, 30_000],
        protos,
        2,
        &SimConfig::with_max_slots(100),
    );
    assert!(!out.all_decided);
    assert_eq!(out.stats.iter().map(|s| s.sent).sum::<u64>(), 0);
}

#[test]
fn engines_reject_invalid_probability() {
    struct Bad;
    impl RadioProtocol for Bad {
        type Message = ();
        fn on_wake(&mut self, _n: Slot, _r: &mut SmallRng) -> Behavior {
            Behavior::Transmit {
                p: 1.5,
                until: None,
            }
        }
        fn on_deadline(&mut self, _n: Slot, _r: &mut SmallRng) -> Behavior {
            unreachable!()
        }
        fn message(&mut self, _n: Slot, _r: &mut SmallRng) {}
        fn on_receive(&mut self, _n: Slot, _m: &(), _r: &mut SmallRng) -> Option<Behavior> {
            None
        }
        fn is_decided(&self) -> bool {
            false
        }
    }
    // All engines stop gracefully with a typed error, never panic.
    let g = Graph::empty(1);
    let out = EngineKind::Lockstep.run(&g, &[0], vec![Bad], 1, &SimConfig::default());
    let err = out.error.expect("lockstep reports the error");
    assert!(!out.all_decided);
    assert_eq!(err.node, 0);
    assert_eq!(
        err.fault,
        BehaviorFault::InvalidProbability { p: 1.5 },
        "{err}"
    );
    let out = EngineKind::Event.run(&g, &[0], vec![Bad], 1, &SimConfig::default());
    assert_eq!(out.error.map(|e| e.fault), Some(err.fault));
    assert!(!out.all_decided);
    let out = EngineKind::Jittered.run(&g, &[0], vec![Bad], 1, &SimConfig::default());
    assert_eq!(out.error.map(|e| e.fault), Some(err.fault));
    assert!(!out.all_decided);
}

#[test]
fn engines_reject_stale_deadlines() {
    struct Stale {
        phase: u8,
    }
    impl RadioProtocol for Stale {
        type Message = ();
        fn on_wake(&mut self, now: Slot, _r: &mut SmallRng) -> Behavior {
            Behavior::Silent {
                until: Some(now + 2),
            }
        }
        fn on_deadline(&mut self, now: Slot, _r: &mut SmallRng) -> Behavior {
            self.phase += 1;
            // Returns a deadline in the past: contract violation.
            Behavior::Silent { until: Some(now) }
        }
        fn message(&mut self, _n: Slot, _r: &mut SmallRng) {}
        fn on_receive(&mut self, _n: Slot, _m: &(), _r: &mut SmallRng) -> Option<Behavior> {
            None
        }
        fn is_decided(&self) -> bool {
            false
        }
    }
    let g = Graph::empty(1);
    let out = EngineKind::Lockstep.run(
        &g,
        &[0],
        vec![Stale { phase: 0 }],
        1,
        &SimConfig::with_max_slots(100),
    );
    let err = out.error.expect("stale deadline reported");
    assert!(!out.all_decided);
    assert_eq!(err.slot, 2);
    assert_eq!(err.fault, BehaviorFault::StaleDeadline { now: 2, until: 2 });
    let out = EngineKind::Event.run(
        &g,
        &[0],
        vec![Stale { phase: 0 }],
        1,
        &SimConfig::with_max_slots(100),
    );
    assert_eq!(out.error.map(|e| e.fault), Some(err.fault));
}

/// The first protocol error stops every engine in the slot it is
/// raised, and no later failure replaces it. Edges {0–2, 1–3}, all
/// awake at slot 0: node 0 breaches the contract in its first
/// `message` (slot 0), node 1 returns `p = 2.0` at its slot-3
/// deadline. Every engine must report node 0's breach.
#[test]
fn first_error_wins_on_every_engine() {
    struct Probe {
        id: u32,
        breach: Option<BehaviorFault>,
    }
    impl RadioProtocol for Probe {
        type Message = ();
        fn on_wake(&mut self, now: Slot, _r: &mut SmallRng) -> Behavior {
            match self.id {
                0 => Behavior::Transmit {
                    p: 1.0,
                    until: None,
                },
                1 => Behavior::Silent {
                    until: Some(now + 3),
                },
                _ => Behavior::Silent { until: None },
            }
        }
        fn on_deadline(&mut self, _n: Slot, _r: &mut SmallRng) -> Behavior {
            Behavior::Transmit {
                p: 2.0,
                until: None,
            }
        }
        fn message(&mut self, _n: Slot, _r: &mut SmallRng) {
            self.breach = Some(BehaviorFault::ContractBreach {
                context: "probe: message breach",
            });
        }
        fn on_receive(&mut self, _n: Slot, _m: &(), _r: &mut SmallRng) -> Option<Behavior> {
            None
        }
        fn is_decided(&self) -> bool {
            false
        }
        fn take_breach(&mut self) -> Option<BehaviorFault> {
            self.breach.take()
        }
    }
    let g = Graph::from_edges(4, [(0, 2), (1, 3)]);
    let cfg = SimConfig::with_max_slots(100).with_shards(2);
    for engine in EngineKind::ALL {
        let protos = (0..4).map(|id| Probe { id, breach: None }).collect();
        let out = engine.run(&g, &[0; 4], protos, 5, &cfg);
        let err = out.error.unwrap_or_else(|| panic!("{engine:?}: no error"));
        assert_eq!((err.node, err.slot), (0, 0), "{engine:?}: {err}");
        assert_eq!(
            err.fault,
            BehaviorFault::ContractBreach {
                context: "probe: message breach"
            },
            "{engine:?}"
        );
        assert!(!out.all_decided, "{engine:?}");
    }
}
