//! The event-driven engine.
//!
//! Between receptions and deadlines a node's behavior is a fixed
//! Bernoulli(p) transmitter (or silence), so its next transmission slot
//! can be drawn geometrically and the simulation can jump straight to
//! the next *event*: a wake-up, a deadline, or a transmission.
//! Receptions can only happen at slots where someone transmits, so no
//! other slots need work. Semantics are identical to the lock-step
//! engine (memorylessness of Bernoulli trials makes geometric skipping
//! and per-slot draws distributionally equal, including after behavior
//! changes, which simply re-draw).
//!
//! Since the [`SimDriver`] refactor this
//! module only contains the slot-advance strategy ([`EventSkip`]); all
//! protocol/channel/monitor threading lives in [`super::driver`].

use super::driver::{Completion, Engine, SimDriver};
use crate::delivery::DeliveryKernel;
use crate::monitor::InvariantMonitor;
use crate::protocol::{Behavior, RadioProtocol, Slot};
use crate::rng::geometric_failures;
use radio_graph::NodeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Event kinds, ordered by intra-slot processing priority (the derived
/// `Ord` matches declaration order, so wake-ups run before deadlines
/// before transmissions — the same total order the previous `u8`
/// encoding produced, but with an exhaustive `match`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    Wake,
    Deadline,
    Tx,
}

type HeapEvent = Reverse<(Slot, EventKind, NodeId, u32)>;

/// The event-skipping strategy: a min-heap of (slot, kind, node, gen)
/// events with geometric transmission skips and lazy generation-counter
/// invalidation.
pub struct EventSkip;

/// Pushes the events implied by node `v`'s current behavior, starting
/// from slot `from` (inclusive for transmissions). Stale entries are
/// invalidated lazily via the generation counter in `gens`.
fn schedule<P: RadioProtocol, M: InvariantMonitor<P>>(
    heap: &mut BinaryHeap<HeapEvent>,
    d: &mut SimDriver<'_, P, M>,
    gens: &[u32],
    v: NodeId,
    from: Slot,
) {
    let Some(b) = d.behavior(v) else { return };
    let gen = gens[v as usize];
    if let Some(u) = b.until() {
        heap.push(Reverse((u, EventKind::Deadline, v, gen)));
    }
    if let Behavior::Transmit { p, .. } = b {
        let next = from.saturating_add(geometric_failures(p, d.rng(v)));
        heap.push(Reverse((next, EventKind::Tx, v, gen)));
    }
}

impl Engine for EventSkip {
    type Aux<'a> = ();

    fn drive<P: RadioProtocol, M: InvariantMonitor<P>>(
        d: &mut SimDriver<'_, P, M>,
        _aux: (),
    ) -> Completion {
        let n = d.n();
        let wake = d.wake();
        // Generation counter per node: heap entries carrying a stale
        // generation are ignored when popped (lazy invalidation).
        let mut gens: Vec<u32> = vec![0; n];
        let mut woken = 0usize;

        let mut heap: BinaryHeap<HeapEvent> = wake
            .iter()
            .enumerate()
            .map(|(v, &w)| Reverse((w, EventKind::Wake, v as NodeId, 0)))
            .collect();
        let mut kernel = DeliveryKernel::new(n);

        let mut slots_run: Slot = 0;
        let mut all_decided = n == 0;

        'run: while let Some(&Reverse((slot, _, _, _))) = heap.peek() {
            if slot > d.max_slots() {
                slots_run = d.max_slots();
                break;
            }
            slots_run = slot;
            kernel.begin_slot();

            // Drain every event scheduled for this slot. The heap orders
            // by (slot, kind), so wake-ups run before deadlines before
            // transmissions; events pushed for this same slot during the
            // drain are picked up too.
            while let Some(&Reverse((s, kind, v, gen))) = heap.peek() {
                if s != slot {
                    break;
                }
                heap.pop();
                let vi = v as usize;
                match kind {
                    EventKind::Wake => {
                        if !d.wake_up(v, slot) {
                            break 'run;
                        }
                        woken += 1;
                        schedule(&mut heap, d, &gens, v, slot);
                    }
                    EventKind::Deadline => {
                        if gen != gens[vi] {
                            continue; // stale
                        }
                        if !d.fire_deadline(v, slot) {
                            break 'run;
                        }
                        gens[vi] += 1;
                        schedule(&mut heap, d, &gens, v, slot);
                    }
                    EventKind::Tx => {
                        if gen != gens[vi] {
                            continue; // stale
                        }
                        debug_assert!(matches!(d.behavior(v), Some(Behavior::Transmit { .. })));
                        if !d.broadcast(v, slot) {
                            break 'run;
                        }
                        kernel.transmit(d.graph(), v);
                        // Next transmission of the same segment.
                        if let Some(Behavior::Transmit { p, .. }) = d.behavior(v) {
                            let next = (slot + 1).saturating_add(geometric_failures(p, d.rng(v)));
                            heap.push(Reverse((next, EventKind::Tx, v, gen)));
                        }
                    }
                }
            }

            // Deliveries (identical semantics to the lock-step engine):
            // the kernel scattered per-listener counts as transmissions
            // fired, and the channel model decides each touched
            // listener's outcome. Channel draws are counter-based (pure
            // in (listener, slot)), so skipping idle slots cannot
            // perturb them — no per-slot fallback is needed even for
            // non-trivial models; see `crate::channel`.
            for &u in kernel.touched() {
                if kernel.is_transmitter(u) {
                    continue; // transmitting: cannot receive
                }
                if wake[u as usize] > slot {
                    continue; // asleep
                }
                if let Some(w) = d.resolve(&kernel.contention(u, u, slot)) {
                    // The kernel only reports transmitters, and every
                    // transmitter parked its message in the air this
                    // slot; a missing one would be an engine defect, so
                    // skip the delivery rather than panic on the hot
                    // path.
                    let Some(msg) = d.air(w) else {
                        debug_assert!(false, "transmitter {w} has no message");
                        continue;
                    };
                    match d.deliver(u, slot, &msg) {
                        Err(()) => break 'run,
                        // New segment governs from slot + 1.
                        Ok(true) => {
                            gens[u as usize] += 1;
                            schedule(&mut heap, d, &gens, u, slot + 1);
                        }
                        Ok(false) => {}
                    }
                }
            }

            if d.undecided() == 0 && woken == n {
                all_decided = true;
                break;
            }
        }

        Completion {
            all_decided,
            slots_run,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{SimConfig, SimOutcome};
    use super::*;
    use crate::monitor::NullMonitor;
    use radio_graph::generators::special::{path, star};
    use radio_graph::Graph;
    use rand::rngs::SmallRng;

    /// Test-local wrappers over the driver (the public `run_event*` /
    /// `run_lockstep` shims were retired after the driver unification).
    fn run_event<P: RadioProtocol>(
        graph: &Graph,
        wake: &[Slot],
        protocols: Vec<P>,
        seed: u64,
        cfg: &SimConfig,
    ) -> SimOutcome<P> {
        SimDriver::run::<EventSkip>(graph, wake, protocols, (), seed, cfg, &mut NullMonitor)
    }

    fn run_lockstep<P: RadioProtocol>(
        graph: &Graph,
        wake: &[Slot],
        protocols: Vec<P>,
        seed: u64,
        cfg: &SimConfig,
    ) -> SimOutcome<P> {
        SimDriver::run::<crate::engine::lockstep::Lockstep>(
            graph,
            wake,
            protocols,
            (),
            seed,
            cfg,
            &mut NullMonitor,
        )
    }

    /// Transmits with probability `p` forever; decides after receiving
    /// `need` messages.
    #[derive(Clone)]
    struct Chatter {
        p: f64,
        need: u64,
        got: u64,
        id: u32,
    }

    impl RadioProtocol for Chatter {
        type Message = u32;

        fn on_wake(&mut self, _now: Slot, _rng: &mut SmallRng) -> Behavior {
            Behavior::Transmit {
                p: self.p,
                until: None,
            }
        }

        fn on_deadline(&mut self, _now: Slot, _rng: &mut SmallRng) -> Behavior {
            unreachable!()
        }

        fn message(&mut self, _now: Slot, _rng: &mut SmallRng) -> u32 {
            self.id
        }

        fn on_receive(&mut self, _now: Slot, _msg: &u32, _rng: &mut SmallRng) -> Option<Behavior> {
            self.got += 1;
            None
        }

        fn is_decided(&self) -> bool {
            self.got >= self.need
        }
    }

    #[test]
    fn deterministic_delivery_matches_lockstep() {
        let g = path(3);
        let mk = || {
            vec![
                Chatter {
                    p: 1.0,
                    need: 0,
                    got: 0,
                    id: 0,
                },
                Chatter {
                    p: f64::MIN_POSITIVE,
                    need: 5,
                    got: 0,
                    id: 1,
                },
                Chatter {
                    p: f64::MIN_POSITIVE,
                    need: 0,
                    got: 0,
                    id: 2,
                },
            ]
        };
        let cfg = SimConfig::with_max_slots(1000);
        let a = run_event(&g, &[0, 0, 0], mk(), 1, &cfg);
        let b = run_lockstep(&g, &[0, 0, 0], mk(), 1, &cfg);
        assert!(a.all_decided && b.all_decided);
        assert_eq!(a.stats[1].decided_at, b.stats[1].decided_at);
        assert_eq!(a.stats[1].received, 5);
    }

    #[test]
    fn collisions_counted() {
        let g = star(3);
        let protos = vec![
            Chatter {
                p: f64::MIN_POSITIVE,
                need: 0,
                got: 0,
                id: 0,
            },
            Chatter {
                p: 1.0,
                need: 0,
                got: 0,
                id: 1,
            },
            Chatter {
                p: 1.0,
                need: 0,
                got: 0,
                id: 2,
            },
        ];
        let out = run_event(&g, &[0, 0, 0], protos, 2, &SimConfig::with_max_slots(50));
        assert_eq!(out.stats[0].received, 0);
        assert!(out.all_decided);
    }

    #[test]
    fn asleep_nodes_miss_messages() {
        let g = path(2);
        let protos = vec![
            Chatter {
                p: 1.0,
                need: 0,
                got: 0,
                id: 0,
            },
            Chatter {
                p: f64::MIN_POSITIVE,
                need: 3,
                got: 0,
                id: 1,
            },
        ];
        let out = run_event(&g, &[0, 10], protos, 3, &SimConfig::with_max_slots(100));
        assert!(out.all_decided);
        assert_eq!(out.stats[1].decided_at, Some(12));
    }

    #[test]
    fn probabilistic_runs_agree_statistically_with_lockstep() {
        // One transmitter with p = 0.2; receiver needs 20 messages. The
        // expected decision slot is ≈ 20/0.2 = 100. Both engines should
        // land in a sane band (they use different draw sequences).
        let g = path(2);
        let mk = || {
            vec![
                Chatter {
                    p: 0.2,
                    need: 0,
                    got: 0,
                    id: 0,
                },
                Chatter {
                    p: f64::MIN_POSITIVE,
                    need: 20,
                    got: 0,
                    id: 1,
                },
            ]
        };
        let cfg = SimConfig::with_max_slots(10_000);
        let mut ev_mean = 0.0;
        let mut ls_mean = 0.0;
        let runs = 30;
        for seed in 0..runs {
            let a = run_event(&g, &[0, 0], mk(), seed, &cfg);
            let b = run_lockstep(&g, &[0, 0], mk(), seed + 1000, &cfg);
            ev_mean += a.stats[1].decided_at.unwrap() as f64 / runs as f64;
            ls_mean += b.stats[1].decided_at.unwrap() as f64 / runs as f64;
        }
        assert!((ev_mean - 100.0).abs() < 30.0, "event mean {ev_mean}");
        assert!((ls_mean - 100.0).abs() < 30.0, "lockstep mean {ls_mean}");
    }

    /// Phased: silent 5 slots, transmit 3 slots, then decided.
    struct Phased {
        phase: u8,
    }

    impl RadioProtocol for Phased {
        type Message = u32;

        fn on_wake(&mut self, now: Slot, _rng: &mut SmallRng) -> Behavior {
            Behavior::Silent {
                until: Some(now + 5),
            }
        }

        fn on_deadline(&mut self, now: Slot, _rng: &mut SmallRng) -> Behavior {
            self.phase += 1;
            match self.phase {
                1 => Behavior::Transmit {
                    p: 1.0,
                    until: Some(now + 3),
                },
                _ => Behavior::Silent { until: None },
            }
        }

        fn message(&mut self, _now: Slot, _rng: &mut SmallRng) -> u32 {
            9
        }

        fn on_receive(&mut self, _now: Slot, _msg: &u32, _rng: &mut SmallRng) -> Option<Behavior> {
            None
        }

        fn is_decided(&self) -> bool {
            self.phase >= 2
        }
    }

    #[test]
    fn deadline_sequencing_matches_lockstep_exactly() {
        let g = path(2);
        let cfg = SimConfig::default();
        let a = run_event(
            &g,
            &[0, 100],
            vec![Phased { phase: 0 }, Phased { phase: 0 }],
            4,
            &cfg,
        );
        let b = run_lockstep(
            &g,
            &[0, 100],
            vec![Phased { phase: 0 }, Phased { phase: 0 }],
            4,
            &cfg,
        );
        for v in 0..2 {
            assert_eq!(a.stats[v].sent, b.stats[v].sent, "node {v} sent");
            assert_eq!(
                a.stats[v].decided_at, b.stats[v].decided_at,
                "node {v} decided"
            );
            assert_eq!(
                a.stats[v].received, b.stats[v].received,
                "node {v} received"
            );
        }
        assert_eq!(a.stats[0].sent, 3);
        assert_eq!(a.stats[0].decided_at, Some(8));
    }

    #[test]
    fn empty_graph() {
        let g = radio_graph::Graph::empty(0);
        let out = run_event::<Chatter>(&g, &[], vec![], 1, &SimConfig::default());
        assert!(out.all_decided);
    }
}
