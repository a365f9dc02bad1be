//! The lock-step reference engine: slot by slot, every awake node in a
//! transmit segment makes an independent Bernoulli draw — a direct
//! transcription of the model in Sect. 2 of the paper.
//!
//! [`Lockstep`] is a short loop over the four phases of the driver's
//! whole-graph [`SlotKernel`](super::kernel::SlotKernel); all
//! protocol/channel/monitor threading lives in the kernel. The phases
//! visit only what is due, in the order a full sweep would: deadline
//! sweeps skip the slots before the next deadline, and compaction runs
//! only after a slot in which a node may have retired.

use super::driver::{Completion, Engine, SimDriver};
use super::kernel::bernoulli;
use crate::monitor::InvariantMonitor;
use crate::protocol::{RadioProtocol, Slot};

/// The per-slot reference strategy: run the kernel's phases for every
/// slot until every node decided, a protocol error stopped the run, or
/// the slot budget ran out. The kernel's active set drops retired
/// nodes from the per-slot loops (re-inserting them if a reception
/// gives them a new behavior segment).
pub struct Lockstep;

impl Engine for Lockstep {
    type Aux<'a> = ();

    fn drive<P: RadioProtocol, M: InvariantMonitor<P>>(
        d: &mut SimDriver<'_, P, M>,
        _aux: (),
    ) -> Completion {
        let (graph, max_slots) = (d.graph(), d.max_slots());
        let (k, channel, monitor) = d.parts();
        let mut slot: Slot = 0;
        loop {
            let ok = k.wake_phase(slot, monitor)
                && k.deadline_phase(slot, monitor)
                && k.transmit_phase(slot, |_, t, rng| bernoulli(t, rng), monitor);
            if !ok {
                break;
            }
            k.scatter(|v| graph.neighbors(v), Some, |_, _, _| {});
            if !k.deliver_phase(slot, channel, Some, monitor)
                || k.undecided() == 0
                || slot == max_slots
            {
                break;
            }
            k.compact();
            slot += 1;
        }
        Completion {
            all_decided: k.undecided() == 0,
            slots_run: slot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{SimConfig, SimOutcome};
    use super::*;
    use crate::monitor::{EngineOrderMonitor, NullMonitor};
    use crate::protocol::Behavior;
    use radio_graph::generators::special::{path, star};
    use radio_graph::Graph;
    use rand::rngs::SmallRng;

    /// Test-local wrappers over the driver (the public `run_lockstep*`
    /// shims were retired after the driver unification).
    fn run_lockstep<P: RadioProtocol>(
        graph: &Graph,
        wake: &[Slot],
        protocols: Vec<P>,
        seed: u64,
        cfg: &SimConfig,
    ) -> SimOutcome<P> {
        SimDriver::run::<Lockstep>(graph, wake, protocols, (), seed, cfg, &mut NullMonitor)
    }

    fn run_lockstep_monitored<P: RadioProtocol, M: InvariantMonitor<P>>(
        graph: &Graph,
        wake: &[Slot],
        protocols: Vec<P>,
        seed: u64,
        cfg: &SimConfig,
        monitor: &mut M,
    ) -> SimOutcome<P> {
        SimDriver::run::<Lockstep>(graph, wake, protocols, (), seed, cfg, monitor)
    }

    /// Transmits with probability `p` forever; decides after receiving
    /// `need` messages (or immediately if `need == 0`).
    struct Chatter {
        p: f64,
        need: u64,
        got: u64,
        last: Option<u32>,
        id: u32,
    }

    impl Chatter {
        fn new(id: u32, p: f64, need: u64) -> Self {
            Chatter {
                p,
                need,
                got: 0,
                last: None,
                id,
            }
        }
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
            unreachable!("Chatter sets no deadline")
        }

        fn message(&mut self, _now: Slot, _rng: &mut SmallRng) -> u32 {
            self.id
        }

        fn on_receive(&mut self, _now: Slot, msg: &u32, _rng: &mut SmallRng) -> Option<Behavior> {
            self.got += 1;
            self.last = Some(*msg);
            None
        }

        fn is_decided(&self) -> bool {
            self.got >= self.need
        }
    }

    /// Reports a contract breach from its first `on_wake`.
    struct Breacher {
        pending: Option<&'static str>,
    }

    impl RadioProtocol for Breacher {
        type Message = u32;

        fn on_wake(&mut self, _now: Slot, _rng: &mut SmallRng) -> Behavior {
            self.pending = Some("test breach");
            Behavior::Silent { until: None }
        }

        fn on_deadline(&mut self, _now: Slot, _rng: &mut SmallRng) -> Behavior {
            Behavior::Silent { until: None }
        }

        fn message(&mut self, _now: Slot, _rng: &mut SmallRng) -> u32 {
            0
        }

        fn on_receive(&mut self, _now: Slot, _msg: &u32, _rng: &mut SmallRng) -> Option<Behavior> {
            None
        }

        fn is_decided(&self) -> bool {
            false
        }

        fn take_breach(&mut self) -> Option<crate::protocol::BehaviorFault> {
            self.pending
                .take()
                .map(|context| crate::protocol::BehaviorFault::ContractBreach { context })
        }
    }

    #[test]
    fn contract_breach_surfaces_as_typed_error() {
        let g = path(2);
        let protos = vec![Breacher { pending: None }, Breacher { pending: None }];
        let out = run_lockstep(&g, &[0, 0], protos, 7, &SimConfig::default());
        let err = out.error.expect("breach must surface as a protocol error");
        assert_eq!(
            err.fault,
            crate::protocol::BehaviorFault::ContractBreach {
                context: "test breach"
            }
        );
        assert!(!out.all_decided);
    }

    #[test]
    fn single_transmitter_delivers_every_slot() {
        // Path 0-1-2: node 0 transmits always, 1 and 2 silent listeners.
        let g = path(3);
        let protos = vec![
            Chatter::new(0, 1.0, 0),
            Chatter::new(1, f64::MIN_POSITIVE, 5), // effectively silent
            Chatter::new(2, f64::MIN_POSITIVE, 0),
        ];
        let out = run_lockstep(&g, &[0, 0, 0], protos, 1, &SimConfig::with_max_slots(1000));
        assert!(out.all_decided);
        // Node 1 hears node 0 in slots 0..=4 and decides at slot 4.
        assert_eq!(out.protocols[1].got, 5);
        assert_eq!(out.protocols[1].last, Some(0));
        assert_eq!(out.stats[1].received, 5);
        assert_eq!(out.stats[1].decided_at, Some(4));
        // Node 2 is not adjacent to node 0 and node 1 never transmits.
        assert_eq!(out.stats[2].received, 0);
    }

    #[test]
    fn collision_blocks_reception() {
        // Star center 0 with two always-transmitting leaves.
        let g = star(3);
        let protos = vec![
            Chatter::new(0, f64::MIN_POSITIVE, 0),
            Chatter::new(1, 1.0, 0),
            Chatter::new(2, 1.0, 0),
        ];
        let out = run_lockstep(&g, &[0, 0, 0], protos, 2, &SimConfig::with_max_slots(50));
        assert!(out.all_decided); // need = 0 everywhere
        assert_eq!(out.stats[0].received, 0, "collisions every slot");
        assert!(out.stats[0].collisions > 0);
    }

    #[test]
    fn transmitter_cannot_receive() {
        // Two nodes, both always transmitting: nobody ever receives.
        let g = path(2);
        let protos = vec![Chatter::new(0, 1.0, 1), Chatter::new(1, 1.0, 1)];
        let out = run_lockstep(&g, &[0, 0], protos, 3, &SimConfig::with_max_slots(100));
        assert!(!out.all_decided);
        assert_eq!(out.stats[0].received + out.stats[1].received, 0);
    }

    #[test]
    fn sleeping_nodes_receive_nothing() {
        let g = path(2);
        let protos = vec![
            Chatter::new(0, 1.0, 0),
            Chatter::new(1, f64::MIN_POSITIVE, 3),
        ];
        // Node 1 wakes at slot 10; messages before that are lost.
        let out = run_lockstep(&g, &[0, 10], protos, 4, &SimConfig::with_max_slots(100));
        assert!(out.all_decided);
        let s = &out.stats[1];
        assert_eq!(s.decided_at, Some(12)); // receives at 10, 11, 12
        assert_eq!(s.decision_time(), Some(2));
    }

    #[test]
    fn wake_after_decision_of_others() {
        // decided_at for an instantly-decided node equals its wake slot.
        let g = path(2);
        let protos = vec![Chatter::new(0, 1.0, 0), Chatter::new(1, 1.0, 0)];
        let out = run_lockstep(&g, &[5, 7], protos, 5, &SimConfig::default());
        assert_eq!(out.stats[0].decided_at, Some(5));
        assert_eq!(out.stats[1].decided_at, Some(7));
        assert_eq!(out.max_decision_time(), Some(0));
    }

    #[test]
    fn empty_graph_terminates() {
        let g = radio_graph::Graph::empty(0);
        let out = run_lockstep::<Chatter>(&g, &[], vec![], 1, &SimConfig::default());
        assert!(out.all_decided);
        assert_eq!(out.slots_run, 0);
    }

    #[test]
    fn max_slots_aborts_unfinishable_run() {
        let g = path(2);
        // Both silent and wanting messages: can never decide.
        let protos = vec![
            Chatter::new(0, f64::MIN_POSITIVE, 1),
            Chatter::new(1, f64::MIN_POSITIVE, 1),
        ];
        let out = run_lockstep(&g, &[0, 0], protos, 6, &SimConfig::with_max_slots(40));
        assert!(!out.all_decided);
        assert_eq!(out.slots_run, 40);
        assert_eq!(out.max_decision_time(), None);
    }

    /// Silent until slot 5, then transmit p=1 until slot 8, then decided.
    struct Phased {
        phase: u8,
    }

    impl RadioProtocol for Phased {
        type Message = u32;

        fn on_wake(&mut self, now: Slot, _rng: &mut SmallRng) -> Behavior {
            self.phase = 0;
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
            7
        }

        fn on_receive(&mut self, _now: Slot, _msg: &u32, _rng: &mut SmallRng) -> Option<Behavior> {
            None
        }

        fn is_decided(&self) -> bool {
            self.phase >= 2
        }
    }

    #[test]
    fn engine_order_monitor_stays_clean_and_matches_unmonitored() {
        let g = path(3);
        let mk = || {
            vec![
                Chatter::new(0, 1.0, 0),
                Chatter::new(1, 0.3, 5),
                Chatter::new(2, 0.3, 3),
            ]
        };
        let cfg = SimConfig::with_max_slots(10_000);
        let plain = run_lockstep(&g, &[0, 2, 4], mk(), 9, &cfg);
        let mut mon = EngineOrderMonitor::new();
        let watched = run_lockstep_monitored(&g, &[0, 2, 4], mk(), 9, &cfg, &mut mon);
        assert!(watched.violations.is_empty(), "{:?}", watched.violations);
        assert!(plain.violations.is_empty());
        // A monitor draws no randomness: outcomes are bit-identical.
        for v in 0..3 {
            assert_eq!(plain.stats[v], watched.stats[v], "node {v}");
        }
        assert_eq!(plain.slots_run, watched.slots_run);
    }

    #[test]
    fn deadlines_fire_and_segments_apply_same_slot() {
        let g = path(2);
        let protos = vec![Phased { phase: 0 }, Phased { phase: 0 }];
        // Stagger wakes so transmissions don't always collide.
        let out = run_lockstep(&g, &[0, 100], protos, 7, &SimConfig::default());
        assert!(out.all_decided);
        // Node 0: wakes 0, silent 0..5, transmits 5,6,7, decided at 8.
        assert_eq!(out.stats[0].sent, 3);
        assert_eq!(out.stats[0].decided_at, Some(8));
        assert_eq!(out.stats[1].decided_at, Some(108));
        assert_eq!(out.stats[1].decision_time(), Some(8));
    }
}
