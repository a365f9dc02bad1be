//! Non-aligned ("jittered") slot engine — the paper's Sect. 2 remark
//! made executable:
//!
//! > "Our algorithm does not rely on this assumption [synchronized
//! > slots] in any way as long as the nodes' internal clock runs
//! > roughly at the same speed. Also, all analytical results carry over
//! > to the practical non-aligned case with an additional small
//! > constant factor, since each time slot can overlap with at most two
//! > time-slots of a neighbor \[29\]."
//!
//! Here every node has a fixed phase offset of 0 or ½ slot. Time
//! advances in *half-slots*; a node whose phase bit is `δ_v` starts its
//! local slot `t` at half-slot `2t + δ_v`, and a transmission occupies
//! both half-slots of the sender's slot. A listener decodes a packet
//! iff (a) it was not itself transmitting during any overlapping
//! half-slot and (b) no *other* neighbor's transmission overlaps the
//! packet — the unslotted-ALOHA vulnerability window of two slots, so
//! cross-phase neighbors interfere with two of each other's slots
//! (exactly the paper's "at most two").
//!
//! With all phase bits equal a node wakes, fires deadlines, draws,
//! transmits and receives at the same local slots as under the aligned
//! lock-step engine, so colors, decision slots and transmission counts
//! agree (`tests/transport_equivalence.rs`). Three counts do not: a
//! slot's packets land at the start of the next slot, so `slots_run`
//! can be one higher and the run stops with the last slot's packets
//! still in flight (a node can count one reception fewer); and a
//! listener counts one collision per lost packet, not one per slot.
//! With mixed phases, experiment E16 measures the constant-factor
//! slowdown the paper predicts.
//!
//! Since the [`SimDriver`] refactor this
//! module only contains the slot-advance strategy ([`Jittered`]) and
//! the [`random_phases`] helper; all protocol/channel/monitor threading
//! lives in [`super::driver`].

use super::driver::{Completion, Engine, SimDriver};
use crate::delivery::OverlapKernel;
use crate::monitor::InvariantMonitor;
use crate::protocol::RadioProtocol;
use crate::rng::node_rng;
use radio_graph::NodeId;
use rand::Rng;
use std::collections::VecDeque;

/// A packet in flight: transmitted by `node`, covering half-slots
/// `[start, start + 2)`.
struct Packet<M> {
    start: u64,
    node: NodeId,
    msg: M,
}

/// The half-slot strategy: per-node phase bits (passed as the driver
/// aux), an in-flight packet queue and the overlap kernel for the
/// two-slot vulnerability window. Hooks fire at each node's *local*
/// slot numbers, so with all phase bits `false` runs make the lock-step
/// engine's decisions (see the module docs for the counts that
/// differ).
pub struct Jittered;

impl Engine for Jittered {
    type Aux<'a> = &'a [bool];

    fn drive<P: RadioProtocol, M: InvariantMonitor<P>>(
        d: &mut SimDriver<'_, P, M>,
        phases: &[bool],
    ) -> Completion {
        let n = d.n();
        assert_eq!(phases.len(), n, "phase vector length mismatch");
        let graph = d.graph();
        let wake = d.wake();

        let mut wake_order: Vec<NodeId> = (0..n as NodeId).collect();
        // Order by absolute wake half-slot so mixed phases interleave right.
        wake_order.sort_by_key(|&v| 2 * wake[v as usize] + u64::from(phases[v as usize]));
        let mut next_wake = 0usize;
        let mut awake: Vec<NodeId> = Vec::with_capacity(n);

        // The two most recent transmission starts per node (−10 = never),
        // used for the listener's own "was I transmitting?" check. Two
        // suffice: a node starts at most one packet per local slot, so
        // anything older than the previous start cannot overlap a packet
        // evaluated now. Neighbor interference is answered in O(1) by the
        // scatter kernel instead of re-scanning every neighbor's starts.
        let mut tx_starts: Vec<[i64; 2]> = vec![[-10, -10]; n];
        let overlaps =
            |starts: &[i64; 2], s: i64| (starts[0] - s).abs() <= 1 || (starts[1] - s).abs() <= 1;
        let mut kernel = OverlapKernel::new(n);
        let mut pending: VecDeque<Packet<P::Message>> = VecDeque::new();

        let mut slots_run = 0;
        let mut all_decided = n == 0;
        let max_half = d.max_slots().saturating_mul(2);
        let mut half: u64 = 0;
        'outer: loop {
            if half > max_half {
                break;
            }
            slots_run = half / 2;

            // 1. Deliver packets that ended at this half-slot boundary
            //    (started at half − 2).
            while pending.front().is_some_and(|p| p.start + 2 <= half) {
                let Some(p) = pending.pop_front() else { break };
                let s = p.start as i64;
                for &v in graph.neighbors(p.node) {
                    let vi = v as usize;
                    let delta = u64::from(phases[vi]);
                    // The listener's local slot containing the packet's end.
                    let local_end = (p.start + 1).saturating_sub(delta) / 2;
                    if wake[vi] > local_end {
                        continue; // asleep for (part of) the packet
                    }
                    // (a) v transmitted during an overlapping half-slot?
                    if overlaps(&tx_starts[vi], s) {
                        continue;
                    }
                    // (b) the channel decides: collision iff another
                    //     neighbor's packet overlaps (under `Ideal`), and
                    //     fault models may drop or jam clean packets.
                    if d.resolve(&kernel.contention(v, p.start, p.node, local_end))
                        .is_some()
                        && d.deliver(v, local_end, &p.msg).is_err()
                    {
                        break 'outer;
                    }
                }
            }

            // Termination after deliveries, before the next slot's
            // transmissions — matching the lock-step engine, where the last
            // delivery and the break happen within the same slot iteration.
            if d.undecided() == 0 && next_wake == n {
                all_decided = true;
                break 'outer;
            }

            // 2. Local slot starts for nodes whose parity matches.
            // Wake-ups first.
            while next_wake < n {
                let v = wake_order[next_wake];
                let vi = v as usize;
                let wake_half = 2 * wake[vi] + u64::from(phases[vi]);
                if wake_half != half {
                    break;
                }
                next_wake += 1;
                awake.push(v);
                if !d.wake_up(v, wake[vi]) {
                    break 'outer;
                }
            }
            // Deadlines, then transmission draws, for this parity class.
            for &v in &awake {
                let vi = v as usize;
                let delta = u64::from(phases[vi]);
                if half < delta || !(half - delta).is_multiple_of(2) {
                    continue; // not a slot boundary for v
                }
                let t = (half - delta) / 2;
                if t < wake[vi] {
                    continue;
                }
                if d.until(v) == Some(t) && !d.fire_deadline(v, t) {
                    break 'outer;
                }
                if d.bernoulli_tx(v) {
                    let Some(msg) = d.compose(v, t) else {
                        break 'outer;
                    };
                    tx_starts[vi] = [half as i64, tx_starts[vi][0]];
                    kernel.transmit(graph, v, half);
                    pending.push_back(Packet {
                        start: half,
                        node: v,
                        msg,
                    });
                }
            }

            // 3. Termination: all woke and decided. Packets still in flight
            //    can no longer change any decision.
            if d.undecided() == 0 && next_wake == n {
                all_decided = true;
                break 'outer;
            }
            if next_wake == n && awake.is_empty() {
                break; // nothing will ever happen (n == 0 handled above)
            }
            half += 1;
        }

        Completion {
            all_decided,
            slots_run,
        }
    }
}

/// Random phase bits for `n` nodes.
pub fn random_phases(n: usize, seed: u64) -> Vec<bool> {
    let mut rng = node_rng(seed, 0x9A5E);
    (0..n).map(|_| rng.gen_bool(0.5)).collect()
}

#[cfg(test)]
mod tests {
    use super::super::{SimConfig, SimOutcome};
    use super::*;
    use crate::monitor::NullMonitor;
    use crate::protocol::{Behavior, Slot};
    use radio_graph::generators::special::{path, star};
    use radio_graph::Graph;
    use rand::rngs::SmallRng;

    /// Test-local wrappers over the driver (the public `run_jittered*`
    /// / `run_lockstep` shims were retired after the driver
    /// unification). Phase bits: `false` = offset 0, `true` = ½ slot;
    /// wake slots are in the node's *local* slot count.
    fn run_jittered<P: RadioProtocol>(
        graph: &Graph,
        wake: &[Slot],
        protocols: Vec<P>,
        phases: &[bool],
        seed: u64,
        cfg: &SimConfig,
    ) -> SimOutcome<P> {
        SimDriver::run::<Jittered>(graph, wake, protocols, phases, seed, cfg, &mut NullMonitor)
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

    /// Transmits with probability `p` forever; decides after `need`
    /// receptions.
    struct Chatter {
        p: f64,
        need: u64,
        got: u64,
    }

    impl RadioProtocol for Chatter {
        type Message = u8;

        fn on_wake(&mut self, _now: Slot, _rng: &mut SmallRng) -> Behavior {
            Behavior::Transmit {
                p: self.p,
                until: None,
            }
        }

        fn on_deadline(&mut self, _now: Slot, _rng: &mut SmallRng) -> Behavior {
            unreachable!()
        }

        fn message(&mut self, _now: Slot, _rng: &mut SmallRng) -> u8 {
            7
        }

        fn on_receive(&mut self, _now: Slot, _msg: &u8, _rng: &mut SmallRng) -> Option<Behavior> {
            self.got += 1;
            None
        }

        fn is_decided(&self) -> bool {
            self.got >= self.need
        }
    }

    #[test]
    fn aligned_phases_match_lockstep_exactly() {
        let g = path(3);
        let mk = || {
            vec![
                Chatter {
                    p: 1.0,
                    need: 0,
                    got: 0,
                },
                Chatter {
                    p: 1e-12,
                    need: 5,
                    got: 0,
                },
                Chatter {
                    p: 1e-12,
                    need: 0,
                    got: 0,
                },
            ]
        };
        let cfg = SimConfig::with_max_slots(10_000);
        let a = run_lockstep(&g, &[0, 0, 0], mk(), 3, &cfg);
        let b = run_jittered(&g, &[0, 0, 0], mk(), &[false; 3], 3, &cfg);
        assert!(a.all_decided && b.all_decided);
        for v in 0..3 {
            assert_eq!(a.stats[v].sent, b.stats[v].sent, "sent {v}");
            assert_eq!(a.stats[v].received, b.stats[v].received, "received {v}");
            assert_eq!(a.stats[v].decided_at, b.stats[v].decided_at, "decided {v}");
        }
    }

    #[test]
    fn cross_phase_neighbors_interfere_over_two_slots() {
        // Star: two always-on leaves with opposite phases; the center
        // never decodes anything (every packet overlaps the other's).
        let g = star(3);
        let protos = vec![
            Chatter {
                p: 1e-12,
                need: 1,
                got: 0,
            },
            Chatter {
                p: 1.0,
                need: 0,
                got: 0,
            },
            Chatter {
                p: 1.0,
                need: 0,
                got: 0,
            },
        ];
        let out = run_jittered(
            &g,
            &[0, 0, 0],
            protos,
            &[false, false, true],
            5,
            &SimConfig::with_max_slots(300),
        );
        assert!(!out.all_decided);
        assert_eq!(
            out.stats[0].received, 0,
            "misaligned continuous senders always overlap"
        );
        assert!(out.stats[0].collisions > 0);
    }

    #[test]
    fn cross_phase_delivery_works_when_uncontended() {
        // Single always-on sender, listener on the opposite phase: every
        // packet is uncontended, so it decodes despite misalignment.
        let g = path(2);
        let protos = vec![
            Chatter {
                p: 1.0,
                need: 0,
                got: 0,
            },
            Chatter {
                p: 1e-12,
                need: 5,
                got: 0,
            },
        ];
        let out = run_jittered(
            &g,
            &[0, 0],
            protos,
            &[false, true],
            7,
            &SimConfig::with_max_slots(300),
        );
        assert!(out.all_decided);
        assert_eq!(out.stats[1].received, 5);
    }

    #[test]
    fn transmitter_cannot_receive_overlapping_packets() {
        // Both always transmitting on opposite phases: no receptions.
        let g = path(2);
        let protos = vec![
            Chatter {
                p: 1.0,
                need: 1,
                got: 0,
            },
            Chatter {
                p: 1.0,
                need: 1,
                got: 0,
            },
        ];
        let out = run_jittered(
            &g,
            &[0, 0],
            protos,
            &[false, true],
            9,
            &SimConfig::with_max_slots(200),
        );
        assert!(!out.all_decided);
        assert_eq!(out.stats[0].received + out.stats[1].received, 0);
    }

    #[test]
    fn sleeping_nodes_do_not_decode_mid_packet() {
        let g = path(2);
        let protos = vec![
            Chatter {
                p: 1.0,
                need: 0,
                got: 0,
            },
            Chatter {
                p: 1e-12,
                need: 3,
                got: 0,
            },
        ];
        let out = run_jittered(
            &g,
            &[0, 10],
            protos,
            &[false, true],
            11,
            &SimConfig::with_max_slots(500),
        );
        assert!(out.all_decided);
        let d = out.stats[1].decided_at.unwrap();
        assert!(d >= 10, "decided at {d}");
    }

    #[test]
    fn random_phases_deterministic() {
        assert_eq!(random_phases(32, 1), random_phases(32, 1));
        assert_ne!(random_phases(32, 1), random_phases(32, 2));
    }

    /// Two roles in one protocol: a relentless transmitter, or a silent
    /// listener with a fixed deadline that records whether a reception
    /// in the deadline's own slot observes the deadline as already
    /// fired (intra-slot ordering: deadlines at slot start, deliveries
    /// after).
    struct DeadlineRx {
        sender: bool,
        until: Slot,
        deadline_at: Option<Slot>,
        same_slot_rx_after_deadline: bool,
        got: u64,
    }

    impl DeadlineRx {
        fn sender() -> Self {
            DeadlineRx {
                sender: true,
                until: 0,
                deadline_at: None,
                same_slot_rx_after_deadline: false,
                got: 0,
            }
        }

        fn listener(until: Slot) -> Self {
            DeadlineRx {
                sender: false,
                until,
                deadline_at: None,
                same_slot_rx_after_deadline: false,
                got: 0,
            }
        }
    }

    impl RadioProtocol for DeadlineRx {
        type Message = u8;

        fn on_wake(&mut self, now: Slot, _rng: &mut SmallRng) -> Behavior {
            if self.sender {
                Behavior::Transmit {
                    p: 1.0,
                    until: None,
                }
            } else {
                Behavior::Silent {
                    until: Some(now + self.until),
                }
            }
        }

        fn on_deadline(&mut self, now: Slot, _rng: &mut SmallRng) -> Behavior {
            self.deadline_at = Some(now);
            Behavior::Silent { until: None }
        }

        fn message(&mut self, _now: Slot, _rng: &mut SmallRng) -> u8 {
            0
        }

        fn on_receive(&mut self, now: Slot, _msg: &u8, _rng: &mut SmallRng) -> Option<Behavior> {
            self.got += 1;
            if self.deadline_at == Some(now) {
                self.same_slot_rx_after_deadline = true;
            }
            None
        }

        fn is_decided(&self) -> bool {
            self.sender || self.same_slot_rx_after_deadline
        }
    }

    #[test]
    fn deadline_and_delivery_in_same_slot_order_correctly() {
        // Sender on the half-slot phase transmits every local slot; its
        // packet started at half 2t+1 ends inside the listener's local
        // slot t+1. The listener's deadline at slot 4 fires at half 8,
        // before the delivery processed at half 9 — so the reception in
        // the deadline's own slot must observe the deadline as fired.
        let g = path(2);
        let protos = vec![DeadlineRx::sender(), DeadlineRx::listener(4)];
        let out = run_jittered(
            &g,
            &[0, 0],
            protos,
            &[true, false],
            13,
            &SimConfig::with_max_slots(100),
        );
        assert!(out.all_decided, "ordering violated: flag never set");
        let l = &out.protocols[1];
        assert_eq!(l.deadline_at, Some(4));
        assert!(l.same_slot_rx_after_deadline);
        assert!(l.got >= 4, "uncontended cross-phase packets decode");
        assert_eq!(out.stats[1].decided_at, Some(4));
    }
}
