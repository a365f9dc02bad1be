//! Optional detailed event recording.
//!
//! The engines' [`crate::NodeStats`] counters are cheap aggregates; for
//! debugging a protocol or rendering a timeline you often want the
//! actual event sequence. [`Recorder`] collects typed events with a
//! bounded buffer (so a runaway run can't eat the heap), and
//! [`render_timeline`] draws a terminal chart of who was on the air
//! when.
//!
//! Recording is a wrapper protocol ([`Recorded`]) around any
//! [`RadioProtocol`], so it works with every engine unchanged, and the
//! inner protocol stays oblivious.

use crate::protocol::{Behavior, BehaviorFault, RadioProtocol, Slot};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use std::fmt::Write as _;
use std::sync::Arc;

/// One recorded event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// Node woke up.
    Wake {
        /// Waking node (recorder index).
        node: u32,
        /// Wake slot.
        slot: Slot,
    },
    /// Node transmitted.
    Transmit {
        /// Transmitting node.
        node: u32,
        /// Transmission slot.
        slot: Slot,
    },
    /// Node received a message.
    Receive {
        /// Receiving node.
        node: u32,
        /// Reception slot.
        slot: Slot,
    },
    /// Node made its irrevocable decision.
    Decide {
        /// Deciding node.
        node: u32,
        /// Decision slot.
        slot: Slot,
    },
    /// The channel model dropped a deliverable slot at this listener
    /// (fading / probabilistic loss). Injected by the engines, not the
    /// protocol wrapper — see `SimOutcome::faults`.
    Drop {
        /// The listener that lost the delivery.
        node: u32,
        /// The (local) slot of the lost delivery.
        slot: Slot,
    },
    /// An adversarial channel jammed a deliverable slot at this
    /// listener. Injected by the engines — see `SimOutcome::faults`.
    Jam {
        /// The jammed listener.
        node: u32,
        /// The (local) slot of the jammed delivery.
        slot: Slot,
    },
    /// An invariant monitor flagged this node at this slot. Injected by
    /// the engines at run end (one per entry in
    /// `SimOutcome::violations`, which holds the rule and detail).
    Violation {
        /// The node the violated invariant belongs to.
        node: u32,
        /// The (local) slot of the violation.
        slot: Slot,
    },
}

impl Event {
    /// The slot the event happened in.
    pub fn slot(&self) -> Slot {
        match *self {
            Event::Wake { slot, .. }
            | Event::Transmit { slot, .. }
            | Event::Receive { slot, .. }
            | Event::Decide { slot, .. }
            | Event::Drop { slot, .. }
            | Event::Jam { slot, .. }
            | Event::Violation { slot, .. } => slot,
        }
    }

    /// The node the event belongs to.
    pub fn node(&self) -> u32 {
        match *self {
            Event::Wake { node, .. }
            | Event::Transmit { node, .. }
            | Event::Receive { node, .. }
            | Event::Decide { node, .. }
            | Event::Drop { node, .. }
            | Event::Jam { node, .. }
            | Event::Violation { node, .. } => node,
        }
    }
}

/// A shared, bounded event sink.
#[derive(Clone, Debug)]
pub struct Recorder {
    inner: Arc<Mutex<RecorderInner>>,
}

#[derive(Debug)]
struct RecorderInner {
    events: Vec<Event>,
    capacity: usize,
    dropped: u64,
}

impl Recorder {
    /// A recorder holding at most `capacity` events (later events are
    /// counted but dropped).
    pub fn new(capacity: usize) -> Self {
        Recorder {
            inner: Arc::new(Mutex::new(RecorderInner {
                events: Vec::new(),
                capacity,
                dropped: 0,
            })),
        }
    }

    /// Records an event (drops silently past capacity).
    pub fn push(&self, e: Event) {
        let mut g = self.inner.lock();
        if g.events.len() < g.capacity {
            g.events.push(e);
        } else {
            g.dropped += 1;
        }
    }

    /// Snapshot of the recorded events.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().events.clone()
    }

    /// Number of events dropped after the buffer filled.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Wraps `proto` (for node index `node`) so its activity lands here.
    pub fn wrap<P: RadioProtocol>(&self, node: u32, proto: P) -> Recorded<P> {
        Recorded {
            node,
            inner: proto,
            recorder: self.clone(),
            decided_logged: false,
        }
    }
}

/// A protocol wrapper that mirrors activity into a [`Recorder`].
#[derive(Clone, Debug)]
pub struct Recorded<P> {
    node: u32,
    inner: P,
    recorder: Recorder,
    decided_logged: bool,
}

impl<P> Recorded<P> {
    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Consumes the wrapper, returning the protocol.
    pub fn into_inner(self) -> P {
        self.inner
    }

    fn note_decided(&mut self, slot: Slot)
    where
        P: RadioProtocol,
    {
        if !self.decided_logged && self.inner.is_decided() {
            self.decided_logged = true;
            self.recorder.push(Event::Decide {
                node: self.node,
                slot,
            });
        }
    }
}

impl<P: RadioProtocol> RadioProtocol for Recorded<P> {
    type Message = P::Message;

    fn on_wake(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
        self.recorder.push(Event::Wake {
            node: self.node,
            slot: now,
        });
        let b = self.inner.on_wake(now, rng);
        self.note_decided(now);
        b
    }

    fn on_deadline(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
        let b = self.inner.on_deadline(now, rng);
        self.note_decided(now);
        b
    }

    fn message(&mut self, now: Slot, rng: &mut SmallRng) -> Self::Message {
        self.recorder.push(Event::Transmit {
            node: self.node,
            slot: now,
        });
        self.inner.message(now, rng)
    }

    fn on_receive(
        &mut self,
        now: Slot,
        msg: &Self::Message,
        rng: &mut SmallRng,
    ) -> Option<Behavior> {
        self.recorder.push(Event::Receive {
            node: self.node,
            slot: now,
        });
        let b = self.inner.on_receive(now, msg, rng);
        self.note_decided(now);
        b
    }

    fn is_decided(&self) -> bool {
        self.inner.is_decided()
    }

    fn take_breach(&mut self) -> Option<BehaviorFault> {
        self.inner.take_breach()
    }
}

/// Renders a terminal timeline: one row per node, one column per slot
/// bucket. Symbols: `·` asleep, space idle, `T` transmitted, `r`
/// received, `*` both, `D` decided, `x` a channel fault (drop or jam),
/// `!` an invariant violation in that bucket (`!` outranks everything —
/// it is what you are looking for).
pub fn render_timeline(events: &[Event], nodes: usize, columns: usize) -> String {
    if events.is_empty() {
        return String::from("(no events)\n");
    }
    let max_slot = events.iter().map(Event::slot).max().unwrap_or(0) + 1;
    let bucket = max_slot.div_ceil(columns as u64).max(1);
    let cols = max_slot.div_ceil(bucket) as usize;
    let mut wake_slot: Vec<Option<Slot>> = vec![None; nodes];
    let mut tx = vec![vec![false; cols]; nodes];
    let mut rx = vec![vec![false; cols]; nodes];
    let mut decide = vec![vec![false; cols]; nodes];
    let mut fault = vec![vec![false; cols]; nodes];
    let mut viol = vec![vec![false; cols]; nodes];
    for e in events {
        let node = e.node() as usize;
        if node >= nodes {
            continue;
        }
        let c = (e.slot() / bucket) as usize;
        match e {
            Event::Wake { .. } => {
                wake_slot[node] = Some(wake_slot[node].map_or(e.slot(), |w: Slot| w.min(e.slot())))
            }
            Event::Transmit { .. } => tx[node][c] = true,
            Event::Receive { .. } => rx[node][c] = true,
            Event::Decide { .. } => decide[node][c] = true,
            Event::Drop { .. } | Event::Jam { .. } => fault[node][c] = true,
            Event::Violation { .. } => viol[node][c] = true,
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "slots 0..{max_slot} ({bucket} per column)");
    for v in 0..nodes {
        let _ = write!(out, "{v:>4} │");
        for c in 0..cols {
            let slot_start = c as u64 * bucket;
            let ch = if viol[v][c] {
                '!'
            } else if decide[v][c] {
                'D'
            } else if tx[v][c] && rx[v][c] {
                '*'
            } else if tx[v][c] {
                'T'
            } else if rx[v][c] {
                'r'
            } else if fault[v][c] {
                'x'
            } else if wake_slot[v].is_none_or(|w| slot_start + bucket <= w) {
                '·'
            } else {
                ' '
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::driver::SimDriver;
    use crate::engine::lockstep::Lockstep;
    use crate::engine::{SimConfig, SimOutcome};
    use crate::monitor::NullMonitor;
    use radio_graph::generators::special::path;
    use radio_graph::Graph;

    /// Test-local wrapper over the driver (the public `run_lockstep`
    /// shim was retired after the driver unification).
    fn run_lockstep<P: RadioProtocol>(
        graph: &Graph,
        wake: &[Slot],
        protocols: Vec<P>,
        seed: u64,
        cfg: &SimConfig,
    ) -> SimOutcome<P> {
        SimDriver::run::<Lockstep>(graph, wake, protocols, (), seed, cfg, &mut NullMonitor)
    }

    /// Minimal protocol: transmit always, decide after 2 receptions.
    struct Echo {
        got: u32,
    }

    impl RadioProtocol for Echo {
        type Message = u8;

        fn on_wake(&mut self, _now: Slot, _rng: &mut SmallRng) -> Behavior {
            Behavior::Transmit {
                p: 0.4,
                until: None,
            }
        }

        fn on_deadline(&mut self, _now: Slot, _rng: &mut SmallRng) -> Behavior {
            unreachable!()
        }

        fn message(&mut self, _now: Slot, _rng: &mut SmallRng) -> u8 {
            1
        }

        fn on_receive(&mut self, _now: Slot, _msg: &u8, _rng: &mut SmallRng) -> Option<Behavior> {
            self.got += 1;
            None
        }

        fn is_decided(&self) -> bool {
            self.got >= 2
        }
    }

    #[test]
    fn records_and_matches_stats() {
        let g = path(3);
        let rec = Recorder::new(100_000);
        let protos: Vec<_> = (0..3).map(|v| rec.wrap(v, Echo { got: 0 })).collect();
        let out = run_lockstep(
            &g,
            &[0, 2, 4],
            protos,
            5,
            &SimConfig::with_max_slots(100_000),
        );
        assert!(out.all_decided);
        let events = rec.events();
        // Event counts agree with the engine's aggregates.
        for v in 0..3u32 {
            let sent = events
                .iter()
                .filter(|e| matches!(e, Event::Transmit { node, .. } if *node == v))
                .count() as u64;
            let recv = events
                .iter()
                .filter(|e| matches!(e, Event::Receive { node, .. } if *node == v))
                .count() as u64;
            assert_eq!(sent, out.stats[v as usize].sent, "sent {v}");
            assert_eq!(recv, out.stats[v as usize].received, "received {v}");
            // Exactly one wake and one decide per node.
            assert_eq!(
                events
                    .iter()
                    .filter(|e| matches!(e, Event::Wake { node, .. } if *node == v))
                    .count(),
                1
            );
            assert_eq!(
                events
                    .iter()
                    .filter(|e| matches!(e, Event::Decide { node, .. } if *node == v))
                    .count(),
                1
            );
        }
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn capacity_bound_respected() {
        let g = path(2);
        let rec = Recorder::new(3);
        let protos: Vec<_> = (0..2).map(|v| rec.wrap(v, Echo { got: 0 })).collect();
        let _ = run_lockstep(&g, &[0, 0], protos, 6, &SimConfig::with_max_slots(10_000));
        assert_eq!(rec.events().len(), 3);
        assert!(rec.dropped() > 0);
    }

    #[test]
    fn timeline_renders() {
        let events = vec![
            Event::Wake { node: 0, slot: 0 },
            Event::Transmit { node: 0, slot: 1 },
            Event::Wake { node: 1, slot: 2 },
            Event::Receive { node: 1, slot: 3 },
            Event::Decide { node: 1, slot: 4 },
            Event::Drop { node: 0, slot: 5 },
            Event::Jam { node: 0, slot: 6 },
            Event::Violation { node: 0, slot: 7 },
        ];
        assert_eq!((Event::Drop { node: 0, slot: 5 }).slot(), 5);
        assert_eq!((Event::Jam { node: 7, slot: 6 }).node(), 7);
        assert_eq!((Event::Violation { node: 3, slot: 8 }).slot(), 8);
        assert_eq!((Event::Violation { node: 3, slot: 8 }).node(), 3);
        let s = render_timeline(&events, 2, 10);
        assert!(s.contains('T'));
        assert!(s.contains('D'));
        assert!(s.contains('x'), "channel faults render as x:\n{s}");
        assert!(s.contains('!'), "violations render as !:\n{s}");
        assert!(s.lines().count() >= 3);
        assert_eq!(render_timeline(&[], 2, 10), "(no events)\n");
    }
}
