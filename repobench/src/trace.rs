//! Spans recorded around the calls this benchmark makes into each
//! layer, and the forwarding protocol wrapper that times the FSM
//! callbacks from outside the library (the `radio_sim::trace::Recorded`
//! pattern, with a clock instead of an event log).

use crate::stats::Hist;
use radio_sim::{Behavior, BehaviorFault, RadioProtocol, Slot};
use rand::rngs::SmallRng;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

struct Span {
    name: String,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log: name, start, end and parent, written out once
/// the run ends. Only traced runs build one.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &str, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records an already-measured interval as a closed span.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            name: name.to_string(),
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Seconds covered by a closed span.
    pub fn secs(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// `[[name, parent or -1, start_ns, end_ns], ...]`.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "[\"{}\",{},{},{}]",
                    s.name,
                    s.parent.map_or(-1, |p| p as i64),
                    s.start_ns,
                    s.end_ns
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }
}

/// Callback kinds of [`RadioProtocol`], in the order of
/// [`Timed::calls`].
pub const CALLBACKS: [&str; 4] = ["wake", "deadline", "message", "receive"];
const WAKE: usize = 0;
const DEADLINE: usize = 1;
const MESSAGE: usize = 2;
const RECEIVE: usize = 3;

/// A forwarding [`RadioProtocol`] that times every callback into the
/// wrapped FSM. Counters live in the wrapper, one per node, so the
/// sharded driver's threads never share them. `is_decided` is not
/// timed: the engines poll it as part of their own bookkeeping.
pub struct Timed<P> {
    pub inner: P,
    pub calls: [u64; 4],
    pub hist: Hist,
}

impl<P> Timed<P> {
    pub fn new(inner: P) -> Timed<P> {
        Timed {
            inner,
            calls: [0; 4],
            hist: Hist::default(),
        }
    }

    #[inline]
    fn note(&mut self, kind: usize, start: Instant) {
        self.calls[kind] += 1;
        self.hist.record(start.elapsed().as_nanos() as u64);
    }
}

impl<P: RadioProtocol> RadioProtocol for Timed<P> {
    type Message = P::Message;

    fn on_wake(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
        let t = Instant::now();
        let b = self.inner.on_wake(now, rng);
        self.note(WAKE, t);
        b
    }

    fn on_deadline(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
        let t = Instant::now();
        let b = self.inner.on_deadline(now, rng);
        self.note(DEADLINE, t);
        b
    }

    fn message(&mut self, now: Slot, rng: &mut SmallRng) -> Self::Message {
        let t = Instant::now();
        let m = self.inner.message(now, rng);
        self.note(MESSAGE, t);
        m
    }

    fn on_receive(
        &mut self,
        now: Slot,
        msg: &Self::Message,
        rng: &mut SmallRng,
    ) -> Option<Behavior> {
        let t = Instant::now();
        let b = self.inner.on_receive(now, msg, rng);
        self.note(RECEIVE, t);
        b
    }

    fn is_decided(&self) -> bool {
        self.inner.is_decided()
    }

    fn take_breach(&mut self) -> Option<BehaviorFault> {
        self.inner.take_breach()
    }
}
