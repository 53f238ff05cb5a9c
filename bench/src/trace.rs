//! What a repetition records: one [`OpRecord`] per op always, and — in
//! the traced pass only — a [`Span`] around each call into a layer.
//! Everything stays in memory until the run ends.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// The program returned an error for the op.
    Errored,
    /// The op could not be issued (open loop: its slot was still busy).
    Refused,
    /// The op completed but its output failed verification.
    Incorrect,
}

#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    /// When the op was due (open loop) or issued (closed loop).
    pub start_ns: u64,
    /// When its result was complete; latency is `done_ns - start_ns`.
    pub done_ns: u64,
    pub outcome: Outcome,
    /// False for ops that count toward throughput only (the fleet's batch
    /// tenant): their latencies stay out of `lat_*`.
    pub gated_latency: bool,
}

/// Name of the span that covers a whole op; every other span of the op
/// names it as parent.
pub const ROOT: &str = "op";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub op_id: u64,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Op outcomes by kind; `attempted` is their sum by construction of
/// [`Tally::add`], and [`Tally::check`] asserts it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub errored: u64,
    pub refused: u64,
    pub incorrect: u64,
}

impl Tally {
    pub fn add(&mut self, ops: &[OpRecord]) {
        for op in ops {
            self.attempted += 1;
            match op.outcome {
                Outcome::Ok => self.ok += 1,
                Outcome::Errored => self.errored += 1,
                Outcome::Refused => self.refused += 1,
                Outcome::Incorrect => self.incorrect += 1,
            }
        }
    }

    pub fn failed(&self) -> u64 {
        self.errored + self.refused + self.incorrect
    }

    pub fn check(&self) {
        assert_eq!(
            self.attempted,
            self.ok + self.failed(),
            "attempted must equal ok + errored + refused + incorrect"
        );
    }
}

pub struct Recorder {
    t0: Instant,
    tracing: bool,
    next_id: u64,
    pub ops: Vec<OpRecord>,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose clock starts now; it keeps spans only when
    /// `tracing`.
    pub fn new(tracing: bool) -> Recorder {
        Recorder {
            t0: Instant::now(),
            tracing,
            next_id: 0,
            ops: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder for another thread of the same pass: same clock, same
    /// mode, ids offset by `lane` so they never collide; fold it back
    /// with [`Recorder::absorb`].
    pub fn fork(&self, lane: u64) -> Recorder {
        Recorder {
            t0: self.t0,
            next_id: lane << 48,
            ..Recorder::new(self.tracing)
        }
    }

    pub fn absorb(&mut self, other: Recorder) {
        self.ops.extend(other.ops);
        self.spans.extend(other.spans);
    }

    /// Nanoseconds since the pass began.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn next_op_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id - 1
    }

    /// Runs `f`; in a traced pass, records it as span `name` of `op_id`.
    pub fn time<R>(&mut self, op_id: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.tracing {
            return f();
        }
        let start_ns = self.now();
        let r = f();
        let end_ns = self.now();
        self.span_at(op_id, name, start_ns, end_ns);
        r
    }

    /// Records a child span from timestamps taken elsewhere.
    pub fn span_at(&mut self, op_id: u64, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.tracing {
            self.spans.push(Span {
                name,
                op_id,
                parent: Some(ROOT),
                start_ns,
                end_ns,
            });
        }
    }

    /// Closes an op: its record, and its root span from `start_ns` to now.
    pub fn finish_op(&mut self, op_id: u64, start_ns: u64, done_ns: u64, outcome: Outcome) {
        let root = (start_ns, self.now().max(done_ns));
        self.finish_op_rooted(op_id, root, start_ns, done_ns, outcome);
    }

    /// [`Recorder::finish_op`] for an op whose root span is not simply
    /// "latency start until now": it opened before the latency began to
    /// count, or it must not stretch to a verification done later.
    pub fn finish_op_rooted(
        &mut self,
        op_id: u64,
        root: (u64, u64),
        start_ns: u64,
        done_ns: u64,
        outcome: Outcome,
    ) {
        self.ops.push(OpRecord {
            start_ns,
            done_ns,
            outcome,
            gated_latency: true,
        });
        if self.tracing {
            self.spans.push(Span {
                name: ROOT,
                op_id,
                parent: None,
                start_ns: root.0,
                end_ns: root.1,
            });
        }
    }

    /// Closes an op that counts toward throughput and failures but whose
    /// latency is not the workload's reported latency.
    pub fn finish_background_op(
        &mut self,
        op_id: u64,
        start_ns: u64,
        done_ns: u64,
        outcome: Outcome,
    ) {
        self.finish_op(op_id, start_ns, done_ns, outcome);
        self.ops.last_mut().expect("just pushed").gated_latency = false;
    }

    /// Where `t` falls on this pass's clock.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// How many ops did not fail, and the latencies (ms) of the gated
    /// ones among them.
    pub fn ok_ops(&self) -> (usize, Vec<f64>) {
        let ok = self.ops.iter().filter(|o| o.outcome == Outcome::Ok);
        let latencies = ok
            .clone()
            .filter(|o| o.gated_latency)
            .map(|o| o.done_ns.saturating_sub(o.start_ns) as f64 / 1e6)
            .collect();
        (ok.count(), latencies)
    }
}

/// Length of `[start, end)` covered by the union of `intervals`.
fn covered_ns(start: u64, end: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut cursor) = (0, start);
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Mean self time per op (ms) of each span name: a span's duration minus
/// the part of its interval its children cover. Only [`ROOT`] has
/// children, so every other span's self time is its duration.
pub fn self_ms_per_op(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent.is_some()) {
        children
            .entry(s.op_id)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut total_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut ops = 0u64;
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let self_ns = if s.parent.is_none() {
            ops += 1;
            let kids = children.remove(&s.op_id).unwrap_or_default();
            dur - covered_ns(s.start_ns, s.end_ns, kids)
        } else {
            dur
        };
        *total_ns.entry(s.name).or_default() += self_ns;
    }
    total_ns
        .into_iter()
        .map(|(name, ns)| (name, ns as f64 / 1e6 / ops.max(1) as f64))
        .collect()
}

/// Durations (ms) of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect()
}

pub fn spans_to_json(spans: &[Span]) -> Value {
    Value::Array(
        spans
            .iter()
            .map(|s| {
                json!({
                    "name": s.name,
                    "op_id": s.op_id,
                    "parent": s.parent,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                })
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op_id: u64, root: bool, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op_id,
            parent: (!root).then_some(ROOT),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        assert_eq!(covered_ns(10, 20, vec![]), 0);
        assert_eq!(covered_ns(10, 20, vec![(12, 15), (14, 18)]), 6);
        assert_eq!(covered_ns(10, 20, vec![(0, 12), (19, 40)]), 3);
        assert_eq!(covered_ns(10, 20, vec![(25, 30)]), 0);
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // Two ops of 10 ms; children cover 7 ms and 9 ms of them. The
        // second op's verify runs 2 ms past its root.
        let ms = 1_000_000;
        let spans = vec![
            span("submit", 0, false, 0, ms),
            span("wait", 0, false, ms, 7 * ms),
            span(ROOT, 0, true, 0, 10 * ms),
            span("submit", 1, false, 20 * ms, 23 * ms),
            span("wait", 1, false, 23 * ms, 28 * ms),
            span("verify", 1, false, 29 * ms, 32 * ms),
            span(ROOT, 1, true, 20 * ms, 30 * ms),
        ];
        let s = self_ms_per_op(&spans);
        assert_eq!(s["submit"], 2.0);
        assert_eq!(s["wait"], 5.5);
        assert_eq!(s["verify"], 1.5);
        // Root self: 3 ms + 1 ms over two ops.
        assert_eq!(s[ROOT], 2.0);
    }

    #[test]
    fn failed_and_background_ops_stay_out_of_latencies() {
        let mut r = Recorder::new(false);
        let ms = 1_000_000;
        r.finish_op(0, 0, 4 * ms, Outcome::Ok);
        r.finish_op(1, 8 * ms, 12 * ms, Outcome::Ok);
        r.finish_op(2, 12 * ms, 13 * ms, Outcome::Incorrect);
        r.finish_op(3, 19 * ms, 21 * ms, Outcome::Refused);
        r.finish_background_op(4, 0, 15 * ms, Outcome::Ok);
        assert_eq!(r.ok_ops(), (3, vec![4.0, 4.0]));
        let mut t = Tally::default();
        t.add(&r.ops);
        t.check();
        assert_eq!((t.attempted, t.ok, t.failed()), (5, 3, 2));
        assert!(r.spans.is_empty(), "an untraced pass keeps no spans");
    }

    #[test]
    fn forked_recorders_do_not_share_ids() {
        let mut a = Recorder::new(true);
        let mut b = a.fork(1);
        assert_ne!(a.next_op_id(), b.next_op_id());
        b.time(7, "submit", || ());
        a.absorb(b);
        assert_eq!(a.spans.len(), 1);
    }
}
