//! Harness-side spans: recorded around the calls into each layer, kept in a
//! preallocated buffer, written out as Chrome trace-event JSON when the run
//! ends. Nothing inside the library is instrumented.

use crate::json::{obj, Json};
use std::time::Instant;

/// Index of a span in its [`Tracer`]; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Thread lane in the trace viewer: the rank for decomposed runs, else 0.
    pub lane: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span buffer with one time origin. `begin`/`end` never allocate while
/// the buffer has capacity; a full buffer drops further spans (counted), so
/// the measured loop cannot stall on a reallocation.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_origin(Instant::now(), cap)
    }

    /// A tracer sharing another's clock origin — ranks of one world record
    /// into private buffers that are merged afterwards.
    pub fn with_origin(origin: Instant, cap: usize) -> Self {
        Self {
            origin,
            spans: Vec::with_capacity(cap),
            dropped: 0,
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its id for [`end`](Self::end) and as the parent
    /// of its children.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, lane: u32) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            lane,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Close a span and return its duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        match self.spans.get_mut(id as usize) {
            Some(s) => {
                s.end_ns = now;
                s.dur_ns()
            }
            None => 0,
        }
    }

    /// Add a span whose interval was measured elsewhere (a job's latency
    /// reported by the runtime that ran it).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: SpanId,
        lane: u32,
    ) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            lane,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Append another tracer's spans (same origin), re-basing their parent
    /// links onto this buffer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.dropped += other.dropped;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children — two ranks under
/// one step — are counted once, by the union of their intervals).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(c) = children.get_mut(s.parent as usize) {
            c.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.clamp(cursor, s.end_ns);
                let b = b.clamp(cursor, s.end_ns);
                covered += b - a;
                cursor = b;
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Durations (ms) of all spans called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// (`"ph":"X"`) event per span, microsecond timestamps, the workload as the
/// process name and the parent span in `args`.
pub fn chrome_trace(spans: &[Span], workload: &str) -> Json {
    let mut events = vec![obj([
        ("name", "process_name".into()),
        ("ph", "M".into()),
        ("pid", 1usize.into()),
        ("args", obj([("name", workload.into())])),
    ])];
    events.extend(spans.iter().enumerate().map(|(i, s)| {
        obj([
            ("name", s.name.into()),
            ("cat", workload.into()),
            ("ph", "X".into()),
            ("pid", 1usize.into()),
            ("tid", (s.lane as usize).into()),
            ("ts", (s.start_ns as f64 / 1e3).into()),
            ("dur", (s.dur_ns() as f64 / 1e3).into()),
            (
                "args",
                obj([
                    ("id", i.into()),
                    (
                        "parent",
                        if s.parent == NO_PARENT {
                            Json::Null
                        } else {
                            (s.parent as usize).into()
                        },
                    ),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                    ("workload", workload.into()),
                ]),
            ),
        ])
    }));
    obj([("traceEvents", Json::Arr(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            lane: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // workload [0,100] > step [10,90] > {pre [10,50], post [55,85]}
        let spans = [
            span("workload", 0, 100, NO_PARENT),
            span("step", 10, 90, 0),
            span("pre_reduce", 10, 50, 1),
            span("post_reduce", 55, 85, 1),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 10, 40, 30]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two ranks' steps overlap under one parent: union is [10, 70].
        let spans = [
            span("run", 0, 100, NO_PARENT),
            span("rank0", 10, 60, 0),
            span("rank1", 20, 70, 0),
            // a child leaking past its parent is clipped to it
            span("late", 90, 120, 0),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_links_parents_and_never_grows() {
        let mut t = Tracer::with_capacity(2);
        let a = t.begin("a", NO_PARENT, 0);
        let b = t.begin("b", a, 0);
        let c = t.begin("c", b, 0); // over capacity: dropped
        assert_eq!(c, NO_PARENT);
        assert_eq!(t.end(c), 0);
        t.end(b);
        t.end(a);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.spans()[1].parent, a);
        assert!(t.spans()[0].dur_ns() >= t.spans()[1].dur_ns());
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::with_origin(origin, 4);
        let root = a.begin("root", NO_PARENT, 0);
        a.end(root);
        let mut b = Tracer::with_origin(origin, 4);
        let s = b.begin("step", NO_PARENT, 1);
        let p = b.begin("pre", s, 1);
        b.end(p);
        b.end(s);
        a.absorb(b);
        assert_eq!(a.spans()[1].parent, NO_PARENT);
        assert_eq!(a.spans()[2].parent, 1);
        let trace = chrome_trace(a.spans(), "w");
        assert_eq!(trace.get("traceEvents").unwrap().as_arr().unwrap().len(), 4);
    }
}
