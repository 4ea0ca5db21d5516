//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end on one monotonic clock, the span
//! that caused it, and the request it serves. Spans stay in memory while
//! the workload runs and are written out once, at exit.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Trace`]; `NONE` marks a root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// The parent of a root span.
    pub const NONE: SpanId = SpanId(u32::MAX);
}

/// One recorded span. Times are nanoseconds since the trace's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `search.step`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch (`start` while the span is open).
    pub end: u64,
    /// The causing span, or [`SpanId::NONE`].
    pub parent: SpanId,
    /// The request (utterance) the span serves.
    pub request: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A span recorder. A disabled trace records nothing and costs one
/// branch per call.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Trace {
    /// A recorder; `enabled == false` gives the untraced configuration.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
        }
    }

    /// Whether this trace records spans.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Bytes of memory the recorded spans occupy.
    pub fn held_bytes(&self) -> usize {
        self.spans.len() * std::mem::size_of::<Span>()
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u32) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        SpanId(self.spans.len() as u32 - 1)
    }

    /// Closes a span opened by [`Trace::begin`].
    pub fn end(&mut self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let now = self.now();
        self.spans[id.0 as usize].end = now;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines: one object per span with its id,
    /// name, parent (`null` for roots), request and start/end in ns.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == SpanId::NONE {
                "null".to_owned()
            } else {
                s.parent.0.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.request, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Total duration, in ns, of the spans named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .sum()
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Self time of every span, in ns, indexed like `spans`: a span's
/// duration minus the part of its interval its children cover.
/// Overlapping children are counted once, and a child reaching outside
/// its parent is clipped to it.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != SpanId::NONE {
            children[s.parent.0 as usize].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(parent, mut covered)| {
            for c in &mut covered {
                *c = (c.0.max(parent.start), c.1.min(parent.end));
            }
            covered.sort_unstable();
            let mut union = 0;
            let mut cursor = parent.start;
            for (a, b) in covered {
                let a = a.max(cursor);
                if b > a {
                    union += b - a;
                    cursor = b;
                }
            }
            parent.duration() - union
        })
        .collect()
}

/// Summed self time, in ns, of every span named `name`, given the
/// [`self_times_ns`] of `spans`.
pub fn total_self_ns(spans: &[Span], self_times: &[u64], name: &str) -> u64 {
    spans
        .iter()
        .zip(self_times)
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| t)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("session", 0, 100, SpanId::NONE),
            span("step", 10, 30, SpanId(0)),
            span("step", 40, 70, SpanId(0)),
            span("other", 0, 100, SpanId::NONE),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs, vec![50, 20, 30, 100]);
        assert_eq!(total_self_ns(&spans, &selfs, "step"), 50);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span("session", 0, 100, SpanId::NONE),
            span("score", 10, 60, SpanId(0)),
            span("search", 40, 80, SpanId(0)),
            span("search", 50, 55, SpanId(0)),
        ];
        // The children cover [10, 80): 70 ns of the 100.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [
            span("session", 100, 200, SpanId::NONE),
            span("late", 150, 260, SpanId(0)),
            span("early", 50, 120, SpanId(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_and_totals_spans() {
        let mut t = Trace::new(true);
        let root = t.begin("request", SpanId::NONE, 7);
        let x = t.span("layer", root, 7, || 3 + 4);
        t.end(root);
        assert_eq!(x, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, SpanId(0));
        assert_eq!(spans[1].request, 7);
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        assert_eq!(count(spans, "layer"), 1);
        assert_eq!(
            total_ns(spans, "request"),
            total_self_ns(spans, &self_times_ns(spans), "request") + total_ns(spans, "layer")
        );
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut t = Trace::new(false);
        let root = t.begin("request", SpanId::NONE, 0);
        t.span("layer", root, 0, || ());
        t.end(root);
        assert!(t.spans().is_empty());
    }
}
