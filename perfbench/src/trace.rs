//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span is a name, a start and end (nanoseconds since the run's
//! epoch), the span that caused it, and the pass it belongs to. Spans
//! stay in memory and are written out once, when the run ends. With
//! tracing off, [`Tracer::open`] records nothing and reads no clock.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, such as `core.synthesize`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, if any.
    pub parent: Option<usize>,
    /// Pass number; set-up and probe spans use their own numbering.
    pub pass: u32,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span; `None` when tracing is off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The handle of "no span", used as the parent of top-level spans.
    pub const ROOT: SpanId = SpanId(None);

    /// The span's index, if one was recorded.
    pub fn index(self) -> Option<usize> {
        self.0
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`; records nothing
    /// unless `enabled`.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (passes alternate in a traced run).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn open(&mut self, name: &'static str, parent: SpanId, pass: u32) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.0,
            pass,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        pass: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, pass);
        let out = f();
        self.close(id);
        out
    }

    /// Appends finished spans recorded elsewhere against this tracer's
    /// epoch (a client thread's requests). Their parents must be indices
    /// into this tracer.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"pass":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.pass
            );
        }
        out
    }
}

/// Self time of span `id`: its duration minus the part of its interval
/// covered by its child spans. Children that overlap each other (the
/// requests of concurrent connections) are counted once.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let parent = &spans[id];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
        .filter(|(start, end)| end > start)
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in children {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                covered += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    if let Some((s, e)) = current {
        covered += e - s;
    }
    parent.duration_ns().saturating_sub(covered)
}

/// Total duration, in seconds, of the spans named `name` in `pass`.
pub fn total_s(spans: &[Span], name: &str, pass: u32) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && s.pass == pass)
        .map(|s| s.duration_ns() as f64 * 1e-9)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            pass: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 20, Some(0)),
            span(50, 80, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 60);
        assert_eq!(self_time_ns(&spans, 1), 10);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two connections' requests overlap: [10,40) and [30,60) cover
        // [10,60), 50 ns, not 60.
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            // Nested inside the first child: no extra coverage.
            span(15, 25, Some(0)),
            // Runs past the parent's end: clipped to it.
            span(90, 130, Some(0)),
            // A grandchild is not a child of span 0.
            span(0, 100, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 50 - 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.open("x", SpanId::ROOT, 0);
        t.close(id);
        assert_eq!(t.time("y", id, 0, || 7), 7);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        let parent = t.open("p", SpanId::ROOT, 1);
        t.time("c", parent, 1, || ());
        t.close(parent);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.to_jsonl().lines().count() == 2);
    }
}
