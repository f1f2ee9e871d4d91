//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out when the run ends.
//!
//! A span has a name, start and end (ns since the run's origin), the index of
//! the span that caused it, and the request id it belongs to. Recording is a
//! push onto a per-thread vector; a disabled recorder records nothing, so the
//! measured (untraced) passes run the same code with tracing off.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span brackets.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// Index (within the same recorder) of the causing span.
    pub parent: Option<usize>,
    /// Request id the span belongs to.
    pub request: u64,
}

/// A per-thread span buffer.
#[derive(Debug, Clone)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder timing from `origin`; records only when `enabled`.
    pub fn new(origin: Instant, enabled: bool) -> Spans {
        Spans {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    /// An empty recorder with the same origin and switch, for another thread.
    pub fn child(&self) -> Spans {
        Spans::new(self.origin, self.enabled)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Open a span whose end is filled in by [`Spans::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        self.record(name, start, start, parent, request)
    }

    /// Set the end of an opened span.
    pub fn close(&mut self, span: Option<usize>, end: Instant) {
        if let Some(i) = span {
            let end_ns = self.ns(end);
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now(), parent, request);
        out
    }

    /// Append another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: count, total duration and total self time (duration
    /// minus the union of its children's intervals), in ns.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = union_within(kids, s.start_ns, s.end_ns);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur - covered;
        }
        out
    }

    /// Write the spans as JSON lines (one span per line, then a summary line
    /// per span name).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        for (name, (count, total, own)) in self.summary() {
            writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn union_within(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut spans = Spans::new(t0, true);
        let root = spans.record("req", at(0), at(100), None, 7);
        spans.record("a", at(10), at(40), root, 7);
        spans.record("b", at(30), at(60), root, 7); // overlaps `a`
        spans.record("c", at(90), at(150), root, 7); // runs past the parent
        let s = spans.summary();
        // Children cover [10, 60] and [90, 100] of the root: 60 µs.
        assert_eq!(s["req"], (1, 100_000, 40_000));
        assert_eq!(s["a"].2, 30_000);
    }

    #[test]
    fn disabled_recorder_keeps_nothing_and_absorb_rebases_parents() {
        let t0 = Instant::now();
        let mut off = Spans::new(t0, false);
        assert_eq!(off.record("x", t0, t0, None, 0), None);
        assert_eq!(off.len(), 0);
        let mut a = Spans::new(t0, true);
        a.record("x", t0, t0, None, 0);
        let mut b = Spans::new(t0, true);
        let p = b.record("y", t0, t0, None, 1);
        b.record("z", t0, t0, p, 1);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
