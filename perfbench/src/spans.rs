//! In-memory spans recorded around the benchmark's calls into each
//! layer's public API.
//!
//! A span has a name (`layer.call`), a start and end (ns since the
//! recorder was made), the span that caused it, and a request id shared
//! by every span of one request. Spans stay in memory and are written
//! out once, when the run ends. With tracing off, [`Spans::span`] is a
//! plain call plus one branch.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

pub struct Spans {
    pub enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for request `request`; spans
    /// opened inside `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record a span whose interval was measured elsewhere (requests of
    /// the open-loop generator overlap, so they cannot nest as calls).
    pub fn record(&mut self, name: &'static str, request: u64, start_ns: u64, end_ns: u64) {
        if self.enabled {
            let parent = self.open.last().copied();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: end_ns.max(start_ns),
                parent,
                request,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per layer, in ms: each span's duration minus the
    /// part of its interval that its children cover.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            let covered = covered_ns(kids, s.start_ns, s.end_ns);
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.layer()).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        out
    }

    /// One line per span, tab-separated: id, parent, request, name,
    /// start and end in ns.
    pub fn dump(&self) -> String {
        let mut out = String::from("id\tparent\trequest\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{i}\t{parent}\t{}\t{}\t{}\t{}\n",
                s.request, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.clamp(lo, hi), b.clamp(lo, hi));
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut s = Spans::new(true);
        s.record("engine.search", 1, 0, 100);
        s.open.push(0);
        s.record("cache.l2", 1, 10, 30);
        s.record("cache.l2", 1, 20, 40);
        s.record("dram.decode", 1, 90, 130);
        s.open.pop();
        let by = s.self_ms_by_layer();
        // Children cover [10, 40] and [90, 100] of the parent: 40 ns.
        assert_eq!(by["engine"], 60.0 / 1e6);
        assert_eq!(by["cache"], 40.0 / 1e6);
        assert_eq!(by["dram"], 40.0 / 1e6);
    }

    #[test]
    fn nested_calls_record_parents_and_disabled_records_nothing() {
        let mut s = Spans::new(true);
        s.span("probe.run", 7, |s| s.span("wire.decode", 7, |_| ()));
        assert_eq!(s.spans()[1].parent, Some(0));
        assert_eq!(s.spans()[1].request, 7);
        assert!(s.dump().contains("wire.decode"));
        let mut off = Spans::new(false);
        assert_eq!(off.span("probe.run", 1, |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
