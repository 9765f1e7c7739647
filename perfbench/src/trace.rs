//! The traced runs' recorder: per-layer totals (calls, time,
//! allocations) for every call, and spans (name, start, end, parent,
//! op id) for a sample of operations, kept in memory and written out
//! when the run ends.
//!
//! Spans are recorded from the benchmark's own files around the calls
//! it makes into each layer's public functions; nothing inside the
//! program is instrumented. Allocation counts come from
//! `memprof::CountingAlloc`, which only the `perfbench-traced` binary
//! installs — in the other binary they read zero.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Running totals of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Calls recorded.
    pub calls: u64,
    /// Total wall time of those calls, ns.
    pub ns: u128,
    /// Allocations made during those calls.
    pub allocs: u64,
}

impl LayerTotals {
    /// Mean time per call, ns (0 without calls).
    pub fn ns_per_call(&self) -> f64 {
        self.ns as f64 / self.calls.max(1) as f64
    }

    /// Mean allocations per call (0 without calls).
    pub fn allocs_per_call(&self) -> f64 {
        self.allocs as f64 / self.calls.max(1) as f64
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer (or operation) name.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
}

/// A point in time plus the allocation count at that point.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    at: Instant,
    allocs: u64,
}

/// The recorder. A disabled recorder skips the clock and the allocation
/// counter entirely, so the same replay code runs with and without
/// tracing and the difference is the tracing overhead.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    sample_every: u64,
    layers: BTreeMap<&'static str, LayerTotals>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder keeping spans for every `sample_every`-th operation.
    pub fn new(sample_every: u64) -> Tracer {
        Tracer {
            enabled: true,
            origin: crate::now(),
            sample_every: sample_every.max(1),
            layers: BTreeMap::new(),
            spans: Vec::new(),
        }
    }

    /// A recorder that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new(1)
        }
    }

    /// Take a stamp before a call (`None` when disabled).
    #[inline]
    pub fn stamp(&self) -> Option<Stamp> {
        self.enabled.then(|| Stamp {
            at: crate::now(),
            allocs: crate::memprof::stats().alloc_count,
        })
    }

    /// Whether operation `op`'s spans are kept.
    fn sampled(&self, op: u64) -> bool {
        self.enabled && op.is_multiple_of(self.sample_every)
    }

    /// Open the span of operation `op` (kept only when sampled); its end
    /// is set by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64) -> Option<usize> {
        if !self.sampled(op) {
            return None;
        }
        let start = self.ns_since_origin(crate::now());
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent: None,
            op,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span opened by [`Tracer::open`].
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(idx) = span {
            self.spans[idx].end_ns = self.ns_since_origin(crate::now());
        }
    }

    /// Charge the call between stamps `from` and `to` to `layer`, and
    /// keep its span under `parent` when that operation is sampled.
    /// Taking the end stamp separately lets a caller classify the call
    /// (which counter moved) after the clock has stopped.
    #[inline]
    pub fn record(
        &mut self,
        layer: &'static str,
        op: u64,
        parent: Option<usize>,
        from: Option<Stamp>,
        to: Option<Stamp>,
    ) {
        let (Some(from), Some(to)) = (from, to) else {
            return;
        };
        let totals = self.layers.entry(layer).or_default();
        totals.calls += 1;
        totals.ns += (to.at - from.at).as_nanos();
        totals.allocs += to.allocs - from.allocs;
        if parent.is_some() {
            let (start_ns, end_ns) = (self.ns_since_origin(from.at), self.ns_since_origin(to.at));
            self.spans.push(Span {
                name: layer,
                start_ns,
                end_ns,
                parent,
                op,
            });
        }
    }

    /// [`Tracer::record`] ending now.
    #[inline]
    pub fn finish(
        &mut self,
        layer: &'static str,
        op: u64,
        parent: Option<usize>,
        from: Option<Stamp>,
    ) {
        let to = self.stamp();
        self.record(layer, op, parent, from, to);
    }

    /// Totals of one layer (zeros if never called).
    pub fn layer(&self, name: &str) -> LayerTotals {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Every layer with calls, by name.
    pub fn layers(&self) -> impl Iterator<Item = (&'static str, LayerTotals)> + '_ {
        self.layers.iter().map(|(k, v)| (*k, *v))
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, ns: each span's duration minus the part
    /// of it its child spans cover, summed by name.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.name).or_default() += own;
        }
        out
    }

    /// Write `spans.jsonl` (one span per line) and `layers.json` (the
    /// per-layer totals and the sampled spans' self times) into `dir`.
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut spans = String::new();
        for (idx, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                spans,
                "{{\"id\": {idx}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(dir.join("spans.jsonl"), spans)?;

        let mut layers = String::from("{\"layers\": {");
        for (i, (name, t)) in self.layers().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                layers,
                "{sep}\"{name}\": {{\"calls\": {}, \"ns\": {}, \"allocs\": {}}}",
                t.calls, t.ns, t.allocs
            );
        }
        layers.push_str("}, \"sampled_self_ns\": {");
        for (i, (name, ns)) in self.self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(layers, "{sep}\"{name}\": {ns}");
        }
        layers.push_str("}}\n");
        std::fs::write(dir.join("layers.json"), layers)
    }

    fn ns_since_origin(&self, at: Instant) -> u64 {
        u64::try_from((at - self.origin).as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_sampled_spans() {
        let mut t = Tracer::new(2);
        for op in 0..4u64 {
            let span = t.open("op", op);
            let s = t.stamp();
            t.finish("layer.a", op, span, s);
            t.close(span);
        }
        assert_eq!(t.layer("layer.a").calls, 4);
        assert_eq!(t.layer("missing"), LayerTotals::default());
        // Ops 0 and 2 are sampled: one op span and one child each.
        assert_eq!(t.spans().len(), 4);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[3].op, 2);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(1);
        t.spans = vec![
            Span {
                name: "op",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op: 0,
            },
            Span {
                name: "child",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                op: 0,
            },
            Span {
                name: "child",
                start_ns: 50,
                end_ns: 60,
                parent: Some(0),
                op: 0,
            },
        ];
        let own = t.self_times();
        assert_eq!(own["op"], 60);
        assert_eq!(own["child"], 40);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let span = t.open("op", 0);
        let s = t.stamp();
        t.finish("layer.a", 0, span, s);
        t.close(span);
        assert!(span.is_none() && s.is_none());
        assert_eq!(t.layers().count(), 0);
        assert!(t.spans().is_empty());
    }
}
