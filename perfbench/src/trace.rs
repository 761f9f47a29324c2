//! The benchmark-side span recorder.
//!
//! Layers are timed from the benchmark's side of each public call: an
//! `Instant` pair per call, accumulated into preallocated per-layer
//! totals. Every [`SAMPLE_EVERY`]th operation additionally keeps its spans
//! (name, start, end, parent, op id) in memory; they are written out once,
//! after the run. Nothing here is reachable from the measured program, so
//! the untraced run pays nothing for it.

use haec_sim::obs::json::Json;
use std::time::Instant;

/// Spans are kept for every op whose id is a multiple of this.
pub const SAMPLE_EVERY: u64 = 1024;

/// Totals of one layer.
#[derive(Clone, Default)]
pub struct Layer {
    /// Timed calls into the layer.
    pub calls: u64,
    /// Total nanoseconds across those calls.
    pub ns: u64,
    /// Per-call durations, kept only for layers created with a capacity.
    pub samples: Vec<u64>,
}

struct Span {
    layer: usize,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

/// Per-layer totals plus the sampled spans of one traced run.
pub struct Tracer {
    names: &'static [&'static str],
    origin: Instant,
    layers: Vec<Layer>,
    spans: Vec<Span>,
    op: u64,
    sampling: bool,
    parent: Option<usize>,
}

impl Tracer {
    /// A tracer for the layers `names`; `expected_ops` sizes the span
    /// buffer so the timed loop does not reallocate it.
    pub fn new(names: &'static [&'static str], expected_ops: usize) -> Self {
        let sampled_ops = expected_ops / SAMPLE_EVERY as usize + 1;
        Tracer {
            names,
            origin: Instant::now(),
            layers: vec![Layer::default(); names.len()],
            spans: Vec::with_capacity(sampled_ops * 16),
            op: 0,
            sampling: false,
            parent: None,
        }
    }

    /// Keeps per-call durations for `layer`, preallocated for `capacity`
    /// calls (for percentiles a total hides).
    pub fn keep_samples(&mut self, layer: usize, capacity: usize) {
        self.layers[layer].samples = Vec::with_capacity(capacity);
    }

    /// Starts operation `op`: its spans are kept iff it is a sampled op.
    pub fn start_op(&mut self, op: u64) {
        self.op = op;
        self.sampling = op.is_multiple_of(SAMPLE_EVERY);
        self.parent = None;
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a grouping span (the parent of the calls timed until the
    /// matching [`close`](Self::close)). Counts one call; its time is the
    /// sum of its children, so it accumulates no nanoseconds of its own.
    pub fn open(&mut self, layer: usize) {
        self.layers[layer].calls += 1;
        if self.sampling {
            let now = self.since_origin(Instant::now());
            self.spans.push(Span {
                layer,
                start_ns: now,
                end_ns: now,
                parent: self.parent,
                op: self.op,
            });
            self.parent = Some(self.spans.len() - 1);
        }
    }

    /// Closes the innermost open grouping span.
    pub fn close(&mut self) {
        if let Some(ix) = self.parent.filter(|_| self.sampling) {
            self.spans[ix].end_ns = self.since_origin(Instant::now());
            self.parent = self.spans[ix].parent;
        }
    }

    /// Times one call into `layer`.
    pub fn time<R>(&mut self, layer: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        let l = &mut self.layers[layer];
        l.calls += 1;
        l.ns += ns;
        if l.samples.capacity() > 0 {
            l.samples.push(ns);
        }
        if self.sampling {
            let start_ns = self.since_origin(start);
            self.spans.push(Span {
                layer,
                start_ns,
                end_ns: start_ns + ns,
                parent: self.parent,
                op: self.op,
            });
        }
        out
    }

    /// Totals of `layer`.
    pub fn layer(&self, layer: usize) -> &Layer {
        &self.layers[layer]
    }

    /// Sum of all layers' nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.layers.iter().map(|l| l.ns).sum()
    }

    /// The `qs`-quantiles of the kept per-call durations of `layer` (0 when
    /// none were kept).
    pub fn quantiles_ns<const N: usize>(&self, layer: usize, qs: [f64; N]) -> [u64; N] {
        let mut v = self.layers[layer].samples.clone();
        v.sort_unstable();
        qs.map(|q| match v.len() {
            0 => 0,
            n => v[((n - 1) as f64 * q).round() as usize],
        })
    }

    /// The sampled spans as a JSON document: one object per span with its
    /// name, start and end (ns since the tracer was created), the index of
    /// the span that caused it (`null` for a root) and the op id that all
    /// spans of one operation share.
    pub fn spans_json(&self, workload: &str) -> Json {
        Json::Obj(vec![
            ("workload".into(), Json::str(workload)),
            ("sample_every".into(), Json::uint(SAMPLE_EVERY)),
            (
                "spans".into(),
                Json::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("name".into(), Json::str(self.names[s.layer])),
                                ("start_ns".into(), Json::uint(s.start_ns)),
                                ("end_ns".into(), Json::uint(s.end_ns)),
                                (
                                    "parent".into(),
                                    s.parent.map_or(Json::Null, |p| Json::uint(p as u64)),
                                ),
                                ("op".into(), Json::uint(s.op)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}
