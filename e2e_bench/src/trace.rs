//! Benchmark-side tracing: spans recorded around each call the benchmark
//! makes into a layer's public API, with the program's own `tcsl-obs`
//! counters read before and after every call.
//!
//! A span's layer is the prefix of its name before the first `.`
//! (`core.transform` belongs to `core`). Spans named `op.*` are the
//! client loop's rounds, not a layer; every other span is a layer call.
//! Layer calls never nest inside each other, so a layer's busy time is
//! also its self time, and the wall time no layer call covers is the
//! run's unattributed residual.

use std::fmt::Write as _;
use std::time::Instant;
use tcsl_obs::alloc_track;
use tcsl_obs::counters::{self as c, Counter};
use tcsl_obs::hist::{self, Histogram};

/// The program counters each span records deltas of, in [`Ctr`] order.
static COUNTERS: [&Counter; 17] = [
    &c::DOT_DISPATCH_SCALAR,
    &c::DOT_DISPATCH_AVX2_FMA,
    &c::DOT_DISPATCH_I16_AVX512,
    &c::DOT_DISPATCH_I16_AVX2,
    &c::DOT_DISPATCH_I16_SCALAR,
    &c::DOT_DISPATCH_F16_AVX512,
    &c::DOT_DISPATCH_F16C,
    &c::DOT_DISPATCH_F16_SCALAR,
    &c::POOL_DISPATCH,
    &c::PAIRDIST_TILES,
    &c::WINDOW_CACHE_HIT,
    &c::WINDOW_CACHE_MISS,
    &c::SHAPELET_POOL_FUSED,
    &c::SHAPELET_POOL_BLOCKED,
    &c::IVF_CELLS_PROBED,
    &c::IVF_CANDIDATES,
    &c::TRAINER_PAIRS,
];

/// Index of each entry of [`COUNTERS`].
#[derive(Clone, Copy)]
pub enum Ctr {
    DotScalar,
    DotAvx2Fma,
    DotI16Avx512,
    DotI16Avx2,
    DotI16Scalar,
    DotF16Avx512,
    DotF16c,
    DotF16Scalar,
    PoolDispatch,
    PairdistTiles,
    WindowCacheHit,
    WindowCacheMiss,
    PoolFused,
    PoolBlocked,
    IvfCellsProbed,
    IvfCandidates,
    TrainerPairs,
}

/// One reading of every counter in [`COUNTERS`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters([u64; 17]);

impl Counters {
    /// Reads the counters now.
    pub fn read() -> Counters {
        Counters(COUNTERS.map(|c| c.value()))
    }

    /// Element-wise `self - earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let mut out = [0u64; 17];
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.0[i].wrapping_sub(earlier.0[i]);
        }
        Counters(out)
    }

    /// The value of one counter.
    pub fn get(&self, c: Ctr) -> u64 {
        self.0[c as usize]
    }

    /// Dot-kernel calls of every tier.
    pub fn dots(&self) -> u64 {
        (Ctr::DotScalar as usize..=Ctr::DotF16Scalar as usize)
            .map(|i| self.0[i])
            .sum()
    }

    /// Name/value pairs, for the span file.
    fn named(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        COUNTERS.iter().zip(self.0).map(|(c, v)| (c.name(), v))
    }
}

/// The program's host histograms the traced run reads, as `(count, sum)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Hists {
    /// `transform.series_ns`: per-series shapelet-transform time.
    pub transform_series_ns: (u64, u64),
    /// `trainer.batch_ns`: per-batch training time.
    pub trainer_batch_ns: (u64, u64),
    /// `pool.dispatch_wait_ns`: how long a dispatch waited for the pool.
    pub pool_wait_ns: (u64, u64),
}

impl Hists {
    /// Reads the histograms now.
    pub fn read() -> Hists {
        let cs = |h: &'static Histogram| {
            let s = h.stat();
            (s.count, s.sum)
        };
        Hists {
            transform_series_ns: cs(&hist::TRANSFORM_SERIES_NS),
            trainer_batch_ns: cs(&hist::TRAINER_BATCH_NS),
            pool_wait_ns: cs(&hist::POOL_DISPATCH_WAIT_NS),
        }
    }

    /// Element-wise `self - earlier`.
    pub fn since(&self, earlier: &Hists) -> Hists {
        let d = |a: (u64, u64), b: (u64, u64)| (a.0 - b.0, a.1 - b.1);
        Hists {
            transform_series_ns: d(self.transform_series_ns, earlier.transform_series_ns),
            trainer_batch_ns: d(self.trainer_batch_ns, earlier.trainer_batch_ns),
            pool_wait_ns: d(self.pool_wait_ns, earlier.pool_wait_ns),
        }
    }
}

/// `sum / count` of a histogram delta, `0.0` when it saw no samples.
pub fn hist_mean((count, sum): (u64, u64)) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64
    }
}

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.call` (or `op.<round kind>` for a client round).
    pub name: &'static str,
    /// The round (request, cycle or session) the call belongs to.
    pub round: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Work the call handled (series, bytes or rows; see the call site).
    pub items: u64,
    /// Program counter deltas over the call.
    pub counters: Counters,
    /// Bytes allocated above the live set at entry, at the call's peak.
    pub peak_extra: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer the span belongs to (`None` for client rounds).
    pub fn layer(&self) -> Option<&'static str> {
        let layer = self.name.split('.').next().unwrap_or(self.name);
        (layer != "op").then_some(layer)
    }
}

/// Span recorder; a disabled tracer runs each closure and records nothing.
pub struct Tracer {
    on: bool,
    t0: Instant,
    round: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`on`) or only runs the closures.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            round: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Starts the next round; later spans carry its id.
    pub fn next_round(&mut self) {
        self.round += 1;
    }

    /// Runs `f` as a call named `name` that handles `items` units of work.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        items: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            round: self.round,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            items,
            counters: Counters::default(),
            peak_extra: 0,
        });
        self.open.push(idx);
        let live = alloc_track::live_bytes();
        alloc_track::reset_counters();
        let before = Counters::read();
        let start = self.t0.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.t0.elapsed().as_nanos() as u64;
        let span = &mut self.spans[idx];
        span.counters = Counters::read().since(&before);
        span.peak_extra = alloc_track::peak_bytes().saturating_sub(live) as u64;
        span.start_ns = start;
        span.end_ns = end;
        self.open.pop();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Count, busy time and self time of one span name or layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Busy {
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

/// Busy and self time per span name, in first-seen order. Self time is a
/// span's duration minus the time its child spans cover.
pub fn by_name(spans: &[Span]) -> Vec<(&'static str, Busy)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.ns();
        }
    }
    let mut out: Vec<(&'static str, Busy)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let slot = match out.iter().position(|(n, _)| *n == s.name) {
            Some(j) => j,
            None => {
                out.push((s.name, Busy::default()));
                out.len() - 1
            }
        };
        let b = &mut out[slot].1;
        b.count += 1;
        b.busy_ns += s.ns();
        b.self_ns += s.ns().saturating_sub(child_ns[i]);
    }
    out
}

/// Busy time per layer (the layers never nest, so busy is self time).
pub fn layer_busy(spans: &[Span], layer: &str) -> Busy {
    let mut b = Busy::default();
    for s in spans.iter().filter(|s| s.layer() == Some(layer)) {
        b.count += 1;
        b.busy_ns += s.ns();
        b.self_ns += s.ns();
    }
    b
}

/// Writes the spans, one JSON object per line, after a header line.
pub fn write_spans(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 160 + header.len() + 1);
    out.push_str(header);
    out.push('\n');
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"round\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"items\":{},\"peak_extra_bytes\":{},\"counters\":{{",
            s.name,
            s.round,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.start_ns,
            s.end_ns,
            s.items,
            s.peak_extra,
        );
        let mut first = true;
        for (name, v) in s.counters.named().filter(|&(_, v)| v > 0) {
            let _ = write!(out, "{}\"{name}\":{v}", if first { "" } else { "," });
            first = false;
        }
        out.push_str("}}\n");
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_layers_skip_rounds() {
        let mut t = Tracer::new(true);
        t.span("op.request", 1, |t| {
            t.span("data.load_csv", 10, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("core.transform", 1, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].layer(), None);
        assert_eq!(spans[1].layer(), Some("data"));
        let names = by_name(spans);
        let op = names[0].1;
        assert_eq!(op.self_ns, spans[0].ns() - spans[1].ns() - spans[2].ns());
        assert_eq!(layer_busy(spans, "data").busy_ns, spans[1].ns());
        assert!(spans[1].ns() >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("core.transform", 1, |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
