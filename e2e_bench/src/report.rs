//! Metric computation: end-to-end metrics from an untraced pass, per-layer
//! metrics from a traced one.

use crate::probe::{Probe, REFERENCE_MS};
use crate::stats::{mean, median, quantile};
use crate::trace::{hist_mean, layer_busy, Counters, Ctr, Hists, Span};
use crate::workload::Facts;

const MIB: f64 = 1024.0 * 1024.0;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// Result of one measured pass.
#[derive(Default)]
pub struct Pass {
    /// Rounds completed.
    pub rounds: u64,
    /// Operation latencies, ns.
    pub op_ns: Vec<u64>,
    /// Series per second of each round.
    pub round_rates: Vec<f64>,
    /// Wall time of the pass, s.
    pub wall_s: f64,
    /// Highest live heap of the pass, bytes.
    pub peak_bytes: usize,
    /// Host-speed probes run between the rounds, and their fast time, ms.
    pub probes: usize,
    pub probe_ms: f64,
}

impl Pass {
    fn mean_round_s(&self) -> f64 {
        self.wall_s / self.rounds.max(1) as f64
    }

    /// Records one completed round.
    pub fn push_round(&mut self, secs: f64, series: u64, op_ns: &[u64]) {
        self.rounds += 1;
        self.round_rates.push(series as f64 / secs);
        self.op_ns.extend(op_ns);
    }

    pub fn set_probe(&mut self, probe: &Probe) {
        self.probes = probe.count();
        self.probe_ms = probe.quantile_ms(FAST_Q);
    }

    /// Scales a time to the reference host speed.
    fn normalized_ms(&self, ms: f64) -> f64 {
        ms * REFERENCE_MS / self.probe_ms
    }

    fn op_ms(&self) -> Vec<f64> {
        self.op_ns.iter().map(|&ns| ns as f64 / 1e6).collect()
    }
}

/// Quantile of the operation latencies and probe times reported end to
/// end, and its mirror for the per-round rates. On a shared host
/// neighbours take turns slowing the benchmark's cores by up to 1.7x for
/// seconds at a time, so a run's median tracks how long the neighbours
/// were busy; its fastest twentieth tracks the program. The probe then
/// takes out the drift that lasts longer than a run.
const FAST_Q: f64 = 0.05;

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(setup_s: &[f64], pass: &Pass) -> Vec<Metric> {
    let op_ms = pass.op_ms();
    let m = |name: &str, value, unit, samples| Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    };
    vec![
        m("setup_s", median(setup_s), "s", setup_s.len()),
        m(
            "latency_p5_norm_ms",
            pass.normalized_ms(quantile(&op_ms, FAST_Q)),
            "ms",
            op_ms.len(),
        ),
        m(
            "series_per_s_p95_norm",
            1e3 / pass.normalized_ms(1e3 / quantile(&pass.round_rates, 1.0 - FAST_Q)),
            "1/s",
            pass.round_rates.len(),
        ),
        m("peak_alloc_mb", pass.peak_bytes as f64 / MIB, "MiB", 1),
    ]
}

/// Everything the traced run measured.
pub struct Traced<'a> {
    /// Spans of the traced pass.
    pub spans: &'a [Span],
    /// The traced pass.
    pub pass: &'a Pass,
    /// The untraced rounds run alternately with the traced ones.
    pub untraced: &'a Pass,
    /// Program counter and histogram deltas over the traced pass.
    pub counters: Counters,
    pub hists: Hists,
    pub facts: Facts,
}

impl Traced<'_> {
    fn durations<'b>(&'b self, names: &'b [&str]) -> impl Iterator<Item = &'b Span> + 'b {
        self.spans.iter().filter(move |s| names.contains(&s.name))
    }

    /// Mean duration of the named calls, ms.
    fn mean_ms(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .durations(&[name])
            .map(|s| s.ns() as f64 / 1e6)
            .collect();
        mean(&v)
    }

    /// Median duration of the named calls, us.
    fn p50_us(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .durations(&[name])
            .map(|s| s.ns() as f64 / 1e3)
            .collect();
        median(&v)
    }

    /// Highest allocation peak of the named calls above their entry, MiB.
    fn peak_mib(&self, names: &[&str]) -> f64 {
        self.durations(names)
            .map(|s| s.peak_extra)
            .max()
            .unwrap_or(0) as f64
            / MIB
    }

    fn count(&self, name: &str) -> usize {
        self.durations(&[name]).count()
    }

    fn per_round(&self, v: u64) -> f64 {
        v as f64 / self.pass.rounds.max(1) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Layers the benchmark calls into directly: the span-name prefixes.
const LAYERS: [&str; 5] = ["data", "core", "analyzers", "explore", "client"];

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn per_layer(t: &Traced) -> Vec<Metric> {
    let wall_ns = t.pass.wall_s * 1e9;
    let rounds = t.pass.rounds as usize;
    let c = &t.counters;
    let mut out = Vec::new();
    let mut push = |name: &str, value, unit, samples| {
        out.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        })
    };

    let mut attributed_ns = 0u64;
    for layer in LAYERS {
        let b = layer_busy(t.spans, layer);
        attributed_ns += b.busy_ns;
        let name = |what| format!("layer.{layer}.{what}");
        push(&name("calls"), t.per_round(b.count), "count/round", rounds);
        push(
            &name("busy_ms"),
            t.per_round(b.busy_ns) / 1e6,
            "ms/round",
            rounds,
        );
        push(&name("share"), b.busy_ns as f64 / wall_ns, "frac", rounds);
    }

    let parse: Vec<&Span> = t.durations(&["data.load_csv"]).collect();
    let parse_ns: u64 = parse.iter().map(|s| s.ns()).sum();
    let parse_bytes: u64 = parse.iter().map(|s| s.items).sum();
    push(
        "data.parse_ms",
        t.mean_ms("data.load_csv"),
        "ms",
        parse.len(),
    );
    push(
        "data.parse_mb_per_s",
        ratio(parse_bytes as f64 / 1e6, parse_ns as f64 / 1e9),
        "MB/s",
        parse.len(),
    );

    for (name, span) in [
        ("core.model_load_ms", "core.model_load"),
        ("core.model_save_ms", "core.model_save"),
        ("core.pretrain_ms", "core.pretrain"),
        ("core.transform_ms", "core.transform"),
    ] {
        push(name, t.mean_ms(span), "ms", t.count(span));
    }
    let per_series_us: Vec<f64> = t
        .durations(&["core.transform"])
        .map(|s| s.ns() as f64 / 1e3 / s.items.max(1) as f64)
        .collect();
    push(
        "core.transform_series_p50_us",
        median(&per_series_us),
        "us",
        per_series_us.len(),
    );

    let batches = t.hists.trainer_batch_ns.0 as usize;
    push(
        "trainer.batch_mean_ms",
        hist_mean(t.hists.trainer_batch_ns) / 1e6,
        "ms",
        batches,
    );
    push(
        "trainer.pairs",
        t.per_round(c.get(Ctr::TrainerPairs)),
        "count/round",
        rounds,
    );

    let hits = c.get(Ctr::WindowCacheHit) as f64;
    let misses = c.get(Ctr::WindowCacheMiss) as f64;
    push(
        "shapelet.window_cache_hit_ratio",
        ratio(hits, hits + misses),
        "frac",
        rounds,
    );
    push(
        "shapelet.pool_calls",
        t.per_round(c.get(Ctr::PoolFused) + c.get(Ctr::PoolBlocked)),
        "count/round",
        rounds,
    );
    let series = t.hists.transform_series_ns.0 as usize;
    push(
        "shapelet.series_mean_us",
        hist_mean(t.hists.transform_series_ns) / 1e3,
        "us",
        series,
    );

    let i16_dots = c.get(Ctr::DotI16Avx512) + c.get(Ctr::DotI16Avx2) + c.get(Ctr::DotI16Scalar);
    let f16_dots = c.get(Ctr::DotF16Avx512) + c.get(Ctr::DotF16c) + c.get(Ctr::DotF16Scalar);
    push(
        "tensor.dot.scalar",
        t.per_round(c.get(Ctr::DotScalar)),
        "count/round",
        rounds,
    );
    push(
        "tensor.dot.avx2_fma",
        t.per_round(c.get(Ctr::DotAvx2Fma)),
        "count/round",
        rounds,
    );
    push(
        "tensor.dot.i16",
        t.per_round(i16_dots),
        "count/round",
        rounds,
    );
    push(
        "tensor.dot.f16",
        t.per_round(f16_dots),
        "count/round",
        rounds,
    );
    push(
        "tensor.dot.scalar_share",
        ratio(c.get(Ctr::DotScalar) as f64, c.dots() as f64),
        "frac",
        rounds,
    );
    push(
        "tensor.dot.bytes_per_series",
        t.facts.bytes_per_series as f64,
        "B",
        1,
    );
    push(
        "tensor.pool_dispatches",
        t.per_round(c.get(Ctr::PoolDispatch)),
        "count/round",
        rounds,
    );
    push(
        "tensor.pool_wait_mean_ns",
        hist_mean(t.hists.pool_wait_ns),
        "ns",
        t.hists.pool_wait_ns.0 as usize,
    );
    push(
        "tensor.pairdist_tiles",
        t.per_round(c.get(Ctr::PairdistTiles)),
        "count/round",
        rounds,
    );

    for (name, span) in [
        ("analyzers.svm_fit_ms", "analyzers.svm_fit"),
        ("analyzers.svm_predict_ms", "analyzers.svm_predict"),
        ("analyzers.kmeans_ms", "analyzers.kmeans"),
        ("analyzers.iforest_ms", "analyzers.iforest"),
    ] {
        push(name, t.mean_ms(span), "ms", t.count(span));
    }
    push("analyzers.svm_accuracy", t.facts.accuracy, "frac", 1);
    push("analyzers.kmeans_nmi", t.facts.nmi, "frac", 1);

    let queries = t.count("analyzers.index_query");
    push(
        "index.build_ms",
        t.mean_ms("analyzers.index_build"),
        "ms",
        t.count("analyzers.index_build"),
    );
    push(
        "index.query_p50_us",
        t.p50_us("analyzers.index_query"),
        "us",
        queries,
    );
    push("index.recall_at_10", t.facts.recall_at_10, "frac", 1);
    push(
        "ivf.cells_probed",
        ratio(c.get(Ctr::IvfCellsProbed) as f64, queries as f64),
        "count/query",
        queries,
    );
    push(
        "ivf.candidate_frac",
        ratio(
            c.get(Ctr::IvfCandidates) as f64,
            queries as f64 * t.facts.corpus_rows as f64,
        ),
        "frac",
        queries,
    );

    push(
        "explore.session_open_ms",
        t.mean_ms("explore.session_open"),
        "ms",
        t.count("explore.session_open"),
    );
    push(
        "explore.match_p50_us",
        t.p50_us("explore.match"),
        "us",
        t.count("explore.match"),
    );
    push(
        "explore.tsne_ms",
        t.mean_ms("explore.tsne"),
        "ms",
        t.count("explore.tsne"),
    );

    // The median and the tail are reported here, without a bound: on a
    // shared host they measure the neighbours more than the program.
    let op_ms = t.untraced.op_ms();
    push(
        "op.latency_p5_ms",
        quantile(&op_ms, FAST_Q),
        "ms",
        op_ms.len(),
    );
    push(
        "host.probe_p5_ms",
        t.untraced.probe_ms,
        "ms",
        t.untraced.probes,
    );
    push("op.latency_p50_ms", median(&op_ms), "ms", op_ms.len());
    push(
        "op.latency_p99_ms",
        quantile(&op_ms, 0.99),
        "ms",
        op_ms.len(),
    );

    push(
        "obs.trace_overhead_frac",
        ratio(t.pass.mean_round_s(), t.untraced.mean_round_s()) - 1.0,
        "frac",
        rounds,
    );
    push(
        "unattributed_frac",
        1.0 - attributed_ns as f64 / wall_ns,
        "frac",
        rounds,
    );

    push(
        "alloc.peak_mb.pretrain",
        t.peak_mib(&["core.pretrain"]),
        "MiB",
        t.count("core.pretrain"),
    );
    push(
        "alloc.peak_mb.transform",
        t.peak_mib(&["core.transform", "explore.session_open"]),
        "MiB",
        t.count("core.transform") + t.count("explore.session_open"),
    );
    let pairdist = [
        "analyzers.kmeans",
        "analyzers.index_build",
        "analyzers.index_query",
    ];
    push(
        "alloc.peak_mb.pairdist",
        t.peak_mib(&pairdist),
        "MiB",
        t.durations(&pairdist).count(),
    );
    push(
        "alloc.peak_mb.tsne",
        t.peak_mib(&["explore.tsne"]),
        "MiB",
        t.count("explore.tsne"),
    );
    out
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric by name.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let mut v = String::new();
            tcsl_obs::json::write_f64(&mut v, m.value);
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}
