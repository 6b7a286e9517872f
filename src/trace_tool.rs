//! Analysis of `RUN_trace.json` summaries — the library behind the
//! `timecsl trace` subcommand.
//!
//! Three consumers of one parsed [`TraceSummary`]:
//!
//! * [`render_report`] — human-readable ASCII span tree with percentile
//!   columns (fed by the per-span histograms `TCSL_TRACE_HIST=1` adds to
//!   the summary), followed by the histogram and counter sections.
//! * [`render_collapsed`] — span paths in collapsed-stack format
//!   (`a;b;c <self_ns>`), directly consumable by `inferno` /
//!   `flamegraph.pl`. Weights are *self* nanoseconds: a path's total minus
//!   its direct children's totals, so the flamegraph's widths add up.
//! * [`diff`] / [`diff_bench`] — per-metric comparison of two summaries
//!   (or two `BENCH_*.json` reports) with a relative regression threshold,
//!   the primitive the CI perf gate is built on.
//!
//! **Error taxonomy.** Loading follows the PR 8 contract end to end: a
//! missing or unreadable file is `Io` (exit 3), bytes that do not parse as
//! JSON are `Parse` (exit 4), and JSON whose shape is not a
//! `tcsl-run-trace-v*` summary — wrong or missing `schema`, non-object
//! sections — is `ModelFormat` (exit 5). Hostile inputs (truncated,
//! bit-flipped) land in one of those classes; nothing in this module
//! panics on input.

use std::collections::BTreeMap;

use tcsl_error::{TcslError, TcslResult};
use tcsl_obs::json::{self, JsonValue};

/// Derived view of one histogram entry in a summary.
#[derive(Clone, Copy, Debug, Default)]
pub struct HistView {
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Mean recorded value.
    pub mean: f64,
    /// Interpolated median.
    pub p50: f64,
    /// Interpolated 90th percentile.
    pub p90: f64,
    /// Interpolated 99th percentile.
    pub p99: f64,
    /// Interpolated 99.9th percentile.
    pub p999: f64,
}

/// One span aggregate from a summary, with its duration histogram when the
/// run had `TCSL_TRACE_HIST=1`.
#[derive(Clone, Debug)]
pub struct SpanView {
    /// Completed spans at this path.
    pub count: u64,
    /// Total nanoseconds across those spans.
    pub total_ns: u64,
    /// Shortest single span.
    pub min_ns: u64,
    /// Longest single span.
    pub max_ns: u64,
    /// Duration distribution (percentile columns), when recorded.
    pub hist: Option<HistView>,
}

/// A parsed `RUN_trace.json` summary (v1 summaries load with empty
/// histogram sections).
#[derive(Clone, Debug)]
pub struct TraceSummary {
    /// The schema tag (`tcsl-run-trace-v1` or `-v2`).
    pub schema: String,
    /// Run label (e.g. `timecsl pretrain`).
    pub run: String,
    /// Deterministic counters.
    pub counters: BTreeMap<String, u64>,
    /// Schedule-class counters (`pool.*`).
    pub sched_counters: BTreeMap<String, u64>,
    /// Gauges.
    pub gauges: BTreeMap<String, u64>,
    /// Deterministic histograms (input-determined values).
    pub histograms: BTreeMap<String, HistView>,
    /// Host-class histograms (latencies, allocation sizes).
    pub host_histograms: BTreeMap<String, HistView>,
    /// Span aggregates by slash-joined path.
    pub spans: BTreeMap<String, SpanView>,
}

/// The schema tags this tool understands.
const SCHEMAS: [&str; 2] = ["tcsl-run-trace-v1", "tcsl-run-trace-v2"];

fn bad_shape(path: &str, what: &str) -> TcslError {
    TcslError::model_format("tcsl-run-trace summary", format!("{path}: {what}"))
}

fn u64_field(v: &JsonValue, key: &str) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

fn f64_field(v: &JsonValue, key: &str) -> f64 {
    v.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

fn hist_view(v: &JsonValue) -> HistView {
    HistView {
        count: u64_field(v, "count"),
        sum: u64_field(v, "sum"),
        mean: f64_field(v, "mean"),
        p50: f64_field(v, "p50"),
        p90: f64_field(v, "p90"),
        p99: f64_field(v, "p99"),
        p999: f64_field(v, "p999"),
    }
}

/// Reads a `(name → u64)` section; a present-but-non-object section is a
/// `ModelFormat` error, an absent one an empty map (v1 compatibility for
/// the histogram sections).
fn u64_section(
    doc: &JsonValue,
    path: &str,
    key: &str,
    required: bool,
) -> TcslResult<BTreeMap<String, u64>> {
    match doc.get(key) {
        None if !required => Ok(BTreeMap::new()),
        None => Err(bad_shape(path, &format!("missing \"{key}\" section"))),
        Some(section) => {
            let fields = section
                .as_obj()
                .ok_or_else(|| bad_shape(path, &format!("\"{key}\" is not an object")))?;
            Ok(fields
                .iter()
                .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
                .collect())
        }
    }
}

fn hist_section(doc: &JsonValue, path: &str, key: &str) -> TcslResult<BTreeMap<String, HistView>> {
    match doc.get(key) {
        // v1 summaries have no histogram sections.
        None => Ok(BTreeMap::new()),
        Some(section) => {
            let fields = section
                .as_obj()
                .ok_or_else(|| bad_shape(path, &format!("\"{key}\" is not an object")))?;
            Ok(fields
                .iter()
                .map(|(k, v)| (k.clone(), hist_view(v)))
                .collect())
        }
    }
}

/// Loads and validates one summary file. `Io` when unreadable, `Parse`
/// when not JSON, `ModelFormat` when the JSON is not a trace summary.
pub fn load_summary(path: &str) -> TcslResult<TraceSummary> {
    let body = tcsl_error::read_to_string(path)?;
    let doc = json::parse(&body)
        .map_err(|e| TcslError::parse(path.to_string(), e.line, e.msg.clone()))?;
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| bad_shape(path, "missing \"schema\" field"))?;
    if !SCHEMAS.contains(&schema) {
        return Err(TcslError::model_format(
            format!("schema {} or {}", SCHEMAS[0], SCHEMAS[1]),
            format!("{path}: schema \"{schema}\""),
        ));
    }
    let run = doc
        .get("run")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| bad_shape(path, "missing \"run\" field"))?
        .to_string();
    let spans_section = doc
        .get("spans")
        .ok_or_else(|| bad_shape(path, "missing \"spans\" section"))?;
    let spans = spans_section
        .as_obj()
        .ok_or_else(|| bad_shape(path, "\"spans\" is not an object"))?
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                SpanView {
                    count: u64_field(v, "count"),
                    total_ns: u64_field(v, "total_ns"),
                    min_ns: u64_field(v, "min_ns"),
                    max_ns: u64_field(v, "max_ns"),
                    hist: v.get("hist").map(hist_view),
                },
            )
        })
        .collect();
    Ok(TraceSummary {
        schema: schema.to_string(),
        run,
        counters: u64_section(&doc, path, "counters", true)?,
        sched_counters: u64_section(&doc, path, "sched_counters", true)?,
        gauges: u64_section(&doc, path, "gauges", false)?,
        histograms: hist_section(&doc, path, "histograms")?,
        host_histograms: hist_section(&doc, path, "host_histograms")?,
        spans,
    })
}

/// Nanoseconds rendered at a human scale (`999ns`, `12.3µs`, `4.56ms`,
/// `7.89s`).
pub fn fmt_ns(ns: f64) -> String {
    if !ns.is_finite() {
        return "-".to_string();
    }
    let (value, unit) = if ns >= 1e9 {
        (ns / 1e9, "s")
    } else if ns >= 1e6 {
        (ns / 1e6, "ms")
    } else if ns >= 1e3 {
        (ns / 1e3, "µs")
    } else {
        (ns, "ns")
    };
    if value >= 100.0 {
        format!("{value:.0}{unit}")
    } else if value >= 10.0 {
        format!("{value:.1}{unit}")
    } else {
        format!("{value:.2}{unit}")
    }
}

/// Direct children of `path` among all span paths (paths one segment
/// deeper, with `path` as their prefix).
fn children<'a>(spans: &'a BTreeMap<String, SpanView>, path: &str) -> Vec<&'a str> {
    let depth = path.matches('/').count() + 1;
    spans
        .keys()
        .filter(|p| {
            p.len() > path.len() + 1
                && p.starts_with(path)
                && p.as_bytes()[path.len()] == b'/'
                && p.matches('/').count() == depth
        })
        .map(String::as_str)
        .collect()
}

fn roots(spans: &BTreeMap<String, SpanView>) -> Vec<&str> {
    spans
        .keys()
        .filter(|p| !p.contains('/'))
        .map(String::as_str)
        .collect()
}

/// The ASCII span-tree report: one row per span path in tree order, with
/// count, total/mean/min/max and — when the run recorded per-span
/// histograms — p50/p90/p99 columns; then the deterministic and host
/// histogram sections and the counter listing.
pub fn render_report(s: &TraceSummary) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "run: {}  ({})", s.run, s.schema);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<38} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "span", "count", "total", "mean", "min", "max", "p50", "p90", "p99"
    );
    fn walk(out: &mut String, s: &TraceSummary, path: &str, prefix: &str, last: bool, root: bool) {
        use std::fmt::Write as _;
        let v = &s.spans[path];
        let name = path.rsplit('/').next().unwrap_or(path);
        let label = if root {
            name.to_string()
        } else {
            format!("{prefix}{}{name}", if last { "└─ " } else { "├─ " })
        };
        let mean = if v.count == 0 {
            0.0
        } else {
            v.total_ns as f64 / v.count as f64
        };
        let (p50, p90, p99) = match &v.hist {
            Some(h) => (fmt_ns(h.p50), fmt_ns(h.p90), fmt_ns(h.p99)),
            None => ("-".to_string(), "-".to_string(), "-".to_string()),
        };
        let _ = writeln!(
            out,
            "{label:<38} {:>8} {:>9} {:>9} {:>9} {:>9} {p50:>9} {p90:>9} {p99:>9}",
            v.count,
            fmt_ns(v.total_ns as f64),
            fmt_ns(mean),
            fmt_ns(v.min_ns as f64),
            fmt_ns(v.max_ns as f64),
        );
        let kids = children(&s.spans, path);
        let child_prefix = if root {
            String::new()
        } else {
            format!("{prefix}{}", if last { "   " } else { "│  " })
        };
        for (i, kid) in kids.iter().enumerate() {
            walk(out, s, kid, &child_prefix, i + 1 == kids.len(), false);
        }
    }
    for root in roots(&s.spans) {
        walk(&mut out, s, root, "", true, true);
    }
    for (title, section, ns_scale) in [
        ("histograms (deterministic)", &s.histograms, false),
        ("host histograms", &s.host_histograms, true),
    ] {
        let live: Vec<(&String, &HistView)> = section.iter().filter(|(_, h)| h.count > 0).collect();
        if live.is_empty() {
            continue;
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "{title:<38} {:>8} {:>9} {:>9} {:>9} {:>9}",
            "count", "mean", "p50", "p90", "p99"
        );
        for (name, h) in live {
            // ns-valued names render at human scale; pure-count
            // distributions (pairs, candidates, bytes) stay numeric.
            let f = |x: f64| {
                if ns_scale && name.ends_with("_ns") {
                    fmt_ns(x)
                } else {
                    format!("{x:.1}")
                }
            };
            let _ = writeln!(
                out,
                "{name:<38} {:>8} {:>9} {:>9} {:>9} {:>9}",
                h.count,
                f(h.mean),
                f(h.p50),
                f(h.p90),
                f(h.p99)
            );
        }
    }
    let counter_rows: Vec<(&str, &BTreeMap<String, u64>)> = vec![
        ("counters", &s.counters),
        ("sched_counters", &s.sched_counters),
        ("gauges", &s.gauges),
    ];
    for (title, map) in counter_rows {
        let live: Vec<(&String, &u64)> = map.iter().filter(|(_, &v)| v > 0).collect();
        if live.is_empty() {
            continue;
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "{title}");
        for (name, v) in live {
            let _ = writeln!(out, "  {name:<36} {v:>12}");
        }
    }
    out
}

/// Span paths in collapsed-stack format: one `seg;seg;seg weight` line per
/// path, weight = *self* nanoseconds (total minus direct children's
/// totals, clamped at zero so clock skew between levels never goes
/// negative). Pipe into `inferno-flamegraph` / `flamegraph.pl`.
pub fn render_collapsed(s: &TraceSummary) -> String {
    let mut out = String::new();
    for (path, v) in &s.spans {
        let child_total: u64 = children(&s.spans, path)
            .iter()
            .map(|c| s.spans[*c].total_ns)
            .sum();
        let self_ns = v.total_ns.saturating_sub(child_total);
        if self_ns > 0 {
            out.push_str(&path.replace('/', ";"));
            out.push(' ');
            out.push_str(&self_ns.to_string());
            out.push('\n');
        }
    }
    out
}

/// Options for [`diff`] / [`diff_bench`].
#[derive(Clone, Debug)]
pub struct DiffConfig {
    /// Maximum tolerated relative increase, in percent (e.g. `20.0`).
    pub threshold_pct: f64,
    /// Metric-name prefixes excluded from breach detection (still listed).
    pub ignore: Vec<String>,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            threshold_pct: 20.0,
            ignore: Vec::new(),
        }
    }
}

/// Outcome of a comparison: the rendered per-metric lines and the subset
/// that breached the threshold (empty = gate passes).
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// One rendered line per compared metric with a delta.
    pub lines: Vec<String>,
    /// Metrics whose increase exceeded the threshold.
    pub breaches: Vec<String>,
}

/// Flattens a summary into named scalar metrics. Higher is worse for every
/// one of them (counts of work done, latency percentiles) — "less work
/// than baseline" is never flagged.
fn metrics(s: &TraceSummary) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    for (k, &v) in &s.counters {
        m.insert(format!("counter.{k}"), v as f64);
    }
    for (k, &v) in &s.sched_counters {
        m.insert(format!("sched.{k}"), v as f64);
    }
    for (k, h) in &s.histograms {
        m.insert(format!("hist.{k}.count"), h.count as f64);
        m.insert(format!("hist.{k}.p50"), h.p50);
        m.insert(format!("hist.{k}.p99"), h.p99);
    }
    for (k, h) in &s.host_histograms {
        m.insert(format!("host.{k}.p50"), h.p50);
        m.insert(format!("host.{k}.p99"), h.p99);
    }
    for (k, v) in &s.spans {
        m.insert(format!("span.{k}.count"), v.count as f64);
        m.insert(format!("span.{k}.total_ns"), v.total_ns as f64);
    }
    m
}

fn compare(
    current: &BTreeMap<String, f64>,
    baseline: &BTreeMap<String, f64>,
    cfg: &DiffConfig,
) -> DiffReport {
    let mut report = DiffReport::default();
    let ignored = |name: &str| cfg.ignore.iter().any(|p| name.starts_with(p.as_str()));
    for (name, &base) in baseline {
        let Some(&cur) = current.get(name) else {
            report
                .lines
                .push(format!("{name:<44} gone (baseline {base})"));
            continue;
        };
        if base == 0.0 {
            if cur != 0.0 {
                report.lines.push(format!("{name:<44} new: {cur}"));
            }
            continue;
        }
        let rel = (cur - base) / base * 100.0;
        if rel == 0.0 {
            continue;
        }
        let flag = rel > cfg.threshold_pct && !ignored(name);
        report.lines.push(format!(
            "{name:<44} {base} -> {cur}  ({rel:+.1}%){}",
            if flag {
                "  REGRESSION"
            } else if ignored(name) && rel > cfg.threshold_pct {
                "  (ignored)"
            } else {
                ""
            }
        ));
        if flag {
            report.breaches.push(name.clone());
        }
    }
    for (name, &cur) in current {
        if !baseline.contains_key(name) && cur != 0.0 {
            report.lines.push(format!("{name:<44} new: {cur}"));
        }
    }
    report
}

/// Compares two trace summaries metric by metric. A metric *regresses*
/// when its relative increase over baseline exceeds the threshold; new or
/// vanished metrics are reported but never breach (instrumentation grows
/// across PRs). Zero-valued and unchanged metrics stay silent.
pub fn diff(current: &TraceSummary, baseline: &TraceSummary, cfg: &DiffConfig) -> DiffReport {
    compare(&metrics(current), &metrics(baseline), cfg)
}

/// Loads one `BENCH_*.json` report as flat named metrics: top-level
/// numeric fields under their own names, booleans as `0`/`1` (so a
/// contract flag flipping to `false` shows up as a change), nested
/// objects flattened with a `.` separator. Same error taxonomy as
/// [`load_summary`], minus the schema check (bench schemas vary by bin —
/// their own `schema_version` field is validated by `tcsl_bench`).
pub fn load_bench_metrics(path: &str) -> TcslResult<BTreeMap<String, f64>> {
    let body = tcsl_error::read_to_string(path)?;
    let doc = json::parse(&body)
        .map_err(|e| TcslError::parse(path.to_string(), e.line, e.msg.clone()))?;
    let fields = doc
        .as_obj()
        .ok_or_else(|| bad_shape(path, "not a JSON object"))?;
    let mut out = BTreeMap::new();
    fn insert(out: &mut BTreeMap<String, f64>, name: String, v: &JsonValue) {
        match v {
            JsonValue::Num(n) => {
                out.insert(name, *n);
            }
            JsonValue::Bool(b) => {
                out.insert(name, f64::from(u8::from(*b)));
            }
            JsonValue::Obj(inner) => flatten(out, &name, inner),
            JsonValue::Arr(items) => {
                // Case arrays flatten by position — bench case lists are
                // ordered by construction, so index i is the same case on
                // both sides of a diff.
                for (i, item) in items.iter().enumerate() {
                    insert(out, format!("{name}.{i}"), item);
                }
            }
            _ => {}
        }
    }
    fn flatten(out: &mut BTreeMap<String, f64>, prefix: &str, fields: &[(String, JsonValue)]) {
        for (k, v) in fields {
            let name = if prefix.is_empty() {
                k.clone()
            } else {
                format!("{prefix}.{k}")
            };
            insert(out, name, v);
        }
    }
    flatten(&mut out, "", fields);
    Ok(out)
}

/// [`diff`] for `BENCH_*.json` reports: compares the flattened numeric
/// fields of two bench files, re-mapped so "higher is worse" holds for
/// every compared name:
///
/// * raw timings (`secs`, `*_secs`, `*_ms`, `*_us`, `*_ns`) keep their
///   value under a `wall.` prefix — one `--ignore wall.` excludes all
///   host-speed variance from breach detection when comparing across
///   machines;
/// * throughputs (`*per_sec*`) invert to `wall.inv.<name>` so *lower*
///   throughput is the increase;
/// * higher-is-better ratios (`*speedup*`, `*recall*`, `*nmi*`) invert to
///   `inv.<name>` — a drop breaches, an improvement never does — and stay
///   gated even under `--ignore wall.`;
/// * boolean contract fields breach on any true→false flip, whatever the
///   threshold.
pub fn diff_bench(
    current: &BTreeMap<String, f64>,
    baseline: &BTreeMap<String, f64>,
    cfg: &DiffConfig,
) -> DiffReport {
    fn is_timing(name: &str) -> bool {
        let last = name.rsplit('.').next().unwrap_or(name);
        last == "secs"
            || last.ends_with("_secs")
            || last.ends_with("_ms")
            || last.ends_with("_us")
            || last.ends_with("_ns")
    }
    fn is_quality_ratio(name: &str) -> bool {
        name.contains("speedup") || name.contains("recall") || name.contains("nmi")
    }
    let remap = |m: &BTreeMap<String, f64>| -> BTreeMap<String, f64> {
        m.iter()
            .map(|(k, &v)| {
                if k.contains("per_sec") && v > 0.0 {
                    (format!("wall.inv.{k}"), 1.0 / v)
                } else if is_timing(k) {
                    (format!("wall.{k}"), v)
                } else if is_quality_ratio(k) && v > 0.0 {
                    (format!("inv.{k}"), 1.0 / v)
                } else {
                    (k.clone(), v)
                }
            })
            .collect()
    };
    let mut report = compare(&remap(current), &remap(baseline), cfg);
    // Contract booleans (0/1 fields present on both sides) must not flip
    // from true to false — that is a broken contract, not a perf delta.
    for (name, &base) in baseline {
        if base == 1.0 && current.get(name) == Some(&0.0) {
            report.lines.push(format!(
                "{name:<44} contract flag flipped to false  REGRESSION"
            ));
            report.breaches.push(name.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsl_error::TempDir;

    /// A v2 summary exercising every section, written through the real
    /// writer path (obs is a test dependency of the facade via the
    /// workspace) would race other tests on the global registries, so this
    /// fixture is a literal.
    const FIXTURE: &str = r#"{"schema":"tcsl-run-trace-v2","run":"timecsl pretrain",
        "counters":{"trainer.pairs":128,"pairdist.tiles":0},
        "sched_counters":{"pool.dispatch":4},
        "gauges":{"parallel.threads":4},
        "histograms":{"trainer.batch_pairs":{"count":16,"sum":128,"mean":8,"p50":8,"p90":8.5,"p99":9,"p999":9,"buckets":{"4":16}}},
        "host_histograms":{"trainer.batch_ns":{"count":16,"sum":32000,"mean":2000,"p50":1800,"p90":2600,"p99":3100,"p999":3150,"buckets":{"11":16}}},
        "spans":{"pretrain":{"count":1,"total_ns":5000,"min_ns":5000,"max_ns":5000},
                 "pretrain/epoch":{"count":2,"total_ns":4000,"min_ns":1500,"max_ns":2500,
                     "hist":{"count":2,"sum":4000,"mean":2000,"p50":1700,"p90":2400,"p99":2480,"p999":2498,"buckets":{"11":2}}},
                 "pretrain/epoch/batch":{"count":16,"total_ns":3200,"min_ns":100,"max_ns":400}}}"#;

    fn fixture() -> TraceSummary {
        let dir = TempDir::new("trace_tool_fixture").unwrap();
        let path = dir.join("fixture_summary.json");
        std::fs::write(&path, FIXTURE).unwrap();
        load_summary(path.to_str().unwrap()).unwrap()
    }

    #[test]
    fn loads_every_section() {
        let s = fixture();
        assert_eq!(s.schema, "tcsl-run-trace-v2");
        assert_eq!(s.run, "timecsl pretrain");
        assert_eq!(s.counters["trainer.pairs"], 128);
        assert_eq!(s.sched_counters["pool.dispatch"], 4);
        assert_eq!(s.histograms["trainer.batch_pairs"].count, 16);
        assert_eq!(s.host_histograms["trainer.batch_ns"].p99, 3100.0);
        assert_eq!(s.spans.len(), 3);
        assert!(s.spans["pretrain/epoch"].hist.is_some());
        assert!(s.spans["pretrain"].hist.is_none());
    }

    #[test]
    fn report_renders_tree_and_percentiles() {
        let s = fixture();
        let r = render_report(&s);
        assert!(r.contains("run: timecsl pretrain"));
        assert!(r.contains("pretrain"));
        assert!(r.contains("└─ epoch"), "tree glyphs:\n{r}");
        assert!(r.contains("└─ batch"));
        // The epoch row carries interpolated percentiles, batch shows "-".
        assert!(r.contains("1.70µs"), "p50 column:\n{r}");
        assert!(r.contains("trainer.batch_pairs"));
        assert!(r.contains("trainer.pairs"));
    }

    #[test]
    fn collapsed_weights_are_self_time_and_sum_to_root_total() {
        let s = fixture();
        let c = render_collapsed(&s);
        let mut weights = BTreeMap::new();
        for line in c.lines() {
            let (stack, w) = line.rsplit_once(' ').unwrap();
            weights.insert(stack.to_string(), w.parse::<u64>().unwrap());
        }
        assert_eq!(weights["pretrain"], 1000); // 5000 − 4000
        assert_eq!(weights["pretrain;epoch"], 800); // 4000 − 3200
        assert_eq!(weights["pretrain;epoch;batch"], 3200);
        assert_eq!(weights.values().sum::<u64>(), 5000, "widths add up");
    }

    #[test]
    fn diff_flags_breaches_over_threshold_only() {
        let base = fixture();
        let mut cur = base.clone();
        cur.counters.insert("trainer.pairs".into(), 200); // +56%
        cur.sched_counters.insert("pool.dispatch".into(), 5); // +25%
        let cfg = DiffConfig {
            threshold_pct: 30.0,
            ignore: vec!["sched.".into()],
        };
        let r = diff(&cur, &base, &cfg);
        assert_eq!(r.breaches, vec!["counter.trainer.pairs".to_string()]);
        assert!(r.lines.iter().any(|l| l.contains("REGRESSION")));
        // Identical summaries: clean gate.
        let clean = diff(&base, &base, &cfg);
        assert!(clean.breaches.is_empty());
        assert!(clean.lines.is_empty());
    }

    #[test]
    fn diff_never_breaches_on_new_or_vanished_metrics() {
        let base = fixture();
        let mut cur = base.clone();
        cur.counters.insert("brand.new".into(), 7);
        cur.counters.remove("trainer.pairs");
        let r = diff(&cur, &base, &DiffConfig::default());
        assert!(r.breaches.is_empty());
        assert!(r.lines.iter().any(|l| l.contains("new: 7")));
        assert!(r.lines.iter().any(|l| l.contains("gone")));
    }

    #[test]
    fn bench_diff_inverts_throughput_and_pins_contract_flags() {
        let mut base = BTreeMap::new();
        base.insert("series_per_sec".to_string(), 100.0);
        base.insert("fused_within_budget".to_string(), 1.0);
        base.insert("secs".to_string(), 2.0);
        base.insert("cases.0.speedup".to_string(), 4.0);
        let mut cur = base.clone();
        cur.insert("series_per_sec".to_string(), 50.0); // throughput halved
        cur.insert("fused_within_budget".to_string(), 0.0); // contract broken
        cur.insert("cases.0.speedup".to_string(), 2.0); // speedup halved
        let r = diff_bench(&cur, &base, &DiffConfig::default());
        assert!(
            r.breaches.iter().any(|b| b.contains("series_per_sec")),
            "halved throughput must breach: {:?}",
            r.breaches
        );
        assert!(r.breaches.iter().any(|b| b == "fused_within_budget"));
        assert!(
            r.breaches.iter().any(|b| b == "inv.cases.0.speedup"),
            "halved speedup must breach: {:?}",
            r.breaches
        );
        // Unchanged secs: silent.
        assert!(!r.breaches.iter().any(|b| b.contains("secs")));

        // Raw timings carry the wall. prefix, so one ignore band excludes
        // host-speed variance while the quality ratios stay gated.
        let mut slow = base.clone();
        slow.insert("secs".to_string(), 9.0); // 4.5x slower wall clock
        let cfg = DiffConfig {
            ignore: vec!["wall.".to_string()],
            ..DiffConfig::default()
        };
        let r = diff_bench(&slow, &base, &cfg);
        assert!(r.breaches.is_empty(), "{:?}", r.breaches);
        let r = diff_bench(&slow, &base, &DiffConfig::default());
        assert!(r.breaches.iter().any(|b| b == "wall.secs"));

        // A speedup *improvement* never breaches (inverted: a decrease).
        let mut faster = base.clone();
        faster.insert("cases.0.speedup".to_string(), 9.0);
        let r = diff_bench(&faster, &base, &DiffConfig::default());
        assert!(r.breaches.is_empty(), "{:?}", r.breaches);
    }

    #[test]
    fn load_errors_carry_pr8_classes() {
        use tcsl_error::ErrorClass;
        let dir = TempDir::new("trace_tool_load_errors").unwrap();
        let missing = dir.join("nope.json");
        let e = load_summary(missing.to_str().unwrap()).unwrap_err();
        assert_eq!(e.class(), ErrorClass::Io);
        let garbage = dir.join("garbage.json");
        std::fs::write(&garbage, "this is not json {").unwrap();
        let e = load_summary(garbage.to_str().unwrap()).unwrap_err();
        assert_eq!(e.class(), ErrorClass::Parse);
        let wrong = dir.join("wrong_schema.json");
        std::fs::write(
            &wrong,
            r#"{"schema":"something-else","run":"x","counters":{},"sched_counters":{},"spans":{}}"#,
        )
        .unwrap();
        let e = load_summary(wrong.to_str().unwrap()).unwrap_err();
        assert_eq!(e.class(), ErrorClass::ModelFormat);
        let truncated = dir.join("truncated.json");
        std::fs::write(&truncated, &FIXTURE[..FIXTURE.len() / 2]).unwrap();
        let e = load_summary(truncated.to_str().unwrap()).unwrap_err();
        assert_eq!(e.class(), ErrorClass::Parse);
    }

    #[test]
    fn v1_summaries_load_with_empty_histograms() {
        let dir = TempDir::new("trace_tool_v1").unwrap();
        let p = dir.join("v1.json");
        std::fs::write(
            &p,
            r#"{"schema":"tcsl-run-trace-v1","run":"old","counters":{"a":1},"sched_counters":{},"gauges":{},"spans":{"x":{"count":1,"total_ns":10,"min_ns":10,"max_ns":10}}}"#,
        )
        .unwrap();
        let s = load_summary(p.to_str().unwrap()).unwrap();
        assert!(s.histograms.is_empty() && s.host_histograms.is_empty());
        assert_eq!(s.spans["x"].count, 1);
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(999.0), "999ns");
        assert_eq!(fmt_ns(12_300.0), "12.3µs");
        assert_eq!(fmt_ns(4_560_000.0), "4.56ms");
        assert_eq!(fmt_ns(7_890_000_000.0), "7.89s");
        assert_eq!(fmt_ns(f64::NAN), "-");
    }
}
