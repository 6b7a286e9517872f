//! End-to-end TimeCSL benchmark.
//!
//! ```text
//! tcsl-e2e-bench --workload <pretrain|serve_short|serve_long|explore>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run sets the workload up `SETUP_REPS` times from its seed (data
//! generated, CSV and model files written, the served model trained and
//! loaded), runs one warm-up round, then runs closed-loop rounds from a
//! single client for `--seconds`, checking every answer. With `--trace 0`
//! it prints the end-to-end metrics; with `--trace 1` it alternates
//! untraced and traced rounds for `--seconds` and prints the per-layer
//! metrics, writing the traced spans under `.bench_out/`. The last line of
//! standard output is the result as one JSON object. A run whose answers
//! fail a check prints them, reports `correct: false` and exits with 1.

mod explore;
mod pretrain;
mod probe;
mod report;
mod serve;
mod stats;
mod trace;
mod workload;

use probe::Probe;
use report::{Metric, Pass, Traced};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tcsl_obs::alloc_track::{self, CountingAlloc};
use trace::{Counters, Hists, Tracer};
use workload::{Round, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Failure lines printed in full; the rest are only counted.
const MAX_PRINTED_FAILURES: usize = 20;
const WORKLOADS: [&str; 4] = ["pretrain", "serve_short", "serve_long", "explore"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("expected one of {WORKLOADS:?}"))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected a duration in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Sets the workload up once in an empty `dir`.
fn setup(workload: &str, dir: &Path, seed: u64) -> tcsl_error::TcslResult<Box<dyn Workload>> {
    Ok(match workload {
        "pretrain" => Box::new(pretrain::Pretrain::setup(dir, seed)?),
        "serve_short" => Box::new(serve::Serve::setup(dir, seed, &serve::SHORT)?),
        "serve_long" => Box::new(serve::Serve::setup(dir, seed, &serve::LONG)?),
        _ => Box::new(explore::Explore::setup(dir, seed)?),
    })
}

/// FNV-1a over the names and bytes of every file in `dir`, in name order:
/// two set-ups from one seed must write identical inputs.
fn fingerprint(dir: &Path) -> std::io::Result<u64> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    paths.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in paths {
        let name = p
            .file_name()
            .map(|n| n.as_encoded_bytes().to_vec())
            .unwrap_or_default();
        for b in name.into_iter().chain(std::fs::read(&p)?) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    Ok(h)
}

/// Tallies of every checked step: set-up determinism, each pass's start
/// and every round, warm-up included.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add(&mut self, round: &Round) {
        self.attempted += 1;
        if !round.failures.is_empty() {
            self.failed += 1;
            self.failures.extend(round.failures.iter().cloned());
        }
    }
}

/// Runs closed-loop rounds for `seconds`, with host-speed probes between
/// them.
///
/// The heap peak is the live heap after the pass's start plus the highest
/// rise within one round, so the probe's buffers and the samples this loop
/// keeps between rounds do not count towards it.
fn run_pass(w: &mut dyn Workload, tr: &mut Tracer, seconds: f64, tally: &mut Tally) -> Pass {
    let budget = Duration::from_secs_f64(seconds);
    let mut pass = Pass::default();
    let start = Instant::now();
    alloc_track::reset_counters();
    tally.add(&w.start(tr));
    let start_peak = alloc_track::peak_bytes();
    let base = alloc_track::live_bytes();
    let mut rise = 0;
    let mut probe = Probe::new();
    while start.elapsed() < budget {
        probe.keep_up(start.elapsed().as_secs_f64());
        tr.next_round();
        let live = alloc_track::live_bytes();
        alloc_track::reset_counters();
        let t = Instant::now();
        let round = w.round(tr);
        let round_s = t.elapsed().as_secs_f64();
        rise = rise.max(alloc_track::peak_bytes().saturating_sub(live));
        tally.add(&round);
        pass.push_round(round_s, round.series, &round.op_ns);
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.peak_bytes = start_peak.max(base + rise);
    pass.set_probe(&probe);
    pass
}

/// Alternates untraced and traced rounds for `seconds`, so drift in host
/// speed falls on both alike. Program counters and histograms only count
/// while tracing is enabled, i.e. during the traced rounds. Returns the
/// untraced and the traced rounds as two passes; a pass's wall time is the
/// sum of its rounds (plus, for the traced one, the start).
fn run_alternating(
    w: &mut dyn Workload,
    traced: &mut Tracer,
    seconds: f64,
    tally: &mut Tally,
) -> (Pass, Pass) {
    let budget = Duration::from_secs_f64(seconds);
    let (mut off, mut on) = (Pass::default(), Pass::default());
    let mut untraced = Tracer::new(false);
    let mut probe = Probe::new();
    let start = Instant::now();
    tcsl_obs::set_enabled(true);
    tally.add(&w.start(traced));
    on.wall_s = start.elapsed().as_secs_f64();
    while start.elapsed() < budget {
        probe.keep_up(start.elapsed().as_secs_f64());
        for (pass, tr, trace_on) in [
            (&mut off, &mut untraced, false),
            (&mut on, &mut *traced, true),
        ] {
            tcsl_obs::set_enabled(trace_on);
            tr.next_round();
            let t = Instant::now();
            let round = w.round(tr);
            let round_s = t.elapsed().as_secs_f64();
            tally.add(&round);
            pass.wall_s += round_s;
            pass.push_round(round_s, round.series, &round.op_ns);
            // The trainer emits per-epoch events while tracing is on.
            tcsl_obs::trace::take_events();
        }
    }
    tcsl_obs::set_enabled(false);
    off.set_probe(&probe);
    (off, on)
}

fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = tcsl_tensor::parallel::configured_threads(usize::MAX);
    #[cfg(target_arch = "x86_64")]
    let tiers = {
        use std::arch::is_x86_feature_detected as has;
        let fma = has!("avx2") && has!("fma");
        format!(
            "avx2_fma={} f16c={} avx512f={} avx512bw={}",
            fma,
            fma && has!("f16c"),
            has!("avx512f"),
            has!("avx512bw")
        )
    };
    #[cfg(not(target_arch = "x86_64"))]
    let tiers = "avx2_fma=false f16c=false avx512f=false avx512bw=false".to_string();
    format!("nproc={nproc} pool_threads={pool} {tiers}")
}

fn print_table(metrics: &[Metric]) {
    println!(
        "{:<34} {:>16} {:<12} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in metrics {
        println!(
            "{:<34} {:>16.6} {:<12} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn run(args: &Args, work: &Path) -> Result<bool, String> {
    tcsl_obs::set_enabled(false);
    tcsl_obs::trace::use_memory_sink();
    let host = host_line();
    println!("host: {host}");

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prints = Vec::with_capacity(SETUP_REPS);
    let mut w = None;
    for _ in 0..SETUP_REPS {
        drop(w.take());
        let _ = std::fs::remove_dir_all(work);
        std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
        let t = Instant::now();
        w = Some(setup(&args.workload, work, args.seed).map_err(|e| format!("set-up: {e}"))?);
        setup_s.push(t.elapsed().as_secs_f64());
        prints.push(fingerprint(work).map_err(|e| format!("fingerprint: {e}"))?);
    }
    let mut w = w.ok_or("no set-up ran")?;
    let mut tally = Tally::default();
    let mut same_inputs = Round::default();
    same_inputs.check(prints.iter().all(|&p| p == prints[0]), || {
        format!("set-ups from one seed wrote different files: {prints:x?}")
    });
    tally.add(&same_inputs);

    let mut untraced = Tracer::new(false);
    tally.add(&w.start(&mut untraced));
    tally.add(&w.round(&mut untraced));

    let metrics = if !args.trace {
        let pass = run_pass(w.as_mut(), &mut untraced, args.seconds, &mut tally);
        println!(
            "run: workload={} seed={} rounds={} ops={} wall_s={:.3} probes={} probe_p5_ms={:.4}",
            args.workload,
            args.seed,
            pass.rounds,
            pass.op_ns.len(),
            pass.wall_s,
            pass.probes,
            pass.probe_ms
        );
        report::end_to_end(&setup_s, &pass)
    } else {
        let mut tr = Tracer::new(true);
        let (c0, h0) = (Counters::read(), Hists::read());
        let (base, pass) = run_alternating(w.as_mut(), &mut tr, args.seconds, &mut tally);
        let (counters, hists) = (Counters::read().since(&c0), Hists::read().since(&h0));
        let metrics = report::per_layer(&Traced {
            spans: tr.spans(),
            pass: &pass,
            untraced: &base,
            counters,
            hists,
            facts: w.facts(),
        });
        println!(
            "run: workload={} seed={} untraced_rounds={} traced_rounds={} spans={} traced_wall_s={:.3}",
            args.workload,
            args.seed,
            base.rounds,
            pass.rounds,
            tr.spans().len(),
            pass.wall_s
        );
        print_spans_table(tr.spans(), pass.wall_s);
        let out = Path::new(".bench_out");
        let file = out.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"host\":\"{host}\",\"wall_ns\":{}}}",
            args.workload,
            args.seed,
            (pass.wall_s * 1e9) as u64
        );
        std::fs::create_dir_all(out)
            .and_then(|()| trace::write_spans(&file, &header, tr.spans()))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        println!("spans: {}", file.display());
        metrics
    };

    let facts = w.facts();
    println!(
        "checks: svm_accuracy={:.4} kmeans_nmi={:.4} recall_at_10={:.4} attempted={} failed={} failed_frac={:.4}",
        facts.accuracy,
        facts.nmi,
        facts.recall_at_10,
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    for f in tally.failures.iter().take(MAX_PRINTED_FAILURES) {
        println!("FAILED: {f}");
    }
    if tally.failures.len() > MAX_PRINTED_FAILURES {
        println!(
            "FAILED: ... {} more",
            tally.failures.len() - MAX_PRINTED_FAILURES
        );
    }
    print_table(&metrics);
    let correct = tally.failed == 0;
    println!(
        "{}",
        report::result_json(correct, tally.attempted, tally.failed, &metrics)
    );
    Ok(correct)
}

/// Count, busy, self time and wall share per span name.
fn print_spans_table(spans: &[trace::Span], wall_s: f64) {
    println!(
        "{:<28} {:>8} {:>12} {:>12} {:>7}",
        "span", "count", "busy_ms", "self_ms", "share"
    );
    for (name, b) in trace::by_name(spans) {
        println!(
            "{:<28} {:>8} {:>12.3} {:>12.3} {:>7.4}",
            name,
            b.count,
            b.busy_ns as f64 / 1e6,
            b.self_ns as f64 / 1e6,
            b.self_ns as f64 / 1e9 / wall_s
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: tcsl-e2e-bench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let work = Path::new(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Only succeeds once no other run is using the directory.
    let _ = std::fs::remove_dir(".bench_work");
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
