//! Self-check: a short run of every workload prints exactly the metrics
//! `BENCHMARK.json` names — the end-to-end ones untraced, the per-layer
//! ones traced — each as a finite number with the declared unit, and its
//! answers verify.

use std::path::PathBuf;
use std::process::Command;
use tcsl_obs::json::{parse, JsonValue};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(spec: &JsonValue, section: &str) -> Vec<(String, String)> {
    spec.get(section)
        .and_then(JsonValue::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs one short workload and returns its result line, parsed.
fn run(workload: &str, trace: bool) -> JsonValue {
    let cwd =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("contract-{workload}-{trace}"));
    std::fs::create_dir_all(&cwd).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_tcsl-e2e-bench"))
        .current_dir(&cwd)
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.5"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    parse(last).expect("the result line is JSON")
}

fn check(workload: &str, trace: bool, want: &[(String, String)]) {
    let result = run(workload, trace);
    assert_eq!(
        result.get("correct"),
        Some(&JsonValue::Bool(true)),
        "{workload}"
    );
    let attempted = result
        .get("attempted")
        .and_then(JsonValue::as_u64)
        .expect("attempted");
    assert!(attempted >= 1, "{workload}: attempted {attempted}");
    assert_eq!(
        result.get("failed").and_then(JsonValue::as_u64),
        Some(0),
        "{workload}"
    );
    let metrics = result
        .get("metrics")
        .and_then(JsonValue::as_obj)
        .expect("metrics object");
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let names: Vec<&str> = want.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        printed, names,
        "{workload} trace={trace}: printed metrics differ from BENCHMARK.json"
    );
    for ((name, unit), (_, m)) in want.iter().zip(metrics) {
        let value = m.get("value").and_then(JsonValue::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} = {m:?}"
        );
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        if !trace {
            assert!(
                value.is_some_and(|v| v > 0.0),
                "{workload}: end-to-end {name} is not positive"
            );
        }
    }
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let spec = benchmark_json();
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(
        workloads,
        ["pretrain", "serve_short", "serve_long", "explore"]
    );
    for w in &workloads {
        check(w, false, &end_to_end);
        check(w, true, &per_layer);
    }
}
