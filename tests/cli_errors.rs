//! End-to-end CLI error contract: the `timecsl` binary exits with the
//! class-pinned code (README, "Exit codes"), prints one `error:` line on
//! stderr, and — with `TCSL_TRACE=1` — still writes a complete trace: the
//! `error` event in the JSONL stream and an `error.<class>` counter in
//! the `RUN_trace.json` summary.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use timecsl::data::io;
use timecsl::error::TempDir;
use timecsl::prelude::*;
use timecsl::shapelet::{Measure, ShapeletBank, ShapeletConfig};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_timecsl")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .env_remove("TCSL_TRACE")
        .output()
        .expect("spawn timecsl")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_fails_with(args: &[&str], code: i32, needle: &str) {
    let out = run(args);
    assert_eq!(
        out.status.code(),
        Some(code),
        "`timecsl {}`: expected exit {code}, got {:?}; stderr: {}",
        args.join(" "),
        out.status.code(),
        stderr(&out)
    );
    let err = stderr(&out);
    assert!(
        err.contains("error: ") && err.contains(needle),
        "`timecsl {}`: stderr missing {needle:?}: {err}",
        args.join(" ")
    );
}

/// A scratch dir with a small valid model and dataset the error cases can
/// build on.
fn fixtures(tag: &str) -> (TempDir, PathBuf, PathBuf) {
    let dir = TempDir::new(&format!("cli_errors_{tag}")).unwrap();
    let cfg = ShapeletConfig {
        lengths: vec![4, 8],
        k_per_group: 2,
        measures: vec![Measure::Euclidean],
        stride: 1,
    };
    let model = TimeCsl::from_bank(ShapeletBank::new(&cfg, 1));
    let model_path = dir.join("model.tcsl");
    model.save(&model_path).unwrap();
    let series: Vec<TimeSeries> = (0..6)
        .map(|i| {
            let v: Vec<f32> = (0..24).map(|t| ((t + i) as f32 * 0.4).sin()).collect();
            TimeSeries::multivariate(vec![v])
        })
        .collect();
    let ds = Dataset::labeled("d", series, vec![0, 1, 0, 1, 0, 1]);
    let data_path = dir.join("data.csv");
    io::save_csv(&ds, &data_path).unwrap();
    (dir, model_path, data_path)
}

fn p(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

#[test]
fn usage_errors_exit_2() {
    assert_fails_with(&[], 2, "usage");
    assert_fails_with(&["frobnicate"], 2, "usage");
    assert_fails_with(&["pretrain"], 2, "missing argument");
    // Satellite (a): non-numeric and zero epoch counts are usage errors
    // caught before any file is touched.
    assert_fails_with(
        &["pretrain", "train.csv", "model.tcsl", "twelve"],
        2,
        "epochs must be a number, got 'twelve'",
    );
    assert_fails_with(
        &["pretrain", "train.csv", "model.tcsl", "0"],
        2,
        "epochs must be at least 1",
    );
}

#[test]
fn io_errors_exit_3() {
    let (_dir, model, _data) = fixtures("io");
    assert_fails_with(
        &[
            "transform",
            &p(&model),
            "/nonexistent/data.csv",
            "/tmp/out.csv",
        ],
        3,
        "/nonexistent/data.csv",
    );
    assert_fails_with(&["info", "/nonexistent/data.csv"], 3, "data.csv");
}

#[test]
fn parse_errors_exit_4() {
    let (dir, model, _data) = fixtures("parse");
    // A CSV with a non-numeric value is a Parse error naming the line.
    let bad_csv = dir.join("bad.csv");
    std::fs::write(
        &bad_csv,
        "series,label,variable,t,value\n0,0,0,0,not_a_number\n",
    )
    .unwrap();
    assert_fails_with(&["info", &p(&bad_csv)], 4, "line 2");
    // A model with a non-numeric weight is Parse too.
    let text = std::fs::read_to_string(&model).unwrap();
    let corrupt: String = {
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let row = lines.iter().position(|l| l.starts_with("group ")).unwrap() + 1;
        lines[row] = format!("abc {}", lines[row]);
        format!("{}\n", lines.join("\n"))
    };
    let bad_model = dir.join("bad_weights.tcsl");
    std::fs::write(&bad_model, corrupt).unwrap();
    let out = run(&["info", &p(&bad_csv)]);
    assert_eq!(out.status.code(), Some(4));
    assert_fails_with(
        &["transform", &p(&bad_model), &p(&bad_csv), "/tmp/out.csv"],
        4,
        "bad weight",
    );
}

#[test]
fn model_format_errors_exit_5() {
    let (dir, _model, data) = fixtures("mf");
    let garbage = dir.join("garbage.tcsl");
    std::fs::write(&garbage, "this is not a model file\n").unwrap();
    assert_fails_with(
        &["transform", &p(&garbage), &p(&data), "/tmp/out.csv"],
        5,
        "tcsl-bank v1 header",
    );
    let bad_norm = dir.join("bad_norm.tcsl");
    std::fs::write(&bad_norm, "tcsl-model v2 normalization=sigma\n").unwrap();
    assert_fails_with(
        &["transform", &p(&bad_norm), &p(&data), "/tmp/out.csv"],
        5,
        "normalization",
    );
}

#[test]
fn shape_mismatch_errors_exit_6() {
    let (dir, model, _data) = fixtures("shape");
    // The model expects univariate series; feed a 2-variable CSV.
    let series = vec![TimeSeries::multivariate(vec![
        vec![0.5; 24],
        vec![0.25; 24],
    ])];
    let wide = Dataset::unlabeled("wide", series);
    let wide_csv = dir.join("wide.csv");
    io::save_csv(&wide, &wide_csv).unwrap();
    assert_fails_with(
        &["transform", &p(&model), &p(&wide_csv), "/tmp/out.csv"],
        6,
        "variables",
    );
}

#[test]
fn empty_input_errors_exit_7() {
    let (dir, model, _data) = fixtures("empty");
    let empty_csv = dir.join("empty.csv");
    std::fs::write(&empty_csv, "series,label,variable,t,value\n").unwrap();
    assert_fails_with(
        &["transform", &p(&model), &p(&empty_csv), "/tmp/out.csv"],
        7,
        "empty",
    );
}

#[test]
fn non_finite_input_errors_exit_8() {
    let (dir, model, _data) = fixtures("nan");
    let nan_csv = dir.join("nan.csv");
    let mut body = String::from("series,label,variable,t,value\n");
    for t in 0..24 {
        let v = if t == 3 {
            "NaN".into()
        } else {
            format!("{}", t as f32 * 0.1)
        };
        body.push_str(&format!("0,-1,0,{t},{v}\n"));
    }
    std::fs::write(&nan_csv, body).unwrap();
    assert_fails_with(
        &["transform", &p(&model), &p(&nan_csv), "/tmp/out.csv"],
        8,
        "non-finite",
    );
}

#[test]
fn cluster_and_match_argument_errors_exit_2() {
    let (_dir, model, data) = fixtures("args");
    assert_fails_with(
        &["cluster", &p(&model), &p(&data), "zero"],
        2,
        "k must be a number",
    );
    assert_fails_with(
        &["cluster", &p(&model), &p(&data), "0"],
        2,
        "k must be at least 1",
    );
    // Out-of-range series/feature indices surface as Config from the
    // explore session, not as panics.
    assert_fails_with(
        &["match", &p(&model), &p(&data), "999", "0", "/tmp/out.svg"],
        2,
        "out of range",
    );
}

#[test]
fn failed_runs_still_write_a_complete_trace() {
    let (dir, model, data) = fixtures("trace");
    let jsonl = dir.join("trace.jsonl");
    let summary = dir.join("trace.json");
    let out = Command::new(bin())
        .args(["cluster", &p(&model), &p(&data), "0"])
        .env("TCSL_TRACE", "1")
        .env("TCSL_TRACE_OUT", &jsonl)
        .output()
        .expect("spawn timecsl");
    assert_eq!(out.status.code(), Some(2));

    // The JSONL stream carries a structured error event with the class.
    let stream = std::fs::read_to_string(&jsonl).expect("trace jsonl written");
    let error_line = stream
        .lines()
        .find(|l| l.contains("\"event\":\"error\""))
        .expect("an error event in the trace stream");
    assert!(error_line.contains("\"class\":\"config\""), "{error_line}");
    assert!(error_line.contains("k must be at least 1"), "{error_line}");

    // The summary is valid (starts with the schema header, balanced
    // braces) and counts the failure under error.config.
    let body = std::fs::read_to_string(&summary).expect("run summary written");
    assert!(
        body.starts_with("{\"schema\":\"tcsl-run-trace-v2\""),
        "summary lost its schema header: {body}"
    );
    let opens = body.matches('{').count();
    let closes = body.matches('}').count();
    assert_eq!(opens, closes, "unbalanced summary JSON");
    assert!(
        body.contains("\"error.config\":1"),
        "summary missing the error.config counter: {body}"
    );
    assert!(
        body.contains("\"error.io\":0"),
        "well-known error counters should be present even at zero: {body}"
    );
}

#[test]
fn successful_runs_exit_zero() {
    let (dir, model, data) = fixtures("ok");
    let out_csv = dir.join("features.csv");
    let out = run(&["transform", &p(&model), &p(&data), &p(&out_csv)]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let written = std::fs::read_to_string(&out_csv).unwrap();
    assert!(written.lines().count() > 1, "no features written");
}

/// A real v2 run summary to feed `timecsl trace`: one traced transform
/// run, summarized next to its JSONL stream.
fn real_summary(tag: &str) -> (TempDir, PathBuf) {
    let (dir, model, data) = fixtures(tag);
    let jsonl = dir.join("trace.jsonl");
    let summary = dir.join("trace.json");
    let out = Command::new(bin())
        .args(["transform", &p(&model), &p(&data), &p(&dir.join("z.csv"))])
        .env("TCSL_TRACE", "1")
        .env("TCSL_TRACE_OUT", &jsonl)
        .output()
        .expect("spawn timecsl");
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    std::fs::read_to_string(&summary).expect("run summary written");
    (dir, summary)
}

#[test]
fn trace_subcommand_rejects_hostile_summaries_with_typed_errors() {
    let (dir, summary) = real_summary("trace_hostile");

    // Missing file is Io (3); an unknown flag is Config (2), caught
    // before any file is touched.
    assert_fails_with(
        &["trace", "/nonexistent/RUN_trace.json"],
        3,
        "RUN_trace.json",
    );
    assert_fails_with(&["trace", &p(&summary), "--frobnicate"], 2, "--frobnicate");

    // Non-JSON garbage is Parse (4) with a 1-based position.
    let garbage = dir.join("garbage.json");
    std::fs::write(&garbage, "this is not json {{{").unwrap();
    assert_fails_with(&["trace", &p(&garbage)], 4, "line 1");

    // Valid JSON that is not a run summary is ModelFormat (5).
    let wrong = dir.join("wrong_schema.json");
    std::fs::write(&wrong, "{\"schema\":\"not-a-trace\",\"run\":\"x\"}").unwrap();
    assert_fails_with(&["trace", &p(&wrong)], 5, "tcsl-run-trace");
    let arr = dir.join("array.json");
    std::fs::write(&arr, "[1,2,3]").unwrap();
    assert_fails_with(&["trace", &p(&arr)], 5, "schema");

    // The real summary truncated mid-stream, or with a structural byte
    // flipped, is Parse (4) — never a panic (101) or a success.
    let body = std::fs::read_to_string(&summary).unwrap();
    let truncated = dir.join("truncated.json");
    std::fs::write(&truncated, &body[..body.len() / 2]).unwrap();
    assert_fails_with(&["trace", &p(&truncated)], 4, "");
    let flipped = dir.join("flipped.json");
    std::fs::write(&flipped, body.replacen(':', ";", 1)).unwrap();
    assert_fails_with(&["trace", &p(&flipped)], 4, "");

    // --diff with a missing baseline is Io (3); against itself it is a
    // clean pass (0).
    assert_fails_with(
        &["trace", &p(&summary), "--diff", "/nonexistent/base.json"],
        3,
        "base.json",
    );
    let out = run(&["trace", &p(&summary), "--diff", &p(&summary)]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
}
