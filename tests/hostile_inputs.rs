//! Hostile-input integration suite (DESIGN.md, "Error taxonomy & panic
//! policy"): every request-path entry point, fed deliberately broken
//! input, must return a typed [`TcslError`] — never panic. Each case runs
//! under `catch_unwind` so a regression to `panic!`/`unwrap` fails the
//! suite with the offending case named, not an opaque test abort.

use std::panic::{catch_unwind, AssertUnwindSafe};
use timecsl::data::io;
use timecsl::error::TempDir;
use timecsl::prelude::*;
use timecsl::shapelet::{Measure, ShapeletBank, ShapeletConfig};
use timecsl::tensor::Tensor;

/// Runs one hostile case and returns its typed error; panicking is the
/// failure mode this suite exists to catch.
fn must_err<T: std::fmt::Debug>(what: &str, f: impl FnOnce() -> TcslResult<T>) -> TcslError {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => panic!("{what}: hostile input was accepted: {v:?}"),
        Ok(Err(e)) => e,
        Err(_) => panic!("{what}: panicked instead of returning a typed error"),
    }
}

/// Runs one case that may legitimately succeed or fail — only a panic is
/// a defect (used for fuzz-ish byte corruption where some mutations stay
/// well-formed).
fn must_not_panic<T>(what: &str, f: impl FnOnce() -> TcslResult<T>) {
    if catch_unwind(AssertUnwindSafe(f)).is_err() {
        panic!("{what}: panicked on hostile input");
    }
}

fn small_model() -> TimeCsl {
    let cfg = ShapeletConfig {
        lengths: vec![4, 8],
        k_per_group: 2,
        measures: vec![Measure::Euclidean],
        stride: 1,
    };
    TimeCsl::from_bank(ShapeletBank::new(&cfg, 2))
}

fn bivariate(values: [&[f32]; 2]) -> TimeSeries {
    TimeSeries::multivariate(vec![values[0].to_vec(), values[1].to_vec()])
}

fn good_series(t: usize) -> TimeSeries {
    let v: Vec<f32> = (0..t).map(|i| (i as f32 * 0.3).sin()).collect();
    TimeSeries::multivariate(vec![v.clone(), v])
}

// ------------------------------------------------------------- model files

#[test]
fn every_truncated_model_file_is_a_typed_error() {
    let text = small_model().to_text();
    let lines: Vec<&str> = text.lines().collect();
    for n in 0..lines.len() {
        let prefix = format!("{}\n", lines[..n].join("\n"));
        must_err(&format!("model prefix of {n} lines"), || {
            TimeCsl::from_text(&prefix)
        });
    }
}

#[test]
fn byte_corrupted_model_files_never_panic() {
    let text = small_model().to_text();
    // Stamp a hostile byte at positions spread across the whole file:
    // headers, group lines, weight rows. Some mutations still parse (a
    // digit inside a weight), so only a panic is a failure here.
    for step in [1usize, 7, 13] {
        for pos in (0..text.len()).step_by(step * 17 + 3) {
            if !text.is_char_boundary(pos) {
                continue;
            }
            let mut bad = String::with_capacity(text.len() + 1);
            bad.push_str(&text[..pos]);
            bad.push('#');
            bad.push_str(&text[pos + text[pos..].chars().next().map_or(1, char::len_utf8)..]);
            must_not_panic(&format!("model with '#' at byte {pos}"), || {
                TimeCsl::from_text(&bad)
            });
        }
    }
}

#[test]
fn missing_model_file_is_an_io_error() {
    let err = must_err("load of a nonexistent path", || {
        TimeCsl::load("/nonexistent/deeply/model.tcsl")
    });
    assert_eq!(err.class(), ErrorClass::Io);
    assert!(err.to_string().contains("model.tcsl"), "{err}");
}

// -------------------------------------------------------------- csv / ts

#[test]
fn hostile_csv_inputs_are_typed_errors() {
    let cases: &[(&str, &str)] = &[
        ("empty file", ""),
        ("wrong header", "time,value\n0,1.0\n"),
        (
            "ragged row",
            "series,label,variable,t,value\n0,0,0,0,1.0\n0,0,1,0\n",
        ),
        (
            "non-numeric value",
            "series,label,variable,t,value\n0,0,0,0,abc\n",
        ),
        (
            "non-numeric index",
            "series,label,variable,t,value\nx,0,0,0,1.0\n",
        ),
    ];
    for (what, text) in cases {
        let err = must_err(what, || io::from_csv("hostile", text));
        assert!(
            err.class() == ErrorClass::Parse || err.class() == ErrorClass::EmptyInput,
            "{what}: got {:?}: {err}",
            err.class()
        );
    }
}

#[test]
fn hostile_ts_files_are_typed_errors() {
    let dir = TempDir::new("hostile_ts").unwrap();
    for (what, text) in [
        ("garbage ts", "not a ts file at all"),
        ("header only ts", "@problemName x\n@data\n"),
    ] {
        let path = dir.join("hostile.ts");
        std::fs::write(&path, text).unwrap();
        must_err(what, || timecsl::data::io_ts::load_ts("hostile", &path));
    }
}

// ------------------------------------------------------------- transform

#[test]
fn transform_rejects_empty_nan_and_mismatched_datasets() {
    let model = small_model();

    let empty = Dataset::unlabeled("empty", Vec::new());
    let err = must_err("transform of empty dataset", || model.transform(&empty));
    assert_eq!(err.class(), ErrorClass::EmptyInput);

    let nan = Dataset::unlabeled(
        "nan",
        vec![bivariate(
            [&[1.0, f32::NAN, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]; 2],
        )],
    );
    let err = must_err("transform of NaN series", || model.transform(&nan));
    assert_eq!(err.class(), ErrorClass::NonFiniteInput);

    let inf = Dataset::unlabeled(
        "inf",
        vec![bivariate(
            [&[1.0, f32::INFINITY, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]; 2],
        )],
    );
    let err = must_err("transform of infinite series", || model.transform(&inf));
    assert_eq!(err.class(), ErrorClass::NonFiniteInput);

    // Model expects D=2 variables; feed a univariate series.
    let skinny = Dataset::unlabeled(
        "skinny",
        vec![TimeSeries::multivariate(vec![vec![0.5; 16]])],
    );
    let err = must_err("transform with wrong variable count", || {
        model.transform(&skinny)
    });
    assert_eq!(err.class(), ErrorClass::ShapeMismatch);

    // A series shorter than the longest shapelet is legal (the transform
    // clamps the window), but must never panic.
    let short = Dataset::unlabeled("short", vec![bivariate([&[1.0, 2.0]; 2])]);
    must_not_panic("transform of too-short series", || model.transform(&short));

    // And the single-series path.
    let err = must_err("transform_one of NaN series", || {
        model.transform_one(&bivariate([&[f32::NAN; 8]; 2]))
    });
    assert_eq!(err.class(), ErrorClass::NonFiniteInput);
}

#[test]
fn feature_subset_requests_are_validated() {
    let model = small_model();
    let dim = model.repr_dim();
    let err = must_err("with_selected_features out of range", || {
        model.with_selected_features(&[dim + 3])
    });
    assert_eq!(err.class(), ErrorClass::Config);
    let err = must_err("with_selected_features empty", || {
        model.with_selected_features(&[])
    });
    assert_eq!(err.class(), ErrorClass::EmptyInput);
    let err = must_err("with_scale unknown", || model.with_scale(9999));
    assert_eq!(err.class(), ErrorClass::Config);
    assert!(
        err.to_string().contains("available scales"),
        "scale error does not list alternatives: {err}"
    );
}

// ------------------------------------------------------------- analyzers

#[test]
fn analyzers_reject_hostile_features_without_panicking() {
    let x = Tensor::from_vec(vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [3, 2]);
    let y = vec![0usize, 1, 0];
    let nan = Tensor::from_vec(vec![0.1, f32::NAN, 0.3, 0.4], [2, 2]);
    let empty = Tensor::from_vec(Vec::new(), [0, 2]);
    let wide = Tensor::from_vec(vec![0.0; 9], [3, 3]);

    // Predict before fit.
    let mut svm = LinearSvm::new();
    let err = must_err("svm predict before fit", || svm.predict(&x));
    assert_eq!(err.class(), ErrorClass::Config);
    assert!(err.to_string().contains("before fit"), "{err}");

    // Empty and non-finite training sets.
    let err = must_err("svm fit on empty", || svm.fit(&empty, &[]));
    assert_eq!(err.class(), ErrorClass::EmptyInput);
    let err = must_err("svm fit on NaN", || svm.fit(&nan, &y[..2]));
    assert_eq!(err.class(), ErrorClass::NonFiniteInput);

    // Label/row count mismatch.
    let err = must_err("svm fit with short labels", || svm.fit(&x, &y[..2]));
    assert_eq!(err.class(), ErrorClass::ShapeMismatch);

    // Query width differs from the fitted width.
    svm.fit(&x, &y).unwrap();
    let err = must_err("svm predict on wrong width", || svm.predict(&wide));
    assert_eq!(err.class(), ErrorClass::ShapeMismatch);

    // Clustering and anomaly scoring share the same contract.
    let mut km = KMeans::new(2);
    let err = must_err("kmeans on empty", || km.fit_predict(&empty));
    assert_eq!(err.class(), ErrorClass::EmptyInput);

    let mut forest = KnnDistance::new(3);
    let err = must_err("knn-distance score before fit", || forest.score(&x));
    assert_eq!(err.class(), ErrorClass::Config);
    forest.fit(&x).unwrap();
    let err = must_err("knn-distance score on wrong width", || forest.score(&wide));
    assert_eq!(err.class(), ErrorClass::ShapeMismatch);
}

// ------------------------------------------------------------- explore

#[test]
fn explore_session_requests_are_validated_not_panics() {
    let model = small_model();
    let ds = Dataset::unlabeled("d", (0..5).map(|_| good_series(16)).collect());
    let session = ExploreSession::new(model, ds).unwrap();

    let err = must_err("render_series out of range", || session.render_series(99));
    assert_eq!(err.class(), ErrorClass::Config);
    let err = must_err("match_shapelet bad column", || {
        session.match_shapelet(0, 9999)
    });
    assert_eq!(err.class(), ErrorClass::Config);
    let err = must_err("tabular with bad columns", || {
        session.tabular(Some(&[12345]))
    });
    assert_eq!(err.class(), ErrorClass::Config);
}

#[test]
fn tsne_needs_four_series_as_a_typed_error() {
    let model = small_model();
    let tiny = Dataset::unlabeled("tiny", (0..3).map(|_| good_series(16)).collect());
    let session = ExploreSession::new(model, tiny).unwrap();
    let err = must_err("tsne on 3 series", || {
        session.tsne_embedding(None, &TsneConfig::default())
    });
    assert_eq!(err.class(), ErrorClass::Config);
    assert!(err.to_string().contains("at least 4"), "{err}");
}

// ------------------------------------------------------------ run traces

/// A real v2 run summary body (zero-valued instruments are fine — the
/// shape is what matters to the parser).
fn summary_fixture() -> String {
    timecsl::obs::trace::summary_json("hostile-fixture")
}

fn scratch(dir: &TempDir, name: &str, body: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    path.to_string_lossy().into_owned()
}

#[test]
fn every_truncated_trace_summary_is_a_typed_error() {
    let body = summary_fixture();
    let dir = TempDir::new("hostile_truncated_summary").unwrap();
    // Every strict prefix is either Parse (cut mid-JSON) or ModelFormat
    // (cut so early the schema header is gone) — never a panic, and
    // never accepted. Step through byte positions; skip the full length.
    for n in (0..body.len()).step_by(7) {
        if !body.is_char_boundary(n) {
            continue;
        }
        let path = scratch(&dir, "truncated.json", &body[..n]);
        let err = must_err(&format!("summary prefix of {n} bytes"), || {
            timecsl::trace_tool::load_summary(&path)
        });
        assert!(
            matches!(err.class(), ErrorClass::Parse | ErrorClass::ModelFormat),
            "summary prefix of {n} bytes: unexpected class {:?}",
            err.class()
        );
    }
}

#[test]
fn byte_corrupted_trace_summaries_never_panic() {
    let body = summary_fixture();
    let dir = TempDir::new("hostile_corrupted_summary").unwrap();
    // A '#' is never valid JSON syntax outside a string, and inside one
    // it merely changes a name — either way the loader must return,
    // not panic. Some mutations (inside the run name) still load.
    for pos in (0..body.len()).step_by(11) {
        if !body.is_char_boundary(pos) {
            continue;
        }
        let mut bad = String::with_capacity(body.len() + 1);
        bad.push_str(&body[..pos]);
        bad.push('#');
        bad.push_str(&body[pos + body[pos..].chars().next().map_or(1, char::len_utf8)..]);
        let path = scratch(&dir, "flipped.json", &bad);
        must_not_panic(&format!("summary with '#' at byte {pos}"), || {
            timecsl::trace_tool::load_summary(&path)
        });
    }
}

#[test]
fn deep_nesting_and_non_json_summaries_are_rejected() {
    let dir = TempDir::new("hostile_nesting_summary").unwrap();
    // A recursion bomb must hit the parser's depth cap, not the stack.
    let bomb = format!("{}{}", "[".repeat(20_000), "]".repeat(20_000));
    let path = scratch(&dir, "bomb.json", &bomb);
    let err = must_err("20k-deep nesting bomb", || {
        timecsl::trace_tool::load_summary(&path)
    });
    assert_eq!(err.class(), ErrorClass::Parse);
    assert!(err.to_string().contains("nesting deeper than"), "{err}");

    for (name, junk) in [
        ("empty.json", ""),
        ("nul.json", "\u{0}\u{0}"),
        ("half_utf8.json", "{\"schema\": \"tcsl"),
        ("numbers.json", "1e999"),
    ] {
        let path = scratch(&dir, name, junk);
        let err = must_err(name, || timecsl::trace_tool::load_summary(&path));
        assert!(
            matches!(err.class(), ErrorClass::Parse | ErrorClass::ModelFormat),
            "{name}: unexpected class {:?}",
            err.class()
        );
    }
}
