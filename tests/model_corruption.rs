//! Corrupted-model corpus for the `tcsl-model v3` save/load format
//! (DESIGN.md, "Error taxonomy & panic policy"): every structural mutation
//! of a valid file — truncation at each section boundary, a bad magic, a
//! wrong normalization tag, non-numeric weights — must surface as the
//! *pinned* typed error class, never a panic; and the untouched file must
//! round-trip bit-identically.

use timecsl::error::TempDir;
use timecsl::shapelet::{Measure, ShapeletBank, ShapeletConfig};
use timecsl::{ErrorClass, TimeCsl};

/// A small deterministic model: two scales × two measures × three
/// shapelets, so the text format has several group sections to truncate.
fn model() -> TimeCsl {
    let cfg = ShapeletConfig {
        lengths: vec![4, 8],
        k_per_group: 3,
        measures: vec![Measure::Euclidean, Measure::Cosine],
        stride: 1,
    };
    TimeCsl::from_bank(ShapeletBank::new(&cfg, 2))
}

fn class_of(text: &str) -> ErrorClass {
    TimeCsl::from_text(text)
        .expect_err("corrupted model text must not parse")
        .class()
}

#[test]
fn good_file_round_trips_bit_identically() {
    let text = model().to_text();
    let reloaded = TimeCsl::from_text(&text).unwrap();
    assert_eq!(reloaded.to_text(), text, "v3 round-trip is not bit-stable");
}

#[test]
fn truncation_at_every_line_boundary_is_a_typed_error() {
    let text = model().to_text();
    let lines: Vec<&str> = text.lines().collect();
    // The full file has: model header, bank header, then per-group a
    // header plus k weight rows. Every strict prefix is structurally
    // damaged — ModelFormat, never a panic and never silent success.
    for n in 0..lines.len() {
        let prefix = if n == 0 {
            String::new()
        } else {
            format!("{}\n", lines[..n].join("\n"))
        };
        let err = TimeCsl::from_text(&prefix)
            .expect_err(&format!("prefix of {n}/{} lines parsed", lines.len()));
        assert_eq!(
            err.class(),
            ErrorClass::ModelFormat,
            "prefix of {n} lines gave {:?}: {err}",
            err.class()
        );
    }
}

#[test]
fn mid_line_truncation_is_a_typed_error() {
    // Cutting inside the last weight row leaves too few values for the
    // final group — a count mismatch, not a parse panic.
    let text = model().to_text();
    let cut = text.len() - text.len() / 10;
    let boundary = text
        .char_indices()
        .map(|(i, _)| i)
        .take_while(|&i| i <= cut)
        .last()
        .unwrap();
    let class = class_of(&text[..boundary]);
    assert!(
        class == ErrorClass::ModelFormat || class == ErrorClass::Parse,
        "mid-line truncation gave {class:?}"
    );
}

#[test]
fn bad_magic_is_model_format() {
    let text = model().to_text();
    // Not `tcsl-model ...` and not a bare bank either.
    let bad = text.replacen("tcsl-model", "tcsl-zzzzz", 1);
    assert_eq!(class_of(&bad), ErrorClass::ModelFormat);
    // An unsupported version number with an otherwise intact file.
    let v99 = text.replacen("tcsl-model v3", "tcsl-model v99", 1);
    assert_ne!(v99, text, "header version drifted — update this test");
    assert_eq!(class_of(&v99), ErrorClass::ModelFormat);
}

#[test]
fn wrong_normalization_tag_is_model_format() {
    let text = model().to_text();
    let bad = text.replacen("normalization=zscore", "normalization=sigma", 1);
    let err = TimeCsl::from_text(&bad).unwrap_err();
    assert_eq!(err.class(), ErrorClass::ModelFormat);
    assert!(
        err.to_string().contains("normalization"),
        "error does not name the bad field: {err}"
    );
    // Tag missing entirely.
    let missing = text.replacen(" normalization=zscore", "", 1);
    assert_eq!(class_of(&missing), ErrorClass::ModelFormat);
}

#[test]
fn non_numeric_weight_is_a_parse_error_with_the_line() {
    let text = model().to_text();
    // The first weight row is the line after the first group header.
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let row = lines
        .iter()
        .position(|l| l.starts_with("group "))
        .expect("a group header")
        + 1;
    let mut toks: Vec<&str> = lines[row].split_whitespace().collect();
    toks[0] = "abc";
    lines[row] = toks.join(" ");
    let bad = format!("{}\n", lines.join("\n"));
    let err = TimeCsl::from_text(&bad).unwrap_err();
    assert_eq!(err.class(), ErrorClass::Parse);
    assert!(
        err.to_string().contains("abc"),
        "parse error does not quote the bad token: {err}"
    );
}

#[test]
fn corrupted_group_header_fields_are_typed_errors() {
    let text = model().to_text();
    // Non-numeric k= in a group header → Parse.
    let bad_k = text.replacen("k=3", "k=three", 1);
    assert_eq!(class_of(&bad_k), ErrorClass::Parse);
    // Unknown measure name → ModelFormat.
    let bad_m = text.replacen("measure=euc", "measure=hamming", 1);
    assert_eq!(class_of(&bad_m), ErrorClass::ModelFormat);
    // A deleted weight makes the value count wrong → ModelFormat.
    let header_end = text.find('\n').unwrap();
    let bank_header_end = text[header_end + 1..].find('\n').unwrap() + header_end + 1;
    let group_end = text[bank_header_end + 1..].find('\n').unwrap() + bank_header_end + 1;
    let row_end = text[group_end + 1..].find('\n').unwrap() + group_end + 1;
    let row = &text[group_end + 1..row_end];
    let shortened = row.rsplit_once(' ').unwrap().0;
    let bad_count = text.replacen(row, shortened, 1);
    assert_eq!(class_of(&bad_count), ErrorClass::ModelFormat);
}

#[test]
fn save_load_through_disk_preserves_the_bytes() {
    let m = model();
    let dir = TempDir::new("model_corruption_disk").unwrap();
    let path = dir.join("model.tcsl");
    m.save(&path).unwrap();
    let on_disk = std::fs::read_to_string(&path).unwrap();
    assert_eq!(on_disk, m.to_text());
    let loaded = TimeCsl::load(&path).unwrap();
    assert_eq!(loaded.to_text(), m.to_text());
}

#[test]
fn loading_a_corrupted_file_names_the_path() {
    let dir = TempDir::new("model_corruption_bad").unwrap();
    let path = dir.join("bad.tcsl");
    std::fs::write(&path, "tcsl-model v2 normalization=sigma\n").unwrap();
    let err = TimeCsl::load(&path).unwrap_err();
    assert_eq!(err.class(), ErrorClass::ModelFormat);
    assert!(
        err.to_string().contains("bad.tcsl"),
        "load error lost the path context: {err}"
    );
}
