//! Integration: CSV persistence feeding the pipeline — the path the CLI
//! (`timecsl` binary) exercises: dataset → CSV → load → pretrain →
//! features → CSV.

use timecsl::data::{archive, io};
use timecsl::error::TempDir;
use timecsl::prelude::*;

#[test]
fn csv_round_trip_preserves_pipeline_behaviour() {
    let entry = archive::by_name("MotifEasy").unwrap();
    let (train, test) = archive::generate_split(&entry, 800);
    let dir = TempDir::new("csv_round_trip").unwrap();
    let train_path = dir.join("train.csv");
    io::save_csv(&train, &train_path).unwrap();
    let reloaded = io::load_csv("train", &train_path).unwrap();

    // Same data in, same model out.
    let cfg = CslConfig {
        epochs: 2,
        batch_size: 8,
        seed: 1,
        ..CslConfig::fast()
    };
    let (m1, _) = TimeCsl::pretrain(&train, None, &cfg);
    let (m2, _) = TimeCsl::pretrain(&reloaded, None, &cfg);
    let f1 = m1.transform(&test).unwrap();
    let f2 = m2.transform(&test).unwrap();
    assert!(
        f1.max_abs_diff(&f2) < 1e-5,
        "CSV round trip changed the model"
    );
    std::fs::remove_file(train_path).ok();
}

#[test]
fn feature_matrix_exports_with_stable_header() {
    let entry = archive::by_name("MotifEasy").unwrap();
    let (train, test) = archive::generate_split(&entry, 801);
    let cfg = CslConfig {
        epochs: 1,
        batch_size: 8,
        seed: 2,
        ..CslConfig::fast()
    };
    let (model, _) = TimeCsl::pretrain(&train, None, &cfg);
    let feats = model.transform(&test).unwrap();
    let csv = io::matrix_to_csv(&feats, &model.feature_names());
    let mut lines = csv.lines();
    let header = lines.next().unwrap();
    // Header columns use the bank's stable naming scheme.
    assert!(header.starts_with("L"));
    assert_eq!(header.split(',').count(), model.repr_dim());
    assert_eq!(lines.count(), test.len());
}

#[test]
fn malformed_csv_is_rejected_not_panicking() {
    for bad in [
        "",                                           // empty
        "wrong,header\n1,2",                          // bad header
        "series,label,variable,t,value\n0,0,0,5,1.0", // out-of-order t
        "series,label,variable,t,value\nx,0,0,0,1.0", // bad series id
    ] {
        assert!(
            io::from_csv("bad", bad).is_err(),
            "accepted malformed csv: {bad:?}"
        );
    }
}
