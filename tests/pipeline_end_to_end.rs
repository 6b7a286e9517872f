//! Cross-crate integration: the full Figure-2 pipeline — one unsupervised
//! pre-training run feeding classification, clustering and anomaly
//! detection — exercised through the public facade.

use timecsl::data::archive;
use timecsl::eval::metrics::anomaly::roc_auc;
use timecsl::eval::metrics::classification::accuracy;
use timecsl::eval::metrics::clustering::{adjusted_rand_index, nmi};
use timecsl::prelude::*;

fn quick_cfg(seed: u64) -> CslConfig {
    CslConfig {
        epochs: 6,
        batch_size: 12,
        seed,
        ..Default::default()
    }
}

#[test]
fn one_pretraining_serves_three_tasks() {
    let entry = archive::by_name("MotifMulti").unwrap();
    let (train, test) = archive::generate_split(&entry, 100);
    let (model, report) = TimeCsl::pretrain(&train, None, &quick_cfg(1));

    // Learning curve exists and is finite.
    assert_eq!(report.epoch_total.len(), 6);
    assert!(report.epoch_total.iter().all(|l| l.is_finite()));

    let ztr = model.transform(&train).unwrap();
    let zte = model.transform(&test).unwrap();

    // Classification well above the 20% chance level of 5 classes.
    let mut svm = LinearSvm::new();
    svm.fit(&ztr, train.labels().unwrap()).unwrap();
    let acc = accuracy(&svm.predict(&zte).unwrap(), test.labels().unwrap());
    assert!(acc > 0.6, "freeze-mode SVM accuracy only {acc}");

    // Clustering recovers most of the class structure.
    let mut km = KMeans::new(5);
    let assign = km.fit_predict(&zte).unwrap();
    let score = nmi(&assign, test.labels().unwrap());
    assert!(score > 0.4, "k-means NMI only {score}");
    assert!(adjusted_rand_index(&assign, test.labels().unwrap()) > 0.2);

    // Anomaly scoring: planted out-of-distribution series score higher.
    // The k-NN distance detector is the stabler scorer for "far from the
    // training distribution" (isolation forests care about axis-aligned
    // sparsity, which random seeds can wash out on small samples).
    let mut forest = KnnDistance::new(5);
    forest.fit(&ztr).unwrap();
    let mut scores = forest.score(&zte).unwrap();
    // Append scores of pure-noise imposters.
    let mut rng = timecsl::tensor::rng::seeded(9);
    let noise_series: Vec<TimeSeries> = (0..20)
        .map(|_| TimeSeries::new(timecsl::tensor::Tensor::randn([2, 160], &mut rng).scale(3.0)))
        .collect();
    let noise = Dataset::unlabeled("noise", noise_series);
    scores.extend(forest.score(&model.transform(&noise).unwrap()).unwrap());
    let labels: Vec<bool> = (0..zte.rows())
        .map(|_| false)
        .chain((0..20).map(|_| true))
        .collect();
    // Loose sanity bound: the pipeline z-normalizes, so the imposters
    // differ only in *pattern* (no planted motifs), not amplitude.
    let auc = roc_auc(&scores, &labels);
    assert!(auc > 0.7, "imposter detection AUC only {auc}");
}

#[test]
fn freezing_mode_accepts_any_analyzer() {
    let entry = archive::by_name("MotifEasy").unwrap();
    let (train, test) = archive::generate_split(&entry, 101);
    let (model, _) = TimeCsl::pretrain(&train, None, &quick_cfg(2));
    let ztr = model.transform(&train).unwrap();
    let zte = model.transform(&test).unwrap();
    let y = train.labels().unwrap();
    let yt = test.labels().unwrap();

    let analyzers: Vec<(&str, Box<dyn Classifier>)> = vec![
        ("svm", Box::new(LinearSvm::new())),
        ("logreg", Box::new(LogisticRegression::new())),
        ("knn", Box::new(KnnClassifier::new(3))),
        ("tree", Box::new(DecisionTree::new(6))),
        ("gbdt", Box::new(GradientBoosting::new(15))),
    ];
    for (name, mut clf) in analyzers {
        clf.fit(&ztr, y).unwrap();
        let acc = accuracy(&clf.predict(&zte).unwrap(), yt);
        assert!(
            acc > 0.6,
            "{name} accuracy only {acc} on MotifEasy features"
        );
    }
}

#[test]
fn representation_is_length_and_dataset_agnostic() {
    // Train on one dataset, transform another with different T: dimensions
    // stay fixed, values finite — the "unified vector representation".
    let (train, _) = archive::generate_split(&archive::by_name("MotifEasy").unwrap(), 102);
    let (model, _) = TimeCsl::pretrain(&train, None, &quick_cfg(3));
    let (other, _) = archive::generate_split(&archive::by_name("PeriodicWave").unwrap(), 103);
    let z = model.transform(&other).unwrap();
    assert_eq!(z.cols(), model.repr_dim());
    assert_eq!(z.rows(), other.len());
    assert!(z.all_finite());
}

#[test]
fn model_save_load_preserves_features_through_facade() {
    let entry = archive::by_name("MotifEasy").unwrap();
    let (train, test) = archive::generate_split(&entry, 104);
    let (model, _) = TimeCsl::pretrain(&train, None, &quick_cfg(4));
    let dir = timecsl::error::TempDir::new("facade_save_load").unwrap();
    let path = dir.join("model.tcsl");
    model.save(&path).unwrap();
    let loaded = TimeCsl::load(&path).unwrap();
    assert!(
        model
            .transform(&test)
            .unwrap()
            .max_abs_diff(&loaded.transform(&test).unwrap())
            < 1e-5
    );
}
