//! `serve_short` / `serve_long`: a frozen model answers closed-loop
//! classification requests, each a CSV file of series:
//! `io::load_csv` → `TimeCsl::transform` → `LinearSvm::predict` → labels
//! written.

use crate::trace::Tracer;
use crate::workload::{file_len, load_csv, modeled_bytes_per_series, Facts, Round, Workload};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tcsl_analyzers::classify::LinearSvm;
use tcsl_analyzers::Classifier;
use tcsl_core::{CslConfig, TimeCsl};
use tcsl_data::archive::{generate_split, require};
use tcsl_data::io;
use tcsl_error::{TcslError, TcslResult};
use tcsl_tensor::quant::QuantScheme;

/// The shape of one serving workload.
pub struct ServeSpec {
    /// Archive entry the data is shaped after.
    pub entry: &'static str,
    /// Training series per class (pre-training and the SVM fit).
    pub train_per_class: usize,
    /// Held-out series per class, cut into requests.
    pub test_per_class: usize,
    /// Pre-training epochs in set-up.
    pub epochs: usize,
    /// Bank quantization applied before the model is saved.
    pub quantize: Option<QuantScheme>,
    /// Series per request.
    pub request_series: usize,
}

/// MotifEasy-shaped (D=1, T=128): adaptive lengths 13/26/52/103, three of
/// four scales on the short scalar dot path; f32 bank; 8-series requests.
pub const SHORT: ServeSpec = ServeSpec {
    entry: "MotifEasy",
    train_per_class: 20,
    test_per_class: 64,
    epochs: 10,
    quantize: None,
    request_series: 8,
};

/// LongMotif1k-shaped (D=1, T=1024): adaptive lengths 103/205/410/820, all
/// on the SIMD paths; i16 bank saved as a v3 model; 1-series requests.
pub const LONG: ServeSpec = ServeSpec {
    entry: "LongMotif1k",
    train_per_class: 8,
    test_per_class: 16,
    epochs: 3,
    quantize: Some(QuantScheme::I16),
    request_series: 1,
};

/// One request file and the answer set-up computed for it.
struct Request {
    path: PathBuf,
    bytes: u64,
    series: usize,
    expected: Vec<usize>,
}

pub struct Serve {
    model_path: PathBuf,
    answer_path: PathBuf,
    model: Option<TimeCsl>,
    svm: LinearSvm,
    requests: Vec<Request>,
    next: usize,
    accuracy: f64,
    bytes_per_series: u64,
}

impl Serve {
    /// Generates the data, pre-trains, (quantizes) and saves the model,
    /// fits the SVM on the reloaded model's features, writes the request
    /// files and records the labels the reloaded model gives each.
    pub fn setup(dir: &Path, seed: u64, spec: &ServeSpec) -> TcslResult<Serve> {
        let mut entry = require(spec.entry)?;
        entry.n_train = spec.train_per_class;
        entry.n_test = spec.test_per_class;
        let (train, test) = generate_split(&entry, seed);
        let cfg = CslConfig {
            epochs: spec.epochs,
            seed,
            ..CslConfig::default()
        };
        let (mut model, _) = TimeCsl::pretrain(&train, None, &cfg);
        if let Some(scheme) = spec.quantize {
            model.quantize(scheme)?;
        }
        let model_path = dir.join("model.tcsl");
        model.save(&model_path)?;
        let served = TimeCsl::load(&model_path)?;

        let labels = |ds: &tcsl_data::Dataset| {
            ds.labels()
                .map(<[usize]>::to_vec)
                .ok_or_else(|| TcslError::internal("generated split lost its labels"))
        };
        let mut svm = LinearSvm::new();
        svm.fit(&served.transform(&train)?, &labels(&train)?)?;

        let y_test = labels(&test)?;
        let mut requests = Vec::new();
        let mut hits = 0usize;
        for (i, start) in (0..test.len()).step_by(spec.request_series).enumerate() {
            let ids: Vec<usize> = (start..(start + spec.request_series).min(test.len())).collect();
            let path = dir.join(format!("request-{i:03}.csv"));
            io::save_csv(&test.subset(&ids, "request"), &path)?;
            let on_disk = io::load_csv("request", &path)?;
            let expected = svm.predict(&served.transform(&on_disk)?)?;
            hits += expected
                .iter()
                .zip(&ids)
                .filter(|&(p, &j)| *p == y_test[j])
                .count();
            requests.push(Request {
                bytes: file_len(&path)?,
                path,
                series: ids.len(),
                expected,
            });
        }
        Ok(Serve {
            bytes_per_series: modeled_bytes_per_series(served.bank(), test.max_len()),
            model_path,
            answer_path: dir.join("answer.csv"),
            model: None,
            svm,
            requests,
            next: 0,
            accuracy: hits as f64 / test.len() as f64,
        })
    }
}

/// The answer file: one `series,label` row per series.
fn answer_csv(labels: &[usize]) -> String {
    let mut out = String::from("series,label\n");
    for (i, l) in labels.iter().enumerate() {
        let _ = writeln!(out, "{i},{l}");
    }
    out
}

impl Workload for Serve {
    /// Loads the served model once per pass.
    fn start(&mut self, tr: &mut Tracer) -> Round {
        let mut round = Round::default();
        let path = &self.model_path;
        self.model = round.fail_on(tr.span("core.model_load", 1, |_| TimeCsl::load(path)));
        round
    }

    fn round(&mut self, tr: &mut Tracer) -> Round {
        let mut round = Round::default();
        let Some(model) = &self.model else {
            round.failures.push("no served model loaded".into());
            return round;
        };
        let req = &self.requests[self.next];
        self.next = (self.next + 1) % self.requests.len();
        let (svm, answer_path) = (&self.svm, &self.answer_path);
        let start = Instant::now();
        let labels = tr.span("op.request", req.series as u64, |tr| {
            let ds = load_csv(tr, "request", &req.path, req.bytes)?;
            let x = tr.span("core.transform", ds.len() as u64, |_| model.transform(&ds))?;
            let labels = tr.span("analyzers.svm_predict", ds.len() as u64, |_| {
                svm.predict(&x)
            })?;
            tr.span("client.write_answer", labels.len() as u64, |_| {
                tcsl_error::write_file(answer_path, answer_csv(&labels))
            })?;
            Ok::<_, TcslError>(labels)
        });
        round.op_ns.push(start.elapsed().as_nanos() as u64);
        if let Some(labels) = round.fail_on(labels) {
            round.series = labels.len() as u64;
            round.check(labels == req.expected, || {
                format!(
                    "{}: labels {labels:?} differ from set-up's {:?}",
                    req.path.display(),
                    req.expected
                )
            });
        }
        round
    }

    fn facts(&self) -> Facts {
        Facts {
            accuracy: self.accuracy,
            bytes_per_series: self.bytes_per_series,
            ..Facts::default()
        }
    }
}
