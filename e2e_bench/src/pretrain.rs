//! `pretrain`: CSV → `TimeCsl::pretrain` → saved model, one training cycle
//! per round; the freeze-mode SVM scores the saved model at the start of
//! each measured pass.

use crate::trace::Tracer;
use crate::workload::{file_len, load_csv, modeled_bytes_per_series, Facts, Round, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tcsl_analyzers::classify::LinearSvm;
use tcsl_analyzers::Classifier;
use tcsl_core::{CslConfig, TimeCsl};
use tcsl_data::archive::{generate_split, require};
use tcsl_data::io;
use tcsl_error::{TcslError, TcslResult};

/// Training epochs per cycle.
const EPOCHS: usize = 2;
/// Training series per class: small enough for about 45 cycles in a
/// 30-second run, so the fast quantile of the cycle time is not an
/// extreme of a handful of samples.
const TRAIN_PER_CLASS: usize = 8;
/// Held-out series per class, scored by the freeze-mode SVM.
const TEST_PER_CLASS: usize = 16;
/// An accuracy floor far above chance (1/8): below it the model is broken.
const MIN_ACCURACY: f64 = 0.5;

/// What the first cycle produced; every later cycle must repeat it.
struct Reference {
    first_loss: u32,
    last_loss: u32,
    model_text: String,
}

pub struct Pretrain {
    train_csv: PathBuf,
    test_csv: PathBuf,
    model_path: PathBuf,
    train_bytes: u64,
    test_bytes: u64,
    n_train: usize,
    t: usize,
    cfg: CslConfig,
    reference: Option<Reference>,
    accuracy: Option<f64>,
    bytes_per_series: u64,
}

impl Pretrain {
    /// Writes a GestureFull-shaped train/test split (8 classes, D=3,
    /// T=315) as CSV.
    pub fn setup(dir: &Path, seed: u64) -> TcslResult<Pretrain> {
        let mut entry = require("GestureFull")?;
        entry.n_train = TRAIN_PER_CLASS;
        entry.n_test = TEST_PER_CLASS;
        let (train, test) = generate_split(&entry, seed);
        let train_csv = dir.join("train.csv");
        let test_csv = dir.join("test.csv");
        io::save_csv(&train, &train_csv)?;
        io::save_csv(&test, &test_csv)?;
        Ok(Pretrain {
            train_bytes: file_len(&train_csv)?,
            test_bytes: file_len(&test_csv)?,
            train_csv,
            test_csv,
            model_path: dir.join("model.tcsl"),
            n_train: train.len(),
            t: train.max_len(),
            cfg: CslConfig {
                epochs: EPOCHS,
                seed,
                ..CslConfig::default()
            },
            reference: None,
            accuracy: None,
            bytes_per_series: 0,
        })
    }

    /// One training cycle: CSV load → pretrain → save, timed; then the
    /// saved model is reloaded and checked against the first cycle's.
    fn cycle(&mut self, tr: &mut Tracer, round: &mut Round) -> TcslResult<()> {
        let start = Instant::now();
        let train = load_csv(tr, "train", &self.train_csv, self.train_bytes)?;
        let (model, report) = tr.span("core.pretrain", self.n_train as u64, |_| {
            TimeCsl::pretrain(&train, None, &self.cfg)
        });
        tr.span("core.model_save", 1, |_| model.save(&self.model_path))?;
        round.op_ns.push(start.elapsed().as_nanos() as u64);
        round.series += (self.n_train * EPOCHS) as u64;

        let served = tr.span("core.model_load", 1, |_| TimeCsl::load(&self.model_path))?;
        let model_text = tr.span("core.to_text", 1, |_| model.to_text());
        let served_text = tr.span("core.to_text", 1, |_| served.to_text());
        round.check(served_text == model_text, || {
            "saved model does not reload to the trained model".into()
        });
        let (first, last) = match (report.epoch_total.first(), report.epoch_total.last()) {
            (Some(f), Some(l)) => (f.to_bits(), l.to_bits()),
            _ => return Err(TcslError::internal("training report has no epochs")),
        };
        match &self.reference {
            None => {
                self.bytes_per_series = modeled_bytes_per_series(served.bank(), self.t);
                self.reference = Some(Reference {
                    first_loss: first,
                    last_loss: last,
                    model_text,
                });
            }
            Some(r) => {
                round.check(r.first_loss == first && r.last_loss == last, || {
                    format!(
                        "epoch losses {}..{} differ from the first cycle's {}..{}",
                        f32::from_bits(first),
                        f32::from_bits(last),
                        f32::from_bits(r.first_loss),
                        f32::from_bits(r.last_loss)
                    )
                });
                round.check(r.model_text == model_text, || {
                    "trained model differs from the first cycle's".into()
                });
            }
        }
        Ok(())
    }

    /// Freeze mode on the model as saved: reload, transform both splits,
    /// fit the SVM on the training features and score the held-out ones.
    fn freeze_eval(&mut self, tr: &mut Tracer, round: &mut Round) -> TcslResult<()> {
        let served = tr.span("core.model_load", 1, |_| TimeCsl::load(&self.model_path))?;
        let train = load_csv(tr, "train", &self.train_csv, self.train_bytes)?;
        let test = load_csv(tr, "test", &self.test_csv, self.test_bytes)?;
        let x_train = tr.span("core.transform", train.len() as u64, |_| {
            served.transform(&train)
        })?;
        let x_test = tr.span("core.transform", test.len() as u64, |_| {
            served.transform(&test)
        })?;
        let (y_train, y_test) = match (train.labels(), test.labels()) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err(TcslError::internal("generated splits lost their labels")),
        };
        let mut svm = LinearSvm::new();
        tr.span("analyzers.svm_fit", train.len() as u64, |_| {
            svm.fit(&x_train, y_train)
        })?;
        let pred = tr.span("analyzers.svm_predict", test.len() as u64, |_| {
            svm.predict(&x_test)
        })?;
        let accuracy = tcsl_eval::metrics::classification::accuracy(&pred, y_test);
        round.check(accuracy >= MIN_ACCURACY, || {
            format!("svm accuracy {accuracy:.4} below {MIN_ACCURACY}")
        });
        match self.accuracy {
            None => self.accuracy = Some(accuracy),
            Some(a) => round.check(a == accuracy, || {
                format!("accuracy {accuracy} differs from the first pass's {a}")
            }),
        }
        Ok(())
    }
}

impl Workload for Pretrain {
    /// Scores the saved model in freeze mode, after a first cycle if no
    /// cycle has saved one yet.
    fn start(&mut self, tr: &mut Tracer) -> Round {
        let mut round = Round::default();
        if self.reference.is_none() {
            let r = self.cycle(tr, &mut round);
            round.fail_on(r);
        }
        let r = tr.span("op.freeze_eval", self.n_train as u64, |tr| {
            self.freeze_eval(tr, &mut round)
        });
        round.fail_on(r);
        round
    }

    fn round(&mut self, tr: &mut Tracer) -> Round {
        let mut round = Round::default();
        let r = tr.span("op.cycle", self.n_train as u64, |tr| {
            self.cycle(tr, &mut round)
        });
        round.fail_on(r);
        round
    }

    fn facts(&self) -> Facts {
        Facts {
            accuracy: self.accuracy.unwrap_or(0.0),
            bytes_per_series: self.bytes_per_series,
            ..Facts::default()
        }
    }
}
