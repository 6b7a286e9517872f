//! What every workload provides to the runner, and helpers they share.

use crate::trace::Tracer;
use std::path::Path;
use tcsl_data::{io, Dataset};
use tcsl_error::TcslResult;
use tcsl_shapelet::{BankPrecision, ShapeletBank};

/// One closed-loop round: a training cycle, a request or a session.
#[derive(Debug, Default)]
pub struct Round {
    /// Latencies (ns) of the user-facing operations the round completed.
    pub op_ns: Vec<u64>,
    /// Series the round processed.
    pub series: u64,
    /// Failed checks and errors, one line each.
    pub failures: Vec<String>,
}

impl Round {
    /// Records a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records the error of a round body that stopped early.
    pub fn fail_on<T>(&mut self, r: TcslResult<T>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failures.push(format!("error: {e}"));
                None
            }
        }
    }
}

/// Answers a workload knows about itself, for the traced report. A number
/// a workload does not produce stays `0.0`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Facts {
    /// Freeze-mode SVM accuracy on the held-out series.
    pub accuracy: f64,
    /// NMI of the k-means assignments against the labels.
    pub nmi: f64,
    /// IVF top-10 answers that are exact top-10 neighbours.
    pub recall_at_10: f64,
    /// Rows in the indexed corpus.
    pub corpus_rows: u64,
    /// Modeled tap + window bytes one transform streams per series.
    pub bytes_per_series: u64,
}

/// A benchmark workload after set-up.
pub trait Workload {
    /// Called at the start of each measured pass (before its first round).
    fn start(&mut self, _tr: &mut Tracer) -> Round {
        Round::default()
    }

    /// Runs one round and checks its answers.
    fn round(&mut self, tr: &mut Tracer) -> Round;

    /// What the workload measured about answer quality and kernel shape.
    fn facts(&self) -> Facts;
}

/// Loads a CSV as a `data.load_csv` call handling the file's bytes.
pub fn load_csv(tr: &mut Tracer, name: &str, path: &Path, bytes: u64) -> TcslResult<Dataset> {
    tr.span("data.load_csv", bytes, |_| io::load_csv(name, path))
}

/// Size of a file the benchmark wrote in set-up.
pub fn file_len(path: &Path) -> TcslResult<u64> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| tcsl_error::TcslError::io(path, e))
}

/// Modeled tap + window bytes one fused transform streams per series of
/// length `t`: every window re-reads all `K` tap rows and is itself read
/// once per 4-shapelet block (the model `bench_transform` reports).
pub fn modeled_bytes_per_series(bank: &ShapeletBank, t: usize) -> u64 {
    let tap_bytes = match bank.precision() {
        BankPrecision::Full => 4,
        BankPrecision::F16 | BankPrecision::I16 => 2,
    };
    bank.groups()
        .iter()
        .map(|g| {
            let width = (bank.d * g.len) as u64;
            let n = tcsl_tensor::window::count_windows(t.max(g.len), g.len, g.stride) as u64;
            n * g.k() as u64 * width * tap_bytes + n * g.k().div_ceil(4) as u64 * width * 4
        })
        .sum()
}
