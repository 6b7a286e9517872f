//! `explore`: one scripted exploration session per round over a
//! MotifMulti-shaped corpus — open the session, similarity queries through
//! an IVF index, k-means, isolation forest, shapelet matching, t-SNE.

use crate::trace::Tracer;
use crate::workload::{file_len, load_csv, modeled_bytes_per_series, Facts, Round, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tcsl_analyzers::anomaly::IsolationForest;
use tcsl_analyzers::cluster::KMeans;
use tcsl_analyzers::{AnomalyScorer, IndexBackend, NnIndex};
use tcsl_core::{CslConfig, TimeCsl};
use tcsl_data::archive::{generate_split, require};
use tcsl_data::io;
use tcsl_error::{TcslError, TcslResult};
use tcsl_eval::metrics::clustering::nmi;
use tcsl_explore::tsne::{tsne, TsneConfig};
use tcsl_explore::ExploreSession;
use tcsl_tensor::Tensor;

/// Corpus series per class (5 classes: 2000 series).
const CORPUS_PER_CLASS: usize = 400;
/// Pre-training series per class and epochs, in set-up.
const TRAIN_PER_CLASS: usize = 12;
const EPOCHS: usize = 3;
/// Single-row top-`K` queries per session.
const QUERIES: usize = 256;
const K: usize = 10;
/// IVF cells probed per query.
const NPROBE: usize = 8;
/// k-means clusters (the corpus has 5 classes).
const CLUSTERS: usize = 5;
/// `match_shapelet` calls per session.
const MATCHES: usize = 32;
/// Every `TSNE_STRIDE`-th corpus row goes into the t-SNE subsample.
const TSNE_STRIDE: usize = 10;
/// A recall floor: below it the index answers are broken.
const MIN_RECALL: f64 = 0.9;

/// What the first session answered; every later session must repeat it.
#[derive(PartialEq)]
struct Answers {
    neighbours: Vec<Vec<usize>>,
    iforest: Vec<u32>,
    matches: Vec<(usize, usize, u32)>,
    tsne: Vec<u32>,
}

pub struct Explore {
    model_path: PathBuf,
    corpus_csv: PathBuf,
    corpus_bytes: u64,
    labels: Vec<usize>,
    features: Tensor,
    exact: Vec<Vec<usize>>,
    nmi: f64,
    queries: Vec<usize>,
    matches: Vec<(usize, usize)>,
    tsne_rows: Vec<usize>,
    first: Option<Answers>,
    recall: f64,
    bytes_per_series: u64,
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.iter()
        .map(|x| x.to_bits())
        .eq(b.iter().map(|x| x.to_bits()))
}

impl Explore {
    /// Pre-trains and saves the model, writes the corpus CSV, and computes
    /// the references from the files as written: the corpus features, the
    /// exact top-10 neighbours of every query row and the k-means NMI.
    pub fn setup(dir: &Path, seed: u64) -> TcslResult<Explore> {
        let mut entry = require("MotifMulti")?;
        entry.n_train = TRAIN_PER_CLASS;
        entry.n_test = CORPUS_PER_CLASS;
        let (train, corpus) = generate_split(&entry, seed);
        let cfg = CslConfig {
            epochs: EPOCHS,
            seed,
            ..CslConfig::default()
        };
        let (model, _) = TimeCsl::pretrain(&train, None, &cfg);
        let model_path = dir.join("model.tcsl");
        model.save(&model_path)?;
        let corpus_csv = dir.join("corpus.csv");
        io::save_csv(&corpus, &corpus_csv)?;

        let model = TimeCsl::load(&model_path)?;
        let corpus = io::load_csv("corpus", &corpus_csv)?;
        let labels = corpus
            .labels()
            .ok_or_else(|| TcslError::internal("generated corpus lost its labels"))?
            .to_vec();
        let features = model.transform(&corpus)?;
        let n = features.rows();
        let queries: Vec<usize> = (0..QUERIES).map(|i| i * n / QUERIES).collect();
        let exact = NnIndex::build(features.clone(), IndexBackend::Exact)
            .knn(&rows(&features, &queries), K)?
            .into_iter()
            .map(|hits| hits.into_iter().map(|(id, _)| id).collect())
            .collect();
        let nmi = nmi(&KMeans::new(CLUSTERS).fit(&features).assignments, &labels);
        let f = features.cols();
        Ok(Explore {
            corpus_bytes: file_len(&corpus_csv)?,
            model_path,
            corpus_csv,
            labels,
            exact,
            nmi,
            queries,
            matches: (0..MATCHES).map(|i| ((i * 61) % n, (i * 7) % f)).collect(),
            tsne_rows: (0..n).step_by(TSNE_STRIDE).collect(),
            features,
            first: None,
            recall: 0.0,
            bytes_per_series: modeled_bytes_per_series(model.bank(), corpus.max_len()),
        })
    }

    fn session(&mut self, tr: &mut Tracer, round: &mut Round) -> TcslResult<()> {
        let corpus = load_csv(tr, "corpus", &self.corpus_csv, self.corpus_bytes)?;
        let model = tr.span("core.model_load", 1, |_| TimeCsl::load(&self.model_path))?;
        let n = corpus.len() as u64;
        let session = tr.span("explore.session_open", n, |_| {
            ExploreSession::new(model, corpus)
        })?;
        let feats = session.features();
        round.series = n;
        round.check(
            same_bits(feats.as_slice(), self.features.as_slice()),
            || "session features differ from set-up's transform".into(),
        );

        let nlist = (feats.rows() as f64).sqrt().round() as usize;
        let backend = IndexBackend::Ivf {
            nlist,
            nprobe: NPROBE,
        };
        let index = tr.span("analyzers.index_build", n, |_| {
            NnIndex::build(feats.clone(), backend)
        });
        let mut neighbours = Vec::with_capacity(self.queries.len());
        for &q in &self.queries {
            let query = rows(feats, &[q]);
            let start = Instant::now();
            let hits = tr.span("analyzers.index_query", 1, |_| index.knn(&query, K))?;
            round.op_ns.push(start.elapsed().as_nanos() as u64);
            let ids: Vec<usize> = hits.into_iter().flatten().map(|(id, _)| id).collect();
            neighbours.push(ids);
        }
        let found: usize = neighbours
            .iter()
            .zip(&self.exact)
            .map(|(got, want)| got.iter().filter(|id| want.contains(id)).count())
            .sum();
        let recall = found as f64 / (self.exact.len() * K) as f64;
        round.check(recall >= MIN_RECALL, || {
            format!("recall@{K} {recall:.4} below {MIN_RECALL}")
        });

        let fit = tr.span("analyzers.kmeans", n, |_| KMeans::new(CLUSTERS).fit(feats));
        let got_nmi = nmi(&fit.assignments, &self.labels);
        round.check(got_nmi == self.nmi, || {
            format!("k-means NMI {got_nmi} differs from set-up's {}", self.nmi)
        });

        let scores = tr.span("analyzers.iforest", n, |_| {
            let mut forest = IsolationForest::new();
            forest.fit(feats)?;
            forest.score(feats)
        })?;

        let mut matches = Vec::with_capacity(self.matches.len());
        for &(i, col) in &self.matches {
            let m = tr.span("explore.match", 1, |_| session.match_shapelet(i, col))?;
            let pooled = feats.row(i)[col];
            round.check(m.score == pooled, || {
                format!(
                    "match ({i},{col}) scores {} but the pooled feature is {pooled}",
                    m.score
                )
            });
            matches.push((m.group, m.start, m.score.to_bits()));
        }

        let sub = rows(feats, &self.tsne_rows);
        let embedding = tr.span("explore.tsne", sub.rows() as u64, |_| {
            tsne(&sub, &TsneConfig::default())
        });
        round.check(embedding.as_slice().iter().all(|v| v.is_finite()), || {
            "t-SNE embedding has non-finite coordinates".into()
        });

        let answers = Answers {
            neighbours,
            iforest: bits(&scores),
            matches,
            tsne: bits(embedding.as_slice()),
        };
        match &self.first {
            None => {
                self.first = Some(answers);
                self.recall = recall;
            }
            Some(first) => round.check(*first == answers, || {
                "session answers differ from the first session's".into()
            }),
        }
        Ok(())
    }
}

/// The listed rows of `x`, as a new matrix.
fn rows(x: &Tensor, ids: &[usize]) -> Tensor {
    let data = ids.iter().flat_map(|&i| x.row(i).iter().copied()).collect();
    Tensor::from_vec(data, [ids.len(), x.cols()])
}

impl Workload for Explore {
    fn round(&mut self, tr: &mut Tracer) -> Round {
        let mut round = Round::default();
        let n = self.labels.len() as u64;
        let r = tr.span("op.session", n, |tr| self.session(tr, &mut round));
        round.fail_on(r);
        round
    }

    fn facts(&self) -> Facts {
        Facts {
            nmi: self.nmi,
            recall_at_10: self.recall,
            corpus_rows: self.labels.len() as u64,
            bytes_per_series: self.bytes_per_series,
            ..Facts::default()
        }
    }
}
