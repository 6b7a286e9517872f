//! Differentiable shapelet transform for training.
//!
//! Gradients only flow to the *shapelets* (and any head stacked on top) —
//! never to the input series — so the whole forward pass can run before
//! any graph exists. [`pool_scopes`] pools every distinct view of a batch
//! once, batch-wide on the pool: per view it builds each scale's
//! [`ScaleWindows`] (padded buffer + prefix-sum window norms) in turn,
//! pools every group of that scale with the fused streaming kernel
//! inference runs, and drops the windows again. What survives is one
//! [`ShapeletDistanceOp`] per (view, group) carrying the pooled features,
//! best windows and the padded view. [`replay_batch`] inserts those ops
//! into a graph bound to the same values; the ops' arg-routed
//! analytic backward reads the best windows out of the view, so training
//! never materializes the `(N_w × D·len)` window matrix.
//!
//! [`diff_features`]/[`diff_features_batch`] wrap both phases for callers
//! that hold one graph (fine-tuning, proptests, gradchecks).
//!
//! The original eager-graph formulation — windows materialized into a
//! constant leaf, distances assembled from `matmul`/`relu`/`min_axis` ops —
//! survives unchanged as the [`oracle`] module. It is the reference the
//! fused path's values and gradients are pinned against in tests, and
//! stays selectable at runtime via [`DiffPath`] so benchmarks can compare
//! the two.
//!
//! The numerics match [`crate::transform`] exactly (verified by tests): the
//! same features come out of both paths, so a bank trained here can be used
//! by the fast path directly.

use std::sync::Arc;

use crate::bank::{GroupPrecomp, ShapeletBank};
use crate::diff_op::ShapeletDistanceOp;
use crate::fused::ScaleWindows;
use crate::transform::pad_to_len;
use tcsl_autodiff::{Graph, VarId};
use tcsl_tensor::parallel::parallel_map;
use tcsl_tensor::Tensor;

/// Which implementation of the differentiable transform to run.
///
/// Both produce matching features and gradients (pinned by proptests);
/// they differ in cost: [`DiffPath::Fused`] streams windows through the
/// custom op, [`DiffPath::Oracle`] materializes an `(N_w × D·len)` window
/// matrix per scale per series. The oracle exists for parity testing and
/// old-vs-new benchmarking.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DiffPath {
    /// Custom-op path over the fused streaming kernel (the default).
    #[default]
    Fused,
    /// Reference eager-graph path (`unfold` + matmul leaves).
    Oracle,
}

/// Shapelet parameters bound into a graph: one `VarId` per group, in bank
/// order.
pub struct BoundBank {
    /// Group parameter nodes.
    pub group_vars: Vec<VarId>,
}

/// Binds every group's shapelet matrix as a trainable parameter.
pub fn bind_trainable(g: &mut Graph, bank: &ShapeletBank) -> BoundBank {
    BoundBank {
        group_vars: bank
            .groups()
            .iter()
            .map(|grp| g.param(grp.shapelets.clone()))
            .collect(),
    }
}

/// Binds a snapshot of shapelet values (one tensor per group, in bank
/// order) as trainable parameters. This is the worker-side entry point of
/// data-parallel training: each worker thread owns its own [`Graph`] and
/// binds the same shared read-only snapshot (e.g. a `ParamStore`'s current
/// values), so all workers differentiate against identical parameters.
pub fn bind_values(g: &mut Graph, values: &[Tensor]) -> BoundBank {
    BoundBank {
        group_vars: values.iter().map(|v| g.param(v.clone())).collect(),
    }
}

/// Binds every group's shapelet matrix as a frozen constant (freezing mode
/// with a differentiable head on top).
pub fn bind_frozen(g: &mut Graph, bank: &ShapeletBank) -> BoundBank {
    BoundBank {
        group_vars: bank
            .groups()
            .iter()
            .map(|grp| g.leaf(grp.shapelets.clone()))
            .collect(),
    }
}

/// The pooled forward of one view against every group of a bank: one
/// [`ShapeletDistanceOp`] per group, in bank order.
pub type PooledView = Vec<Arc<ShapeletDistanceOp>>;

/// Pools every view of every scope against every group of `bank`, with
/// shapelet values `values` (one `(K, D·len)` tensor per group, in bank
/// order — the snapshot the graphs will bind). Returns one pooled view per
/// input view, in input order.
///
/// Views are deduped by value within their scope (e.g. both sides of a
/// contrastive pair): full-grain views of a pair are bit-identical crops,
/// so each is pooled once and the equal views share its ops. Every
/// distinct view is one task of a single `parallel_map`, and each value is
/// a pure function of the view and the shapelets, so the result is the
/// same at any thread count. The `window_cache.*` counters count one
/// lookup per (view, group) and a miss per [`ScaleWindows`] built.
pub fn pool_scopes(
    bank: &ShapeletBank,
    values: &[&Tensor],
    scopes: &[Vec<&Tensor>],
) -> Vec<Vec<PooledView>> {
    let groups = bank.groups();
    assert_eq!(values.len(), groups.len(), "one value tensor per group");
    let pre: Vec<GroupPrecomp> = values.iter().map(|v| GroupPrecomp::of(v)).collect();
    // Dedupe by value: length first, then every sample.
    let mut distinct: Vec<&Tensor> = Vec::new();
    let slots: Vec<Vec<usize>> = scopes
        .iter()
        .map(|views| {
            let first = distinct.len();
            views
                .iter()
                .map(|&v| {
                    assert_eq!(v.rows(), bank.d, "series/bank variable count mismatch");
                    let seen = distinct[first..]
                        .iter()
                        .position(|u| u.cols() == v.cols() && u.as_slice() == v.as_slice());
                    if let Some(i) = seen {
                        tcsl_obs::counters::WINDOW_CACHE_HIT.add(groups.len() as u64);
                        return first + i;
                    }
                    distinct.push(v);
                    distinct.len() - 1
                })
                .collect()
        })
        .collect();
    let max_len = groups.iter().map(|grp| grp.len).max().unwrap_or(0);
    let pooled = parallel_map(distinct.len(), |i| {
        pool_view(bank, &pre, distinct[i], max_len)
    });
    slots
        .iter()
        .map(|scope| scope.iter().map(|&i| pooled[i].clone()).collect())
        .collect()
}

/// Pools one view against every group. The bank is scale-major, so each
/// scale's [`ScaleWindows`] is built once and dropped when the next scale
/// starts.
fn pool_view(
    bank: &ShapeletBank,
    pre: &[GroupPrecomp],
    view: &Tensor,
    max_len: usize,
) -> PooledView {
    let padded = Arc::new(pad_to_len(view, max_len));
    let mut sw: Option<ScaleWindows> = None;
    bank.groups()
        .iter()
        .zip(pre)
        .map(|(grp, pre)| {
            if matches!(&sw, Some(s) if s.matches(grp.len, grp.stride)) {
                tcsl_obs::counters::WINDOW_CACHE_HIT.add(1);
            } else {
                tcsl_obs::counters::WINDOW_CACHE_MISS.add(1);
                sw = None;
            }
            let sw = sw.get_or_insert_with(|| ScaleWindows::new(view, grp.len, grp.stride));
            let op = ShapeletDistanceOp::pool(Arc::clone(&padded), sw, grp.measure, pre);
            Arc::new(op)
        })
        .collect()
}

/// Inserts pooled views into `g` as their `(B, D_repr)` feature matrix.
/// `bound` must bind the values the views were pooled against.
pub fn replay_batch(g: &mut Graph, bound: &BoundBank, views: &[PooledView]) -> VarId {
    assert!(!views.is_empty(), "empty batch");
    let rows: Vec<VarId> = views
        .iter()
        .map(|ops| {
            let parts: Vec<VarId> = ops
                .iter()
                .zip(&bound.group_vars)
                .map(|(op, &var)| g.custom(Arc::clone(op) as _, &[var]))
                .collect();
            g.concat_cols(&parts)
        })
        .collect();
    g.concat_rows(&rows)
}

/// Builds the feature row `(1, D_repr)` of one series against the bound
/// bank. `series` is the raw `(D, T)` value tensor.
pub fn diff_features(
    g: &mut Graph,
    bank: &ShapeletBank,
    bound: &BoundBank,
    series: &Tensor,
) -> VarId {
    diff_features_batch(g, bank, bound, std::slice::from_ref(series))
}

/// Builds the `(B, D_repr)` feature matrix of a batch of series, pooled
/// against the values `bound` holds in `g`; equal series in the batch are
/// pooled once.
pub fn diff_features_batch(
    g: &mut Graph,
    bank: &ShapeletBank,
    bound: &BoundBank,
    batch: &[Tensor],
) -> VarId {
    let values: Vec<&Tensor> = bound.group_vars.iter().map(|&v| g.value(v)).collect();
    let pooled = pool_scopes(bank, &values, &[batch.iter().collect()]);
    replay_batch(g, bound, &pooled[0])
}

/// Writes updated parameter values (from an optimizer step) back into the
/// bank, in group order.
pub fn write_back(bank: &mut ShapeletBank, new_values: &[Tensor]) {
    assert_eq!(
        bank.groups().len(),
        new_values.len(),
        "group count mismatch"
    );
    for (g, v) in bank.groups_mut().iter_mut().zip(new_values) {
        assert!(
            g.shapelets.shape().same_as(v.shape()),
            "shapelet shape changed"
        );
        g.shapelets = v.clone();
    }
}

/// Reference implementation of the differentiable transform as an eager
/// tape-op graph over materialized window matrices.
///
/// This is the formulation the fused custom-op path replaced: per scale it
/// `unfold`s the series into an `(N_w × D·len)` constant leaf and builds
/// each measure from generic tape ops (`matmul_transb`, `relu`,
/// `min_axis`/`max_axis`, …), whose composed backward rules define the
/// gradients the fused path's analytic backward must reproduce. Kept for
/// parity tests and old-vs-new benchmarking — not used by training
/// defaults.
pub mod oracle {
    use super::BoundBank;
    use crate::bank::ShapeletBank;
    use crate::measure::Measure;
    use crate::transform::pad_to_len;
    use tcsl_autodiff::{Graph, VarId};
    use tcsl_tensor::reduce::Axis;
    use tcsl_tensor::window::{unfold, window_sq_norms};
    use tcsl_tensor::Tensor;

    /// Oracle counterpart of [`super::diff_features`].
    pub fn diff_features_oracle(
        g: &mut Graph,
        bank: &ShapeletBank,
        bound: &BoundBank,
        series: &Tensor,
    ) -> VarId {
        assert_eq!(series.rows(), bank.d, "series/bank variable count mismatch");
        let mut parts: Vec<VarId> = Vec::with_capacity(bank.groups().len());
        // Cache per-scale window leaves: measures of one scale share windows.
        let mut cached: Option<(usize, VarId, Vec<f32>)> = None;
        for (gi, grp) in bank.groups().iter().enumerate() {
            let (w_leaf, w_sq_norms) = match &cached {
                Some((len, id, norms)) if *len == grp.len => (*id, norms.clone()),
                _ => {
                    // Same prefix-sum window-norm machinery as the fused
                    // inference kernel — one O(T) pass instead of a pass over
                    // the materialized rows.
                    let padded = pad_to_len(series, grp.len);
                    let norms = window_sq_norms(&padded, grp.len, grp.stride);
                    let id = g.leaf(unfold(&padded, grp.len, grp.stride));
                    cached = Some((grp.len, id, norms.clone()));
                    (id, norms)
                }
            };
            let s_var = bound.group_vars[gi];
            let k = grp.k();
            let width = (bank.d * grp.len) as f32;
            let pooled = match grp.measure {
                Measure::Euclidean => {
                    // d² = ‖w‖² − 2·W·Sᵀ + ‖s‖², clamped at 0, normalized, √.
                    let cross = g.matmul_transb(w_leaf, s_var);
                    let neg2 = g.mul_scalar(cross, -2.0);
                    let wn = g.leaf(Tensor::from_vec(w_sq_norms.clone(), [w_sq_norms.len()]));
                    let with_w = g.add_col_vec(neg2, wn);
                    let s_sq = g.square(s_var);
                    let sn = g.sum_axis(s_sq, Axis::Cols);
                    let d2 = g.add_row_vec(with_w, sn);
                    let clamped = g.relu(d2);
                    let normed = g.mul_scalar(clamped, 1.0 / width);
                    let dist = g.sqrt_eps(normed, 1e-8);
                    g.min_axis(dist, Axis::Rows)
                }
                Measure::Cosine => {
                    // Window rows normalized eagerly (no grad through them).
                    let wn_val = {
                        let w = g.value(w_leaf).clone();
                        let mut out = w;
                        for i in 0..out.rows() {
                            let n = (out.row(i).iter().map(|&x| x * x).sum::<f32>() + 1e-12).sqrt();
                            for x in out.row_mut(i) {
                                *x /= n;
                            }
                        }
                        out
                    };
                    let wn_leaf = g.leaf(wn_val);
                    let sn = g.row_normalize(s_var, 1e-12);
                    let sim = g.matmul_transb(wn_leaf, sn);
                    g.max_axis(sim, Axis::Rows)
                }
                Measure::CrossCorrelation => {
                    let cross = g.matmul_transb(w_leaf, s_var);
                    let sim = g.mul_scalar(cross, 1.0 / width);
                    g.max_axis(sim, Axis::Rows)
                }
            };
            parts.push(g.reshape(pooled, [1, k]));
        }
        g.concat_cols(&parts)
    }

    /// Oracle counterpart of [`super::diff_features_batch`].
    pub fn diff_features_batch_oracle(
        g: &mut Graph,
        bank: &ShapeletBank,
        bound: &BoundBank,
        batch: &[Tensor],
    ) -> VarId {
        assert!(!batch.is_empty(), "empty batch");
        let rows: Vec<VarId> = batch
            .iter()
            .map(|s| diff_features_oracle(g, bank, bound, s))
            .collect();
        g.concat_rows(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::{diff_features_batch_oracle, diff_features_oracle};
    use super::*;
    use crate::config::ShapeletConfig;
    use crate::measure::Measure;
    use crate::transform::transform_series;
    use tcsl_data::TimeSeries;
    use tcsl_tensor::rng::seeded;

    fn bank(d: usize) -> ShapeletBank {
        let cfg = ShapeletConfig {
            lengths: vec![3, 6],
            k_per_group: 2,
            measures: Measure::ALL.to_vec(),
            stride: 1,
        };
        let mut b = ShapeletBank::new(&cfg, d);
        b.randomize(&mut seeded(3));
        b
    }

    #[test]
    fn diff_path_matches_fast_path() {
        let b = bank(2);
        let mut rng = seeded(4);
        let series = TimeSeries::new(Tensor::randn([2, 20], &mut rng));
        let fast = transform_series(&b, &series).unwrap();

        let mut g = Graph::new();
        let bound = bind_trainable(&mut g, &b);
        let feats = diff_features(&mut g, &b, &bound, series.values());
        let slow = g.value(feats);
        assert_eq!(slow.shape().dims(), &[1, b.repr_dim()]);
        for (i, (&f, &s)) in fast.iter().zip(slow.as_slice()).enumerate() {
            assert!((f - s).abs() < 1e-4, "feature {i}: fast={f} diff={s}");
        }
    }

    #[test]
    fn diff_path_matches_fast_path_on_short_series() {
        let b = bank(1);
        let series = TimeSeries::univariate(vec![0.4, -0.2]); // shorter than both scales
        let fast = transform_series(&b, &series).unwrap();
        let mut g = Graph::new();
        let bound = bind_trainable(&mut g, &b);
        let feats = diff_features(&mut g, &b, &bound, series.values());
        for (&f, &s) in fast.iter().zip(g.value(feats).as_slice()) {
            assert!((f - s).abs() < 1e-4);
        }
    }

    #[test]
    fn fused_path_matches_oracle_path() {
        // Same bound parameters, same series → same features from the
        // custom-op path and the eager-graph oracle.
        for d in [1, 2] {
            let b = bank(d);
            let mut rng = seeded(14 + d as u64);
            let series = Tensor::randn([d, 22], &mut rng);

            let mut g = Graph::new();
            let bound = bind_trainable(&mut g, &b);
            let fused = diff_features(&mut g, &b, &bound, &series);
            let oracle = diff_features_oracle(&mut g, &b, &bound, &series);
            let (fv, ov) = (g.value(fused).clone(), g.value(oracle).clone());
            assert_eq!(fv.shape().dims(), ov.shape().dims());
            for (i, (&f, &o)) in fv.as_slice().iter().zip(ov.as_slice()).enumerate() {
                assert!((f - o).abs() < 1e-4, "feature {i}: fused={f} oracle={o}");
            }
        }
    }

    /// The view-by-view reference: an op per (view, group) that pools its
    /// own forward over that view's own [`ScaleWindows`] when the graph
    /// inserts it, and again in backward.
    #[derive(Debug)]
    struct PerViewOp {
        series: Tensor,
        len: usize,
        stride: usize,
        measure: Measure,
    }

    impl PerViewOp {
        fn pooled(&self, shapelets: &Tensor) -> ShapeletDistanceOp {
            let sw = ScaleWindows::new(&self.series, self.len, self.stride);
            let view = Arc::new(sw.padded.clone());
            ShapeletDistanceOp::pool(view, &sw, self.measure, &GroupPrecomp::of(shapelets))
        }
    }

    impl tcsl_autodiff::CustomOp for PerViewOp {
        fn forward(&self, inputs: &[&Tensor]) -> Tensor {
            self.pooled(inputs[0]).forward(inputs)
        }

        fn backward(
            &self,
            grad_out: &Tensor,
            inputs: &[&Tensor],
            output: &Tensor,
        ) -> Vec<Option<Tensor>> {
            self.pooled(inputs[0]).backward(grad_out, inputs, output)
        }
    }

    fn per_view_features_batch(
        g: &mut Graph,
        bank: &ShapeletBank,
        bound: &BoundBank,
        batch: &[Tensor],
    ) -> VarId {
        let rows: Vec<VarId> = batch
            .iter()
            .map(|series| {
                let parts: Vec<VarId> = bank
                    .groups()
                    .iter()
                    .zip(&bound.group_vars)
                    .map(|(grp, &var)| {
                        let op = PerViewOp {
                            series: series.clone(),
                            len: grp.len,
                            stride: grp.stride,
                            measure: grp.measure,
                        };
                        g.custom(Arc::new(op), &[var])
                    })
                    .collect();
                g.concat_cols(&parts)
            })
            .collect();
        g.concat_rows(&rows)
    }

    /// Features of both sides and the gradient of every group under a loss
    /// that mixes the sides, as `to_bits` words.
    fn pair_bits(
        bank: &ShapeletBank,
        views_a: &[Tensor],
        views_b: &[Tensor],
        batch_forward: bool,
    ) -> Vec<Vec<u32>> {
        let mut g = Graph::new();
        let bound = bind_trainable(&mut g, bank);
        let (za, zb) = if batch_forward {
            let values: Vec<Tensor> = bank
                .groups()
                .iter()
                .map(|grp| grp.shapelets.clone())
                .collect();
            let refs: Vec<&Tensor> = values.iter().collect();
            let scope: Vec<&Tensor> = views_a.iter().chain(views_b).collect();
            let pooled = pool_scopes(bank, &refs, &[scope]);
            let (a, b) = pooled[0].split_at(views_a.len());
            (
                replay_batch(&mut g, &bound, a),
                replay_batch(&mut g, &bound, b),
            )
        } else {
            (
                per_view_features_batch(&mut g, bank, &bound, views_a),
                per_view_features_batch(&mut g, bank, &bound, views_b),
            )
        };
        let cross = g.mul(za, zb);
        let sq = g.square(za);
        let mixed = g.add(cross, sq);
        let loss = g.mean_all(mixed);
        let grads = g.backward(loss);
        let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut out = vec![bits(g.value(za)), bits(g.value(zb))];
        out.extend(
            bound
                .group_vars
                .iter()
                .map(|&id| bits(grads.get(id).unwrap())),
        );
        out
    }

    #[test]
    fn batch_forward_bit_identical_to_per_view_reference() {
        use crate::fused::tie_heavy_series;
        for d in 1..=3 {
            for stride in 1..=3 {
                let cfg = ShapeletConfig {
                    lengths: vec![3, 7, 12],
                    k_per_group: 5,
                    measures: Measure::ALL.to_vec(),
                    stride,
                };
                let mut b = ShapeletBank::new(&cfg, d);
                b.randomize(&mut seeded(30 + d as u64));
                let seed = (10 * d + stride) as u64;
                // Lengths 9 and 2 are shorter than the longest scale (and
                // 2 than every scale): the padding path.
                let views_a = vec![
                    tie_heavy_series(d, 40, seed),
                    Tensor::randn([d, 9], &mut seeded(seed + 1)),
                    Tensor::randn([d, 2], &mut seeded(seed + 2)),
                ];
                let views_b = vec![
                    views_a[0].clone(),
                    Tensor::randn([d, 9], &mut seeded(seed + 3)),
                    tie_heavy_series(d, 25, seed + 4),
                ];
                for (a, b_side) in [(&views_a, &views_b), (&views_a, &views_a)] {
                    let got = pair_bits(&b, a, b_side, true);
                    let want = pair_bits(&b, a, b_side, false);
                    assert_eq!(got, want, "d={d} stride={stride}");
                }
            }
        }
    }

    #[test]
    fn identical_sides_pool_each_distinct_view_once() {
        let b = bank(1);
        let mut rng = seeded(15);
        let views: Vec<Tensor> = (0..3).map(|_| Tensor::randn([1, 30], &mut rng)).collect();
        let values: Vec<&Tensor> = b.groups().iter().map(|grp| &grp.shapelets).collect();
        let pair: Vec<&Tensor> = views.iter().chain(&views).collect();
        let one_side: Vec<&Tensor> = views.iter().collect();
        let scopes = pool_scopes(&b, &values, &[pair, one_side]);
        let shared = |x: &PooledView, y: &PooledView| {
            let same: Vec<bool> = x.iter().zip(y).map(|(p, q)| Arc::ptr_eq(p, q)).collect();
            assert!(
                same.iter().all(|&s| s == same[0]),
                "views share some ops only"
            );
            same[0]
        };
        // Each side-b view reuses its side-a twin's pooled forward, and the
        // three distinct views were pooled separately.
        assert_eq!(scopes[0].len(), 6);
        for i in 0..3 {
            assert!(shared(&scopes[0][i], &scopes[0][i + 3]));
            for j in 0..3 {
                assert_eq!(shared(&scopes[0][i], &scopes[0][j]), i == j);
            }
        }
        // Dedupe is scoped: the second scope pools the same values again.
        assert!(!shared(&scopes[0][0], &scopes[1][0]));
        // A prefix of a longer view is not the same view.
        let prefix = Tensor::from_vec(views[0].as_slice()[..20].to_vec(), [1, 20]);
        let scopes = pool_scopes(&b, &values, &[vec![&views[0], &prefix]]);
        assert!(!shared(&scopes[0][0], &scopes[0][1]));
    }

    #[test]
    fn fused_batch_matches_oracle_batch() {
        let b = bank(1);
        let mut rng = seeded(16);
        let batch = [
            Tensor::randn([1, 18], &mut rng),
            Tensor::randn([1, 18], &mut rng),
        ];
        let mut g = Graph::new();
        let bound = bind_trainable(&mut g, &b);
        let fused = diff_features_batch(&mut g, &b, &bound, &batch);
        let oracle = diff_features_batch_oracle(&mut g, &b, &bound, &batch);
        let (fv, ov) = (g.value(fused).clone(), g.value(oracle).clone());
        for (&f, &o) in fv.as_slice().iter().zip(ov.as_slice()) {
            assert!((f - o).abs() < 1e-4);
        }
        assert_eq!(DiffPath::default(), DiffPath::Fused);
    }

    #[test]
    fn gradients_reach_every_group() {
        let b = bank(1);
        let mut rng = seeded(5);
        let series = TimeSeries::new(Tensor::randn([1, 24], &mut rng));
        let mut g = Graph::new();
        let bound = bind_trainable(&mut g, &b);
        let feats = diff_features(&mut g, &b, &bound, series.values());
        let sq = g.square(feats);
        let loss = g.mean_all(sq);
        let grads = g.backward(loss);
        for (gi, &id) in bound.group_vars.iter().enumerate() {
            let grad = grads
                .get(id)
                .unwrap_or_else(|| panic!("no grad for group {gi}"));
            assert!(grad.norm_sq() > 0.0, "zero grad for group {gi}");
        }
    }

    #[test]
    fn frozen_bank_gets_no_gradients() {
        let b = bank(1);
        let mut rng = seeded(6);
        let series = TimeSeries::new(Tensor::randn([1, 24], &mut rng));
        let mut g = Graph::new();
        let bound = bind_frozen(&mut g, &b);
        let feats = diff_features(&mut g, &b, &bound, series.values());
        let loss = g.mean_all(feats);
        let grads = g.backward(loss);
        assert!(grads.get(bound.group_vars[0]).is_none());
    }

    #[test]
    fn shapelet_gradcheck_through_full_transform() {
        // Finite-difference check of d(loss)/d(shapelets) through the whole
        // euclidean+cosine+xcorr pipeline (fused custom-op path).
        let cfg = ShapeletConfig {
            lengths: vec![3],
            k_per_group: 2,
            measures: Measure::ALL.to_vec(),
            stride: 1,
        };
        let mut b = ShapeletBank::new(&cfg, 1);
        b.randomize(&mut seeded(7));
        let mut rng = seeded(8);
        let series = Tensor::randn([1, 10], &mut rng);

        let inputs: Vec<Tensor> = b.groups().iter().map(|g| g.shapelets.clone()).collect();
        let report = tcsl_autodiff::gradcheck::gradcheck(&inputs, 1e-3, |g, xs| {
            let bound = BoundBank {
                group_vars: xs.iter().map(|x| g.param(x.clone())).collect(),
            };
            let feats = diff_features(g, &b, &bound, &series);
            let sq = g.square(feats);
            let loss = g.mean_all(sq);
            (bound.group_vars.clone(), loss)
        });
        assert!(
            report.passes(3e-2),
            "gradcheck failed: abs={} rel={}",
            report.max_abs_err,
            report.max_rel_err
        );
    }

    #[test]
    fn fused_gradients_match_oracle_gradients() {
        // Same loss through both paths → same parameter gradients (the
        // custom op's analytic backward vs the oracle graph's composed
        // backward rules).
        let b = bank(2);
        let mut rng = seeded(17);
        let batch = [
            Tensor::randn([2, 21], &mut rng),
            Tensor::randn([2, 17], &mut rng),
        ];
        let grads_of = |use_oracle: bool| {
            let mut g = Graph::new();
            let bound = bind_trainable(&mut g, &b);
            let feats = if use_oracle {
                diff_features_batch_oracle(&mut g, &b, &bound, &batch)
            } else {
                diff_features_batch(&mut g, &b, &bound, &batch)
            };
            let sq = g.square(feats);
            let loss = g.mean_all(sq);
            let grads = g.backward(loss);
            bound
                .group_vars
                .iter()
                .map(|&id| grads.get(id).unwrap().clone())
                .collect::<Vec<_>>()
        };
        let fused = grads_of(false);
        let oracle = grads_of(true);
        for (gi, (f, o)) in fused.iter().zip(&oracle).enumerate() {
            for (i, (&fv, &ov)) in f.as_slice().iter().zip(o.as_slice()).enumerate() {
                assert!(
                    (fv - ov).abs() < 1e-4,
                    "group {gi} grad {i}: fused={fv} oracle={ov}"
                );
            }
        }
    }

    #[test]
    fn batch_features_stack_rows() {
        let b = bank(1);
        let mut rng = seeded(9);
        let s1 = Tensor::randn([1, 15], &mut rng);
        let s2 = Tensor::randn([1, 18], &mut rng);
        let mut g = Graph::new();
        let bound = bind_trainable(&mut g, &b);
        let feats = diff_features_batch(&mut g, &b, &bound, &[s1.clone(), s2]);
        assert_eq!(g.value(feats).rows(), 2);
        // Row 0 equals the single-series features of s1.
        let mut g2 = Graph::new();
        let bound2 = bind_trainable(&mut g2, &b);
        let f1 = diff_features(&mut g2, &b, &bound2, &s1);
        for (a, bv) in g.value(feats).row(0).iter().zip(g2.value(f1).as_slice()) {
            assert!((a - bv).abs() < 1e-6);
        }
    }

    #[test]
    fn bind_values_matches_bind_trainable() {
        let b = bank(1);
        let mut rng = seeded(10);
        let series = TimeSeries::new(Tensor::randn([1, 20], &mut rng));
        let snapshot: Vec<Tensor> = b.groups().iter().map(|g| g.shapelets.clone()).collect();

        let mut g1 = Graph::new();
        let bound1 = bind_trainable(&mut g1, &b);
        let f1 = diff_features(&mut g1, &b, &bound1, series.values());

        let mut g2 = Graph::new();
        let bound2 = bind_values(&mut g2, &snapshot);
        let f2 = diff_features(&mut g2, &b, &bound2, series.values());

        assert_eq!(g1.value(f1), g2.value(f2));
        // Snapshot-bound parameters still receive gradients.
        let sq = g2.square(f2);
        let loss = g2.mean_all(sq);
        let grads = g2.backward(loss);
        assert!(grads.get(bound2.group_vars[0]).is_some());
    }

    #[test]
    fn write_back_updates_bank() {
        let mut b = bank(1);
        let new: Vec<Tensor> = b
            .groups()
            .iter()
            .map(|g| Tensor::full(g.shapelets.shape().clone(), 0.25))
            .collect();
        write_back(&mut b, &new);
        assert!(b
            .groups()
            .iter()
            .all(|g| g.shapelets.as_slice().iter().all(|&x| x == 0.25)));
    }
}
