//! `ShapeletDistanceOp` — the fused shapelet-transform kernel as a custom
//! autodiff operator, so training differentiates the *same* streaming code
//! path inference runs (one kernel, two modes).
//!
//! The eager-graph formulation (kept as
//! [`crate::diff_transform::oracle`]) inserts an `(N_w × D·len)` unfolded
//! window matrix as a constant leaf per scale, per series, per worker
//! graph, per batch — the exact materialization the fused inference kernel
//! eliminated. This op instead:
//!
//! * **pools before it is inserted** — [`ShapeletDistanceOp::pool`] runs
//!   one (scale, measure) group over a [`ScaleWindows`] via
//!   [`pool_measure`] (streaming dots, prefix-sum window norms, bank-side
//!   tap repack from [`GroupPrecomp`]) and keeps the pooled features, the
//!   best-window index per shapelet and that window's inverse norm. The
//!   batch forward in [`crate::diff_transform`] does this once per
//!   distinct view, so `forward` only replays the stored features;
//! * **backward** — routes the adjoint of each pooled feature to its best
//!   window only (the min/max-pooling subgradient) and applies the
//!   per-measure analytic rule against that one window, read straight out
//!   of the padded view ([`window_row_into`]) — peak memory is one
//!   `D·len` scratch row, never `N_w × D·len`.
//!
//! The numerics match the oracle graph exactly, epsilon for epsilon:
//! Euclidean applies the oracle's `sqrt(· + 1e-8)` softening on top of the
//! fused kernel's `sqrt(·)` pooled value (argmin is invariant under the
//! monotone map `p ↦ √(p²+ε)`, so the recorded best window is the oracle's
//! too), cosine uses the shared `1e-12` norm floors on both sides.
//! Gradients are finite-difference checked per measure × stride and
//! property-pinned to the oracle graph's gradients in `crate::proptests`.

// Exempt from the error wall (clippy.toml) — autodiff op internals: width
// invariants are construction-time guarantees, not request input.
#![allow(clippy::disallowed_methods, clippy::disallowed_macros)]

use std::fmt;
use std::sync::Arc;

use crate::bank::GroupPrecomp;
use crate::fused::{pool_measure, ScaleWindows};
use crate::measure::Measure;
use tcsl_autodiff::CustomOp;
use tcsl_tensor::window::window_row_into;
use tcsl_tensor::Tensor;

/// The epsilon of the oracle graph's `sqrt_eps` on the Euclidean branch —
/// keeps the distance gradient finite at exact matches.
pub const EUCLIDEAN_SQRT_EPS: f32 = 1e-8;

/// One (scale, measure) group's pooled shapelet distances as a single tape
/// node: input `(K, D·len)` shapelets, output `(1, K)` pooled features.
///
/// The op carries its forward: it is built by [`Self::pool`] against the
/// shapelet values the graph binds, and `forward` returns those features
/// without pooling again. It is immutable, so one `Arc` may back several
/// graph nodes (the identical views of a contrastive pair share theirs).
pub struct ShapeletDistanceOp {
    /// The view the windows were read from, zero-padded to at least the
    /// scale's length. Padding beyond the scale's own `pad_to_len` is
    /// zeros too, so every window reads the same values either way.
    view: Arc<Tensor>,
    len: usize,
    stride: usize,
    measure: Measure,
    /// Pooled feature per shapelet (Euclidean already softened).
    pooled: Vec<f32>,
    /// Best-window index per shapelet.
    args: Vec<usize>,
    /// `1 / √(‖w*‖² + 1e-12)` of each shapelet's best window (cosine's
    /// window-side factor).
    best_inv_norms: Vec<f32>,
}

impl ShapeletDistanceOp {
    /// Pools the group's shapelets (`pre`, built from the values the graph
    /// will bind) over one scale's windows of `view`. `sw` must be that
    /// scale's [`ScaleWindows`] of the same series; `view` may be padded
    /// further than `sw.padded`. Euclidean applies the oracle path's
    /// `sqrt_eps` softening to the pooled value (the argmin is unaffected —
    /// see the module docs).
    pub fn pool(
        view: Arc<Tensor>,
        sw: &ScaleWindows,
        measure: Measure,
        pre: &GroupPrecomp,
    ) -> Self {
        debug_assert!(view.rows() == sw.padded.rows() && view.cols() >= sw.padded.cols());
        let (mut pooled, args) = pool_measure(sw, measure, pre);
        if measure == Measure::Euclidean {
            for p in &mut pooled {
                *p = (*p * *p + EUCLIDEAN_SQRT_EPS).sqrt();
            }
        }
        let best_inv_norms = args.iter().map(|&a| sw.inv_norms[a]).collect();
        ShapeletDistanceOp {
            view,
            len: sw.len,
            stride: sw.stride,
            measure,
            pooled,
            args,
            best_inv_norms,
        }
    }
}

impl fmt::Debug for ShapeletDistanceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ShapeletDistanceOp({:?}, len={}, stride={}, k={})",
            self.measure,
            self.len,
            self.stride,
            self.pooled.len()
        )
    }
}

impl CustomOp for ShapeletDistanceOp {
    fn forward(&self, inputs: &[&Tensor]) -> Tensor {
        assert_eq!(inputs.len(), 1, "ShapeletDistanceOp takes one input");
        let shapelets = inputs[0];
        assert_eq!(
            shapelets.cols(),
            self.view.rows() * self.len,
            "shapelet width must be D·len"
        );
        assert_eq!(shapelets.rows(), self.pooled.len(), "shapelet count");
        Tensor::from_vec(self.pooled.clone(), [1, self.pooled.len()])
    }

    fn backward(
        &self,
        grad_out: &Tensor,
        inputs: &[&Tensor],
        output: &Tensor,
    ) -> Vec<Option<Tensor>> {
        let shapelets = inputs[0];
        let k = shapelets.rows();
        let row_w = shapelets.cols();
        let width = row_w as f32;

        let g = grad_out.as_slice();
        let out = output.as_slice();
        let mut grad = Tensor::zeros([k, row_w]);
        // Best-window scratch row, reused across shapelets.
        let mut wrow = vec![0.0f32; row_w];
        for kk in 0..k {
            let gk = g[kk];
            if gk == 0.0 {
                continue;
            }
            window_row_into(&self.view, self.args[kk] * self.stride, self.len, &mut wrow);
            let srow = shapelets.row(kk);
            let drow = grad.row_mut(kk);
            match self.measure {
                Measure::Euclidean => {
                    // f = √(max(d², 0)/width + ε), d² = ‖w* − s‖².
                    // ∂f/∂s = (s − w*) / (width·f), gated on d² > 0 (the
                    // oracle's relu subgradient); d² > 0 ⟺ f² > ε.
                    let f = out[kk];
                    if f * f > EUCLIDEAN_SQRT_EPS {
                        let scale = gk / (width * f);
                        for (d, (&s, &w)) in drow.iter_mut().zip(srow.iter().zip(wrow.iter())) {
                            *d = scale * (s - w);
                        }
                    }
                }
                Measure::Cosine => {
                    // f = ŵ*·ŝ with ŵ = w/√(‖w‖²+1e-12), ŝ = s/n,
                    // n = √(‖s‖²+1e-12). ∂f/∂s = (ŵ* − ŝ·f)/n — the
                    // tangent-space gradient of the oracle's row_normalize.
                    let inv_w = self.best_inv_norms[kk];
                    let s_sq: f32 = srow.iter().map(|&x| x * x).sum();
                    let n = (s_sq + 1e-12).sqrt();
                    let f = out[kk];
                    let scale = gk / n;
                    for (d, (&s, &w)) in drow.iter_mut().zip(srow.iter().zip(wrow.iter())) {
                        *d = scale * (w * inv_w - (s / n) * f);
                    }
                }
                Measure::CrossCorrelation => {
                    // f = (w*·s)/width → ∂f/∂s = w*/width.
                    let scale = gk / width;
                    for (d, &w) in drow.iter_mut().zip(wrow.iter()) {
                        *d = scale * w;
                    }
                }
            }
        }
        vec![Some(grad)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcsl_autodiff::gradcheck::gradcheck;
    use tcsl_autodiff::Graph;
    use tcsl_tensor::rng::seeded;

    /// The op for one series at one scale and measure, pooled against
    /// `shapelets` over the series padded to the scale's own length.
    fn op_for(
        series: &Tensor,
        len: usize,
        stride: usize,
        measure: Measure,
        shapelets: &Tensor,
    ) -> Arc<ShapeletDistanceOp> {
        let sw = ScaleWindows::new(series, len, stride);
        let view = Arc::new(sw.padded.clone());
        Arc::new(ShapeletDistanceOp::pool(
            view,
            &sw,
            measure,
            &GroupPrecomp::of(shapelets),
        ))
    }

    /// Finite-difference check of the analytic backward through a square +
    /// mean head (so every feature contributes a distinct adjoint). The op
    /// is pooled inside the closure, against each perturbed input.
    fn check_gradients(series: &Tensor, shapelets: Tensor, len: usize, stride: usize, m: Measure) {
        let report = gradcheck(&[shapelets], 1e-3, |g, xs| {
            let s = g.param(xs[0].clone());
            let feats = g.custom(op_for(series, len, stride, m, &xs[0]), &[s]);
            let sq = g.square(feats);
            let loss = g.mean_all(sq);
            (vec![s], loss)
        });
        assert!(
            report.passes(3e-2),
            "{m:?} len {len} stride {stride}: gradcheck failed abs={} rel={}",
            report.max_abs_err,
            report.max_rel_err
        );
    }

    #[test]
    fn gradcheck_every_measure_and_stride() {
        for (i, &measure) in Measure::ALL.iter().enumerate() {
            for stride in 1..=3 {
                let seed = 40 + (i * 3 + stride) as u64;
                let mut rng = seeded(seed);
                let d = 1 + (seed as usize) % 2;
                let len = 4;
                let series = Tensor::randn([d, 19], &mut rng);
                let shapelets = Tensor::randn([3, d * len], &mut rng).scale(0.6);
                check_gradients(&series, shapelets, len, stride, measure);
            }
        }
    }

    #[test]
    fn gradcheck_on_padded_short_series() {
        // Series shorter than the scale: one zero-padded window, so the
        // arg-routing is trivial but the padding path must still have the
        // right gradient.
        for &measure in Measure::ALL.iter() {
            let mut rng = seeded(60);
            let series = Tensor::randn([1, 3], &mut rng);
            let shapelets = Tensor::randn([2, 6], &mut rng).scale(0.5);
            check_gradients(&series, shapelets, 6, 1, measure);
        }
    }

    #[test]
    fn forward_output_is_one_row_per_group() {
        let mut rng = seeded(61);
        let series = Tensor::randn([2, 30], &mut rng);
        let shapelets = Tensor::randn([5, 2 * 4], &mut rng);
        let mut g = Graph::new();
        let op = op_for(&series, 4, 1, Measure::Euclidean, &shapelets);
        let s = g.param(shapelets);
        let feats = g.custom(op, &[s]);
        let v = g.value(feats);
        assert_eq!(v.shape().dims(), &[1, 5]);
        assert!(v.as_slice().iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn two_backward_sweeps_give_identical_gradients() {
        // The op keeps its forward state instead of handing it to the
        // first sweep, so a second sweep over the same tape sees the same
        // best windows and produces identical gradients.
        let mut rng = seeded(62);
        let series = Tensor::randn([1, 25], &mut rng);
        let shapelets = Tensor::randn([3, 5], &mut rng);
        let mut g = Graph::new();
        let op = op_for(&series, 5, 2, Measure::Cosine, &shapelets);
        let s = g.param(shapelets);
        let feats = g.custom(op, &[s]);
        let sq = g.square(feats);
        let loss = g.mean_all(sq);
        let g1 = g.backward(loss);
        let g2 = g.backward(loss);
        assert_eq!(
            g1.get(s).unwrap().as_slice(),
            g2.get(s).unwrap().as_slice(),
            "second sweep diverged from the first"
        );
    }
}
