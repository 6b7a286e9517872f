//! The fused streaming shapelet-transform kernel.
//!
//! The unfold-based formulation ([`Measure::score_matrix`]) materializes an
//! `(N_w × D·len)` window matrix per scale — for stride-1 windows a ~`len`×
//! memory blowup — then re-derives shapelet norms per series. This module
//! replaces it on the hot path:
//!
//! * **Zero-materialization windows** — per-shapelet dot products read the
//!   overlapping windows directly out of the original contiguous series
//!   buffer ([`tcsl_tensor::window::window_dot`]).
//! * **Across-window short rows** — stride-1 scales shorter than the FMA
//!   threshold ([`tcsl_tensor::window::across_windows`]) pool shapelet by
//!   shapelet through [`tcsl_tensor::window::sliding_dots`], which scores
//!   eight windows per tap pass on AVX2. Its values are bit-identical to
//!   the per-window kernels, and windows are still scored in ascending
//!   order, so pooled values and argmin ties do not depend on which path
//!   ran.
//! * **Prefix-sum window norms** — one O(T) pass per scale
//!   ([`tcsl_tensor::window::window_sq_norms`]) yields `‖w‖²` in O(1) per
//!   window, shared by all shapelets and measures of the scale
//!   ([`ScaleWindows`]).
//! * **Bank-side precomputation** — shapelet row norms come from
//!   [`ShapeletBank::precomputed`](crate::ShapeletBank::precomputed), once
//!   per bank instead of once per series.
//! * **Blocked fallback** — when the series is too large to stay cache
//!   resident across the per-shapelet passes, windows are copied in small
//!   tiles (a bounded scratch buffer, reused across tiles) and scored
//!   matmul-style ([`TILE_WINDOWS`]).
//!
//! Peak per-series allocation is O(S·(D·T + N_w) + K) for S scales — the
//! transform builds every scale's [`ScaleWindows`] before its groups fan
//! out — and has no term proportional to `N_w × D·len`. All engines
//! funnel scoring through [`Measure::finish`], and agree with the unfold
//! oracle to f32 round-off (property-tested in `crate::proptests`). The
//! f32 fused engine ([`pool_rows`]) and its localization sibling
//! ([`row_scores`]) also serve the quantized bank's sub-`QUANT_MIN_LEN`
//! rows, so there is one short-row path.

use crate::bank::{GroupPrecomp, ShapeletGroup};
use crate::measure::Measure;
use crate::transform::pad_to_len;
use tcsl_tensor::matmul::count_dot_dispatch;
use tcsl_tensor::window::{
    across_windows, count_sliding_dispatch, count_windows, sliding_dots, window_dot, window_dot4,
    window_sq_norms,
};
use tcsl_tensor::Tensor;

/// Series-side state for one (scale, stride): the padded series plus the
/// prefix-sum-derived per-window norms every measure of the scale shares.
pub struct ScaleWindows {
    /// Window length (= shapelet length of the scale).
    pub len: usize,
    /// Window stride.
    pub stride: usize,
    /// Number of windows.
    pub n: usize,
    /// The `(D, max(T, len))` series buffer windows are read from (equal to
    /// the raw series whenever it is at least `len` long).
    pub padded: Tensor,
    /// `‖w‖²` per window, from the O(T) prefix-sum pass.
    pub sq_norms: Vec<f32>,
    /// `1 / √(‖w‖² + 1e-12)` per window (cosine's window-side factor).
    pub inv_norms: Vec<f32>,
}

impl ScaleWindows {
    /// Builds the per-scale state for a `(D, T)` series: zero-pads short
    /// series (so every scale yields at least one window, matching
    /// [`crate::transform::windows_for`]) and runs the prefix-sum norm
    /// pass.
    pub fn new(values: &Tensor, len: usize, stride: usize) -> ScaleWindows {
        let padded = pad_to_len(values, len);
        let n = count_windows(padded.cols(), len, stride);
        let sq_norms = window_sq_norms(&padded, len, stride);
        let inv_norms = sq_norms.iter().map(|&w| 1.0 / (w + 1e-12).sqrt()).collect();
        ScaleWindows {
            len,
            stride,
            n,
            padded,
            sq_norms,
            inv_norms,
        }
    }

    /// Whether this state serves groups of the given scale/stride.
    pub fn matches(&self, len: usize, stride: usize) -> bool {
        self.len == len && self.stride == stride
    }
}

/// Windows per tile of the blocked fallback path: 64 windows × D·len f32
/// keeps the scratch tile in L1/L2 while amortizing each window copy over
/// all `K` shapelets of the group.
pub const TILE_WINDOWS: usize = 64;

/// Series bytes above which the blocked path takes over: beyond ~1 MiB the
/// per-shapelet streaming passes fall out of L2 and re-copying windows
/// tile-by-tile (one pass over the series, K dots per copied window) wins.
pub const BLOCKED_SERIES_BYTES: usize = 1 << 20;

/// Pools one group over a series: the per-shapelet best score plus the
/// best window index, computed without materializing the window matrix.
/// Equivalent to `score_matrix` + `pool` (the property-tested contract).
pub fn pool_group(
    sw: &ScaleWindows,
    g: &ShapeletGroup,
    pre: &GroupPrecomp,
) -> (Vec<f32>, Vec<usize>) {
    debug_assert!(sw.matches(g.len, g.stride));
    debug_assert_eq!(pre.sq_norms.len(), g.k());
    pool_measure(sw, g.measure, pre)
}

/// [`pool_group`] addressed by measure alone: the shapelet side is fully
/// described by the precomputation (tap rows + norms), so callers that hold
/// shapelet values outside a [`ShapeletGroup`] — the training-path custom
/// op differentiates graph-bound parameter tensors — pool through here.
pub fn pool_measure(
    sw: &ScaleWindows,
    measure: Measure,
    pre: &GroupPrecomp,
) -> (Vec<f32>, Vec<usize>) {
    let series_bytes = sw.padded.numel() * core::mem::size_of::<f32>();
    if pre.sq_norms.len() > 1 && series_bytes > BLOCKED_SERIES_BYTES {
        tcsl_obs::counters::SHAPELET_POOL_BLOCKED.add(1);
        pool_group_blocked(sw, measure, pre)
    } else {
        tcsl_obs::counters::SHAPELET_POOL_FUSED.add(1);
        pool_group_fused(sw, measure, pre)
    }
}

/// Per-window scores of a single shapelet of the group — the streaming
/// replacement for one `score_matrix` column, used by best-match
/// localization (which needs every window's score, not just the pooled
/// one). Computed by [`row_scores`], so the score of shapelet `k` here is
/// bit-identical to the one [`pool_group_fused`] pooled over —
/// localization provably explains the feature value.
pub fn shapelet_scores(
    sw: &ScaleWindows,
    g: &ShapeletGroup,
    pre: &GroupPrecomp,
    k: usize,
) -> Vec<f32> {
    assert!(
        k < g.k(),
        "shapelet {k} out of range for group of {}",
        g.k()
    );
    row_scores(sw, g.measure, &pre.sq_norms, &pre.inv_norms, k, |r| {
        pre.tap_row(r)
    })
}

/// Per-window scores of shapelet `k` of a set of f32 tap rows (`row(r)`
/// is row `r`, `sq_norms`/`inv_norms` its norms) — the localization
/// sibling of [`pool_rows`], computing each cross term with the same
/// kernel: [`sliding_dots`] for [`across_windows`] shapes, else the same
/// 4-row block (via [`window_dot4`]) or lone [`window_dot`] pooling used.
pub(crate) fn row_scores<'a>(
    sw: &ScaleWindows,
    measure: Measure,
    sq_norms: &[f32],
    inv_norms: &[f32],
    k: usize,
    row: impl Fn(usize) -> &'a [f32],
) -> Vec<f32> {
    let d = sw.padded.rows();
    let width = (d * sw.len) as f32;
    let (s_sq, s_inv) = (sq_norms[k], inv_norms[k]);
    let mut out = Vec::with_capacity(sw.n);
    if across_windows(sw.len, sw.stride) {
        count_sliding_dispatch(d, sw.len, sw.stride, sw.n, 1);
        sliding_dots(&sw.padded, row(k), sw.len, sw.stride, &mut out);
        for (w, c) in out.iter_mut().enumerate() {
            *c = score(measure, *c, sw, w, s_sq, s_inv, width);
        }
        return out;
    }
    let full = sq_norms.len() - sq_norms.len() % 4;
    if k < full {
        count_dot_dispatch(sw.len, (4 * d * sw.n) as u64);
        let kb = k / 4 * 4;
        let j = k - kb;
        let taps = [row(kb), row(kb + 1), row(kb + 2), row(kb + 3)];
        for w in 0..sw.n {
            let cross = window_dot4(&sw.padded, taps, w * sw.stride, sw.len)[j];
            out.push(score(measure, cross, sw, w, s_sq, s_inv, width));
        }
    } else {
        count_dot_dispatch(sw.len, (d * sw.n) as u64);
        let taps = row(k);
        for w in 0..sw.n {
            let cross = window_dot(&sw.padded, taps, w * sw.stride, sw.len);
            out.push(score(measure, cross, sw, w, s_sq, s_inv, width));
        }
    }
    out
}

/// One (window, shapelet) score. Mirrors [`Measure::finish`] exactly —
/// cosine uses the cached inverse norms, which are bit-identical to the
/// ones `finish` derives — so every engine produces the same value for the
/// same raw dot product. Shared with the quantized engines
/// ([`crate::quant`]), which differ only in the dot kernel.
#[inline]
pub(crate) fn score(
    m: Measure,
    cross: f32,
    sw: &ScaleWindows,
    w: usize,
    s_sq: f32,
    s_inv: f32,
    width: f32,
) -> f32 {
    match m {
        Measure::Euclidean => (((sw.sq_norms[w] - 2.0 * cross + s_sq).max(0.0)) / width).sqrt(),
        Measure::Cosine => cross * sw.inv_norms[w] * s_inv,
        Measure::CrossCorrelation => cross / width,
    }
}

/// Fully fused engine: shapelet-major, O(1) extra memory beyond one
/// `N_w`-float scratch row. Best when the series fits in cache (the common
/// case — a 4k-step univariate series is 16 KiB). See [`pool_rows`].
pub(crate) fn pool_group_fused(
    sw: &ScaleWindows,
    measure: Measure,
    pre: &GroupPrecomp,
) -> (Vec<f32>, Vec<usize>) {
    pool_rows(sw, measure, &pre.sq_norms, &pre.inv_norms, |r| {
        pre.tap_row(r)
    })
}

/// The fused engine over f32 tap rows (`row(r)` is row `r`,
/// `sq_norms`/`inv_norms` its norms). Short stride-1 scales
/// ([`across_windows`]) take one [`sliding_dots`] pass per shapelet into a
/// reused scratch row, then score its windows in ascending order. Every
/// other scale takes one streaming pass per block of 4 shapelets (the
/// load-sharing [`window_dot4`] kernel keeps the window in registers
/// across the block) and [`window_dot`] for the remainder. Both paths
/// produce the same bits and argmins; only the kernel differs.
pub(crate) fn pool_rows<'a>(
    sw: &ScaleWindows,
    measure: Measure,
    sq_norms: &[f32],
    inv_norms: &[f32],
    row: impl Fn(usize) -> &'a [f32],
) -> (Vec<f32>, Vec<usize>) {
    let d = sw.padded.rows();
    let width = (d * sw.len) as f32;
    let k = sq_norms.len();
    let mut pooled = vec![f32::NAN; k];
    let mut args = vec![0usize; k];
    let mut update = |kk: usize, w: usize, cross: f32| {
        let s = score(measure, cross, sw, w, sq_norms[kk], inv_norms[kk], width);
        if w == 0 || measure.better(s, pooled[kk]) {
            pooled[kk] = s;
            args[kk] = w;
        }
    };
    // One gate check for the whole pool call: k rows of dots, one
    // shape-only dispatch decision shared by every one of them.
    if across_windows(sw.len, sw.stride) {
        count_sliding_dispatch(d, sw.len, sw.stride, sw.n, k);
        let mut cross = Vec::with_capacity(sw.n);
        for kk in 0..k {
            cross.clear();
            sliding_dots(&sw.padded, row(kk), sw.len, sw.stride, &mut cross);
            for (w, &c) in cross.iter().enumerate() {
                update(kk, w, c);
            }
        }
    } else {
        count_dot_dispatch(sw.len, (k * d * sw.n) as u64);
        let full = k - k % 4;
        for kb in (0..full).step_by(4) {
            let taps = [row(kb), row(kb + 1), row(kb + 2), row(kb + 3)];
            for w in 0..sw.n {
                let cross = window_dot4(&sw.padded, taps, w * sw.stride, sw.len);
                for (j, &c) in cross.iter().enumerate() {
                    update(kb + j, w, c);
                }
            }
        }
        for kk in full..k {
            let taps = row(kk);
            for w in 0..sw.n {
                update(kk, w, window_dot(&sw.padded, taps, w * sw.stride, sw.len));
            }
        }
    }
    (pooled, args)
}

/// Blocked fallback engine: copies windows into a bounded scratch tile
/// (reused across tiles, never `N_w` rows at once) and scores each copied
/// row against all `K` shapelets before moving on — one pass over the
/// series total, which wins once the series no longer stays cache resident
/// across `K` streaming passes.
pub(crate) fn pool_group_blocked(
    sw: &ScaleWindows,
    measure: Measure,
    pre: &GroupPrecomp,
) -> (Vec<f32>, Vec<usize>) {
    let d = sw.padded.rows();
    let len = sw.len;
    let row_w = d * len;
    let width = row_w as f32;
    let k = pre.sq_norms.len();
    // Blocked rows are the full d·len window, so dispatch is on row_w.
    count_dot_dispatch(row_w, (k * sw.n) as u64);
    let mut pooled = vec![f32::NAN; k];
    let mut args = vec![0usize; k];
    let mut tile = vec![0.0f32; TILE_WINDOWS.min(sw.n) * row_w];
    let mut tile_start = 0usize;
    while tile_start < sw.n {
        let tile_n = TILE_WINDOWS.min(sw.n - tile_start);
        for (r, buf) in tile.chunks_mut(row_w).take(tile_n).enumerate() {
            let start = (tile_start + r) * sw.stride;
            for v in 0..d {
                buf[v * len..(v + 1) * len].copy_from_slice(&sw.padded.row(v)[start..start + len]);
            }
        }
        for r in 0..tile_n {
            let w = tile_start + r;
            let row = &tile[r * row_w..(r + 1) * row_w];
            for (j, (p, a)) in pooled.iter_mut().zip(args.iter_mut()).enumerate() {
                let cross = tcsl_tensor::matmul::dot(row, pre.tap_row(j));
                let s = score(
                    measure,
                    cross,
                    sw,
                    w,
                    pre.sq_norms[j],
                    pre.inv_norms[j],
                    width,
                );
                if w == 0 || measure.better(s, *p) {
                    *p = s;
                    *a = w;
                }
            }
        }
        tile_start += tile_n;
    }
    (pooled, args)
}

/// Test oracle for the short-row path: the block-of-4 fused loop on every
/// scale — blocks of 4 shapelets via [`window_dot4`], the remainder via
/// [`window_dot`]. Returns the pooled values, argmins and every per-window
/// score (`scores[k][w]`).
#[cfg(test)]
#[allow(clippy::type_complexity)]
pub(crate) fn dot4_loop_oracle<'a>(
    sw: &ScaleWindows,
    measure: Measure,
    sq_norms: &[f32],
    inv_norms: &[f32],
    row: impl Fn(usize) -> &'a [f32],
) -> (Vec<f32>, Vec<usize>, Vec<Vec<f32>>) {
    let d = sw.padded.rows();
    let width = (d * sw.len) as f32;
    let k = sq_norms.len();
    let mut pooled = vec![f32::NAN; k];
    let mut args = vec![0usize; k];
    let mut scores = vec![Vec::with_capacity(sw.n); k];
    let full = k - k % 4;
    for kb in (0..full).step_by(4) {
        let taps = [row(kb), row(kb + 1), row(kb + 2), row(kb + 3)];
        for w in 0..sw.n {
            let cross = window_dot4(&sw.padded, taps, w * sw.stride, sw.len);
            for (j, &c) in cross.iter().enumerate() {
                let kk = kb + j;
                let s = score(measure, c, sw, w, sq_norms[kk], inv_norms[kk], width);
                scores[kk].push(s);
                if w == 0 || measure.better(s, pooled[kk]) {
                    pooled[kk] = s;
                    args[kk] = w;
                }
            }
        }
    }
    for kk in full..k {
        let taps = row(kk);
        for w in 0..sw.n {
            let cross = window_dot(&sw.padded, taps, w * sw.stride, sw.len);
            let s = score(measure, cross, sw, w, sq_norms[kk], inv_norms[kk], width);
            scores[kk].push(s);
            if w == 0 || measure.better(s, pooled[kk]) {
                pooled[kk] = s;
                args[kk] = w;
            }
        }
    }
    (pooled, args, scores)
}

/// Test inputs for the bit-identity checks: random values with a
/// periodic stretch (identical windows, so exact argmin ties), a zero run
/// (all-zero windows) and signed zeros.
#[cfg(test)]
pub(crate) fn tie_heavy_series(d: usize, t: usize, seed: u64) -> Tensor {
    let mut v = Tensor::randn([d, t], &mut tcsl_tensor::rng::seeded(seed)).into_vec();
    for (i, x) in v.iter_mut().enumerate() {
        let ti = i % t;
        if ti < t / 3 {
            *x = [0.5, -1.0, 0.25, 2.0, -0.0][ti % 5];
        } else if ti < t / 2 {
            *x = if ti.is_multiple_of(2) { 0.0 } else { -0.0 };
        }
    }
    Tensor::from_vec(v, [d, t])
}

#[cfg(test)]
pub(crate) fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs {w}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShapeletConfig;
    use crate::transform::windows_for;
    use crate::ShapeletBank;
    use tcsl_tensor::rng::seeded;

    fn setup(d: usize, t: usize, len: usize, stride: usize, k: usize) -> (ShapeletBank, Tensor) {
        let cfg = ShapeletConfig {
            lengths: vec![len],
            k_per_group: k,
            measures: Measure::ALL.to_vec(),
            stride,
        };
        let mut rng = seeded(11);
        let mut bank = ShapeletBank::new(&cfg, d);
        bank.randomize(&mut rng);
        let series = Tensor::randn([d, t], &mut rng);
        (bank, series)
    }

    fn oracle(g: &ShapeletGroup, series: &Tensor) -> (Vec<f32>, Vec<usize>) {
        let windows = windows_for(series, g.len, g.stride);
        let scores = g.measure.score_matrix(&windows, &g.shapelets);
        let (pooled, a) = g.measure.pool(&scores);
        (pooled.as_slice().to_vec(), a)
    }

    fn assert_engines_match(bank: &ShapeletBank, series: &Tensor) {
        let pre = bank.precomputed();
        for (gi, g) in bank.groups().iter().enumerate() {
            let sw = ScaleWindows::new(series, g.len, g.stride);
            let (want, want_args) = oracle(g, series);
            for (pooled, a) in [
                pool_group_fused(&sw, g.measure, &pre[gi]),
                pool_group_blocked(&sw, g.measure, &pre[gi]),
            ] {
                for j in 0..g.k() {
                    assert!(
                        (pooled[j] - want[j]).abs() < 1e-4,
                        "{:?} k={j}: fused {} vs oracle {}",
                        g.measure,
                        pooled[j],
                        want[j]
                    );
                    assert_eq!(a[j], want_args[j], "{:?} k={j} argmin", g.measure);
                }
            }
        }
    }

    #[test]
    fn engines_agree_with_oracle() {
        let (bank, series) = setup(2, 40, 5, 1, 3);
        assert_engines_match(&bank, &series);
    }

    #[test]
    fn engines_agree_with_stride_and_many_tiles() {
        // > TILE_WINDOWS windows so the blocked path crosses tiles.
        let (bank, series) = setup(1, 300, 7, 2, 4);
        assert_engines_match(&bank, &series);
    }

    #[test]
    fn short_series_pad_to_one_window() {
        let (bank, series) = setup(1, 3, 8, 1, 2);
        let g = &bank.groups()[0];
        let sw = ScaleWindows::new(&series, g.len, g.stride);
        assert_eq!(sw.n, 1);
        assert_engines_match(&bank, &series);
    }

    #[test]
    fn shapelet_scores_match_score_matrix_column() {
        let (bank, series) = setup(2, 30, 4, 1, 3);
        let pre = bank.precomputed();
        for (gi, g) in bank.groups().iter().enumerate() {
            let sw = ScaleWindows::new(&series, g.len, g.stride);
            let windows = windows_for(&series, g.len, g.stride);
            let scores = g.measure.score_matrix(&windows, &g.shapelets);
            for k in 0..g.k() {
                let col = shapelet_scores(&sw, g, &pre[gi], k);
                assert_eq!(col.len(), scores.rows());
                for (w, &s) in col.iter().enumerate() {
                    assert!((s - scores.at2(w, k)).abs() < 1e-4, "w={w} k={k}");
                }
            }
        }
    }

    #[test]
    fn blocked_path_engages_on_large_series() {
        // 2 vars × 200k steps = 1.6 MB > BLOCKED_SERIES_BYTES.
        let (bank, series) = setup(2, 200_000, 16, 512, 2);
        let g = &bank.groups()[0];
        assert!(series.numel() * 4 > BLOCKED_SERIES_BYTES);
        let pre = bank.precomputed();
        let sw = ScaleWindows::new(&series, g.len, g.stride);
        let (via_dispatch, _) = pool_group(&sw, g, &pre[0]);
        let (via_blocked, _) = pool_group_blocked(&sw, g.measure, &pre[0]);
        assert_eq!(via_dispatch, via_blocked);
    }

    #[test]
    fn short_row_path_bit_identical_to_dot4_loop() {
        // Stride-1 sub-FMA_MIN_LEN scales take the across-window path; the
        // stride-2 and len-70 cases pin the unchanged block-of-4 path.
        for &(d, t, len, stride, k) in &[
            (1usize, 128usize, 13usize, 1usize, 5usize),
            (1, 128, 26, 1, 4),
            (2, 61, 9, 1, 7),
            (3, 40, 63, 1, 3),
            (1, 20, 30, 1, 2),
            (2, 90, 11, 2, 5),
            (1, 150, 70, 1, 5),
        ] {
            let (mut bank, _) = setup(d, t, len, stride, k);
            bank.randomize(&mut seeded(len as u64));
            let series = tie_heavy_series(d, t, 7 + len as u64);
            let pre = bank.precomputed();
            for (gi, g) in bank.groups().iter().enumerate() {
                let sw = ScaleWindows::new(&series, g.len, g.stride);
                let p = &pre[gi];
                let (want, want_args, want_scores) =
                    dot4_loop_oracle(&sw, g.measure, &p.sq_norms, &p.inv_norms, |r| p.tap_row(r));
                let (pooled, args) = pool_group_fused(&sw, g.measure, p);
                let what = format!("d={d} len={len} stride={stride} {:?}", g.measure);
                assert_bits_eq(&pooled, &want, &what);
                assert_eq!(args, want_args, "{what} argmins");
                for (kk, col) in want_scores.iter().enumerate() {
                    assert_bits_eq(&shapelet_scores(&sw, g, p, kk), col, &what);
                }
            }
        }
    }
}
