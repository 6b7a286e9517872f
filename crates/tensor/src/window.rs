//! Sliding-window unfolding of (multivariate) time series.
//!
//! The shapelet transform compares every learnable shapelet against every
//! length-`L` window of a series. `unfold` materializes those windows as the
//! rows of a matrix so the comparison becomes one `matmul_transb` against the
//! shapelet bank.

use crate::tensor::Tensor;

/// Number of stride-`stride` windows of length `len` in a series of length
/// `t` (0 if the series is shorter than the window).
pub fn count_windows(t: usize, len: usize, stride: usize) -> usize {
    count_windows_dilated(t, len, stride, 1)
}

/// Window count when taps are spread `dilation` samples apart: a dilated
/// window of length `len` spans `(len − 1)·dilation + 1` samples.
pub fn count_windows_dilated(t: usize, len: usize, stride: usize, dilation: usize) -> usize {
    assert!(
        len > 0 && stride > 0 && dilation > 0,
        "window length, stride and dilation must be positive"
    );
    let span = (len - 1) * dilation + 1;
    if t < span {
        0
    } else {
        (t - span) / stride + 1
    }
}

/// Unfolds a multivariate series stored as a rank-2 tensor `(D, T)` into a
/// window matrix `(N_w, D·len)`.
///
/// Row `w` holds the window starting at time `w·stride`, with the `D`
/// variables concatenated channel-major: `[var0[t..t+len], var1[..], ...]` —
/// the same layout shapelets are stored in, so a dot product between a row
/// and a flattened shapelet compares corresponding samples.
pub fn unfold(series: &Tensor, len: usize, stride: usize) -> Tensor {
    unfold_dilated(series, len, stride, 1)
}

/// [`unfold`] with dilated taps: window `w`, variable `v`, tap `i` reads the
/// sample at time `w·stride + i·dilation`. Used by the dilated causal CNN
/// baselines.
pub fn unfold_dilated(series: &Tensor, len: usize, stride: usize, dilation: usize) -> Tensor {
    let (d, t) = (series.rows(), series.cols());
    let n = count_windows_dilated(t, len, stride, dilation);
    assert!(
        n > 0,
        "series of length {t} has no windows of length {len} (dilation {dilation})"
    );
    let mut out = Tensor::zeros([n, d * len]);
    let src = series.as_slice();
    let dst = out.as_mut_slice();
    for w in 0..n {
        let start = w * stride;
        for v in 0..d {
            let src_off = v * t + start;
            let dst_off = w * d * len + v * len;
            if dilation == 1 {
                dst[dst_off..dst_off + len].copy_from_slice(&src[src_off..src_off + len]);
            } else {
                for i in 0..len {
                    dst[dst_off + i] = src[src_off + i * dilation];
                }
            }
        }
    }
    out
}

/// Scatters gradients flowing into the unfolded window matrix back onto the
/// original `(D, T)` layout (the adjoint of [`unfold`]). Overlapping windows
/// accumulate.
pub fn unfold_backward(
    grad_windows: &Tensor,
    d: usize,
    t: usize,
    len: usize,
    stride: usize,
) -> Tensor {
    unfold_dilated_backward(grad_windows, d, t, len, stride, 1)
}

/// Adjoint of [`unfold_dilated`]; overlapping taps accumulate.
pub fn unfold_dilated_backward(
    grad_windows: &Tensor,
    d: usize,
    t: usize,
    len: usize,
    stride: usize,
    dilation: usize,
) -> Tensor {
    let n = count_windows_dilated(t, len, stride, dilation);
    assert_eq!(
        grad_windows.rows(),
        n,
        "window-count mismatch in unfold_backward"
    );
    assert_eq!(
        grad_windows.cols(),
        d * len,
        "window-width mismatch in unfold_backward"
    );
    let mut out = Tensor::zeros([d, t]);
    let src = grad_windows.as_slice();
    let dst = out.as_mut_slice();
    for w in 0..n {
        let start = w * stride;
        for v in 0..d {
            let src_off = w * d * len + v * len;
            let dst_off = v * t + start;
            for i in 0..len {
                dst[dst_off + i * dilation] += src[src_off + i];
            }
        }
    }
    out
}

/// Squared Euclidean norm `‖w‖²` of every stride-`stride` window of length
/// `len`, without materializing the windows: one O(T) prefix-sum-of-squares
/// pass per variable (f64 accumulators, see
/// [`crate::stats::prefix_sq_sums`]), then O(1) per window. All measures of
/// a scale share this vector — it is the backbone of the fused shapelet
/// transform.
pub fn window_sq_norms(series: &Tensor, len: usize, stride: usize) -> Vec<f32> {
    let (d, t) = (series.rows(), series.cols());
    let n = count_windows(t, len, stride);
    let mut acc = vec![0.0f64; n];
    for v in 0..d {
        let ps = crate::stats::prefix_sq_sums(series.row(v));
        for (w, a) in acc.iter_mut().enumerate() {
            let start = w * stride;
            *a += ps[start + len] - ps[start];
        }
    }
    acc.into_iter().map(|x| x as f32).collect()
}

/// Dot product of a flattened channel-major shapelet (layout
/// `[var0[0..len], var1[0..len], ...]`, matching [`unfold`] rows) against
/// the window starting at `start`, reading the series in place.
///
/// Dispatch telemetry is the caller's job (batch one
/// [`crate::matmul::count_dot_dispatch`] per window loop): this kernel runs
/// once per window, and even a disabled gate check here would be measurable.
#[inline]
pub fn window_dot(series: &Tensor, shapelet: &[f32], start: usize, len: usize) -> f32 {
    let d = series.rows();
    debug_assert_eq!(shapelet.len(), d * len, "shapelet width mismatch");
    let mut cross = 0.0f32;
    for v in 0..d {
        let row = series.row(v);
        cross += crate::matmul::dot(&row[start..start + len], &shapelet[v * len..(v + 1) * len]);
    }
    cross
}

/// [`window_dot`] for four shapelets at once, via the load-sharing
/// [`crate::matmul::dot4`] kernel: the window is streamed through the
/// registers once and FMA-ed against all four tap rows. Backbone of the
/// fused transform's shapelet-blocked inner loop.
#[inline]
pub fn window_dot4(series: &Tensor, taps: [&[f32]; 4], start: usize, len: usize) -> [f32; 4] {
    let d = series.rows();
    debug_assert!(
        taps.iter().all(|t| t.len() == d * len),
        "shapelet width mismatch"
    );
    let mut cross = [0.0f32; 4];
    for v in 0..d {
        let row = &series.row(v)[start..start + len];
        let span = v * len..(v + 1) * len;
        let r = crate::matmul::dot4(
            row,
            &taps[0][span.clone()],
            &taps[1][span.clone()],
            &taps[2][span.clone()],
            &taps[3][span],
        );
        for (c, x) in cross.iter_mut().zip(r) {
            *c += x;
        }
    }
    cross
}

/// Whether [`sliding_dots`] computes this row shape eight windows per pass
/// (given AVX2 at runtime): stride-1 windows shorter than the length at
/// which [`crate::matmul::dot`] leaves the scalar kernel. Depends only on
/// the shape, so an engine can pick its loop structure from it and still
/// produce the same values on every CPU.
pub fn across_windows(len: usize, stride: usize) -> bool {
    stride == 1 && len < crate::matmul::FMA_MIN_LEN
}

/// Dot products of a flattened channel-major shapelet against **every**
/// stride-`stride` window, streaming over the original series buffer — the
/// zero-materialization replacement for `unfold` + one `matmul_transb`
/// column. Appends `count_windows` values to `out`.
///
/// Every value is bit-identical to [`window_dot`] at the same start. For
/// [`across_windows`] shapes on an AVX2 CPU, blocks of eight consecutive
/// windows share one pass over the taps: each tap is broadcast once and
/// met by one unaligned load of the eight windows' samples, with the
/// lane accumulators, fold order and serial tail of
/// [`crate::matmul::dot_scalar`] kept per window (mul then add, no FMA).
/// The last `n % 8` windows, and every other shape, go through
/// [`window_dot`].
///
/// Dispatch telemetry is the caller's job: one
/// [`count_sliding_dispatch`] per batch of rows.
pub fn sliding_dots(
    series: &Tensor,
    shapelet: &[f32],
    len: usize,
    stride: usize,
    out: &mut Vec<f32>,
) {
    let (d, t) = (series.rows(), series.cols());
    assert_eq!(shapelet.len(), d * len, "shapelet width mismatch");
    let n = count_windows(t, len, stride);
    let done = win8_windows(len, stride, n);
    #[cfg(target_arch = "x86_64")]
    if done > 0 {
        let base = out.len();
        out.resize(base + done, 0.0);
        // SAFETY: `win8_windows` is nonzero only for stride 1 and once
        // AVX2 was detected at runtime; `done` is a multiple of 8 and at
        // most n = t − len + 1, so the kernel's last load ends at sample
        // n − 1 + len − 1 = t − 1.
        unsafe { x86::sliding_dots_win8(series, shapelet, len, &mut out[base..]) };
    }
    out.extend((done..n).map(|w| window_dot(series, shapelet, w * stride, len)));
}

/// How many of a row's `n` windows [`sliding_dots`] computes in AVX2
/// blocks of eight: `n − n % 8` for [`across_windows`] shapes on a CPU
/// with AVX2, else 0. The one dispatch decision the kernel and its
/// counter share.
fn win8_windows(len: usize, stride: usize, n: usize) -> usize {
    #[cfg(target_arch = "x86_64")]
    if across_windows(len, stride) && x86::avx2_available() {
        return n - n % 8;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (len, stride, n);
    0
}

/// Records `rows` [`sliding_dots`] calls over the `n` windows of a
/// `d`-variable series against the `dot.dispatch.*` counters: the
/// across-window blocks under `dot.dispatch.avx2_win8`, every other
/// window's per-variable dots through [`crate::matmul::count_dot_dispatch`].
/// Hoisted out of the kernel so a pool call pays one gate check for all
/// its rows.
pub fn count_sliding_dispatch(d: usize, len: usize, stride: usize, n: usize, rows: usize) {
    let blocked = win8_windows(len, stride, n);
    if blocked > 0 {
        tcsl_obs::counters::DOT_DISPATCH_AVX2_WIN8.add((rows * d * blocked) as u64);
    }
    crate::matmul::count_dot_dispatch(len, (rows * d * (n - blocked)) as u64);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::tensor::Tensor;
    use std::arch::x86_64::*;

    /// Cached runtime check for the across-window kernel.
    #[inline]
    pub fn avx2_available() -> bool {
        std::arch::is_x86_feature_detected!("avx2")
    }

    /// [`super::window_dot`] for windows `0..out.len()` of a stride-1 row
    /// shape, eight windows per pass: vector lane `j` of every register
    /// holds window `w + j`'s copy of the scalar accumulator, so each
    /// window sees exactly [`crate::matmul::dot_scalar`]'s operation
    /// sequence per variable — eight lane accumulators `acc[i % 8]` fed
    /// by a separate mul and add, folded in order from `-0.0` (the
    /// identity `Sum for f32` starts from), plus a serial tail — and
    /// `window_dot`'s `+0.0`-seeded sum over variables.
    ///
    /// # Safety
    ///
    /// Requires the `avx2` target feature at runtime; `out.len()` must be
    /// a multiple of 8, `shapelet.len() == D·len`, and
    /// `out.len() + len − 1 <= series.cols()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sliding_dots_win8(
        series: &Tensor,
        shapelet: &[f32],
        len: usize,
        out: &mut [f32],
    ) {
        debug_assert_eq!(out.len() % 8, 0);
        debug_assert!(out.len() + len <= series.cols() + 1);
        let chunks = len / 8;
        for w in (0..out.len()).step_by(8) {
            // SAFETY: by the caller's contract every load below reads
            // samples w + i .. w + i + 8 ≤ out.len() + len − 1 ≤ cols of
            // one series row, every tap index is < len within variable
            // v's D·len slice, and the store writes out[w..w + 8].
            unsafe {
                let mut cross = _mm256_setzero_ps();
                for v in 0..series.rows() {
                    let row = series.row(v).as_ptr().add(w);
                    let taps = shapelet.as_ptr().add(v * len);
                    let mut acc = [_mm256_setzero_ps(); 8];
                    for c in 0..chunks {
                        for (l, a) in acc.iter_mut().enumerate() {
                            let i = c * 8 + l;
                            let prod = _mm256_mul_ps(
                                _mm256_set1_ps(*taps.add(i)),
                                _mm256_loadu_ps(row.add(i)),
                            );
                            *a = _mm256_add_ps(*a, prod);
                        }
                    }
                    let mut sum = _mm256_set1_ps(-0.0);
                    for a in acc {
                        sum = _mm256_add_ps(sum, a);
                    }
                    let mut tail = _mm256_setzero_ps();
                    for i in chunks * 8..len {
                        let prod = _mm256_mul_ps(
                            _mm256_set1_ps(*taps.add(i)),
                            _mm256_loadu_ps(row.add(i)),
                        );
                        tail = _mm256_add_ps(tail, prod);
                    }
                    cross = _mm256_add_ps(cross, _mm256_add_ps(sum, tail));
                }
                _mm256_storeu_ps(out.as_mut_ptr().add(w), cross);
            }
        }
    }
}

/// Extracts a single window `(D, len)` starting at `start` from a `(D, T)`
/// series.
pub fn window_at(series: &Tensor, start: usize, len: usize) -> Tensor {
    let (d, t) = (series.rows(), series.cols());
    assert!(
        start + len <= t,
        "window [{start}, {}) exceeds series length {t}",
        start + len
    );
    let mut out = Tensor::zeros([d, len]);
    for v in 0..d {
        let row = series.row(v);
        out.row_mut(v).copy_from_slice(&row[start..start + len]);
    }
    out
}

/// Writes one window's values channel-major (`[var0 | var1 | ...]` — the
/// flattened shapelet-row layout) into `dst`, which must have length
/// `D·len`. The no-allocation sibling of [`window_at`]: analytic backward
/// passes call it once per shapelet into a reused scratch row.
pub fn window_row_into(series: &Tensor, start: usize, len: usize, dst: &mut [f32]) {
    let (d, t) = (series.rows(), series.cols());
    assert!(
        start + len <= t,
        "window [{start}, {}) exceeds series length {t}",
        start + len
    );
    assert_eq!(dst.len(), d * len, "dst must hold D·len values");
    for v in 0..d {
        dst[v * len..(v + 1) * len].copy_from_slice(&series.row(v)[start..start + len]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        assert_eq!(count_windows(10, 3, 1), 8);
        assert_eq!(count_windows(10, 3, 2), 4);
        assert_eq!(count_windows(10, 10, 1), 1);
        assert_eq!(count_windows(5, 6, 1), 0);
    }

    #[test]
    fn unfold_univariate() {
        let s = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 4.0], [1, 5]);
        let w = unfold(&s, 3, 1);
        assert_eq!(w.shape().dims(), &[3, 3]);
        assert_eq!(w.row(0), &[0.0, 1.0, 2.0]);
        assert_eq!(w.row(2), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn unfold_multivariate_channel_major() {
        let s = Tensor::from_vec(vec![0.0, 1.0, 2.0, 10.0, 11.0, 12.0], [2, 3]);
        let w = unfold(&s, 2, 1);
        assert_eq!(w.shape().dims(), &[2, 4]);
        assert_eq!(w.row(0), &[0.0, 1.0, 10.0, 11.0]);
        assert_eq!(w.row(1), &[1.0, 2.0, 11.0, 12.0]);
    }

    #[test]
    fn unfold_with_stride() {
        let s = Tensor::from_vec((0..8).map(|x| x as f32).collect(), [1, 8]);
        let w = unfold(&s, 2, 3);
        assert_eq!(w.shape().dims(), &[3, 2]);
        assert_eq!(w.row(1), &[3.0, 4.0]);
        assert_eq!(w.row(2), &[6.0, 7.0]);
    }

    #[test]
    fn backward_accumulates_overlaps() {
        // Series length 4, windows of length 2, stride 1 → 3 windows.
        // Put gradient 1 on every window element; interior timesteps are
        // covered twice, the ends once.
        let g = Tensor::ones([3, 2]);
        let back = unfold_backward(&g, 1, 4, 2, 1);
        assert_eq!(back.as_slice(), &[1.0, 2.0, 2.0, 1.0]);
    }

    #[test]
    fn backward_is_adjoint_of_forward() {
        // <unfold(x), g> == <x, unfold_backward(g)> for random x, g.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let x = Tensor::randn([2, 9], &mut rng);
        let (len, stride) = (3, 2);
        let w = unfold(&x, len, stride);
        let g = Tensor::randn([w.rows(), w.cols()], &mut rng);
        let lhs: f32 = w.dot(&g);
        let back = unfold_backward(&g, 2, 9, len, stride);
        let rhs: f32 = x.dot(&back);
        assert!((lhs - rhs).abs() < 1e-4, "{lhs} vs {rhs}");
    }

    #[test]
    fn dilated_unfold_and_adjoint() {
        let s = Tensor::from_vec((0..8).map(|x| x as f32).collect(), [1, 8]);
        let w = unfold_dilated(&s, 3, 1, 2); // taps at offsets 0, 2, 4
        assert_eq!(w.shape().dims(), &[4, 3]);
        assert_eq!(w.row(0), &[0.0, 2.0, 4.0]);
        assert_eq!(w.row(3), &[3.0, 5.0, 7.0]);

        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let g = Tensor::randn([4, 3], &mut rng);
        let lhs = w.dot(&g);
        let rhs = s.dot(&unfold_dilated_backward(&g, 1, 8, 3, 1, 2));
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn window_sq_norms_match_materialized_rows() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for &(d, t, len, stride) in &[
            (1usize, 16usize, 4usize, 1usize),
            (3, 33, 5, 2),
            (2, 8, 8, 3),
        ] {
            let s = Tensor::randn([d, t], &mut rng);
            let norms = window_sq_norms(&s, len, stride);
            let w = unfold(&s, len, stride);
            assert_eq!(norms.len(), w.rows());
            for (i, &norm) in norms.iter().enumerate() {
                let direct: f32 = w.row(i).iter().map(|&x| x * x).sum();
                assert!(
                    (norm - direct).abs() < 1e-4 * (1.0 + direct),
                    "window {i}: prefix {norm} vs direct {direct}"
                );
            }
        }
    }

    #[test]
    fn sliding_dots_match_unfold_matmul() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        for &(d, t, len, stride) in &[(1usize, 20usize, 3usize, 1usize), (2, 17, 4, 2)] {
            let s = Tensor::randn([d, t], &mut rng);
            let shapelet = Tensor::randn([1, d * len], &mut rng);
            let mut got = Vec::new();
            sliding_dots(&s, shapelet.as_slice(), len, stride, &mut got);
            let w = unfold(&s, len, stride);
            let want = crate::matmul::matmul_transb(&w, &shapelet);
            assert_eq!(got.len(), want.rows());
            for (i, &g) in got.iter().enumerate() {
                assert!((g - want.at2(i, 0)).abs() < 1e-4, "window {i}");
            }
            // window_dot agrees with the vectorized variant bit-for-bit.
            for (i, &g) in got.iter().enumerate() {
                assert_eq!(g, window_dot(&s, shapelet.as_slice(), i * stride, len));
            }
        }
    }

    #[test]
    fn window_dot4_matches_single_window_dots() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for &(d, t, len, stride) in &[
            (1usize, 30usize, 5usize, 1usize),
            (2, 40, 13, 1),
            (3, 90, 63, 2),
            (3, 90, 70, 2),
        ] {
            let s = Tensor::randn([d, t], &mut rng);
            let bank = Tensor::randn([4, d * len], &mut rng);
            let taps = [bank.row(0), bank.row(1), bank.row(2), bank.row(3)];
            for w in 0..count_windows(t, len, stride) {
                let got = window_dot4(&s, taps, w * stride, len);
                for (j, &tap_row) in taps.iter().enumerate() {
                    let want = window_dot(&s, tap_row, w * stride, len);
                    if len < crate::matmul::FMA_MIN_LEN {
                        // Below the FMA threshold dot4 is four scalar dots.
                        assert_eq!(got[j].to_bits(), want.to_bits(), "w={w} j={j}");
                    } else {
                        assert!(
                            (got[j] - want).abs() < 1e-4 * (1.0 + want.abs()),
                            "w={w} j={j}: {} vs {want}",
                            got[j]
                        );
                    }
                }
            }
        }
    }

    /// A series mixing random values with signed zeros, a zero run long
    /// enough for whole all-zero windows, and ±1e18 magnitudes (products
    /// near 1e36 stay finite, so no NaN payloads enter the comparison).
    fn hostile_values(n: usize, rng: &mut rand::rngs::StdRng) -> Vec<f32> {
        use rand::Rng;
        let zero_run = n / 3..n / 3 + n / 3;
        (0..n)
            .map(|i| match (i, rng.gen_range(0..8)) {
                (i, _) if zero_run.contains(&i) => {
                    if i.is_multiple_of(2) {
                        0.0
                    } else {
                        -0.0
                    }
                }
                (_, 0) => 0.0,
                (_, 1) => -0.0,
                (_, 2) => 1e18,
                (_, 3) => -1e18,
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect()
    }

    #[test]
    fn f32_sum_folds_from_negative_zero() {
        // The across-window kernel seeds its lane fold with -0.0 to match
        // `dot_scalar`'s `acc.iter().sum()`.
        assert!([-0.0f32].iter().sum::<f32>().is_sign_negative());
    }

    #[test]
    fn sliding_dots_bit_identical_to_window_dot() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(24);
        for len in 1..crate::matmul::FMA_MIN_LEN {
            for d in 1..=3usize {
                for n in [1usize, 5, 8, 13, 19, 43] {
                    let t = n + len - 1;
                    let s = Tensor::from_vec(hostile_values(d * t, &mut rng), [d, t]);
                    let taps = hostile_values(d * len, &mut rng);
                    let mut got = vec![7.0];
                    sliding_dots(&s, &taps, len, 1, &mut got);
                    assert_eq!(got.len(), n + 1, "len={len} d={d}: appends one per window");
                    assert_eq!(got[0], 7.0);
                    for (w, g) in got[1..].iter().enumerate() {
                        let want = window_dot(&s, &taps, w, len);
                        assert_eq!(
                            g.to_bits(),
                            want.to_bits(),
                            "len={len} d={d} n={n} w={w}: {g} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn across_windows_only_for_short_stride_one_rows() {
        assert!(across_windows(1, 1));
        assert!(across_windows(crate::matmul::FMA_MIN_LEN - 1, 1));
        assert!(!across_windows(crate::matmul::FMA_MIN_LEN, 1));
        assert!(!across_windows(8, 2));
    }

    #[test]
    fn window_extraction() {
        let s = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0], [2, 4]);
        let w = window_at(&s, 1, 2);
        assert_eq!(w.shape().dims(), &[2, 2]);
        assert_eq!(w.row(0), &[1.0, 2.0]);
        assert_eq!(w.row(1), &[11.0, 12.0]);
    }

    #[test]
    fn window_row_matches_window_at_flattened() {
        let s = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0], [2, 4]);
        let mut row = [0.0f32; 4];
        window_row_into(&s, 1, 2, &mut row);
        assert_eq!(row, [1.0, 2.0, 11.0, 12.0]);
        assert_eq!(window_at(&s, 1, 2).as_slice(), &row);
    }

    #[test]
    #[should_panic(expected = "D·len")]
    fn window_row_rejects_wrong_dst_length() {
        let s = Tensor::from_vec(vec![0.0, 1.0, 2.0, 3.0], [1, 4]);
        let mut row = [0.0f32; 3];
        window_row_into(&s, 0, 2, &mut row);
    }
}
