//! Quantized inference bank: half-width tap storage for the fused transform.
//!
//! The fused transform is memory-traffic-bound at serving shapes — the hot
//! stream is the repacked tap rows, re-read once per window. This module
//! stores that stream at half width ([`QuantScheme::F16`] or
//! [`QuantScheme::I16`] with a per-shapelet scale) and pools through the
//! mixed-precision kernels of [`tcsl_tensor::quant`], which dequantize
//! in-register and accumulate in f32.
//!
//! Contract with the rest of the stack:
//!
//! * **Quantization is an explicit post-training step**
//!   ([`crate::ShapeletBank::quantize`]). Training, autodiff and the unfold
//!   oracle stay pure f32.
//! * **The bank's f32 view is the dequantized view.** After quantization,
//!   `group.shapelets` holds the *dequantized* values — so the oracle path,
//!   best-match localization and any norm derived from the f32 tensor are
//!   consistent with what the quantized kernels compute. Precision is lost
//!   exactly once, at quantization time.
//! * **Same pooling semantics.** [`pool_measure_quant`] mirrors
//!   [`crate::fused::pool_measure`]'s fused/blocked dispatch, tiling, and
//!   argmin tie-breaking (`w == 0 || measure.better(..)`) exactly; only the
//!   dot kernel differs.

use crate::fused::{
    pool_rows, row_scores, score, ScaleWindows, BLOCKED_SERIES_BYTES, TILE_WINDOWS,
};
use crate::measure::Measure;
use tcsl_tensor::matmul::{count_dot_dispatch, dot};
use tcsl_tensor::quant::{
    count_quant_dot_dispatch, dequantize_f16, dequantize_i16, dot_f16, dot_i16, f16_to_f32,
    i16_scale, paired_kernel_available, quantize_f16, quantize_i16, window_dot2_f16,
    window_dot2_i16, window_dot2x4_f16, window_dot2x4_i16, window_dot4_f16, window_dot4_i16,
    window_dot_f16, window_dot_i16, QuantScheme, QUANT_MIN_LEN,
};
use tcsl_tensor::Tensor;

/// Inference precision of a [`crate::ShapeletBank`]: full f32, or one of the
/// half-width [`QuantScheme`]s. Threaded from `CslConfig` so a pipeline can
/// request quantization as part of training, and persisted by model format
/// v3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum BankPrecision {
    /// Full-precision f32 taps (the training representation; default).
    #[default]
    Full,
    /// IEEE 754 binary16 taps.
    F16,
    /// Fixed-point i16 taps with a per-shapelet scale.
    I16,
}

impl BankPrecision {
    /// Stable lowercase name used by config parsing, the model format and
    /// bench JSON (`"f32"`, `"f16"`, `"i16"`).
    pub fn name(self) -> &'static str {
        match self {
            BankPrecision::Full => "f32",
            BankPrecision::F16 => "f16",
            BankPrecision::I16 => "i16",
        }
    }

    /// Parses [`Self::name`] output; `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f32" => Some(BankPrecision::Full),
            "f16" => Some(BankPrecision::F16),
            "i16" => Some(BankPrecision::I16),
            _ => None,
        }
    }

    /// The quantization scheme this precision stores taps in (`None` for
    /// full precision).
    pub fn scheme(self) -> Option<QuantScheme> {
        match self {
            BankPrecision::Full => None,
            BankPrecision::F16 => Some(QuantScheme::F16),
            BankPrecision::I16 => Some(QuantScheme::I16),
        }
    }
}

/// Half-width tap rows of one group, packed with the same padded row stride
/// as [`crate::GroupPrecomp`].
#[derive(Clone, Debug)]
enum QuantTaps {
    /// binary16 bit patterns.
    F16(Vec<u16>),
    /// Fixed-point values plus the per-shapelet-row scale.
    I16 { q: Vec<i16>, scales: Vec<f32> },
}

/// Quantized sibling of [`crate::GroupPrecomp`]: the shapelet-side state of
/// one group with taps stored at half width. Norms are computed from the
/// **dequantized** taps, so they agree bit-for-bit with a
/// [`crate::GroupPrecomp`] built from the bank's (dequantized) f32 view.
#[derive(Clone, Debug)]
pub struct QuantizedPrecomp {
    /// Squared Euclidean norm `‖s_k‖²` of every (dequantized) shapelet row.
    pub sq_norms: Vec<f32>,
    /// `1 / √(‖s_k‖² + 1e-12)` per row.
    pub inv_norms: Vec<f32>,
    taps: QuantTaps,
    /// Padded **dequantized f32** tap rows, kept only when `row_len` is
    /// below [`QUANT_MIN_LEN`]. Sub-threshold rows would hit the scalar
    /// mixed-precision fallback — a per-element software conversion per
    /// window that costs far more than the f32 scalar kernel — and a row
    /// that small is cache-resident anyway, so half-width storage saves no
    /// traffic. Pooling routes such groups through the plain f32 kernels
    /// on these rows; the values are the dequantized view, so the result
    /// is exactly "f32 on the dequantized bank".
    deq_taps: Option<Vec<f32>>,
    tap_stride: usize,
    row_len: usize,
}

/// Row length (in elements) above which the fused quantized engine streams
/// taps in 2-row instead of 4-row blocks. A 4-row half-width block of a
/// longer row (> 4 · 3072 · 2 B = 24 KiB) no longer fits in a 32 KiB L1d
/// alongside the window stream, so every window pass spills the taps it
/// just read; halving the block keeps the hot tap set resident. Only
/// applied when the pair kernels still share window loads
/// ([`paired_kernel_available`]) — see [`pair_block`].
pub const PAIR_BLOCK_MIN_ROW: usize = 3072;

/// Whether pooling/localization of this group should use 2-row tap blocks.
/// One deterministic decision per (group, machine): [`pool_quant_fused`] and
/// [`shapelet_scores_quant`] both derive their blocking from it, which is
/// what keeps localization scores bit-identical to pooled values.
fn pair_block(qp: &QuantizedPrecomp, span_len: usize) -> bool {
    qp.deq_taps.is_none()
        && qp.row_len > PAIR_BLOCK_MIN_ROW
        && paired_kernel_available(qp.scheme(), span_len)
}

/// Padded row stride used by both the f32 and quantized tap repacks (in
/// elements): page-multiple for long rows, cache-line multiple for short
/// ones. Must stay in lockstep with [`crate::GroupPrecomp::of`].
fn padded_tap_stride(row_len: usize) -> usize {
    if row_len >= 1024 {
        row_len.div_ceil(1024) * 1024
    } else {
        row_len.div_ceil(16) * 16
    }
}

impl QuantizedPrecomp {
    /// Quantizes one group's `(K, D·len)` matrix, deriving i16 scales from
    /// the rows themselves. The caller must have validated the taps (finite;
    /// within ±[`tcsl_tensor::quant::F16_MAX`] for f16) — see
    /// [`crate::ShapeletBank::quantize`].
    pub fn of(shapelets: &Tensor, scheme: QuantScheme) -> QuantizedPrecomp {
        match scheme {
            QuantScheme::F16 => Self::build(shapelets, None),
            QuantScheme::I16 => {
                let scales: Vec<f32> = (0..shapelets.rows())
                    .map(|k| i16_scale(shapelets.row(k)))
                    .collect();
                Self::build(shapelets, Some(scales))
            }
        }
    }

    /// i16 quantization with externally supplied per-row scales — the model
    /// loader path, where reusing the persisted scales makes save → load →
    /// re-quantize exactly idempotent. The caller must have validated that
    /// every `round(x / scale)` lands in `[-32767, 32767]`.
    pub fn with_scales(shapelets: &Tensor, scales: Vec<f32>) -> QuantizedPrecomp {
        debug_assert_eq!(scales.len(), shapelets.rows());
        Self::build(shapelets, Some(scales))
    }

    fn build(shapelets: &Tensor, scales: Option<Vec<f32>>) -> QuantizedPrecomp {
        let (k, row_len) = (shapelets.rows(), shapelets.cols());
        let tap_stride = padded_tap_stride(row_len);
        // Quantize each row, then derive norms from the dequantized values
        // (one pass through a dequantized scratch row).
        let mut sq_norms: Vec<f32> = Vec::with_capacity(k);
        let taps = match scales {
            None => {
                let mut packed = vec![0u16; k * tap_stride];
                for r in 0..k {
                    let q = quantize_f16(shapelets.row(r));
                    sq_norms.push(q.iter().map(|&b| f16_to_f32(b)).map(|x| x * x).sum());
                    packed[r * tap_stride..r * tap_stride + row_len].copy_from_slice(&q);
                }
                QuantTaps::F16(packed)
            }
            Some(scales) => {
                let mut packed = vec![0i16; k * tap_stride];
                for r in 0..k {
                    let s = scales[r];
                    let q = quantize_i16(shapelets.row(r), s);
                    sq_norms.push(q.iter().map(|&v| v as f32 * s).map(|x| x * x).sum());
                    packed[r * tap_stride..r * tap_stride + row_len].copy_from_slice(&q);
                }
                QuantTaps::I16 { q: packed, scales }
            }
        };
        let inv_norms = sq_norms.iter().map(|&n| 1.0 / (n + 1e-12).sqrt()).collect();
        let mut qp = QuantizedPrecomp {
            sq_norms,
            inv_norms,
            taps,
            deq_taps: None,
            tap_stride,
            row_len,
        };
        if row_len < QUANT_MIN_LEN {
            let deq = qp.dequantized();
            let mut rows = vec![0.0f32; k * tap_stride];
            for r in 0..k {
                rows[r * tap_stride..r * tap_stride + row_len].copy_from_slice(deq.row(r));
            }
            qp.deq_taps = Some(rows);
        }
        qp
    }

    /// Number of shapelets in the group.
    pub fn k(&self) -> usize {
        self.sq_norms.len()
    }

    /// The scheme the taps are stored in.
    pub fn scheme(&self) -> QuantScheme {
        match self.taps {
            QuantTaps::F16(_) => QuantScheme::F16,
            QuantTaps::I16 { .. } => QuantScheme::I16,
        }
    }

    /// Per-shapelet i16 scales (`None` for f16 taps). Persisted by model
    /// format v3 so loading reconstructs the exact same quantized taps.
    pub fn scales(&self) -> Option<&[f32]> {
        match &self.taps {
            QuantTaps::F16(_) => None,
            QuantTaps::I16 { scales, .. } => Some(scales),
        }
    }

    /// The dequantized `(K, D·len)` matrix — the f32 view the bank exposes
    /// as `group.shapelets` after quantization.
    pub fn dequantized(&self) -> Tensor {
        let (k, w) = (self.k(), self.row_len);
        let mut data = Vec::with_capacity(k * w);
        for r in 0..k {
            let span = r * self.tap_stride..r * self.tap_stride + w;
            match &self.taps {
                QuantTaps::F16(v) => data.extend(dequantize_f16(&v[span])),
                QuantTaps::I16 { q, scales } => data.extend(dequantize_i16(&q[span], scales[r])),
            }
        }
        Tensor::from_vec(data, [k, w])
    }

    /// A new precomputation holding only the selected rows (in the given
    /// order) — carries quantization through bank subsetting without a
    /// re-quantization round trip.
    pub fn subset_rows(&self, rows: &[usize]) -> QuantizedPrecomp {
        let w = self.row_len;
        let stride = self.tap_stride;
        let sq_norms: Vec<f32> = rows.iter().map(|&r| self.sq_norms[r]).collect();
        let inv_norms: Vec<f32> = rows.iter().map(|&r| self.inv_norms[r]).collect();
        let taps = match &self.taps {
            QuantTaps::F16(v) => {
                let mut packed = vec![0u16; rows.len() * stride];
                for (i, &r) in rows.iter().enumerate() {
                    packed[i * stride..i * stride + w]
                        .copy_from_slice(&v[r * stride..r * stride + w]);
                }
                QuantTaps::F16(packed)
            }
            QuantTaps::I16 { q, scales } => {
                let mut packed = vec![0i16; rows.len() * stride];
                for (i, &r) in rows.iter().enumerate() {
                    packed[i * stride..i * stride + w]
                        .copy_from_slice(&q[r * stride..r * stride + w]);
                }
                QuantTaps::I16 {
                    q: packed,
                    scales: rows.iter().map(|&r| scales[r]).collect(),
                }
            }
        };
        let deq_taps = self.deq_taps.as_ref().map(|v| {
            let mut packed = vec![0.0f32; rows.len() * stride];
            for (i, &r) in rows.iter().enumerate() {
                packed[i * stride..i * stride + w].copy_from_slice(&v[r * stride..r * stride + w]);
            }
            packed
        });
        QuantizedPrecomp {
            sq_norms,
            inv_norms,
            taps,
            deq_taps,
            tap_stride: stride,
            row_len: w,
        }
    }
}

/// Pools one quantized group over a series — the mixed-precision sibling of
/// [`crate::fused::pool_measure`], with the same fused/blocked dispatch and
/// identical argmin semantics. Reuses the `shapelet.pool.*` counters (the
/// engine choice is the same decision) and records the kernel choice on the
/// quantized `dot.dispatch.*` counters.
pub fn pool_measure_quant(
    sw: &ScaleWindows,
    measure: Measure,
    qp: &QuantizedPrecomp,
) -> (Vec<f32>, Vec<usize>) {
    let series_bytes = sw.padded.numel() * core::mem::size_of::<f32>();
    if qp.k() > 1 && series_bytes > BLOCKED_SERIES_BYTES {
        tcsl_obs::counters::SHAPELET_POOL_BLOCKED.add(1);
        pool_quant_blocked(sw, measure, qp)
    } else {
        tcsl_obs::counters::SHAPELET_POOL_FUSED.add(1);
        pool_quant_fused(sw, measure, qp)
    }
}

/// Fused streaming engine over half-width taps: shapelet-major in blocks of
/// 4 (mirrors [`crate::fused`]'s `pool_group_fused` loop structure exactly,
/// so pooled values and argmins differ from f32 only by the tap rounding).
fn pool_quant_fused(
    sw: &ScaleWindows,
    measure: Measure,
    qp: &QuantizedPrecomp,
) -> (Vec<f32>, Vec<usize>) {
    let (stride, w_len) = (qp.tap_stride, qp.row_len);
    // Sub-threshold rows pool through the f32 fused engine on the
    // dequantized copy (see `QuantizedPrecomp::deq_taps`) and count as f32
    // dispatch — the mixed-precision kernels never run for them.
    if let Some(rows) = &qp.deq_taps {
        return pool_rows(sw, measure, &qp.sq_norms, &qp.inv_norms, |r| {
            &rows[r * stride..r * stride + w_len]
        });
    }
    let d = sw.padded.rows();
    let width = (d * sw.len) as f32;
    let k = qp.k();
    let mut pooled = vec![f32::NAN; k];
    let mut args = vec![0usize; k];
    let full = k - k % 4;
    let update = |kk: usize, w: usize, cross: f32, pooled: &mut [f32], args: &mut [usize]| {
        let s = score(
            measure,
            cross,
            sw,
            w,
            qp.sq_norms[kk],
            qp.inv_norms[kk],
            width,
        );
        if w == 0 || measure.better(s, pooled[kk]) {
            pooled[kk] = s;
            args[kk] = w;
        }
    };
    count_quant_dot_dispatch(qp.scheme(), sw.len, (k * d * sw.n) as u64);
    // Wide rows stream in 2-row blocks (see PAIR_BLOCK_MIN_ROW); the pair
    // kernels keep the per-row accumulation order of the 4-row kernels, so
    // the block width changes cache behaviour, not values.
    let pair = pair_block(qp, sw.len);
    let full2 = k - k % 2;
    match &qp.taps {
        QuantTaps::F16(v) => {
            let row = |r: usize| &v[r * stride..r * stride + w_len];
            if pair {
                for kb in (0..full2).step_by(2) {
                    let taps = [row(kb), row(kb + 1)];
                    // Window quads share tap loads and conversions; trailing
                    // windows fall back to the single-window pair kernel
                    // (bit-identical per-dot values).
                    let mut w = 0usize;
                    while w + 4 <= sw.n {
                        let starts = [w, w + 1, w + 2, w + 3].map(|x| x * sw.stride);
                        let cross = window_dot2x4_f16(&sw.padded, taps, starts, sw.len);
                        for (wi, cw) in cross.iter().enumerate() {
                            for (j, &c) in cw.iter().enumerate() {
                                update(kb + j, w + wi, c, &mut pooled, &mut args);
                            }
                        }
                        w += 4;
                    }
                    while w < sw.n {
                        let cross = window_dot2_f16(&sw.padded, taps, w * sw.stride, sw.len);
                        for (j, &c) in cross.iter().enumerate() {
                            update(kb + j, w, c, &mut pooled, &mut args);
                        }
                        w += 1;
                    }
                }
            } else {
                for kb in (0..full).step_by(4) {
                    let taps = [row(kb), row(kb + 1), row(kb + 2), row(kb + 3)];
                    for w in 0..sw.n {
                        let cross = window_dot4_f16(&sw.padded, taps, w * sw.stride, sw.len);
                        for (j, &c) in cross.iter().enumerate() {
                            update(kb + j, w, c, &mut pooled, &mut args);
                        }
                    }
                }
            }
            for kk in if pair { full2 } else { full }..k {
                let taps = row(kk);
                for w in 0..sw.n {
                    let cross = window_dot_f16(&sw.padded, taps, w * sw.stride, sw.len);
                    update(kk, w, cross, &mut pooled, &mut args);
                }
            }
        }
        QuantTaps::I16 { q, scales } => {
            let row = |r: usize| &q[r * stride..r * stride + w_len];
            if pair {
                for kb in (0..full2).step_by(2) {
                    let taps = [row(kb), row(kb + 1)];
                    let mut w = 0usize;
                    while w + 4 <= sw.n {
                        let starts = [w, w + 1, w + 2, w + 3].map(|x| x * sw.stride);
                        let cross = window_dot2x4_i16(&sw.padded, taps, starts, sw.len);
                        for (wi, cw) in cross.iter().enumerate() {
                            for (j, &c) in cw.iter().enumerate() {
                                update(kb + j, w + wi, c * scales[kb + j], &mut pooled, &mut args);
                            }
                        }
                        w += 4;
                    }
                    while w < sw.n {
                        let cross = window_dot2_i16(&sw.padded, taps, w * sw.stride, sw.len);
                        for (j, &c) in cross.iter().enumerate() {
                            update(kb + j, w, c * scales[kb + j], &mut pooled, &mut args);
                        }
                        w += 1;
                    }
                }
            } else {
                for kb in (0..full).step_by(4) {
                    let taps = [row(kb), row(kb + 1), row(kb + 2), row(kb + 3)];
                    for w in 0..sw.n {
                        let cross = window_dot4_i16(&sw.padded, taps, w * sw.stride, sw.len);
                        for (j, &c) in cross.iter().enumerate() {
                            update(kb + j, w, c * scales[kb + j], &mut pooled, &mut args);
                        }
                    }
                }
            }
            for kk in if pair { full2 } else { full }..k {
                let taps = row(kk);
                for w in 0..sw.n {
                    let cross = window_dot_i16(&sw.padded, taps, w * sw.stride, sw.len);
                    update(kk, w, cross * scales[kk], &mut pooled, &mut args);
                }
            }
        }
    }
    (pooled, args)
}

/// Blocked fallback over half-width taps: windows are copied into the same
/// bounded f32 scratch tile as the f32 blocked engine, then scored against
/// the quantized rows (the tap stream — the half-width one — is still what
/// each tile re-reads `K` times).
fn pool_quant_blocked(
    sw: &ScaleWindows,
    measure: Measure,
    qp: &QuantizedPrecomp,
) -> (Vec<f32>, Vec<usize>) {
    let d = sw.padded.rows();
    let len = sw.len;
    let row_w = d * len;
    let width = row_w as f32;
    let k = qp.k();
    // Sub-threshold rows score from the dequantized f32 copy (f32
    // dispatch); the half-width kernels only run above QUANT_MIN_LEN.
    if qp.deq_taps.is_some() {
        count_dot_dispatch(row_w, (k * sw.n) as u64);
    } else {
        count_quant_dot_dispatch(qp.scheme(), row_w, (k * sw.n) as u64);
    }
    let mut pooled = vec![f32::NAN; k];
    let mut args = vec![0usize; k];
    let mut tile = vec![0.0f32; TILE_WINDOWS.min(sw.n) * row_w];
    let (stride, w_len) = (qp.tap_stride, qp.row_len);
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
            for j in 0..k {
                let cross = if let Some(rows) = &qp.deq_taps {
                    dot(row, &rows[j * stride..j * stride + w_len])
                } else {
                    match &qp.taps {
                        QuantTaps::F16(v) => dot_f16(row, &v[j * stride..j * stride + w_len]),
                        QuantTaps::I16 { q, scales } => {
                            dot_i16(row, &q[j * stride..j * stride + w_len]) * scales[j]
                        }
                    }
                };
                let s = score(
                    measure,
                    cross,
                    sw,
                    w,
                    qp.sq_norms[j],
                    qp.inv_norms[j],
                    width,
                );
                if w == 0 || measure.better(s, pooled[j]) {
                    pooled[j] = s;
                    args[j] = w;
                }
            }
        }
        tile_start += tile_n;
    }
    (pooled, args)
}

/// Per-window scores of one shapelet of a quantized group — the quantized
/// sibling of [`crate::fused::shapelet_scores`], mirroring
/// [`pool_quant_fused`]'s shapelet blocking so localization scores are
/// bit-identical to the pooled feature values.
pub fn shapelet_scores_quant(
    sw: &ScaleWindows,
    measure: Measure,
    qp: &QuantizedPrecomp,
    k: usize,
) -> Vec<f32> {
    assert!(
        k < qp.k(),
        "shapelet {k} out of range for group of {}",
        qp.k()
    );
    let (stride, w_len) = (qp.tap_stride, qp.row_len);
    // Sub-threshold rows localize through the f32 engine's sibling on the
    // dequantized copy — the exact path pooling took, so score == feature
    // value still holds bit-for-bit.
    if let Some(rows) = &qp.deq_taps {
        return row_scores(sw, measure, &qp.sq_norms, &qp.inv_norms, k, |r| {
            &rows[r * stride..r * stride + w_len]
        });
    }
    let d = sw.padded.rows();
    let width = (d * sw.len) as f32;
    let (s_sq, s_inv) = (qp.sq_norms[k], qp.inv_norms[k]);
    let mut out = Vec::with_capacity(sw.n);
    // Mirror pool_quant_fused's block-width decision exactly: the same
    // kernel must compute this shapelet's cross terms here as did during
    // pooling, or `score == pooled feature` would only hold to round-off.
    let pair = pair_block(qp, sw.len);
    let bw = if pair { 2 } else { 4 };
    let full = qp.k() - qp.k() % bw;
    let blocked = k < full;
    let kb = k / bw * bw;
    let j = k - kb;
    count_quant_dot_dispatch(
        qp.scheme(),
        sw.len,
        ((if blocked { bw } else { 1 }) * d * sw.n) as u64,
    );
    match &qp.taps {
        QuantTaps::F16(v) => {
            let row = |r: usize| &v[r * stride..r * stride + w_len];
            if blocked && pair {
                let taps = [row(kb), row(kb + 1)];
                for w in 0..sw.n {
                    let cross = window_dot2_f16(&sw.padded, taps, w * sw.stride, sw.len)[j];
                    out.push(score(measure, cross, sw, w, s_sq, s_inv, width));
                }
            } else if blocked {
                let taps = [row(kb), row(kb + 1), row(kb + 2), row(kb + 3)];
                for w in 0..sw.n {
                    let cross = window_dot4_f16(&sw.padded, taps, w * sw.stride, sw.len)[j];
                    out.push(score(measure, cross, sw, w, s_sq, s_inv, width));
                }
            } else {
                let taps = row(k);
                for w in 0..sw.n {
                    let cross = window_dot_f16(&sw.padded, taps, w * sw.stride, sw.len);
                    out.push(score(measure, cross, sw, w, s_sq, s_inv, width));
                }
            }
        }
        QuantTaps::I16 { q, scales } => {
            let row = |r: usize| &q[r * stride..r * stride + w_len];
            let sc = scales[k];
            if blocked && pair {
                let taps = [row(kb), row(kb + 1)];
                for w in 0..sw.n {
                    let cross = window_dot2_i16(&sw.padded, taps, w * sw.stride, sw.len)[j] * sc;
                    out.push(score(measure, cross, sw, w, s_sq, s_inv, width));
                }
            } else if blocked {
                let taps = [row(kb), row(kb + 1), row(kb + 2), row(kb + 3)];
                for w in 0..sw.n {
                    let cross = window_dot4_i16(&sw.padded, taps, w * sw.stride, sw.len)[j] * sc;
                    out.push(score(measure, cross, sw, w, s_sq, s_inv, width));
                }
            } else {
                let taps = row(k);
                for w in 0..sw.n {
                    let cross = window_dot_i16(&sw.padded, taps, w * sw.stride, sw.len) * sc;
                    out.push(score(measure, cross, sw, w, s_sq, s_inv, width));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShapeletConfig;
    use crate::fused::pool_group_fused;
    use crate::{GroupPrecomp, ShapeletBank};
    use tcsl_tensor::rng::seeded;

    fn bank(d: usize, len: usize, k: usize) -> ShapeletBank {
        let cfg = ShapeletConfig {
            lengths: vec![len],
            k_per_group: k,
            measures: Measure::ALL.to_vec(),
            stride: 1,
        };
        let mut b = ShapeletBank::new(&cfg, d);
        b.randomize(&mut seeded(31));
        b
    }

    #[test]
    fn precision_name_parse_round_trip() {
        for p in [BankPrecision::Full, BankPrecision::F16, BankPrecision::I16] {
            assert_eq!(BankPrecision::parse(p.name()), Some(p));
        }
        assert_eq!(BankPrecision::parse("f64"), None);
        assert_eq!(BankPrecision::Full.scheme(), None);
        assert_eq!(BankPrecision::F16.scheme(), Some(QuantScheme::F16));
        assert_eq!(BankPrecision::I16.scheme(), Some(QuantScheme::I16));
        assert_eq!(BankPrecision::default(), BankPrecision::Full);
    }

    #[test]
    fn norms_match_group_precomp_of_dequantized_view() {
        let b = bank(2, 9, 5);
        for scheme in [QuantScheme::F16, QuantScheme::I16] {
            for g in b.groups() {
                let qp = QuantizedPrecomp::of(&g.shapelets, scheme);
                let deq = qp.dequantized();
                let pre = GroupPrecomp::of(&deq);
                assert_eq!(qp.sq_norms, pre.sq_norms, "{scheme:?}");
                assert_eq!(qp.inv_norms, pre.inv_norms, "{scheme:?}");
            }
        }
    }

    #[test]
    fn quant_pooling_matches_f32_pooling_on_dequantized_taps() {
        // The quantized engines vs the f32 engines run on the *dequantized*
        // bank: same values stream through (just narrower storage), so the
        // scores agree to kernel round-off and argmins agree exactly.
        let mut rng = seeded(32);
        for scheme in [QuantScheme::F16, QuantScheme::I16] {
            for &(d, t, len, k) in &[(1usize, 60usize, 7usize, 5usize), (2, 120, 16, 4)] {
                let b = bank(d, len, k);
                let series = Tensor::randn([d, t], &mut rng);
                for g in b.groups() {
                    let qp = QuantizedPrecomp::of(&g.shapelets, scheme);
                    let pre = GroupPrecomp::of(&qp.dequantized());
                    let sw = ScaleWindows::new(&series, g.len, g.stride);
                    let (want, want_args) = pool_group_fused(&sw, g.measure, &pre);
                    let (got, got_args) = pool_quant_fused(&sw, g.measure, &qp);
                    let (got_b, got_args_b) = pool_quant_blocked(&sw, g.measure, &qp);
                    for j in 0..k {
                        assert!(
                            (got[j] - want[j]).abs() < 1e-4 * (1.0 + want[j].abs()),
                            "{scheme:?} {:?} k={j}: quant {} vs f32-on-deq {}",
                            g.measure,
                            got[j],
                            want[j]
                        );
                        assert_eq!(
                            got_args[j], want_args[j],
                            "{scheme:?} {:?} k={j}",
                            g.measure
                        );
                        assert!(
                            (got_b[j] - want[j]).abs() < 1e-4 * (1.0 + want[j].abs()),
                            "{scheme:?} blocked {:?} k={j}",
                            g.measure
                        );
                        assert_eq!(got_args_b[j], want_args[j]);
                    }
                }
            }
        }
    }

    #[test]
    fn short_scale_f16_pooling_is_bit_identical_to_f32_on_deq() {
        // Below the SIMD threshold both sides run mirrored scalar kernels
        // on the same values (f16→f32 is exact), so f16 pooling is
        // bit-identical to f32 pooling on the dequantized taps. (i16 is
        // not: its scale is applied once per dot instead of per element,
        // which rounds differently — covered by the tolerance test above.)
        let b = bank(1, 5, 3);
        let series = Tensor::randn([1, 40], &mut seeded(33));
        for g in b.groups() {
            let qp = QuantizedPrecomp::of(&g.shapelets, QuantScheme::F16);
            let pre = GroupPrecomp::of(&qp.dequantized());
            let sw = ScaleWindows::new(&series, g.len, g.stride);
            let (want, want_args) = pool_group_fused(&sw, g.measure, &pre);
            let (got, got_args) = pool_quant_fused(&sw, g.measure, &qp);
            assert_eq!(got, want, "{:?}", g.measure);
            assert_eq!(got_args, want_args);
        }
    }

    #[test]
    fn wide_rows_pool_and_localize_consistently() {
        // Rows past PAIR_BLOCK_MIN_ROW take the 2-row / window-quad path on
        // machines with the fused pair kernels (and the 4-row path
        // elsewhere); in both cases localization must reproduce the pooled
        // value bit-for-bit and the scores must stay inside the same error
        // envelope as the f32 engines on the dequantized bank. k = 3 also
        // exercises the odd-row remainder of the pair loop.
        let len = PAIR_BLOCK_MIN_ROW + 29;
        let b = bank(1, len, 3);
        let series = Tensor::randn([1, len + 97], &mut seeded(35));
        for scheme in [QuantScheme::F16, QuantScheme::I16] {
            for g in b.groups() {
                let qp = QuantizedPrecomp::of(&g.shapelets, scheme);
                let pre = GroupPrecomp::of(&qp.dequantized());
                let sw = ScaleWindows::new(&series, g.len, g.stride);
                let (want, _) = pool_group_fused(&sw, g.measure, &pre);
                let (pooled, args) = pool_quant_fused(&sw, g.measure, &qp);
                for k in 0..g.k() {
                    assert!(
                        (pooled[k] - want[k]).abs() < 1e-3 * (1.0 + want[k].abs()),
                        "{scheme:?} {:?} k={k}: quant {} vs f32-on-deq {}",
                        g.measure,
                        pooled[k],
                        want[k]
                    );
                    let col = shapelet_scores_quant(&sw, g.measure, &qp, k);
                    assert_eq!(col.len(), sw.n);
                    assert_eq!(
                        col[args[k]].to_bits(),
                        pooled[k].to_bits(),
                        "{scheme:?} {:?} k={k}",
                        g.measure
                    );
                }
            }
        }
    }

    #[test]
    fn scores_column_matches_pooled_value() {
        let b = bank(2, 6, 5);
        let series = Tensor::randn([2, 50], &mut seeded(34));
        for scheme in [QuantScheme::F16, QuantScheme::I16] {
            for g in b.groups() {
                let qp = QuantizedPrecomp::of(&g.shapelets, scheme);
                let sw = ScaleWindows::new(&series, g.len, g.stride);
                let (pooled, args) = pool_quant_fused(&sw, g.measure, &qp);
                for k in 0..g.k() {
                    let col = shapelet_scores_quant(&sw, g.measure, &qp, k);
                    assert_eq!(col.len(), sw.n);
                    assert_eq!(col[args[k]], pooled[k], "{scheme:?} {:?} k={k}", g.measure);
                }
            }
        }
    }

    #[test]
    fn subset_rows_preserves_taps_and_scales() {
        let b = bank(1, 8, 5);
        let g = &b.groups()[0];
        for scheme in [QuantScheme::F16, QuantScheme::I16] {
            let qp = QuantizedPrecomp::of(&g.shapelets, scheme);
            let sub = qp.subset_rows(&[4, 1]);
            assert_eq!(sub.k(), 2);
            assert_eq!(sub.sq_norms, vec![qp.sq_norms[4], qp.sq_norms[1]]);
            let deq = qp.dequantized();
            let sub_deq = sub.dequantized();
            assert_eq!(sub_deq.row(0), deq.row(4));
            assert_eq!(sub_deq.row(1), deq.row(1));
            if let (Some(s), Some(sub_s)) = (qp.scales(), sub.scales()) {
                assert_eq!(sub_s, &[s[4], s[1]]);
            }
        }
    }

    #[test]
    fn with_scales_reconstructs_identical_taps() {
        // Quantize, dequantize, re-quantize with the persisted scales: the
        // round trip must be exact (|q·s / s − q| ≪ ½ for |q| ≤ 32767).
        let b = bank(2, 11, 4);
        for g in b.groups() {
            let qp = QuantizedPrecomp::of(&g.shapelets, QuantScheme::I16);
            let deq = qp.dequantized();
            #[allow(clippy::disallowed_methods)] // i16 precomp always has scales
            let scales = qp.scales().expect("i16 scales").to_vec();
            let again = QuantizedPrecomp::with_scales(&deq, scales);
            assert_eq!(again.dequantized(), deq);
            assert_eq!(again.sq_norms, qp.sq_norms);
        }
        // Same for f16, where dequantize∘quantize is exactly idempotent.
        for g in b.groups() {
            let qp = QuantizedPrecomp::of(&g.shapelets, QuantScheme::F16);
            let deq = qp.dequantized();
            let again = QuantizedPrecomp::of(&deq, QuantScheme::F16);
            assert_eq!(again.dequantized(), deq);
        }
    }

    #[test]
    fn deq_rows_bit_identical_to_dot4_loop() {
        // Sub-QUANT_MIN_LEN rows pool and localize through the f32 fused
        // engine on the dequantized copy; on stride-1 short scales that is
        // the across-window path, which must reproduce the block-of-4
        // reference loop bit for bit.
        use crate::fused::{assert_bits_eq, dot4_loop_oracle, tie_heavy_series};
        for &(d, len, k) in &[(1usize, 13usize, 5usize), (2, 9, 7), (3, 20, 3)] {
            let b = bank(d, len, k);
            let series = tie_heavy_series(d, 64, len as u64);
            for scheme in [QuantScheme::F16, QuantScheme::I16] {
                for g in b.groups() {
                    let qp = QuantizedPrecomp::of(&g.shapelets, scheme);
                    assert!(qp.deq_taps.is_some(), "row of {} must dequantize", d * len);
                    let deq = qp.dequantized();
                    let sw = ScaleWindows::new(&series, g.len, g.stride);
                    let (want, want_args, want_scores) =
                        dot4_loop_oracle(&sw, g.measure, &qp.sq_norms, &qp.inv_norms, |r| {
                            deq.row(r)
                        });
                    let (pooled, args) = pool_quant_fused(&sw, g.measure, &qp);
                    let what = format!("{scheme:?} d={d} len={len} {:?}", g.measure);
                    assert_bits_eq(&pooled, &want, &what);
                    assert_eq!(args, want_args, "{what} argmins");
                    for (kk, col) in want_scores.iter().enumerate() {
                        assert_bits_eq(&shapelet_scores_quant(&sw, g.measure, &qp, kk), col, &what);
                    }
                }
            }
        }
    }
}
