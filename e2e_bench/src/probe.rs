//! Host-speed probe: a fixed mix of the kinds of work the workloads do,
//! written in the benchmark's own code. One probe runs multiply-adds over
//! a pair of L2-sized vectors, parses floats from text and sweeps a 4 MiB
//! array. The sweep is there because the neighbours slow the program
//! mostly through the shared caches and memory: of the three parts it
//! tracked the serving workloads' slow stretches best.
//!
//! On a shared host, neighbours slow the benchmark's cores by up to 1.7x
//! for minutes at a time. Probes run between rounds, and the end-to-end
//! timings are scaled by how far the probe's fast time sits from
//! [`REFERENCE_MS`], so a slow stretch slows the probe and the program
//! alike and mostly cancels out of the reported number.
//!
//! A probe starts with whatever the last round left in the caches, so its
//! level differs by workload (about 0.65 ms between `serve_*` requests,
//! 0.35 ms after the longer `pretrain` and `explore` rounds, on a quiet
//! host). Compare normalized numbers within a workload only. Probes run in
//! bursts, or after an untimed warm-up pass, had one level everywhere but
//! tracked the slow stretches only half as well.

use crate::stats::quantile;
use std::hint::black_box;
use std::time::Instant;

/// Probe time, ms, that the normalized timings are scaled to: about the
/// probe's fast time between `serve_*` requests on the 2.1 GHz Xeon VM the
/// benchmark was tuned on.
pub const REFERENCE_MS: f64 = 0.6;
/// Share of the pass's wall time the probes may take.
const SHARE: f64 = 0.01;
/// Multiply-add passes over the vector pair per probe.
const MAC_PASSES: usize = 24;
/// Floats parsed per probe.
const FLOATS: usize = 4000;
/// `u64`s in the swept array: 4 MiB.
const SWEEP_WORDS: usize = 1 << 19;
/// Stride of the sweep, in `u64`s: four loads per 64-byte cache line.
const SWEEP_STRIDE: usize = 2;

pub struct Probe {
    a: Vec<f32>,
    b: Vec<f32>,
    text: String,
    sweep: Vec<u64>,
    times_ms: Vec<f64>,
    spent_s: f64,
}

impl Probe {
    pub fn new() -> Probe {
        let text: Vec<String> = (0..FLOATS)
            .map(|i| format!("{:.6}", (i as f32 * 0.013).sin()))
            .collect();
        Probe {
            a: (0..16_384).map(|i| (i as f32 * 0.37).sin()).collect(),
            b: (0..16_384).map(|i| (i as f32 * 0.11).cos()).collect(),
            text: text.join(","),
            sweep: (0..SWEEP_WORDS as u64)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
            times_ms: Vec::new(),
            spent_s: 0.0,
        }
    }

    /// Runs probes until they have taken [`SHARE`] of `elapsed_s`, and at
    /// least one.
    pub fn keep_up(&mut self, elapsed_s: f64) {
        while self.times_ms.is_empty() || self.spent_s < SHARE * elapsed_s {
            let t = Instant::now();
            self.run_once();
            let s = t.elapsed().as_secs_f64();
            self.spent_s += s;
            self.times_ms.push(s * 1e3);
        }
    }

    fn run_once(&self) {
        let mut acc = 0.0f32;
        for _ in 0..MAC_PASSES {
            let (a, b) = (black_box(&self.a), black_box(&self.b));
            let mut lanes = [0.0f32; 8];
            for (ca, cb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
                for k in 0..8 {
                    lanes[k] += ca[k] * cb[k];
                }
            }
            acc += lanes.iter().sum::<f32>();
        }
        for f in black_box(&self.text).split(',') {
            acc += f.parse::<f32>().unwrap_or(0.0);
        }
        let mut x = 0u64;
        for w in black_box(&self.sweep).iter().step_by(SWEEP_STRIDE) {
            x = x.wrapping_add(*w);
        }
        black_box((acc, x));
    }

    /// Probes run so far.
    pub fn count(&self) -> usize {
        self.times_ms.len()
    }

    /// The probe's time at quantile `q` over every probe run, ms.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        quantile(&self.times_ms, q)
    }
}
