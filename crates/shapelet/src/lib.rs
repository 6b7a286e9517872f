#![warn(missing_docs)]
// Index-based loops in the numeric kernels walk several parallel
// buffers at once; iterator rewrites obscure that correspondence.
#![allow(clippy::needless_range_loop)]
// The error wall (clippy.toml) exempts test builds: tests assert on values
// and unwrap() freely.
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_macros))]
//! # tcsl-shapelet
//!
//! The **Shapelet Transformer** `f` — the representation encoder at the
//! heart of TimeCSL (paper §2.1).
//!
//! A [`ShapeletBank`] holds learnable shapelets organised into groups, one
//! per (scale = shapelet length, (dis)similarity measure) combination. For a
//! series `x`, each shapelet contributes one feature: its best
//! (dis)similarity against all sliding windows of `x` —
//!
//! * minimum length-normalized Euclidean distance,
//! * maximum cosine similarity,
//! * maximum cross-correlation,
//!
//! so the representation `z = f(x)` is fully interpretable: coordinate `j`
//! is "how well shapelet `j` matches somewhere in `x`".
//!
//! Two evaluation paths share the same numerics:
//!
//! * [`transform`] — the fast inference path (no gradients, parallel over
//!   series),
//! * [`diff_transform`] — the autodiff path used during contrastive
//!   learning and fine-tuning. It runs the *same* fused streaming kernel as
//!   inference, once per distinct view of a batch, and inserts the result
//!   as a custom tape op ([`diff_op::ShapeletDistanceOp`]) with an
//!   arg-routed analytic backward; the original eager-graph
//!   formulation survives as [`diff_transform::oracle`] for parity tests.

pub mod bank;
pub mod config;
pub mod diff_op;
pub mod diff_transform;
pub mod fused;
pub mod init;
pub mod matching;
pub mod measure;
pub mod quant;
pub mod transform;

pub use bank::{GroupPrecomp, ShapeletBank, ShapeletGroup};
pub use config::ShapeletConfig;
pub use measure::Measure;
pub use quant::{BankPrecision, QuantizedPrecomp};

#[cfg(test)]
mod proptests;
