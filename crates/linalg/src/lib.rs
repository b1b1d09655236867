//! # gofmm-linalg
//!
//! Dense linear-algebra substrate for the GOFMM reproduction.
//!
//! The GOFMM paper builds on MKL/CUBLAS for GEMM, GEQP3 (rank-revealing
//! pivoted QR), TRSM and POTRF. This crate provides pure-Rust equivalents of
//! exactly that functionality, generic over [`Scalar`] (`f32`/`f64`):
//!
//! * [`matrix::DenseMatrix`] — column-major dense matrices,
//! * [`blas`] — packed, cache-blocked GEMM (plus the mixed-precision
//!   [`blas::gemm_mixed`]), GEMV, dots and norm estimates,
//! * [`simd`] — the runtime-dispatched AVX2/FMA micro-kernels behind them,
//!   and the vectorised `exp` behind kernel-matrix blocks, with a portable
//!   scalar fallback (`GOFMM_FORCE_SCALAR=1` pins it),
//! * [`qr`] — Householder QR/QL and column-pivoted (rank-revealing) QR,
//! * [`trsm`] — triangular solves,
//! * [`ulv`] — ULV building blocks: two-sided orthogonal block reduction and
//!   trailing Schur elimination for backward-stable hierarchical solves,
//! * [`cholesky`] — Cholesky factorization / SPD solves / SPD inversion,
//! * [`lu`] — partial-pivoted LU for the solver's small non-symmetric cores,
//! * [`id`] — interpolative decomposition built on the pivoted QR.
//!
//! All kernels are sequential; coarse-grained parallelism comes from the task
//! runtime in `gofmm-runtime` (mirroring the paper's design, where one tree
//! task maps to one sequential BLAS/LAPACK call).

pub mod blas;
pub mod blob;
pub mod cholesky;
pub mod id;
pub mod lu;
pub mod matrix;
pub mod qr;
pub mod scalar;
pub mod simd;
pub mod trsm;
pub mod ulv;

pub use blas::{
    axpy, dot, gemm, gemm_cols, gemm_mixed, gemm_mixed_cols, gemv, matmul, matmul_nt, matmul_tn,
    norm2_est, nrm2, Transpose,
};
pub use blob::{check_scalar_width, decode_scalar_vec, encode_scalar_slice};
pub use cholesky::{is_spd, Cholesky, NotPositiveDefinite};
pub use id::{id_reconstruct, interpolative_decomposition, Id};
pub use lu::{LuFactor, SingularMatrix};
pub use matrix::DenseMatrix;
pub use qr::{
    householder_ql, householder_qr, pivoted_qr, truncate_low_rank, LowRankFactors, QlFactors,
    QrFactors, QrOptions,
};
pub use scalar::Scalar;
pub use simd::{simd_level, SimdLevel};
pub use trsm::{tri_inverse, trsm_left, trsm_left_blocked, trsv, Triangle};
pub use ulv::{eliminate_trailing, rotate_symmetric, TrailingElimination, WyRotation};
