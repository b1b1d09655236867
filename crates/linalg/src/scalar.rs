//! Minimal floating-point scalar abstraction.
//!
//! GOFMM runs in single precision for the PDE/graph matrices and double
//! precision for the machine-learning kernel matrices (paper §3). Everything
//! downstream is generic over [`Scalar`] so both precisions share one code
//! path, mirroring the `float`/`double` template parameter of the reference
//! C++ implementation.

use std::cell::RefCell;
use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A storage precision (`Self`) whose elements the kernels of
/// [`crate::blas::gemm`] read in place and accumulate in precision `T`,
/// widening in register: the two narrow-RHS stream kernels and the register
/// tile. Implemented for every scalar into itself and for each
/// [`Scalar::PanelScalar`] into its accumulator precision, which is how
/// `gemm` and `gemm_mixed` pick their kernel from the operand types. The
/// implementations sit next to the kernels in [`crate::simd`].
pub trait InPlaceInto<T>: Sized {
    /// Runtime-dispatched fused stream kernel, bit-identical on every
    /// dispatch path: `acc[c*rows + r] = fma(a[p*lda + r], b[c*ldb + p],
    /// acc[c*rows + r])` for `p = 0..kb` in increasing order, over the
    /// `acc.len() / rows` columns of `acc` (see
    /// [`crate::simd::stream_scalar`]).
    fn stream_kernel(
        rows: usize,
        kb: usize,
        a: &[Self],
        lda: usize,
        b: &[T],
        ldb: usize,
        acc: &mut [T],
    );
    /// Runtime-dispatched transposed stream kernel, bit-identical on every
    /// dispatch path: `out[j*W + l] = sum_i a[j*lda + i] * brow[i*W + l]`
    /// from zero in increasing `i < kb`, `W` =
    /// [`crate::simd::STREAM_T_WIDTH`] (see [`crate::simd::stream_t_scalar`]).
    fn stream_t_kernel(
        kb: usize,
        m: usize,
        n: usize,
        a: &[Self],
        lda: usize,
        brow: &[T],
        out: &mut [T],
    );
    /// Runtime-dispatched `MR x NR` register tile over `a`, `b` and `c` read
    /// in place with the given leading dimensions and strides, bit-identical
    /// on every dispatch path: `c[j*ldc + r] = alpha.mul_add(sum, ..)` with
    /// `sum = sum_p a[p*lda + r] * b[p*rsb + j*csb]` from zero in increasing
    /// `p < kb`, for `r < rows`, `j < cols` (see
    /// [`crate::simd::microkernel_scalar`]).
    fn tile_kernel(
        alpha: T,
        shape: (usize, usize, usize),
        a: (&[Self], usize),
        b: (&[T], (usize, usize)),
        c: (&mut [T], usize),
    );
}

/// Floating-point scalar usable by the dense linear-algebra kernels.
///
/// Implemented for `f32` and `f64`. The trait is intentionally small: it only
/// exposes the operations the GOFMM kernels actually need, so adding another
/// precision (e.g. a software `f16`) stays cheap.
pub trait Scalar:
    Copy
    + Send
    + Sync
    + 'static
    + Debug
    + Display
    + PartialOrd
    + Default
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum<Self>
    + InPlaceInto<Self>
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Machine epsilon of this precision.
    fn epsilon() -> Self;
    /// Conversion from `f64` (used for constants and accumulating statistics).
    fn from_f64(x: f64) -> Self;
    /// Conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Fused multiply-add `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Power with a floating exponent.
    fn powf(self, e: Self) -> Self;
    /// Integer power.
    fn powi(self, e: i32) -> Self;
    /// Maximum of two values (NaN-ignoring like `f64::max`).
    fn max(self, other: Self) -> Self;
    /// Minimum of two values.
    fn min(self, other: Self) -> Self;
    /// True if the value is finite.
    fn is_finite(self) -> bool;
    /// Short human-readable name of the precision ("f32"/"f64"), used in
    /// experiment reports.
    fn precision_name() -> &'static str;

    /// Storage precision of mixed-precision interaction panels: `f32` for an
    /// `f64` operator (halving panel memory), identity for `f32`. The GEMM
    /// against such a panel upconverts in register as it loads and accumulates in
    /// `Self` — i.e. `Self` is the accumulator precision, `PanelScalar` the
    /// storage precision (paper §3 runs storage-bound problems in single
    /// precision for exactly this trade).
    type PanelScalar: Scalar + InPlaceInto<Self>;

    /// Register micro-kernel rows (`MR`) of this precision's GEMM tile.
    const MR: usize;
    /// Register micro-kernel columns (`NR`) of this precision's GEMM tile.
    const NR: usize;

    /// Runtime-dispatched dot product.
    fn dot_kernel(x: &[Self], y: &[Self]) -> Self;
    /// Runtime-dispatched axpy `y[i] = fma(alpha, x[i], y[i])` (bit-identical
    /// to the scalar loop on every dispatch path).
    fn axpy_kernel(alpha: Self, x: &[Self], y: &mut [Self]);

    /// Run `f` on `len` elements of the calling thread's grow-only GEMM
    /// scratch: the `MR`-row strips a transposed `A` is copied into (at most
    /// `MC x KC`, 256 KiB of f64) and the stream path's block sums and
    /// row-major `B` (tens of KiB). The contents are whatever the previous
    /// call on this thread left there: the caller must write every element
    /// before reading it (each user in [`crate::blas::gemm`] does). Not
    /// re-entrant.
    fn with_pack_scratch<R>(len: usize, f: impl FnOnce(&mut [Self]) -> R) -> R;

    /// Run `f` on the calling thread's stash of grow-only buffers for
    /// dense temporaries (the compact-WY operands of
    /// [`crate::ulv::rotate_symmetric`], an apply task's stacked right-hand
    /// sides). `f` pops buffers — of any length
    /// and contents — and pushes them back when done, so later calls on this
    /// thread reuse their capacity. Unlike the pack scratch it may stay
    /// borrowed across [`crate::blas::gemm`] calls. Not re-entrant.
    fn with_factor_scratch<R>(f: impl FnOnce(&mut Vec<Vec<Self>>) -> R) -> R;
}

macro_rules! impl_scalar {
    ($t:ty, $name:expr, $panel:ty, $mr:expr,
     $dot:path, $axpy:path) => {
        impl Scalar for $t {
            #[inline(always)]
            fn zero() -> Self {
                0.0
            }
            #[inline(always)]
            fn one() -> Self {
                1.0
            }
            #[inline(always)]
            fn epsilon() -> Self {
                <$t>::EPSILON
            }
            #[inline(always)]
            fn from_f64(x: f64) -> Self {
                x as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline(always)]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
            #[inline(always)]
            fn ln(self) -> Self {
                <$t>::ln(self)
            }
            #[inline(always)]
            fn powf(self, e: Self) -> Self {
                <$t>::powf(self, e)
            }
            #[inline(always)]
            fn powi(self, e: i32) -> Self {
                <$t>::powi(self, e)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            fn precision_name() -> &'static str {
                $name
            }

            type PanelScalar = $panel;
            const MR: usize = $mr;
            const NR: usize = crate::simd::TILE_COLS;

            #[inline(always)]
            fn dot_kernel(x: &[Self], y: &[Self]) -> Self {
                $dot(x, y)
            }
            #[inline(always)]
            fn axpy_kernel(alpha: Self, x: &[Self], y: &mut [Self]) {
                $axpy(alpha, x, y)
            }
            fn with_pack_scratch<R>(len: usize, f: impl FnOnce(&mut [Self]) -> R) -> R {
                thread_local! {
                    static PACK: RefCell<Vec<$t>> = const { RefCell::new(Vec::new()) };
                }
                PACK.with(|cell| {
                    let mut buf = cell.borrow_mut();
                    if buf.len() < len {
                        buf.resize(len, 0.0);
                    }
                    f(&mut buf[..len])
                })
            }
            fn with_factor_scratch<R>(f: impl FnOnce(&mut Vec<Vec<Self>>) -> R) -> R {
                thread_local! {
                    static STASH: RefCell<Vec<Vec<$t>>> = const { RefCell::new(Vec::new()) };
                }
                STASH.with(|cell| f(&mut cell.borrow_mut()))
            }
        }
    };
}

impl_scalar!(
    f32,
    "f32",
    f32,
    16,
    crate::simd::dot_f32,
    crate::simd::axpy_f32
);
impl_scalar!(
    f64,
    "f64",
    f32,
    8,
    crate::simd::dot_f64,
    crate::simd::axpy_f64
);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Scalar>() {
        assert_eq!(T::zero().to_f64(), 0.0);
        assert_eq!(T::one().to_f64(), 1.0);
        assert!((T::from_f64(2.5).to_f64() - 2.5).abs() < 1e-12);
        assert!(T::from_f64(4.0).sqrt().to_f64() - 2.0 < 1e-6);
        assert!(T::from_f64(-3.0).abs().to_f64() - 3.0 < 1e-6);
        assert!(T::epsilon().to_f64() > 0.0);
        assert!(T::from_f64(1.0).is_finite());
        assert!(!T::from_f64(f64::INFINITY).is_finite());
    }

    #[test]
    fn scalar_f32_roundtrip() {
        roundtrip::<f32>();
        assert_eq!(f32::precision_name(), "f32");
    }

    #[test]
    fn scalar_f64_roundtrip() {
        roundtrip::<f64>();
        assert_eq!(f64::precision_name(), "f64");
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let a = 1.5f64;
        assert!((Scalar::mul_add(a, 2.0, 3.0) - (a * 2.0 + 3.0)).abs() < 1e-15);
    }

    /// The AVX2 tile keeps its `MR x NR` sums in twelve 256-bit registers:
    /// two registers of rows for each of `NR` columns.
    #[test]
    fn tile_sizes_fit_the_accumulator_buffer() {
        use std::mem::size_of;
        assert_eq!(<f64 as Scalar>::MR * size_of::<f64>(), 2 * 32);
        assert_eq!(<f32 as Scalar>::MR * size_of::<f32>(), 2 * 32);
        assert_eq!(<f64 as Scalar>::NR, crate::simd::TILE_COLS);
        assert_eq!(<f32 as Scalar>::NR * 2, 12);
    }

    #[test]
    fn panel_scalar_is_single_precision() {
        assert_eq!(<f64 as Scalar>::PanelScalar::precision_name(), "f32");
        assert_eq!(<f32 as Scalar>::PanelScalar::precision_name(), "f32");
    }

    #[test]
    fn max_min_ordering() {
        assert_eq!(Scalar::max(1.0f32, 2.0), 2.0);
        assert_eq!(Scalar::min(1.0f32, 2.0), 1.0);
    }
}
