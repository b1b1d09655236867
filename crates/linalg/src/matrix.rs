//! Column-major dense matrix container.
//!
//! The reference GOFMM implementation stores all panels column-major (the
//! BLAS/LAPACK convention); we keep that layout so the blocked GEMM and the
//! pivoted-QR kernels operate on contiguous columns.

use crate::scalar::Scalar;
use rand::distributions::{Distribution, Uniform};
use rand::Rng;

/// Column-major dense matrix of scalars.
#[derive(Clone, PartialEq)]
pub struct DenseMatrix<T: Scalar> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> std::fmt::Debug for DenseMatrix<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "DenseMatrix {}x{} [", self.rows, self.cols)?;
        let show_r = self.rows.min(8);
        let show_c = self.cols.min(8);
        for i in 0..show_r {
            write!(f, "  ")?;
            for j in 0..show_c {
                write!(f, "{:>12.5e} ", self[(i, j)].to_f64())?;
            }
            writeln!(f, "{}", if self.cols > show_c { "..." } else { "" })?;
        }
        if self.rows > show_r {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl<T: Scalar> DenseMatrix<T> {
    /// Zero-initialised `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Wrap an existing column-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Matrix with i.i.d. entries uniform in `[-1, 1]`.
    pub fn random_uniform<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        let dist = Uniform::new_inclusive(-1.0f64, 1.0);
        Self::from_fn(rows, cols, |_, _| T::from_f64(dist.sample(rng)))
    }

    /// Matrix with i.i.d. standard Gaussian entries (Box–Muller; avoids the
    /// `rand_distr` dependency).
    pub fn random_gaussian<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        Self::from_fn(rows, cols, |_, _| T::from_f64(sample_gaussian(rng)))
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True if the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// Raw column-major data slice.
    #[inline(always)]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw column-major data slice.
    #[inline(always)]
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrow column `j` as a contiguous slice.
    #[inline(always)]
    pub fn col(&self, j: usize) -> &[T] {
        debug_assert!(j < self.cols);
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Mutably borrow column `j` as a contiguous slice.
    #[inline(always)]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        debug_assert!(j < self.cols);
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// Unchecked get (debug-asserted), used by hot kernels.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i]
    }

    /// Unchecked set (debug-asserted).
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[j * self.rows + i] = v;
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |i, j| self.get(j, i))
    }

    /// Extract the submatrix formed by `row_idx x col_idx` (gather).
    pub fn submatrix(&self, row_idx: &[usize], col_idx: &[usize]) -> Self {
        Self::from_fn(row_idx.len(), col_idx.len(), |i, j| {
            self.get(row_idx[i], col_idx[j])
        })
    }

    /// Extract a contiguous block `[r0..r1) x [c0..c1)`.
    pub fn block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Self {
        assert!(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols);
        let mut out = Self::zeros(r1 - r0, c1 - c0);
        for j in 0..(c1 - c0) {
            out.col_mut(j).copy_from_slice(&self.col(c0 + j)[r0..r1]);
        }
        out
    }

    /// Copy `other` into the block starting at `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, other: &Self) {
        assert!(r0 + other.rows <= self.rows && c0 + other.cols <= self.cols);
        for j in 0..other.cols {
            self.col_mut(c0 + j)[r0..r0 + other.rows].copy_from_slice(other.col(j));
        }
    }

    /// Split-borrow two distinct columns: `j_read` immutably, `j_write`
    /// mutably. Used by the Householder trailing updates, where the reflector
    /// column scatters into the columns to its right through the dispatched
    /// axpy kernel.
    #[inline(always)]
    pub fn two_cols_mut(&mut self, j_read: usize, j_write: usize) -> (&[T], &mut [T]) {
        assert!(j_read != j_write, "two_cols_mut requires distinct columns");
        debug_assert!(j_read < self.cols && j_write < self.cols);
        let r = self.rows;
        if j_read < j_write {
            let (lo, hi) = self.data.split_at_mut(j_write * r);
            (&lo[j_read * r..j_read * r + r], &mut hi[..r])
        } else {
            let (lo, hi) = self.data.split_at_mut(j_read * r);
            (&hi[..r], &mut lo[j_write * r..j_write * r + r])
        }
    }

    /// Select whole columns by index (gather of columns).
    pub fn select_cols(&self, col_idx: &[usize]) -> Self {
        let mut out = Self::zeros(self.rows, col_idx.len());
        for (jo, &j) in col_idx.iter().enumerate() {
            out.col_mut(jo).copy_from_slice(self.col(j));
        }
        out
    }

    /// Select whole rows by index (gather of rows).
    pub fn select_rows(&self, row_idx: &[usize]) -> Self {
        let mut out = Self::zeros(row_idx.len(), self.cols);
        self.gather_rows_into(row_idx, &mut out);
        out
    }

    /// Gather rows into an existing matrix: `out[i, j] = self[row_idx[i], j]`,
    /// one column slice at a time.
    ///
    /// # Panics
    /// Panics unless `out` is `row_idx.len() x self.cols()`, or if an index
    /// is out of range.
    pub fn gather_rows_into(&self, row_idx: &[usize], out: &mut Self) {
        assert_eq!(
            (out.rows, out.cols),
            (row_idx.len(), self.cols),
            "gather_rows_into shape mismatch"
        );
        for j in 0..self.cols {
            let src = self.col(j);
            for (dst, &i) in out.col_mut(j).iter_mut().zip(row_idx) {
                *dst = src[i];
            }
        }
    }

    /// Vertically stack `self` on top of `other` (column counts must match).
    pub fn vstack(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut out = Self::zeros(self.rows + other.rows, self.cols);
        for j in 0..self.cols {
            let (top, bottom) = out.col_mut(j).split_at_mut(self.rows);
            top.copy_from_slice(self.col(j));
            bottom.copy_from_slice(other.col(j));
        }
        out
    }

    /// Horizontally stack `self` to the left of `other` (row counts must match).
    pub fn hstack(&self, other: &Self) -> Self {
        assert_eq!(self.rows, other.rows, "hstack row mismatch");
        let mut out = Self::zeros(self.rows, self.cols + other.cols);
        out.data[..self.data.len()].copy_from_slice(&self.data);
        out.data[self.data.len()..].copy_from_slice(&other.data);
        out
    }

    /// Set every entry to `v` (used to recycle buffers across evaluations).
    pub fn fill(&mut self, v: T) {
        for x in &mut self.data {
            *x = v;
        }
    }

    /// Scale every entry in place.
    pub fn scale(&mut self, alpha: T) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// `self += alpha * other` entrywise.
    pub fn axpy(&mut self, alpha: T, other: &Self) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = alpha.mul_add(*b, *a);
        }
    }

    /// Entry-wise difference `self - other`.
    pub fn sub(&self, other: &Self) -> Self {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(other.data.iter()) {
            *a -= *b;
        }
        out
    }

    /// Entry-wise sum `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        let mut out = self.clone();
        for (a, b) in out.data.iter_mut().zip(other.data.iter()) {
            *a += *b;
        }
        out
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> T {
        let mut acc = T::zero();
        for v in &self.data {
            acc = v.mul_add(*v, acc);
        }
        acc.sqrt()
    }

    /// Maximum absolute entry.
    pub fn norm_max(&self) -> T {
        self.data.iter().fold(T::zero(), |acc, v| acc.max(v.abs()))
    }

    /// Convert every entry to a different precision.
    pub fn cast<U: Scalar>(&self) -> DenseMatrix<U> {
        DenseMatrix::from_fn(self.rows, self.cols, |i, j| {
            U::from_f64(self.get(i, j).to_f64())
        })
    }

    /// Symmetrise in place: `self = (self + self^T) / 2`. Requires square.
    pub fn symmetrize(&mut self) {
        assert_eq!(self.rows, self.cols, "symmetrize requires a square matrix");
        let half = T::from_f64(0.5);
        for j in 0..self.cols {
            for i in (j + 1)..self.rows {
                let v = (self.get(i, j) + self.get(j, i)) * half;
                self.set(i, j, v);
                self.set(j, i, v);
            }
        }
    }

    /// Consume and return the raw buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for DenseMatrix<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        &self.data[j * self.rows + i]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for DenseMatrix<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        &mut self.data[j * self.rows + i]
    }
}

/// `rows` of the given columns, side by side, as a matrix over `buf`'s
/// storage: how the dense factorization kernels stage GEMM operands in the
/// thread's factorization scratch.
pub(crate) fn gather_rows<'a, T: Scalar>(
    cols: impl Iterator<Item = &'a [T]>,
    rows: std::ops::Range<usize>,
    mut buf: Vec<T>,
) -> DenseMatrix<T> {
    buf.clear();
    let mut count = 0;
    for col in cols {
        buf.extend_from_slice(&col[rows.clone()]);
        count += 1;
    }
    DenseMatrix::from_vec(rows.len(), count, buf)
}

/// Sample one standard Gaussian variate with Box–Muller.
pub fn sample_gaussian<R: Rng>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_identity() {
        let z = DenseMatrix::<f64>::zeros(3, 4);
        assert_eq!(z.rows(), 3);
        assert_eq!(z.cols(), 4);
        assert_eq!(z.norm_fro(), 0.0);
        let i = DenseMatrix::<f64>::identity(5);
        assert_eq!(i.norm_fro(), (5.0f64).sqrt());
        assert_eq!(i[(2, 2)], 1.0);
        assert_eq!(i[(2, 3)], 0.0);
    }

    #[test]
    fn from_fn_layout_is_column_major() {
        let m = DenseMatrix::<f64>::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        // column 0 is contiguous
        assert_eq!(m.col(0), &[0.0, 10.0]);
        assert_eq!(m.col(2), &[2.0, 12.0]);
        assert_eq!(m[(1, 2)], 12.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = DenseMatrix::<f64>::random_uniform(4, 7, &mut rng);
        let t = m.transpose().transpose();
        assert_eq!(m, t);
    }

    #[test]
    fn submatrix_and_block() {
        let m = DenseMatrix::<f64>::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = m.submatrix(&[0, 2], &[1, 3]);
        assert_eq!(s[(0, 0)], 1.0);
        assert_eq!(s[(1, 1)], 11.0);
        let b = m.block(1, 3, 1, 4);
        assert_eq!(b.rows(), 2);
        assert_eq!(b.cols(), 3);
        assert_eq!(b[(0, 0)], 5.0);
    }

    #[test]
    fn stacking() {
        let a = DenseMatrix::<f64>::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = DenseMatrix::<f64>::identity(2);
        let v = a.vstack(&b);
        assert_eq!(v.rows(), 4);
        assert_eq!(v[(2, 0)], 1.0);
        let h = a.hstack(&b);
        assert_eq!(h.cols(), 4);
        assert_eq!(h[(0, 2)], 1.0);
    }

    #[test]
    fn axpy_and_norms() {
        let a = DenseMatrix::<f64>::identity(3);
        let mut b = DenseMatrix::<f64>::zeros(3, 3);
        b.axpy(2.0, &a);
        assert_eq!(b[(1, 1)], 2.0);
        assert_eq!(b.norm_max(), 2.0);
        assert!((b.norm_fro() - (12.0f64).sqrt()).abs() < 1e-14);
    }

    #[test]
    fn symmetrize_produces_symmetric() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = DenseMatrix::<f64>::random_uniform(5, 5, &mut rng);
        m.symmetrize();
        for i in 0..5 {
            for j in 0..5 {
                assert_eq!(m[(i, j)], m[(j, i)]);
            }
        }
    }

    #[test]
    fn cast_preserves_values_approximately() {
        let m = DenseMatrix::<f64>::from_fn(3, 3, |i, j| (i + j) as f64 * 0.125);
        let s: DenseMatrix<f32> = m.cast();
        assert!((s[(2, 2)] as f64 - 0.5).abs() < 1e-7);
    }

    #[test]
    fn select_rows_cols() {
        let m = DenseMatrix::<f64>::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let c = m.select_cols(&[2, 0]);
        assert_eq!(c[(0, 0)], 2.0);
        assert_eq!(c[(0, 1)], 0.0);
        let r = m.select_rows(&[1]);
        assert_eq!(r.rows(), 1);
        assert_eq!(r[(0, 2)], 5.0);
        let mut g = DenseMatrix::<f64>::zeros(4, 3);
        m.gather_rows_into(&[2, 0, 2, 1], &mut g);
        assert_eq!(
            g,
            DenseMatrix::from_fn(4, 3, |i, j| m[([2, 0, 2, 1][i], j)])
        );
        assert_eq!(m.select_rows(&[2, 0, 2, 1]), g);
    }

    #[test]
    #[should_panic(expected = "gather_rows_into shape mismatch")]
    fn gather_rows_into_rejects_a_misshapen_output() {
        let m = DenseMatrix::<f64>::zeros(3, 2);
        m.gather_rows_into(&[0, 1], &mut DenseMatrix::zeros(2, 3));
    }

    #[test]
    fn vstack_handles_empty_blocks() {
        let a = DenseMatrix::<f64>::from_fn(3, 2, |i, j| (i + 10 * j) as f64);
        let empty = DenseMatrix::<f64>::zeros(0, 2);
        assert_eq!(a.vstack(&empty), a);
        assert_eq!(empty.vstack(&a), a);
        assert_eq!(empty.vstack(&empty).rows(), 0);
    }

    #[test]
    #[should_panic]
    fn from_vec_panics_on_wrong_length() {
        let _ = DenseMatrix::<f64>::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn gaussian_sampling_has_reasonable_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = DenseMatrix::<f64>::random_gaussian(200, 50, &mut rng);
        let mean: f64 = m.data().iter().sum::<f64>() / (200.0 * 50.0);
        let var: f64 = m
            .data()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / (200.0 * 50.0);
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }
}
