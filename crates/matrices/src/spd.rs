//! The `SpdMatrix` trait: GOFMM's only required input.
//!
//! The paper's problem statement: *"The only required input to our algorithm
//! is a routine that returns `K_{I,J}` for arbitrary row and column index sets
//! `I` and `J`."* This trait is that routine. Optionally a matrix can expose
//! point coordinates, which enables the geometry-aware reference path.

use crate::points::PointCloud;
use gofmm_linalg::{DenseMatrix, Scalar};

/// An SPD matrix accessible through block and entry evaluation.
///
/// [`Self::submatrix`] is the hot path: compression, near-block caching and
/// the factorization ask for `K_{I,J}` a block at a time, and the tree and
/// neighbour search ask for their Gram distances the same way. An
/// implementation that can evaluate a block faster than entry by entry
/// overrides it. Either way the two must agree bit for bit:
/// `entry(i, j) == submatrix(&[i], &[j])[(0, 0)]`, and every entry of a
/// block is the entry of its `(row, column)` pair, wherever the block and
/// whichever its shape.
pub trait SpdMatrix<T: Scalar>: Sync {
    /// Matrix dimension `N`.
    fn n(&self) -> usize;

    /// Entry `K_{ij}`.
    fn entry(&self, i: usize, j: usize) -> T;

    /// Diagonal entry `K_{ii}` (often cheaper than a general entry).
    fn diag(&self, i: usize) -> T {
        self.entry(i, i)
    }

    /// Gather the submatrix `K_{rows, cols}`.
    fn submatrix(&self, rows: &[usize], cols: &[usize]) -> DenseMatrix<T> {
        DenseMatrix::from_fn(rows.len(), cols.len(), |i, j| self.entry(rows[i], cols[j]))
    }

    /// Point coordinates, when the matrix came from a kernel function applied
    /// to points. `None` for purely algebraic matrices (graphs, Hessians, …).
    fn coords(&self) -> Option<&PointCloud> {
        None
    }

    /// Short identifier used in reports ("K02", "COVTYPE100K", …).
    fn name(&self) -> String {
        "spd".to_string()
    }

    /// Exact product of selected rows with a dense block of vectors:
    /// `K[rows, :] * w`, where `w` is `N x r`. Used by the sampled relative
    /// error estimate (paper §3). The default gathers one row at a time.
    fn rows_times(&self, rows: &[usize], w: &DenseMatrix<T>) -> DenseMatrix<T> {
        assert_eq!(w.rows(), self.n());
        let mut out = DenseMatrix::zeros(rows.len(), w.cols());
        for (oi, &i) in rows.iter().enumerate() {
            for j in 0..self.n() {
                let kij = self.entry(i, j);
                if kij == T::zero() {
                    continue;
                }
                for c in 0..w.cols() {
                    let cur = out.get(oi, c);
                    out.set(oi, c, kij.mul_add(w.get(j, c), cur));
                }
            }
        }
        out
    }

    /// Exact full matvec `K * w` (dense reference; `O(N^2 r)`).
    fn matvec_exact(&self, w: &DenseMatrix<T>) -> DenseMatrix<T> {
        let rows: Vec<usize> = (0..self.n()).collect();
        self.rows_times(&rows, w)
    }
}

impl<T: Scalar, M: SpdMatrix<T> + ?Sized> SpdMatrix<T> for &M {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn entry(&self, i: usize, j: usize) -> T {
        (**self).entry(i, j)
    }
    fn diag(&self, i: usize) -> T {
        (**self).diag(i)
    }
    fn submatrix(&self, rows: &[usize], cols: &[usize]) -> DenseMatrix<T> {
        (**self).submatrix(rows, cols)
    }
    fn coords(&self) -> Option<&PointCloud> {
        (**self).coords()
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn rows_times(&self, rows: &[usize], w: &DenseMatrix<T>) -> DenseMatrix<T> {
        (**self).rows_times(rows, w)
    }
    fn matvec_exact(&self, w: &DenseMatrix<T>) -> DenseMatrix<T> {
        (**self).matvec_exact(w)
    }
}

impl<T: Scalar> SpdMatrix<T> for Box<dyn SpdMatrix<T> + Send + Sync> {
    fn n(&self) -> usize {
        (**self).n()
    }
    fn entry(&self, i: usize, j: usize) -> T {
        (**self).entry(i, j)
    }
    fn diag(&self, i: usize) -> T {
        (**self).diag(i)
    }
    fn submatrix(&self, rows: &[usize], cols: &[usize]) -> DenseMatrix<T> {
        (**self).submatrix(rows, cols)
    }
    fn coords(&self) -> Option<&PointCloud> {
        (**self).coords()
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn rows_times(&self, rows: &[usize], w: &DenseMatrix<T>) -> DenseMatrix<T> {
        (**self).rows_times(rows, w)
    }
    fn matvec_exact(&self, w: &DenseMatrix<T>) -> DenseMatrix<T> {
        (**self).matvec_exact(w)
    }
}

/// An explicitly stored dense SPD matrix, optionally with point coordinates.
#[derive(Clone, Debug)]
pub struct DenseSpd<T: Scalar> {
    data: DenseMatrix<T>,
    coords: Option<PointCloud>,
    name: String,
}

impl<T: Scalar> DenseSpd<T> {
    /// Wrap a dense matrix. Symmetry is enforced; positive definiteness is the
    /// caller's responsibility (generators in this crate guarantee it).
    pub fn new(mut data: DenseMatrix<T>, name: impl Into<String>) -> Self {
        assert_eq!(data.rows(), data.cols(), "SPD matrix must be square");
        data.symmetrize();
        Self {
            data,
            coords: None,
            name: name.into(),
        }
    }

    /// Attach point coordinates (enables the geometric distance).
    pub fn with_coords(mut self, coords: PointCloud) -> Self {
        assert_eq!(coords.len(), self.data.rows());
        self.coords = Some(coords);
        self
    }

    /// Access the underlying dense storage.
    pub fn dense(&self) -> &DenseMatrix<T> {
        &self.data
    }
}

impl<T: Scalar> SpdMatrix<T> for DenseSpd<T> {
    fn n(&self) -> usize {
        self.data.rows()
    }

    #[inline]
    fn entry(&self, i: usize, j: usize) -> T {
        self.data.get(i, j)
    }

    fn coords(&self) -> Option<&PointCloud> {
        self.coords.as_ref()
    }

    fn name(&self) -> String {
        self.name.clone()
    }

    fn rows_times(&self, rows: &[usize], w: &DenseMatrix<T>) -> DenseMatrix<T> {
        // Dense storage: use the blocked GEMM on the gathered row panel.
        let panel = self.data.select_rows(rows);
        gofmm_linalg::matmul(&panel, w)
    }
}

/// Adapter exposing an `SpdMatrix<f64>` (the precision the generators use) as
/// an [`SpdMatrix`] of any scalar precision, converting each entry on access.
/// Used for the single-precision experiments (Table 5, Figure 1).
pub struct CastedSpd<'a, M: ?Sized> {
    inner: &'a M,
}

impl<'a, M: SpdMatrix<f64> + ?Sized> CastedSpd<'a, M> {
    /// Wrap a double-precision matrix.
    pub fn new(inner: &'a M) -> Self {
        Self { inner }
    }
}

impl<'a, T: Scalar, M: SpdMatrix<f64> + ?Sized> SpdMatrix<T> for CastedSpd<'a, M> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn entry(&self, i: usize, j: usize) -> T {
        T::from_f64(self.inner.entry(i, j))
    }
    fn diag(&self, i: usize) -> T {
        T::from_f64(self.inner.diag(i))
    }
    /// The inner double-precision block, cast: the same bits as casting
    /// each entry, at the inner matrix's block speed.
    fn submatrix(&self, rows: &[usize], cols: &[usize]) -> DenseMatrix<T> {
        self.inner.submatrix(rows, cols).cast()
    }
    fn coords(&self) -> Option<&PointCloud> {
        self.inner.coords()
    }
    fn name(&self) -> String {
        self.inner.name()
    }
}

/// Relative error `||K w - u|| / ||K w||` measured on a sampled subset of rows
/// (the paper's epsilon_2 with 100 sampled rows).
pub fn sampled_relative_error<T: Scalar, M: SpdMatrix<T> + ?Sized>(
    k: &M,
    w: &DenseMatrix<T>,
    u_approx: &DenseMatrix<T>,
    sample_rows: usize,
    seed: u64,
) -> f64 {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let n = k.n();
    assert_eq!(w.rows(), n);
    assert_eq!(u_approx.rows(), n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut rows: Vec<usize> = (0..n).collect();
    rows.shuffle(&mut rng);
    rows.truncate(sample_rows.clamp(1, n));
    let exact = k.rows_times(&rows, w);
    let approx = u_approx.select_rows(&rows);
    let diff = approx.sub(&exact);
    let denom = exact.norm_fro().to_f64();
    if denom == 0.0 {
        diff.norm_fro().to_f64()
    } else {
        diff.norm_fro().to_f64() / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gofmm_linalg::matmul;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_spd(n: usize, seed: u64) -> DenseSpd<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = DenseMatrix::<f64>::random_gaussian(n, n, &mut rng);
        let mut a = gofmm_linalg::matmul_nt(&g, &g);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        DenseSpd::new(a, "random")
    }

    #[test]
    fn dense_spd_entry_access() {
        let m = random_spd(8, 1);
        assert_eq!(m.n(), 8);
        assert_eq!(m.entry(3, 5), m.entry(5, 3));
        assert_eq!(m.diag(2), m.entry(2, 2));
        assert!(m.coords().is_none());
        assert_eq!(m.name(), "random");
    }

    #[test]
    fn submatrix_matches_entries() {
        let m = random_spd(10, 2);
        let sub = m.submatrix(&[1, 3, 5], &[0, 2]);
        assert_eq!(sub.rows(), 3);
        assert_eq!(sub.cols(), 2);
        assert_eq!(sub[(1, 1)], m.entry(3, 2));
    }

    #[test]
    fn rows_times_matches_full_matvec() {
        let m = random_spd(12, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let w = DenseMatrix::<f64>::random_uniform(12, 3, &mut rng);
        let full = matmul(m.dense(), &w);
        let rows = vec![0, 5, 11];
        let part = m.rows_times(&rows, &w);
        for (oi, &i) in rows.iter().enumerate() {
            for c in 0..3 {
                assert!((part[(oi, c)] - full[(i, c)]).abs() < 1e-10);
            }
        }
        let all = m.matvec_exact(&w);
        assert!(all.sub(&full).norm_max() < 1e-10);
    }

    #[test]
    fn sampled_error_zero_for_exact_product() {
        let m = random_spd(16, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let w = DenseMatrix::<f64>::random_uniform(16, 2, &mut rng);
        let u = m.matvec_exact(&w);
        let err = sampled_relative_error(&m, &w, &u, 8, 0);
        assert!(err < 1e-12);
    }

    #[test]
    fn sampled_error_detects_perturbation() {
        let m = random_spd(16, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let w = DenseMatrix::<f64>::random_uniform(16, 2, &mut rng);
        let mut u = m.matvec_exact(&w);
        u.scale(1.1); // 10% error
        let err = sampled_relative_error(&m, &w, &u, 16, 0);
        assert!((err - 0.1).abs() < 0.02, "err {err}");
    }

    #[test]
    fn with_coords_roundtrip() {
        let m = random_spd(9, 9);
        let pc = PointCloud::uniform(9, 3, 0);
        let m = m.with_coords(pc);
        assert_eq!(m.coords().unwrap().dim(), 3);
    }

    /// A kernel matrix that counts the entries asked of it one at a time.
    struct EntryCounter {
        k: crate::KernelMatrix,
        entries: std::sync::atomic::AtomicUsize,
    }

    impl SpdMatrix<f64> for EntryCounter {
        fn n(&self) -> usize {
            SpdMatrix::<f64>::n(&self.k)
        }
        fn entry(&self, i: usize, j: usize) -> f64 {
            self.entries
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.k.entry(i, j)
        }
        fn submatrix(&self, rows: &[usize], cols: &[usize]) -> DenseMatrix<f64> {
            self.k.submatrix(rows, cols)
        }
    }

    #[test]
    fn casted_submatrix_is_the_cast_of_the_inner_block() {
        use crate::KernelType;
        let inner = EntryCounter {
            k: crate::KernelMatrix::new(
                PointCloud::uniform(40, 3, 5),
                KernelType::Gaussian { bandwidth: 0.3 },
                1e-2,
                "cast",
            ),
            entries: Default::default(),
        };
        let casted = CastedSpd::new(&inner);
        let (rows, cols) = ([3, 0, 17, 3, 39], [17, 3, 8, 3]);
        let block: DenseMatrix<f32> = casted.submatrix(&rows, &cols);
        assert_eq!(
            inner.entries.load(std::sync::atomic::Ordering::Relaxed),
            0,
            "the f32 block must come from the inner block, not entry by entry"
        );
        for (c, &j) in cols.iter().enumerate() {
            for (r, &i) in rows.iter().enumerate() {
                let e: f32 = casted.entry(i, j);
                assert_eq!(block[(r, c)].to_bits(), e.to_bits(), "({i}, {j})");
            }
        }
    }

    #[test]
    fn trait_object_delegation() {
        let m = random_spd(6, 10);
        let expect = m.entry(1, 2);
        let boxed: Box<dyn SpdMatrix<f64> + Send + Sync> = Box::new(m);
        assert_eq!(boxed.n(), 6);
        assert_eq!(boxed.entry(1, 2), expect);
        let r = &boxed;
        assert_eq!(SpdMatrix::<f64>::n(&r), 6);
    }
}
