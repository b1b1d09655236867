//! Kernel matrices `K_{ij} = k(x_i, x_j)` evaluated on the fly from a point
//! cloud.
//!
//! These reproduce the paper's K04–K10 (six-dimensional kernels: Gaussians of
//! several bandwidths, the Laplace Green's function, a polynomial kernel, and
//! cosine similarity) as well as the machine-learning matrices (Gaussian
//! kernel over COVTYPE/HIGGS/MNIST-like clouds). A small diagonal
//! regularization keeps strictly positive definiteness for kernels that are
//! only positive semi-definite.

use crate::points::PointCloud;
use crate::spd::SpdMatrix;
use gofmm_linalg::simd::exp_in_place;
#[cfg(target_arch = "x86_64")]
use gofmm_linalg::{simd_level, SimdLevel};
use gofmm_linalg::{DenseMatrix, Scalar};

/// Supported kernel functions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KernelType {
    /// Gaussian `exp(-||x - y||^2 / (2 h^2))`.
    Gaussian {
        /// Bandwidth `h`.
        bandwidth: f64,
    },
    /// Laplace Green's function analogue `1 / (||x - y|| + shift)` (the shift
    /// regularizes the singularity at `x = y`).
    Laplace {
        /// Singularity shift.
        shift: f64,
    },
    /// Inverse multiquadric `1 / sqrt(||x - y||^2 + c^2)`.
    InverseMultiquadric {
        /// Flattening constant `c`.
        c: f64,
    },
    /// Normalized polynomial kernel `((x . y) / d + c)^degree`.
    Polynomial {
        /// Polynomial degree.
        degree: i32,
        /// Additive constant.
        c: f64,
    },
    /// Cosine similarity `x . y / (||x|| ||y||)` (angle similarity).
    CosineSimilarity,
    /// Exponential (Matérn-1/2) kernel `exp(-||x - y|| / h)`.
    Exponential {
        /// Length scale `h`.
        bandwidth: f64,
    },
}

impl KernelType {
    /// Evaluate the kernel on two points with libm's `exp`: the reference
    /// formula. [`KernelMatrix`] entries equal it bit for bit for every
    /// kernel but the two exponential ones, whose entries go through the
    /// vectorised `exp` of `gofmm_linalg::simd` and stay within 1 ulp of it.
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        match *self {
            KernelType::Gaussian { bandwidth } => {
                let d2 = dist2(a, b);
                (-d2 / (2.0 * bandwidth * bandwidth)).exp()
            }
            KernelType::Laplace { shift } => {
                let d = dist2(a, b).sqrt();
                1.0 / (d + shift)
            }
            KernelType::InverseMultiquadric { c } => {
                let d2 = dist2(a, b);
                1.0 / (d2 + c * c).sqrt()
            }
            KernelType::Polynomial { degree, c } => {
                let dim = a.len() as f64;
                ((dot(a, b) / dim) + c).powi(degree)
            }
            KernelType::CosineSimilarity => {
                let na = dot(a, a).sqrt();
                let nb = dot(b, b).sqrt();
                if na == 0.0 || nb == 0.0 {
                    0.0
                } else {
                    dot(a, b) / (na * nb)
                }
            }
            KernelType::Exponential { bandwidth } => {
                let d = dist2(a, b).sqrt();
                (-d / bandwidth).exp()
            }
        }
    }

    /// True for the kernels that depend on the points through `||x - y||^2`
    /// alone, which [`KernelMatrix`] evaluates with [`Self::radial_in_place`].
    fn is_radial(&self) -> bool {
        !matches!(
            self,
            KernelType::Polynomial { .. } | KernelType::CosineSimilarity
        )
    }

    /// Replace every squared distance in `v` by the kernel value, lane by
    /// lane: [`Self::eval`]'s tail, with the vectorised `exp` for the two
    /// exponential kernels. Radial kernels only.
    #[inline(always)]
    fn radial_in_place(&self, v: &mut [f64]) {
        match *self {
            KernelType::Gaussian { bandwidth } => {
                let denom = 2.0 * bandwidth * bandwidth;
                for x in v.iter_mut() {
                    *x = -*x / denom;
                }
                exp_in_place(v);
            }
            KernelType::Exponential { bandwidth } => {
                for x in v.iter_mut() {
                    *x = -x.sqrt() / bandwidth;
                }
                exp_in_place(v);
            }
            KernelType::Laplace { shift } => {
                for x in v.iter_mut() {
                    *x = 1.0 / (x.sqrt() + shift);
                }
            }
            KernelType::InverseMultiquadric { c } => {
                let c2 = c * c;
                for x in v.iter_mut() {
                    *x = 1.0 / (*x + c2).sqrt();
                }
            }
            KernelType::Polynomial { .. } | KernelType::CosineSimilarity => {
                unreachable!("{} is not a radial kernel", self.label())
            }
        }
    }

    /// Short identifier used in experiment reports.
    pub fn label(&self) -> String {
        match *self {
            KernelType::Gaussian { bandwidth } => format!("gaussian(h={bandwidth})"),
            KernelType::Laplace { shift } => format!("laplace(s={shift})"),
            KernelType::InverseMultiquadric { c } => format!("imq(c={c})"),
            KernelType::Polynomial { degree, c } => format!("poly(d={degree},c={c})"),
            KernelType::CosineSimilarity => "cosine".to_string(),
            KernelType::Exponential { bandwidth } => format!("exponential(h={bandwidth})"),
        }
    }
}

/// Rows a kernel block evaluates per pass: 2 KiB of a column and of each
/// coordinate of the rows.
const ROW_TILE: usize = 256;

#[inline]
fn dist2(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        let t = x - y;
        acc += t * t;
    }
    acc
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b.iter()) {
        acc += x * y;
    }
    acc
}

/// A kernel matrix over a point cloud, with diagonal regularization
/// `K = k(X, X) + lambda I`.
#[derive(Clone, Debug)]
pub struct KernelMatrix {
    points: PointCloud,
    kernel: KernelType,
    regularization: f64,
    name: String,
}

impl KernelMatrix {
    /// Build a kernel matrix over `points`.
    pub fn new(
        points: PointCloud,
        kernel: KernelType,
        regularization: f64,
        name: impl Into<String>,
    ) -> Self {
        Self {
            points,
            kernel,
            regularization,
            name: name.into(),
        }
    }

    /// The kernel function.
    pub fn kernel(&self) -> KernelType {
        self.kernel
    }

    /// The underlying point cloud.
    pub fn points(&self) -> &PointCloud {
        &self.points
    }

    /// `K_{rows, cols}` in double precision, column-major. Every entry
    /// equals [`SpdMatrix::entry`] bit for bit.
    fn block(&self, rows: &[usize], cols: &[usize]) -> Vec<f64> {
        let m = rows.len();
        let mut out = vec![0.0; m * cols.len()];
        if out.is_empty() {
            return out;
        }
        if !self.kernel.is_radial() {
            for (col, &j) in out.chunks_exact_mut(m).zip(cols) {
                for (v, &i) in col.iter_mut().zip(rows) {
                    *v = self.kernel.eval(self.points.point(i), self.points.point(j));
                }
                self.regularize(rows, j, col);
            }
            return out;
        }
        #[cfg(target_arch = "x86_64")]
        if simd_level() == SimdLevel::Avx2 {
            // SAFETY: AVX2 + FMA presence established by `simd_level`.
            unsafe { self.radial_block_avx2(rows, cols, &mut out) };
            return out;
        }
        self.radial_block(rows, cols, &mut out);
        out
    }

    /// A radial kernel's block into the zeroed, column-major `out`,
    /// [`ROW_TILE`] rows at a time so that every pass stays in L1. The
    /// tile's coordinates are gathered once, structure-of-arrays; then each
    /// column's squared distances are formed lane-parallel in the per-pair
    /// order of [`PointCloud::dist2`] (`t = x - y; acc += t * t`, no fma),
    /// followed by the lane-wise tail and the regularization.
    #[inline(always)]
    fn radial_block(&self, rows: &[usize], cols: &[usize], out: &mut [f64]) {
        let m = rows.len();
        let (dim, coords) = (self.points.dim(), self.points.data());
        let stride = ROW_TILE.min(m);
        let mut xs = vec![0.0; dim * stride];
        for (r0, tile_rows) in (0..m).step_by(ROW_TILE).zip(rows.chunks(ROW_TILE)) {
            for (d, xd) in xs.chunks_exact_mut(stride).enumerate() {
                for (x, &i) in xd.iter_mut().zip(tile_rows) {
                    *x = coords[i * dim + d];
                }
            }
            for (c, &j) in cols.iter().enumerate() {
                let tile = &mut out[c * m + r0..c * m + r0 + tile_rows.len()];
                for (xd, &y) in xs.chunks_exact(stride).zip(self.points.point(j)) {
                    for (acc, &x) in tile.iter_mut().zip(xd) {
                        let t = x - y;
                        *acc += t * t;
                    }
                }
                self.kernel.radial_in_place(tile);
                self.regularize(tile_rows, j, tile);
            }
        }
    }

    /// [`Self::radial_block`] compiled for AVX2: the same lane-wise
    /// operations four lanes to an instruction. Rust never contracts
    /// `acc + t * t` into an fma, so the bits are those of the portable
    /// build.
    ///
    /// # Safety
    /// Requires AVX2 + FMA.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn radial_block_avx2(&self, rows: &[usize], cols: &[usize], out: &mut [f64]) {
        self.radial_block(rows, cols, out)
    }

    /// Add the regularization to the entries of column `j` whose row is `j`.
    #[inline(always)]
    fn regularize(&self, rows: &[usize], j: usize, col: &mut [f64]) {
        for (v, &i) in col.iter_mut().zip(rows) {
            if i == j {
                *v += self.regularization;
            }
        }
    }
}

impl<T: Scalar> SpdMatrix<T> for KernelMatrix {
    fn n(&self) -> usize {
        self.points.len()
    }

    /// The 1 x 1 case of [`Self::submatrix`]'s lane definition.
    #[inline]
    fn entry(&self, i: usize, j: usize) -> T {
        let mut v = if self.kernel.is_radial() {
            let mut v = [self.points.dist2(i, j)];
            self.kernel.radial_in_place(&mut v);
            v[0]
        } else {
            self.kernel.eval(self.points.point(i), self.points.point(j))
        };
        if i == j {
            v += self.regularization;
        }
        T::from_f64(v)
    }

    fn submatrix(&self, rows: &[usize], cols: &[usize]) -> DenseMatrix<T> {
        let block = self.block(rows, cols);
        DenseMatrix::from_vec(
            rows.len(),
            cols.len(),
            block.into_iter().map(T::from_f64).collect(),
        )
    }

    fn coords(&self) -> Option<&PointCloud> {
        Some(&self.points)
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gofmm_linalg::is_spd;

    fn check_spd(kernel: KernelType, reg: f64) {
        let pc = PointCloud::uniform(40, 6, 11);
        let km = KernelMatrix::new(pc, kernel, reg, "t");
        let all: Vec<usize> = (0..SpdMatrix::<f64>::n(&km)).collect();
        let dense = SpdMatrix::<f64>::submatrix(&km, &all, &all);
        assert!(is_spd(&dense), "{} is not SPD", kernel.label());
    }

    #[test]
    fn gaussian_kernel_is_spd() {
        check_spd(KernelType::Gaussian { bandwidth: 0.5 }, 1e-8);
        check_spd(KernelType::Gaussian { bandwidth: 5.0 }, 1e-6);
    }

    #[test]
    fn laplace_kernel_is_spd_with_reg() {
        check_spd(KernelType::Laplace { shift: 0.1 }, 1e-3);
    }

    #[test]
    fn imq_kernel_is_spd() {
        check_spd(KernelType::InverseMultiquadric { c: 0.5 }, 1e-6);
    }

    #[test]
    fn polynomial_and_cosine_are_spd_with_reg() {
        check_spd(KernelType::Polynomial { degree: 2, c: 1.0 }, 1e-2);
        check_spd(KernelType::CosineSimilarity, 1e-2);
    }

    #[test]
    fn exponential_kernel_is_spd() {
        check_spd(KernelType::Exponential { bandwidth: 1.0 }, 1e-8);
    }

    #[test]
    fn gaussian_diagonal_is_one_plus_reg() {
        let pc = PointCloud::uniform(10, 3, 1);
        let km = KernelMatrix::new(pc, KernelType::Gaussian { bandwidth: 1.0 }, 0.5, "t");
        let d: f64 = km.diag(3);
        assert!((d - 1.5).abs() < 1e-12);
        let off: f64 = km.entry(0, 1);
        assert!(off > 0.0 && off < 1.0);
    }

    #[test]
    fn kernel_matrix_is_symmetric() {
        let pc = PointCloud::uniform(30, 6, 2);
        for kernel in [
            KernelType::Gaussian { bandwidth: 0.7 },
            KernelType::Laplace { shift: 0.05 },
            KernelType::Polynomial { degree: 3, c: 0.5 },
            KernelType::CosineSimilarity,
        ] {
            let km = KernelMatrix::new(pc.clone(), kernel, 0.1, "t");
            for i in 0..10 {
                for j in 0..10 {
                    let a: f64 = km.entry(i, j);
                    let b: f64 = km.entry(j, i);
                    assert!((a - b).abs() < 1e-14);
                }
            }
        }
    }

    #[test]
    fn labels_are_informative() {
        assert!(KernelType::Gaussian { bandwidth: 2.0 }
            .label()
            .contains("2"));
        assert_eq!(KernelType::CosineSimilarity.label(), "cosine");
    }

    #[test]
    fn coords_exposed() {
        let pc = PointCloud::uniform(5, 4, 3);
        let km = KernelMatrix::new(pc, KernelType::Gaussian { bandwidth: 1.0 }, 0.0, "t");
        assert_eq!(SpdMatrix::<f64>::coords(&km).unwrap().dim(), 4);
        assert_eq!(SpdMatrix::<f64>::name(&km), "t");
    }
}
