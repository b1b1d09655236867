//! The named test-matrix zoo: analogues of the 22 matrices (K02–K18, G01–G05)
//! and the three machine-learning kernel matrices used in the paper's
//! evaluation (§3).
//!
//! Every entry is a synthetic generator; see DESIGN.md for the substitution
//! rationale (e.g. UFL graphs → generated graphs of matching character).

use crate::graphs::{graph_laplacian_inverse, Graph};
use crate::kernels::{KernelMatrix, KernelType};
use crate::points::PointCloud;
use crate::spd::SpdMatrix;
use crate::spectral::{
    helmholtz_like_2d, inverse_laplacian_squared_2d, inverse_laplacian_squared_3d,
    spectral_operator_1d, variable_coefficient, KroneckerSum2d, KroneckerSum3d,
};
use crate::stencil::advection_diffusion_matrix;

/// Identifiers of the test matrices reproduced from the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum TestMatrixId {
    /// 2-D regularized inverse Laplacian squared (Hessian-like).
    K02,
    /// 2-D oscillatory Helmholtz-type operator.
    K03,
    /// Gaussian kernel, 6-D, medium bandwidth.
    K04,
    /// Gaussian kernel, 6-D, narrow bandwidth.
    K05,
    /// Gaussian kernel, 6-D, moderate bandwidth (high off-diagonal rank).
    K06,
    /// Laplace Green's-function kernel, 6-D.
    K07,
    /// Inverse multiquadric kernel, 6-D.
    K08,
    /// Polynomial kernel, 6-D.
    K09,
    /// Cosine-similarity kernel, 6-D.
    K10,
    /// 2-D variable-coefficient advection–diffusion (mild).
    K12,
    /// 2-D variable-coefficient advection–diffusion (rough).
    K13,
    /// 2-D variable-coefficient advection–diffusion (very rough).
    K14,
    /// 2-D pseudo-spectral advection–diffusion–reaction operator.
    K15,
    /// 2-D pseudo-spectral operator, rougher coefficients.
    K16,
    /// 3-D pseudo-spectral operator.
    K17,
    /// 3-D inverse squared Laplacian.
    K18,
    /// Inverse Laplacian of a power-grid-like lattice graph (powersim-like).
    G01,
    /// Inverse Laplacian of a scale-free graph (poli_large-like).
    G02,
    /// Inverse Laplacian of a random geometric graph (rgg-like).
    G03,
    /// Inverse Laplacian of a near-degenerate weak chain (denormal-like).
    G04,
    /// Inverse Laplacian of a 4-D torus lattice (conf6 QCD-like).
    G05,
    /// Gaussian kernel over a 54-D clustered cloud (COVTYPE-like).
    Covtype,
    /// Gaussian kernel over a 28-D clustered cloud (HIGGS-like).
    Higgs,
    /// Gaussian kernel over a 780-D manifold cloud (MNIST-like).
    Mnist,
}

impl TestMatrixId {
    /// The 22 matrices of the paper's core accuracy experiment (Figure 5).
    pub fn paper_matrices() -> Vec<TestMatrixId> {
        use TestMatrixId::*;
        vec![
            K02, K03, K04, K05, K06, K07, K08, K09, K10, K12, K13, K14, K15, K16, K17, K18, G01,
            G02, G03, G04, G05,
        ]
    }

    /// The machine-learning kernel matrices (Table 5 / Figure 4 workloads).
    pub fn ml_matrices() -> Vec<TestMatrixId> {
        vec![
            TestMatrixId::Covtype,
            TestMatrixId::Higgs,
            TestMatrixId::Mnist,
        ]
    }

    /// Short display name ("K02", "G03", "COVTYPE", ...).
    pub fn name(&self) -> &'static str {
        use TestMatrixId::*;
        match self {
            K02 => "K02",
            K03 => "K03",
            K04 => "K04",
            K05 => "K05",
            K06 => "K06",
            K07 => "K07",
            K08 => "K08",
            K09 => "K09",
            K10 => "K10",
            K12 => "K12",
            K13 => "K13",
            K14 => "K14",
            K15 => "K15",
            K16 => "K16",
            K17 => "K17",
            K18 => "K18",
            G01 => "G01",
            G02 => "G02",
            G03 => "G03",
            G04 => "G04",
            G05 => "G05",
            Covtype => "COVTYPE",
            Higgs => "HIGGS",
            Mnist => "MNIST",
        }
    }
}

impl std::fmt::Display for TestMatrixId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Options for building a test matrix.
#[derive(Clone, Debug)]
pub struct ZooOptions {
    /// Requested matrix dimension. Grid-based matrices round to the nearest
    /// grid (`N = nx*ny`, `nx*ny*nz`, or `side^4`), so the built matrix may be
    /// slightly smaller; check `SpdMatrix::n()` on the result.
    pub n: usize,
    /// RNG seed for point clouds and graph generators.
    pub seed: u64,
    /// Bandwidth override for the ML kernel matrices (paper's `h`).
    pub bandwidth: Option<f64>,
}

impl Default for ZooOptions {
    fn default() -> Self {
        Self {
            n: 2048,
            seed: 0,
            bandwidth: None,
        }
    }
}

impl ZooOptions {
    /// Convenience constructor.
    pub fn with_n(n: usize) -> Self {
        Self {
            n,
            ..Default::default()
        }
    }
}

/// A built test matrix (boxed trait object over `f64` entries).
pub type BoxedSpd = Box<dyn SpdMatrix<f64> + Send + Sync>;

/// Build one of the named test matrices.
pub fn build_matrix(id: TestMatrixId, opts: &ZooOptions) -> BoxedSpd {
    use TestMatrixId::*;
    let n = opts.n.max(16);
    let seed = opts.seed;
    match id {
        K02 => {
            let side = isqrt(n);
            Box::new(inverse_laplacian_squared_2d(side, side, 1.0))
        }
        K03 => {
            let side = isqrt(n);
            Box::new(helmholtz_like_2d(side, side, 10.0, 1.0))
        }
        K04 => kernel6d(
            n,
            seed,
            KernelType::Gaussian { bandwidth: 1.0 },
            1e-5,
            "K04",
        ),
        K05 => kernel6d(
            n,
            seed,
            KernelType::Gaussian { bandwidth: 0.1 },
            1e-5,
            "K05",
        ),
        K06 => kernel6d(
            n,
            seed,
            KernelType::Gaussian { bandwidth: 0.35 },
            1e-5,
            "K06",
        ),
        K07 => kernel6d(n, seed, KernelType::Laplace { shift: 0.05 }, 1e-3, "K07"),
        K08 => kernel6d(
            n,
            seed,
            KernelType::InverseMultiquadric { c: 0.5 },
            1e-5,
            "K08",
        ),
        K09 => kernel6d(
            n,
            seed,
            KernelType::Polynomial { degree: 2, c: 1.0 },
            1e-2,
            "K09",
        ),
        K10 => kernel6d(n, seed, KernelType::CosineSimilarity, 1e-2, "K10"),
        K12 => {
            let side = isqrt(n);
            Box::new(advection_diffusion_matrix(side, side, 0.5, 1.0, "K12"))
        }
        K13 => {
            let side = isqrt(n);
            Box::new(advection_diffusion_matrix(side, side, 2.0, 10.0, "K13"))
        }
        K14 => {
            let side = isqrt(n);
            Box::new(advection_diffusion_matrix(side, side, 3.0, 50.0, "K14"))
        }
        K15 => Box::new(pseudo_spectral_2d(n, 1.0, "K15")),
        K16 => Box::new(pseudo_spectral_2d(n, 2.5, "K16")),
        K17 => Box::new(pseudo_spectral_3d(n, 1.5, "K17")),
        K18 => {
            let side = icbrt(n);
            Box::new(inverse_laplacian_squared_3d(side, side, side, 1.0))
        }
        G01 => {
            let side = isqrt(n);
            let g = Graph::lattice_with_chords(side, side, n / 16, seed);
            Box::new(graph_laplacian_inverse(&g, 0.1, "G01"))
        }
        G02 => {
            let g = Graph::scale_free(n, 3, seed);
            Box::new(graph_laplacian_inverse(&g, 0.1, "G02"))
        }
        G03 => {
            let radius = (8.0 / n as f64).sqrt();
            let g = Graph::random_geometric(n, radius, seed);
            Box::new(graph_laplacian_inverse(&g, 0.1, "G03"))
        }
        G04 => {
            let g = Graph::weak_chain(n, 1e-4, seed);
            Box::new(graph_laplacian_inverse(&g, 1e-2, "G04"))
        }
        G05 => {
            let side = (n as f64).powf(0.25).round().max(2.0) as usize;
            let g = Graph::torus_4d(side, seed);
            Box::new(graph_laplacian_inverse(&g, 0.1, "G05"))
        }
        Covtype => ml_kernel(n, 54, 16, opts.bandwidth.unwrap_or(0.3), seed, "COVTYPE"),
        Higgs => ml_kernel(n, 28, 8, opts.bandwidth.unwrap_or(0.9), seed, "HIGGS"),
        Mnist => {
            let points = PointCloud::manifold(n, 780, 0.05, seed);
            let h = opts.bandwidth.unwrap_or(1.0);
            Box::new(KernelMatrix::new(
                points,
                KernelType::Gaussian { bandwidth: h },
                1e-5,
                "MNIST",
            ))
        }
    }
}

fn kernel6d(n: usize, seed: u64, kernel: KernelType, reg: f64, name: &str) -> BoxedSpd {
    let points = PointCloud::uniform(n, 6, seed.wrapping_add(0xA5A5));
    Box::new(KernelMatrix::new(points, kernel, reg, name))
}

fn ml_kernel(n: usize, dim: usize, clusters: usize, h: f64, seed: u64, name: &str) -> BoxedSpd {
    let points = PointCloud::gaussian_mixture(n, dim, clusters, 0.05, seed.wrapping_add(0x5A5A));
    Box::new(KernelMatrix::new(
        points,
        KernelType::Gaussian { bandwidth: h },
        1e-5,
        name,
    ))
}

fn pseudo_spectral_2d(n: usize, roughness: f64, name: &str) -> KroneckerSum2d {
    let side = isqrt(n);
    let coeff: Vec<f64> = (0..side)
        .map(|i| variable_coefficient(i as f64 / side as f64, roughness, 0.7))
        .collect();
    let coeff_y: Vec<f64> = (0..side)
        .map(|i| variable_coefficient(i as f64 / side as f64, roughness, 2.9))
        .collect();
    let reaction1d = vec![0.0; side];
    let ax = spectral_operator_1d(side, &coeff, &reaction1d);
    let ay = spectral_operator_1d(side, &coeff_y, &reaction1d);
    let reaction: Vec<f64> = (0..side * side)
        .map(|i| 1.0 + variable_coefficient((i % side) as f64 / side as f64, 0.5 * roughness, 4.2))
        .collect();
    KroneckerSum2d::new(ax, ay, reaction, name)
}

fn pseudo_spectral_3d(n: usize, roughness: f64, name: &str) -> KroneckerSum3d {
    let side = icbrt(n);
    let coeffs: Vec<Vec<f64>> = (0..3)
        .map(|d| {
            (0..side)
                .map(|i| variable_coefficient(i as f64 / side as f64, roughness, 1.1 + d as f64))
                .collect()
        })
        .collect();
    let reaction1d = vec![0.0; side];
    let ax = spectral_operator_1d(side, &coeffs[0], &reaction1d);
    let ay = spectral_operator_1d(side, &coeffs[1], &reaction1d);
    let az = spectral_operator_1d(side, &coeffs[2], &reaction1d);
    let ntot = side * side * side;
    let reaction: Vec<f64> = (0..ntot).map(|i| 1.0 + 0.1 * ((i % 7) as f64)).collect();
    KroneckerSum3d::new(ax, ay, az, reaction, name)
}

/// Integer square root rounded to the nearest value whose square is <= n is
/// not required; we round to the closest integer so `side^2` is near `n`.
fn isqrt(n: usize) -> usize {
    ((n as f64).sqrt().round() as usize).max(4)
}

fn icbrt(n: usize) -> usize {
    ((n as f64).cbrt().round() as usize).max(3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gofmm_linalg::is_spd;

    #[test]
    fn names_roundtrip() {
        for id in TestMatrixId::paper_matrices()
            .into_iter()
            .chain(TestMatrixId::ml_matrices())
        {
            assert_eq!(format!("{id}"), id.name());
        }
    }

    #[test]
    fn paper_list_has_21_matrices_plus_ml() {
        // K02..K10 (9) + K12..K18 (7) + G01..G05 (5) = 21 named entries; the
        // paper counts 22 including one of the ML sets.
        assert_eq!(TestMatrixId::paper_matrices().len(), 21);
        assert_eq!(TestMatrixId::ml_matrices().len(), 3);
    }

    #[test]
    fn every_paper_matrix_builds_small_and_is_spd() {
        for id in TestMatrixId::paper_matrices() {
            let opts = ZooOptions {
                n: 100,
                seed: 1,
                bandwidth: None,
            };
            let m = build_matrix(id, &opts);
            let n = m.n();
            assert!((64..=160).contains(&n), "{id}: unexpected size {n}");
            let all: Vec<usize> = (0..n).collect();
            let dense = m.submatrix(&all, &all);
            assert!(
                dense.sub(&dense.transpose()).norm_max() < 1e-9 * dense.norm_max().max(1.0),
                "{id} not symmetric"
            );
            assert!(is_spd(&dense), "{id} is not SPD at n={n}");
        }
    }

    #[test]
    fn ml_matrices_build_and_are_spd() {
        for id in TestMatrixId::ml_matrices() {
            let m = build_matrix(
                id,
                &ZooOptions {
                    n: 80,
                    seed: 3,
                    bandwidth: None,
                },
            );
            let all: Vec<usize> = (0..m.n()).collect();
            let dense = m.submatrix(&all, &all);
            assert!(is_spd(&dense), "{id} not SPD");
            assert!(m.coords().is_some());
        }
    }

    #[test]
    fn graph_matrices_have_no_coords() {
        for id in [TestMatrixId::G01, TestMatrixId::G03, TestMatrixId::G05] {
            let m = build_matrix(id, &ZooOptions::with_n(90));
            assert!(m.coords().is_none(), "{id} should be coordinate-free");
        }
    }

    #[test]
    fn bandwidth_override_changes_entries() {
        let a = build_matrix(
            TestMatrixId::Covtype,
            &ZooOptions {
                n: 64,
                seed: 2,
                bandwidth: Some(0.1),
            },
        );
        let b = build_matrix(
            TestMatrixId::Covtype,
            &ZooOptions {
                n: 64,
                seed: 2,
                bandwidth: Some(2.0),
            },
        );
        assert!((a.entry(0, 5) - b.entry(0, 5)).abs() > 1e-6);
    }
}
