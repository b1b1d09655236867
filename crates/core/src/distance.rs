//! Geometry-oblivious distances between matrix indices (paper §2.1).
//!
//! Because `K` is SPD it is the Gram matrix of unknown feature vectors
//! `phi_i`, so pairwise distances can be evaluated from matrix entries alone:
//!
//! * **Kernel (Gram-l2) distance** — `d_ij^2 = K_ii + K_jj - 2 K_ij`,
//! * **Angle distance** — `d_ij = 1 - K_ij^2 / (K_ii K_jj)`,
//! * **Geometric distance** — `||x_i - x_j||` when coordinates exist (the
//!   geometry-aware reference),
//!
//! plus the two distance-free partitioning schemes used as baselines in the
//! permutation study (Figure 7): lexicographic and random ordering.

use gofmm_linalg::Scalar;
use gofmm_matrices::{PointCloud, SpdMatrix};
use gofmm_tree::DistanceOracle;

/// Partitioning / distance scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DistanceMetric {
    /// Gram-space l2 ("kernel") distance computed from matrix entries.
    Kernel,
    /// Gram-space angle distance computed from matrix entries.
    Angle,
    /// Euclidean distance between points (requires coordinates).
    Geometric,
    /// No distance: keep the input ordering (what HODLR/STRUMPACK do).
    Lexicographic,
    /// No distance: random permutation, then even splits.
    Random,
}

impl DistanceMetric {
    /// True if this scheme defines an actual distance (and therefore supports
    /// neighbor search, importance sampling and FMM-style near/far pruning).
    pub fn has_distance(&self) -> bool {
        !matches!(self, DistanceMetric::Lexicographic | DistanceMetric::Random)
    }

    /// Display name used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            DistanceMetric::Kernel => "kernel",
            DistanceMetric::Angle => "angle",
            DistanceMetric::Geometric => "geometric",
            DistanceMetric::Lexicographic => "lexicographic",
            DistanceMetric::Random => "random",
        }
    }
}

impl std::fmt::Display for DistanceMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Distance oracle backed by an [`SpdMatrix`], implementing the Gram-space and
/// geometric distances for the tree builder and the neighbor search.
pub struct GramOracle<'a, T: Scalar, M: SpdMatrix<T> + ?Sized> {
    matrix: &'a M,
    metric: DistanceMetric,
    /// Cached diagonal entries (every Gram distance needs them).
    diag: Vec<f64>,
    coords: Option<&'a PointCloud>,
    _marker: std::marker::PhantomData<T>,
}

impl<'a, T: Scalar, M: SpdMatrix<T> + ?Sized> GramOracle<'a, T, M> {
    /// Build an oracle for the requested metric.
    ///
    /// # Panics
    /// Panics if `metric` is [`DistanceMetric::Geometric`] but the matrix has
    /// no coordinates, or if the metric defines no distance at all.
    pub fn new(matrix: &'a M, metric: DistanceMetric) -> Self {
        assert!(
            metric.has_distance(),
            "{metric} does not define a distance; build the tree with a lexicographic/random split instead"
        );
        let coords = matrix.coords();
        if metric == DistanceMetric::Geometric {
            assert!(
                coords.is_some(),
                "geometric distance requested but the matrix has no coordinates"
            );
        }
        let n = matrix.n();
        let diag: Vec<f64> = (0..n).map(|i| matrix.diag(i).to_f64()).collect();
        Self {
            matrix,
            metric,
            diag,
            coords,
            _marker: std::marker::PhantomData,
        }
    }

    /// The metric this oracle implements.
    pub fn metric(&self) -> DistanceMetric {
        self.metric
    }

    /// The matrix diagonal `K_ii`, in double precision.
    pub fn diagonal(&self) -> &[f64] {
        &self.diag
    }

    /// [`DistanceOracle::distance_block`] of a Gram metric whose distance
    /// of a distinct pair is `gram(K_ii, K_jj, K_ij)`.
    fn gram_block(
        &self,
        rows: &[usize],
        cols: &[usize],
        out: &mut [f64],
        gram: impl Fn(f64, f64, f64) -> f64,
    ) {
        let m = rows.len();
        if out.is_empty() {
            return;
        }
        let krows: Vec<f64> = rows.iter().map(|&i| self.diag[i]).collect();
        // K a few columns at a time: a block of K as large as `out` next
        // to it makes glibc return and re-fault the top of the heap on every
        // ANN leaf of a fresh process (+10 % on its first search).
        let tile = (GRAM_TILE_ENTRIES / m).max(1);
        for (out, cols) in out.chunks_mut(tile * m).zip(cols.chunks(tile)) {
            let k = self.matrix.submatrix(rows, cols);
            let columns = out.chunks_exact_mut(m).zip(k.data().chunks_exact(m));
            for ((dist, kcol), &j) in columns.zip(cols) {
                let kjj = self.diag[j];
                for ((d, &kii), kij) in dist.iter_mut().zip(&krows).zip(kcol) {
                    *d = gram(kii, kjj, kij.to_f64());
                }
                // As in `distance`, a pair with itself is at distance zero.
                for (d, &i) in dist.iter_mut().zip(rows) {
                    if i == j {
                        *d = 0.0;
                    }
                }
            }
        }
    }
}

/// Entries of `K` one `submatrix` call of a Gram distance block asks for
/// (at least one column): 32 KiB of f64.
const GRAM_TILE_ENTRIES: usize = 4096;

/// Kernel distance of a distinct pair from `K_ii`, `K_jj` and `K_ij`.
#[inline(always)]
fn kernel_distance(kii: f64, kjj: f64, kij: f64) -> f64 {
    (kii + kjj - 2.0 * kij).max(0.0).sqrt()
}

/// Angle distance of a distinct pair from `K_ii`, `K_jj` and `K_ij`.
#[inline(always)]
fn angle_distance(kii: f64, kjj: f64, kij: f64) -> f64 {
    let denom = kii * kjj;
    if denom <= 0.0 {
        1.0
    } else {
        (1.0 - (kij * kij) / denom).max(0.0)
    }
}

impl<'a, T: Scalar, M: SpdMatrix<T> + ?Sized> DistanceOracle for GramOracle<'a, T, M> {
    fn len(&self) -> usize {
        self.matrix.n()
    }

    fn distance(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let (kii, kjj) = (self.diag[i], self.diag[j]);
        match self.metric {
            DistanceMetric::Kernel => kernel_distance(kii, kjj, self.matrix.entry(i, j).to_f64()),
            DistanceMetric::Angle => angle_distance(kii, kjj, self.matrix.entry(i, j).to_f64()),
            DistanceMetric::Geometric => {
                let pc = self.coords.expect("geometric oracle without coordinates");
                pc.dist(i, j)
            }
            DistanceMetric::Lexicographic | DistanceMetric::Random => {
                unreachable!("no distance defined")
            }
        }
    }

    /// A Gram distance block comes from `submatrix` calls of a few columns
    /// each, turned into distances a column at a time.
    fn distance_block(&self, rows: &[usize], cols: &[usize], out: &mut [f64]) {
        assert_eq!(out.len(), rows.len() * cols.len(), "distance block shape");
        match self.metric {
            DistanceMetric::Kernel => self.gram_block(rows, cols, out, kernel_distance),
            DistanceMetric::Angle => self.gram_block(rows, cols, out, angle_distance),
            _ => {
                let m = rows.len();
                for (c, &j) in cols.iter().enumerate() {
                    for (r, &i) in rows.iter().enumerate() {
                        out[c * m + r] = self.distance(i, j);
                    }
                }
            }
        }
    }

    fn distances_to_centroid(&self, sample: &[usize], targets: &[usize]) -> Vec<f64> {
        if sample.is_empty() {
            return vec![0.0; targets.len()];
        }
        let nc = sample.len() as f64;
        match self.metric {
            DistanceMetric::Geometric => {
                let pc = self.coords.expect("geometric oracle without coordinates");
                let dim = pc.dim();
                let mut centroid = vec![0.0; dim];
                for &s in sample {
                    for (c, v) in centroid.iter_mut().zip(pc.point(s)) {
                        *c += v;
                    }
                }
                for c in &mut centroid {
                    *c /= nc;
                }
                targets
                    .iter()
                    .map(|&t| {
                        let p = pc.point(t);
                        let mut acc = 0.0;
                        for d in 0..dim {
                            let diff = p[d] - centroid[d];
                            acc += diff * diff;
                        }
                        acc.sqrt()
                    })
                    .collect()
            }
            DistanceMetric::Kernel | DistanceMetric::Angle => {
                // The centroid c is one more Gram vector: K_cc = ||c||^2 and
                // K_ic = phi_i . c stand in for K_jj and K_ij.
                let gram: fn(f64, f64, f64) -> f64 = if self.metric == DistanceMetric::Kernel {
                    kernel_distance
                } else {
                    angle_distance
                };
                // ||c||^2 = (1/nc^2) sum_{s,t} K_st, summed row by row.
                let ss = self.matrix.submatrix(sample, sample);
                let mut cc = 0.0;
                for s in 0..sample.len() {
                    for t in 0..sample.len() {
                        cc += ss[(s, t)].to_f64();
                    }
                }
                cc /= nc * nc;
                // phi_i . c = (1/nc) sum_s K_is, each sum in sample order.
                let ts = self.matrix.submatrix(targets, sample);
                let mut ics = vec![0.0; targets.len()];
                for s in 0..sample.len() {
                    for (ic, k) in ics.iter_mut().zip(ts.col(s)) {
                        *ic += k.to_f64();
                    }
                }
                targets
                    .iter()
                    .zip(ics)
                    .map(|(&i, ic)| gram(self.diag[i], cc, ic / nc))
                    .collect()
            }
            DistanceMetric::Lexicographic | DistanceMetric::Random => {
                unreachable!("no distance defined")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gofmm_linalg::DenseMatrix;
    use gofmm_matrices::{DenseSpd, KernelMatrix, KernelType, PointCloud};

    /// Gram matrix of explicit vectors, so Gram distances can be checked
    /// against the true vector geometry.
    fn explicit_gram(vectors: &[Vec<f64>]) -> DenseSpd<f64> {
        let n = vectors.len();
        let mut k = DenseMatrix::<f64>::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for d in 0..vectors[i].len() {
                    acc += vectors[i][d] * vectors[j][d];
                }
                k[(i, j)] = acc;
            }
        }
        // Small ridge keeps it strictly PD.
        for i in 0..n {
            k[(i, i)] += 1e-9;
        }
        DenseSpd::new(k, "gram")
    }

    #[test]
    fn kernel_distance_matches_feature_space() {
        let vectors = vec![
            vec![1.0, 0.0],
            vec![0.0, 2.0],
            vec![3.0, 4.0],
            vec![1.0, 1.0],
        ];
        let k = explicit_gram(&vectors);
        let oracle = GramOracle::<f64, _>::new(&k, DistanceMetric::Kernel);
        for i in 0..4 {
            for j in 0..4 {
                let expect: f64 = vectors[i]
                    .iter()
                    .zip(&vectors[j])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                assert!(
                    (oracle.distance(i, j) - expect).abs() < 1e-4,
                    "({i},{j}): {} vs {expect}",
                    oracle.distance(i, j)
                );
            }
        }
    }

    #[test]
    fn angle_distance_matches_feature_space() {
        let vectors = vec![
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![2.0, 0.0],
            vec![1.0, 1.0],
        ];
        let k = explicit_gram(&vectors);
        let oracle = GramOracle::<f64, _>::new(&k, DistanceMetric::Angle);
        // Orthogonal vectors -> distance 1.
        assert!((oracle.distance(0, 1) - 1.0).abs() < 1e-6);
        // Parallel vectors -> distance 0.
        assert!(oracle.distance(0, 2) < 1e-6);
        // 45 degrees -> sin^2 = 0.5.
        assert!((oracle.distance(0, 3) - 0.5).abs() < 1e-6);
        // Self distance is 0.
        assert_eq!(oracle.distance(2, 2), 0.0);
    }

    #[test]
    fn geometric_distance_uses_coordinates() {
        let pc = PointCloud::from_vec(1, vec![0.0, 3.0, 7.0]);
        let km = KernelMatrix::new(pc, KernelType::Gaussian { bandwidth: 1.0 }, 0.0, "t");
        let oracle = GramOracle::<f64, _>::new(&km, DistanceMetric::Geometric);
        assert!((oracle.distance(0, 1) - 3.0).abs() < 1e-12);
        assert!((oracle.distance(1, 2) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn centroid_distances_consistent_with_pairwise() {
        let vectors: Vec<Vec<f64>> = (0..10)
            .map(|i| {
                vec![
                    (i as f64 * 0.37).sin(),
                    (i as f64 * 0.61).cos(),
                    i as f64 * 0.05,
                ]
            })
            .collect();
        let k = explicit_gram(&vectors);
        for metric in [DistanceMetric::Kernel, DistanceMetric::Angle] {
            let oracle = GramOracle::<f64, _>::new(&k, metric);
            // Centroid of a single point = that point, so centroid distances
            // must equal pairwise distances.
            let targets: Vec<usize> = (0..10).collect();
            let d = oracle.distances_to_centroid(&[3], &targets);
            for (i, &di) in d.iter().enumerate() {
                assert!(
                    (di - oracle.distance(i, 3)).abs() < 1e-6,
                    "{metric}: index {i}"
                );
            }
        }
    }

    #[test]
    fn distance_blocks_are_the_pairwise_distances_bit_for_bit() {
        use gofmm_matrices::CastedSpd;
        let km = KernelMatrix::new(
            PointCloud::uniform(60, 3, 4),
            KernelType::Gaussian { bandwidth: 0.4 },
            1e-3,
            "t",
        );
        let rows = [7, 0, 59, 7, 31, 12, 3, 44, 18];
        let cols = [7, 12, 0, 7, 50];
        fn check<T: Scalar, M: SpdMatrix<T>>(k: &M, rows: &[usize], cols: &[usize]) {
            for metric in [
                DistanceMetric::Kernel,
                DistanceMetric::Angle,
                DistanceMetric::Geometric,
            ] {
                let oracle = GramOracle::<T, M>::new(k, metric);
                let mut block = vec![f64::NAN; rows.len() * cols.len()];
                oracle.distance_block(rows, cols, &mut block);
                for (c, &j) in cols.iter().enumerate() {
                    for (r, &i) in rows.iter().enumerate() {
                        assert_eq!(
                            block[c * rows.len() + r].to_bits(),
                            oracle.distance(i, j).to_bits(),
                            "{metric} {}: d({i}, {j})",
                            T::precision_name()
                        );
                    }
                }
                let mut empty: [f64; 0] = [];
                oracle.distance_block(&[], cols, &mut empty);
                oracle.distance_block(rows, &[], &mut empty);
            }
        }
        check::<f64, _>(&km, &rows, &cols);
        check::<f32, _>(&CastedSpd::new(&km), &rows, &cols);
    }

    #[test]
    fn metric_properties() {
        assert!(DistanceMetric::Kernel.has_distance());
        assert!(DistanceMetric::Angle.has_distance());
        assert!(DistanceMetric::Geometric.has_distance());
        assert!(!DistanceMetric::Lexicographic.has_distance());
        assert!(!DistanceMetric::Random.has_distance());
        assert_eq!(DistanceMetric::Angle.to_string(), "angle");
    }

    #[test]
    #[should_panic]
    fn geometric_without_coords_panics() {
        let k = explicit_gram(&[vec![1.0], vec![2.0]]);
        let _ = GramOracle::<f64, _>::new(&k, DistanceMetric::Geometric);
    }

    #[test]
    #[should_panic]
    fn lexicographic_oracle_panics() {
        let k = explicit_gram(&[vec![1.0], vec![2.0]]);
        let _ = GramOracle::<f64, _>::new(&k, DistanceMetric::Lexicographic);
    }
}
