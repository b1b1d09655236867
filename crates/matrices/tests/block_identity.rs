//! The block contract of [`SpdMatrix`]: a kernel matrix's `submatrix` is its
//! entries, bit for bit.
//!
//! Kernel blocks are evaluated lane-parallel (coordinates gathered once,
//! squared distances for a whole column at a time, a vectorised `exp` for
//! the exponential kernels), while `entry` evaluates one pair. Both must give
//! the same bits for every kernel, dimension, precision and index set:
//! duplicates, diagonal hits (where the regularization is added), empty
//! sets and lengths on both sides of the vector width. The inverse
//! multiquadric and Laplace kernels involve no `exp`, so their blocks must
//! also equal the reference formula [`KernelType::eval`]; the exponential
//! kernels stay within 1 ulp of it.
//!
//! Run with `GOFMM_FORCE_SCALAR=1` as well (CI does): the portable build of
//! the block must give the same bits as the AVX2 one, and both match the
//! one-pair `entry`.

use gofmm_linalg::{DenseMatrix, Scalar};
use gofmm_matrices::{KernelMatrix, KernelType, PointCloud, SpdMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KERNELS: [KernelType; 7] = [
    KernelType::Gaussian { bandwidth: 0.7 },
    KernelType::Gaussian { bandwidth: 0.05 },
    KernelType::Laplace { shift: 0.1 },
    KernelType::InverseMultiquadric { c: 0.5 },
    KernelType::Polynomial { degree: 3, c: 0.5 },
    KernelType::CosineSimilarity,
    KernelType::Exponential { bandwidth: 0.3 },
];

const REG: f64 = 1e-3;

/// Random index sets over `0..n`: the empty set, short sets around the
/// vector width, longer ones, and sets with repeated indices.
fn index_sets(n: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
    let mut sets = vec![Vec::new(), vec![n - 1]];
    for len in [1, 3, 4, 5, 7, 8, 9, 33, 70] {
        sets.push((0..len).map(|_| rng.gen_range(0..n)).collect());
    }
    // Heavy repetition: few distinct indices.
    sets.push((0..19).map(|_| rng.gen_range(0..4)).collect());
    sets
}

fn assert_block_is_entries<T: Scalar>(k: &KernelMatrix, rows: &[usize], cols: &[usize]) {
    let block: DenseMatrix<T> = k.submatrix(rows, cols);
    assert_eq!((block.rows(), block.cols()), (rows.len(), cols.len()));
    for (c, &j) in cols.iter().enumerate() {
        for (r, &i) in rows.iter().enumerate() {
            let e: T = k.entry(i, j);
            assert_eq!(
                block[(r, c)].to_f64().to_bits(),
                e.to_f64().to_bits(),
                "{} {}: K({i}, {j}) in a {}x{} block",
                k.kernel().label(),
                T::precision_name(),
                rows.len(),
                cols.len()
            );
        }
    }
}

#[test]
fn every_block_entry_is_the_entry_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(26);
    for dim in [1, 3, 6] {
        let n = 90;
        let pc = PointCloud::uniform(n, dim, 100 + dim as u64);
        for kernel in KERNELS {
            let k = KernelMatrix::new(pc.clone(), kernel, REG, "block");
            let sets = index_sets(n, &mut rng);
            for rows in &sets {
                for cols in &sets {
                    assert_block_is_entries::<f64>(&k, rows, cols);
                    assert_block_is_entries::<f32>(&k, rows, cols);
                }
            }
            // A square block on one index set hits the whole diagonal.
            let all: Vec<usize> = (0..n).collect();
            assert_block_is_entries::<f64>(&k, &all, &all);
            let one: f64 = k.submatrix(&[5], &[5])[(0, 0)];
            assert_eq!(one.to_bits(), SpdMatrix::<f64>::entry(&k, 5, 5).to_bits());
        }
    }
}

#[test]
fn blocks_without_exp_equal_the_reference_formula() {
    let pc = PointCloud::uniform(120, 6, 7);
    let rows: Vec<usize> = (0..120).step_by(3).collect();
    let cols: Vec<usize> = (0..120).rev().step_by(2).collect();
    for kernel in KERNELS {
        let k = KernelMatrix::new(pc.clone(), kernel, 0.0, "reference");
        let block: DenseMatrix<f64> = k.submatrix(&rows, &cols);
        for (c, &j) in cols.iter().enumerate() {
            for (r, &i) in rows.iter().enumerate() {
                let got = block[(r, c)];
                let want = kernel.eval(pc.point(i), pc.point(j));
                match kernel {
                    KernelType::Gaussian { .. } | KernelType::Exponential { .. } => {
                        let ulps = got.to_bits().abs_diff(want.to_bits());
                        assert!(ulps <= 1, "{}: {got} vs {want}", kernel.label());
                    }
                    _ => assert_eq!(got.to_bits(), want.to_bits(), "{}", kernel.label()),
                }
            }
        }
    }
}

#[test]
fn a_nan_coordinate_gives_nan_entries_in_blocks() {
    let mut coords = PointCloud::uniform(16, 3, 9).data().to_vec();
    coords[3 * 4] = f64::NAN;
    let pc = PointCloud::from_vec(3, coords);
    for kernel in KERNELS {
        let k = KernelMatrix::new(pc.clone(), kernel, REG, "nan");
        let all: Vec<usize> = (0..16).collect();
        let block: DenseMatrix<f64> = k.submatrix(&all, &all);
        for r in 0..16 {
            assert!(block[(r, 4)].is_nan(), "{}: K({r}, 4)", kernel.label());
            assert!(block[(4, r)].is_nan(), "{}: K(4, {r})", kernel.label());
        }
    }
}

/// `submatrix(rows, cols)` is exactly the transpose of
/// `submatrix(cols, rows)`: every entry `K(i, j)` carries the bits of
/// `K(j, i)`.
fn assert_block_is_symmetric<T: Scalar>(
    k: &(impl SpdMatrix<T> + ?Sized),
    rows: &[usize],
    cols: &[usize],
) {
    let block: DenseMatrix<T> = k.submatrix(rows, cols);
    let mirror: DenseMatrix<T> = k.submatrix(cols, rows);
    for c in 0..cols.len() {
        for r in 0..rows.len() {
            assert_eq!(
                block[(r, c)].to_f64().to_bits(),
                mirror[(c, r)].to_f64().to_bits(),
                "{} {}: K({}, {}) vs K({}, {})",
                k.name(),
                T::precision_name(),
                rows[r],
                cols[c],
                cols[c],
                rows[r]
            );
        }
    }
}

/// The evaluator stores each symmetric near block once and serves its
/// mirror as the transpose, so a kernel block must be bit-symmetric: for
/// every kernel, dimension and precision, over index sets with duplicates,
/// diagonal hits and lengths around the vector width.
#[test]
fn every_kernel_block_is_its_mirror_transposed() {
    let mut rng = StdRng::seed_from_u64(33);
    for dim in [1, 3, 6] {
        let n = 90;
        let pc = PointCloud::uniform(n, dim, 200 + dim as u64);
        for kernel in KERNELS {
            let k = KernelMatrix::new(pc.clone(), kernel, REG, "symmetry");
            let sets = index_sets(n, &mut rng);
            for rows in &sets {
                for cols in &sets {
                    assert_block_is_symmetric::<f64>(&k, rows, cols);
                    assert_block_is_symmetric::<f32>(&k, rows, cols);
                }
            }
            let all: Vec<usize> = (0..n).collect();
            assert_block_is_symmetric::<f64>(&k, &all, &all);
            assert_block_is_symmetric::<f32>(&k, &all, &all);
        }
    }
}

/// The same contract for the zoo matrices the evaluator suites compress
/// (served as `f64`).
#[test]
fn every_zoo_block_is_its_mirror_transposed() {
    use gofmm_matrices::{build_matrix, TestMatrixId, ZooOptions};
    use TestMatrixId::*;
    let mut rng = StdRng::seed_from_u64(34);
    let zoo = [
        K02, K04, K05, K06, K07, K08, K09, K10, K12, G03, G04, Covtype,
    ];
    for id in zoo {
        let k = build_matrix(id, &ZooOptions::with_n(256));
        let n = k.n();
        let sets = index_sets(n, &mut rng);
        for rows in &sets {
            for cols in &sets {
                assert_block_is_symmetric::<f64>(k.as_ref(), rows, cols);
            }
        }
        let all: Vec<usize> = (0..n).collect();
        assert_block_is_symmetric::<f64>(k.as_ref(), &all, &all);
    }
}
