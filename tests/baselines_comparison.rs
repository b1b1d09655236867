//! Integration tests comparing GOFMM against the re-implemented baselines
//! (HODLR, STRUMPACK-style HSS, ASKIT-style treecode) — the qualitative claims
//! behind Tables 3 and 4 of the paper, and the ordering ablation of its
//! Figure 7.

use gofmm_suite::baselines::{AskitConfig, AskitMatrix, Hodlr, HodlrConfig, HssConfig, HssMatrix};
use gofmm_suite::core::{compress, DistanceMetric, Evaluator, GofmmConfig, TraversalPolicy};
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::matrices::{
    build_matrix, sampled_relative_error, SpdMatrix, TestMatrixId, ZooOptions,
};

fn rhs(n: usize, r: usize) -> DenseMatrix<f64> {
    DenseMatrix::from_fn(n, r, |i, j| (((i * 11 + j * 5) % 89) as f64) / 89.0 - 0.5)
}

fn gofmm_config() -> GofmmConfig {
    GofmmConfig::default()
        .with_leaf_size(64)
        .with_max_rank(64)
        .with_tolerance(1e-7)
        .with_budget(0.05)
        .with_metric(DistanceMetric::Angle)
        .with_policy(TraversalPolicy::LevelByLevel)
        .with_threads(4)
}

#[test]
fn all_methods_are_accurate_on_well_ordered_operator() {
    // K02 on a grid: the lexicographic ordering is already reasonable, so all
    // four methods should reach good accuracy (Table 3, row K02).
    let k = build_matrix(
        TestMatrixId::K02,
        &ZooOptions {
            n: 1024,
            seed: 1,
            bandwidth: None,
        },
    );
    let n = k.n();
    let w = rhs(n, 8);

    let comp = compress::<f64, _>(&k, &gofmm_config());
    let (u_gofmm, _) = Evaluator::new(&k, comp).apply(&w).unwrap();
    let e_gofmm = sampled_relative_error(&k, &w, &u_gofmm, 100, 0);

    let hodlr = Hodlr::<f64>::compress(
        &k,
        &HodlrConfig {
            leaf_size: 64,
            max_rank: 64,
            tolerance: 1e-7,
        },
    );
    let e_hodlr = sampled_relative_error(&k, &w, &hodlr.matvec(&w), 100, 0);

    let hss = HssMatrix::<f64>::compress(
        &k,
        &HssConfig {
            leaf_size: 64,
            max_rank: 64,
            tolerance: 1e-7,
            sample_rows: 256,
            num_threads: 4,
        },
    );
    let e_hss = sampled_relative_error(&k, &w, &hss.matvec(&k, &w), 100, 0);

    assert!(e_gofmm < 1e-2, "GOFMM {e_gofmm}");
    assert!(e_hodlr < 1e-2, "HODLR {e_hodlr}");
    assert!(e_hss < 1e-1, "HSS {e_hss}");
}

#[test]
fn gofmm_beats_unpermuted_baselines_on_scrambled_kernel() {
    // A Gaussian kernel matrix over 2-D grid points whose *index order is
    // scrambled*: the matrix has excellent hierarchical low-rank structure,
    // but only after a matrix-aware permutation. HODLR and lexicographic HSS
    // work in the input order, so at a fixed small rank they lose accuracy —
    // this is why STRUMPACK/HODLR "fail" on the kernel matrices in Table 3.
    let n = 1024usize;
    let side = 32usize;
    let mut order: Vec<usize> = (0..n).collect();
    for i in 0..n {
        order.swap(i, (i * 389 + 71) % n);
    }
    let pts: Vec<f64> = order
        .iter()
        .flat_map(|&i| {
            let (ix, iy) = (i / side, i % side);
            [ix as f64 / side as f64, iy as f64 / side as f64]
        })
        .collect();
    let k = gofmm_suite::matrices::KernelMatrix::new(
        gofmm_suite::matrices::PointCloud::from_vec(2, pts),
        gofmm_suite::matrices::KernelType::Gaussian { bandwidth: 0.08 },
        1e-8,
        "scrambled-grid",
    );
    let w = rhs(n, 8);
    let rank = 32;
    // ε₂ of a GOFMM compression, and its longest near list.
    let gofmm = |metric: DistanceMetric, budget: f64| {
        let cfg = gofmm_config()
            .with_max_rank(rank)
            .with_tolerance(0.0)
            .with_metric(metric)
            .with_budget(budget);
        let comp = compress::<f64, _>(&k, &cfg);
        let longest_near = comp.lists.near.iter().map(Vec::len).max().unwrap_or(0);
        let (u, _) = Evaluator::new(&k, comp).apply(&w).unwrap();
        (sampled_relative_error(&k, &w, &u, 100, 0), longest_near)
    };

    // Budget 0.125 over 16 leaves lets a leaf keep floor(0.125 x 16) = 2
    // near leaves (the symmetrisation may add more): an FMM, not HSS.
    let (e_gofmm, longest_near) = gofmm(DistanceMetric::Kernel, 0.125);
    assert!(
        longest_near > 1,
        "budget 0.125 must give some leaf a near list beyond itself (longest {longest_near})"
    );

    let hodlr = Hodlr::<f64>::compress(
        &k,
        &HodlrConfig {
            leaf_size: 64,
            max_rank: rank,
            tolerance: 0.0,
        },
    );
    let e_hodlr = sampled_relative_error(&k, &w, &hodlr.matvec(&w), 100, 0);

    let hss = HssMatrix::<f64>::compress(
        &k,
        &HssConfig {
            leaf_size: 64,
            max_rank: rank,
            tolerance: 0.0,
            sample_rows: 256,
            num_threads: 4,
        },
    );
    let e_hss = sampled_relative_error(&k, &w, &hss.matvec(&k, &w), 100, 0);

    assert!(
        e_gofmm < e_hodlr && e_gofmm < e_hss,
        "GOFMM ({e_gofmm}) should beat HODLR ({e_hodlr}) and lexicographic HSS ({e_hss})"
    );

    // Figure 7: the same scrambled grid compressed as HSS (budget 0) under
    // each ordering. The matrix-defined Gram distances (kernel, angle)
    // recover the grid's hierarchy from the matrix alone; the lexicographic
    // and random orderings, which never look at the matrix, cannot.
    let [e_kernel, e_angle, e_lex, e_random] = [
        DistanceMetric::Kernel,
        DistanceMetric::Angle,
        DistanceMetric::Lexicographic,
        DistanceMetric::Random,
    ]
    .map(|metric| gofmm(metric, 0.0).0);
    for (name, e) in [("kernel", e_kernel), ("angle", e_angle)] {
        assert!(
            e < e_lex && e < e_random,
            "{name} ordering ({e}) should beat lexicographic ({e_lex}) and random ({e_random})"
        );
    }
    // Figure 6: at the same rank and ordering, the FMM's near blocks buy the
    // accuracy the HSS skeletons alone cannot.
    assert!(
        e_gofmm < e_kernel,
        "FMM ({e_gofmm}) should beat kernel-ordered HSS ({e_kernel})"
    );
}

#[test]
fn askit_and_gofmm_agree_when_points_exist() {
    // Table 4: with geometric information both methods reach comparable
    // accuracy; GOFMM simply does not *need* the points.
    let k = build_matrix(
        TestMatrixId::K04,
        &ZooOptions {
            n: 1024,
            seed: 3,
            bandwidth: None,
        },
    );
    let n = k.n();
    let w_vec: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) / 17.0 - 0.5).collect();

    let askit = AskitMatrix::<f64>::compress(
        &k,
        &AskitConfig {
            leaf_size: 64,
            max_rank: 64,
            tolerance: 1e-7,
            neighbors: 16,
            num_threads: 4,
            seed: 0,
        },
    );
    let u_askit = askit.matvec_single(&k, &w_vec);

    let cfg = gofmm_config().with_metric(DistanceMetric::Geometric);
    let comp = compress::<f64, _>(&k, &cfg);
    let w_mat = DenseMatrix::from_vec(n, 1, w_vec.clone());
    let (u_gofmm, _) = Evaluator::new(&k, comp).apply(&w_mat).unwrap();

    let u_askit_mat = DenseMatrix::from_vec(n, 1, u_askit);
    let e_askit = sampled_relative_error(&k, &w_mat, &u_askit_mat, 100, 0);
    let e_gofmm = sampled_relative_error(&k, &w_mat, &u_gofmm, 100, 0);
    assert!(e_askit < 1e-2, "ASKIT {e_askit}");
    assert!(e_gofmm < 1e-2, "GOFMM {e_gofmm}");
}

#[test]
fn gofmm_handles_coordinate_free_matrices_baselines_with_points_cannot() {
    let k = build_matrix(
        TestMatrixId::G04,
        &ZooOptions {
            n: 512,
            seed: 4,
            bandwidth: None,
        },
    );
    assert!(k.coords().is_none());
    // GOFMM works.
    let comp = compress::<f64, _>(&k, &gofmm_config());
    let w = rhs(k.n(), 4);
    let (u, _) = Evaluator::new(&k, comp).apply(&w).unwrap();
    let eps = sampled_relative_error(&k, &w, &u, 100, 0);
    assert!(eps < 5e-2, "G04 eps {eps}");
    // ASKIT cannot even start (panics); verified in the baselines unit tests.
}
