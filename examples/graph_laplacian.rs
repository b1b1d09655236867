//! Compressing a matrix with *no geometry at all*: the regularized inverse
//! Laplacian of a graph.
//!
//! This is the case that motivates the "geometry-oblivious" part of GOFMM: the
//! matrix entries are not kernel evaluations of points, so geometric FMM codes
//! (and ASKIT) cannot run. GOFMM defines distances straight from the matrix
//! entries (kernel and angle Gram distances) and still discovers the
//! hierarchical low-rank structure — this example mirrors experiment #12 / G03
//! in the paper.
//!
//! Run with: `cargo run --release --example graph_laplacian`

use gofmm_suite::core::{compress, DistanceMetric, Evaluator, GofmmConfig};
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::matrices::{graph_laplacian_inverse, sampled_relative_error, Graph, SpdMatrix};

fn main() {
    // A random geometric graph (rgg-like, as in the paper's G03) — but note
    // that GOFMM never sees the underlying point coordinates, only K_ij.
    let n = 2048;
    let radius = (8.0 / n as f64).sqrt();
    let graph = Graph::random_geometric(n, radius, 1);
    println!(
        "graph: {} vertices, {} edges",
        graph.n(),
        graph.edge_count()
    );

    println!("building K = (L + 0.1 I)^-1 by dense Cholesky inversion ...");
    let k = graph_laplacian_inverse(&graph, 0.1, "G03-like");
    assert!(
        SpdMatrix::<f64>::coords(&k).is_none(),
        "this matrix is coordinate-free"
    );

    let w =
        DenseMatrix::<f64>::from_fn(n, 64, |i, j| (((i * 31 + j * 17) % 64) as f64) / 64.0 - 0.5);

    // Compare the two Gram-space distances against a lexicographic HSS.
    for (label, metric, budget) in [
        (
            "angle distance + 3% budget (GOFMM)",
            DistanceMetric::Angle,
            0.03,
        ),
        (
            "kernel distance + 3% budget (GOFMM)",
            DistanceMetric::Kernel,
            0.03,
        ),
        (
            "lexicographic order, HSS (no permutation)",
            DistanceMetric::Lexicographic,
            0.0,
        ),
    ] {
        let config = GofmmConfig::default()
            .with_leaf_size(128)
            .with_max_rank(128)
            .with_tolerance(1e-7)
            .with_budget(budget)
            .with_metric(metric);
        let comp = compress::<f64, _>(&k, &config);
        let (u, stats) = Evaluator::new(&k, &comp)
            .apply(&w)
            .expect("matching dimensions");
        let eps2 = sampled_relative_error(&k, &w, &u, 100, 0);
        println!(
            "{label:45} compress {:6.2}s  evaluate {:6.3}s  avg rank {:6.1}  eps2 {:9.3e}",
            comp.stats.total_time,
            stats.time,
            comp.average_rank(),
            eps2
        );
    }
    println!("note how the matrix-defined distances discover structure the input order hides");
}
