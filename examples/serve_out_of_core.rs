//! Out-of-core serving quickstart: an operator bigger than the memory you
//! give it.
//!
//! Builds a compressed kernel operator whose packed panels and ULV factor
//! blocks are spilled to one page-aligned store file, then serves applies
//! and solves through an LRU resident set capped at a fraction of the
//! operator's bytes. The sweeps fault panels back per task, evict under
//! pressure, and still produce results **bit-identical** to the in-memory
//! operator — asserted below, along with the peak-resident guarantee. A
//! `BatchedServer` runs unchanged on top.
//!
//! Run with: `cargo run --release --example serve_out_of_core`

use gofmm_suite::core::{GofmmConfig, TraversalPolicy};
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::matrices::{KernelMatrix, KernelType, PointCloud};
use gofmm_suite::{BatchedServer, GofmmOperator, ServeConfig, StorageConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let n = 4096;
    let lambda = 1e-2;
    let kernel = KernelMatrix::new(
        PointCloud::uniform(n, 3, 17),
        KernelType::Gaussian { bandwidth: 1.0 },
        1e-6,
        "serve-out-of-core-example",
    );
    let config = GofmmConfig::default()
        .with_leaf_size(128)
        .with_max_rank(96)
        .with_tolerance(1e-7)
        .with_budget(0.0)
        .with_policy(TraversalPolicy::DagHeft);

    // 1. The in-memory baseline, for the bit-identity checks and to size
    //    the resident budget against the real panel bytes.
    let baseline = GofmmOperator::<f64>::builder(&kernel)
        .config(config.clone())
        .factorize(lambda)
        .build()
        .expect("baseline operator");
    let panel_bytes = baseline.evaluator().cached_bytes();
    let budget = panel_bytes / 5; // serve with 20% of the panels resident
    println!(
        "operator holds {:.1} MiB of packed panels; granting a {:.1} MiB resident budget",
        panel_bytes as f64 / (1 << 20) as f64,
        budget as f64 / (1 << 20) as f64,
    );

    // 2. The same build, spilled: one extra builder call persists every
    //    panel and factor block into <dir>/operator.gfmm and swaps the
    //    in-memory copies for out-of-core locators.
    let dir = std::env::temp_dir().join(format!("gofmm-ooc-example-{}", std::process::id()));
    let operator = Arc::new(
        GofmmOperator::<f64>::builder(&kernel)
            .config(config)
            .factorize(lambda)
            .storage(StorageConfig::File {
                dir: dir.clone(),
                resident_budget: budget,
            })
            .build()
            .expect("file-backed operator"),
    );

    // 3. Apply and solve out of core — the bits cannot tell.
    let w = DenseMatrix::<f64>::from_fn(n, 4, |i, j| ((i * 13 + j * 5) % 17) as f64 / 8.0 - 1.0);
    let t0 = Instant::now();
    let u = operator.apply(&w).expect("out-of-core apply");
    let apply_ms = 1e3 * t0.elapsed().as_secs_f64();
    assert_eq!(
        u.data(),
        baseline.apply(&w).expect("baseline apply").data(),
        "out-of-core apply must be bit-identical"
    );
    let x = operator.solve(&w).expect("out-of-core solve");
    assert_eq!(
        x.data(),
        baseline.solve(&w).expect("baseline solve").data(),
        "out-of-core solve must be bit-identical"
    );
    let stats = operator.store_stats().expect("store stats");
    assert!(stats.peak_resident_bytes as usize <= budget);
    println!(
        "apply in {apply_ms:.0}ms; store saw {} faults, {} evictions, peak resident \
         {:.1} MiB (budget {:.1} MiB)",
        stats.faults,
        stats.evictions,
        stats.peak_resident_bytes as f64 / (1 << 20) as f64,
        budget as f64 / (1 << 20) as f64,
    );

    // 4. The serving front door does not care where panels live.
    let server = BatchedServer::new(Arc::clone(&operator), ServeConfig::default());
    let ticket = server.submit_solve(&w, None).expect("admit solve");
    let served = ticket.wait().expect("served solve");
    assert_eq!(served.data(), x.data(), "served solve must match");
    println!("batched server served a solve through the same store");

    let _ = std::fs::remove_dir_all(&dir);
    println!("done — store files cleaned up from {}", dir.display());
}
