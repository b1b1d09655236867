//! Flight-deck tour: trace a full serving flight (apply + factor solve +
//! preconditioned CG), write the spans to `trace.json` for
//! <https://ui.perfetto.dev>, and print the aggregates — per-family wall
//! time, per-worker busy fractions, DAG critical path — plus a Prometheus
//! metrics snapshot and live per-flight progress.
//!
//! Run with: `cargo run --release --example trace_capture`

use gofmm_suite::core::{GofmmConfig, TraversalPolicy};
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::matrices::{KernelMatrix, KernelType, PointCloud};
use gofmm_suite::telemetry::validate_chrome_trace;
use gofmm_suite::{
    ApplyOptions, BatchedServer, GofmmOperator, KrylovOptions, MetricsRegistry, ServeConfig,
    TraceSink,
};
use std::sync::Arc;

fn main() {
    // 1. One persistent operator: compress + factor a Gaussian kernel.
    let n = 2048;
    let kernel = KernelMatrix::new(
        PointCloud::uniform(n, 3, 11),
        KernelType::Gaussian { bandwidth: 1.0 },
        1e-6,
        "trace-example",
    );
    let config = GofmmConfig::default()
        .with_leaf_size(128)
        .with_max_rank(64)
        .with_tolerance(1e-8)
        .with_budget(0.0)
        .with_policy(TraversalPolicy::DagHeft);
    let op = Arc::new(
        GofmmOperator::builder(&kernel)
            .config(config)
            .factorize(1e-2)
            .build()
            .expect("build operator"),
    );

    // 2. Serve a few flights with a span sink and a metrics registry
    //    installed. The sink records one span per task-DAG node plus phase
    //    and iteration spans; the registry collects admission counters, the
    //    queue-depth gauge and the batch-width histogram.
    let sink = TraceSink::new();
    let registry = MetricsRegistry::new();
    let cfg = ServeConfig::default()
        .with_options(ApplyOptions::new().with_trace(sink.clone()))
        .with_metrics(registry.clone());
    let server = BatchedServer::new(Arc::clone(&op), cfg);

    let w = DenseMatrix::<f64>::from_fn(n, 4, |i, j| ((i * 13 + j * 7) % 19) as f64 / 19.0 - 0.5);
    let apply_out = server
        .submit_apply(&w, None)
        .expect("admit apply")
        .wait()
        .expect("apply result");
    let solve_out = server
        .submit_solve(&w, None)
        .expect("admit solve")
        .wait()
        .expect("solve result");

    // A deliberately tight tolerance keeps CG iterating long enough to watch
    // its progress mid-flight through the ticket.
    let cg_opts = KrylovOptions {
        tol: 1e-12,
        max_iters: 200,
        ..KrylovOptions::default()
    };
    let ticket = server
        .submit_solve_cg(&w, &cg_opts, None)
        .expect("admit cg");
    loop {
        if let Some(p) = ticket.progress() {
            println!(
                "cg in flight: iteration {:>3}, max residual {:.2e}, {}/{} columns frozen",
                p.iterations, p.max_residual, p.columns_frozen, p.columns_total
            );
            break;
        }
        std::thread::yield_now();
    }
    let cg_out = ticket.wait().expect("cg result");
    assert_eq!(apply_out.cols(), 4);
    assert_eq!(solve_out.cols(), 4);
    assert_eq!(cg_out.cols(), 4);

    // 3. Export: a Chrome-trace JSON Perfetto can open, plus aggregates.
    op.export_metrics(&registry);
    let trace = sink.trace();
    let json = trace.to_chrome_json();
    let events = validate_chrome_trace(&json).expect("well-formed Chrome trace");
    std::fs::write("trace.json", &json).expect("write trace.json");
    println!(
        "\nwrote trace.json: {events} events, {:.2} ms wall — open it at https://ui.perfetto.dev",
        trace.wall_ns() as f64 / 1e6
    );

    let summary = trace.summary();
    println!(
        "critical path: {:.0}% of traced task time on the longest chain",
        summary.critical_path_fraction() * 100.0
    );
    for (family, ns) in &summary.per_family {
        println!("  {family:<6} {:>9.3} ms", *ns as f64 / 1e6);
    }
    for (worker, busy) in summary.worker_busy.iter().enumerate() {
        println!("  worker {worker}: {:.0}% busy", busy * 100.0);
    }

    println!("\nmetrics snapshot:\n{}", registry.prometheus_text());
    println!("server stats: {:?}", server.stats().latency());
}
