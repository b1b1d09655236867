//! Serving-semantics battery for the batched front door: deadline
//! rejection never consumes a batch slot, cooperative cancellation leaves
//! the shared engine bit-identically reusable, and dropping the server
//! with queued work drains instead of deadlocking.

use gofmm_suite::core::{GofmmConfig, TraversalPolicy};
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::matrices::{KernelMatrix, KernelType, PointCloud};
use gofmm_suite::{
    ApplyOptions, BatchedServer, CancelToken, Error, GofmmOperator, KrylovOptions, ServeConfig,
};
use std::sync::Arc;
use std::time::Duration;

fn build_operator(n: usize) -> Arc<GofmmOperator<f64>> {
    let k = KernelMatrix::new(
        PointCloud::uniform(n, 3, 29),
        KernelType::Gaussian { bandwidth: 1.0 },
        1e-6,
        "serving-semantics",
    );
    let cfg = GofmmConfig::default()
        .with_leaf_size(48)
        .with_max_rank(48)
        .with_tolerance(1e-7)
        .with_budget(0.0)
        .with_threads(2)
        .with_policy(TraversalPolicy::Sequential);
    Arc::new(
        GofmmOperator::builder(&k)
            .config(cfg)
            .factorize(1e-2)
            .build()
            .expect("operator must build"),
    )
}

fn rhs(n: usize, cols: usize, seed: usize) -> DenseMatrix<f64> {
    DenseMatrix::from_fn(n, cols, |i, j| {
        (((i * 31 + j * 17 + seed * 7) % 23) as f64) / 11.0 - 1.0
    })
}

/// An already-expired deadline is rejected at submission — synchronously,
/// with the typed error, before the request ever reaches the queue.
#[test]
fn expired_deadline_is_rejected_at_admission() {
    let op = build_operator(256);
    let server = BatchedServer::new(Arc::clone(&op), ServeConfig::default());
    let w = rhs(256, 1, 0);
    assert!(matches!(
        server.submit_apply(&w, Some(Duration::ZERO)),
        Err(Error::DeadlineExceeded)
    ));
    let stats = server.stats();
    assert_eq!(stats.deadline_rejected, 1);
    assert_eq!(stats.admitted, 0, "rejected request must not be admitted");
    assert_eq!(stats.batches, 0, "rejected request must not form a batch");
}

/// A deadline that expires while the request waits in the queue resolves
/// the ticket to `DeadlineExceeded` and frees its batch slot: requests
/// admitted alongside it still coalesce and complete, and the expired one
/// is not counted into any batch.
#[test]
fn queued_deadline_expiry_does_not_consume_a_batch_slot() {
    let op = build_operator(256);
    // The holdoff is far longer than the doomed request's deadline, so the
    // deadline expires while the batch is still forming.
    let cfg = ServeConfig::default().with_holdoff(Duration::from_millis(60));
    let server = BatchedServer::new(Arc::clone(&op), cfg);

    let doomed_rhs = rhs(256, 1, 1);
    let doomed = server
        .submit_apply(&doomed_rhs, Some(Duration::from_millis(1)))
        .expect("admitted with a live deadline");
    let healthy_inputs: Vec<_> = (0..3).map(|s| rhs(256, 2, 10 + s)).collect();
    let healthy: Vec<_> = healthy_inputs
        .iter()
        .map(|w| server.submit_apply(w, None).expect("admit healthy"))
        .collect();

    assert!(matches!(doomed.wait(), Err(Error::DeadlineExceeded)));
    for (w, ticket) in healthy_inputs.iter().zip(healthy) {
        let got = ticket.wait().expect("healthy result");
        let want = op.apply(w).expect("baseline");
        assert_eq!(got.data(), want.data());
    }
    let stats = server.stats();
    assert_eq!(stats.deadline_rejected, 1);
    assert_eq!(stats.completed, 3);
    // The healthy requests coalesced; the expired one contributed no column.
    assert_eq!(stats.coalesced_columns, 6);
}

/// Cancelling an engine run mid-sweep (bare operator, no server) leaves the
/// shared evaluator bit-identically reusable: the very next apply on the
/// same operator matches a fresh operator's output exactly.
#[test]
fn mid_sweep_cancellation_leaves_engine_reusable() {
    let n = 512;
    let op = build_operator(n);
    let fresh = build_operator(n);
    let w = rhs(n, 4, 2);
    let want = fresh.apply(&w).expect("fresh baseline");

    // Race a cancel against a DAG-scheduled apply. Whichever wins — the run
    // completing or the token draining it — the engine must stay clean.
    let mut saw_cancel = false;
    for attempt in 0..40 {
        let token = CancelToken::new();
        let opts = ApplyOptions::new()
            .with_policy(TraversalPolicy::DagHeft)
            .with_threads(2)
            .with_cancel(token.clone());
        std::thread::scope(|scope| {
            scope.spawn(|| {
                // Stagger the cancel over attempts to hit different sweep
                // phases, including before the run starts.
                if attempt % 4 != 0 {
                    std::thread::sleep(Duration::from_micros(20 * (attempt as u64 % 8)));
                }
                token.cancel();
            });
            match op.apply_with(&w, &opts) {
                Ok((u, _)) => assert_eq!(u.data(), want.data(), "completed run drifted"),
                Err(Error::Cancelled) => saw_cancel = true,
                Err(other) => panic!("unexpected error: {other}"),
            }
        });
        // After every raced run, a quiet apply must reproduce the fresh
        // operator's bits — no partial accumulator state may leak.
        let (u, _) = op
            .apply_with(&w, &ApplyOptions::default())
            .expect("post-cancel apply");
        assert_eq!(u.data(), want.data(), "engine dirty after cancelled run");
    }
    assert!(saw_cancel, "cancellation never landed in 40 attempts");

    // Same contract for the factorization sweeps.
    let b = rhs(n, 2, 3);
    let want_x = fresh.solve(&b).expect("fresh solve");
    let pre_cancelled = CancelToken::new();
    pre_cancelled.cancel();
    let opts = ApplyOptions::new()
        .with_policy(TraversalPolicy::DagFifo)
        .with_cancel(pre_cancelled);
    assert!(matches!(op.solve_with(&b, &opts), Err(Error::Cancelled)));
    let x = op.solve(&b).expect("post-cancel solve");
    assert_eq!(
        x.data(),
        want_x.data(),
        "factor dirty after cancelled solve"
    );
}

/// Cancelling every request of a coalesced flight aborts the flight; the
/// server then serves the next request bit-identically to a fresh operator.
#[test]
fn cancelled_flight_leaves_server_reusable() {
    let n = 512;
    let op = build_operator(n);
    let fresh = build_operator(n);
    let cfg = ServeConfig::default().with_holdoff(Duration::from_millis(10));
    let server = BatchedServer::new(Arc::clone(&op), cfg);

    // A CG batch iterates long enough for a cancel to land mid-flight.
    let tight = KrylovOptions {
        tol: 1e-14,
        max_iters: 500,
        ..KrylovOptions::default()
    };
    let b1 = rhs(n, 2, 4);
    let b2 = rhs(n, 1, 5);
    let t1 = server
        .submit_solve_cg(&b1, &tight, None)
        .expect("admit cg 1");
    let t2 = server
        .submit_solve_cg(&b2, &tight, None)
        .expect("admit cg 2");
    t1.cancel();
    t2.cancel();
    assert!(matches!(t1.wait(), Err(Error::Cancelled)));
    assert!(matches!(t2.wait(), Err(Error::Cancelled)));

    // The next request through the same server matches a fresh operator.
    let w = rhs(n, 3, 6);
    let got = server
        .submit_apply(&w, None)
        .expect("admit post-cancel")
        .wait()
        .expect("post-cancel result");
    let want = fresh.apply(&w).expect("fresh baseline");
    assert_eq!(
        got.data(),
        want.data(),
        "server dirty after cancelled flight"
    );

    let x = server
        .submit_solve_cg(&b1, &KrylovOptions::default(), None)
        .expect("admit cg post-cancel")
        .wait()
        .expect("cg result");
    let want_x = fresh
        .solve_cg(&b1, &KrylovOptions::default())
        .expect("fresh cg")
        .0;
    assert_eq!(x.data(), want_x.data(), "CG dirty after cancelled flight");
}

/// Dropping the server while requests are still queued resolves every
/// outstanding ticket (with its result) instead of deadlocking. A watchdog
/// turns a regression into a test failure rather than a CI hang.
#[test]
fn drop_with_queued_work_drains_without_deadlock() {
    let n = 256;
    let op = build_operator(n);
    let baseline_op = Arc::clone(&op);
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let runner = std::thread::spawn(move || {
        // A huge holdoff guarantees the queue is still full when the server
        // drops; the drain path must execute it all anyway.
        let cfg = ServeConfig::default().with_holdoff(Duration::from_secs(5));
        let server = BatchedServer::new(Arc::clone(&op), cfg);
        let inputs: Vec<_> = (0..5).map(|s| rhs(n, 1 + s % 2, 20 + s)).collect();
        let tickets: Vec<_> = inputs
            .iter()
            .map(|w| server.submit_apply(w, None).expect("admit"))
            .collect();
        drop(server);
        let results: Vec<_> = tickets
            .into_iter()
            .map(|t| t.wait().expect("drained result"))
            .collect();
        done_tx.send((inputs, results)).expect("report results");
    });
    let (inputs, results) = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("server drop deadlocked with queued work");
    runner.join().expect("runner thread");
    for (w, got) in inputs.iter().zip(results) {
        let want = baseline_op.apply(w).expect("baseline");
        assert_eq!(got.data(), want.data(), "drained result drifted");
    }
}
