//! Span-integrity battery for the flight-deck layer: traced runs must
//! record structurally sound spans (every start before its end, task spans
//! nested inside their level barriers, valid Chrome-trace JSON), and — the
//! hard contract — installing a sink must never change a single output bit
//! of apply, direct solve, or CG. That the per-family aggregates cover the
//! wall time of a sequential sweep is timed in `span_wall_coverage.rs`, a
//! binary of its own.

use gofmm_suite::core::{GofmmConfig, TraversalPolicy};
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::matrices::{KernelMatrix, KernelType, PointCloud};
use gofmm_suite::solver::HierarchicalFactor;
use gofmm_suite::telemetry::{validate_chrome_trace, SpanKind};
use gofmm_suite::{ApplyOptions, GofmmOperator, KrylovOptions, Trace, TraceSink};
use std::sync::Arc;

fn build_operator(n: usize) -> Arc<GofmmOperator<f64>> {
    let k = KernelMatrix::new(
        PointCloud::uniform(n, 3, 41),
        KernelType::Gaussian { bandwidth: 1.0 },
        1e-6,
        "span-integrity",
    );
    let cfg = GofmmConfig::default()
        .with_leaf_size(48)
        .with_max_rank(48)
        .with_tolerance(1e-7)
        .with_budget(0.0)
        .with_threads(2)
        .with_policy(TraversalPolicy::LevelByLevel);
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

/// Record one traced apply + solve + CG flight and return the trace.
fn traced_flight(op: &GofmmOperator<f64>, policy: TraversalPolicy, threads: usize) -> Trace {
    let sink = TraceSink::new();
    let n = op.n();
    let w = rhs(n, 3, 1);
    let apply_opts = ApplyOptions::default()
        .with_policy(policy)
        .with_threads(threads)
        .with_trace(sink.clone());
    op.apply_with(&w, &apply_opts).expect("traced apply");
    op.solve_with(&w, &apply_opts).expect("traced solve");
    let cg_opts = KrylovOptions::default().with_trace(sink.clone());
    op.solve_cg(&w, &cg_opts).expect("traced cg");
    sink.trace()
}

/// Every span of every kind closes at or after it opens, and carries a
/// worker lane the summary can attribute it to.
#[test]
fn every_span_start_has_a_matching_end() {
    let op = build_operator(512);
    for policy in [
        TraversalPolicy::Sequential,
        TraversalPolicy::LevelByLevel,
        TraversalPolicy::DagHeft,
        TraversalPolicy::DagFifo,
    ] {
        let trace = traced_flight(&op, policy, 3);
        assert!(
            !trace.is_empty(),
            "{policy:?}: traced flight recorded nothing"
        );
        let workers = trace.summary().workers();
        for ev in trace.events() {
            assert!(
                ev.t_end >= ev.t_start,
                "{policy:?}: span {}/{} ends before it starts",
                ev.family,
                ev.node
            );
            assert!(ev.worker < workers, "{policy:?}: worker lane out of range");
        }
    }
}

/// Under level-by-level scheduling every task span lies inside a barrier
/// marker of its own family and level — the markers bracket the sweeps.
#[test]
fn task_spans_nest_within_level_barriers() {
    let op = build_operator(512);
    let trace = traced_flight(&op, TraversalPolicy::LevelByLevel, 3);
    let markers: Vec<_> = trace
        .events()
        .iter()
        .filter(|e| e.kind == SpanKind::Marker)
        .collect();
    assert!(
        !markers.is_empty(),
        "LBL flight recorded no barrier markers"
    );
    let mut nested = 0usize;
    for task in trace.events().iter().filter(|e| e.kind == SpanKind::Task) {
        // Most families run one barrier per tree level; S2S runs a single
        // barrier over the whole skeleton sweep, so only containment (not
        // level equality) is required of it.
        let covered = markers.iter().any(|m| {
            m.family == task.family
                && (m.level == task.level || task.family == "S2S")
                && m.t_start <= task.t_start
                && task.t_end <= m.t_end
        });
        assert!(
            covered,
            "task {}/{} (level {}) escapes its level barrier",
            task.family, task.node, task.level
        );
        nested += 1;
    }
    assert!(nested > 0, "no task spans recorded");
}

/// One DAG, four schedules: a traced apply, ULV solve and SMW solve record
/// the same multiset of `(family, node)` task spans under every policy, and
/// it is exactly the plan's task set. At budget 0.2 some nodes have an
/// empty far list and therefore no S2S task.
#[test]
fn task_spans_match_the_plan_under_every_policy() {
    let n = 2048;
    let k = KernelMatrix::new(
        PointCloud::uniform(n, 3, 41),
        KernelType::Gaussian { bandwidth: 1.0 },
        1e-6,
        "span-parity",
    );
    let cfg = GofmmConfig::default()
        .with_leaf_size(48)
        .with_max_rank(48)
        .with_tolerance(1e-7)
        .with_budget(0.2)
        .with_threads(2);
    let w = rhs(n, 3, 1);
    let task_spans = |policy: TraversalPolicy, call: &dyn Fn(&ApplyOptions)| {
        let sink = TraceSink::new();
        call(
            &ApplyOptions::default()
                .with_policy(policy)
                .with_threads(3)
                .with_trace(sink.clone()),
        );
        let mut spans: Vec<(&'static str, usize)> = sink
            .trace()
            .events()
            .iter()
            .filter(|e| e.kind == SpanKind::Task)
            .map(|e| (e.family, e.node))
            .collect();
        spans.sort_unstable();
        spans
    };

    let ulv = GofmmOperator::builder(&k)
        .config(cfg)
        .factorize(1e-2)
        .build()
        .expect("operator must build");
    let smw = HierarchicalFactor::new(&k, ulv.compressed(), 1e-2).expect("SMW factor");
    let comp = ulv.compressed();
    let tree = &comp.tree;
    let mut apply_tasks = Vec::new();
    for heap in (1..tree.node_count()).filter(|&h| comp.bases[h].is_some()) {
        apply_tasks.extend([("N2S", heap), ("S2N", heap)]);
        if !comp.lists.far[heap].is_empty() {
            apply_tasks.push(("S2S", heap));
        }
    }
    apply_tasks.extend(tree.leaf_range().map(|leaf| ("L2L", leaf)));
    apply_tasks.sort_unstable();
    assert!(
        apply_tasks.len() < 4 * (tree.node_count() - 1),
        "the fixture must leave some far lists empty"
    );
    let mut solve_tasks: Vec<(&'static str, usize)> = (0..tree.node_count())
        .flat_map(|heap| [("SUP", heap), ("SDOWN", heap)])
        .collect();
    solve_tasks.sort_unstable();

    for policy in [
        TraversalPolicy::Sequential,
        TraversalPolicy::LevelByLevel,
        TraversalPolicy::DagHeft,
        TraversalPolicy::DagFifo,
    ] {
        let apply = task_spans(policy, &|opts| {
            ulv.apply_with(&w, opts).expect("traced apply");
        });
        assert_eq!(apply, apply_tasks, "{policy}: apply spans");
        let ulv_solve = task_spans(policy, &|opts| {
            ulv.solve_with(&w, opts).expect("traced solve");
        });
        assert_eq!(ulv_solve, solve_tasks, "{policy}: ULV solve spans");
        let smw_solve = task_spans(policy, &|opts| {
            smw.solve_with(&w, opts).expect("traced solve");
        });
        assert_eq!(smw_solve, solve_tasks, "{policy}: SMW solve spans");
    }
}

/// The hard observability contract: with a sink installed, apply, direct
/// solve, and CG produce bit-identical outputs to the untraced calls.
#[test]
fn traced_runs_are_bit_identical_to_untraced() {
    let op = build_operator(512);
    let w = rhs(512, 3, 5);
    for policy in [TraversalPolicy::Sequential, TraversalPolicy::DagHeft] {
        let plain = ApplyOptions::default().with_policy(policy).with_threads(3);
        let traced = plain.clone().with_trace(TraceSink::new());

        let (u_plain, _) = op.apply_with(&w, &plain).expect("plain apply");
        let (u_traced, _) = op.apply_with(&w, &traced).expect("traced apply");
        assert_eq!(
            u_plain.data(),
            u_traced.data(),
            "{policy:?}: apply bits differ"
        );

        let x_plain = op.solve_with(&w, &plain).expect("plain solve");
        let x_traced = op.solve_with(&w, &traced).expect("traced solve");
        assert_eq!(
            x_plain.data(),
            x_traced.data(),
            "{policy:?}: solve bits differ"
        );
    }
    let cg_plain = KrylovOptions::default();
    let cg_traced = KrylovOptions::default().with_trace(TraceSink::new());
    let (x_plain, s_plain) = op.solve_cg(&w, &cg_plain).expect("plain cg");
    let (x_traced, s_traced) = op.solve_cg(&w, &cg_traced).expect("traced cg");
    assert_eq!(x_plain.data(), x_traced.data(), "cg bits differ");
    assert_eq!(s_plain.iterations, s_traced.iterations);
    assert_eq!(s_plain.residual_history, s_traced.residual_history);
}

/// The exported Chrome trace parses, is non-empty, and survives a
/// round-trip through the validating parser with the right event count.
#[test]
fn exported_chrome_trace_is_valid() {
    let op = build_operator(512);
    let trace = traced_flight(&op, TraversalPolicy::DagHeft, 3);
    let json = trace.to_chrome_json();
    let events = validate_chrome_trace(&json).expect("exported trace must validate");
    assert_eq!(events, trace.len(), "event count mismatch in export");
    // Aggregates exist and are sane alongside the export.
    let summary = trace.summary();
    assert!(summary.critical_path_ns > 0);
    assert!(summary.critical_path_ns <= summary.task_ns);
    assert!(summary.workers() >= 1);
}
