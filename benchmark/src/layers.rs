//! The per-layer metrics of the traced run, named `<module>.<metric>` after
//! the gofmm-suite module they measure. Everything is measured from outside:
//! by timing calls into public functions inside a bench span, by reading the
//! stats structs those calls return, and by installing a `TraceSink` through
//! `ApplyOptions::with_trace`.
//!
//! A metric that does not exist on a workload (the `store.*` family without
//! a store) is reported as 0, because every traced run prints every metric.

use crate::alloc;
use crate::script::ScriptOutput;
use crate::spans::{self, Recorder, SpanId, ROOT};
use crate::stats::{fastest, high_percentile, line_fit, log_ratio_exponent, median};
use crate::workloads::{Serving, Workload};
use crate::{Counts, Metric};
use gofmm_suite::core::{ApplyOptions, Evaluator, TraversalPolicy};
use gofmm_suite::linalg::{gemm, DenseMatrix, Transpose};
use gofmm_suite::matrices::SpdMatrix;
use gofmm_suite::solver::StoreWriter;
use gofmm_suite::telemetry::{SpanKind, Trace, TraceSink};
use gofmm_suite::{Error, GofmmOperator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const MIB: f64 = 1024.0 * 1024.0;

/// Sizes the probes use; `--smoke` shrinks them with the problem.
#[derive(Clone, Copy, Debug)]
pub struct ProbeSizes {
    /// Samples of each extra timed call (policy variants, traced calls).
    pub samples: usize,
    /// Bytes of each of the two memcpy buffers: four times the last-level
    /// cache (the VM reports one shared 260 MiB L3 and 4 MiB of L2 per core),
    /// so the copy streams from memory, not from cache.
    pub memcpy_bytes: usize,
}

impl ProbeSizes {
    pub fn full() -> Self {
        ProbeSizes {
            samples: 8,
            memcpy_bytes: 4 * (260 << 20),
        }
    }
    pub fn smoke() -> Self {
        ProbeSizes {
            samples: 3,
            memcpy_bytes: 32 << 20,
        }
    }
}

struct Probe<'a> {
    rec: &'a Recorder,
    counts: &'a mut Counts,
    metrics: Vec<Metric>,
}

impl Probe<'_> {
    fn put(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric::exact(name, unit, value));
    }

    /// Count one library call; log and drop its error.
    fn ok<T>(&mut self, what: &str, result: Result<T, Error>) -> Option<T> {
        self.counts.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(err) => {
                eprintln!("{what} failed: {err}");
                self.counts.failed += 1;
                None
            }
        }
    }

    /// Milliseconds of one call: the fastest of `samples` calls (after one
    /// warm-up), each inside a span.
    fn timed_ms<T>(
        &mut self,
        span: &'static str,
        parent: SpanId,
        samples: usize,
        mut call: impl FnMut() -> Result<T, Error>,
    ) -> f64 {
        let mut ms = Vec::new();
        for i in 0..=samples {
            let (result, secs) = self.rec.time(span, parent, &mut call);
            if self.ok(span, result).is_some() && i > 0 {
                ms.push(1e3 * secs);
            }
        }
        if ms.is_empty() {
            f64::NAN
        } else {
            fastest(&ms)
        }
    }
}

/// GFLOP/s of `gemm` at `m x k . k x n`, median of 15 samples of ~5 ms.
fn gemm_gflops(rec: &Recorder, parent: SpanId, m: usize, k: usize, n: usize, seed: u64) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = DenseMatrix::<f64>::random_gaussian(m, k, &mut rng);
    let b = DenseMatrix::<f64>::random_gaussian(k, n, &mut rng);
    let mut c = DenseMatrix::<f64>::zeros(m, n);
    let mut run = |reps: usize| {
        let t0 = Instant::now();
        for _ in 0..reps {
            gemm(
                1.0,
                black_box(&a),
                Transpose::No,
                black_box(&b),
                Transpose::No,
                0.0,
                &mut c,
            );
        }
        black_box(&c);
        t0.elapsed().as_secs_f64()
    };
    let once = run(3) / 3.0;
    let reps = ((5e-3 / once).ceil() as usize).max(1);
    let flops = 2.0 * (m * k * n) as f64 * reps as f64;
    let rates: Vec<f64> = (0..15)
        .map(|_| flops / rec.time("linalg.gemm", parent, || run(reps)).0 / 1e9)
        .collect();
    median(&rates)
}

/// GB/s of one `copy_from_slice` between two `bytes`-sized buffers (bytes
/// copied, counted once), median of 5 after a warm-up that faults them in.
fn memcpy_gbs(rec: &Recorder, parent: SpanId, bytes: usize) -> f64 {
    let src = vec![1u8; bytes];
    let mut dst = vec![0u8; bytes];
    let mut rates = Vec::new();
    for i in 0..6 {
        let (_, secs) = rec.time("linalg.memcpy", parent, || {
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
        });
        if i > 0 {
            rates.push(bytes as f64 / secs / 1e9);
        }
    }
    median(&rates)
}

/// One traced call: its bench span id, wall nanoseconds and library trace.
struct TracedCall {
    span: SpanId,
    wall_ns: u64,
    sink: TraceSink,
    trace: Trace,
}

/// Make `call` once with a fresh `TraceSink` installed, inside a bench span.
fn traced_call<T>(
    probe: &mut Probe<'_>,
    span: &'static str,
    parent: SpanId,
    call: impl FnOnce(&ApplyOptions) -> Result<T, Error>,
) -> Option<TracedCall> {
    let sink = TraceSink::new();
    let opts = ApplyOptions::default().with_trace(sink.clone());
    let guard = probe.rec.open(span, parent);
    let span_id = guard.id();
    let t0 = Instant::now();
    let result = call(&opts);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    drop(guard);
    probe.ok(span, result)?;
    let trace = sink.trace();
    Some(TracedCall {
        span: span_id,
        wall_ns,
        sink,
        trace,
    })
}

/// The call of median wall time, so that every figure derived from a trace
/// belongs to one actual run; with it, every call's wall in milliseconds.
fn median_call(mut calls: Vec<TracedCall>) -> Option<(TracedCall, Vec<f64>)> {
    if calls.is_empty() {
        return None;
    }
    let walls_ms = calls.iter().map(|c| c.wall_ns as f64 / 1e6).collect();
    calls.sort_by_key(|c| c.wall_ns);
    let mid = calls.swap_remove((calls.len() - 1) / 2);
    Some((mid, walls_ms))
}

/// Allocation calls and bytes of one steady-state call, counted three times.
/// On one thread (`exact`) the counts must repeat exactly; with several DAG
/// workers the scheduler's own queues allocate by interleaving, so there the
/// middle count is reported and nothing is asserted.
fn steady_allocs<T>(
    probe: &mut Probe<'_>,
    what: &str,
    exact: bool,
    mut call: impl FnMut() -> Result<T, Error>,
) -> alloc::AllocCount {
    let mut seen = Vec::new();
    for _ in 0..3 {
        let (result, count) = alloc::counted(&mut call);
        if probe.ok(what, result).is_some() {
            seen.push(count);
        }
    }
    if exact {
        probe.counts.attempted += 1;
        if seen.len() < 3 || seen.iter().any(|c| *c != seen[0]) {
            eprintln!("{what}: allocation counts do not repeat: {seen:?}");
            probe.counts.failed += 1;
        }
    }
    seen.sort_by_key(|c| c.calls);
    seen.get(seen.len() / 2)
        .copied()
        .unwrap_or(alloc::AllocCount { calls: 0, bytes: 0 })
}

/// Measure every per-layer metric of `workload` around the operator the
/// script built.
#[allow(clippy::too_many_arguments)]
pub fn probe(
    workload: &Workload,
    seed: u64,
    nproc: usize,
    out: &ScriptOutput,
    sizes: ProbeSizes,
    tmp: &Path,
    counts: &mut Counts,
    rec: &Recorder,
) -> Vec<Metric> {
    let mut p = Probe {
        rec,
        counts,
        metrics: Vec::new(),
    };
    let op = &*out.op;
    let defaults = ApplyOptions::default();
    let apply_r4_ms = fastest(&out.apply_r4.ms);
    let apply_r64_ms = fastest(&out.apply_r64.ms);
    let r4_stats = out.apply_r4.last.clone().unwrap_or_default();
    let r64_stats = out.apply_r64.last.clone().unwrap_or_default();

    // --- linalg, matrices: the ceilings, measured in this same run ----------
    let leaf = workload.leaf;
    let (gemm_r4, gemm_r64, memcpy) = {
        let phase = rec.open("phase.ceilings", ROOT);
        let gemm_r4 = gemm_gflops(rec, phase.id(), leaf, leaf, 4, seed);
        let gemm_r64 = gemm_gflops(rec, phase.id(), leaf, leaf, 64, seed);
        p.put("linalg.gemm_leaf_r4_gflops", "GFLOP/s", gemm_r4);
        p.put("linalg.gemm_leaf_r64_gflops", "GFLOP/s", gemm_r64);
        p.put(
            "linalg.gemm_square256_gflops",
            "GFLOP/s",
            gemm_gflops(rec, phase.id(), 256, 256, 256, seed),
        );
        let memcpy = memcpy_gbs(rec, phase.id(), sizes.memcpy_bytes);
        p.put("linalg.memcpy_gbs", "GB/s", memcpy);
        let side = 256.min(workload.n / 2);
        let rows: Vec<usize> = (0..side).collect();
        let cols: Vec<usize> = (workload.n - side..workload.n).collect();
        let entry_ns: Vec<f64> = (0..15)
            .map(|_| {
                let (block, secs) = rec.time("matrices.submatrix", phase.id(), || {
                    SpdMatrix::<f64>::submatrix(&out.matrix, &rows, &cols)
                });
                black_box(block);
                1e9 * secs / (side * side) as f64
            })
            .collect();
        p.put("matrices.entry_ns", "ns", median(&entry_ns));
        (gemm_r4, gemm_r64, memcpy)
    };

    // --- tree, core compress, solver factor: stats of the last cold build ---
    let comp = &op.compressed().stats;
    p.put("tree.ann_s", "s", comp.ann_time);
    p.put("tree.build_s", "s", comp.tree_time);
    p.put("tree.ann_recall", "ratio", comp.ann_recall);
    p.put("core.compress_s", "s", comp.total_time);
    p.put("core.lists_s", "s", comp.lists_time);
    p.put("core.skel_s", "s", comp.skel_time);
    p.put("core.cache_s", "s", comp.cache_time);
    p.put(
        "core.skel_gflops",
        "GFLOP/s",
        comp.flops as f64 / comp.skel_time / 1e9,
    );
    p.put("core.avg_rank", "count", comp.avg_rank);
    p.put("core.near_pairs", "count", comp.near_pairs as f64);
    p.put("core.far_pairs", "count", comp.far_pairs as f64);
    p.put("core.evaluator_setup_s", "s", op.evaluator().setup_time());
    let tune = op.tune_stats();
    p.put("core.tune_s", "s", tune.map_or(0.0, |t| t.time));
    p.put(
        "core.tune_byte_reduction",
        "ratio",
        tune.map_or(0.0, |t| t.byte_reduction()),
    );
    let factor = op
        .ulv_factor()
        .map(|f| f.stats().clone())
        .unwrap_or_default();
    p.put("solver.factor_s", "s", factor.setup_time);
    p.put("solver.factor_mib", "MiB", factor.bytes as f64 / MIB);

    // --- store: the layer timed from outside on an in-memory twin -----------
    let mut panel_bytes = op.evaluator().cached_bytes();
    let (mut write_s, mut file_mib, mut ooc_over_resident) = (0.0, 0.0, 0.0);
    if workload.serving == Serving::TunedMixedOutOfCore {
        let phase = rec.open("phase.store", ROOT);
        let built = workload.build_in_memory(&out.matrix, nproc);
        if let Some(twin) = p.ok("in-memory twin build", built) {
            panel_bytes = twin.evaluator().cached_bytes();
            let path = tmp.join("twin.gfmm");
            let (written, secs) = rec.time("store.write", phase.id(), || -> Result<(), Error> {
                let mut writer = StoreWriter::create(&path)?;
                twin.evaluator().write_to(&mut writer)?;
                if let Some(factor) = twin.ulv_factor() {
                    factor.write_to(&mut writer)?;
                }
                Ok(writer.finish()?)
            });
            if p.ok("store write", written).is_some() {
                write_s = secs;
                file_mib = std::fs::metadata(&path).map_or(0.0, |m| m.len() as f64 / MIB);
            }
        }
        // The operator's own file, reopened with room for every panel.
        let file = out.store_dir.join("operator.gfmm");
        let reopened = Evaluator::<f64>::open_from(&file, usize::MAX / 2);
        if let Some((_, resident)) = p.ok("store reopen", reopened) {
            let resident_ms = p.timed_ms("core.apply.resident", phase.id(), sizes.samples, || {
                resident.apply_with(&out.w4, &defaults)
            });
            ooc_over_resident = apply_r4_ms / resident_ms;
        }
    }
    let rates = out.apply_r4_store;
    p.put("store.write_s", "s", write_s);
    p.put("store.file_mib", "MiB", file_mib);
    p.put("store.faults_per_apply", "count", rates.faults);
    p.put("store.read_mib_per_apply", "MiB", rates.bytes_read / MIB);
    p.put("store.hit_ratio", "ratio", rates.hit_ratio);
    p.put("store.evictions_per_apply", "count", rates.evictions);
    p.put(
        "store.peak_resident_mib",
        "MiB",
        op.store_stats()
            .map_or(0.0, |s| s.peak_resident_bytes as f64 / MIB),
    );
    p.put("store.ooc_over_resident", "ratio", ooc_over_resident);
    p.put("core.panel_mib", "MiB", panel_bytes as f64 / MIB);

    // --- core: scaling exponents against the same workload at n / divisor ---
    {
        let phase = rec.open("phase.exponents", ROOT);
        let divisor = if workload.n / 4 >= 8 * workload.leaf {
            4
        } else {
            2
        };
        let small = workload.scaled_down(divisor);
        let small_matrix = small.matrix();
        let dir = tmp.join("store-small");
        let (built, _) = rec.time("solver.build", phase.id(), || {
            small.build(&small_matrix, nproc, &dir)
        });
        let (mut compress_exp, mut apply_exp) = (f64::NAN, f64::NAN);
        if let Some(small_op) = p.ok("small build", built) {
            let mut rng = StdRng::seed_from_u64(seed);
            let w = DenseMatrix::<f64>::random_gaussian(small.n, 4, &mut rng);
            let small_ms = p.timed_ms("core.apply", phase.id(), sizes.samples, || {
                small_op.apply_with(&w, &defaults)
            });
            let (n0, n1) = (small.n as f64, workload.n as f64);
            compress_exp = log_ratio_exponent(
                n0,
                small_op.compressed().stats.total_time,
                n1,
                comp.total_time,
            );
            apply_exp = log_ratio_exponent(n0, small_ms, n1, apply_r4_ms);
        }
        let _ = std::fs::remove_dir_all(&dir);
        p.put("core.compress_exponent", "exp", compress_exp);
        p.put("core.apply_exponent", "exp", apply_exp);
    }

    // --- core apply: width profile and traced calls, taking turns ------------
    // Widths 1, 4, 16, 64 and one traced r=4 call per turn, so the line fit
    // and the tracing overhead compare calls made within the same seconds.
    let phase = rec.open("phase.apply_profile", ROOT);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa9917);
    let widths = [1, 4, 16, 64];
    let inputs = widths.map(|r| DenseMatrix::<f64>::random_gaussian(workload.n, r, &mut rng));
    let mut width_ms = [const { Vec::new() }; 4];
    let mut traced_applies = Vec::new();
    for turn in 0..=sizes.samples {
        for (i, (ms, w)) in width_ms.iter_mut().zip(&inputs).enumerate() {
            let (result, secs) = rec.time("core.apply", phase.id(), || op.apply_with(w, &defaults));
            // Turn 0 leases the workspaces of the new widths; not a sample.
            if p.ok("core.apply", result).is_some() && turn > 0 {
                ms.push(1e3 * secs);
            }
            // The traced call follows the untraced r=4 call it is compared
            // with, so both run after a narrow apply.
            if widths[i] == 4 {
                traced_applies.extend(traced_call(
                    &mut p,
                    "core.apply.traced",
                    phase.id(),
                    |opts| op.apply_with(w, opts),
                ));
            }
        }
    }
    let [apply_r1_ms, profile_r4_ms, apply_r16_ms, profile_r64_ms] = width_ms.map(|ms| {
        if ms.is_empty() {
            f64::NAN
        } else {
            fastest(&ms)
        }
    });
    p.put("core.apply_r1_ms", "ms", apply_r1_ms);
    p.put("core.apply_r16_ms", "ms", apply_r16_ms);
    // The e2e figure is the fastest sample; the median and tail sit beside it.
    p.put("core.apply_r4_p50_ms", "ms", median(&out.apply_r4.ms));
    let (_, hi) = high_percentile(&out.apply_r4.ms);
    p.put("core.apply_r4_hi_ms", "ms", hi);
    p.put("core.apply_r4_n", "count", out.apply_r4.ms.len() as f64);
    let (fixed, per_col) = line_fit(&[
        (1.0, apply_r1_ms),
        (4.0, profile_r4_ms),
        (16.0, apply_r16_ms),
        (64.0, profile_r64_ms),
    ]);
    p.put("core.apply_fixed_ms", "ms", fixed);
    p.put("core.apply_per_col_ms", "ms", per_col);
    let flops_r4 = r4_stats.flops as f64;
    let gflops_r4 = flops_r4 / (apply_r4_ms * 1e-3) / 1e9;
    let gflops_r64 = r64_stats.flops as f64 / (apply_r64_ms * 1e-3) / 1e9;
    p.put("core.apply_eps2", "ratio", out.eps2);
    p.put("core.apply_flops_r4", "flop", flops_r4);
    p.put("core.apply_gflops_r4", "GFLOP/s", gflops_r4);
    p.put("core.apply_gflops_r64", "GFLOP/s", gflops_r64);
    // Against the one-thread leaf-shaped GEMM times the threads sweeping. A
    // reference point, not a hard ceiling: the sweep's own products are wider
    // than leaf x leaf wherever near lists are long, so it can exceed 1.
    let threads = workload.threads_used(nproc) as f64;
    p.put(
        "core.apply_kernel_frac_r4",
        "ratio",
        gflops_r4 / (threads * gemm_r4),
    );
    p.put(
        "core.apply_kernel_frac_r64",
        "ratio",
        gflops_r64 / (threads * gemm_r64),
    );
    // Panel bytes as computed from the panel sizes: cache misses not counted.
    let stream_gbs = panel_bytes as f64 / (apply_r4_ms * 1e-3) / 1e9;
    p.put("core.apply_stream_gbs", "GB/s", stream_gbs);
    p.put("core.apply_stream_frac", "ratio", stream_gbs / memcpy);
    let exec = r4_stats.exec.clone().unwrap_or_default();
    p.put("core.apply_tasks", "count", exec.tasks_executed as f64);
    p.put(
        "core.apply_task_us",
        "us",
        1e6 * exec.total_task_time / exec.tasks_executed.max(1) as f64,
    );
    p.put("runtime.apply_efficiency", "ratio", exec.efficiency());
    p.put("runtime.steals", "count", exec.steals as f64);

    // --- telemetry + core: one traced apply, split by task family -----------
    let traced = median_call(traced_applies);
    // [N2S, S2S, S2N, L2L, untasked, wall] of the traced call of median wall.
    let mut split_ms = [f64::NAN; 6];
    let (mut overhead, mut events, mut critical) = (f64::NAN, f64::NAN, f64::NAN);
    if let Some((call, walls_ms)) = traced {
        rec.import_tasks(&call.sink, &call.trace, call.span);
        let all = rec.snapshot();
        let summary = call.trace.summary();
        for (slot, family) in split_ms.iter_mut().zip(["N2S", "S2S", "S2N", "L2L"]) {
            *slot = summary.family_ns(family) as f64 / 1e6;
        }
        // Self time of the call's span: its wall minus its task spans.
        split_ms[4] = spans::self_ns(&all, call.span) as f64 / 1e6;
        split_ms[5] = all
            .iter()
            .find(|s| s.id == call.span)
            .map_or(f64::NAN, |s| (s.end_ns - s.start_ns) as f64 / 1e6);
        overhead = fastest(&walls_ms) / profile_r4_ms - 1.0;
        events = call.trace.len() as f64;
        critical = summary.critical_path_fraction();
    }
    for (name, value) in ["n2s", "s2s", "s2n", "l2l", "untasked", "r4_traced"]
        .iter()
        .zip(split_ms)
    {
        p.put(&format!("core.apply_{name}_ms"), "ms", value);
    }
    p.put("runtime.apply_critical_path_frac", "ratio", critical);
    p.put("telemetry.trace_overhead_frac", "ratio", overhead);
    p.put("telemetry.events_per_apply", "count", events);
    let allocs = steady_allocs(&mut p, "apply allocations", threads == 1.0, || {
        op.apply_with(&inputs[1], &defaults)
    });
    p.put("core.apply_allocs", "count", allocs.calls as f64);
    p.put("core.apply_alloc_kib", "KiB", allocs.bytes as f64 / 1024.0);
    drop(phase);

    // --- runtime: the same apply under the other schedules ------------------
    {
        let phase = rec.open("phase.schedules", ROOT);
        let t = 2.min(nproc.max(1));
        let mut under = |policy: TraversalPolicy, threads: usize| {
            let opts = ApplyOptions::default()
                .with_policy(policy)
                .with_threads(threads);
            p.timed_ms("core.apply", phase.id(), sizes.samples, || {
                op.apply_with(&out.w4, &opts)
            })
        };
        let sequential = under(TraversalPolicy::Sequential, 1);
        let dag = under(TraversalPolicy::DagHeft, t);
        let level_by_level = under(TraversalPolicy::LevelByLevel, t);
        p.put("runtime.apply_t2_speedup", "ratio", sequential / dag);
        p.put(
            "runtime.levelbylevel_over_dag",
            "ratio",
            level_by_level / dag,
        );
    }

    // --- solver: direct solve split by sweep, PCG ---------------------------
    {
        let phase = rec.open("phase.solve_profile", ROOT);
        let calls = (0..sizes.samples)
            .filter_map(|_| {
                traced_call(&mut p, "solver.solve.traced", phase.id(), |opts| {
                    op.solve_with(&out.w4, opts)
                })
            })
            .collect();
        let traced = median_call(calls);
        let (mut sup, mut sdown, mut tasks) = (f64::NAN, f64::NAN, f64::NAN);
        if let Some((call, _)) = traced {
            rec.import_tasks(&call.sink, &call.trace, call.span);
            let summary = call.trace.summary();
            sup = summary.family_ns("SUP") as f64 / 1e6;
            sdown = summary.family_ns("SDOWN") as f64 / 1e6;
            tasks = call
                .trace
                .events()
                .iter()
                .filter(|e| e.kind == SpanKind::Task)
                .count() as f64;
        }
        p.put("solver.solve_sup_ms", "ms", sup);
        p.put("solver.solve_sdown_ms", "ms", sdown);
        p.put("solver.solve_tasks", "count", tasks);
        let allocs = steady_allocs(&mut p, "solve allocations", threads == 1.0, || {
            op.solve(&out.w4)
        });
        p.put("solver.solve_allocs", "count", allocs.calls as f64);
    }
    p.put("solver.solve_rel_residual", "ratio", out.solve_rel_residual);
    if let Some(pcg) = &out.pcg.first {
        p.put("solver.pcg_iters", "count", pcg.iterations as f64);
        p.put("solver.pcg_matvecs", "count", pcg.matvecs as f64);
        p.put("solver.pcg_final_residual", "ratio", pcg.relative_residual);
        p.put(
            "solver.pcg_apply_share",
            "ratio",
            pcg.matvecs as f64 * apply_r4_ms / out.pcg.to_tol_ms().value,
        );
    }

    // --- solver serving: what the server adds, and the two loaded windows ---
    p.put(
        "solver.serve_overhead_ms",
        "ms",
        fastest(&out.round_trip_ms) - apply_r1_ms,
    );
    let mut rejected = out.front_stats.overload_rejected;
    if let Some(open) = &out.open {
        p.put("solver.serve_open_p50_ms", "ms", median(&open.latencies_ms));
        let (_, open_hi) = high_percentile(&open.latencies_ms);
        p.put("solver.serve_open_hi_ms", "ms", open_hi);
        p.put(
            "solver.serve_open_n",
            "count",
            open.latencies_ms.len() as f64,
        );
        p.put("solver.serve_gen_lag_ms", "ms", median(&open.gen_lag_ms));
        p.put(
            "solver.serve_open_mean_batch_cols",
            "cols",
            open.mean_batch_cols(),
        );
        rejected += open.stats.overload_rejected;
    }
    if let Some(sat) = &out.sat {
        p.put("solver.serve_sat_rps", "1/s", sat.rate());
        p.put(
            "solver.serve_sat_mean_batch_cols",
            "cols",
            sat.mean_batch_cols(),
        );
        rejected += sat.stats.overload_rejected;
    }
    p.put("solver.serve_rejected", "count", rejected as f64);
    p.metrics
}

/// Regime assertions: each workload must stay the operator regime it was
/// chosen for, or the numbers silently stop meaning what the README says.
pub fn regime_violations(
    workload: &Workload,
    op: &GofmmOperator<f64>,
    store_faults_per_apply: f64,
) -> Vec<String> {
    let mut broken = Vec::new();
    let avg_rank = op.compressed().stats.avg_rank;
    if workload.rank_saturated {
        if avg_rank < 0.99 * workload.rank as f64 {
            broken.push(format!(
                "avg rank {avg_rank} is not saturated at {}",
                workload.rank
            ));
        }
    } else if avg_rank >= 32.0 {
        broken.push(format!("avg rank {avg_rank} is not below 32"));
    }
    if workload.serving == Serving::TunedMixedOutOfCore {
        if !op.tune_stats().is_some_and(|t| t.accepted_any()) {
            broken.push("the tuner accepted no candidate".into());
        }
        if store_faults_per_apply <= 0.0 {
            broken.push("the resident budget never faults".into());
        }
        let peak = op
            .store_stats()
            .map_or(0, |s| s.peak_resident_bytes as usize);
        if peak > crate::workloads::OOC_RESIDENT_BUDGET {
            broken.push(format!("peak resident {peak} B exceeds the budget"));
        }
    }
    broken
}
