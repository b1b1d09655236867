//! The metric tables: names, units, directions and regression bounds. The
//! root `BENCHMARK.json` is this file's tables written out by
//! `--emit-manifest`; a unit test keeps the two identical.

use crate::json::Json;
use crate::workloads::WORKLOADS;

/// Seconds one driver run measures (`--seconds`), and the runner's default.
pub const RUN_SECONDS: u64 = 18;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// What a user of the operator sees; emitted for every workload by the
/// untraced run.
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "apply_r4_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "apply_r64_cols_per_s",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "solve_r4_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "pcg_r4_to_tol_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "serve_rtt_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "serve_backlog32_rps",
        unit: "1/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "apply_digits",
        unit: "digits",
        better: Higher,
        bound: 0.03,
    },
    EndToEnd {
        name: "footprint_mib",
        unit: "MiB",
        better: Lower,
        bound: 0.02,
    },
];

/// Single-layer metrics of the traced run: `(name, unit, better)`. They have
/// no bound; each names the layer (gofmm-suite module) it measures.
pub const PER_LAYER: [(&str, &str, Better); 82] = [
    // linalg, matrices: ceilings measured in the same run
    ("linalg.gemm_leaf_r4_gflops", "GFLOP/s", Higher),
    ("linalg.gemm_leaf_r64_gflops", "GFLOP/s", Higher),
    ("linalg.gemm_square256_gflops", "GFLOP/s", Higher),
    ("linalg.memcpy_gbs", "GB/s", Higher),
    ("matrices.entry_ns", "ns", Lower),
    // tree
    ("tree.ann_s", "s", Lower),
    ("tree.build_s", "s", Lower),
    ("tree.ann_recall", "ratio", Higher),
    // core: compress and evaluator set-up
    ("core.compress_s", "s", Lower),
    ("core.lists_s", "s", Lower),
    ("core.skel_s", "s", Lower),
    ("core.cache_s", "s", Lower),
    ("core.skel_gflops", "GFLOP/s", Higher),
    ("core.avg_rank", "count", Lower),
    ("core.near_pairs", "count", Lower),
    ("core.far_pairs", "count", Lower),
    ("core.evaluator_setup_s", "s", Lower),
    ("core.tune_s", "s", Lower),
    ("core.tune_byte_reduction", "ratio", Higher),
    ("core.panel_mib", "MiB", Lower),
    ("core.compress_exponent", "exp", Lower),
    ("core.apply_exponent", "exp", Lower),
    // core: apply
    ("core.apply_r1_ms", "ms", Lower),
    ("core.apply_r16_ms", "ms", Lower),
    ("core.apply_r4_p50_ms", "ms", Lower),
    ("core.apply_r4_hi_ms", "ms", Lower),
    ("core.apply_r4_n", "count", Higher),
    ("core.apply_fixed_ms", "ms", Lower),
    ("core.apply_per_col_ms", "ms", Lower),
    ("core.apply_flops_r4", "flop", Lower),
    ("core.apply_gflops_r4", "GFLOP/s", Higher),
    ("core.apply_gflops_r64", "GFLOP/s", Higher),
    ("core.apply_kernel_frac_r4", "ratio", Higher),
    ("core.apply_kernel_frac_r64", "ratio", Higher),
    ("core.apply_stream_gbs", "GB/s", Higher),
    ("core.apply_stream_frac", "ratio", Higher),
    ("core.apply_tasks", "count", Lower),
    ("core.apply_task_us", "us", Lower),
    ("core.apply_n2s_ms", "ms", Lower),
    ("core.apply_s2s_ms", "ms", Lower),
    ("core.apply_s2n_ms", "ms", Lower),
    ("core.apply_l2l_ms", "ms", Lower),
    ("core.apply_untasked_ms", "ms", Lower),
    ("core.apply_r4_traced_ms", "ms", Lower),
    ("core.apply_allocs", "count", Lower),
    ("core.apply_alloc_kib", "KiB", Lower),
    ("core.apply_eps2", "ratio", Lower),
    // runtime
    ("runtime.apply_efficiency", "ratio", Higher),
    ("runtime.apply_critical_path_frac", "ratio", Lower),
    ("runtime.steals", "count", Lower),
    ("runtime.apply_t2_speedup", "ratio", Higher),
    ("runtime.levelbylevel_over_dag", "ratio", Higher),
    // solver: factor, direct solve, PCG
    ("solver.factor_s", "s", Lower),
    ("solver.factor_mib", "MiB", Lower),
    ("solver.solve_sup_ms", "ms", Lower),
    ("solver.solve_sdown_ms", "ms", Lower),
    ("solver.solve_tasks", "count", Lower),
    ("solver.solve_allocs", "count", Lower),
    ("solver.solve_rel_residual", "ratio", Lower),
    ("solver.pcg_iters", "count", Lower),
    ("solver.pcg_matvecs", "count", Lower),
    ("solver.pcg_final_residual", "ratio", Lower),
    ("solver.pcg_apply_share", "ratio", Lower),
    // solver: serving
    ("solver.serve_overhead_ms", "ms", Lower),
    ("solver.serve_open_p50_ms", "ms", Lower),
    ("solver.serve_open_hi_ms", "ms", Lower),
    ("solver.serve_open_n", "count", Higher),
    ("solver.serve_gen_lag_ms", "ms", Lower),
    ("solver.serve_open_mean_batch_cols", "cols", Higher),
    ("solver.serve_sat_rps", "1/s", Higher),
    ("solver.serve_sat_mean_batch_cols", "cols", Higher),
    ("solver.serve_rejected", "count", Lower),
    // store (0 on workloads without a store)
    ("store.write_s", "s", Lower),
    ("store.file_mib", "MiB", Lower),
    ("store.faults_per_apply", "count", Lower),
    ("store.read_mib_per_apply", "MiB", Lower),
    ("store.hit_ratio", "ratio", Higher),
    ("store.evictions_per_apply", "count", Lower),
    ("store.peak_resident_mib", "MiB", Lower),
    ("store.ooc_over_resident", "ratio", Lower),
    // telemetry: the cost of the traced run itself
    ("telemetry.trace_overhead_frac", "ratio", Lower),
    ("telemetry.events_per_apply", "count", Lower),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The root `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> Json {
    let s = |v: &str| Json::Str(v.into());
    let workloads = WORKLOADS
        .iter()
        .map(|w| Json::Obj(vec![("name".into(), s(w.name)), ("why".into(), s(w.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), s(m.name)),
                ("unit".into(), s(m.unit)),
                ("better".into(), s(m.better.label())),
                ("bound".into(), Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            Json::Obj(vec![
                ("name".into(), s(name)),
                ("unit".into(), s(unit)),
                ("better".into(), s(better.label())),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "command".into(),
            Json::Arr(vec![s("bash"), s("benchmark/run.sh")]),
        ),
        ("paths".into(), Json::Arr(vec![s("benchmark")])),
        ("run_seconds".into(), Json::Num(RUN_SECONDS as f64)),
        ("workloads".into(), Json::Arr(workloads)),
        ("end_to_end".into(), Json::Arr(end_to_end)),
        ("per_layer".into(), Json::Arr(per_layer)),
    ])
}

/// `manifest()` laid out one entry per line, as committed.
pub fn manifest_text() -> String {
    let Json::Obj(members) = manifest() else {
        unreachable!("manifest is an object")
    };
    let mut out = String::from("{\n");
    for (i, (key, value)) in members.iter().enumerate() {
        let last = i + 1 == members.len();
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 == items.len() { "" } else { "," };
                    out.push_str(&format!("    {}{comma}\n", item.to_line()));
                }
                out.push_str("  ]");
            }
            other => out.push_str(&format!("  \"{key}\": {}", other.to_line())),
        }
        out.push_str(if last { "\n" } else { ",\n" });
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for (name, unit, _) in &PER_LAYER {
            assert!(valid_name(name) && valid_unit(unit), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(PER_LAYER.len() <= 128 && WORKLOADS.len() >= 2 && WORKLOADS.len() <= 8);
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        assert_eq!(Json::parse(&text).unwrap(), manifest());
        assert_eq!(Json::parse(&manifest_text()).unwrap(), manifest());
    }
}
