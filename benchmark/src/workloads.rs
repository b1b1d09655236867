//! The four operator regimes. A workload is *(matrix, config, lambda,
//! precision/tune/storage, threads)*; the traffic script is the same for all.
//! The matrix belongs to the workload; `--seed` makes the traffic sent to it.

use gofmm_suite::core::{GofmmConfig, TraversalPolicy};
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::matrices::{KernelMatrix, KernelType, PointCloud};
use gofmm_suite::{
    AccuracyBudget, Error, GofmmOperator, GofmmOperatorBuilder, PanelPrecision, StorageConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

/// Regularization of every workload. The ULV factorization reports
/// `NotPositiveDefinite` once lambda drops below compression error x ||K||
/// (1e-2 already fails at n = 8192 on these kernels), so lambda is 1.
pub const LAMBDA: f64 = 1.0;

/// Seed of every workload's point cloud. The cloud is part of the workload,
/// not of the traffic: from one seeded cloud to the next PCG takes 13..17
/// iterations, eps2 moves by 2.5x and the panel bytes by 2 %, which is a
/// different operator, not a different run of the same one.
pub const CLOUD_SEED: u64 = 1;

/// Resident budget of the out-of-core workload, in decoded bytes: about a
/// quarter of the tuned f32 store payload. Fixed rather than derived from the
/// native panel bytes, because a budget derived from those never faults.
pub const OOC_RESIDENT_BUDGET: usize = 420_000;

/// How the operator is stored and served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Serving {
    /// Packed f64 panels in memory.
    Native,
    /// f32 panels, tuned to a 1e-4 accuracy budget, spilled to a store file
    /// and served through the fixed resident budget.
    TunedMixedOutOfCore,
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub n: usize,
    pub dim: usize,
    pub leaf: usize,
    pub rank: usize,
    pub budget: f64,
    pub policy: TraversalPolicy,
    pub threads: usize,
    pub serving: Serving,
    /// The regime the workload was chosen for and is asserted to stay in:
    /// every skeleton at the rank cap (average >= 99 % of it, so that a node
    /// or two a rank short do not fail it), or average rank below 32.
    pub rank_saturated: bool,
    /// Cold builds per run (the fastest is `setup_s`): 5, 3 on the two heavy
    /// workloads.
    pub setup_reps: usize,
    /// Open-loop request rate, frozen as the largest of {10, 20, 50, 100,
    /// 200} req/s not above 30 % of the first recorded saturated rate, then
    /// raised a step while one batch time (`core.apply_r1_ms`) holds fewer
    /// than two arrivals (20 -> 50 on `lowrank3d-n32k-t2`): a server that
    /// idles between batches puts the p50 on the cliff between requests
    /// served at once and requests that waited one batch.
    pub open_rate: f64,
    /// Frozen ceilings, 10x the first recorded value (seed 1): an apply whose
    /// eps2, or a direct solve whose residual against the served operator
    /// K~ + lambda I, exceeds its ceiling counts as a failed operation. (The ULV factor inverts the HSS part of K~ only, so with a
    /// non-zero near budget the direct solve is a preconditioner-grade
    /// solution: residuals of 1e-3..3e-2, not roundoff.)
    pub eps2_ceiling: f64,
    pub solve_residual_ceiling: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "lowrank3d-n8k",
        why: "3-D Gaussian, avg rank ~19, ~860 tiny tasks: per-task fixed cost and ANN dominate, GEMM speed barely matters",
        n: 8192,
        dim: 3,
        leaf: 64,
        rank: 64,
        budget: 0.03,
        policy: TraversalPolicy::Sequential,
        threads: 1,
        serving: Serving::Native,
        rank_saturated: false,
        setup_reps: 5,
        open_rate: 100.0,
        eps2_ceiling: 4e-4,
        solve_residual_ceiling: 1e-2,
    },
    Workload {
        name: "highrank6d-n8k",
        why: "6-D Gaussian, rank-saturated at 128, 133 MiB of panels: GEMM/bandwidth-bound apply, overhead is noise",
        n: 8192,
        dim: 6,
        leaf: 128,
        rank: 128,
        budget: 0.1,
        policy: TraversalPolicy::Sequential,
        threads: 1,
        serving: Serving::Native,
        rank_saturated: true,
        setup_reps: 3,
        open_rate: 50.0,
        eps2_ceiling: 4e-3,
        solve_residual_ceiling: 3e-1,
    },
    Workload {
        name: "lowrank3d-n32k-t2",
        why: "the 3-D matrix at n=32768 on DagHeft/2 threads: size-ladder rung, near-list-dominated, only run with the DAG runtime on the blocking path",
        n: 32768,
        dim: 3,
        leaf: 64,
        rank: 64,
        budget: 0.03,
        policy: TraversalPolicy::DagHeft,
        threads: 2,
        serving: Serving::Native,
        rank_saturated: false,
        setup_reps: 3,
        open_rate: 50.0,
        eps2_ceiling: 6e-4,
        solve_residual_ceiling: 3e-2,
    },
    Workload {
        name: "variants3d-n8k-ooc",
        why: "the lowrank3d-n8k matrix served as tuned f32 panels from a store file at a 25 % resident budget: every non-default Panel variant",
        n: 8192,
        dim: 3,
        leaf: 64,
        rank: 64,
        budget: 0.03,
        policy: TraversalPolicy::Sequential,
        threads: 1,
        serving: Serving::TunedMixedOutOfCore,
        rank_saturated: false,
        setup_reps: 5,
        open_rate: 50.0,
        eps2_ceiling: 5e-4,
        solve_residual_ceiling: 3e-2,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The same workload at `n / divisor` (the `--smoke` run and the lower
    /// rung of the scaling-exponent fit).
    pub fn scaled_down(&self, divisor: usize) -> Workload {
        Workload {
            n: self.n / divisor,
            ..self.clone()
        }
    }

    /// Threads the sweeps actually use: the workload's count, clamped to the
    /// cores present (reported in the header, never silently).
    pub fn threads_used(&self, nproc: usize) -> usize {
        self.threads.min(nproc.max(1))
    }

    pub fn matrix(&self) -> KernelMatrix {
        KernelMatrix::new(
            PointCloud::uniform(self.n, self.dim, CLOUD_SEED),
            KernelType::Gaussian { bandwidth: 1.0 },
            1e-6,
            self.name,
        )
    }

    /// The block PCG solves for and the reported accuracy is measured on,
    /// fixed like the matrix, because both figures are properties of the
    /// pair: from one Gaussian block to the next PCG takes 13 .. 18
    /// iterations on `highrank6d-n8k` (a 7 % step in time each) and eps2
    /// moves by 3x on `lowrank3d-n32k-t2`, which on a seeded block would be
    /// run-to-run noise.
    pub fn own_block(&self) -> DenseMatrix<f64> {
        let mut rng = StdRng::seed_from_u64(CLOUD_SEED);
        DenseMatrix::random_gaussian(self.n, 4, &mut rng)
    }

    pub fn config(&self, nproc: usize) -> GofmmConfig {
        let precision = match self.serving {
            Serving::Native => PanelPrecision::Native,
            Serving::TunedMixedOutOfCore => PanelPrecision::MixedF32,
        };
        GofmmConfig::default()
            .with_leaf_size(self.leaf)
            .with_max_rank(self.rank)
            .with_tolerance(1e-7)
            .with_budget(self.budget)
            .with_policy(self.policy)
            .with_threads(self.threads_used(nproc))
            .with_panel_precision(precision)
    }

    pub fn tune_budget(&self) -> Option<AccuracyBudget> {
        match self.serving {
            Serving::Native => None,
            Serving::TunedMixedOutOfCore => Some(AccuracyBudget::new(1e-4)),
        }
    }

    /// Compress, factor, pack and (for the tuned workload) tune: everything
    /// but where the panels end up.
    fn builder<'m>(
        &self,
        matrix: &'m KernelMatrix,
        nproc: usize,
    ) -> GofmmOperatorBuilder<'m, f64, KernelMatrix> {
        let builder = GofmmOperator::<f64>::builder(matrix)
            .config(self.config(nproc))
            .factorize(LAMBDA);
        match self.tune_budget() {
            Some(budget) => builder.tune(budget),
            None => builder,
        }
    }

    /// The end-to-end build users run; the out-of-core workload spills into
    /// `store_dir`.
    pub fn build(
        &self,
        matrix: &KernelMatrix,
        nproc: usize,
        store_dir: &Path,
    ) -> Result<GofmmOperator<f64>, Error> {
        let builder = self.builder(matrix, nproc);
        match self.serving {
            Serving::Native => builder,
            Serving::TunedMixedOutOfCore => builder.storage(StorageConfig::File {
                dir: store_dir.to_path_buf(),
                resident_budget: OOC_RESIDENT_BUDGET,
            }),
        }
        .build()
    }

    /// The same operator kept in memory (no spill): what the traced run
    /// writes to a store itself to time the store layer from outside.
    pub fn build_in_memory(
        &self,
        matrix: &KernelMatrix,
        nproc: usize,
    ) -> Result<GofmmOperator<f64>, Error> {
        self.builder(matrix, nproc).build()
    }
}
