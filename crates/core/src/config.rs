//! Configuration of the GOFMM compression and evaluation.

use crate::distance::DistanceMetric;
use gofmm_runtime::CancelToken;
use gofmm_telemetry::{ProgressHandle, TraceSink};

/// How tree traversals are executed (paper §2.3): the runtime's schedules
/// of one task DAG, re-exported here so configuration code needs one import.
pub use gofmm_runtime::TraversalPolicy;

/// Storage precision of the evaluator's packed interaction panels.
///
/// The paper (§3) runs single precision where storage, not conditioning, is
/// the binding constraint. [`PanelPrecision::MixedF32`] ports that trade to
/// the serving layer: packed near/far panels are *stored* in `f32` while
/// every multiply *accumulates* in the operator precision
/// (`gofmm_linalg::gemm_mixed`), roughly halving `cached_bytes` for an `f64`
/// operator at the cost of one `f32` rounding per panel entry — a relative
/// apply perturbation of order `1e-7` (single-precision epsilon), far below
/// typical compression tolerances. The panels are the only stored copy of
/// the interaction blocks; the factorizations evaluate their blocks from the
/// matrix in the native precision. For an `f32` operator `MixedF32` is the
/// identity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PanelPrecision {
    /// Panels stored in the operator's own precision (the default).
    #[default]
    Native,
    /// Panels stored in `f32`, accumulated in the operator precision.
    MixedF32,
}

impl PanelPrecision {
    /// Display label used in stats and experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            PanelPrecision::Native => "native",
            PanelPrecision::MixedF32 => "mixed-f32",
        }
    }
}

impl std::fmt::Display for PanelPrecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// User-facing parameters of GOFMM (paper §3, "Parameter selection").
#[derive(Clone, Debug)]
pub struct GofmmConfig {
    /// Leaf node size `m`.
    pub leaf_size: usize,
    /// Maximum skeleton rank `s`.
    pub max_rank: usize,
    /// Adaptive-rank tolerance `tau` for the interpolative decomposition.
    pub tolerance: f64,
    /// Number of nearest neighbors `kappa` per index.
    pub neighbors: usize,
    /// Budget: the fraction of leaf nodes allowed in each Near list. `0`
    /// forces an HSS approximation (`Near(beta) = {beta}`); larger values move
    /// towards FMM with more direct evaluation.
    pub budget: f64,
    /// Distance metric / partitioning scheme.
    pub metric: DistanceMetric,
    /// Number of worker threads.
    pub num_threads: usize,
    /// Traversal execution policy.
    pub policy: TraversalPolicy,
    /// Number of rows sampled for each node's interpolative decomposition.
    /// `0` selects the default `2 * max_rank + 32`.
    pub sample_size: usize,
    /// Number of randomized-tree iterations for the neighbor search.
    pub ann_iters: usize,
    /// RNG seed.
    pub seed: u64,
    /// Storage precision of the evaluator's packed interaction panels (see
    /// [`PanelPrecision`]).
    pub panel_precision: PanelPrecision,
}

impl Default for GofmmConfig {
    fn default() -> Self {
        Self {
            leaf_size: 256,
            max_rank: 256,
            tolerance: 1e-5,
            neighbors: 32,
            budget: 0.03,
            metric: DistanceMetric::Angle,
            num_threads: gofmm_runtime::available_threads(),
            policy: TraversalPolicy::DagHeft,
            sample_size: 0,
            ann_iters: 10,
            seed: 0,
            panel_precision: PanelPrecision::Native,
        }
    }
}

impl GofmmConfig {
    /// Effective number of rows sampled for each node's ID.
    pub fn effective_sample_size(&self) -> usize {
        if self.sample_size > 0 {
            self.sample_size
        } else {
            2 * self.max_rank + 32
        }
    }

    /// Maximum number of leaves allowed in a Near list for a tree with
    /// `leaf_count` leaves (eq. (6) of the paper); always at least one so the
    /// node itself fits.
    pub fn max_near(&self, leaf_count: usize) -> usize {
        ((self.budget * leaf_count as f64).floor() as usize).max(1)
    }

    /// True when the configuration produces a pure HSS approximation.
    pub fn is_hss(&self) -> bool {
        self.budget <= 0.0
    }

    /// Builder-style setter for the leaf size.
    pub fn with_leaf_size(mut self, m: usize) -> Self {
        self.leaf_size = m;
        self
    }

    /// Builder-style setter for the maximum rank.
    pub fn with_max_rank(mut self, s: usize) -> Self {
        self.max_rank = s;
        self
    }

    /// Builder-style setter for the adaptive tolerance.
    pub fn with_tolerance(mut self, tau: f64) -> Self {
        self.tolerance = tau;
        self
    }

    /// Builder-style setter for the budget.
    pub fn with_budget(mut self, budget: f64) -> Self {
        self.budget = budget;
        self
    }

    /// Builder-style setter for the distance metric.
    pub fn with_metric(mut self, metric: DistanceMetric) -> Self {
        self.metric = metric;
        self
    }

    /// Builder-style setter for the traversal policy.
    pub fn with_policy(mut self, policy: TraversalPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style setter for the thread count.
    pub fn with_threads(mut self, t: usize) -> Self {
        self.num_threads = t.max(1);
        self
    }

    /// Builder-style setter for the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style setter for the packed-panel storage precision (see
    /// [`PanelPrecision`]).
    pub fn with_panel_precision(mut self, precision: PanelPrecision) -> Self {
        self.panel_precision = precision;
        self
    }

    /// Validate the parameter ranges, as [`crate::try_compress`] does before
    /// running.
    pub fn validate(&self) -> Result<(), crate::Error> {
        use crate::Error::InvalidConfig;
        if self.leaf_size == 0 {
            return Err(InvalidConfig {
                what: "leaf_size",
                constraint: "must be positive",
            });
        }
        if self.max_rank == 0 {
            return Err(InvalidConfig {
                what: "max_rank",
                constraint: "must be positive",
            });
        }
        // Zero is legal: it disables the adaptive rank test (fixed-rank ID).
        if !(self.tolerance >= 0.0 && self.tolerance.is_finite()) {
            return Err(InvalidConfig {
                what: "tolerance",
                constraint: "must be non-negative and finite",
            });
        }
        if !(0.0..=1.0).contains(&self.budget) {
            return Err(InvalidConfig {
                what: "budget",
                constraint: "must lie in [0, 1]",
            });
        }
        Ok(())
    }
}

/// Per-call execution options of the `&self` serving entry points
/// ([`crate::Evaluator::apply_with`], the solver's `solve_with`): override
/// the traversal policy and/or worker-thread count for one call without
/// mutating the shared handle. `None` fields fall back to the handle's
/// defaults (the compression configuration). Every policy/thread combination
/// produces bit-identical results, so the options only steer scheduling.
///
/// A [`CancelToken`] attached via [`ApplyOptions::with_cancel`] is polled at
/// checkpoints inside the sweep (once per task, under every policy); when
/// it fires, the call drains its remaining tasks, returns
/// `Err(Error::Cancelled)`, and its leased workspace goes back to the pool
/// in a reusable state.
///
/// A [`TraceSink`] attached via [`ApplyOptions::with_trace`] records one
/// task span per executed task body (plus a phase span for the whole call,
/// and one marker per barrier group under the level-by-level policy) into
/// the sink. Tracing never changes the call's outputs: traced and untraced
/// runs are bit-identical.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ApplyOptions {
    /// Traversal policy override for this call.
    pub policy: Option<TraversalPolicy>,
    /// Worker-thread count override for this call (clamped to >= 1).
    pub threads: Option<usize>,
    /// Cooperative cancellation token for this call (`None`: the call always
    /// runs to completion).
    pub cancel: Option<CancelToken>,
    /// Span sink recording this call's task/phase spans (`None`: the call
    /// records nothing and pays only an option check per task).
    pub trace: Option<TraceSink>,
    /// Progress listener receiving sweep-level reports
    /// (`ProgressReport::SweepLevel`) as tree levels of the apply/solve
    /// sweep complete (`None`: no reports). This is what gives plain
    /// (non-Krylov) flights live progress through `Ticket::progress()`.
    pub progress: Option<ProgressHandle>,
}

impl ApplyOptions {
    /// Options that inherit every default from the handle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style policy override.
    pub fn with_policy(mut self, policy: TraversalPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Builder-style worker-thread override.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Builder-style cancellation token: the call polls `cancel` at sweep
    /// checkpoints and returns `Err(Error::Cancelled)` once it fires.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Builder-style trace sink: the call records task/phase spans into
    /// `trace` (cheap `Arc` clone; all clones feed one buffer).
    pub fn with_trace(mut self, trace: TraceSink) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Builder-style progress listener: the call emits one
    /// `ProgressReport::SweepLevel` per completed sweep stage.
    pub fn with_progress(mut self, progress: ProgressHandle) -> Self {
        self.progress = Some(progress);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = GofmmConfig::default();
        assert!(c.leaf_size > 0);
        assert!(c.max_rank > 0);
        assert!(c.tolerance > 0.0);
        assert!(!c.is_hss());
        assert!(c.effective_sample_size() >= c.max_rank);
    }

    #[test]
    fn builder_setters() {
        let c = GofmmConfig::default()
            .with_leaf_size(64)
            .with_max_rank(32)
            .with_tolerance(1e-3)
            .with_budget(0.0)
            .with_metric(DistanceMetric::Kernel)
            .with_policy(TraversalPolicy::Sequential)
            .with_threads(2)
            .with_seed(42);
        assert_eq!(c.leaf_size, 64);
        assert_eq!(c.max_rank, 32);
        assert!(c.is_hss());
        assert_eq!(c.metric, DistanceMetric::Kernel);
        assert_eq!(c.policy, TraversalPolicy::Sequential);
        assert_eq!(c.num_threads, 2);
        assert_eq!(c.seed, 42);
    }

    #[test]
    fn panel_precision_knob() {
        let c = GofmmConfig::default();
        assert_eq!(c.panel_precision, PanelPrecision::Native);
        let c = c.with_panel_precision(PanelPrecision::MixedF32);
        assert_eq!(c.panel_precision, PanelPrecision::MixedF32);
        assert_eq!(c.panel_precision.to_string(), "mixed-f32");
        assert!(c.validate().is_ok());
    }

    #[test]
    fn max_near_respects_budget() {
        let c = GofmmConfig::default().with_budget(0.25);
        assert_eq!(c.max_near(64), 16);
        let hss = GofmmConfig::default().with_budget(0.0);
        assert_eq!(hss.max_near(64), 1);
    }
}
