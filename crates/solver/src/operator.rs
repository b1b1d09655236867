//! The unified front door: one `Send + Sync` handle for the whole
//! compress-once / serve-many pipeline.
//!
//! Before this type existed, standing up a kernel-matrix service meant
//! composing the zoo of entry points by hand — `compress` → [`Compressed`] →
//! `Evaluator::new` / `UlvFactor::new` → `cg` — and none of the
//! resulting engines could be shared across request threads. A
//! [`GofmmOperator`] wraps all of it behind one builder:
//!
//! ```text
//! GofmmOperator::builder(&matrix)   // any SpdMatrix
//!     .config(cfg)                  // GofmmConfig (optional)
//!     .factorize(lambda)            // enable solve/solve_cg (optional)
//!     .build()?                     // compress + pack + factor, fallibly
//! ```
//!
//! The built operator holds the compression behind an [`Arc`] and serves
//! [`GofmmOperator::apply`], [`GofmmOperator::solve`] and
//! [`GofmmOperator::solve_cg`] through `&self`: wrap it in an `Arc` and any
//! number of threads can fire requests at one handle, each call leasing its
//! scratch from the internal workspace pools. Every entry point returns
//! `Result<_, gofmm_core::Error>` instead of panicking, and results are
//! bit-identical across traversal policies, worker counts, and concurrency.

use crate::krylov::{cg, KrylovOptions, LinearOperator, Shifted, SolveStats};
use crate::ulv::UlvFactor;
use gofmm_core::{
    try_compress, AccuracyBudget, ApplyOptions, Compressed, Error, EvaluationStats, Evaluator,
    FilePanelStore, GofmmConfig, PanelPrecision, StorageConfig, StoreStatsSnapshot, StoreWriter,
    TuneStats,
};
use gofmm_linalg::{DenseMatrix, Scalar};
use gofmm_matrices::SpdMatrix;
use std::marker::PhantomData;
use std::sync::Arc;

/// A compressed SPD operator as a shareable service handle: kernel-free
/// matvecs ([`GofmmOperator::apply`]), hierarchical direct solves
/// ([`GofmmOperator::solve`]) and preconditioned CG
/// ([`GofmmOperator::solve_cg`]) of `K + lambda I`, all through `&self`.
///
/// The handle is `Send + Sync`; put it in an [`Arc`] and share it across as
/// many request threads as the hardware allows. Concurrent calls lease
/// disjoint workspaces from internal pools and produce outputs bit-identical
/// to a sequential caller's, under every traversal policy.
///
/// # Example: one shared handle, two threads, all four policies
///
/// ```
/// use gofmm_core::{ApplyOptions, GofmmConfig, TraversalPolicy};
/// use gofmm_linalg::DenseMatrix;
/// use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
/// use gofmm_solver::GofmmOperator;
/// use std::sync::Arc;
///
/// let n = 192;
/// let k = KernelMatrix::new(
///     PointCloud::uniform(n, 3, 7),
///     KernelType::Gaussian { bandwidth: 1.0 },
///     1e-6,
///     "doc",
/// );
/// let config = GofmmConfig::default()
///     .with_leaf_size(32)
///     .with_max_rank(32)
///     .with_tolerance(1e-6)
///     .with_budget(0.0)
///     .with_threads(2)
///     .with_policy(TraversalPolicy::Sequential);
/// let op = Arc::new(
///     GofmmOperator::<f64>::builder(&k)
///         .config(config)
///         .factorize(1e-2)
///         .build()
///         .unwrap(),
/// );
/// let w = DenseMatrix::<f64>::from_fn(n, 2, |i, j| ((i + 3 * j) % 7) as f64 - 3.0);
///
/// // Sequential baseline on the same handle...
/// let u_seq = op.apply(&w).unwrap();
/// let x_seq = op.solve(&w).unwrap();
///
/// // ...then two threads share the operator, one applying and one solving,
/// // under every traversal policy: all results must be bit-identical to the
/// // sequential baseline.
/// for policy in [
///     TraversalPolicy::Sequential,
///     TraversalPolicy::LevelByLevel,
///     TraversalPolicy::DagHeft,
///     TraversalPolicy::DagFifo,
/// ] {
///     let opts = ApplyOptions::new().with_policy(policy).with_threads(2);
///     let (u, x) = std::thread::scope(|s| {
///         let op_a = Arc::clone(&op);
///         let op_b = Arc::clone(&op);
///         let (wr, or) = (&w, &opts);
///         let ha = s.spawn(move || op_a.apply_with(wr, or).unwrap().0);
///         let hb = s.spawn(move || op_b.solve_with(wr, or).unwrap());
///         (ha.join().unwrap(), hb.join().unwrap())
///     });
///     assert_eq!(u.data(), u_seq.data(), "{policy}: apply drifted");
///     assert_eq!(x.data(), x_seq.data(), "{policy}: solve drifted");
/// }
/// ```
pub struct GofmmOperator<T: Scalar> {
    comp: Arc<Compressed<T>>,
    evaluator: Evaluator<'static, T>,
    factor: Option<UlvFactor<'static, T>>,
    /// The operator-wide panel/factor store, when built with
    /// [`StorageConfig::File`].
    store: Option<Arc<FilePanelStore>>,
}

// Compile-time proof of the serving contract: the handle is shareable.
const _: () = {
    const fn assert_send_sync<X: Send + Sync>() {}
    assert_send_sync::<GofmmOperator<f32>>();
    assert_send_sync::<GofmmOperator<f64>>();
};

impl<T: Scalar> GofmmOperator<T> {
    /// Start building an operator over `matrix` (any entry-evaluable SPD
    /// matrix). The matrix is only read during [`GofmmOperatorBuilder::build`];
    /// the finished operator serves requests without touching it.
    pub fn builder<M: SpdMatrix<T> + ?Sized>(matrix: &M) -> GofmmOperatorBuilder<'_, T, M> {
        GofmmOperatorBuilder {
            matrix,
            config: GofmmConfig::default(),
            lambda: None,
            storage: StorageConfig::InMemory,
            tune: None,
            _scalar: PhantomData,
        }
    }

    /// Matrix dimension `N`.
    pub fn n(&self) -> usize {
        self.comp.n()
    }

    /// The shared compressed representation behind this handle: the tree,
    /// the lists and the bases. It holds no block values; each interaction
    /// block is held once, in the evaluator's panels.
    pub fn compressed(&self) -> &Compressed<T> {
        &self.comp
    }

    /// The persistent evaluator serving [`GofmmOperator::apply`].
    pub fn evaluator(&self) -> &Evaluator<'static, T> {
        &self.evaluator
    }

    /// The backward-stable ULV factorization serving
    /// [`GofmmOperator::solve`] and preconditioning
    /// [`GofmmOperator::solve_cg`], if the operator was built with
    /// [`GofmmOperatorBuilder::factorize`].
    pub fn ulv_factor(&self) -> Option<&UlvFactor<'static, T>> {
        self.factor.as_ref()
    }

    /// The out-of-core panel/factor store behind this operator, when it was
    /// built with [`StorageConfig::File`].
    pub fn store(&self) -> Option<&Arc<FilePanelStore>> {
        self.store.as_ref()
    }

    /// Fault/hit/eviction counters and resident-byte gauges of the
    /// operator-wide store, when one was built.
    pub fn store_stats(&self) -> Option<StoreStatsSnapshot> {
        self.store.as_ref().map(|s| s.stats())
    }

    /// Swap every panel and ULV factor node whose key exists in `store` for
    /// an out-of-core locator (see [`Evaluator::attach_store`] and
    /// [`UlvFactor::attach_store`]).
    fn attach_store(&mut self, store: &Arc<FilePanelStore>) {
        self.evaluator.attach_store(store);
        if let Some(f) = &mut self.factor {
            f.attach_store(store);
        }
    }

    /// The regularization `lambda` of the factorization, if one was built.
    pub fn lambda(&self) -> Option<f64> {
        self.factor.as_ref().map(|f| f.lambda())
    }

    /// Storage precision of the evaluator's packed panels, taken from
    /// [`GofmmConfig::panel_precision`] at build time.
    /// [`PanelPrecision::MixedF32`] stores the panels in `f32` (halving the
    /// serving footprint of an `f64` operator) while every apply still
    /// accumulates in the operator precision; factorizations are unaffected.
    pub fn panel_precision(&self) -> PanelPrecision {
        self.evaluator.panel_precision()
    }

    /// Sparsify the packed panels in place under `budget` (see
    /// [`Evaluator::tune`]). Requires in-memory panels: an operator built
    /// with [`StorageConfig::File`] already spilled and must be tuned at
    /// build time via [`GofmmOperatorBuilder::tune`] instead.
    pub fn tune(&mut self, budget: &AccuracyBudget) -> Result<TuneStats, Error> {
        self.evaluator.tune(budget)
    }

    /// The committed [`TuneStats`] of the last accepted tune, if any.
    pub fn tune_stats(&self) -> Option<&TuneStats> {
        self.evaluator.tune_stats()
    }

    /// Matvec `u ≈ K w` from cached state (zero kernel evaluations).
    pub fn apply(&self, w: &DenseMatrix<T>) -> Result<DenseMatrix<T>, Error> {
        self.evaluator.apply(w).map(|(u, _)| u)
    }

    /// Matvec with per-call policy/thread overrides, returning the
    /// per-evaluation statistics as well.
    pub fn apply_with(
        &self,
        w: &DenseMatrix<T>,
        opts: &ApplyOptions,
    ) -> Result<(DenseMatrix<T>, EvaluationStats), Error> {
        self.evaluator.apply_with(w, opts)
    }

    /// Hierarchical direct solve `x ≈ (K_hss + lambda I)^{-1} b` (exact for
    /// pure-HSS compressions, a strong preconditioner otherwise), through
    /// the ULV factorization.
    ///
    /// # Errors
    /// [`Error::NoFactorization`] when the operator was built without
    /// [`GofmmOperatorBuilder::factorize`]; [`Error::DimensionMismatch`] when
    /// `b.rows() != n`.
    pub fn solve(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>, Error> {
        self.solve_with(b, &ApplyOptions::default())
    }

    /// Hierarchical direct solve with per-call policy/thread overrides.
    pub fn solve_with(
        &self,
        b: &DenseMatrix<T>,
        opts: &ApplyOptions,
    ) -> Result<DenseMatrix<T>, Error> {
        self.factor
            .as_ref()
            .ok_or(Error::NoFactorization)?
            .solve_with(b, opts)
    }

    /// Solve `(K~ + lambda I) x = b` by conjugate gradients: the compressed
    /// operator supplies the matvec, the hierarchical factorization the
    /// preconditioner — the paper's headline pipeline, on one handle.
    ///
    /// # Errors
    /// [`Error::NoFactorization`] when the operator was built without
    /// [`GofmmOperatorBuilder::factorize`]; [`Error::DimensionMismatch`] when
    /// `b.rows() != n`; [`Error::NonFiniteInput`] when `b` holds a NaN or
    /// infinite entry.
    pub fn solve_cg(
        &self,
        b: &DenseMatrix<T>,
        opts: &KrylovOptions,
    ) -> Result<(DenseMatrix<T>, SolveStats), Error> {
        let factor = self.factor.as_ref().ok_or(Error::NoFactorization)?;
        let shifted = Shifted::new(&self.evaluator, factor.lambda());
        cg(&shifted, factor, b, opts)
    }

    /// Publish a snapshot of this operator's resource state into `registry`.
    ///
    /// Registers (idempotently — repeated exports just refresh the values):
    ///
    /// - `gofmm_operator_panel_bytes` — bytes of packed interaction panels
    ///   held by the evaluator;
    /// - `gofmm_kernel_dispatch_level` — the process-wide dense-kernel
    ///   dispatch (0 = scalar, 1 = AVX2);
    /// - `gofmm_pool_apply_created` / `gofmm_pool_apply_recycled` — lease
    ///   traffic of the apply-workspace pool (fresh allocations vs reuses);
    /// - `gofmm_pool_solve_created` / `gofmm_pool_solve_recycled` — the
    ///   same for the factorization's solve-workspace pool, when one was
    ///   built;
    /// - `gofmm_tune_bytes_before` / `gofmm_tune_bytes_after` /
    ///   `gofmm_tune_blocks_dropped` / `gofmm_tune_panels_truncated` /
    ///   `gofmm_tune_measured_eps2` / `gofmm_tune_accepted` /
    ///   `gofmm_tune_rejected` / `gofmm_tune_seconds` — the committed
    ///   [`TuneStats`], when the operator was tuned under an
    ///   [`AccuracyBudget`].
    ///
    /// Call it after a serving interval (or on a scrape) to refresh the
    /// gauges; the batched server's own counters update live instead via
    /// [`crate::ServeConfig::with_metrics`].
    pub fn export_metrics(&self, registry: &gofmm_telemetry::MetricsRegistry) {
        registry
            .gauge(
                "gofmm_operator_panel_bytes",
                "Bytes of packed interaction panels held by the evaluator",
            )
            .set(self.evaluator.cached_bytes() as f64);
        let level = match gofmm_linalg::simd_level() {
            gofmm_linalg::SimdLevel::Scalar => 0.0,
            gofmm_linalg::SimdLevel::Avx2 => 1.0,
        };
        registry
            .gauge(
                "gofmm_kernel_dispatch_level",
                "Dense-kernel instruction-set dispatch (0 = scalar, 1 = avx2)",
            )
            .set(level);
        let (created, recycled) = self.evaluator.pool_lease_stats();
        registry
            .gauge(
                "gofmm_pool_apply_created",
                "Apply-workspace pool checkouts that allocated a fresh workspace",
            )
            .set(created as f64);
        registry
            .gauge(
                "gofmm_pool_apply_recycled",
                "Apply-workspace pool checkouts that reused a shelved workspace",
            )
            .set(recycled as f64);
        if let Some(f) = &self.factor {
            let (created, recycled) = f.pool_lease_stats();
            registry
                .gauge(
                    "gofmm_pool_solve_created",
                    "Solve-workspace pool checkouts that allocated a fresh workspace",
                )
                .set(created as f64);
            registry
                .gauge(
                    "gofmm_pool_solve_recycled",
                    "Solve-workspace pool checkouts that reused a shelved workspace",
                )
                .set(recycled as f64);
        }
        if let Some(ts) = self.evaluator.tune_stats() {
            registry
                .gauge(
                    "gofmm_tune_bytes_before",
                    "Resident panel bytes before the accepted tune",
                )
                .set(ts.bytes_before as f64);
            registry
                .gauge(
                    "gofmm_tune_bytes_after",
                    "Resident panel bytes after the accepted tune",
                )
                .set(ts.bytes_after as f64);
            registry
                .gauge(
                    "gofmm_tune_blocks_dropped",
                    "Far interaction blocks dropped by the accepted tune",
                )
                .set(ts.blocks_dropped as f64);
            registry
                .gauge(
                    "gofmm_tune_panels_truncated",
                    "Panels replaced by low-rank pairs in the accepted tune",
                )
                .set(ts.panels_truncated as f64);
            registry
                .gauge(
                    "gofmm_tune_measured_eps2",
                    "Sampled relative error of the accepted tuned state",
                )
                .set(ts.measured_eps2);
            registry
                .gauge(
                    "gofmm_tune_accepted",
                    "Candidate states accepted by the tuning search",
                )
                .set(ts.accepted as f64);
            registry
                .gauge(
                    "gofmm_tune_rejected",
                    "Candidate states measured and rejected by the tuning search",
                )
                .set(ts.rejected as f64);
            registry
                .gauge(
                    "gofmm_tune_seconds",
                    "Wall-clock seconds of the tuning search that committed",
                )
                .set(ts.time);
        }
        if let Some(store) = &self.store {
            let s = store.stats();
            registry
                .gauge(
                    "gofmm_store_faults_total",
                    "Panel-store lookups that missed the resident set and read from disk",
                )
                .set(s.faults as f64);
            registry
                .gauge(
                    "gofmm_store_evictions_total",
                    "Panel-store blobs evicted to stay under the resident budget",
                )
                .set(s.evictions as f64);
            registry
                .gauge(
                    "gofmm_store_resident_bytes",
                    "Decoded bytes currently held in the panel store's resident set",
                )
                .set(s.resident_bytes as f64);
            registry
                .gauge(
                    "gofmm_store_peak_resident_bytes",
                    "High-water mark of the panel store's resident bytes",
                )
                .set(s.peak_resident_bytes as f64);
        }
    }
}

impl<T: Scalar> LinearOperator<T> for GofmmOperator<T> {
    fn dim(&self) -> usize {
        self.n()
    }
    fn matvec(&self, x: &DenseMatrix<T>) -> Result<DenseMatrix<T>, Error> {
        self.apply(x)
    }
}

/// Builder of a [`GofmmOperator`]; see [`GofmmOperator::builder`].
pub struct GofmmOperatorBuilder<'m, T: Scalar, M: ?Sized> {
    matrix: &'m M,
    config: GofmmConfig,
    lambda: Option<f64>,
    storage: StorageConfig,
    tune: Option<AccuracyBudget>,
    _scalar: PhantomData<T>,
}

impl<'m, T: Scalar, M: SpdMatrix<T> + ?Sized> GofmmOperatorBuilder<'m, T, M> {
    /// Use this compression configuration (defaults to
    /// [`GofmmConfig::default`]).
    pub fn config(mut self, config: GofmmConfig) -> Self {
        self.config = config;
        self
    }

    /// Also build the hierarchical factorization of `K + lambda I`, enabling
    /// [`GofmmOperator::solve`] and [`GofmmOperator::solve_cg`] through the
    /// backward-stable [`UlvFactor`].
    pub fn factorize(mut self, lambda: f64) -> Self {
        self.lambda = Some(lambda);
        self
    }

    /// Sparsify the packed panels to the given [`AccuracyBudget`] right
    /// after packing (see [`Evaluator::tune`]): far blocks below the
    /// accepted norm threshold are dropped and the surviving S2S/L2L
    /// panels rank-truncated, with every candidate state measured against
    /// a pre-tune reference apply and committed only when its sampled ε₂
    /// fits the budget. Tuning runs *before* any [`StorageConfig::File`]
    /// spill, so a file-backed operator persists the tuned panels.
    /// Factorizations are built from the untuned compression and are
    /// unaffected.
    pub fn tune(mut self, budget: AccuracyBudget) -> Self {
        self.tune = Some(budget);
        self
    }

    /// Where the built operator's bulk state lives (defaults to
    /// [`StorageConfig::InMemory`]). With [`StorageConfig::File`] the
    /// builder persists every packed interaction panel — and every per-node
    /// factor block — into
    /// `<dir>/operator.gfmm` and serves them *out of core* through an LRU
    /// resident set bounded by `resident_budget` decoded bytes, so an
    /// operator larger than RAM still applies and solves with bounded
    /// resident memory. File-backed applies and solves are bit-identical to
    /// in-memory ones under every traversal policy.
    pub fn storage(mut self, storage: StorageConfig) -> Self {
        self.storage = storage;
        self
    }

    /// Compress the matrix, pack the evaluator, and (when requested) factor
    /// `K + lambda I` — everything the handle will ever need from the
    /// matrix; serving is kernel-free afterwards.
    ///
    /// # Errors
    /// Everything [`try_compress`] reports (empty input, invalid
    /// configuration, non-finite diagonal) plus the factorization
    /// errors ([`Error::NotPositiveDefinite`], [`Error::SingularCore`]).
    pub fn build(self) -> Result<GofmmOperator<T>, Error> {
        let comp = Arc::new(try_compress(self.matrix, &self.config)?);
        let evaluator = Evaluator::new(self.matrix, Arc::clone(&comp));
        let factor = self
            .lambda
            .map(|l| UlvFactor::new(self.matrix, Arc::clone(&comp), l))
            .transpose()?;
        let mut op = GofmmOperator {
            comp,
            evaluator,
            factor,
            store: None,
        };
        // Tune before any spill so the store persists the tuned panels and
        // the freed storage never hits the file.
        if let Some(budget) = &self.tune {
            op.evaluator.tune(budget)?;
        }
        if let StorageConfig::File {
            dir,
            resident_budget,
        } = &self.storage
        {
            std::fs::create_dir_all(dir).map_err(|e| Error::Storage {
                message: format!("create storage dir {}: {e}", dir.display()),
            })?;
            let path = dir.join("operator.gfmm");
            let mut writer = StoreWriter::create(&path)?;
            op.evaluator.write_to(&mut writer)?;
            if let Some(f) = &op.factor {
                f.write_to(&mut writer)?;
            }
            writer.finish()?;
            let store = Arc::new(FilePanelStore::open(&path, *resident_budget)?);
            op.attach_store(&store);
            op.store = Some(store);
        }
        Ok(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::HierarchicalFactor;
    use gofmm_core::TraversalPolicy;
    use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_matrix(n: usize) -> KernelMatrix {
        KernelMatrix::new(
            PointCloud::uniform(n, 3, 42),
            KernelType::Gaussian { bandwidth: 1.0 },
            1e-6,
            "operator-test",
        )
    }

    fn config() -> GofmmConfig {
        GofmmConfig::default()
            .with_leaf_size(32)
            .with_max_rank(48)
            .with_tolerance(1e-9)
            .with_budget(0.0)
            .with_threads(2)
            .with_policy(TraversalPolicy::Sequential)
    }

    #[test]
    fn tune_gauges_export_the_committed_tune_stats() {
        let k = test_matrix(256);
        let op = GofmmOperator::<f64>::builder(&k)
            .config(config())
            .tune(AccuracyBudget::new(1e-3))
            .build()
            .unwrap();
        let ts = op.tune_stats().expect("1e-3 is attainable").clone();
        let registry = gofmm_telemetry::MetricsRegistry::new();
        op.export_metrics(&registry);
        let want = [
            ("gofmm_tune_bytes_before", ts.bytes_before as f64),
            ("gofmm_tune_bytes_after", ts.bytes_after as f64),
            ("gofmm_tune_blocks_dropped", ts.blocks_dropped as f64),
            ("gofmm_tune_panels_truncated", ts.panels_truncated as f64),
            ("gofmm_tune_measured_eps2", ts.measured_eps2),
            ("gofmm_tune_accepted", ts.accepted as f64),
            ("gofmm_tune_rejected", ts.rejected as f64),
            ("gofmm_tune_seconds", ts.time),
        ];
        let text = registry.prometheus_text();
        let exported: Vec<(&str, f64)> = text
            .lines()
            .filter(|line| line.starts_with("gofmm_tune_"))
            .map(|line| {
                let (name, value) = line.split_once(' ').unwrap();
                (name, value.parse().unwrap())
            })
            .collect();
        assert_eq!(exported.len(), want.len(), "{text}");
        for (name, value) in exported {
            let expect = want.iter().find(|(n, _)| *n == name);
            assert_eq!(
                expect.map(|(_, v)| v.to_bits()),
                Some(value.to_bits()),
                "{name}"
            );
        }
        assert!(ts.time > 0.0);
    }

    #[test]
    fn builder_without_factorize_applies_but_refuses_solves() {
        let n = 256;
        let k = test_matrix(n);
        let op = GofmmOperator::<f64>::builder(&k)
            .config(config())
            .build()
            .unwrap();
        assert_eq!(op.n(), n);
        assert!(op.ulv_factor().is_none());
        assert_eq!(op.lambda(), None);
        let mut rng = StdRng::seed_from_u64(50);
        let w = DenseMatrix::<f64>::random_gaussian(n, 2, &mut rng);
        // apply matches the classic pipeline bit-for-bit.
        let comp = gofmm_core::compress::<f64, _>(&k, &config());
        let (u_ref, _) = Evaluator::new(&k, &comp).apply(&w).unwrap();
        let u = op.apply(&w).unwrap();
        assert_eq!(u.data(), u_ref.data());
        // solves are a typed error, not a panic.
        assert_eq!(op.solve(&w), Err(Error::NoFactorization));
        assert!(matches!(
            op.solve_cg(&w, &KrylovOptions::default()),
            Err(Error::NoFactorization)
        ));
    }

    #[test]
    fn mixed_precision_operator_halves_panels_and_still_solves() {
        let n = 256;
        let k = test_matrix(n);
        let lambda = 1e-2;
        let native = GofmmOperator::<f64>::builder(&k)
            .config(config())
            .factorize(lambda)
            .build()
            .unwrap();
        let mixed = GofmmOperator::<f64>::builder(&k)
            .config(config().with_panel_precision(PanelPrecision::MixedF32))
            .factorize(lambda)
            .build()
            .unwrap();
        assert_eq!(native.panel_precision(), PanelPrecision::Native);
        assert_eq!(mixed.panel_precision(), PanelPrecision::MixedF32);
        assert!(
            mixed.evaluator().cached_bytes() * 2 <= native.evaluator().cached_bytes() + n * 64,
            "mixed {} vs native {}",
            mixed.evaluator().cached_bytes(),
            native.evaluator().cached_bytes()
        );
        // Applies agree at single-precision accuracy.
        let mut rng = StdRng::seed_from_u64(51);
        let w = DenseMatrix::<f64>::random_gaussian(n, 2, &mut rng);
        let u_native = native.apply(&w).unwrap();
        let u_mixed = mixed.apply(&w).unwrap();
        let mut num = 0.0;
        let mut den = 0.0;
        for c in 0..2 {
            for r in 0..n {
                let d = u_native.get(r, c) - u_mixed.get(r, c);
                num += d * d;
                den += u_native.get(r, c) * u_native.get(r, c);
            }
        }
        assert!(
            (num / den).sqrt() < 1e-5,
            "apply drift {}",
            (num / den).sqrt()
        );
        // The ULV factorization runs in full precision regardless of the
        // panel knob, and CG preconditioned by it still converges (matvec
        // residuals are measured against the mixed-storage operator).
        let b = DenseMatrix::<f64>::from_fn(n, 1, |i, _| ((i * 13 % 17) as f64) - 8.0);
        let opts = KrylovOptions {
            tol: 1e-6,
            ..KrylovOptions::default()
        };
        let (_, stats) = mixed.solve_cg(&b, &opts).unwrap();
        assert!(stats.converged, "residual {}", stats.relative_residual);
    }

    #[test]
    fn operator_solve_cg_converges_and_matches_manual_pipeline() {
        let n = 256;
        let k = test_matrix(n);
        let lambda = 1e-2;
        let op = GofmmOperator::<f64>::builder(&k)
            .config(config())
            .factorize(lambda)
            .build()
            .unwrap();
        assert_eq!(op.lambda(), Some(lambda));
        assert!(op.ulv_factor().is_some());
        let b = DenseMatrix::<f64>::from_fn(n, 1, |i, _| ((i * 13 % 17) as f64) - 8.0);
        let (x, stats) = op.solve_cg(&b, &KrylovOptions::default()).unwrap();
        assert!(stats.converged, "residual {}", stats.relative_residual);
        assert!(stats.iterations < 25);
        // Identical to the hand-composed ULV pipeline on the same
        // compression.
        let comp = op.compressed();
        let factor = UlvFactor::new(&k, comp, lambda).unwrap();
        let shifted = Shifted::new(op.evaluator(), lambda);
        let (x_ref, _) = cg(&shifted, &factor, &b, &KrylovOptions::default()).unwrap();
        assert_eq!(x.data(), x_ref.data());
    }

    #[test]
    fn smw_preconditioned_cg_on_the_operator_matches_manual_pipeline() {
        // The SMW factorization, built on the operator's own compression,
        // preconditions CG over the operator's evaluator exactly as it does
        // over a hand-composed pipeline.
        let n = 256;
        let k = test_matrix(n);
        let lambda = 1e-2;
        let op = GofmmOperator::<f64>::builder(&k)
            .config(config())
            .build()
            .unwrap();
        let smw = HierarchicalFactor::new(&k, op.compressed(), lambda).unwrap();
        let b = DenseMatrix::<f64>::from_fn(n, 1, |i, _| ((i * 13 % 17) as f64) - 8.0);
        let shifted = Shifted::new(op.evaluator(), lambda);
        let (x, stats) = cg(&shifted, &smw, &b, &KrylovOptions::default()).unwrap();
        assert!(stats.converged, "residual {}", stats.relative_residual);
        // Identical to the hand-composed SMW pipeline on a fresh compression.
        let comp = gofmm_core::compress::<f64, _>(&k, &config());
        let ev = Evaluator::new(&k, &comp);
        let factor = HierarchicalFactor::new(&k, &comp, lambda).unwrap();
        let shifted = Shifted::new(&ev, lambda);
        let (x_ref, _) = cg(&shifted, &factor, &b, &KrylovOptions::default()).unwrap();
        assert_eq!(x.data(), x_ref.data());
    }

    /// An SPD wrapper counting kernel-entry evaluations.
    struct CountingMatrix<'m> {
        inner: &'m KernelMatrix,
        entries: std::sync::atomic::AtomicU64,
    }

    impl CountingMatrix<'_> {
        /// Entries evaluated since the last call.
        fn take(&self) -> u64 {
            self.entries.swap(0, std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl SpdMatrix<f64> for CountingMatrix<'_> {
        fn n(&self) -> usize {
            SpdMatrix::<f64>::n(self.inner)
        }
        fn entry(&self, i: usize, j: usize) -> f64 {
            self.entries
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.entry(i, j)
        }
    }

    #[test]
    fn builder_evaluates_each_block_once_and_serves_kernel_free() {
        // Past compression, the build evaluates the evaluator's owner-layout
        // near panels and far panels plus the factor's leaf diagonal blocks
        // and sibling skeleton blocks, each once; applies and solves
        // evaluate nothing.
        let n = 384;
        let k = test_matrix(n);
        let counter = CountingMatrix {
            inner: &k,
            entries: std::sync::atomic::AtomicU64::new(0),
        };
        let cfg = config().with_budget(0.2);
        let comp = try_compress::<f64, _>(&counter, &cfg).unwrap();
        let compress_evals = counter.take();
        let (tree, lists) = (&comp.tree, &comp.lists);
        let len = |h: usize| tree.node(h).len as u64;
        let rank = |h: usize| comp.basis(h).map_or(0, |b| b.rank()) as u64;
        // The owner layout: a leaf's own block and those of its higher
        // near neighbours.
        let owned = |h: usize| {
            lists.near[h]
                .iter()
                .filter(|&&a| a >= h)
                .map(|&a| len(a))
                .sum::<u64>()
        };
        let near: u64 = tree.leaf_range().map(|h| len(h) * owned(h)).sum();
        let far: u64 = (0..tree.node_count())
            .map(|h| rank(h) * lists.far[h].iter().map(|&a| rank(a)).sum::<u64>())
            .sum();
        let factor: u64 = (0..tree.node_count())
            .map(|h| match tree.is_leaf(h) {
                true => len(h) * len(h),
                false => rank(tree.children(h).0) * rank(tree.children(h).1),
            })
            .sum();
        assert!(
            lists.near.iter().any(|l| l.len() > 1),
            "the lists must have off-diagonal near pairs"
        );

        let op = GofmmOperator::<f64>::builder(&counter)
            .config(cfg)
            .factorize(1e-2)
            .build()
            .unwrap();
        assert_eq!(counter.take(), compress_evals + near + far + factor);
        let mut rng = StdRng::seed_from_u64(54);
        let w = DenseMatrix::<f64>::random_gaussian(n, 3, &mut rng);
        op.apply(&w).unwrap();
        op.solve(&w).unwrap();
        op.solve_cg(&w, &KrylovOptions::default()).unwrap();
        assert_eq!(counter.take(), 0, "serving must stay kernel-free");
    }

    #[test]
    fn both_backends_direct_solve_the_hss_operator() {
        // With a pure-HSS compression both factorizations invert the
        // compressed operator; their solutions agree to roundoff (never
        // bit-for-bit: the algorithms differ).
        let n = 300;
        let k = test_matrix(n);
        let lambda = 1e-2;
        let ulv = GofmmOperator::<f64>::builder(&k)
            .config(config())
            .factorize(lambda)
            .build()
            .unwrap();
        let smw = HierarchicalFactor::new(&k, ulv.compressed(), lambda).unwrap();
        let b = DenseMatrix::<f64>::from_fn(n, 2, |i, j| (((i + 5 * j) % 13) as f64) - 6.0);
        let x_ulv = ulv.solve(&b).unwrap();
        let x_smw = smw.solve(&b).unwrap();
        // Both act as direct solvers of the same compressed operator; the
        // meaningful cross-backend property is the normwise backward error
        // eta = ||b - A x|| / (||A|| ||x|| + ||b||) (solutions themselves
        // may differ by kappa * resid on an ill-conditioned kernel). ULV is
        // backward stable; SMW is merely accurate at this mild lambda.
        let shifted = Shifted::new(ulv.evaluator(), lambda);
        let mut v = DenseMatrix::<f64>::from_fn(n, 1, |i, _| ((i % 3) as f64) - 1.0);
        let mut opnorm = 0.0f64;
        for _ in 0..3 {
            let av = shifted.matvec(&v).unwrap();
            opnorm = av.norm_fro() / v.norm_fro();
            let scale = 1.0 / av.norm_fro();
            v = av;
            v.scale(scale);
        }
        for (name, x, tol) in [("ulv", &x_ulv, 1e-12), ("smw", &x_smw, 1e-9)] {
            let resid = shifted.matvec(x).unwrap().sub(&b).norm_fro();
            let eta = resid / (opnorm * x.norm_fro() + b.norm_fro());
            assert!(eta < tol, "{name} backward error {eta}");
        }
    }

    #[test]
    fn operator_propagates_input_errors() {
        let n = 200;
        let k = test_matrix(n);
        let op = GofmmOperator::<f64>::builder(&k)
            .config(config())
            .factorize(1e-2)
            .build()
            .unwrap();
        let bad = DenseMatrix::<f64>::zeros(n - 1, 1);
        assert!(matches!(
            op.apply(&bad),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(matches!(
            op.solve(&bad),
            Err(Error::DimensionMismatch { .. })
        ));
        assert!(matches!(
            op.solve_cg(&bad, &KrylovOptions::default()),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn builder_surfaces_compression_and_factorization_errors() {
        let n = 128;
        let k = test_matrix(n);
        // Invalid config flows out of build() as a typed error.
        assert!(matches!(
            GofmmOperator::<f64>::builder(&k)
                .config(config().with_leaf_size(0))
                .build(),
            Err(Error::InvalidConfig { .. })
        ));
        // Hostile regularization reports the factorization failure.
        assert!(matches!(
            GofmmOperator::<f64>::builder(&k)
                .config(config())
                .factorize(-100.0)
                .build(),
            Err(Error::NotPositiveDefinite { .. })
        ));
    }
}
