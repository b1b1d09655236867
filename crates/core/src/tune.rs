//! Adaptive panel sparsification under an explicit accuracy budget.
//!
//! [`Evaluator::tune`] trades serving bytes (and apply time) for accuracy
//! *after* compression, on the packed panels themselves: it drops far
//! blocks whose norm contributes nothing at the requested accuracy, and
//! rank-truncates the remaining S2S/L2L panels with the pivoted-QR
//! machinery in `gofmm-linalg`. Every candidate state is *measured* — a
//! sampled ε₂ against a reference apply taken from the untouched panels —
//! and only committed when the measurement fits the caller's
//! [`AccuracyBudget`], so a tuned evaluator can never finish above budget.
//!
//! The search is an accept/reject tightening loop with shrink-decay
//! backoff (the `compression_phase` shape): candidates are generated at a
//! fixed, budget-independent aggressiveness ladder `τ_k = τ₀ · 2^-k`,
//! most aggressive first. The first rung whose measured ε₂ fits the budget
//! is committed; every miss shrinks τ and tries again; the loop ends when
//! a rung produces no candidate moves at all (further shrinking can only
//! do less) or the attempt cap is hit — in which case the evaluator is
//! left bit-identical to its pre-tune state. Scanning one shared ladder
//! top-down is what makes tuned bytes monotone along a loosening budget:
//! a looser budget accepts at the same rung or an earlier (more
//! aggressive) one, never a later one.
//!
//! Each dense panel is factored once per call: the steps of a pivoted QR do
//! not depend on where it stops, so one [`PivotedQr`] per panel is advanced
//! down the ladder and every rung reads its truncation from it, with the
//! same bits a fresh factorization at that rung's `τ` gives. A far panel's
//! factorization covers the blocks the rung keeps and restarts only when
//! that set changes; a rejected rung's undo hands each candidate back, and
//! the next rung reuses it when the panel's rank did not move.
//!
//! The tuner edits the owner-layout panels as they are: each symmetric
//! pair of off-diagonal near blocks is stored once, in the lower heap
//! index's panel `[K_ββ | K_{β,owned}]`, so a near truncation replaces the
//! whole panel by one `left · right` pair that serves both the direct and
//! the mirror product. Every edit removes columns or swaps in a strictly
//! smaller pair, so an accepted state never stores more bytes.

use crate::config::ApplyOptions;
use crate::error::Error;
use crate::evaluate::Evaluator;
use crate::panel::{MatRef, Panel, Shape, Values};
use gofmm_linalg::{DenseMatrix, PivotedQr, QrOptions, Scalar};
use gofmm_telemetry::Stopwatch;

/// The contract [`Evaluator::tune`] must finish under: a sampled-ε₂
/// ceiling. The search itself is fixed: 8 deterministic probe vectors, at
/// most 48 measured candidates, `τ` halved after every miss.
///
/// ```
/// use gofmm_core::AccuracyBudget;
/// let budget = AccuracyBudget::new(1e-6);
/// assert_eq!(budget.eps2, 1e-6);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct AccuracyBudget {
    /// Ceiling on the sampled relative error
    /// `‖u_tuned − u_ref‖_F / ‖u_ref‖_F` of the tuned apply against the
    /// pre-tune panels. Every *accepted* state measures at or below this.
    pub eps2: f64,
}

impl AccuracyBudget {
    /// A budget at the given ε₂ ceiling.
    pub fn new(eps2: f64) -> Self {
        Self { eps2 }
    }
}

/// Number of random probe right-hand sides in the ε₂ sample.
const PROBES: usize = 8;

/// Seed of the deterministic probe generator: the same budget always
/// measures the same probes, hence makes the same tuning decisions.
const PROBE_SEED: u64 = 0x5EED_7E57;

/// Cap on measured candidates before the search gives up (rejecting
/// cleanly). Budget-independent, so it never breaks byte monotonicity
/// across budgets.
const MAX_ATTEMPTS: usize = 48;

/// Multiplicative shrink applied to the aggressiveness `τ` after every
/// rejected candidate.
const DECAY: f64 = 0.5;

/// Outcome of one [`Evaluator::tune`] run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TuneStats {
    /// Evaluator resident panel bytes before tuning.
    pub bytes_before: usize,
    /// Evaluator resident panel bytes after tuning (equal to `bytes_before`
    /// when every candidate was rejected).
    pub bytes_after: usize,
    /// Far interaction blocks dropped by the committed state.
    pub blocks_dropped: usize,
    /// Panels replaced by a rank-truncated low-rank pair.
    pub panels_truncated: usize,
    /// Sampled ε₂ of the committed state against the pre-tune reference;
    /// `0.0` when nothing was committed (the state *is* the reference).
    pub measured_eps2: f64,
    /// Candidate states accepted (0 or 1: the first fitting rung commits).
    pub accepted: usize,
    /// Candidate states measured and rejected before acceptance (or before
    /// giving up).
    pub rejected: usize,
    /// Wall-clock seconds of the whole tuning search.
    pub time: f64,
}

impl TuneStats {
    /// Bytes-saved factor `bytes_before / bytes_after` (1.0 when nothing
    /// shrank or the evaluator held no panel bytes).
    pub fn byte_reduction(&self) -> f64 {
        if self.bytes_after > 0 {
            self.bytes_before as f64 / self.bytes_after as f64
        } else {
            1.0
        }
    }

    /// True when a candidate state was committed.
    pub fn accepted_any(&self) -> bool {
        self.accepted > 0
    }
}

/// One panel replacement of a candidate state, reversible by re-applying
/// the displaced original.
struct PanelEdit<T: Scalar> {
    /// True for a far (S2S) panel, false for a near (L2L) panel.
    far: bool,
    heap: usize,
    panel: Panel<T>,
    /// Replacement effective far list when the edit dropped far blocks.
    list: Option<Vec<usize>>,
    /// Far blocks removed by this edit.
    dropped: usize,
    /// True when the edit replaced the panel with a low-rank pair.
    truncated: bool,
}

/// The starting rung of the aggressiveness ladder. Fixed (not derived from
/// the budget) so that every budget scans the same candidate sequence.
const TAU0: f64 = 0.25;

impl<T: Scalar> Evaluator<'_, T> {
    /// Sparsify this evaluator's packed panels until they just fit
    /// `budget`: drop small-norm far blocks and rank-truncate S2S/L2L
    /// panels, accepting the most aggressive candidate whose *measured*
    /// sampled ε₂ (against a reference apply taken from the current panels)
    /// stays at or below `budget.eps2`. See the [module docs](crate::tune)
    /// for the search shape.
    ///
    /// On acceptance the freed panel storage is released immediately
    /// ([`Evaluator::cached_bytes`] shrinks) and the committed
    /// [`TuneStats`] is reported by every subsequent apply through
    /// [`crate::EvaluationStats::tune`]. When no candidate fits — the
    /// budget is unattainable at this panel accuracy — the evaluator is
    /// left bit-identical to its pre-tune state and the returned stats
    /// show `accepted == 0`.
    ///
    /// The search factors each dense panel once and advances that
    /// factorization rung by rung (see the [module docs](crate::tune)), so
    /// for the duration of the call it holds one copy of every dense panel
    /// in the operator scalar `T` — twice the panel bytes for `f32` panels
    /// under an `f64` operator (≈ 11.8 MB against 5.9 MB on the
    /// `variants3d-n8k-ooc` benchmark operator) — plus the candidate panels
    /// of the last rejected rung. All of it is freed before `tune` returns.
    ///
    /// Tuned evaluators keep every serving guarantee: applies remain
    /// bit-identical across all four traversal policies and any thread
    /// count, and tuned panels spill/reopen through
    /// [`Evaluator::spill_panels`] / [`Evaluator::write_to`] /
    /// [`Evaluator::open_from`] bit-identically.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] when `eps2` is not positive and finite, or
    /// when a panel is already spilled (file-backed): tune *before*
    /// attaching a store.
    pub fn tune(&mut self, budget: &AccuracyBudget) -> Result<TuneStats, Error> {
        if !(budget.eps2.is_finite() && budget.eps2 > 0.0) {
            return Err(Error::InvalidConfig {
                what: "tune",
                constraint: "accuracy budget eps2 must be positive and finite",
            });
        }
        if self.far.iter().chain(&self.near).any(Panel::is_stored) {
            return Err(Error::InvalidConfig {
                what: "tune",
                constraint: "requires in-memory panels; tune before spilling to a store",
            });
        }

        let sw = Stopwatch::start();
        let mut stats = TuneStats {
            bytes_before: self.cached_bytes,
            bytes_after: self.cached_bytes,
            ..TuneStats::default()
        };

        // Reference apply from the untouched panels: tuning error is
        // measured against *this* state, not against the exact kernel, so
        // the budget bounds exactly the error tuning introduces.
        let probes = probe_matrix::<T>(self.n(), PROBES, PROBE_SEED);
        let opts = ApplyOptions::default();
        let (u_ref, _) = self.apply_with(&probes, &opts)?;
        let ref_norm = u_ref.norm_fro().to_f64();

        // Drop thresholds are relative to the pristine far-panel mass.
        let (global_scale, total_blocks) = self.far_panel_scale();

        // The effective far lists become evaluator-local the moment tuning
        // starts; restored to the shared compression lists if nothing
        // commits.
        let had_tuned_far = self.tuned_far.is_some();
        if !had_tuned_far {
            let lists = self.compressed().lists.far.clone();
            self.tuned_far = Some(lists);
        }

        let mut search = self.start_search();
        let mut tau = TAU0;
        let mut committed = false;
        for _ in 0..MAX_ATTEMPTS {
            let thr = tau * global_scale / (total_blocks.max(1) as f64).sqrt();
            let edits = self.build_candidate(&mut search, tau, thr);
            if edits.is_empty() {
                // No move fires at this aggressiveness; shrinking τ only
                // selects fewer moves. Give up cleanly.
                break;
            }
            let dropped: usize = edits.iter().map(|e| e.dropped).sum();
            let truncated = edits.iter().filter(|e| e.truncated).count();
            let undo = self.apply_edits(edits);
            let (u_cand, _) = self.apply_with(&probes, &opts)?;
            let diff = u_cand.sub(&u_ref).norm_fro().to_f64();
            let eps2 = if ref_norm > 0.0 {
                diff / ref_norm
            } else {
                diff
            };
            if eps2 <= budget.eps2 {
                stats.accepted = 1;
                stats.measured_eps2 = eps2;
                stats.blocks_dropped = dropped;
                stats.panels_truncated = truncated;
                committed = true;
                break;
            }
            stats.rejected += 1;
            search.hand_back(self.apply_edits(undo));
            tau *= DECAY;
        }

        if committed {
            self.recompute_cached_bytes();
            stats.bytes_after = self.cached_bytes;
            stats.time = sw.seconds();
            self.tune_stats = Some(stats.clone());
        } else {
            if !had_tuned_far {
                self.tuned_far = None;
            }
            stats.time = sw.seconds();
        }
        Ok(stats)
    }

    /// Frobenius mass of the far panels (`sqrt` of the summed squares) and
    /// the total far-block count — the scale the drop threshold is relative
    /// to. Computed from the current panels once per tune.
    fn far_panel_scale(&self) -> (f64, usize) {
        let mut sum2 = 0.0f64;
        for panel in &self.far {
            match panel.dense() {
                Some(MatRef::Native(m)) => sum2 += fro2(m),
                Some(MatRef::Reduced(m)) => sum2 += fro2(m),
                None => {}
            }
        }
        let blocks = (0..self.far.len()).map(|h| self.far_list(h).len()).sum();
        (sum2.sqrt(), blocks)
    }

    /// The per-panel state of one tune call: the norm of every far block of
    /// each dense far panel (taken once from the committed panels, which
    /// rejected rungs leave untouched), and no factorization yet.
    fn start_search(&self) -> Search<T> {
        let comp = self.compressed();
        let far = (0..self.far.len())
            .map(|heap| {
                let widths = self.far_list(heap).iter().map(|&alpha| {
                    comp.bases[alpha]
                        .as_ref()
                        .map(|b| b.rank())
                        .unwrap_or_default()
                });
                let blocks = match self.far[heap].dense() {
                    Some(MatRef::Native(m)) => block_norms(m, widths),
                    Some(MatRef::Reduced(m)) => block_norms(m, widths),
                    None => Vec::new(),
                };
                FarSearch { blocks, qr: None }
            })
            .collect();
        let near = self.near.iter().map(|_| None).collect();
        Search { far, near }
    }

    /// Generate the candidate moves at aggressiveness `tau` against the
    /// current committed state: far-block drops at or below the norm
    /// threshold `thr`, then a rank truncation of every (possibly
    /// column-reduced) dense panel that actually shrinks its byte
    /// footprint. Panels already replaced by a low-rank pair in an earlier
    /// tune are left alone.
    fn build_candidate(&self, search: &mut Search<T>, tau: f64, thr: f64) -> Vec<PanelEdit<T>> {
        let mut edits = Vec::new();
        for (heap, far) in search.far.iter_mut().enumerate() {
            let list = self.far_list(heap);
            edits.extend(match self.far[heap].dense() {
                Some(MatRef::Native(m)) => far_edit(heap, m, list, far, thr, tau, Values::Native),
                Some(MatRef::Reduced(m)) => far_edit(heap, m, list, far, thr, tau, Values::Reduced),
                None => None,
            });
        }
        for (heap, qr) in search.near.iter_mut().enumerate() {
            let panel = match self.near[heap].dense() {
                Some(MatRef::Native(m)) => near_edit(m, qr, tau, Values::Native),
                Some(MatRef::Reduced(m)) => near_edit(m, qr, tau, Values::Reduced),
                None => None,
            };
            edits.extend(panel.map(|panel| PanelEdit {
                far: false,
                heap,
                panel,
                list: None,
                dropped: 0,
                truncated: true,
            }));
        }
        edits
    }

    /// Swap `edits` into the evaluator, returning the displaced originals —
    /// re-applying the result rolls the state back exactly.
    fn apply_edits(&mut self, edits: Vec<PanelEdit<T>>) -> Vec<PanelEdit<T>> {
        let mut undo = Vec::with_capacity(edits.len());
        for edit in edits {
            let slot = if edit.far {
                &mut self.far[edit.heap]
            } else {
                &mut self.near[edit.heap]
            };
            let old_panel = std::mem::replace(slot, edit.panel);
            let old_list = edit.list.map(|list| {
                let lists = self
                    .tuned_far
                    .as_mut()
                    .expect("tune materializes the effective far lists first");
                std::mem::replace(&mut lists[edit.heap], list)
            });
            undo.push(PanelEdit {
                far: edit.far,
                heap: edit.heap,
                panel: old_panel,
                list: old_list,
                dropped: 0,
                truncated: false,
            });
        }
        undo
    }
}

/// Squared Frobenius norm accumulated in `f64`, whatever the storage scalar.
fn fro2<S: Scalar>(m: &DenseMatrix<S>) -> f64 {
    m.data().iter().map(|v| v.to_f64() * v.to_f64()).sum()
}

/// `(width, Frobenius norm)` of each block of columns of a far panel.
fn block_norms<S: Scalar>(
    m: &DenseMatrix<S>,
    widths: impl Iterator<Item = usize>,
) -> Vec<(usize, f64)> {
    let mut off = 0usize;
    let blocks = widths
        .map(|w| {
            let norm2: f64 = (off..off + w).map(|j| col_fro2(m, j)).sum();
            off += w;
            (w, norm2.sqrt())
        })
        .collect();
    debug_assert_eq!(off, m.cols(), "far panel/list width mismatch");
    blocks
}

fn col_fro2<S: Scalar>(m: &DenseMatrix<S>, j: usize) -> f64 {
    m.col(j).iter().map(|v| v.to_f64() * v.to_f64()).sum()
}

/// The per-panel state [`Evaluator::tune`] keeps across its rungs.
struct Search<T: Scalar> {
    far: Vec<FarSearch<T>>,
    /// The factorization of each dense near panel, from its first rung on.
    near: Vec<Option<PanelQr<T>>>,
}

impl<T: Scalar> Search<T> {
    /// Take back the candidate panels a rejected rung's undo displaced:
    /// each becomes its panel's spare.
    fn hand_back(&mut self, candidates: Vec<PanelEdit<T>>) {
        for c in candidates {
            let slot = if c.far {
                &mut self.far[c.heap].qr
            } else {
                &mut self.near[c.heap]
            };
            if let Some(qr) = slot {
                qr.spare = Some(c.panel);
            }
        }
    }
}

/// A dense far panel's state: its blocks, and the factorization of the
/// blocks the last rung kept (`None` before the first rung and after a rung
/// that dropped them all).
struct FarSearch<T: Scalar> {
    /// `(width, Frobenius norm)` of each block, in far-list order.
    blocks: Vec<(usize, f64)>,
    qr: Option<PanelQr<T>>,
}

/// One dense panel's pivoted QR in the operator precision `T`, advanced
/// rung by rung.
struct PanelQr<T: Scalar> {
    /// The far-list entries whose columns `qr` factors (empty for a near
    /// panel, which keeps all its columns).
    kept: Vec<usize>,
    qr: PivotedQr<T>,
    /// The smallest rank whose `left · right` pair stores at least as many
    /// values as the dense panel: truncations stop here, since no rank at
    /// or past it shrinks the panel.
    cap: usize,
    /// Rank of the candidate this panel last produced, and that candidate
    /// once a rejected rung handed it back.
    built: usize,
    spare: Option<Panel<T>>,
}

impl<T: Scalar> PanelQr<T> {
    fn new(kept: Vec<usize>, a: DenseMatrix<T>) -> Self {
        let (rows, cols) = (a.rows(), a.cols());
        Self {
            kept,
            qr: PivotedQr::new(a),
            cap: (rows * cols).div_ceil((rows + cols).max(1)),
            built: 0,
            spare: None,
        }
    }

    /// The rank a fresh truncation at relative tolerance `tau` keeps, or
    /// [`PanelQr::cap`] when that rank would not shrink the panel.
    fn rank(&mut self, tau: f64) -> usize {
        self.qr.advance(QrOptions::adaptive(self.cap, tau))
    }

    /// The candidate panel at rank `k`: the spare when it was built at `k`
    /// (the same factorization stopped at the same rank gives the same
    /// panel), `build` otherwise.
    fn candidate(&mut self, k: usize, build: impl FnOnce(&PivotedQr<T>) -> Panel<T>) -> Panel<T> {
        let spare = self.spare.take().filter(|_| self.built == k);
        self.built = k;
        spare.unwrap_or_else(|| build(&self.qr))
    }
}

/// The rank-`k` truncation of `qr`, cast back to the storage scalar (the
/// identity for native panels), so the measured ε₂ sees the exact panels an
/// accepted state would serve.
fn low_rank<T: Scalar, S: Scalar>(qr: &PivotedQr<T>, k: usize) -> Shape<DenseMatrix<S>> {
    let lr = qr.truncation(k);
    Shape::LowRank {
        left: lr.left.cast(),
        right: lr.right.cast(),
    }
}

/// Candidate edit for a far panel stored as `S` (`wrap` names the scalar
/// axis): block drops, selected on the stored values so kept values stay
/// bit-exact, then a rank truncation of what survives.
fn far_edit<T: Scalar, S: Scalar>(
    heap: usize,
    m: &DenseMatrix<S>,
    list: &[usize],
    far: &mut FarSearch<T>,
    thr: f64,
    tau: f64,
    wrap: impl Fn(Shape<DenseMatrix<S>>) -> Values<T>,
) -> Option<PanelEdit<T>> {
    let mut kept = Vec::new();
    let mut keep_cols = Vec::new();
    let mut off = 0usize;
    for (&alpha, &(width, norm)) in list.iter().zip(&far.blocks) {
        if norm > thr {
            kept.push(alpha);
            keep_cols.extend(off..off + width);
        }
        off += width;
    }
    let dropped = list.len() - kept.len();
    let edit = |panel, list, dropped, truncated| PanelEdit {
        far: true,
        heap,
        panel,
        list: Some(list),
        dropped,
        truncated,
    };
    if kept.is_empty() {
        far.qr = None;
        return Some(edit(Panel::Empty, Vec::new(), list.len(), false));
    }
    if far.qr.as_ref().map_or(true, |qr| qr.kept != kept) {
        let sel = DenseMatrix::from_fn(m.rows(), keep_cols.len(), |i, j| {
            T::from_f64(m.get(i, keep_cols[j]).to_f64())
        });
        far.qr = Some(PanelQr::new(kept, sel));
    }
    let qr = far.qr.as_mut().expect("factorization of the kept blocks");
    let k = qr.rank(tau);
    if k == 0 {
        // Numerically zero at this tolerance: replace with nothing.
        let panel = qr.candidate(0, |_| Panel::Empty);
        return Some(edit(panel, Vec::new(), list.len(), false));
    }
    let truncated = k < qr.cap;
    if !truncated && dropped == 0 {
        return None;
    }
    let panel = qr.candidate(k, |f| {
        Panel::owned(wrap(if truncated {
            low_rank(f, k)
        } else {
            Shape::Dense(m.select_cols(&keep_cols))
        }))
    });
    Some(edit(panel, qr.kept.clone(), dropped, truncated))
}

/// Candidate panel for a near (L2L) panel stored as `S`: rank truncation
/// only — near blocks are never dropped, so the panel's columns stay aligned
/// with the leaf's stacked near rows and its mirror rows.
fn near_edit<T: Scalar, S: Scalar>(
    m: &DenseMatrix<S>,
    qr: &mut Option<PanelQr<T>>,
    tau: f64,
    wrap: impl Fn(Shape<DenseMatrix<S>>) -> Values<T>,
) -> Option<Panel<T>> {
    let qr = qr.get_or_insert_with(|| PanelQr::new(Vec::new(), m.cast()));
    let k = qr.rank(tau);
    // A near panel starts with the SPD diagonal block `K_ββ`, so it is
    // never numerically zero; an emptied one would serve no mirror.
    if k == 0 || k == qr.cap {
        return None;
    }
    Some(qr.candidate(k, |f| Panel::owned(wrap(low_rank(f, k)))))
}

/// Deterministic probe matrix with entries in `[-1, 1)`: a pure function of
/// `(seed, element index)` through a splitmix64 scramble, so the same
/// budget always measures the same sample — independent of any RNG crate
/// and of call order.
fn probe_matrix<T: Scalar>(n: usize, cols: usize, seed: u64) -> DenseMatrix<T> {
    DenseMatrix::from_fn(n, cols, |i, j| {
        let idx = (j * n + i) as u64;
        let z = splitmix64(seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        T::from_f64(2.0 * unit - 1.0)
    })
}

fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_matrix_is_deterministic_and_bounded() {
        let a = probe_matrix::<f64>(64, 4, 7);
        let b = probe_matrix::<f64>(64, 4, 7);
        let c = probe_matrix::<f64>(64, 4, 8);
        assert_eq!(a.data(), b.data());
        assert_ne!(a.data(), c.data());
        assert!(a.data().iter().all(|v| (-1.0..1.0).contains(v)));
        // Not degenerate: values actually spread out.
        let mean: f64 = a.data().iter().sum::<f64>() / a.data().len() as f64;
        assert!(mean.abs() < 0.2, "probe mean {mean}");
    }

    #[test]
    fn budget_validation() {
        assert!(AccuracyBudget::new(1e-3).eps2 > 0.0);
    }

    #[test]
    fn byte_reduction_guards_zero() {
        let ts = TuneStats {
            bytes_before: 100,
            bytes_after: 0,
            ..TuneStats::default()
        };
        assert!((ts.byte_reduction() - 1.0).abs() < 1e-15);
        let ts = TuneStats {
            bytes_before: 300,
            bytes_after: 100,
            ..TuneStats::default()
        };
        assert!((ts.byte_reduction() - 3.0).abs() < 1e-12);
    }
}
