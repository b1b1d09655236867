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
//! fixed, budget-independent aggressiveness ladder `τ_k = τ₀ · decay^k`,
//! most aggressive first. The first rung whose measured ε₂ fits the budget
//! is committed; every miss shrinks τ and tries again; the loop ends when
//! a rung produces no candidate moves at all (further shrinking can only
//! do less) or the attempt cap is hit — in which case the evaluator is
//! left bit-identical to its pre-tune state. Scanning one shared ladder
//! top-down is what makes tuned bytes monotone along a loosening budget:
//! a looser budget accepts at the same rung or an earlier (more
//! aggressive) one, never a later one.
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
use gofmm_linalg::{truncate_low_rank, DenseMatrix, LowRankFactors, QrOptions, Scalar};
use gofmm_telemetry::Stopwatch;

/// The contract [`Evaluator::tune`] must finish under: a sampled-ε₂ ceiling
/// plus the knobs of the accept/reject search.
///
/// ```
/// use gofmm_core::AccuracyBudget;
/// let budget = AccuracyBudget::new(1e-6).with_probes(16);
/// assert_eq!(budget.eps2, 1e-6);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct AccuracyBudget {
    /// Ceiling on the sampled relative error
    /// `‖u_tuned − u_ref‖_F / ‖u_ref‖_F` of the tuned apply against the
    /// pre-tune panels. Every *accepted* state measures at or below this.
    pub eps2: f64,
    /// Number of random probe right-hand sides in the ε₂ sample.
    pub probes: usize,
    /// Seed of the deterministic probe generator — same seed, same probes,
    /// same tuning decisions.
    pub seed: u64,
    /// Cap on measured candidates before the search gives up (rejecting
    /// cleanly). Budget-independent, so it never breaks byte monotonicity
    /// across budgets tuned with the same knobs.
    pub max_attempts: usize,
    /// Multiplicative shrink applied to the aggressiveness `τ` after every
    /// rejected candidate, in `(0, 1)`.
    pub decay: f64,
}

impl AccuracyBudget {
    /// A budget at the given ε₂ ceiling with default search knobs
    /// (8 probes, 48 attempts, decay 0.5).
    pub fn new(eps2: f64) -> Self {
        Self {
            eps2,
            probes: 8,
            seed: 0x5EED_7E57,
            max_attempts: 48,
            decay: 0.5,
        }
    }

    /// Override the probe count.
    pub fn with_probes(mut self, probes: usize) -> Self {
        self.probes = probes;
        self
    }

    /// Override the probe-generator seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override the attempt cap.
    pub fn with_max_attempts(mut self, max_attempts: usize) -> Self {
        self.max_attempts = max_attempts;
        self
    }

    /// Override the shrink-decay factor.
    pub fn with_decay(mut self, decay: f64) -> Self {
        self.decay = decay;
        self
    }
}

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
    /// Tuned evaluators keep every serving guarantee: applies remain
    /// bit-identical across all four traversal policies and any thread
    /// count, and tuned panels spill/reopen through
    /// [`Evaluator::spill_panels`] / [`Evaluator::write_to`] /
    /// [`Evaluator::open_from`] bit-identically.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] when the budget is malformed (`eps2` not
    /// positive and finite, zero probes, decay outside `(0, 1)`), or when
    /// a panel is already spilled (file-backed): tune *before* attaching a
    /// store.
    pub fn tune(&mut self, budget: &AccuracyBudget) -> Result<TuneStats, Error> {
        if !(budget.eps2.is_finite() && budget.eps2 > 0.0) {
            return Err(Error::InvalidConfig {
                what: "tune",
                constraint: "accuracy budget eps2 must be positive and finite",
            });
        }
        if budget.probes == 0 {
            return Err(Error::InvalidConfig {
                what: "tune",
                constraint: "accuracy budget needs at least one probe vector",
            });
        }
        if !(budget.decay > 0.0 && budget.decay < 1.0) {
            return Err(Error::InvalidConfig {
                what: "tune",
                constraint: "accuracy budget decay must lie in (0, 1)",
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
        let probes = probe_matrix::<T>(self.n(), budget.probes, budget.seed);
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

        let mut tau = TAU0;
        let mut committed = false;
        for _ in 0..budget.max_attempts {
            let edits = self.build_candidate(tau, global_scale, total_blocks);
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
            self.apply_edits(undo);
            tau *= budget.decay;
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

    /// Generate the candidate moves at aggressiveness `tau` against the
    /// current committed state: far-block drops below the norm threshold,
    /// then a rank truncation of every (possibly column-reduced) dense
    /// panel that actually shrinks its byte footprint. Panels already
    /// replaced by a low-rank pair in an earlier tune are left alone.
    fn build_candidate(
        &self,
        tau: f64,
        global_scale: f64,
        total_blocks: usize,
    ) -> Vec<PanelEdit<T>> {
        let thr = tau * global_scale / (total_blocks.max(1) as f64).sqrt();
        let comp = self.compressed();
        let rank_of = |alpha: usize| {
            comp.bases[alpha]
                .as_ref()
                .map(|b| b.rank())
                .unwrap_or_default()
        };
        let mut edits = Vec::new();
        for heap in 0..self.far.len() {
            let list = self.far_list(heap);
            let widths: Vec<usize> = list.iter().map(|&a| rank_of(a)).collect();
            edits.extend(match self.far[heap].dense() {
                Some(MatRef::Native(m)) => {
                    far_edit(heap, m, list, &widths, thr, tau, Values::Native)
                }
                Some(MatRef::Reduced(m)) => {
                    far_edit(heap, m, list, &widths, thr, tau, Values::Reduced)
                }
                None => None,
            });
        }
        for heap in 0..self.near.len() {
            let panel = match self.near[heap].dense() {
                Some(MatRef::Native(m)) => near_edit(m, tau, Values::Native),
                Some(MatRef::Reduced(m)) => near_edit(m, tau, Values::Reduced),
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

/// Column indices and surviving far-list entries after dropping every block
/// whose Frobenius norm is at or below `thr`; `None` when nothing drops.
fn drop_blocks<S: Scalar>(
    m: &DenseMatrix<S>,
    list: &[usize],
    widths: &[usize],
    thr: f64,
) -> Option<(DenseMatrix<S>, Vec<usize>, usize)> {
    let mut keep_cols = Vec::new();
    let mut new_list = Vec::new();
    let mut off = 0usize;
    let mut dropped = 0usize;
    for (i, &w) in widths.iter().enumerate() {
        let norm2: f64 = (off..off + w).map(|j| col_fro2(m, j)).sum();
        if norm2.sqrt() > thr {
            keep_cols.extend(off..off + w);
            new_list.push(list[i]);
        } else {
            dropped += 1;
        }
        off += w;
    }
    debug_assert_eq!(off, m.cols(), "far panel/list width mismatch");
    if dropped == 0 {
        None
    } else {
        Some((m.select_cols(&keep_cols), new_list, dropped))
    }
}

fn col_fro2<S: Scalar>(m: &DenseMatrix<S>, j: usize) -> f64 {
    m.col(j).iter().map(|v| v.to_f64() * v.to_f64()).sum()
}

/// What the rank truncation decided for one dense panel.
enum Trunc<S: Scalar> {
    /// Numerically zero at this tolerance: replace with nothing.
    Zero,
    /// A low-rank pair strictly smaller than the dense panel.
    Shrunk(Shape<DenseMatrix<S>>),
    /// Truncation would not shrink storage; keep the dense panel.
    Keep,
}

/// Rank-truncate a dense panel stored as `S`. The truncation runs in the
/// operator precision `T` and casts its factors back to the storage scalar
/// (the identity for native panels), so the measured ε₂ sees the exact panels
/// an accepted state would serve.
fn try_truncate<T: Scalar, S: Scalar>(m: &DenseMatrix<S>, tau: f64) -> Trunc<S> {
    let (rows, cols) = (m.rows(), m.cols());
    if rows == 0 || cols == 0 {
        return Trunc::Zero;
    }
    let lr: LowRankFactors<T> =
        truncate_low_rank(&m.cast(), QrOptions::adaptive(rows.min(cols), tau));
    if lr.rank() == 0 {
        Trunc::Zero
    } else if lr.stored_values() < rows * cols {
        Trunc::Shrunk(Shape::LowRank {
            left: lr.left.cast(),
            right: lr.right.cast(),
        })
    } else {
        Trunc::Keep
    }
}

/// Candidate edit for a far panel stored as `S` (`wrap` names the scalar
/// axis): block drops, selected on the stored values so kept values stay
/// bit-exact, then a rank truncation of what survives.
fn far_edit<T: Scalar, S: Scalar>(
    heap: usize,
    m: &DenseMatrix<S>,
    list: &[usize],
    widths: &[usize],
    thr: f64,
    tau: f64,
    wrap: impl Fn(Shape<DenseMatrix<S>>) -> Values<T>,
) -> Option<PanelEdit<T>> {
    let (sel, new_list, dropped) = match drop_blocks(m, list, widths, thr) {
        Some(d) => d,
        None => (m.clone(), list.to_vec(), 0),
    };
    let edit = |panel, list, dropped, truncated| PanelEdit {
        far: true,
        heap,
        panel,
        list: Some(list),
        dropped,
        truncated,
    };
    let all_dropped = || edit(Panel::Empty, Vec::new(), list.len(), false);
    if sel.cols() == 0 {
        return Some(all_dropped());
    }
    match try_truncate::<T, S>(&sel, tau) {
        Trunc::Zero => Some(all_dropped()),
        Trunc::Shrunk(pair) => Some(edit(Panel::owned(wrap(pair)), new_list, dropped, true)),
        Trunc::Keep if dropped == 0 => None,
        Trunc::Keep => Some(edit(
            Panel::owned(wrap(Shape::Dense(sel))),
            new_list,
            dropped,
            false,
        )),
    }
}

/// Candidate panel for a near (L2L) panel stored as `S`: rank truncation
/// only — near blocks are never dropped, so the panel's columns stay aligned
/// with the leaf's stacked near rows and its mirror rows.
fn near_edit<T: Scalar, S: Scalar>(
    m: &DenseMatrix<S>,
    tau: f64,
    wrap: impl Fn(Shape<DenseMatrix<S>>) -> Values<T>,
) -> Option<Panel<T>> {
    match try_truncate::<T, S>(m, tau) {
        Trunc::Shrunk(pair) => Some(Panel::owned(wrap(pair))),
        // A near panel starts with the SPD diagonal block `K_ββ`, so it is
        // never numerically zero; an emptied one would serve no mirror.
        Trunc::Zero | Trunc::Keep => None,
    }
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
        let b = AccuracyBudget::new(1e-4)
            .with_probes(3)
            .with_seed(9)
            .with_max_attempts(5)
            .with_decay(0.7);
        assert_eq!((b.probes, b.seed, b.max_attempts), (3, 9, 5));
        assert!((b.decay - 0.7).abs() < 1e-15);
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
