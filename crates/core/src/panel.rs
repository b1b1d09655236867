//! The interaction-panel storage model: what one node's cached `K` blocks
//! are, where they live, and the single kernel that multiplies them.
//!
//! In the paper S2S and L2L are one operation each — "multiply this node's
//! cached blocks by the stacked weights" (Algorithm 2.7). Serving added
//! three independent storage decisions on top, modelled here as three small
//! axes instead of one variant per combination:
//!
//! * **shape** ([`Shape`]) — one dense matrix, or the `left · right` pair a
//!   rank truncation ([`crate::Evaluator::tune`]) left behind;
//! * **storage scalar** ([`Values`] / [`MatRef`]) — the operator precision
//!   `T`, or the reduced [`Scalar::PanelScalar`] of
//!   [`PanelPrecision::MixedF32`];
//! * **residence** ([`Panel`]) — owned in memory, borrowed block by block
//!   from the compression's cache, or a locator into a [`FilePanelStore`].
//!
//! Residence is resolved *before* any arithmetic: a stored panel is faulted
//! in to the same [`View`] an in-memory panel exposes, and [`Panel::apply`]
//! runs one GEMM sequence on that view. [`MatRef::gemm_into`] is the only
//! place that picks `gemm` versus `gemm_mixed`; [`Shape::apply`] is the only
//! place that runs the two-GEMM low-rank product.

use crate::config::PanelPrecision;
use crate::error::Error;
use crate::evaluate::Evaluator;
use gofmm_linalg::blas::gemm_flops;
use gofmm_linalg::{gemm, gemm_cols, gemm_mixed, gemm_mixed_cols, DenseMatrix, Scalar, Transpose};
use gofmm_store::{classes, FilePanelStore, StoreWriter};
use std::ops::Range;
use std::sync::Arc;

/// Shape axis: one dense block matrix, or a rank-truncated pair with `left`
/// `m × k` and `right` `k × n` applied as `left * (right * v)`. `right`
/// keeps the dense panel's column structure (one block of columns per
/// interaction-list entry).
pub(crate) enum Shape<M> {
    Dense(M),
    LowRank { left: M, right: M },
}

impl<M> Shape<M> {
    pub(crate) fn as_ref(&self) -> Shape<&M> {
        match self {
            Shape::Dense(m) => Shape::Dense(m),
            Shape::LowRank { left, right } => Shape::LowRank { left, right },
        }
    }

    pub(crate) fn map<N>(self, mut f: impl FnMut(M) -> N) -> Shape<N> {
        match self {
            Shape::Dense(m) => Shape::Dense(f(m)),
            Shape::LowRank { left, right } => Shape::LowRank {
                left: f(left),
                right: f(right),
            },
        }
    }
}

/// Scalar axis, as a view of one stored matrix: values in the operator
/// precision, or in the reduced panel precision (upconverted during GEMM
/// packing, accumulated in `T`).
#[derive(Clone, Copy)]
pub(crate) enum MatRef<'m, T: Scalar> {
    Native(&'m DenseMatrix<T>),
    Reduced(&'m DenseMatrix<T::PanelScalar>),
}

impl<T: Scalar> MatRef<'_, T> {
    fn dims(self) -> (usize, usize) {
        match self {
            MatRef::Native(m) => (m.rows(), m.cols()),
            MatRef::Reduced(m) => (m.rows(), m.cols()),
        }
    }

    fn bytes(self) -> usize {
        let (rows, cols) = self.dims();
        let scalar = match self {
            MatRef::Native(_) => std::mem::size_of::<T>(),
            MatRef::Reduced(_) => std::mem::size_of::<T::PanelScalar>(),
        };
        rows * cols * scalar
    }

    /// `out = self * v + beta * out`, accumulated in `T`.
    fn gemm_into(self, v: &DenseMatrix<T>, beta: T, out: &mut DenseMatrix<T>) {
        match self {
            MatRef::Native(m) => gemm(T::one(), m, Transpose::No, v, Transpose::No, beta, out),
            MatRef::Reduced(m) => gemm_mixed(T::one(), m, v, beta, out),
        }
    }

    /// `out = self[:, cols]^T * v + beta * out`, accumulated in `T`: a
    /// column block of the stored matrix multiplied transposed, in place.
    fn gemm_t_cols_into(
        self,
        cols: Range<usize>,
        v: &DenseMatrix<T>,
        beta: T,
        out: &mut DenseMatrix<T>,
    ) {
        let (one, yes) = (T::one(), Transpose::Yes);
        match self {
            MatRef::Native(m) => gemm_cols(one, m, cols, yes, v, beta, out),
            MatRef::Reduced(m) => gemm_mixed_cols(one, m, cols, yes, v, beta, out),
        }
    }

    fn put(self, writer: &mut StoreWriter, class: u16, node: u32) -> Result<(), Error> {
        match self {
            MatRef::Native(m) => writer.put(class, node, m),
            MatRef::Reduced(m) => writer.put(class, node, m),
        }
        .map_err(Error::from)
    }
}

/// A panel resolved to memory: what every arithmetic and accounting path
/// works on, wherever the values were a moment ago.
pub(crate) type View<'m, T> = Shape<MatRef<'m, T>>;

impl<T: Scalar> View<'_, T> {
    /// Columns of the panel: the rows its right-hand side must stack.
    fn cols(&self) -> usize {
        match self {
            Shape::Dense(m) | Shape::LowRank { right: m, .. } => m.dims().1,
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            Shape::Dense(m) | Shape::LowRank { left: m, .. } => {
                let (rows, cols) = m.dims();
                rows == 0 || cols == 0
            }
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Shape::Dense(m) => m.bytes(),
            Shape::LowRank { left, right } => left.bytes() + right.bytes(),
        }
    }

    /// `out += panel * v`; returns the flops spent. The fixed GEMM order
    /// keeps every shape bit-identical across traversal policies and thread
    /// counts.
    fn apply(&self, v: &DenseMatrix<T>, out: &mut DenseMatrix<T>) -> u64 {
        let r = v.cols();
        let flops = |m: MatRef<'_, T>| gemm_flops(m.dims().0, r, m.dims().1);
        match *self {
            Shape::Dense(m) => {
                m.gemm_into(v, T::one(), out);
                flops(m)
            }
            Shape::LowRank { left, right } => {
                let mut tmp = DenseMatrix::zeros(right.dims().0, r);
                right.gemm_into(v, T::zero(), &mut tmp);
                left.gemm_into(&tmp, T::one(), out);
                flops(right) + flops(left)
            }
        }
    }

    /// The mirror product of an owner-layout near panel `[K_ββ  K_{β,off}]`:
    /// `y = K_{β,off}^T w_β`, where `w_β` is the first `rows` rows of the
    /// stacked right-hand side `v` (the diagonal block's columns). Reads the
    /// off-diagonal columns in place, never the diagonal block; returns the
    /// flops spent.
    fn apply_mirror(&self, v: &DenseMatrix<T>, y: &mut DenseMatrix<T>) -> u64 {
        let rows = self.dense().dims().0;
        let fill =
            |buf: &mut Vec<T>| (0..v.cols()).for_each(|c| buf.extend_from_slice(&v.col(c)[..rows]));
        with_temp(rows, v.cols(), fill, |w| {
            self.apply_t_cols(rows..self.cols(), w, T::zero(), y)
        })
    }

    /// `y = self[:, cols]^T w + beta * y` over a dense panel; returns the
    /// flops spent.
    fn apply_t_cols(
        &self,
        cols: Range<usize>,
        w: &DenseMatrix<T>,
        beta: T,
        y: &mut DenseMatrix<T>,
    ) -> u64 {
        let flops = gemm_flops(cols.len(), w.cols(), w.rows());
        self.dense().gemm_t_cols_into(cols, w, beta, y);
        flops
    }

    fn dense(&self) -> MatRef<'_, T> {
        match *self {
            Shape::Dense(m) => m,
            Shape::LowRank { .. } => unreachable!("owner-layout near panels are dense"),
        }
    }

    /// Write the panel under `class` (dense) or its left/right companion
    /// classes (low-rank), so a reopened store can tell the shapes apart.
    fn spill(&self, writer: &mut StoreWriter, class: u16, node: u32) -> Result<(), Error> {
        match *self {
            Shape::Dense(m) => m.put(writer, class, node),
            Shape::LowRank { left, right } => {
                let (left_class, right_class) = pair_classes(class);
                left.put(writer, left_class, node)?;
                right.put(writer, right_class, node)
            }
        }
    }
}

/// Scalar axis, owned: a panel's values in one storage precision (so both
/// factors of a low-rank pair always share it).
pub(crate) enum Values<T: Scalar> {
    Native(Shape<DenseMatrix<T>>),
    Reduced(Shape<DenseMatrix<T::PanelScalar>>),
}

impl<T: Scalar> Values<T> {
    /// Wrap a freshly packed dense panel in the configured storage
    /// precision: native keeps `T`, mixed downcasts the stored values.
    pub(crate) fn dense(mat: DenseMatrix<T>, precision: PanelPrecision) -> Self {
        match precision {
            PanelPrecision::Native => Values::Native(Shape::Dense(mat)),
            PanelPrecision::MixedF32 => Values::Reduced(Shape::Dense(mat.cast())),
        }
    }

    pub(crate) fn view(&self) -> View<'_, T> {
        match self {
            Values::Native(shape) => shape.as_ref().map(MatRef::Native),
            Values::Reduced(shape) => shape.as_ref().map(MatRef::Reduced),
        }
    }
}

/// Residence axis: one node's interaction blocks, wherever they live.
///
/// `Owned` is the persistent fast path — all blocks concatenated side by
/// side, so S2S / L2L are one GEMM each. `Blocks` is the zero-copy one-shot
/// path: the cached per-interaction blocks are borrowed straight from the
/// [`crate::Compressed`] and multiplied one GEMM per block. Both are
/// bit-identical across traversal policies; they differ from *each other*
/// in the last bits, because a packed panel accumulates over one long inner
/// dimension while the borrowed path adds one block's product at a time.
pub(crate) enum Panel<'a, T: Scalar> {
    /// No interaction blocks for this node.
    Empty,
    /// Packed values held in memory.
    Owned(Values<T>),
    /// Blocks borrowed from the compression's cache, in interaction-list
    /// order.
    Blocks(&'a [DenseMatrix<T>]),
    /// The packed values live in a [`FilePanelStore`] and are faulted in per
    /// apply behind the store's LRU resident set (the out-of-core path).
    Stored(StoredPanel),
}

/// Locator of a panel spilled to a [`FilePanelStore`].
pub(crate) struct StoredPanel {
    store: Arc<FilePanelStore>,
    class: u16,
    node: u32,
    /// True when the spilled values are [`Scalar::PanelScalar`]s; decides the
    /// decoded matrix type at fault time.
    reduced: bool,
    /// True when the spilled panel is a low-rank pair: the values live under
    /// the companion left/right classes instead of `class` itself.
    lowrank: bool,
    /// Decoded panel bytes (the panel is on disk and does not count toward
    /// the evaluator's resident bytes).
    bytes: usize,
}

/// The store classes holding the `(left, right)` factors of a low-rank panel
/// spilled from the dense panel class `class` (far or near).
fn pair_classes(class: u16) -> (u16, u16) {
    match class {
        classes::S2S => (classes::S2S_LEFT, classes::S2S_RIGHT),
        classes::L2L => (classes::L2L_LEFT, classes::L2L_RIGHT),
        other => unreachable!("no low-rank companions for panel class {other}"),
    }
}

impl StoredPanel {
    /// Fault the panel's matrices in (or hit the store's resident set).
    fn fault<S: Scalar>(&self) -> Shape<Arc<DenseMatrix<S>>> {
        if self.lowrank {
            let (left, right) = pair_classes(self.class);
            Shape::LowRank {
                left: self.fault_class(left),
                right: self.fault_class(right),
            }
        } else {
            Shape::Dense(self.fault_class(self.class))
        }
    }

    /// # Panics
    /// On a storage failure. Apply tasks run on DAG worker threads with no
    /// error channel; a read error on a store file that was validated at
    /// open time is an environment failure (file deleted / device gone),
    /// reported like any other internal invariant violation.
    fn fault_class<S: Scalar>(&self, class: u16) -> Arc<DenseMatrix<S>> {
        match self.store.get::<DenseMatrix<S>>(class, self.node) {
            Ok(panel) => panel,
            Err(e) => panic!(
                "out-of-core panel fault failed mid-apply (class {class}, node {}): {e}",
                self.node
            ),
        }
    }
}

impl<T: Scalar> Panel<'_, T> {
    /// A locator for `(class, heap)` if `store` holds it — as a dense blob
    /// or as a low-rank pair under the companion classes — and
    /// [`Panel::Empty`] otherwise (nodes without interactions spill nothing).
    pub(crate) fn stored(
        store: &Arc<FilePanelStore>,
        class: u16,
        heap: usize,
        reduced: bool,
    ) -> Self {
        let node = heap as u32;
        // A DenseMatrix blob is a 17-byte header (1-byte scalar width, two
        // u64 dimensions) followed by the raw values, so the decoded panel
        // footprint is the blob length minus the header.
        let values = |class: u16| Some((store.blob_len(class, node)? as usize).saturating_sub(17));
        let pair = || {
            let (left, right) = pair_classes(class);
            Some(values(left)? + values(right)?)
        };
        let (lowrank, bytes) = if let Some(bytes) = values(class) {
            (false, bytes)
        } else if let Some(bytes) = pair() {
            (true, bytes)
        } else {
            return Panel::Empty;
        };
        Panel::Stored(StoredPanel {
            store: Arc::clone(store),
            class,
            node,
            reduced,
            lowrank,
            bytes,
        })
    }

    pub(crate) fn is_empty(&self) -> bool {
        match self {
            Panel::Empty => true,
            Panel::Owned(values) => values.view().is_empty(),
            Panel::Blocks(b) => b.is_empty(),
            // Only non-empty panels are ever spilled.
            Panel::Stored(_) => false,
        }
    }

    /// Bytes of block values read through this panel on every apply,
    /// wherever they live (resident or on disk).
    pub(crate) fn bytes(&self) -> usize {
        match self {
            Panel::Empty => 0,
            Panel::Owned(values) => values.view().bytes(),
            Panel::Blocks(b) => b.iter().map(|m| MatRef::<T>::Native(m).bytes()).sum(),
            Panel::Stored(sp) => sp.bytes,
        }
    }

    /// Bytes this panel holds *resident in memory* — what
    /// [`Evaluator::cached_bytes`] accounts. Identical to [`Panel::bytes`]
    /// except for [`Panel::Stored`], whose values live on disk.
    pub(crate) fn resident_bytes(&self) -> usize {
        match self {
            Panel::Stored(_) => 0,
            other => other.bytes(),
        }
    }

    /// The stored matrix of an in-memory dense panel — the only kind
    /// [`Evaluator::tune`] edits.
    pub(crate) fn dense(&self) -> Option<MatRef<'_, T>> {
        match self {
            Panel::Owned(values) => match values.view() {
                Shape::Dense(m) => Some(m),
                Shape::LowRank { .. } => None,
            },
            _ => None,
        }
    }

    /// `out += panel * rhs`; returns the flops spent.
    ///
    /// A packed panel (owned, or stored and faulted in here) multiplies the
    /// whole right-hand side in one [`Shape::apply`]: `stacked(cols, mul)`
    /// must call `mul` with its `cols` rows stacked in panel column order.
    /// Borrowed blocks multiply one list entry at a time: `entry(i, mul)`
    /// must call `mul` with entry `i`'s rows.
    ///
    /// With `mirror`, the panel is an owner-layout near panel and the same
    /// call also runs its mirror product ([`View::apply_mirror`]) into
    /// `mirror`, on the values the direct product just read: a stored panel
    /// is faulted in once for both.
    pub(crate) fn apply(
        &self,
        stacked: impl FnOnce(usize, &mut dyn FnMut(&DenseMatrix<T>)),
        entry: impl Fn(usize, &mut dyn FnMut(&DenseMatrix<T>)),
        out: &mut DenseMatrix<T>,
        mut mirror: Option<&mut DenseMatrix<T>>,
    ) -> u64 {
        let packed = |view: View<'_, T>| {
            let mut flops = 0;
            stacked(view.cols(), &mut |v| {
                flops += view.apply(v, out);
                if let Some(y) = mirror.as_deref_mut() {
                    flops += view.apply_mirror(v, y);
                }
            });
            flops
        };
        match self {
            Panel::Empty => 0,
            Panel::Owned(values) => packed(values.view()),
            Panel::Stored(sp) if sp.reduced => {
                packed(sp.fault().as_ref().map(|m| MatRef::Reduced(m)))
            }
            Panel::Stored(sp) => packed(sp.fault().as_ref().map(|m| MatRef::Native(m))),
            Panel::Blocks(blocks) => {
                debug_assert!(mirror.is_none(), "borrowed panels keep the full layout");
                let mut flops = 0;
                for (i, block) in blocks.iter().enumerate() {
                    entry(i, &mut |v| {
                        flops += Shape::Dense(MatRef::Native(block)).apply(v, out)
                    });
                }
                flops
            }
        }
    }

    /// `y = panel[:, cols]^T w + beta * y` for an in-memory owner-layout
    /// near panel, read in place; returns the flops spent. How a leaf reads
    /// a block its owner stores, `K_{αβ} = K_{βα}^T`.
    pub(crate) fn apply_t_cols(
        &self,
        cols: Range<usize>,
        w: &DenseMatrix<T>,
        beta: T,
        y: &mut DenseMatrix<T>,
    ) -> u64 {
        let Panel::Owned(values) = self else {
            unreachable!("only in-memory owner panels are read by other leaves")
        };
        values.view().apply_t_cols(cols, w, beta, y)
    }

    pub(crate) fn is_stored(&self) -> bool {
        matches!(self, Panel::Stored(_))
    }

    /// Spill one owned packed panel (see [`Evaluator::spill_panels`]).
    fn spill(&self, writer: &mut StoreWriter, class: u16, heap: usize) -> Result<(), Error> {
        match self {
            Panel::Empty => Ok(()),
            Panel::Owned(values) => values.view().spill(writer, class, heap as u32),
            Panel::Blocks(_) | Panel::Stored(_) => Err(Error::InvalidConfig {
                what: "storage",
                constraint: "requires an evaluator with owned packed panels \
                             (not a borrowing or already file-backed one)",
            }),
        }
    }

    /// Swap an owned panel for its file-backed locator if `store` holds it.
    fn attach(&mut self, store: &Arc<FilePanelStore>, class: u16, heap: usize) {
        let Panel::Owned(values) = &*self else {
            return;
        };
        let node = heap as u32;
        let lowrank = matches!(values.view(), Shape::LowRank { .. });
        let present = if lowrank {
            let (left, right) = pair_classes(class);
            store.contains(left, node) && store.contains(right, node)
        } else {
            store.contains(class, node)
        };
        if present {
            *self = Panel::Stored(StoredPanel {
                store: Arc::clone(store),
                class,
                node,
                reduced: matches!(values, Values::Reduced(_)),
                lowrank,
                bytes: self.bytes(),
            });
        }
    }
}

/// Run `f` on a `rows x cols` matrix whose values `fill` appends, column
/// by column, to an empty vector taken from the calling thread's stash of
/// reusable buffers ([`Scalar::with_factor_scratch`]) and returned to it
/// afterwards. An apply task's stacked right-hand sides therefore allocate
/// nothing once its thread has seen the largest one.
pub(crate) fn with_temp<T: Scalar, R>(
    rows: usize,
    cols: usize,
    fill: impl FnOnce(&mut Vec<T>),
    f: impl FnOnce(&mut DenseMatrix<T>) -> R,
) -> R {
    let mut buf = T::with_factor_scratch(|stash| stash.pop()).unwrap_or_default();
    buf.clear();
    fill(&mut buf);
    let mut mat = DenseMatrix::from_vec(rows, cols, buf);
    let out = f(&mut mat);
    T::with_factor_scratch(|stash| stash.push(mat.into_vec()));
    out
}

impl<T: Scalar> Evaluator<'_, T> {
    /// Spill this evaluator's owned packed panels into `writer`: far panels
    /// under [`classes::S2S`], near panels under [`classes::L2L`], keyed by
    /// heap index. After the writer is finished and the file reopened as a
    /// [`FilePanelStore`], swap the in-memory panels out with
    /// [`Evaluator::attach_store`].
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] when a panel is borrowed
    /// ([`Evaluator::borrowing`]) or already file-backed — only owned packed
    /// panels can be spilled; [`Error::Storage`] on a write failure.
    pub fn spill_panels(&self, writer: &mut StoreWriter) -> Result<(), Error> {
        for (class, panels) in [(classes::S2S, &self.far), (classes::L2L, &self.near)] {
            for (heap, panel) in panels.iter().enumerate() {
                panel.spill(writer, class, heap)?;
            }
        }
        Ok(())
    }

    /// Swap every owned packed panel whose `(class, heap)` key exists in
    /// `store` for an out-of-core locator, freeing the in-memory copy.
    /// Subsequent applies fault those panels per task through the store's
    /// LRU resident set; because the spilled bytes are exact (IEEE bit
    /// patterns), file-backed applies are bit-identical to the in-memory
    /// evaluator under every traversal policy. Panels absent from the store
    /// (or borrowed) are left untouched, so one evaluator can mix resident
    /// and spilled nodes.
    pub fn attach_store(&mut self, store: &Arc<FilePanelStore>) {
        for (class, panels) in [
            (classes::S2S, &mut self.far),
            (classes::L2L, &mut self.near),
        ] {
            for (heap, panel) in panels.iter_mut().enumerate() {
                panel.attach(store, class, heap);
            }
        }
        // Swapped-out panels no longer occupy memory; keep the resident-bytes
        // accounting honest.
        self.recompute_cached_bytes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROWS: usize = 24;
    const RANK: usize = 5;
    /// Column widths of the three interaction-list entries.
    const WIDTHS: [usize; 3] = [7, 4, 9];
    const COLS: usize = 20;
    const R: usize = 3;

    fn mat(rows: usize, cols: usize, salt: usize) -> DenseMatrix<f64> {
        DenseMatrix::from_fn(rows, cols, |i, j| {
            ((i * 37 + j * 11 + salt * 101) % 89) as f64 / 13.0 - 3.0
        })
    }

    /// The panel values of one (shape, scalar) combination, plus the
    /// explicit GEMM sequence and byte count the pre-refactor variant
    /// (`Packed` / `Mixed` / `LowRank` / `MixedLowRank`) used.
    struct Case {
        name: &'static str,
        values: fn() -> Values<f64>,
        reference: fn(&DenseMatrix<f64>, &mut DenseMatrix<f64>),
        bytes: usize,
        flops: u64,
    }

    fn native(a: &DenseMatrix<f64>, v: &DenseMatrix<f64>, beta: f64, out: &mut DenseMatrix<f64>) {
        gemm(1.0, a, Transpose::No, v, Transpose::No, beta, out);
    }

    fn cases() -> [Case; 4] {
        let dense_flops = gemm_flops(ROWS, R, COLS);
        let pair_flops = gemm_flops(RANK, R, COLS) + gemm_flops(ROWS, R, RANK);
        [
            Case {
                name: "dense native",
                values: || Values::Native(Shape::Dense(mat(ROWS, COLS, 1))),
                reference: |v, out| native(&mat(ROWS, COLS, 1), v, 1.0, out),
                bytes: ROWS * COLS * 8,
                flops: dense_flops,
            },
            Case {
                name: "dense reduced",
                values: || Values::Reduced(Shape::Dense(mat(ROWS, COLS, 1).cast())),
                reference: |v, out| gemm_mixed(1.0, &mat(ROWS, COLS, 1).cast(), v, 1.0, out),
                bytes: ROWS * COLS * 4,
                flops: dense_flops,
            },
            Case {
                name: "low-rank native",
                values: || {
                    Values::Native(Shape::LowRank {
                        left: mat(ROWS, RANK, 2),
                        right: mat(RANK, COLS, 3),
                    })
                },
                reference: |v, out| {
                    let mut tmp = DenseMatrix::zeros(RANK, R);
                    native(&mat(RANK, COLS, 3), v, 0.0, &mut tmp);
                    native(&mat(ROWS, RANK, 2), &tmp, 1.0, out);
                },
                bytes: (ROWS * RANK + RANK * COLS) * 8,
                flops: pair_flops,
            },
            Case {
                name: "low-rank reduced",
                values: || {
                    Values::Reduced(Shape::LowRank {
                        left: mat(ROWS, RANK, 2).cast(),
                        right: mat(RANK, COLS, 3).cast(),
                    })
                },
                reference: |v, out| {
                    let mut tmp = DenseMatrix::zeros(RANK, R);
                    gemm_mixed(1.0, &mat(RANK, COLS, 3).cast(), v, 0.0, &mut tmp);
                    gemm_mixed(1.0, &mat(ROWS, RANK, 2).cast(), &tmp, 1.0, out);
                },
                bytes: (ROWS * RANK + RANK * COLS) * 4,
                flops: pair_flops,
            },
        ]
    }

    fn bits(m: &DenseMatrix<f64>) -> Vec<u64> {
        m.data().iter().map(|x| x.to_bits()).collect()
    }

    /// Apply `panel` to the stacked right-hand side `v` on top of a nonzero
    /// accumulator, returning the output bits and the flops reported.
    fn run(panel: &Panel<'_, f64>, v: &DenseMatrix<f64>) -> (Vec<u64>, u64) {
        let mut out = mat(ROWS, R, 9);
        let flops = panel.apply(
            |cols, mul| {
                assert_eq!(cols, COLS, "apply must ask for the panel's column count");
                mul(v)
            },
            |i, mul| {
                let off: usize = WIDTHS[..i].iter().sum();
                mul(&v.block(off, off + WIDTHS[i], 0, R));
            },
            &mut out,
            None,
        );
        (bits(&out), flops)
    }

    #[test]
    fn every_storage_combination_matches_its_explicit_gemm_sequence() {
        let dir = std::env::temp_dir().join(format!("gofmm-panel-table-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let v = mat(COLS, R, 4);
        for (node, case) in cases().iter().enumerate() {
            let mut want = mat(ROWS, R, 9);
            (case.reference)(&v, &mut want);
            let want = bits(&want);

            // Residence 1: owned in memory.
            let mut panel = Panel::Owned((case.values)());
            assert!(!panel.is_empty(), "{}", case.name);
            assert_eq!(run(&panel, &v), (want.clone(), case.flops), "{}", case.name);
            assert_eq!(panel.bytes(), case.bytes, "{}", case.name);
            assert_eq!(panel.resident_bytes(), case.bytes, "{}", case.name);

            // Residence 2: spilled, then attached in place of the owned copy.
            let path = dir.join(format!("panel-{node}.gfmm"));
            let mut writer = StoreWriter::create(&path).unwrap();
            panel.spill(&mut writer, classes::S2S, node).unwrap();
            writer.finish().unwrap();
            let store = Arc::new(FilePanelStore::open(&path, 1 << 20).unwrap());
            panel.attach(&store, classes::L2L, node);
            assert!(matches!(panel, Panel::Owned(_)), "no L2L key to attach to");
            panel.attach(&store, classes::S2S, node);
            assert!(matches!(panel, Panel::Stored(_)), "{}", case.name);
            assert!(!panel.is_empty());
            assert_eq!(run(&panel, &v), (want.clone(), case.flops), "{}", case.name);
            assert_eq!(panel.bytes(), case.bytes, "{}", case.name);
            assert_eq!(panel.resident_bytes(), 0, "{}", case.name);
            assert!(
                panel
                    .spill(&mut StoreWriter::create(dir.join("x")).unwrap(), 1, 0)
                    .is_err(),
                "file-backed panels cannot be spilled again"
            );

            // Residence 2 again, located from the store alone (`open_from`):
            // bytes come from the blob lengths minus the 17-byte headers.
            let reduced = matches!((case.values)(), Values::Reduced(_));
            let reopened = Panel::<f64>::stored(&store, classes::S2S, node, reduced);
            assert_eq!(run(&reopened, &v), (want, case.flops), "{}", case.name);
            assert_eq!(reopened.bytes(), case.bytes, "{}", case.name);
            assert_eq!(reopened.resident_bytes(), 0, "{}", case.name);
            assert!(Panel::<f64>::stored(&store, classes::L2L, node, reduced).is_empty());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An owner-layout near panel `[K_ββ  K_{β,off}]`, in memory and spilled:
    /// one call runs the direct product and the mirror product
    /// `K_{β,off}^T w_β` over the same values, faulting a stored panel once.
    #[test]
    fn mirror_product_reads_the_off_diagonal_columns_of_the_same_view() {
        const OFF: usize = 20;
        let cols = ROWS + OFF;
        let dir = std::env::temp_dir().join(format!("gofmm-panel-mirror-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let v = mat(cols, R, 4);
        let w_own = v.block(0, ROWS, 0, R);
        for (node, precision) in [PanelPrecision::Native, PanelPrecision::MixedF32]
            .into_iter()
            .enumerate()
        {
            let values = || Values::dense(mat(ROWS, cols, 6), precision);
            let stored = match values().view() {
                Shape::Dense(MatRef::Native(m)) => m.clone(),
                Shape::Dense(MatRef::Reduced(m)) => m.cast(),
                Shape::LowRank { .. } => unreachable!(),
            };
            let mut want = mat(ROWS, R, 9);
            native(&stored, &v, 1.0, &mut want);
            let off_diag = stored.block(0, ROWS, ROWS, cols);
            let mut want_y = DenseMatrix::zeros(OFF, R);
            gemm(
                1.0,
                &off_diag,
                Transpose::Yes,
                &w_own,
                Transpose::No,
                0.0,
                &mut want_y,
            );
            let check = |panel: &Panel<'_, f64>| {
                let mut out = mat(ROWS, R, 9);
                let mut y = DenseMatrix::from_fn(OFF, R, |_, _| f64::NAN);
                let flops = panel.apply(
                    |c, mul| {
                        assert_eq!(c, cols);
                        mul(&v)
                    },
                    |_, _| unreachable!("packed panels multiply the stack"),
                    &mut out,
                    Some(&mut y),
                );
                assert_eq!(bits(&out), bits(&want), "{precision:?}: direct product");
                assert_eq!(bits(&y), bits(&want_y), "{precision:?}: mirror product");
                let mirror_flops = gemm_flops(OFF, R, ROWS);
                assert_eq!(flops, gemm_flops(ROWS, R, cols) + mirror_flops);
            };
            let mut panel = Panel::Owned(values());
            check(&panel);

            let path = dir.join(format!("mirror-{node}.gfmm"));
            let mut writer = StoreWriter::create(&path).unwrap();
            panel.spill(&mut writer, classes::L2L, node).unwrap();
            writer.finish().unwrap();
            // A one-byte budget keeps nothing resident: every get faults.
            let store = Arc::new(FilePanelStore::open(&path, 1).unwrap());
            panel.attach(&store, classes::L2L, node);
            assert!(matches!(panel, Panel::Stored(_)));
            for apply in 1..=2 {
                check(&panel);
                assert_eq!(
                    store.stats().faults,
                    apply,
                    "{precision:?}: one fault per apply"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn borrowed_blocks_multiply_one_list_entry_at_a_time() {
        let blocks: Vec<DenseMatrix<f64>> = WIDTHS
            .iter()
            .enumerate()
            .map(|(i, &w)| mat(ROWS, w, 5 + i))
            .collect();
        let v = mat(COLS, R, 4);
        let mut want = mat(ROWS, R, 9);
        let mut off = 0;
        for block in &blocks {
            native(
                block,
                &v.block(off, off + block.cols(), 0, R),
                1.0,
                &mut want,
            );
            off += block.cols();
        }
        let panel = Panel::Blocks(&blocks);
        let (got, flops) = run(&panel, &v);
        assert_eq!(got, bits(&want));
        assert_eq!(flops, gemm_flops(ROWS, R, COLS));
        assert_eq!(panel.bytes(), ROWS * COLS * 8);
        assert_eq!(panel.resident_bytes(), ROWS * COLS * 8);
        assert!(panel.dense().is_none() && !panel.is_empty());
        assert!(Panel::<f64>::Blocks(&[]).is_empty() && Panel::<f64>::Empty.is_empty());
        assert_eq!(run(&Panel::Empty, &v), (bits(&mat(ROWS, R, 9)), 0));
    }

    #[test]
    fn reduced_storage_of_an_f32_operator_is_the_native_footprint() {
        let m = DenseMatrix::<f32>::from_fn(6, 4, |i, j| (i + 2 * j) as f32);
        let native = Panel::Owned(Values::dense(m.clone(), PanelPrecision::Native));
        let reduced = Panel::Owned(Values::dense(m, PanelPrecision::MixedF32));
        assert_eq!(native.bytes(), 6 * 4 * 4);
        assert_eq!(reduced.bytes(), native.bytes());
        assert!(matches!(reduced.dense(), Some(MatRef::Reduced(_))));
    }
}
