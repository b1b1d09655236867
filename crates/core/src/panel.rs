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
//! * **residence** ([`Panel`]) — a store [`Residence`]: owned in memory, or
//!   a `(store, class, node)` locator into a [`FilePanelStore`], the same
//!   type the ULV factor keeps its nodes in.
//!
//! A panel spills as one blob whatever its axes: a tag byte for precision ×
//! shape, then its one or two matrices as nested blobs (the [`Blob`] impl of
//! [`Values`]). Residence is resolved *before* any arithmetic: a stored
//! panel is faulted in — one fault per apply — to the same [`View`] an
//! in-memory panel exposes, and [`Panel::apply`]
//! runs one GEMM sequence on that view. [`MatRef::gemm_into`] is the only
//! place that picks `gemm` versus `gemm_mixed`; [`Shape::apply`] and its
//! transposed twin `apply_t_cols` (the mirror product) are the only places
//! that run the two-GEMM low-rank products.

use crate::config::PanelPrecision;
use crate::error::Error;
use crate::evaluate::Evaluator;
use gofmm_linalg::blas::gemm_flops;
use gofmm_linalg::{gemm, gemm_cols, gemm_mixed, gemm_mixed_cols, DenseMatrix, Scalar, Transpose};
use gofmm_store::{
    classes, Blob, ByteReader, ByteWriter, FilePanelStore, Residence, StoreError, StoreWriter,
};
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

    /// The mirror product of a near panel `[K_ββ  K_{β,off}]`:
    /// `y = K_{β,off}^T w_β`, where `w_β` is the first `rows` rows of the
    /// stacked right-hand side `v` (the diagonal block's columns). Reads the
    /// off-diagonal columns in place, never the diagonal block; returns the
    /// flops spent.
    fn apply_mirror(&self, v: &DenseMatrix<T>, y: &mut DenseMatrix<T>) -> u64 {
        let rows = match self {
            Shape::Dense(m) | Shape::LowRank { left: m, .. } => m.dims().0,
        };
        let fill =
            |buf: &mut Vec<T>| (0..v.cols()).for_each(|c| buf.extend_from_slice(&v.col(c)[..rows]));
        with_temp(rows, v.cols(), fill, |w| {
            self.apply_t_cols(rows..self.cols(), w, T::zero(), y)
        })
    }

    /// `y = self[:, cols]^T w + beta * y`; returns the flops spent. A
    /// low-rank pair forms `tmp = left^T w` first, then
    /// `y = right[:, cols]^T tmp + beta * y`.
    fn apply_t_cols(
        &self,
        cols: Range<usize>,
        w: &DenseMatrix<T>,
        beta: T,
        y: &mut DenseMatrix<T>,
    ) -> u64 {
        let (n, r) = (cols.len(), w.cols());
        match *self {
            Shape::Dense(m) => {
                m.gemm_t_cols_into(cols, w, beta, y);
                gemm_flops(n, r, w.rows())
            }
            Shape::LowRank { left, right } => {
                let (rows, rank) = left.dims();
                let zeros = |buf: &mut Vec<T>| buf.resize(rank * r, T::zero());
                with_temp(rank, r, zeros, |tmp| {
                    left.gemm_t_cols_into(0..rank, w, T::zero(), tmp);
                    right.gemm_t_cols_into(cols, tmp, beta, y);
                });
                gemm_flops(rank, r, rows) + gemm_flops(n, r, rank)
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

/// Tag bit of a [`Values`] blob: the matrices hold [`Scalar::PanelScalar`]s.
const TAG_REDUCED: u8 = 1;
/// Tag bit of a [`Values`] blob: the panel is a `left · right` pair.
const TAG_LOW_RANK: u8 = 2;

impl<S: Scalar> Shape<DenseMatrix<S>> {
    fn encode(&self, precision: u8, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new(out);
        match self {
            Shape::Dense(m) => {
                w.u8(precision);
                w.nested(m);
            }
            Shape::LowRank { left, right } => {
                w.u8(precision | TAG_LOW_RANK);
                w.nested(left);
                w.nested(right);
            }
        }
    }

    fn decode(tag: u8, r: &mut ByteReader<'_>) -> Result<Self, StoreError> {
        if tag & TAG_LOW_RANK == 0 {
            return Ok(Shape::Dense(r.nested()?));
        }
        let (left, right): (DenseMatrix<S>, DenseMatrix<S>) = (r.nested()?, r.nested()?);
        if left.cols() != right.rows() {
            return Err(StoreError::Corrupt(format!(
                "low-rank panel factors {} x {} and {} x {} do not chain",
                left.rows(),
                left.cols(),
                right.rows(),
                right.cols()
            )));
        }
        Ok(Shape::LowRank { left, right })
    }
}

/// One blob per panel: a tag byte for precision × shape, then the dense
/// matrix, or `left` then `right`, as nested matrix blobs (each with its own
/// scalar width, checked on decode).
impl<T: Scalar> Blob for Values<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Values::Native(shape) => shape.encode(0, out),
            Values::Reduced(shape) => shape.encode(TAG_REDUCED, out),
        }
    }

    fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r = ByteReader::new(bytes);
        let tag = r.u8()?;
        if tag & !(TAG_REDUCED | TAG_LOW_RANK) != 0 {
            return Err(StoreError::Corrupt(format!("unknown panel tag {tag}")));
        }
        let values = if tag & TAG_REDUCED == 0 {
            Values::Native(Shape::decode(tag, &mut r)?)
        } else {
            Values::Reduced(Shape::decode(tag, &mut r)?)
        };
        r.finish()?;
        Ok(values)
    }

    fn resident_bytes(&self) -> usize {
        self.view().bytes()
    }
}

/// Residence axis: one node's interaction blocks, packed side by side so
/// S2S / L2L are one GEMM each, wherever they live.
pub(crate) enum Panel<T: Scalar> {
    /// No interaction blocks for this node.
    Empty,
    /// Packed values, held in memory or spilled to a [`FilePanelStore`] as
    /// one blob and faulted in per apply behind the store's LRU resident set
    /// (the out-of-core path).
    Packed(Residence<Values<T>>),
}

impl<T: Scalar> Panel<T> {
    /// An in-memory panel.
    pub(crate) fn owned(values: Values<T>) -> Self {
        Panel::Packed(Residence::Memory(values))
    }

    /// A locator for `(class, heap)` if `store` holds it, and
    /// [`Panel::Empty`] otherwise (nodes without interactions spill nothing).
    pub(crate) fn stored(store: &Arc<FilePanelStore>, class: u16, heap: usize) -> Self {
        let node = heap as u32;
        if !store.contains(class, node) {
            return Panel::Empty;
        }
        Panel::Packed(Residence::Stored {
            store: Arc::clone(store),
            class,
            node,
        })
    }

    /// The in-memory values, if any.
    fn owned_values(&self) -> Option<&Values<T>> {
        match self {
            Panel::Packed(Residence::Memory(values)) => Some(values),
            _ => None,
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        match self {
            Panel::Empty => true,
            // Only non-empty panels are ever spilled.
            Panel::Packed(Residence::Stored { .. }) => false,
            Panel::Packed(Residence::Memory(values)) => values.view().is_empty(),
        }
    }

    /// Bytes this panel holds *resident in memory* — what
    /// [`Evaluator::cached_bytes`] accounts; 0 for a stored panel, whose
    /// values live on disk.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.owned_values()
            .map_or(0, |values| values.view().bytes())
    }

    /// The stored matrix of an in-memory dense panel — the only kind
    /// [`Evaluator::tune`] edits.
    pub(crate) fn dense(&self) -> Option<MatRef<'_, T>> {
        match self.owned_values()?.view() {
            Shape::Dense(m) => Some(m),
            Shape::LowRank { .. } => None,
        }
    }

    /// `out += panel * rhs`; returns the flops spent.
    ///
    /// The panel (owned, or stored and faulted in here) multiplies the whole
    /// right-hand side in one [`Shape::apply`]: `stacked(cols, mul)` must
    /// call `mul` with its `cols` rows stacked in panel column order.
    ///
    /// With `mirror`, the panel is an owner-layout near panel and the same
    /// call also runs its mirror product ([`View::apply_mirror`]) into
    /// `mirror`, on the values the direct product just read: a stored panel
    /// is faulted in once for both.
    ///
    /// # Errors
    /// The [`StoreError`] of a failed fault (the file was truncated or
    /// removed, the device is gone); `out` and `mirror` are then untouched.
    pub(crate) fn apply(
        &self,
        stacked: impl FnOnce(usize, &mut dyn FnMut(&DenseMatrix<T>)),
        out: &mut DenseMatrix<T>,
        mut mirror: Option<&mut DenseMatrix<T>>,
    ) -> Result<u64, StoreError> {
        let Panel::Packed(residence) = self else {
            return Ok(0);
        };
        let values = residence.get()?;
        let view = values.view();
        let mut flops = 0;
        stacked(view.cols(), &mut |v| {
            flops += view.apply(v, out);
            if let Some(y) = mirror.as_deref_mut() {
                flops += view.apply_mirror(v, y);
            }
        });
        Ok(flops)
    }

    /// `y = panel[:, cols]^T w + beta * y` for an in-memory near panel, dense
    /// or low-rank, read in place; returns the flops spent. How a leaf reads
    /// a block its owner stores, `K_{αβ} = K_{βα}^T`.
    pub(crate) fn apply_t_cols(
        &self,
        cols: Range<usize>,
        w: &DenseMatrix<T>,
        beta: T,
        y: &mut DenseMatrix<T>,
    ) -> u64 {
        let values = self
            .owned_values()
            .expect("only in-memory owner panels are read by other leaves");
        values.view().apply_t_cols(cols, w, beta, y)
    }

    pub(crate) fn is_stored(&self) -> bool {
        matches!(self, Panel::Packed(Residence::Stored { .. }))
    }

    /// Spill one owned packed panel (see [`Evaluator::spill_panels`]).
    fn spill(&self, writer: &mut StoreWriter, class: u16, heap: usize) -> Result<(), Error> {
        match self {
            Panel::Empty => Ok(()),
            Panel::Packed(residence) => Ok(residence.spill(writer, class, heap as u32)?),
        }
    }

    /// Swap an owned panel for its file-backed locator if `store` holds it.
    fn attach(&mut self, store: &Arc<FilePanelStore>, class: u16, heap: usize) {
        if let Panel::Packed(residence) = self {
            residence.attach(store, class, heap as u32);
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
    /// [`Error::InvalidConfig`] when a panel is already file-backed — only
    /// in-memory panels can be spilled; [`Error::Storage`] on a write
    /// failure.
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
    /// are left untouched, so one evaluator can mix resident and spilled
    /// nodes.
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
    use gofmm_linalg::matmul_tn;

    const ROWS: usize = 24;
    const RANK: usize = 5;
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
    fn run(panel: &Panel<f64>, v: &DenseMatrix<f64>) -> (Vec<u64>, u64) {
        let mut out = mat(ROWS, R, 9);
        let flops = panel
            .apply(
                |cols, mul| {
                    assert_eq!(cols, COLS, "apply must ask for the panel's column count");
                    mul(v)
                },
                &mut out,
                None,
            )
            .unwrap();
        (bits(&out), flops)
    }

    #[test]
    fn every_storage_combination_matches_its_explicit_gemm_sequence() {
        let dir = std::env::temp_dir().join(format!("gofmm-panel-table-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let v = mat(COLS, R, 4);
        assert!(Panel::<f64>::Empty.is_empty());
        assert_eq!(run(&Panel::Empty, &v), (bits(&mat(ROWS, R, 9)), 0));
        for (node, case) in cases().iter().enumerate() {
            let mut want = mat(ROWS, R, 9);
            (case.reference)(&v, &mut want);
            let want = bits(&want);

            // Residence 1: owned in memory.
            let mut panel = Panel::owned((case.values)());
            assert!(!panel.is_empty(), "{}", case.name);
            assert_eq!(run(&panel, &v), (want.clone(), case.flops), "{}", case.name);
            assert_eq!(panel.resident_bytes(), case.bytes, "{}", case.name);

            // Residence 2: spilled, then attached in place of the owned copy.
            let path = dir.join(format!("panel-{node}.gfmm"));
            let mut writer = StoreWriter::create(&path).unwrap();
            panel.spill(&mut writer, classes::S2S, node).unwrap();
            writer.finish().unwrap();
            let store = Arc::new(FilePanelStore::open(&path, 1 << 20).unwrap());
            panel.attach(&store, classes::L2L, node);
            assert!(!panel.is_stored(), "no L2L key to attach to");
            panel.attach(&store, classes::S2S, node);
            assert!(panel.is_stored(), "{}", case.name);
            assert!(!panel.is_empty());
            assert_eq!(run(&panel, &v), (want.clone(), case.flops), "{}", case.name);
            assert_eq!(panel.resident_bytes(), 0, "{}", case.name);
            assert!(
                matches!(
                    panel.spill(&mut StoreWriter::create(dir.join("x")).unwrap(), 1, 0),
                    Err(Error::InvalidConfig { .. })
                ),
                "file-backed panels cannot be spilled again"
            );

            // Residence 2 again, located from the store alone (`open_from`):
            // the blob's tag byte says precision and shape.
            let reopened = Panel::<f64>::stored(&store, classes::S2S, node);
            assert_eq!(run(&reopened, &v), (want, case.flops), "{}", case.name);
            assert_eq!(reopened.resident_bytes(), 0, "{}", case.name);
            assert!(Panel::<f64>::stored(&store, classes::L2L, node).is_empty());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A near panel `[K_ββ  K_{β,off}]`, dense or a low-rank pair, in memory
    /// and spilled: one call runs the direct product and the mirror product
    /// `K_{β,off}^T w_β` over the same values, faulting the stored panel —
    /// one blob, dense or a pair — once. Both match their explicit GEMM sequences bit for bit.
    #[test]
    fn mirror_product_reads_the_off_diagonal_columns_of_the_same_view() {
        const OFF: usize = 20;
        let cols = ROWS + OFF;
        let dir = std::env::temp_dir().join(format!("gofmm-panel-mirror-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let v = mat(cols, R, 4);
        let w_own = v.block(0, ROWS, 0, R);
        let shapes = [
            Shape::Dense(mat(ROWS, cols, 6)),
            Shape::LowRank {
                left: mat(ROWS, RANK, 7),
                right: mat(RANK, cols, 8),
            },
        ];
        let precisions = [PanelPrecision::Native, PanelPrecision::MixedF32];
        let cases = shapes.iter().flat_map(|s| precisions.map(|p| (s, p)));
        for (node, (shape, precision)) in cases.enumerate() {
            let values = || match precision {
                PanelPrecision::Native => Values::Native(shape.as_ref().map(|m| m.clone())),
                PanelPrecision::MixedF32 => Values::Reduced(shape.as_ref().map(|m| m.cast())),
            };
            // The stored values, exactly, in `f64`.
            let stored = values().view().map(|m| match m {
                MatRef::Native(m) => m.clone(),
                MatRef::Reduced(m) => m.cast(),
            });
            let mut want = mat(ROWS, R, 9);
            let (want_y, flops) = match &stored {
                Shape::Dense(m) => {
                    native(m, &v, 1.0, &mut want);
                    let y = matmul_tn(&m.block(0, ROWS, ROWS, cols), &w_own);
                    (y, gemm_flops(ROWS, R, cols) + gemm_flops(OFF, R, ROWS))
                }
                Shape::LowRank { left, right } => {
                    let mut tmp = DenseMatrix::zeros(RANK, R);
                    native(right, &v, 0.0, &mut tmp);
                    native(left, &tmp, 1.0, &mut want);
                    let y = matmul_tn(&right.block(0, RANK, ROWS, cols), &matmul_tn(left, &w_own));
                    let direct = gemm_flops(RANK, R, cols) + gemm_flops(ROWS, R, RANK);
                    (
                        y,
                        direct + gemm_flops(RANK, R, ROWS) + gemm_flops(OFF, R, RANK),
                    )
                }
            };
            let label = format!(
                "{precision:?} low-rank={}",
                matches!(shape, Shape::LowRank { .. })
            );
            let check = |panel: &Panel<f64>| {
                let mut out = mat(ROWS, R, 9);
                let mut y = DenseMatrix::from_fn(OFF, R, |_, _| f64::NAN);
                let got = panel
                    .apply(
                        |c, mul| {
                            assert_eq!(c, cols);
                            mul(&v)
                        },
                        &mut out,
                        Some(&mut y),
                    )
                    .unwrap();
                assert_eq!(bits(&out), bits(&want), "{label}: direct product");
                assert_eq!(bits(&y), bits(&want_y), "{label}: mirror product");
                assert_eq!(got, flops, "{label}: flops");
            };
            let mut panel = Panel::owned(values());
            check(&panel);

            let path = dir.join(format!("mirror-{node}.gfmm"));
            let mut writer = StoreWriter::create(&path).unwrap();
            panel.spill(&mut writer, classes::L2L, node).unwrap();
            writer.finish().unwrap();
            // A one-byte budget keeps nothing resident: every get faults.
            let store = Arc::new(FilePanelStore::open(&path, 1).unwrap());
            panel.attach(&store, classes::L2L, node);
            assert!(panel.is_stored());
            for apply in 1..=2 {
                check(&panel);
                assert_eq!(
                    store.stats().faults,
                    apply,
                    "{label}: one fault per stored panel per apply"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn corrupt<T: Scalar>(bytes: &[u8]) -> bool {
        matches!(Values::<T>::decode(bytes), Err(StoreError::Corrupt(_)))
    }

    /// The panel blob of every (shape, precision) round-trips, and its
    /// decoder rejects, as `Corrupt`, every truncation, an unknown tag, a
    /// trailing byte, a pair whose factors do not chain and scalars of the
    /// wrong width.
    #[test]
    fn values_decode_rejects_truncated_unknown_unchained_and_mistyped_blobs() {
        let encode = |values: &Values<f64>| {
            let mut bytes = Vec::new();
            values.encode(&mut bytes);
            bytes
        };
        for case in cases() {
            let values = (case.values)();
            let bytes = encode(&values);
            let back = Values::<f64>::decode(&bytes).unwrap();
            assert_eq!(encode(&back), bytes, "{}: decode . encode", case.name);
            assert_eq!(back.resident_bytes(), case.bytes, "{}", case.name);
            for len in 0..bytes.len() {
                assert!(corrupt::<f64>(&bytes[..len]), "{}: {len} bytes", case.name);
            }
            for tag in 4..=u8::MAX {
                let mut b = bytes.clone();
                b[0] = tag;
                assert!(corrupt::<f64>(&b), "{}: tag {tag}", case.name);
            }
            let mut long = bytes.clone();
            long.push(0);
            assert!(corrupt::<f64>(&long), "{}: trailing byte", case.name);
            // The precision bit flipped: 8-byte scalars read as 4-byte ones
            // or the reverse; an `f32` operator reads `f64` scalars.
            let mut flipped = bytes.clone();
            flipped[0] ^= TAG_REDUCED;
            assert!(corrupt::<f64>(&flipped), "{}: precision bit", case.name);
            if matches!(values, Values::Native(_)) {
                assert!(corrupt::<f32>(&bytes), "{}: as f32", case.name);
            }
        }
        let unchained = [
            Values::Native(Shape::LowRank {
                left: mat(ROWS, RANK, 2),
                right: mat(RANK + 1, COLS, 3),
            }),
            Values::Reduced(Shape::LowRank {
                left: mat(ROWS, RANK + 1, 2).cast(),
                right: mat(RANK, COLS, 3).cast(),
            }),
        ];
        for values in &unchained {
            assert!(corrupt::<f64>(&encode(values)), "factors that do not chain");
        }
    }

    #[test]
    fn reduced_storage_of_an_f32_operator_is_the_native_footprint() {
        let m = DenseMatrix::<f32>::from_fn(6, 4, |i, j| (i + 2 * j) as f32);
        let native = Panel::owned(Values::dense(m.clone(), PanelPrecision::Native));
        let reduced = Panel::owned(Values::dense(m, PanelPrecision::MixedF32));
        assert_eq!(native.resident_bytes(), 6 * 4 * 4);
        assert_eq!(reduced.resident_bytes(), native.resident_bytes());
        assert!(matches!(reduced.dense(), Some(MatRef::Reduced(_))));
    }
}
