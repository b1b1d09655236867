//! The node-kernel contract between [`crate::Factor`] and its two
//! factorizations.
//!
//! A hierarchical factorization is one bottom-up `FACTOR` sweep and, per
//! solve, one `SUP` / `SDOWN` double sweep over the compression tree. The
//! sweeps themselves — the plans, the slot protocol, the workspace pool and
//! the leaf scatter — are the same for every factorization and live in
//! [`crate::Factor`]. A [`NodeKernel`] supplies only what one node computes:
//! its factor task, its cost, what it keeps, and its two solve task bodies.
//! The solve bodies share one [`SolveWorkspace`] layout: a value passed up,
//! a value kept from `SUP` to `SDOWN`, a value passed down, and the leaf
//! outputs.

use crate::factor::Factor;
use gofmm_core::{Compressed, Error, SweepWorkspace};
use gofmm_linalg::{DenseMatrix, Scalar};
use gofmm_matrices::SpdMatrix;
use gofmm_runtime::DisjointCells;

/// What a factor task of one node produces: the node, and what its parent's
/// factor task reads of it besides the node.
pub type Factored<K, T> = (<K as NodeKernel<T>>::Node, <K as NodeKernel<T>>::Up);

/// The per-node arithmetic of one hierarchical factorization.
pub trait NodeKernel<T: Scalar>: Sized {
    /// One factored node, as its factor task builds it.
    type Node: Send + Sync;
    /// A node as the factor keeps it between solves.
    type Held: Send + Sync;
    /// What a parent's factor task reads of a child besides its node;
    /// dropped when the `FACTOR` sweep ends.
    type Up: Send + Sync;

    /// Factor one leaf of `K + lambda I`.
    fn factor_leaf<M: SpdMatrix<T> + ?Sized>(
        matrix: &M,
        comp: &Compressed<T>,
        heap: usize,
        lambda: T,
    ) -> Result<Factored<Self, T>, Error>;

    /// Factor one interior node from its two factored children.
    fn factor_interior<M: SpdMatrix<T> + ?Sized>(
        matrix: &M,
        comp: &Compressed<T>,
        heap: usize,
        left: &Factored<Self, T>,
        right: &Factored<Self, T>,
    ) -> Result<Factored<Self, T>, Error>;

    /// HEFT cost estimate of one node's factor task, in flops.
    fn factor_cost(comp: &Compressed<T>, heap: usize) -> f64;

    /// Bytes of factor storage a node keeps.
    fn bytes(node: &Self::Node) -> usize;

    /// A node's `(kept, local)` sweep dimensions: the rows of its
    /// [`SolveWorkspace::up`] / [`SolveWorkspace::down`] cells and of its
    /// [`SolveWorkspace::local`] cell.
    fn dims(node: &Self::Node) -> (usize, usize);

    /// Keep a node for the solves.
    fn hold(node: Self::Node) -> Self::Held;

    /// The `SUP` task of node `heap`.
    fn sweep_up(
        factor: &Factor<'_, T, Self>,
        ws: &SolveWorkspace<T>,
        heap: usize,
    ) -> Result<(), Error>;

    /// The `SDOWN` task of node `heap`.
    fn sweep_down(
        factor: &Factor<'_, T, Self>,
        ws: &SolveWorkspace<T>,
        heap: usize,
    ) -> Result<(), Error>;
}

/// One solve's per-node sweep buffers, pooled whatever their width.
///
/// Every cell is fully overwritten by its single writing task before any
/// reader runs, and `staged` is refilled before each sweep, so
/// [`SweepWorkspace::reset`] only gives every cell the call's column count.
pub struct SolveWorkspace<T: Scalar> {
    /// The right-hand side in tree order (row `pos` holds original row
    /// `perm[pos]`), so every leaf's rows are one contiguous range.
    pub staged: DenseMatrix<T>,
    /// `kept x r` per node: written by `SUP(node)`, read by `SUP(parent)`.
    pub up: DisjointCells<DenseMatrix<T>>,
    /// `local x r` per node: written by `SUP(node)`, read by `SDOWN(node)`.
    pub local: DisjointCells<DenseMatrix<T>>,
    /// `kept x r` per node: written by `SDOWN(parent)`, read by
    /// `SDOWN(node)`.
    pub down: DisjointCells<DenseMatrix<T>>,
    /// Each leaf's output block in tree order, written by `SDOWN(leaf)`.
    pub x: DisjointCells<DenseMatrix<T>>,
}

impl<T: Scalar> SolveWorkspace<T> {
    /// Column-less sweep cells for every node, with the rows of the nodes'
    /// `(kept, local)` dimensions; [`SweepWorkspace::reset`] sizes them.
    pub fn allocate(comp: &Compressed<T>, dims: &[(usize, usize)]) -> Self {
        let node_count = comp.tree.node_count();
        let leaf_rows = |heap: usize| {
            if comp.tree.is_leaf(heap) {
                comp.tree.node(heap).len
            } else {
                0
            }
        };
        Self {
            staged: DenseMatrix::zeros(comp.n(), 0),
            up: DisjointCells::from_fn(node_count, |h| DenseMatrix::zeros(dims[h].0, 0)),
            local: DisjointCells::from_fn(node_count, |h| DenseMatrix::zeros(dims[h].1, 0)),
            down: DisjointCells::from_fn(node_count, |h| DenseMatrix::zeros(dims[h].0, 0)),
            x: DisjointCells::from_fn(node_count, |h| DenseMatrix::zeros(leaf_rows(h), 0)),
        }
    }
}

impl<T: Scalar> SweepWorkspace<T> for SolveWorkspace<T> {
    fn staged(&mut self) -> &mut DenseMatrix<T> {
        &mut self.staged
    }

    fn reset(&mut self, r: usize) {
        self.staged.resize(self.staged.rows(), r);
        for cells in [&mut self.up, &mut self.local, &mut self.down, &mut self.x] {
            cells.for_each_mut(|_, m| m.resize(m.rows(), r));
        }
    }
}

/// An empty buffer from the calling thread's factorization scratch: a solve
/// task's temporaries reuse the capacity of earlier tasks' on that thread
/// instead of the allocator's. Return it with [`give_scratch`].
pub(crate) fn take_scratch<T: Scalar>() -> Vec<T> {
    let mut buf = T::with_factor_scratch(Vec::pop).unwrap_or_default();
    buf.clear();
    buf
}

/// Return a temporary's buffer to the calling thread's factorization scratch.
pub(crate) fn give_scratch<T: Scalar>(m: DenseMatrix<T>) {
    T::with_factor_scratch(|stash| stash.push(m.into_vec()));
}
