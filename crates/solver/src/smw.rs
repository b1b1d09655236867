//! The Sherman–Morrison–Woodbury node kernel of [`Factor`].
//!
//! Writing the hierarchical part of the approximation at node `alpha` with
//! children `l, r` as
//!
//! ```text
//! H_alpha = [ H_l                      U_l B U_r^T ]        B = K_{skel(l), skel(r)}
//!           [ U_r B^T U_l^T            H_r         ]
//!         = diag(H_l, H_r) + diag(U_l, U_r) C diag(U_l, U_r)^T,   C = [0 B; B^T 0]
//! ```
//!
//! with nested bases `U_alpha = diag(U_l, U_r) E_alpha` (where `E_alpha` is
//! the transpose of the node's interpolation matrix), the inverse is the
//! Sherman–Morrison–Woodbury recursion
//!
//! ```text
//! H_alpha^{-1} = D^{-1} - D^{-1} U_hat W_alpha U_hat^T D^{-1},
//!      D = diag(H_l, H_r),   U_hat = diag(U_l, U_r),
//!      W_alpha = (I + C G_hat)^{-1} C,   G_hat = diag(G_l, G_r),
//!      G_c = U_c^T H_c^{-1} U_c.
//! ```
//!
//! At the leaves `H_leaf = K_{beta,beta} + lambda I` is Cholesky-factored
//! directly. Everything above the leaves reduces to *small* dense matrices in
//! skeleton coordinates — `W`, `G_hat`, and the downward coefficient map
//! `E - W G_hat E` — so a full solve is two tree sweeps:
//!
//! * **`SUP` (bottom-up)**: leaves solve `y = H_leaf^{-1} b_leaf` and project
//!   `v = U^T y`; interior nodes combine children's projections into the SMW
//!   coefficients `z = W [v_l; v_r]` and push their own projection
//!   `v = E^T ([v_l; v_r] - G_hat z)` upward.
//! * **`SDOWN` (top-down)**: each node turns its coefficients plus the
//!   incoming correction `delta` (zero at the root) into per-child
//!   corrections `gamma = z + (E - W G_hat E) delta`, and leaves fold the
//!   correction into the output `x = y - (H_leaf^{-1} U) delta`.
//!
//! With a budget-0 (pure HSS) compression the factorization inverts the
//! compressed operator essentially exactly, so preconditioned CG converges
//! in a handful of iterations — also where `K~ + lambda I` is indefinite,
//! which the ULV factor (a congruence onto Cholesky-factored blocks) cannot
//! factor at that `lambda`.
//!
//! # Stability envelope
//!
//! This is the *plain* recursive SMW (the formulation the GOFMM line of work
//! uses for regularized kernel systems), not an orthogonal ULV
//! factorization. Its accuracy degrades when `lambda` is many orders of
//! magnitude below the operator's spectral scale: the SMW cores `I + C G`
//! then become as ill-conditioned as the system itself and the recursion
//! amplifies roundoff. In the regime the paper targets — kernel regression
//! and inverse-operator preconditioning, `lambda` within a few orders of
//! `||K||` — the factorization is accurate to solver precision (see the
//! `solver_convergence` experiment); for extreme small `lambda` it still
//! returns a symmetric operator (the SMW matrices are explicitly
//! symmetrized), but its backward error grows like the condition number.
//!
//! The limitation is *removed* by the backward-stable orthogonal
//! [`crate::UlvFactor`], which is the factorization behind
//! `GofmmOperator` (this SMW recursion is kept as the reference the tests
//! build directly as a [`crate::HierarchicalFactor`]). Both envelopes — ULV backward stable across
//! `lambda` from `1e-8` to `1e8` times the operator scale, SMW accurate
//! inside its band and degraded below it — are *enforced* by the CI-gated
//! `tests/stability_envelope.rs` suite, so a regression in either backend
//! fails loudly.

use gofmm_core::{Compressed, Error};
use gofmm_linalg::{gemm, matmul, matmul_tn, Cholesky, DenseMatrix, LuFactor, Scalar, Transpose};
use gofmm_matrices::SpdMatrix;

use crate::factor::Factor;
use crate::kernel::{give_scratch, take_scratch, Factored, NodeKernel, SolveWorkspace};

/// The Sherman–Morrison–Woodbury node kernel: the node arithmetic of
/// [`crate::HierarchicalFactor`].
pub enum Smw {}

/// Per-node SMW storage. Leaves hold the Cholesky factor and the projected
/// solve panel; interior nodes hold the small SMW matrices.
pub struct SmwNode<T: Scalar> {
    /// Leaf: Cholesky of `K_{beta,beta} + lambda I`.
    chol: Option<Cholesky<T>>,
    /// Leaf with a skeleton: `H_leaf^{-1} U` (`m x s`).
    yu: DenseMatrix<T>,
    /// Interior: SMW core `W = (I + C G_hat)^{-1} C`.
    w: DenseMatrix<T>,
    /// Interior: `G_hat = diag(G_l, G_r)`.
    gstack: DenseMatrix<T>,
    /// Interior non-root: downward coefficient map `E - W G_hat E`.
    down: DenseMatrix<T>,
    /// Non-root: reduced inverse `G = U^T H^{-1} U` (read by the parent).
    g: DenseMatrix<T>,
    /// Interior: rank of the left child (splits `z` between the children).
    split: usize,
}

impl<T: Scalar> NodeKernel<T> for Smw {
    type Node = SmwNode<T>;
    type Held = SmwNode<T>;
    /// A parent reads `G` from its children's nodes.
    type Up = ();

    /// Cholesky of the regularized diagonal block plus the projected panels
    /// the sweeps need.
    fn factor_leaf<M: SpdMatrix<T> + ?Sized>(
        matrix: &M,
        comp: &Compressed<T>,
        heap: usize,
        lambda: T,
    ) -> Result<Factored<Self, T>, Error> {
        let rows = comp.tree.indices(heap);
        let mut a = matrix.submatrix(rows, rows);
        for i in 0..a.rows() {
            let d = a.get(i, i);
            a.set(i, i, d + lambda);
        }
        let chol = Cholesky::factor(&a).map_err(|e| Error::NotPositiveDefinite {
            node: heap,
            pivot: e.pivot,
        })?;
        let (yu, g) = match comp.basis(heap) {
            Some(basis) => {
                // U = P^T; solve H_leaf Y = U once, then G = U^T Y.
                let mut yu = basis.interp.transpose();
                chol.solve_into(&mut yu);
                let mut g = matmul(&basis.interp, &yu);
                g.symmetrize();
                (yu, g)
            }
            // Root leaf (depth-0 tree): the Cholesky factor is the whole story.
            None => (DenseMatrix::zeros(0, 0), DenseMatrix::zeros(0, 0)),
        };
        let node = SmwNode {
            chol: Some(chol),
            yu,
            w: DenseMatrix::zeros(0, 0),
            gstack: DenseMatrix::zeros(0, 0),
            down: DenseMatrix::zeros(0, 0),
            g,
            split: 0,
        };
        Ok((node, ()))
    }

    /// The SMW core `W` from the sibling skeleton block and the children's
    /// reduced inverses, plus the reduced inverse and downward map for the
    /// parent.
    fn factor_interior<M: SpdMatrix<T> + ?Sized>(
        matrix: &M,
        comp: &Compressed<T>,
        heap: usize,
        (left, ()): &Factored<Self, T>,
        (right, ()): &Factored<Self, T>,
    ) -> Result<Factored<Self, T>, Error> {
        let (l, r) = comp.tree.children(heap);
        let (g_left, g_right) = (&left.g, &right.g);
        let (sl, sr) = (g_left.rows(), g_right.rows());
        let total = sl + sr;

        // B = K_{skel(l), skel(r)}, the sibling skeleton block.
        let skel_l = &comp.basis(l).expect("child skeleton").skeleton;
        let skel_r = &comp.basis(r).expect("child skeleton").skeleton;
        let b = matrix.submatrix(skel_l, skel_r);
        debug_assert_eq!((b.rows(), b.cols()), (sl, sr), "sibling block shape");

        // C = [0 B; B^T 0], G_hat = diag(G_l, G_r).
        let mut c = DenseMatrix::zeros(total, total);
        c.set_block(0, sl, &b);
        c.set_block(sl, 0, &b.transpose());
        let mut gstack = DenseMatrix::zeros(total, total);
        gstack.set_block(0, 0, g_left);
        gstack.set_block(sl, sl, g_right);

        // W = (I + C G_hat)^{-1} C — small, dense, non-symmetric system.
        let mut core = matmul(&c, &gstack);
        for i in 0..total {
            let d = core.get(i, i);
            core.set(i, i, d + T::one());
        }
        let lu = LuFactor::factor(&core).map_err(|_| Error::SingularCore { node: heap })?;
        let mut w = lu.solve(&c);
        // `(I + C G)^{-1} C` is symmetric in exact arithmetic; enforcing the
        // symmetry the LU solve loses keeps every preconditioner application an
        // exactly symmetric operator, which is what CG assumes.
        w.symmetrize();

        let (down, g) = match comp.basis(heap) {
            Some(basis) => {
                // E = P^T maps the node's skeleton coefficients into the
                // children's; everything the sweeps need is precomposed here.
                let e = basis.interp.transpose();
                let ge = matmul(&gstack, &e);
                let wge = matmul(&w, &ge);
                let down = e.sub(&wge);
                // G = E^T G_hat E - (G_hat E)^T W (G_hat E).
                let mut g = matmul(&basis.interp, &ge).sub(&matmul_tn(&ge, &wge));
                g.symmetrize();
                (down, g)
            }
            // Root: no parent reads a reduced inverse or pushes corrections.
            None => (DenseMatrix::zeros(0, 0), DenseMatrix::zeros(0, 0)),
        };
        let node = SmwNode {
            chol: None,
            yu: DenseMatrix::zeros(0, 0),
            w,
            gstack,
            down,
            g,
            split: sl,
        };
        Ok((node, ()))
    }

    fn factor_cost(comp: &Compressed<T>, heap: usize) -> f64 {
        let m = comp.config.leaf_size as f64;
        let s = comp.config.max_rank as f64;
        if comp.tree.is_leaf(heap) {
            m * m * m / 3.0 + 2.0 * m * m * s
        } else {
            8.0 * s * s * s
        }
    }

    /// Leaf Cholesky factors, `H^{-1}U` panels and the per-node SMW
    /// matrices, the reduced inverse `G` included.
    fn bytes(node: &SmwNode<T>) -> usize {
        let scalar = std::mem::size_of::<T>();
        let mat = |m: &DenseMatrix<T>| m.rows() * m.cols() * scalar;
        node.chol.as_ref().map(|c| mat(c.l())).unwrap_or(0)
            + mat(&node.yu)
            + mat(&node.w)
            + mat(&node.gstack)
            + mat(&node.down)
            + mat(&node.g)
    }

    /// `kept`: the node's rank (rows of `v` and `delta`); `local`: a leaf's
    /// rows (`y`) or an interior node's coefficients (`z`).
    fn dims(node: &SmwNode<T>) -> (usize, usize) {
        let local = node.chol.as_ref().map_or(node.w.rows(), |c| c.l().rows());
        (node.g.rows(), local)
    }

    fn hold(node: SmwNode<T>) -> SmwNode<T> {
        node
    }

    /// Leaf Cholesky solves + upward skeleton reductions: `up` holds `v`,
    /// `local` holds a leaf's `y` and an interior node's `z`.
    fn sweep_up(
        factor: &Factor<'_, T, Self>,
        ws: &SolveWorkspace<T>,
        heap: usize,
    ) -> Result<(), Error> {
        let comp = &*factor.comp;
        let nf = &factor.nodes[heap];
        if comp.tree.is_leaf(heap) {
            let mut y = ws.local.write(heap);
            let node = comp.tree.node(heap);
            for c in 0..y.cols() {
                let rows = &ws.staged.col(c)[node.start..node.start + node.len];
                y.col_mut(c).copy_from_slice(rows);
            }
            nf.chol
                .as_ref()
                .expect("leaf factor missing")
                .solve_into(&mut y);
            if let Some(basis) = comp.basis(heap) {
                let mut v = ws.up.write(heap);
                gemm(
                    T::one(),
                    &basis.interp,
                    Transpose::No,
                    &y,
                    Transpose::No,
                    T::zero(),
                    &mut v,
                );
            }
        } else {
            // [v_l; v_r], stacked in a factorization-scratch buffer.
            let (l, r) = comp.tree.children(heap);
            let vl = ws.up.read(l);
            let vr = ws.up.read(r);
            let cols = vl.cols();
            let mut buf = take_scratch::<T>();
            for c in 0..cols {
                buf.extend_from_slice(vl.col(c));
                buf.extend_from_slice(vr.col(c));
            }
            let mut vstack = DenseMatrix::from_vec(vl.rows() + vr.rows(), cols, buf);
            drop((vl, vr));
            let mut z = ws.local.write(heap);
            gemm(
                T::one(),
                &nf.w,
                Transpose::No,
                &vstack,
                Transpose::No,
                T::zero(),
                &mut z,
            );
            if let Some(basis) = comp.basis(heap) {
                // v = E^T (vstack - G_hat z).
                gemm(
                    -T::one(),
                    &nf.gstack,
                    Transpose::No,
                    &z,
                    Transpose::No,
                    T::one(),
                    &mut vstack,
                );
                let mut v = ws.up.write(heap);
                gemm(
                    T::one(),
                    &basis.interp,
                    Transpose::No,
                    &vstack,
                    Transpose::No,
                    T::zero(),
                    &mut v,
                );
            }
            give_scratch(vstack);
        }
        Ok(())
    }

    /// Push corrections (`down` holds `delta`) toward the leaves and fold
    /// them into `x`.
    fn sweep_down(
        factor: &Factor<'_, T, Self>,
        ws: &SolveWorkspace<T>,
        heap: usize,
    ) -> Result<(), Error> {
        let comp = &*factor.comp;
        let nf = &factor.nodes[heap];
        let is_root = heap == 0;
        if comp.tree.is_leaf(heap) {
            let y = ws.local.read(heap);
            let mut x = ws.x.write(heap);
            x.data_mut().copy_from_slice(y.data());
            drop(y);
            if !is_root {
                let delta = ws.down.read(heap);
                gemm(
                    -T::one(),
                    &nf.yu,
                    Transpose::No,
                    &delta,
                    Transpose::No,
                    T::one(),
                    &mut x,
                );
            }
        } else {
            // gamma = z + (E - W G_hat E) delta in a factorization-scratch
            // buffer, split between the children.
            let z = ws.local.read(heap);
            let mut buf = take_scratch::<T>();
            buf.extend_from_slice(z.data());
            let mut gamma = DenseMatrix::from_vec(z.rows(), z.cols(), buf);
            drop(z);
            if !is_root {
                let delta = ws.down.read(heap);
                gemm(
                    T::one(),
                    &nf.down,
                    Transpose::No,
                    &delta,
                    Transpose::No,
                    T::one(),
                    &mut gamma,
                );
            }
            // Copied into the pooled `down` cells, so a recycled workspace
            // keeps their allocations.
            let (l, r) = comp.tree.children(heap);
            let mut dl = ws.down.write(l);
            for c in 0..gamma.cols() {
                dl.col_mut(c).copy_from_slice(&gamma.col(c)[..nf.split]);
            }
            drop(dl);
            let mut dr = ws.down.write(r);
            for c in 0..gamma.cols() {
                dr.col_mut(c).copy_from_slice(&gamma.col(c)[nf.split..]);
            }
            drop(dr);
            give_scratch(gamma);
        }
        Ok(())
    }
}
