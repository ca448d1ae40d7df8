"""Backend selection for the numerical hot loops, plus the Jacobi SVD driver.

Seven loops are compiled: ``gf_epoch``, ``truth_ranks`` (the rank of each
true pair, which every MAP counts), ``jacobi_sweeps``, the first encoder
layer's two products with sparse input rows, ``csr_matmul`` (X Wᵀ) and
``csr_tmatmul`` (Gᵀ X), and the two passes over every parameter of a
training batch, ``penalty_pass`` (the L1 + L2 weight penalty) and
``nesterov_update``.  The C kernels
(``_libkernels.c``, built on first import and bound by ``_kernels``) are used
wherever a C compiler is on ``PATH``; without one, or when the library cannot
be built or cached, the pure-numpy fallback in ``_kernels_py`` is used, as it
is when the environment variable ``DYNGEM_PURE_PYTHON=1`` is set before
import.  ``BACKEND`` names the active implementation.  Every loop but
``jacobi_sweeps`` gives the same bits on both, so eval reports, GF
embeddings and autoencoder training do not depend on the backend; Jacobi
rotations, and so aligned embeddings, may differ in their last bits.
"""

from __future__ import annotations

import os

import numpy as np

from dyngem.errors import ConvergenceError

if os.environ.get("DYNGEM_PURE_PYTHON") == "1":
    from dyngem import _kernels_py as _impl

    BACKEND = "python"
else:
    try:
        from dyngem import _kernels as _impl

        BACKEND = "compiled"
    except ImportError:
        from dyngem import _kernels_py as _impl

        BACKEND = "python"

gf_epoch = _impl.gf_epoch
truth_ranks = _impl.truth_ranks
csr_matmul = _impl.csr_matmul
csr_tmatmul = _impl.csr_tmatmul
penalty_pass = _impl.penalty_pass
nesterov_update = _impl.nesterov_update
jacobi_sweeps = _impl.jacobi_sweeps


def _complete_basis(u, null_cols):
    """Fill the marked columns of u with unit vectors orthogonal to the rest.

    Greedy: per column, the identity candidate with the largest residual
    after projecting out the current columns (any fixed fraction threshold
    can reject every candidate when the residual mass spreads evenly).
    """
    d = u.shape[0]
    for j in null_cols:
        residuals = np.eye(d) - u @ (u.T @ np.eye(d))
        best = int(np.argmax(np.linalg.norm(residuals, axis=0)))
        w = residuals[:, best]
        w -= u @ (u.T @ w)  # re-orthogonalize once for numerical safety
        norm = float(np.linalg.norm(w))
        if norm <= np.sqrt(np.finfo(np.float64).eps):
            raise ConvergenceError("could not complete an orthogonal basis")
        u[:, j] = w / norm


def jacobi_svd(m, tol=1e-12, max_sweeps=100):
    """Full SVD of a square matrix by one-sided Jacobi rotations.

    Returns ``(u, s, vt)`` with ``m == u @ diag(s) @ vt``, singular values in
    descending order and both factors orthogonal (rank-deficient inputs get
    their null columns completed to an orthonormal basis).  Raises
    ConvergenceError if the off-diagonal tolerance is still violated after
    ``max_sweeps`` sweeps.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("jacobi_svd expects a square 2-D matrix")
    d = a.shape[0]
    g = np.ascontiguousarray(a.copy())
    v = np.eye(d)
    if d > 1:
        sweeps = jacobi_sweeps(g, v, tol, max_sweeps)
        if sweeps < 0:
            raise ConvergenceError(f"Jacobi SVD did not converge within {max_sweeps} sweeps")
    s = np.sqrt(np.einsum("ij,ij->j", g, g))
    order = np.argsort(-s, kind="stable")
    g, v, s = g[:, order], v[:, order], s[order]
    u = np.zeros_like(g)
    cutoff = d * np.finfo(np.float64).eps * (s[0] if s.size else 0.0)
    nonnull = s > cutoff
    u[:, nonnull] = g[:, nonnull] / s[nonnull]
    if not nonnull.all():
        _complete_basis(u, np.nonzero(~nonnull)[0])
    return u, s, v.T
