"""Pure-Python (numpy) implementations of the hot loops.

Selected by :mod:`dyngem.kernels` when the compiled library is missing or
disabled, and the reference the compiled kernels in ``_libkernels.c`` are
tested against.  Every loop but ``jacobi_sweeps`` is bit-equal to its
compiled twin: each sum is added in the C loop's order.  ``jacobi_sweeps``
may differ from it in the last bits, because numpy's dot products add in
another order.
"""

from __future__ import annotations

import math

import numpy as np

# truth_ranks compares blocks of this many score entries (1 MB of float64);
# at n = 2,000 the time is flat from 2^16 to 2^19
RANK_BLOCK_ELEMENTS = 1 << 17


def _in_order_sum(a):
    """The sum of the vector ``a`` added in element order, as the C loops add
    (``np.sum`` adds pairwise)."""
    return float(np.cumsum(a)[-1]) if a.size else 0.0


def gf_epoch(y, heads, tails, weights, order, lr, lam):
    """One epoch of per-edge SGD for graph factorization, updating y in place.

    For each edge (i, j, w) visited in ``order``:
    r = w - <y_i, y_j>, then y_i += 2*lr*(r*y_j - lam*y_i) and symmetrically
    for y_j, both computed from the pre-update rows.
    """
    two_lr = 2.0 * lr
    for k in order:
        i = heads[k]
        j = tails[k]
        yi = y[i].copy()
        yj = y[j].copy()
        r = weights[k] - _in_order_sum(yi * yj)
        y[i] += two_lr * (r * yj - lam * yi)
        y[j] += two_lr * (r * yi - lam * yj)


def penalty_pass(w, g, nu1, nu2):
    """Add the gradient ``nu1 * sign(w) + 2 * nu2 * w`` of the weight penalty
    into ``g`` in place, for vectors ``w`` and ``g`` of one length; returns
    ``(sum|w|, sum w^2)``, each added in element order.  sign(0) is 0."""
    if g.size != w.size:
        raise ValueError("w and g must have one length")
    penalty = np.sign(w)
    penalty *= nu1
    penalty += w * (2.0 * nu2)
    g += penalty
    return _in_order_sum(np.abs(w)), _in_order_sum(w * w)


def nesterov_update(p, g, v, lr, mu):
    """The Nesterov step of the parameters ``p``, in place with their velocity
    ``v``, for the gradient ``g``: v <- mu*v - lr*g, then p <- p + mu*v - lr*g."""
    if not p.size == g.size == v.size:
        raise ValueError("p, g and v must have one length")
    step = g * lr
    v *= mu
    v -= step
    p += v * mu
    p -= step


def jacobi_sweeps(g, v, tol, max_sweeps):
    """One-sided Jacobi orthogonalization of the columns of g, in place.

    Accumulates the applied rotations into v (so g_in @ v == g_out holds up
    to rounding).  Returns the number of completed sweeps, or -1 if some
    column pair still violated the tolerance after ``max_sweeps`` sweeps.
    A pair (p, q) is converged when |g_p . g_q| <= tol * |g_p| * |g_q|.

    Columns whose norm decays below eps * ||g_in||_F are zeroed and skipped:
    the relative test can never settle for them (rotations bleed their mass
    away indefinitely), and their contribution is below roundoff anyway.
    """
    d = g.shape[1]
    eps = 2.220446049250313e-16
    fro2 = 0.0
    for j in range(d):
        fro2 += float(g[:, j] @ g[:, j])
    cut2 = eps * eps * fro2
    for sweep in range(max_sweeps):
        for j in range(d):
            nj = float(g[:, j] @ g[:, j])
            if 0.0 < nj <= cut2:
                g[:, j] = 0.0
        rotated = 0
        for p in range(d - 1):
            for q in range(p + 1, d):
                gp = g[:, p]
                gq = g[:, q]
                app = float(gp @ gp)
                aqq = float(gq @ gq)
                if app == 0.0 or aqq == 0.0:
                    continue
                apq = float(gp @ gq)
                if abs(apq) <= tol * math.sqrt(app * aqq):
                    continue
                rotated += 1
                zeta = (aqq - app) / (2.0 * apq)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                new_p = c * gp - s * gq
                new_q = s * gp + c * gq
                g[:, p] = new_p
                g[:, q] = new_q
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
        if rotated == 0:
            return sweep
    return -1


def truth_ranks(scores, heads, tails, excluded):
    """Rank of each true pair ``(heads[e], tails[e])`` in its head's ranking.

    Node i ranks every other node that is not its neighbour in ``excluded``
    (a snapshot, or None) by descending score, ties broken by ascending id,
    so a pair's rank is one more than the number of candidates that score
    higher plus the number that tie with it and have a lower id.  A pair
    whose tail is no candidate gets rank 0.  Pairs are taken in blocks, each
    row compared once per pair.
    """
    n = scores.shape[0]
    ids = np.arange(n)
    ranks = np.empty(heads.size, dtype=np.intp)
    step = max(1, RANK_BLOCK_ELEMENTS // max(n, 1))
    for start in range(0, heads.size, step):
        h, t = heads[start : start + step], tails[start : start + step]
        pairs = np.arange(h.size)
        rows = scores[h]
        s = rows[pairs, t][:, None]
        ahead = rows > s
        ahead |= (rows == s) & (ids < t[:, None])
        ahead[pairs, h] = False
        blocked = np.zeros(h.size, dtype=bool)
        if excluded is not None:
            indptr, cols, _ = excluded.csr_rows(h)
            owner = np.repeat(pairs, np.diff(indptr))
            ahead[owner, cols] = False
            blocked[owner[cols == t[owner]]] = True
        ranks[start : start + step] = np.where(blocked, 0, np.count_nonzero(ahead, axis=1) + 1)
    return ranks


def _check_columns(x):
    if x.indices.size and (x.indices.min() < 0 or x.indices.max() >= x.shape[1]):
        raise IndexError("a column index of the sparse rows is out of range")


def csr_matmul(x, wt):
    """``X @ wt`` for the sparse rows ``x`` (CSR ``indptr``, ``indices``,
    ``values`` and ``shape`` (k, n)) and a dense (n, h) ``wt``.

    Each output row starts at zero and adds ``v * wt[j]`` for the row's
    non-zeros (j, v) in order, as the C loop does; here the p-th non-zero of
    every row is added at once.  Raises IndexError when a column index is
    out of range.
    """
    k, n = x.shape
    if wt.ndim != 2 or wt.shape[0] != n:
        raise ValueError("wt must have one row per column of x")
    _check_columns(x)
    out = np.zeros((k, wt.shape[1]))
    counts = np.diff(x.indptr)
    rows = np.arange(k)
    for p in range(counts.max(initial=0)):
        rows = rows[counts[rows] > p]
        at = x.indptr[rows] + p
        out[rows] += x.values[at, None] * wt[x.indices[at]]
    return out


def csr_tmatmul(x, g):
    """``X.T @ g`` for the sparse rows ``x`` (k, n) and a dense (k, h) ``g``.

    The (n, h) output starts at zero, and each row i in order adds
    ``v * g[i]`` into row j for its non-zeros (j, v) in order, as the C loop
    does; here the r-th occurrence of every column is added at once, found
    by a stable sort of the non-zeros by column.  Raises IndexError when a
    column index is out of range.
    """
    k, n = x.shape
    if g.ndim != 2 or g.shape[0] != k:
        raise ValueError("g must have one row per row of x")
    _check_columns(x)
    out = np.zeros((n, g.shape[1]))
    owner = np.repeat(np.arange(k), np.diff(x.indptr))
    by_column = np.argsort(x.indices, kind="stable")
    cols = x.indices[by_column]
    occurrence = np.arange(cols.size) - np.searchsorted(cols, cols)
    for r in range(occurrence.max(initial=-1) + 1):
        at = by_column[occurrence == r]
        out[x.indices[at]] += x.values[at, None] * g[owner[at]]
    return out
