"""Ranking quality (MAP), embedding stability constants, anomaly deltas,
and the warm-start speedup model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dyngem import kernels
from dyngem.errors import UndefinedMetricError
from dyngem.graph import GraphSnapshot


def _finite_scores(scores, n):
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (n, n):
        raise ValueError("scores must be (n, n) for the snapshot")
    if not np.isfinite(scores).all():
        raise FloatingPointError("scores hold non-finite values; they cannot be ranked")
    return scores


def _mean_average_precision(scores, truth, excluded=None):
    """MAP over the nodes with at least one neighbour in the ``truth``
    snapshot, ranked as :func:`dyngem.kernels.truth_ranks` ranks them.

    Each node's AP sums ``k / rank`` over its k-th ranked true neighbour and
    divides by its truth count.  The sums are formed one row per node in a
    matrix of the nodes with equally many hits, so each is the same
    pairwise sum as over that node's values alone.
    """
    n = truth.node_count
    indptr, tails, _ = truth.csr_rows(np.arange(n))
    counts = np.diff(indptr)
    heads = np.repeat(np.arange(n), counts)
    ranks = kernels.truth_ranks(np.ascontiguousarray(scores), heads, tails, excluded)
    hit = ranks > 0
    order = np.lexsort((ranks[hit], heads[hit]))
    heads, ranks = heads[hit][order], ranks[hit][order]
    hits = np.bincount(heads, minlength=n)
    first = np.cumsum(hits) - hits
    prec = (np.arange(heads.size) - first[heads] + 1) / ranks
    sums = np.zeros(n)
    for k in np.unique(hits[hits > 0]):
        nodes = np.flatnonzero(hits == k)
        sums[nodes] = prec[first[nodes][:, None] + np.arange(k)].sum(axis=1)
    ranked = counts > 0
    return float(np.mean(sums[ranked] / counts[ranked]))


def eval_reconstruction(scores, snapshot):
    """MAP of neighborhood reconstruction from (n, n) directed scores.

    Every node ranks all other nodes by the mean of their two directed
    scores, and its truth is its neighbor set; nodes without neighbors are
    skipped.  Non-finite scores raise FloatingPointError.
    """
    scores = _finite_scores(scores, snapshot.node_count)
    if snapshot.edge_count == 0:
        raise UndefinedMetricError("reconstruction MAP undefined: the graph has no edges")
    return _mean_average_precision(scores, snapshot)


def eval_link_prediction(scores, train_snapshot, hidden):
    """MAP of ranking the hidden edges among the unobserved pairs.

    Node i ranks every node but itself and its neighbours in the training
    snapshot, scored as in :func:`eval_reconstruction`; its truth is its
    hidden edges.  Nodes without hidden edges are skipped; an empty
    ``hidden`` is an error, and non-finite scores raise FloatingPointError.
    """
    n = train_snapshot.node_count
    scores = _finite_scores(scores, n)
    if not hidden:
        raise UndefinedMetricError("link-prediction MAP undefined: no hidden edges")
    return _mean_average_precision(scores, GraphSnapshot(n, hidden), excluded=train_snapshot)


@dataclass
class StabilityReport:
    """Per-transition stability values, the transitions whose S_rel is
    undefined, and the spread K_S of the defined S_rel values (None when
    fewer than two are defined)."""

    s_abs: list
    s_rel: list
    skipped: list
    k_s: float | None


def _adjacency_norms(curr, nxt):
    """``(||S_{t+1}(V_t) - S_t||_F, ||S_t||_F)`` from the edge lists, V_t the
    nodes of ``curr``.

    Each pair (i, j) of V_t gets the key ``i * n_t + j``; the signed weights
    of both snapshots are summed per key, and every pair counts twice in the
    symmetric adjacency.
    """
    n = curr.node_count
    inside = nxt.tails < n
    keys = np.concatenate([nxt.heads[inside] * n + nxt.tails[inside], curr.heads * n + curr.tails])
    signed = np.concatenate([nxt.weights[inside], -curr.weights])
    _, pair = np.unique(keys, return_inverse=True)
    d = np.bincount(pair, signed)
    return float(np.sqrt(2.0 * np.dot(d, d))), float(np.sqrt(2.0 * np.dot(curr.weights, curr.weights)))


def stability(embeddings, graphs):
    """S_abs and S_rel of every transition over its common nodes V_t, and
    the stability constant K_S.

    ``S_abs = ||F_{t+1}(V_t) - F_t|| / ||S_{t+1}(V_t) - S_t||`` and
    ``S_rel = (||dF|| / ||F_t||) / (||dS|| / ||S_t||)``, Frobenius norms,
    with F_t the embedding and S_t the adjacency of step t.  S_abs is None
    when the adjacency did not change; S_rel is None when any denominator
    is zero, and such transitions are listed in ``skipped``.  K_S is the
    spread (max minus min) of the defined S_rel values.
    """
    if len(embeddings) != len(graphs):
        raise ValueError("embedding series and graph series must share their length")
    s_abs, s_rel = [], []
    for t in range(len(graphs) - 1):
        n = graphs[t].node_count
        f_curr = np.asarray(embeddings[t], dtype=np.float64)
        f_next = np.asarray(embeddings[t + 1], dtype=np.float64)[:n]
        if f_curr.shape[0] != n or f_next.shape != f_curr.shape:
            raise ValueError(f"step {t}: embeddings must hold one row per node of the snapshot")
        ds, ns = _adjacency_norms(graphs[t], graphs[t + 1])
        df = float(np.linalg.norm(f_next - f_curr))
        nf = float(np.linalg.norm(f_curr))
        s_abs.append(df / ds if ds else None)
        s_rel.append((df / nf) / (ds / ns) if nf and ns and ds else None)
    skipped = [t for t, r in enumerate(s_rel) if r is None]
    defined = [r for r in s_rel if r is not None]
    k_s = float(max(defined) - min(defined)) if len(defined) >= 2 else None
    return StabilityReport(s_abs, s_rel, skipped, k_s)


def anomaly_series(embeddings):
    """Embedding deltas ||F_{t+1}(V_t) - F_t(V_t)||_F for each transition.

    ``embeddings`` is a list of matrices, one per step.  V_t, the node set
    of step t, is the row set of F_t.
    """
    if len(embeddings) < 2:
        raise UndefinedMetricError("anomaly deltas need at least two steps")
    deltas = []
    for t in range(len(embeddings) - 1):
        m = embeddings[t].shape[0]
        deltas.append(float(np.linalg.norm(embeddings[t + 1][:m] - embeddings[t])))
    return np.array(deltas)


@dataclass
class AnomalyReport:
    """Deltas, the threshold applied, and the flagged transition indices."""

    deltas: np.ndarray
    threshold: float
    flagged: list


def flag_anomalies(deltas, rule="std", factor=2.0, threshold=None):
    """Flag transitions whose delta strictly exceeds a threshold.

    ``rule == 'std'`` uses mean + factor * population std of the deltas;
    ``rule == 'absolute'`` uses the given threshold directly.  ``deltas``
    is a list or array of the per-transition deltas.
    """
    deltas = np.asarray(deltas, dtype=np.float64)
    if deltas.size == 0:
        raise UndefinedMetricError("no deltas to flag")
    if rule == "std":
        if deltas.size < 2:
            raise UndefinedMetricError("statistical rule needs at least two deltas")
        cut = float(deltas.mean() + factor * deltas.std())
    elif rule == "absolute":
        if threshold is None:
            raise ValueError("absolute rule needs a threshold")
        cut = float(threshold)
    else:
        raise ValueError(f"unknown rule {rule!r}")
    flagged = [int(t) for t in np.nonzero(deltas > cut)[0]]
    return AnomalyReport(deltas, cut, flagged)


def expected_speedup(n_s, n_i, big_t):
    """Iteration-count speedup T*n_s / (n_s + (T-1)*n_i) of warm starting.

    ``n_s`` is the cold-start iteration count, ``n_i`` the warm-start count
    per later step, ``big_t`` the number of snapshots.
    """
    if n_s < 1 or n_i < 1 or big_t < 1:
        raise ValueError("n_s, n_i and T must all be at least 1")
    return big_t * n_s / (n_s + (big_t - 1) * n_i)
