"""Ranking quality (MAP), embedding stability constants, anomaly deltas,
and the warm-start speedup model."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dyngem.errors import UndefinedMetricError


def _finite_scores(scores, n):
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (n, n):
        raise ValueError("scores must be (n, n) for the snapshot")
    if not np.isfinite(scores).all():
        raise FloatingPointError("scores hold non-finite values; they cannot be ranked")
    return scores


def _ap_from_row(scores_row, candidates, truth_idx):
    order = np.lexsort((candidates, -scores_row[candidates]))
    ranked = candidates[order]
    hits = np.isin(ranked, truth_idx)
    if not hits.any():
        return 0.0
    prec = np.cumsum(hits) / np.arange(1, ranked.size + 1)
    return float(prec[hits].sum() / truth_idx.size)


def eval_reconstruction(scores, snapshot):
    """MAP of neighborhood reconstruction from a symmetric pair-score matrix.

    For every node the candidates are all other nodes and the truth is its
    neighbor set; nodes without neighbors are skipped.  Non-finite scores
    raise FloatingPointError.
    """
    n = snapshot.node_count
    scores = _finite_scores(scores, n)
    everyone = np.arange(n)
    values = []
    for i in range(n):
        truth, _ = snapshot.neighbors(i)
        if truth.size == 0:
            continue
        candidates = np.delete(everyone, i)
        values.append(_ap_from_row(scores[i], candidates, truth))
    if not values:
        raise UndefinedMetricError("reconstruction MAP undefined: the graph has no edges")
    return float(np.mean(values))


def eval_link_prediction(scores, train_snapshot, hidden):
    """MAP of ranking the hidden edges among the unobserved pairs.

    Candidates for node i exclude i itself and every edge present in the
    training snapshot; the truth is the hidden edges incident to i.  Nodes
    without hidden edges are skipped; an empty ``hidden`` is an error, and
    non-finite scores raise FloatingPointError.
    """
    n = train_snapshot.node_count
    scores = _finite_scores(scores, n)
    if not hidden:
        raise UndefinedMetricError("link-prediction MAP undefined: no hidden edges")
    truth_of = {}
    for i, j, _ in hidden:
        truth_of.setdefault(i, []).append(j)
        truth_of.setdefault(j, []).append(i)
    everyone = np.arange(n)
    values = []
    for i in sorted(truth_of):
        observed, _ = train_snapshot.neighbors(i)
        drop = np.zeros(n, dtype=bool)
        drop[i] = True
        drop[observed] = True
        candidates = everyone[~drop]
        truth = np.array(sorted(truth_of[i]), dtype=np.intp)
        values.append(_ap_from_row(scores[i], candidates, truth))
    return float(np.mean(values))


def stability_absolute(f_next, f_curr, s_next, s_curr):
    """||F_{t+1} - F_t||_F / ||S_{t+1} - S_t||_F over the common nodes.

    Returns None (undefined) when the adjacency did not change.
    """
    f_next, f_curr, s_next, s_curr = (np.asarray(a, dtype=np.float64) for a in (f_next, f_curr, s_next, s_curr))
    if f_next.shape != f_curr.shape or s_next.shape != s_curr.shape:
        raise ValueError("matrix pairs must share their shapes")
    ds = float(np.linalg.norm(s_next - s_curr))
    if ds == 0.0:
        return None
    return float(np.linalg.norm(f_next - f_curr)) / ds


def stability_relative(f_next, f_curr, s_next, s_curr):
    """Relative embedding drift over relative adjacency drift.

    ``(||dF|| / ||F_t||) / (||dS|| / ||S_t||)``; None when any required
    denominator is zero.
    """
    f_next, f_curr, s_next, s_curr = (np.asarray(a, dtype=np.float64) for a in (f_next, f_curr, s_next, s_curr))
    if f_next.shape != f_curr.shape or s_next.shape != s_curr.shape:
        raise ValueError("matrix pairs must share their shapes")
    nf = float(np.linalg.norm(f_curr))
    ns = float(np.linalg.norm(s_curr))
    ds = float(np.linalg.norm(s_next - s_curr))
    if nf == 0.0 or ns == 0.0 or ds == 0.0:
        return None
    return (float(np.linalg.norm(f_next - f_curr)) / nf) / (ds / ns)


@dataclass
class StabilityReport:
    """Per-transition stability values plus the spread of the defined ones
    (None until it is known to be defined)."""

    s_abs: list
    s_rel: list
    skipped: list
    k_s: float | None


def stability_transitions(embeddings, graphs):
    """Per-step S_abs and S_rel over each transition's common nodes, as a
    StabilityReport with ``k_s`` None.

    ``embeddings`` is a list of matrices, one per step.  Transitions with an
    undefined S_rel are listed in ``skipped``.
    """
    if len(embeddings) != len(graphs):
        raise ValueError("embedding series and graph series must share their length")
    s_abs, s_rel = [], []
    for t in range(len(graphs) - 1):
        common = np.arange(graphs[t].node_count)
        views = (embeddings[t + 1][: common.size], embeddings[t],
                 graphs[t + 1].induced_adjacency(common), graphs[t].induced_adjacency(common))
        s_abs.append(stability_absolute(*views))
        s_rel.append(stability_relative(*views))
    skipped = [t for t, r in enumerate(s_rel) if r is None]
    return StabilityReport(s_abs, s_rel, skipped, None)


def stability_constant(embeddings, graphs):
    """:func:`stability_transitions` plus the stability constant K_S, the
    spread (max minus min) of the defined S_rel values.  Fewer than two
    defined values leave K_S undefined (error).
    """
    report = stability_transitions(embeddings, graphs)
    defined = [r for r in report.s_rel if r is not None]
    if len(defined) < 2:
        raise UndefinedMetricError(
            "stability constant undefined: fewer than two defined S_rel values"
        )
    report.k_s = float(max(defined) - min(defined))
    return report


def anomaly_series(embeddings, graphs=None):
    """Embedding deltas ||F_{t+1}(V_t) - F_t(V_t)||_F for each transition.

    ``embeddings`` is a list of matrices, one per step.  V_t, the node set
    of step t, is the row set of F_t; ``graphs``, when given, must match
    the series in length.
    """
    if graphs is not None and len(embeddings) != len(graphs):
        raise ValueError("embedding series and graph series must share their length")
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
