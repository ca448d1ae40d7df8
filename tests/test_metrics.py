from __future__ import annotations

import numpy as np
import pytest

from dyngem.errors import UndefinedMetricError
from dyngem.graph import GraphSnapshot, hide_edges
from dyngem import _kernels_py, kernels
from dyngem.metrics import (
    anomaly_series,
    eval_link_prediction,
    eval_reconstruction,
    expected_speedup,
    flag_anomalies,
    stability,
)
from helpers import (
    ap_from_row,
    exhaustive_ap,
    map_oracle,
    neighbors,
    random_snapshot,
    random_symmetric_scores,
    stability_oracle,
)


def test_eval_reconstruction_breaks_ties_by_id():
    # all scores tie: node 0 ranks [1, 2, 3] and finds 3 last, node 3 ranks
    # [0, 1, 2] and finds 0 first
    snap = GraphSnapshot(4, [(0, 3, 1.0)])
    assert eval_reconstruction(np.zeros((4, 4)), snap) == pytest.approx((1 / 3 + 1.0) / 2, abs=1e-15)


def test_eval_reconstruction_rejects_non_finite_scores():
    snap = GraphSnapshot(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
    scores = snap.dense_rows(np.arange(5))
    assert eval_reconstruction(scores, snap) == 1.0
    nan_row = scores.copy()
    nan_row[2, :] = nan_row[:, 2] = np.nan
    for bad in (np.full((5, 5), np.nan), nan_row, np.where(scores > 0, np.inf, 0.0)):
        with pytest.raises(FloatingPointError):
            eval_reconstruction(bad, snap)


def test_eval_link_prediction_rejects_non_finite_scores():
    train = GraphSnapshot(4, [(0, 1, 1.0)])
    scores = np.zeros((4, 4))
    scores[3, 3] = np.nan  # never ranked, still a broken score matrix
    with pytest.raises(FloatingPointError):
        eval_link_prediction(scores, train, [(0, 2, 1.0)])
    with pytest.raises(FloatingPointError):
        eval_link_prediction(np.full((4, 4), -np.inf), train, [(0, 2, 1.0)])


def test_average_precision_hand_case():
    # candidates 2, 5, 7, 9 ranked [5, 2, 7, 9]; truths at ranks 1 and 3: (1/1 + 2/3) / 2
    row = np.array([0, 0, 3.0, 0, 0, 4.0, 0, 2.0, 0, 1.0])
    candidates = np.array([2, 5, 7, 9])
    assert ap_from_row(row, candidates, np.array([5, 7])) == pytest.approx(5 / 6, abs=1e-15)
    # a truth missing from the ranking still counts in the denominator
    assert ap_from_row(row, candidates, np.array([5, 99])) == pytest.approx(0.5)
    assert ap_from_row(row, candidates, np.array([99])) == 0.0


def test_map_skips_empty_truths():
    # node 0 ranks [2, 1, 3] (AP 1/2), node 1 ranks [0, ...] (AP 1); the
    # isolated nodes 2 and 3 contribute nothing
    snap = GraphSnapshot(4, [(0, 1, 1.0)])
    scores = np.zeros((4, 4))
    scores[0, 2] = scores[2, 0] = 2.0
    scores[0, 1] = scores[1, 0] = 1.0
    assert eval_reconstruction(scores, snap) == pytest.approx(0.75, abs=1e-15)
    with pytest.raises(UndefinedMetricError):
        eval_reconstruction(np.zeros((4, 4)), GraphSnapshot(4))


def test_map_matches_exhaustive_oracle():
    # scores rounded to one decimal, so ties are frequent
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        scores = np.round(random_symmetric_scores(rng, n), 1)
        for i in range(n):
            candidates = [c for c in range(n) if c != i]
            truth = {c for c in candidates if rng.random() < 0.5}
            expected = exhaustive_ap(scores[i], candidates, truth)
            if expected is None:
                continue
            got = ap_from_row(scores[i], np.array(candidates), np.array(sorted(truth)))
            assert got == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("pairs_per_block", [None, 3])
def test_map_equals_the_per_node_sort_bit_for_bit(monkeypatch, pairs_per_block):
    # scores rounded to one decimal tie often; degrees reach past 128, where
    # numpy's pairwise sum starts to split
    rng = np.random.default_rng(21)
    n = 300
    snap = random_snapshot(rng, n, p=0.5)
    assert max(neighbors(snap, i)[0].size for i in range(n)) > 128
    scores = np.round(random_symmetric_scores(rng, n), 1)
    scores[:, :40] = scores[:40, :] = 0.0
    if pairs_per_block is not None:
        # the numpy ranking, over blocks of a few pairs
        monkeypatch.setattr(kernels, "truth_ranks", _kernels_py.truth_ranks)
        monkeypatch.setattr(_kernels_py, "RANK_BLOCK_ELEMENTS", pairs_per_block * n)
    everyone = np.arange(n)
    truth = {i: neighbors(snap, i)[0] for i in range(n) if neighbors(snap, i)[0].size}
    expected = map_oracle(scores, lambda i: np.delete(everyone, i), truth)
    assert eval_reconstruction(scores, snap) == expected

    train, hidden = hide_edges(snap, 0.2, seed=4)
    # a hidden edge left in the training snapshot is no candidate: it counts
    # only in its nodes' truth sizes
    train_edges = train.edges()
    hidden_kept = sorted(hidden + train_edges[:: len(train_edges) // 25])

    def candidates_of(i):
        drop = np.zeros(n, dtype=bool)
        drop[i] = True
        drop[neighbors(train, i)[0]] = True
        return everyone[~drop]

    for split in (hidden, hidden_kept):
        truth = {}
        for i, j, _ in split:
            truth.setdefault(i, []).append(j)
            truth.setdefault(j, []).append(i)
        truth = {i: np.array(sorted(js)) for i, js in truth.items()}
        assert eval_link_prediction(scores, train, split) == map_oracle(scores, candidates_of, truth)


def test_map_invariant_under_monotone_transform():
    rng = np.random.default_rng(12)
    scores = random_symmetric_scores(rng, 8)
    snap = random_snapshot(rng, 8)
    base = eval_reconstruction(scores, snap)
    warped = eval_reconstruction(np.exp(3.0 * scores) + 1.0, snap)
    assert warped == pytest.approx(base, abs=1e-12)


def test_eval_reconstruction_perfect_when_scoring_by_adjacency():
    snap = GraphSnapshot(5, [(0, 1, 1.0), (1, 2, 2.0), (3, 4, 0.5)])
    scores = snap.dense_rows(np.arange(5))
    assert eval_reconstruction(scores, snap) == 1.0


def test_eval_reconstruction_skips_isolated_and_validates():
    snap = GraphSnapshot(4, [(0, 1, 1.0)])  # nodes 2 and 3 are isolated
    scores = snap.dense_rows(np.arange(4))
    assert eval_reconstruction(scores, snap) == 1.0
    with pytest.raises(UndefinedMetricError):
        eval_reconstruction(np.zeros((3, 3)), GraphSnapshot(3))
    with pytest.raises(ValueError):
        eval_reconstruction(np.zeros((2, 2)), snap)


def test_eval_link_prediction_hand_case():
    train = GraphSnapshot(4, [(0, 1, 1.0)])
    hidden = [(0, 2, 1.0), (1, 3, 1.0)]
    scores = np.zeros((4, 4))
    for i, j, _ in hidden:
        scores[i, j] = scores[j, i] = 5.0
    assert eval_link_prediction(scores, train, hidden) == 1.0
    # the observed edge is not a candidate, so its score is irrelevant
    scores[0, 1] = scores[1, 0] = 100.0
    assert eval_link_prediction(scores, train, hidden) == 1.0
    # push one hidden edge below a non-edge: node 0 ranks [3, 2], AP 1/2
    scores2 = np.zeros((4, 4))
    scores2[0, 2] = scores2[2, 0] = 1.0
    scores2[0, 3] = scores2[3, 0] = 5.0
    got = eval_link_prediction(scores2, train, [(0, 2, 1.0)])
    assert got == pytest.approx((0.5 + 1.0) / 2)  # nodes 0 and 2
    with pytest.raises(UndefinedMetricError):
        eval_link_prediction(scores, train, [])


def test_eval_link_prediction_agrees_with_oracle_on_random_splits():
    rng = np.random.default_rng(13)
    for trial in range(60):
        snap = random_snapshot(rng, 6, p=0.6)
        if snap.edge_count < 2:
            continue
        train, hidden = hide_edges(snap, 0.5, seed=trial)
        if not hidden:
            continue
        scores = random_symmetric_scores(rng, 6)
        truth_of = {}
        for i, j, _ in hidden:
            truth_of.setdefault(i, set()).add(j)
            truth_of.setdefault(j, set()).add(i)
        expected = []
        for i in sorted(truth_of):
            observed, _ = neighbors(train, i)
            candidates = [c for c in range(6) if c != i and c not in set(observed.tolist())]
            expected.append(exhaustive_ap(scores[i], candidates, truth_of[i]))
        assert eval_link_prediction(scores, train, hidden) == pytest.approx(
            float(np.mean(expected)), abs=1e-12
        )


def _pair(w=None):
    """Two nodes, joined by an edge of weight ``w`` unless it is None."""
    return GraphSnapshot(2, [] if w is None else [(0, 1, w)])


def test_stability_absolute_hand_case():
    # ||dF|| = 5 against ||dS|| = sqrt(2) * 2.5
    rep = stability([np.zeros((2, 2)), np.array([[3.0, 4.0], [0.0, 0.0]])], [_pair(), _pair(2.5)])
    assert rep.s_abs == pytest.approx([np.sqrt(2.0)], abs=1e-15)
    assert rep.s_rel == [None]  # ||F_t|| = ||S_t|| = 0
    rep = stability([np.zeros((2, 1)), np.ones((2, 1))], [_pair(1.0), _pair(1.0)])
    assert rep.s_abs == [None] and rep.s_rel == [None]
    with pytest.raises(ValueError):
        stability([np.ones((2, 1)), np.ones((2, 2))], [_pair(), _pair(1.0)])


def test_stability_relative_hand_case():
    # (1/2) / (2/4)
    f_curr, f_next = np.array([[2.0, 0.0], [0.0, 0.0]]), np.array([[3.0, 0.0], [0.0, 0.0]])
    assert stability([f_curr, f_next], [_pair(4.0), _pair(6.0)]).s_rel == pytest.approx([1.0], abs=1e-15)
    assert stability([f_curr, f_next], [_pair(), _pair(2.0)]).s_rel == [None]  # ||S_t|| = 0
    assert stability([f_curr, f_next], [_pair(2.0), _pair(2.0)]).s_rel == [None]  # dS = 0


def _random_pair_of_steps(rng, n):
    """Embeddings and weighted graphs of one transition over n nodes that
    share their edge set and differ in its weights."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    graphs = [GraphSnapshot(n, [(i, j, float(rng.uniform(0.5, 2.0))) for i, j in edges]) for _ in range(2)]
    f_curr = rng.standard_normal((n, 3))
    return [f_curr, f_curr + rng.normal(0, 0.1, (n, 3))], graphs


def test_stability_relative_scale_invariance():
    rng = np.random.default_rng(14)
    embeddings, graphs = _random_pair_of_steps(rng, 6)
    base = stability(embeddings, graphs).s_rel[0]
    scaled = [GraphSnapshot(6, [(i, j, 3 * w) for i, j, w in g.edges()]) for g in graphs]
    assert stability([7 * f for f in embeddings], graphs).s_rel[0] == pytest.approx(base)
    assert stability(embeddings, scaled).s_rel[0] == pytest.approx(base)


def test_stability_values_invariant_under_node_relabeling():
    rng = np.random.default_rng(15)
    embeddings, graphs = _random_pair_of_steps(rng, 5)
    perm = rng.permutation(5)  # node perm[k] becomes node k
    where = np.argsort(perm)
    relabeled = [GraphSnapshot(5, [(int(where[i]), int(where[j]), w) for i, j, w in g.edges()]) for g in graphs]
    base = stability(embeddings, graphs)
    moved = stability([f[perm] for f in embeddings], relabeled)
    assert moved.s_abs == pytest.approx(base.s_abs, abs=1e-12)
    assert moved.s_rel == pytest.approx(base.s_rel, abs=1e-12)


def test_stability_matches_the_dense_adjacency_oracle():
    """A growing series with non-unit weights, a transition whose
    adjacency over V_t does not change (only new nodes gain edges) and one
    from a zero embedding."""
    rng = np.random.default_rng(16)
    sizes = (6, 9, 9, 12, 12, 15)
    graphs = []
    for t, n in enumerate(sizes):
        edges = {(i, j): float(rng.uniform(0.3, 3.0)) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4}
        if t == 3:  # step 3 adds only edges at its new nodes
            edges = {**{(i, j): w for i, j, w in graphs[2].edges()},
                     **{(i, j): w for (i, j), w in edges.items() if j >= sizes[2]}}
        graphs.append(GraphSnapshot(n, edges))
    embeddings = [rng.standard_normal((n, 4)) for n in sizes]
    embeddings[4] = np.zeros((sizes[4], 4))
    rep = stability(embeddings, graphs)
    s_abs, s_rel = stability_oracle(embeddings, graphs)
    assert rep.skipped == [2, 4]
    assert s_abs[2] is None and s_rel[4] is None and s_abs[4] is not None
    for got, want in zip(rep.s_abs + rep.s_rel, s_abs + s_rel):
        assert (got is None) == (want is None)
        if want is not None:
            assert got == pytest.approx(want, rel=1e-12, abs=0)
    defined = [r for r in s_rel if r is not None]
    assert rep.k_s == pytest.approx(max(defined) - min(defined), rel=1e-12, abs=0)


def _weighted_pair_series(weights):
    return [GraphSnapshot(2, [(0, 1, w)]) for w in weights]


def test_stability_constant_spread_hand_case():
    # rel drifts 1.0, 3.5, 2.0 by construction: K_S = 3.5 - 1.0
    graphs = _weighted_pair_series([1.0, 2.0, 1.0, 2.0])
    embeddings = [
        np.array([[1.0], [0.0]]),
        np.array([[2.0], [0.0]]),
        np.array([[5.5], [0.0]]),
        np.array([[16.5], [0.0]]),
    ]
    rep = stability(embeddings, graphs)
    assert rep.s_rel == pytest.approx([1.0, 3.5, 2.0], abs=1e-12)
    assert rep.k_s == pytest.approx(2.5, abs=1e-12)
    assert rep.skipped == []
    assert rep.s_abs[0] == pytest.approx(1.0 / np.sqrt(2))


def test_stability_constant_skips_static_transitions():
    graphs = _weighted_pair_series([1.0, 1.0, 2.0, 1.0])
    embeddings = [np.array([[float(t)], [0.0]]) for t in range(4)]
    rep = stability(embeddings, graphs)
    assert rep.skipped == [0]
    assert rep.s_rel[0] is None
    assert len([r for r in rep.s_rel if r is not None]) == 2


def test_stability_constant_needs_two_defined_values():
    report = stability([np.ones((2, 1)), np.zeros((2, 1))], _weighted_pair_series([1.0, 2.0]))
    assert report.k_s is None and report.skipped == []
    # three steps but one static transition leaves a single defined value
    embeddings = [np.ones((2, 1)), np.full((2, 1), 2.0), np.ones((2, 1))]
    report = stability(embeddings, _weighted_pair_series([1.0, 1.0, 2.0]))
    assert report.k_s is None and report.skipped == [0]
    assert report.s_abs[0] is None and report.s_rel[1] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        stability([np.ones((2, 1))], _weighted_pair_series([1.0, 2.0]))


def test_stability_constant_uses_common_prefix_on_growth():
    graphs = [
        GraphSnapshot(2, [(0, 1, 1.0)]),
        GraphSnapshot(3, [(0, 1, 2.0), (1, 2, 1.0)]),
        GraphSnapshot(3, [(0, 1, 1.0), (1, 2, 1.0)]),
    ]
    embeddings = [np.ones((2, 2)), np.ones((3, 2)) * 2.0, np.ones((3, 2))]
    rep = stability(embeddings, graphs)
    # transition 0 compares only the first two rows and the 2x2 subgraph:
    # dF/||F|| = 2/2 and dS/||S|| = sqrt(2)/sqrt(2)
    assert rep.s_rel[0] == pytest.approx(1.0, abs=1e-12)


def test_anomaly_series_hand_case():
    deltas = anomaly_series([np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])])
    assert deltas.tolist() == [5.0]
    with pytest.raises(UndefinedMetricError):
        anomaly_series([np.zeros((1, 2))])


def test_anomaly_series_measures_old_nodes_only():
    first = np.zeros((2, 1))
    second = np.array([[3.0], [4.0], [100.0]])
    deltas = anomaly_series([first, second])
    assert deltas.tolist() == [5.0]


def test_flag_anomalies_statistical_rule_is_strict():
    deltas = np.array([1.0, 1.0, 1.0, 10.0])
    rep = flag_anomalies(deltas, rule="std", factor=2.0)
    assert rep.threshold == pytest.approx(3.25 + 2 * deltas.std())
    assert rep.flagged == []  # 10 < 11.04
    rep1 = flag_anomalies(deltas, rule="std", factor=1.0)
    assert rep1.flagged == [3]
    flat = flag_anomalies(np.array([2.0, 2.0, 2.0]), rule="std")
    assert flat.flagged == []  # equality never flags


def test_flag_anomalies_absolute_rule_and_errors():
    deltas = np.array([0.5, 1.5, 2.5])
    rep = flag_anomalies(deltas, rule="absolute", threshold=0.0)
    assert rep.flagged == [0, 1, 2]
    assert flag_anomalies(deltas, rule="absolute", threshold=1.5).flagged == [2]
    with pytest.raises(ValueError):
        flag_anomalies(deltas, rule="absolute")
    with pytest.raises(ValueError):
        flag_anomalies(deltas, rule="median")
    with pytest.raises(UndefinedMetricError):
        flag_anomalies(np.array([]), rule="absolute", threshold=1.0)
    with pytest.raises(UndefinedMetricError):
        flag_anomalies(np.array([1.0]), rule="std")


def test_expected_speedup_values():
    assert expected_speedup(50, 10, 10) == pytest.approx(25 / 7, abs=1e-15)
    assert expected_speedup(50, 10, 40) == pytest.approx(2000 / 440, abs=1e-15)
    assert expected_speedup(50, 50, 9) == 1.0
    assert expected_speedup(50, 10, 1) == 1.0
    for bad in ((0, 10, 10), (50, 0, 10), (50, 10, 0)):
        with pytest.raises(ValueError):
            expected_speedup(*bad)


def test_expected_speedup_monotone_in_horizon():
    values = [expected_speedup(50, 10, t) for t in range(1, 20)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(v < 5.0 for v in values)  # bounded by n_s / n_i
