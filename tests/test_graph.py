from __future__ import annotations

import numpy as np
import pytest

from dyngem import graph
from dyngem.errors import ConfigError, ParseError
from dyngem.graph import (
    DynamicGraph,
    GraphSnapshot,
    SbmConfig,
    generate_sbm_series,
    hide_edges,
    load_series,
    load_snapshot,
    save_series,
    save_snapshot,
)
from helpers import random_snapshot


def test_snapshot_canonicalizes_edges():
    g = GraphSnapshot(4, [(2, 1, 0.5), (0, 3, 2.0)])
    assert g.edges() == [(0, 3, 2.0), (1, 2, 0.5)]
    assert [type(v) for v in g.edges()[0]] == [int, int, float]
    assert g.heads.tolist() == [0, 1] and g.tails.tolist() == [3, 2]
    assert g.weights.tolist() == [2.0, 0.5]
    assert GraphSnapshot(4, {(2, 1): 0.5, (0, 3): 2.0}) == g
    # against a plain sort of the canonical tuples, on shuffled, flipped input
    rng = np.random.default_rng(1)
    canonical = sorted({(i, j): float(rng.uniform(0.1, 2)) for i, j in rng.integers(0, 30, (80, 2)) if i < j}.items())
    given = [(j, i, w) if rng.random() < 0.5 else (i, j, w) for (i, j), w in canonical]
    rng.shuffle(given)
    assert GraphSnapshot(30, given).edges() == [(int(i), int(j), w) for (i, j), w in canonical]
    assert g.node_count == 4
    assert g.edge_count == 2


def test_snapshot_rejects_bad_edges():
    with pytest.raises(ValueError):
        GraphSnapshot(3, [(1, 1, 1.0)])
    with pytest.raises(ValueError):
        GraphSnapshot(3, [(0, 3, 1.0)])
    with pytest.raises(ValueError):
        GraphSnapshot(3, [(0, 1, 0.0)])
    with pytest.raises(ValueError):
        GraphSnapshot(3, [(0, 1, -2.0)])
    with pytest.raises(ValueError):
        GraphSnapshot(3, [(0, 1, float("nan"))])
    with pytest.raises(ValueError, match=r"duplicate undirected edge \(0, 1\)"):
        GraphSnapshot(3, [(0, 1, 1.0), (1, 0, 2.0)])
    with pytest.raises(ValueError, match="triples"):
        GraphSnapshot(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError):
        GraphSnapshot(-1)


def test_neighbors_and_dense_rows_agree():
    g = GraphSnapshot(5, [(0, 2, 1.5), (0, 4, 2.0), (2, 3, 0.25)])
    indptr, idx, wts = g.csr_rows([0])
    assert indptr.tolist() == [0, 2] and idx.tolist() == [2, 4]
    assert wts.tolist() == [1.5, 2.0]
    rows = g.dense_rows(np.arange(5))
    np.testing.assert_array_equal(rows[0], [0, 0, 1.5, 0, 2.0])
    indptr, idx, wts = g.csr_rows([3, 0, 3])  # any order, repeats allowed
    assert indptr.tolist() == [0, 1, 3, 4] and idx.tolist() == [2, 2, 4, 2]
    for i in range(5):
        _, idx, wts = g.csr_rows([i])
        np.testing.assert_array_equal(np.flatnonzero(rows[i]), idx)
        np.testing.assert_array_equal(rows[i, idx], wts)
    np.testing.assert_array_equal(rows, rows.T)
    with pytest.raises(IndexError):
        g.csr_rows([5])


def test_dynamic_graph_requires_nondecreasing_nodes():
    a = GraphSnapshot(3, [(0, 1, 1.0)])
    b = GraphSnapshot(4, [(0, 1, 1.0)])
    series = DynamicGraph([a, b])
    assert len(series) == 2
    assert series[1] is b
    assert series.node_counts == [3, 4]
    with pytest.raises(ValueError):
        DynamicGraph([b, a])
    with pytest.raises(ValueError):
        DynamicGraph([])


def test_sbm_determinism_and_labels():
    cfg = SbmConfig(node_count=60, p_in=0.3, p_out=0.02, steps=4, communities=3, migrate_per_step=2)
    g1, l1 = generate_sbm_series(cfg, 7)
    g2, l2 = generate_sbm_series(cfg, 7)
    np.testing.assert_array_equal(l1, l2)
    assert l1.shape == (4, 60)
    for s1, s2 in zip(g1, g2):
        assert s1 == s2
    g3, _ = generate_sbm_series(cfg, 8)
    assert any(a != b for a, b in zip(g1, g3))


def test_sbm_edge_count_matches_expectation():
    # two communities of 100: within pairs 2*C(100,2)=9900, cross 100*100=10000
    cfg = SbmConfig(node_count=200, p_in=0.2, p_out=0.01, steps=1, communities=2)
    counts = []
    for seed in range(6):
        graphs, _ = generate_sbm_series(cfg, seed)
        counts.append(graphs[0].edge_count)
    expected = 9900 * 0.2 + 10000 * 0.01
    sigma = np.sqrt(9900 * 0.2 * 0.8 + 10000 * 0.01 * 0.99)
    assert abs(np.mean(counts) - expected) < 4 * sigma


def test_sbm_migration_moves_exactly_k_labels():
    cfg = SbmConfig(node_count=50, p_in=0.4, p_out=0.02, steps=5, communities=3, migrate_per_step=3)
    graphs, labels = generate_sbm_series(cfg, 11)
    for t in range(1, 5):
        moved = np.nonzero(labels[t] != labels[t - 1])[0]
        assert moved.size == 3
        # edges not touching a mover carry over unchanged
        prev = {(i, j): w for i, j, w in graphs[t - 1].edges()}
        cur = {(i, j): w for i, j, w in graphs[t].edges()}
        mset = set(moved.tolist())
        for key, w in prev.items():
            if key[0] not in mset and key[1] not in mset:
                assert cur.get(key) == w


def test_sbm_config_validation():
    with pytest.raises(ConfigError):
        SbmConfig(node_count=0, p_in=0.2, p_out=0.01, steps=1)
    with pytest.raises(ConfigError):
        SbmConfig(node_count=10, p_in=0.1, p_out=0.2, steps=1)
    with pytest.raises(ConfigError):
        SbmConfig(node_count=10, p_in=0.2, p_out=0.01, steps=0)
    with pytest.raises(ConfigError):
        SbmConfig(node_count=10, p_in=0.2, p_out=0.01, steps=1, communities=11)
    with pytest.raises(ConfigError):
        SbmConfig(node_count=10, p_in=0.2, p_out=0.01, steps=1, migrate_per_step=10)
    with pytest.raises(ConfigError):
        generate_sbm_series(SbmConfig(node_count=10, p_in=0.2, p_out=0.01, steps=1), -1)


def test_hide_edges_partition_and_determinism():
    rng = np.random.default_rng(3)
    edges = [(i, j, float(rng.uniform(0.5, 2))) for i in range(20) for j in range(i + 1, 20) if rng.random() < 0.4]
    g = GraphSnapshot(20, edges)
    kept, hidden = hide_edges(g, 0.15, seed=5)
    assert len(hidden) == round(0.15 * g.edge_count)
    assert kept.node_count == g.node_count
    assert sorted(kept.edges() + hidden) == g.edges()
    kept2, hidden2 = hide_edges(g, 0.15, seed=5)
    assert hidden2 == hidden and kept2 == kept
    with pytest.raises(ValueError):
        hide_edges(g, 0.0, seed=1)
    with pytest.raises(ValueError):
        hide_edges(GraphSnapshot(3), 0.5, seed=1)


def test_snapshot_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(2, 15))
        edges = {}
        for i in range(n - 1):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    edges[(i, j)] = float(rng.uniform(0.1, 3.0))
        g = GraphSnapshot(n, edges)
        path = save_snapshot(g, tmp_path / f"snap_{trial}.edges")
        assert load_snapshot(path) == g


def test_load_snapshot_errors(tmp_path):
    cases = {
        "missing_header.edges": "0 1 1.0\n",
        "self_loop.edges": "n 3\n1 1 1.0\n",
        "dup.edges": "n 3\n0 1 1.0\n1 0 2.0\n",
        "bad_weight.edges": "n 3\n0 1 zero\n",
        "neg_weight.edges": "n 3\n0 1 -1.0\n",
        "bad_id.edges": "n 3\n0 7 1.0\n",
        "bad_count.edges": "n x\n",
        "short_line.edges": "n 3\n0 1\n",
    }
    for name, text in cases.items():
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError):
            load_snapshot(p)
    # the first invalid line is named, whatever the fault
    mixed = tmp_path / "mixed.edges"
    mixed.write_text("n 3\n0 1 1.0\n0 2 -1.0\n1 1 1.0\n1 0 1.0\n", encoding="utf-8")
    with pytest.raises(ParseError, match=r"mixed\.edges:3: .*positive finite weight"):
        load_snapshot(mixed)
    with pytest.raises(ParseError, match=r"dup\.edges:3: duplicate undirected edge \(0, 1\)"):
        load_snapshot(tmp_path / "dup.edges")
    empty = tmp_path / "empty.edges"
    empty.write_text("# only comments\n\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_snapshot(empty)


PARSE_CASES = {
    # six tokens that read as two valid edges, were lines not counted one by one
    "two_then_four_fields": "n 9\n0 1\n2 3 4 1.5\n",
    "float_id": "n 3\n1.0 2 1.0\n",
    "exponent_id": "n 2000\n0 1e3 1.0\n",
    "signed_and_underscored_ids": "n 2000\n+1 1_000 2.5\n٣ 7 1_0.5\n",
    "comments_and_blanks_around_the_header": "# a\n\n  # b\nn 4\n\n#c\n0 1 1.0\n \n# d\n2 3 0.5\n\n",
    "crlf_cr_and_tabs": "n 4\r\n0\t1\t1.5\r\n1 2 2.0\r2 \t 3 0.25\r\n",
    "vertical_tab_and_next_line": "n 4\n0\x0b1 1.0\n1 2 1.0\x852 3 1.0\n",
    "id_beyond_intp": "n 3\n0 99999999999999999999 1.0\n",
    "negative_id": "n 3\n-1 2 1.0\n",
    "nan_weight": "n 3\n0 1 nan\n",
    "inf_weight": "n 3\n0 1 inf\n",
    "negative_weight": "n 3\n0 1 1.0\n1 2 -0.5\n",
    "duplicate_pair": "n 3\n0 1 1.0\n1 2 1.0\n1 0 2.0\n",
    "header_without_edges": "# none\nn 5\n\n",
    "missing_header": "0 1 1.0\n",
    "empty_file": "",
    "negative_node_count": "n -2\n",
    "header_with_three_fields": "n 3 4\n0 1 1.0\n",
}


def _parse_outcome(path):
    try:
        return load_snapshot(path)
    except ParseError as exc:
        return str(exc)


def _reject(text):
    raise ValueError("line loop only")


@pytest.mark.parametrize("text", [pytest.param(text, id=name) for name, text in PARSE_CASES.items()]
                         + [pytest.param(seed, id=f"saved_graph_{seed}") for seed in range(4)])
def test_one_pass_parse_matches_the_line_loop(tmp_path, monkeypatch, text):
    path = tmp_path / "case.edges"
    if isinstance(text, int):
        rng = np.random.default_rng(text)
        n = int(rng.integers(2, 200))
        save_snapshot(random_snapshot(rng, n, p=float(rng.uniform(0.01, 0.3))), path)
    else:
        path.write_bytes(text.encode("utf-8"))
    one_pass = graph._parse_snapshot_text
    fast = _parse_outcome(path)
    monkeypatch.setattr(graph, "_parse_snapshot_text", _reject)
    loop = _parse_outcome(path)
    assert fast == loop
    if isinstance(loop, GraphSnapshot):
        # the one-pass parse serves a valid file itself, with no fallback
        with open(path, encoding="utf-8") as fh:
            assert one_pass(fh.read()) == loop


def test_load_snapshot_skips_comments(tmp_path):
    p = tmp_path / "ok.edges"
    p.write_text("# header comment\n\nn 3\n# edge below\n0 2 1.5\n", encoding="utf-8")
    g = load_snapshot(p)
    assert g.edges() == [(0, 2, 1.5)]


def test_series_roundtrip_and_order(tmp_path):
    cfg = SbmConfig(node_count=30, p_in=0.4, p_out=0.05, steps=3, communities=2, migrate_per_step=1)
    graphs, _ = generate_sbm_series(cfg, 2)
    save_series(graphs, tmp_path)
    loaded = load_series(tmp_path)
    assert len(loaded) == 3
    for a, b in zip(graphs, loaded):
        assert a == b
    with pytest.raises(ConfigError):
        load_series(tmp_path / "nowhere")


def test_series_loads_unpadded_names_in_step_order(tmp_path):
    snaps = [GraphSnapshot(3 + t, [(0, 1, 1.0 + t)]) for t in range(11)]
    for t, snap in enumerate(snaps):
        save_snapshot(snap, tmp_path / f"snapshot_{t}.edges")
    loaded = load_series(tmp_path)
    assert [g.node_count for g in loaded] == list(range(3, 14))
    save_snapshot(snaps[1], tmp_path / "snapshot_01.edges")
    with pytest.raises(ConfigError, match="both hold step 1"):
        load_series(tmp_path)
