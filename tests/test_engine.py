from __future__ import annotations

import numpy as np
import pytest

from dyngem.engine import (
    METHODS,
    EmbeddingSeries,
    RunConfig,
    _aligned_variant,
    align_series,
    procrustes_align,
    run_dyngem,
    run_gf,
    run_method,
    run_sdne_retrain,
)
from dyngem.errors import ConfigError
from dyngem.graph import DynamicGraph, GraphSnapshot, SbmConfig, generate_sbm_series
from dyngem.model import Hyperparameters
from helpers import growing_series


def _small_config(**overrides):
    hyper = Hyperparameters(
        d=4, base_lr=1e-5, epochs_first=3, epochs_warm=2, batch_size=32, seed=overrides.pop("seed", 0)
    )
    base = dict(hyper=hyper, hidden_sizes=(16, 8), gf_iters=15, growth_noise=1e-4)
    base.update(overrides)
    return RunConfig(**base)


def _series(seed=0, n=40, steps=4):
    cfg = SbmConfig(node_count=n, p_in=0.3, p_out=0.03, steps=steps, communities=2, migrate_per_step=1)
    graphs, _ = generate_sbm_series(cfg, seed)
    return graphs


def test_run_config_validation():
    _small_config()
    with pytest.raises(ConfigError):
        _small_config(method="nope")
    with pytest.raises(ConfigError):
        _small_config(hidden_sizes=(0, 4))
    with pytest.raises(ConfigError):
        _small_config(gf_lambda=-1.0)
    with pytest.raises(ConfigError):
        _small_config(gf_iters=-1)
    with pytest.raises(ConfigError):
        _small_config(gf_lr=0.0)
    with pytest.raises(ConfigError):
        _small_config(growth_noise=-1e-9)
    with pytest.raises(ConfigError):
        _small_config(jobs=0)


def test_dyngem_bookkeeping_and_prefix_stability():
    graphs = _series()
    config = _small_config()
    full, growth = run_dyngem(graphs, config)
    assert len(full.embeddings) == len(graphs)
    assert growth[0] is None  # first step builds fresh, no growth event
    for t, snap in enumerate(graphs):
        assert full.embeddings[t].shape == (snap.node_count, 4)
        batches = (snap.edge_count + 31) // 32
        epochs = 3 if t == 0 else 2
        assert full.iterations[t] == epochs * batches
        assert len(full.traces[t]) == epochs
    # a prefix run reproduces the full run's first steps exactly
    prefix, _ = run_dyngem(DynamicGraph(list(graphs)[:2]), config)
    for t in range(2):
        np.testing.assert_array_equal(prefix.embeddings[t], full.embeddings[t])


def test_dyngem_grows_when_nodes_appear():
    graphs = growing_series(n_start=30, n_end=60, steps=4, seed=1)
    config = _small_config()
    series, growth = run_dyngem(graphs, config)
    assert growth[0] is None
    grew = [g for g in growth[1:] if g is not None]
    assert grew, "node growth must trigger at least one plan"
    for entry in grew:
        assert entry["plan"]["encoder_sizes"][-1] == 4
        assert all("op" in op for op in entry["applied"])
    for t, snap in enumerate(graphs):
        assert series.checkpoints[t].n == snap.node_count
        assert series.embeddings[t].shape[0] == snap.node_count


def test_retrain_is_independent_per_step_and_thread_safe():
    graphs = _series(seed=3)
    sequential = run_sdne_retrain(graphs, _small_config(seed=3))
    threaded = run_sdne_retrain(graphs, _small_config(seed=3, jobs=3))
    for a, b in zip(sequential.embeddings, threaded.embeddings):
        np.testing.assert_array_equal(a, b)
    warm, _ = run_dyngem(graphs, _small_config(seed=3))
    # warm-started later steps differ from fresh retrains
    assert not np.array_equal(sequential.embeddings[1], warm.embeddings[1])


def test_procrustes_recovers_rotation():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 6))
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    r, rotated = procrustes_align(x, x @ q)
    np.testing.assert_allclose(rotated, x, atol=1e-9)
    np.testing.assert_allclose(r, q.T, atol=1e-9)
    np.testing.assert_allclose(r @ r.T, np.eye(6), atol=1e-12)
    with pytest.raises(ValueError):
        procrustes_align(x, x[:10])


def test_align_series_isometry_and_continuity():
    rng = np.random.default_rng(4)
    base = rng.standard_normal((25, 5))
    embeddings = [base]
    for _ in range(3):
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        embeddings.append(embeddings[-1] @ q + rng.normal(0, 1e-3, base.shape))
    aligned, rotations, _ = align_series(embeddings)
    np.testing.assert_array_equal(rotations[0], np.eye(5))
    for t in range(4):
        # rotation preserves every pairwise distance
        def pdist(m):
            diff = m[:, None, :] - m[None, :, :]
            return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

        np.testing.assert_allclose(pdist(aligned[t]), pdist(embeddings[t]), atol=1e-9)
        np.testing.assert_allclose(rotations[t] @ rotations[t].T, np.eye(5), atol=1e-10)
    for t in range(1, 4):
        # consecutive aligned steps stay close for a slowly drifting series
        drift = np.linalg.norm(aligned[t] - aligned[t - 1])
        raw = np.linalg.norm(embeddings[t] - embeddings[t - 1])
        assert drift <= raw + 1e-9


def test_align_series_handles_growing_rows():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((10, 3))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    b = np.vstack([a, rng.standard_normal((4, 3))]) @ q
    aligned, _, _ = align_series([a, b])
    np.testing.assert_allclose(aligned[1][:10], a, atol=1e-8)
    assert aligned[1].shape == (14, 3)


def test_gf_objective_decreases_and_warm_start_differs():
    graphs = _series(seed=6)
    config = _small_config(seed=6)
    cold = run_gf(graphs, config, warm_start=False)
    for trace in cold.traces:
        assert trace[-1] < trace[0]
    warm = run_gf(graphs, config, warm_start=True)
    np.testing.assert_array_equal(cold.embeddings[0], warm.embeddings[0])
    assert not np.array_equal(cold.embeddings[1], warm.embeddings[1])
    assert cold.iterations[0] == config.gf_iters * graphs[0].edge_count
    again = run_gf(graphs, config, warm_start=False)
    for a, b in zip(cold.embeddings, again.embeddings):
        np.testing.assert_array_equal(a, b)


def test_gf_rejects_empty_snapshot():
    empty = DynamicGraph([GraphSnapshot(5)])
    with pytest.raises(ValueError):
        run_gf(empty, _small_config())


def test_run_method_dispatch():
    graphs = _series(seed=7, steps=3)
    for method in METHODS:
        series, growth = run_method(graphs, _small_config(seed=7, method=method))
        assert series.method == method
        assert len(series.embeddings) == 3
        if method == "dyngem":
            assert isinstance(growth, list)
        else:
            assert growth is None


def test_aligned_variants_only_rotate():
    graphs = _series(seed=8, steps=3)
    config = _small_config(seed=8)
    plain = run_sdne_retrain(graphs, config)
    aligned, _ = run_method(graphs, _small_config(seed=8, method="sdne_align"))
    for t in range(3):
        # same Gram matrix, different coordinates
        np.testing.assert_allclose(
            aligned.embeddings[t] @ aligned.embeddings[t].T,
            plain.embeddings[t] @ plain.embeddings[t].T,
            atol=1e-8,
        )


def test_aligned_variant_charges_each_step_its_own_alignment():
    rng = np.random.default_rng(3)
    embeddings = [rng.standard_normal((6 + t, 3)) for t in range(3)]
    base = EmbeddingSeries("gf", embeddings, [1.0, 1.0, 1.0], [5, 5, 5], [[], [], []])
    _, _, align_seconds = align_series(embeddings)
    assert align_seconds[0] == 0.0 and all(s > 0 for s in align_seconds[1:])
    aligned = _aligned_variant(base, "gf_align")
    assert aligned.seconds[0] == 1.0
    assert all(s > 1.0 for s in aligned.seconds[1:])
