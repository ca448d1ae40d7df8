from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from dyngem import _kernels_py, engine
from dyngem.engine import METHODS, RunConfig, align_series, procrustes_align, run_gf, run_method
from dyngem.errors import ConfigError, ConvergenceError
from dyngem.graph import DynamicGraph, GraphSnapshot, SbmConfig, generate_sbm_series
from dyngem.growth import apply_plan, derive_seed, propsize_plan
from dyngem.model import (
    AutoencoderParams,
    Hyperparameters,
    build_autoencoder,
    embed,
    load_checkpoint,
    make_batch,
    save_checkpoint,
    train_snapshot,
)
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
    full = run_method(graphs, config)
    assert len(full) == len(graphs)
    assert full[0].growth is None  # first step builds fresh, no growth event
    for t, snap in enumerate(graphs):
        assert full[t].embedding.shape == (snap.node_count, 4)
        batches = (snap.edge_count + 31) // 32
        epochs = 3 if t == 0 else 2
        assert full[t].iterations == epochs * batches
        assert len(full[t].trace) == epochs
    # a prefix run reproduces the full run's first steps exactly, and later
    # warm steps leave the earlier checkpoints as they were
    prefix = run_method(DynamicGraph(list(graphs)[:2]), config)
    for t in range(2):
        np.testing.assert_array_equal(prefix[t].embedding, full[t].embedding)
        for a, b in zip(prefix[t].checkpoint.layers(), full[t].checkpoint.layers(), strict=True):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.bias, b.bias)


def test_dyngem_grows_when_nodes_appear():
    graphs = growing_series(n_start=30, n_end=60, steps=4, seed=1)
    config = _small_config()
    steps = run_method(graphs, config)
    assert steps[0].growth is None
    grew = [s.growth for s in steps[1:] if s.growth is not None]
    assert grew, "node growth must trigger at least one plan"
    for entry in grew:
        assert entry["plan"]["encoder_sizes"][-1] == 4
        assert all("op" in op for op in entry["applied"])
    for t, snap in enumerate(graphs):
        assert steps[t].checkpoint.n == snap.node_count
        assert steps[t].embedding.shape[0] == snap.node_count


def test_dyngem_warm_steps_train_the_previous_model_in_place():
    # A warm step trains the previous model as it is, grown where the node
    # set expanded.  Steps 2 and 4 keep their node count.
    grown = growing_series(n_start=30, n_end=60, steps=3, seed=1)
    graphs = DynamicGraph([grown[0], grown[1], grown[1], grown[2], grown[2]])
    hyper = Hyperparameters(d=4, base_lr=1e-4, epochs_first=3, epochs_warm=2, batch_size=16, seed=2)
    config = RunConfig(hyper=hyper, hidden_sizes=(16, 8), growth_noise=1e-4)
    steps = run_method(graphs, config)
    params = None
    for t, snap in enumerate(graphs):
        init_seed, train_seed, grow_seed = (
            derive_seed(hyper.seed, t, salt)
            for salt in (engine._SALT_INIT, engine._SALT_TRAIN, engine._SALT_GROW)
        )
        if params is None:
            params = build_autoencoder(snap.node_count, config.hidden_sizes, hyper.d, init_seed)
        elif snap.node_count > params.n:
            plan = propsize_plan(params.encoder_sizes[:-1], snap.node_count, hyper.rho, hyper.d)
            params, _ = apply_plan(params, plan, config.growth_noise, grow_seed)
        epochs = hyper.epochs_first if t == 0 else hyper.epochs_warm
        params, _ = train_snapshot(params, snap, hyper, epochs, seed=train_seed)
        np.testing.assert_array_equal(steps[t].embedding, embed(params, snap))


def test_kills_embedding_when_most_live_units_go_dead():
    # units 0-3 are live before (unit 4 never was); half keeps 2 live, most 1
    before = np.array([[1.0, 0.0, 2.0, 0.0, 0.0], [0.0, 3.0, 0.0, 1.0, 0.0]])
    half = np.array([[0.0, 0.0, 0.0, 0.0, 5.0], [0.0, 2.0, 0.0, 0.0, 0.0]])
    most = np.array([[0.0, 0.0, 0.0, 0.0, 5.0], [0.0, 0.0, 0.0, 0.0, -1.0]])
    assert not engine._kills_embedding(before, before)
    assert not engine._kills_embedding(before, half)
    assert engine._kills_embedding(before, most)
    assert engine._kills_embedding(before, np.zeros_like(before))


def _record_training(monkeypatch, fail):
    """Record every train_snapshot call as (base_lr, epochs); ``fail(k)``
    says whether warm call k raises ConvergenceError."""
    calls, real = [], engine.model.train_snapshot

    def train(params, snapshot, hyper, epochs, seed=None):
        calls.append((hyper.base_lr, epochs))
        warm = len(calls) - 2
        if warm >= 0 and fail(warm):
            raise ConvergenceError("training objective is nan in epoch 0")
        return real(params, snapshot, hyper, epochs, seed=seed)

    monkeypatch.setattr(engine.model, "train_snapshot", train)
    return calls


def test_a_warm_step_that_kills_its_embedding_trains_again_slower(monkeypatch):
    graphs = _series(steps=3)
    config = _small_config()
    hyper = config.hyper
    plain = run_method(graphs, config)
    verdicts = iter([True, False, False])
    monkeypatch.setattr(engine, "_kills_embedding", lambda before, after: next(verdicts))
    calls = _record_training(monkeypatch, fail=lambda k: False)
    steps = run_method(graphs, config)
    lr, warm = hyper.base_lr, hyper.epochs_warm
    # the next step keeps the halved rate
    assert calls == [(lr, 3), (lr, warm), (lr / 2, 2 * warm), (lr / 2, 2 * warm)]
    batches = (graphs[1].edge_count + 31) // 32
    assert steps[1].iterations == 3 * warm * batches
    assert len(steps[1].trace) == 2 * warm
    # the retry starts from the previous step's checkpoint, not the model the
    # discarded attempt left
    params = plain[0].checkpoint.copy()
    params, _ = train_snapshot(
        params, graphs[1], replace(hyper, base_lr=lr / 2), 2 * warm,
        seed=derive_seed(hyper.seed, 1, engine._SALT_TRAIN),
    )
    np.testing.assert_array_equal(steps[1].embedding, embed(params, graphs[1]))
    np.testing.assert_array_equal(steps[0].embedding, plain[0].embedding)


def test_a_warm_step_that_overflows_backs_off_until_it_trains(monkeypatch):
    graphs = _series(steps=2)
    config = _small_config()
    lr, warm = config.hyper.base_lr, config.hyper.epochs_warm
    calls = _record_training(monkeypatch, fail=lambda k: k < 2)
    steps = run_method(graphs, config)
    assert calls[1:] == [(lr, warm), (lr / 2, 2 * warm), (lr / 4, 4 * warm)]
    assert np.isfinite(steps[1].embedding).all()
    assert [s.backoffs for s in steps] == [0, 2]


def test_a_warm_step_gives_up_after_max_backoffs(monkeypatch):
    graphs = _series(steps=2)
    calls = _record_training(monkeypatch, fail=lambda k: True)
    with pytest.raises(ConvergenceError):
        run_method(graphs, _small_config())
    assert len(calls) == 1 + engine.MAX_BACKOFFS + 1
    assert calls[-1][0] == _small_config().hyper.base_lr / 2**engine.MAX_BACKOFFS


def test_a_series_keeps_what_its_last_backoff_trains(monkeypatch):
    # a step that still kills its embedding at the last halving is kept, and
    # later steps train once at that rate
    graphs = _series(steps=3)
    config = _small_config()
    lr, warm = config.hyper.base_lr, config.hyper.epochs_warm
    monkeypatch.setattr(engine, "_kills_embedding", lambda before, after: True)
    calls = _record_training(monkeypatch, fail=lambda k: False)
    run_method(graphs, config)
    halvings = [(lr / 2**b, warm << b) for b in range(engine.MAX_BACKOFFS + 1)]
    assert calls[1:] == halvings + halvings[-1:]


def test_restored_checkpoint_continues_the_run_bit_for_bit(tmp_path):
    # BLAS rounds row- and column-major operands differently, so this holds
    # only if a restored (row-major) model trains like the live one: growth
    # must leave row-major weights, and training picks the first layer's
    # layout from its input path.  Steps 2, 4 and 5 keep their node count,
    # and the last step's denser graph trains on dense rows.
    grown = growing_series(n_start=100, n_end=200, steps=3, p_in=0.03, p_out=0.003, seed=4)
    dense = growing_series(n_start=200, n_end=200, steps=1, p_in=0.15, p_out=0.02, seed=4)[0]
    graphs = DynamicGraph([grown[0], grown[1], grown[1], grown[2], grown[2], dense])
    sparse = [
        not isinstance(make_batch(snap, snap.heads, snap.tails, snap.weights).x, np.ndarray)
        for snap in graphs
    ]
    assert sparse == [True] * 5 + [False]
    hyper = Hyperparameters(d=4, base_lr=1e-4, epochs_first=3, epochs_warm=2, batch_size=16, seed=2)
    config = RunConfig(hyper=hyper, hidden_sizes=(24, 8), growth_noise=1e-4)
    steps = run_method(graphs, config)
    assert [s.growth is not None for s in steps] == [False, True, False, True, False, False]
    # every stored model is the one its step trained: a later step that
    # trained it in place would change what it embeds
    retrained = run_method(graphs, replace(config, method="sdne_retrain"))
    for run in (steps, retrained):
        for s, snap in zip(run, graphs, strict=True):
            np.testing.assert_array_equal(embed(s.checkpoint, snap), s.embedding)
    for t in range(len(graphs) - 1):
        path = save_checkpoint(steps[t].checkpoint, tmp_path / f"checkpoint_{t:04d}.npz")
        step = engine.Step(steps[t].embedding, 0, [], checkpoint=load_checkpoint(path))
        for later in range(t + 1, len(graphs)):
            step = engine._autoencoder_step(graphs[later], config, later, step)
            np.testing.assert_array_equal(step.embedding, steps[later].embedding)


def test_retrain_is_independent_per_step_and_thread_safe():
    # both cold families run through the shared thread pool
    graphs = _series(seed=3)
    for cold, warm_method in (("sdne_retrain", "dyngem"), ("gf", "gf_init")):
        sequential = run_method(graphs, _small_config(seed=3, method=cold))
        threaded = run_method(graphs, _small_config(seed=3, method=cold, jobs=3))
        for a, b in zip(sequential, threaded, strict=True):
            np.testing.assert_array_equal(a.embedding, b.embedding)
            assert a.trace == b.trace
            assert a.iterations == b.iterations
        warm = run_method(graphs, _small_config(seed=3, method=warm_method))
        # warm-started later steps differ from fresh retrains
        np.testing.assert_array_equal(sequential[0].embedding, warm[0].embedding)
        assert not np.array_equal(sequential[1].embedding, warm[1].embedding)


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
    aligned, _ = align_series(embeddings)
    np.testing.assert_array_equal(aligned[0], embeddings[0])
    for t in range(4):
        # rotation preserves every pairwise distance
        def pdist(m):
            diff = m[:, None, :] - m[None, :, :]
            return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

        np.testing.assert_allclose(pdist(aligned[t]), pdist(embeddings[t]), atol=1e-9)
    for t in range(1, 4):
        # each step is its own embedding times an orthogonal R: the rotation
        # Procrustes finds onto the aligned previous step
        r, _ = procrustes_align(aligned[t - 1], embeddings[t])
        np.testing.assert_allclose(r @ r.T, np.eye(5), atol=1e-10)
        np.testing.assert_array_equal(aligned[t], embeddings[t] @ r)
        # consecutive aligned steps stay close for a slowly drifting series
        drift = np.linalg.norm(aligned[t] - aligned[t - 1])
        raw = np.linalg.norm(embeddings[t] - embeddings[t - 1])
        assert drift <= raw + 1e-9


def test_align_series_handles_growing_rows():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((10, 3))
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    b = np.vstack([a, rng.standard_normal((4, 3))]) @ q
    aligned, _ = align_series([a, b])
    np.testing.assert_allclose(aligned[1][:10], a, atol=1e-8)
    assert aligned[1].shape == (14, 3)


def test_gf_objective_decreases_and_warm_start_differs():
    graphs = _series(seed=6)
    config = _small_config(seed=6, method="gf")
    cold = run_gf(graphs, config)
    for step in cold:
        assert step.trace[-1] < step.trace[0]
    warm = run_gf(graphs, replace(config, method="gf_init"))
    np.testing.assert_array_equal(cold[0].embedding, warm[0].embedding)
    assert not np.array_equal(cold[1].embedding, warm[1].embedding)
    assert cold[0].iterations == config.gf_iters * graphs[0].edge_count
    again = run_gf(graphs, config)
    for a, b in zip(cold, again, strict=True):
        np.testing.assert_array_equal(a.embedding, b.embedding)


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
@pytest.mark.parametrize("epoch", [pytest.param(engine.gf_epoch, id="active"),
                                   pytest.param(_kernels_py.gf_epoch, id="python")])
def test_gf_overflow_raises_naming_the_snapshot_and_iteration(monkeypatch, epoch):
    monkeypatch.setattr(engine, "gf_epoch", epoch)
    with pytest.raises(ConvergenceError, match=r"^snapshot 0: factorization objective is nan in iteration 0$"):
        run_gf(_series(seed=6), _small_config(method="gf", gf_lr=1e10))


def test_gf_rejects_empty_snapshot():
    empty = DynamicGraph([GraphSnapshot(5)])
    with pytest.raises(ValueError):
        run_gf(empty, _small_config(method="gf"))


def test_gf_rejects_an_autoencoder_method():
    # a dyngem config run as factorization would write a GF series under the wrong name
    with pytest.raises(ConfigError, match="gf method"):
        run_gf(_series(seed=6), _small_config())


def test_run_method_dispatch():
    graphs = _series(seed=7, steps=3)
    for method in METHODS:
        steps = run_method(graphs, _small_config(seed=7, method=method))
        assert len(steps) == 3
        assert all(isinstance(s, engine.Step) for s in steps)
        if method != "dyngem":
            assert [s.growth for s in steps] == [None, None, None]
        if method in ("dyngem", "sdne_retrain"):
            assert all(isinstance(s.checkpoint, AutoencoderParams) for s in steps)
        else:
            # factorized or rotated: no model's encoder gave the embedding
            assert [s.checkpoint for s in steps] == [None, None, None]


def test_aligned_variants_only_rotate():
    graphs = _series(seed=8, steps=3)
    plain = run_method(graphs, _small_config(seed=8, method="sdne_retrain"))
    aligned = run_method(graphs, _small_config(seed=8, method="sdne_align"))
    for t in range(3):
        # same Gram matrix, different coordinates
        np.testing.assert_allclose(
            aligned[t].embedding @ aligned[t].embedding.T,
            plain[t].embedding @ plain[t].embedding.T,
            atol=1e-8,
        )


def test_aligned_variant_charges_each_step_its_own_alignment(monkeypatch):
    rng = np.random.default_rng(3)
    embeddings = [rng.standard_normal((6 + t, 3)) for t in range(3)]
    _, align_seconds = align_series(embeddings)
    assert align_seconds[0] == 0.0 and all(s > 0 for s in align_seconds[1:])

    real = engine.align_series

    def slow_align(embeddings):
        aligned, _ = real(embeddings)
        return aligned, [0.0, 100.0, 200.0]

    monkeypatch.setattr(engine, "align_series", slow_align)
    out = run_method(_series(seed=8, steps=3), _small_config(seed=8, method="gf_align"))
    assert out[0].seconds < 100.0
    assert 100.0 < out[1].seconds < 200.0 < out[2].seconds < 300.0
