from __future__ import annotations

import dataclasses
import zipfile

import numpy as np
import pytest

from dyngem import model, nn
from dyngem.errors import ConfigError, ParseError
from dyngem.graph import GraphSnapshot
from dyngem.model import (
    AutoencoderParams,
    Hyperparameters,
    build_autoencoder,
    embed,
    load_checkpoint,
    loss_net_batch,
    make_batch,
    reconstruct_scores,
    save_checkpoint,
    train_snapshot,
)
from helpers import (
    dense_matrix,
    finite_difference_max_rel_error,
    hub_edges,
    jittered_case,
    jittered_model_and_batch,
    loss_global,
    loss_local,
    loss_net_batch_oracle,
    penalized_step_oracle,
    random_snapshot,
    star_edges,
    toy_hyper,
)


def test_hyperparameters_validation():
    Hyperparameters()
    bad = [
        dict(alpha=-1.0),
        dict(beta=1.0),
        dict(nu1=-1e-9),
        dict(nu2=-1e-9),
        dict(rho=0.0),
        dict(rho=1.0),
        dict(d=0),
        dict(base_lr=0.0),
        dict(momentum=1.0),
        dict(momentum=-0.1),
        dict(decay=-1.0),
        dict(batch_size=0),
        dict(epochs_first=-1),
        dict(epochs_warm=-1),
        dict(seed=-1),
    ]
    for kwargs in bad:
        with pytest.raises(ConfigError):
            Hyperparameters(**kwargs)


def test_build_autoencoder_shapes_and_init():
    params = build_autoencoder(20, (12, 6), 3, seed=4)
    assert params.encoder_sizes == (20, 12, 6, 3)
    assert params.decoder_sizes == (3, 6, 12, 20)
    assert params.n == 20 and params.d == 3
    for layer in params.layers():
        bound = np.sqrt(6.0 / (layer.in_dim + layer.out_dim))
        assert np.all(np.abs(layer.weights) <= bound)
        np.testing.assert_array_equal(layer.bias, np.zeros(layer.out_dim))
    again = build_autoencoder(20, (12, 6), 3, seed=4)
    for a, b in zip(params.layers(), again.layers()):
        np.testing.assert_array_equal(a.weights, b.weights)
    with pytest.raises(ValueError):
        build_autoencoder(20, (0, 6), 3, seed=4)


def test_autoencoder_params_chain_validation():
    enc = [nn.LayerParams(np.zeros((4, 6)), np.zeros(4)), nn.LayerParams(np.zeros((2, 4)), np.zeros(2))]
    dec = [nn.LayerParams(np.zeros((4, 2)), np.zeros(4)), nn.LayerParams(np.zeros((6, 4)), np.zeros(6))]
    AutoencoderParams(enc, dec)
    with pytest.raises(ValueError):
        AutoencoderParams(enc, dec[:1])
    with pytest.raises(ValueError):
        AutoencoderParams([enc[0]], dec)
    bad_chain = [nn.LayerParams(np.zeros((4, 6)), np.zeros(4)), nn.LayerParams(np.zeros((2, 5)), np.zeros(2))]
    with pytest.raises(ValueError):
        AutoencoderParams(bad_chain, dec)


def test_loss_global_hand_case():
    # ((0-1)*5)^2 = 25
    assert loss_global([1.0, 0.0], [0.0, 0.0], [5.0, 1.0]) == 25.0
    with pytest.raises(ValueError):
        loss_global([1.0], [1.0, 2.0], [1.0, 1.0])


def test_loss_local_hand_case():
    # s * ||(2,0)||^2 = 1*4 and 2*4
    assert loss_local([3.0, 1.0], [1.0, 1.0], 1.0) == 4.0
    assert loss_local([3.0, 1.0], [1.0, 1.0], 2.0) == 8.0
    with pytest.raises(ValueError):
        loss_local([1.0], [1.0, 2.0], 1.0)


def test_loss_net_batch_term_decomposition():
    params, snap, batch = jittered_case(0)
    hyper = toy_hyper()
    total, parts, _ = loss_net_batch(params, batch, hyper)
    assert total == pytest.approx(
        parts["global"] + hyper.alpha * parts["local"] + hyper.nu1 * parts["l1"] + hyper.nu2 * parts["l2"]
    )
    # recompute each raw term independently through the forward pass, over
    # every endpoint's own dense row (the heads over the tails)
    x = snap.dense_rows(np.concatenate([batch.heads, batch.tails]))
    y = nn.forward(params.encoder, x)[-1]
    x_hat = nn.forward(params.decoder, y)[-1]
    b = np.where(x == 0.0, 1.0, hyper.beta)
    assert parts["global"] == pytest.approx(loss_global(x, x_hat, b))
    m = batch.heads.size
    local = sum(loss_local(y[k], y[m + k], batch.weights[k]) for k in range(m))
    assert parts["local"] == pytest.approx(local)
    l1 = sum(float(np.abs(l.weights).sum()) for l in params.layers())
    l2 = sum(float((l.weights ** 2).sum()) for l in params.layers())
    assert parts["l1"] == pytest.approx(l1)
    assert parts["l2"] == pytest.approx(l2)


def _matching(snap):
    """Edges no two of which share a node."""
    used, keep = set(), []
    for k, (i, j) in enumerate(zip(snap.heads.tolist(), snap.tails.tolist())):
        if i not in used and j not in used:
            used.update((i, j))
            keep.append(k)
    return keep


def _through(snap):
    """Edges (a, b) and (b, c): b is the tail of one and the head of the other."""
    for b in range(snap.node_count):
        into, out = np.flatnonzero(snap.tails == b), np.flatnonzero(snap.heads == b)
        if into.size and out.size:
            return [into[0], out[0]]
    raise AssertionError("no node is both a head and a tail")


BATCH_SHAPES = {"star": hub_edges, "all_distinct": _matching, "head_and_tail": _through, "one_edge": lambda snap: [3]}


@pytest.mark.parametrize("form", ["dense", "sparse"])
@pytest.mark.parametrize("shape", sorted(BATCH_SHAPES))
def test_deduplicated_batch_matches_the_per_endpoint_oracle(monkeypatch, shape, form):
    snap = random_snapshot(np.random.default_rng(8), 40, p=0.1)
    monkeypatch.setattr(model, "SPARSE_INPUT_DENSITY", 1.0 if form == "sparse" else 0.0)
    idx = BATCH_SHAPES[shape](snap)
    batch = make_batch(snap, snap.heads[idx], snap.tails[idx], snap.weights[idx])
    assert isinstance(batch.x, np.ndarray if form == "dense" else nn.SparseRows)
    # one row per distinct endpoint, and every endpoint finds its own row
    ends = np.concatenate([batch.heads, batch.tails])
    nodes = np.unique(ends)
    x = batch.x if form == "dense" else dense_matrix(batch.x)
    np.testing.assert_array_equal(x, snap.dense_rows(nodes))
    np.testing.assert_array_equal(nodes[batch.rows], ends)
    np.testing.assert_array_equal(batch.nonzero, np.flatnonzero(x))
    if shape == "star":
        assert batch.counts.max() == len(idx) >= 3
    if shape == "all_distinct":
        assert len(idx) >= 5 and x.shape[0] == 2 * len(idx)
    if shape == "head_and_tail":
        assert x.shape[0] == 3 and sorted(batch.counts) == [1, 1, 2]

    params = build_autoencoder(40, (16, 8), 3, seed=5)
    hyper = toy_hyper()
    total, parts, grads = loss_net_batch(params, batch, hyper)
    o_total, o_parts, o_grads = loss_net_batch_oracle(params, snap, batch, hyper)
    assert total == pytest.approx(o_total, rel=1e-12)
    for key in o_parts:
        assert parts[key] == pytest.approx(o_parts[key], rel=1e-12), key
    for side, o_side in zip(grads, o_grads, strict=True):
        for pair, o_pair in zip(side, o_side, strict=True):
            for g, o_g in zip(pair, o_pair, strict=True):
                assert g.shape == o_g.shape
                scale = float(np.max(np.abs(o_g)))
                assert float(np.max(np.abs(g - o_g))) <= 1e-12 * scale


def test_star_batch_gradients_match_finite_differences():
    for seed in (1, 2):
        params, _, batch = jittered_case(seed, pick=star_edges)
        # the hub's row stands for one endpoint of every edge
        assert batch.counts.max() == batch.heads.size >= 3
        err = finite_difference_max_rel_error(params, batch, toy_hyper())
        assert err <= 1e-4, f"seed {seed}: rel err {err:.3e}"


def test_train_batch_rejects_broken_invariants():
    snap = random_snapshot(np.random.default_rng(8), 40, p=0.1)
    for weight in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="positive and finite"):
            make_batch(snap, [0], [1], [weight])
    batch = make_batch(snap, snap.heads[:6], snap.tails[:6], snap.weights[:6])
    assert batch.counts.max() > 1
    k = batch.x.shape[0]
    last = batch.rows == k - 1
    moved = batch.counts.copy()  # one endpoint moved to another row
    moved[np.argmax(moved)] -= 1
    moved[np.argmin(moved)] += 1
    bad = {
        "both endpoints": dict(rows=batch.rows[:-1]),
        "a row of x": dict(rows=np.where(last, k, batch.rows)),
        "multiplicity": dict(counts=moved),
        "belong to an endpoint": dict(x=np.vstack([batch.x, np.zeros(40)]), counts=np.append(batch.counts, 0)),
    }
    for needle, change in bad.items():
        with pytest.raises(ValueError, match=needle):
            dataclasses.replace(batch, **change)
    with pytest.raises(ValueError, match="a row of x"):
        dataclasses.replace(batch, rows=np.where(last, -1, batch.rows))


def test_loss_net_batch_gradients_match_finite_differences():
    for seed in (1, 2, 3):
        params, batch = jittered_model_and_batch(seed)
        err = finite_difference_max_rel_error(params, batch, toy_hyper())
        assert err <= 1e-4, f"seed {seed}: rel err {err:.3e}"


def _both_batches(monkeypatch, snap, heads, tails, weights):
    """The dense and the sparse form of one batch."""
    forms = []
    for density in (0.0, 1.0):
        monkeypatch.setattr(model, "SPARSE_INPUT_DENSITY", density)
        forms.append(make_batch(snap, heads, tails, weights))
    return forms


def test_sparse_and_dense_batches_agree(monkeypatch):
    snap = random_snapshot(np.random.default_rng(8), 40, p=0.1)
    pick = np.random.default_rng(9).choice(snap.edge_count, 12, replace=False)
    dense, sparse = _both_batches(monkeypatch, snap, snap.heads[pick], snap.tails[pick], snap.weights[pick])
    assert isinstance(dense.x, np.ndarray) and isinstance(sparse.x, nn.SparseRows)
    np.testing.assert_array_equal(dense_matrix(sparse.x), dense.x)
    np.testing.assert_array_equal(sparse.nonzero, np.flatnonzero(dense.x))
    np.testing.assert_array_equal(sparse.values, dense.x.reshape(-1)[dense.nonzero])
    params = build_autoencoder(40, (16, 8), 3, seed=5)
    hyper = toy_hyper()
    total_d, parts_d, grads_d = loss_net_batch(params, dense, hyper)
    total_s, parts_s, grads_s = loss_net_batch(params, sparse, hyper)
    assert total_s == pytest.approx(total_d, rel=1e-12)
    for key in parts_d:
        assert parts_s[key] == pytest.approx(parts_d[key], rel=1e-12), key
    for side_d, side_s in zip(grads_d, grads_s, strict=True):
        for pair_d, pair_s in zip(side_d, side_s, strict=True):
            for gd, gs in zip(pair_d, pair_s):
                scale = float(np.max(np.abs(gd)))
                assert float(np.max(np.abs(gs - gd))) <= 1e-12 * scale


def test_training_steps_on_a_sparse_batch_match_the_whole_array_oracle(monkeypatch):
    # C-ordered weights with a sparse batch: the kernel writes a column-major
    # first-layer gradient, which backward lays out like its weights, so the
    # penalty and Nesterov passes see one layout per weight
    snap = random_snapshot(np.random.default_rng(8), 40, p=0.1)
    pick = np.random.default_rng(9).choice(snap.edge_count, 12, replace=False)
    _, sparse = _both_batches(monkeypatch, snap, snap.heads[pick], snap.tails[pick], snap.weights[pick])
    hyper = toy_hyper(base_lr=1e-3, momentum=0.9, decay=0.1)
    params = build_autoencoder(40, (16, 8), 3, seed=5)
    theirs = params.copy()
    flat = [a for layer in params.layers() for a in (layer.weights, layer.bias)]
    state = nn.OptimizerState.for_params(flat, hyper.base_lr, hyper.momentum, hyper.decay)
    oracle_vel = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in theirs.layers()]
    regularizer = nn.regularizer_value_and_grads
    for step in range(4):
        lr = state.learning_rate()
        _, parts, (enc, dec) = loss_net_batch(params, sparse, hyper)
        assert enc[0][0].flags.c_contiguous and params.encoder[0].weights.flags.c_contiguous
        nn.nesterov_step(flat, [g for pair in enc + dec for g in pair], state)
        # the oracle starts from the raw backprop gradients
        monkeypatch.setattr(nn, "regularizer_value_and_grads", lambda *args: (0.0, 0.0))
        _, _, (o_enc, o_dec) = loss_net_batch(theirs, sparse, hyper)
        monkeypatch.setattr(nn, "regularizer_value_and_grads", regularizer)
        l1, l2 = penalized_step_oracle(theirs.layers(), o_enc + o_dec, oracle_vel, lr, hyper.momentum,
                                       hyper.nu1, hyper.nu2)
        assert parts["l1"] == pytest.approx(l1, rel=1e-12) and parts["l2"] == pytest.approx(l2, rel=1e-12)
        for k, (mine, ref) in enumerate(zip(params.layers(), theirs.layers())):
            assert np.array_equal(mine.weights, ref.weights), (step, k)
            assert np.array_equal(mine.bias, ref.bias), (step, k)
            assert np.array_equal(state.velocities[2 * k], oracle_vel[k][0]), (step, k)
            assert np.array_equal(state.velocities[2 * k + 1], oracle_vel[k][1]), (step, k)


def test_sparse_batch_gradients_match_finite_differences(monkeypatch):
    monkeypatch.setattr(model, "SPARSE_INPUT_DENSITY", 1.0)
    for seed in (1, 2, 3):
        params, batch = jittered_model_and_batch(seed)
        assert isinstance(batch.x, nn.SparseRows)
        err = finite_difference_max_rel_error(params, batch, toy_hyper())
        assert err <= 1e-4, f"seed {seed}: rel err {err:.3e}"


def test_training_takes_the_sparse_path_below_the_density_threshold():
    n = 200
    assert 2 * 150 < model.SPARSE_INPUT_DENSITY * n * n < 2 * 3000
    sparse = random_snapshot(np.random.default_rng(1), n, p=150 / (n * (n - 1) / 2))
    dense = random_snapshot(np.random.default_rng(1), n, p=3000 / (n * (n - 1) / 2))
    for snap, want_sparse in ((sparse, True), (dense, False)):
        batch = make_batch(snap, snap.heads[:4], snap.tails[:4], snap.weights[:4])
        assert isinstance(batch.x, nn.SparseRows) is want_sparse
        params = build_autoencoder(n, (16, 8), 3, seed=0)
        train_snapshot(params, snap, toy_hyper(batch_size=64), epochs=1)
        # the kernel reads the sparse path's first layer transposed without a copy
        assert params.encoder[0].weights.flags.f_contiguous is want_sparse


def test_loss_net_batch_width_mismatch():
    params, _ = jittered_model_and_batch(0)
    other = random_snapshot(np.random.default_rng(9), params.n + 2)
    edges = other.edges()
    batch = make_batch(other, [edges[0][0]], [edges[0][1]], [edges[0][2]])
    with pytest.raises(ValueError):
        loss_net_batch(params, batch, toy_hyper())


def test_train_snapshot_trace_and_determinism():
    rng = np.random.default_rng(2)
    snap = random_snapshot(rng, 15)
    hyper = toy_hyper(base_lr=1e-4, batch_size=8)
    a = build_autoencoder(15, (10, 6), 3, seed=1)
    b = build_autoencoder(15, (10, 6), 3, seed=1)
    _, trace_a = train_snapshot(a, snap, hyper, epochs=5, seed=42)
    _, trace_b = train_snapshot(b, snap, hyper, epochs=5, seed=42)
    assert len(trace_a) == 5
    assert trace_a == trace_b
    for la, lb in zip(a.layers(), b.layers()):
        np.testing.assert_array_equal(la.weights, lb.weights)
        np.testing.assert_array_equal(la.bias, lb.bias)


def test_train_snapshot_zero_epochs_is_identity():
    snap = random_snapshot(np.random.default_rng(3), 12)
    params = build_autoencoder(12, (8, 4), 3, seed=0)
    before = [l.weights.copy() for l in params.layers()]
    _, trace = train_snapshot(params, snap, toy_hyper(), epochs=0)
    assert trace == []
    for w0, layer in zip(before, params.layers()):
        np.testing.assert_array_equal(w0, layer.weights)


def test_train_snapshot_objective_decreases():
    snap = random_snapshot(np.random.default_rng(4), 20)
    params = build_autoencoder(20, (14, 8), 4, seed=2)
    hyper = toy_hyper(base_lr=2e-5, batch_size=16)
    _, trace = train_snapshot(params, snap, hyper, epochs=30, seed=7)
    assert np.isfinite(trace).all()
    assert trace[-1] < trace[0]


def test_train_snapshot_input_validation():
    snap = random_snapshot(np.random.default_rng(5), 10)
    params = build_autoencoder(12, (8, 4), 3, seed=0)
    with pytest.raises(ValueError):
        train_snapshot(params, snap, toy_hyper(), epochs=1)
    empty = GraphSnapshot(12)
    with pytest.raises(ValueError):
        train_snapshot(build_autoencoder(12, (8,), 3, seed=0), empty, toy_hyper(), epochs=1)


def test_checkpoint_roundtrip_exact(tmp_path):
    params = build_autoencoder(17, (9, 5), 3, seed=6)
    params.encoder[0].weights[0, 0] = 1.0 / 3.0  # not exactly representable in decimal
    path = save_checkpoint(params, tmp_path / "ck.npz")
    assert path == tmp_path / "ck.npz"
    with zipfile.ZipFile(path) as archive:
        assert {info.date_time for info in archive.infolist()} == {(1980, 1, 1, 0, 0, 0)}
    loaded = load_checkpoint(path)
    assert loaded.encoder_sizes == params.encoder_sizes
    assert loaded.decoder_sizes == params.decoder_sizes
    for a, b in zip(params.layers(), loaded.layers()):
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.bias, b.bias)


def test_checkpoint_parse_errors(tmp_path):
    params = build_autoencoder(5, (4,), 2, seed=0)
    with np.load(save_checkpoint(params, tmp_path / "ok.npz")) as archive:
        good = dict(archive)

    def write_npz(name, arrays):
        path = tmp_path / name
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        return path

    v1_text = tmp_path / "v1.txt"
    v1_text.write_text("dyngem-checkpoint v1\nn 5 d 2 K 2\n", encoding="utf-8")
    other_text = tmp_path / "other.txt"
    other_text.write_text("1 2 3\n", encoding="utf-8")
    empty = tmp_path / "empty.npz"
    empty.write_bytes(b"")
    npy = tmp_path / "plain.npy"
    np.save(npy, np.zeros(3))
    missing = write_npz("missing.npz", {k: v for k, v in good.items() if k != "dec1_w"})
    no_counts = write_npz("no_counts.npz", {k: v for k, v in good.items() if k != "layer_counts"})
    bad_chain = dict(good, enc1_w=np.zeros((2, 3)))
    unchained = write_npz("unchained.npz", bad_chain)
    truncated = tmp_path / "truncated.npz"
    truncated.write_bytes((tmp_path / "ok.npz").read_bytes()[:-10])

    cases = [
        (v1_text, "schema 1"),
        (other_text, "not an npz"),
        (empty, "not an npz"),
        (npy, "not an npz"),
        (missing, "dec1_w"),
        (no_counts, "layer_counts"),
        (unchained, "chain"),
        (truncated, "not a valid"),
    ]
    for path, needle in cases:
        with pytest.raises(ParseError) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)
        assert needle in str(info.value)


def test_embed_and_reconstruct_shapes_and_blocks(monkeypatch):
    rng = np.random.default_rng(6)
    snap = random_snapshot(rng, 23)
    params = build_autoencoder(23, (12, 6), 4, seed=3)
    y = embed(params, snap)
    assert y.shape == (23, 4)
    scores = reconstruct_scores(params, y)
    assert scores.shape == (23, 23)
    monkeypatch.setattr(model, "STACK_ROWS", 5)
    np.testing.assert_array_equal(y, embed(params, snap))
    monkeypatch.setattr(model, "STACK_ROWS", 7)
    np.testing.assert_array_equal(scores, reconstruct_scores(params, y))
    rows = snap.dense_rows(np.arange(23))
    np.testing.assert_allclose(y, nn.forward(params.encoder, rows)[-1], atol=1e-15)
    # the dense route: encode every adjacency row, decode the codes
    np.testing.assert_array_equal(scores, nn.forward(params.decoder, nn.forward(params.encoder, rows)[-1])[-1])
    with pytest.raises(ValueError):
        embed(params, random_snapshot(rng, 9))
