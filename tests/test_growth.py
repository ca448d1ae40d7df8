from __future__ import annotations

import numpy as np
import pytest

from dyngem import nn
from dyngem.growth import (
    GrowthPlan,
    apply_plan,
    expand_input_output,
    net2deeper,
    net2wider,
    propsize_plan,
)
from dyngem.model import build_autoencoder, load_checkpoint, save_checkpoint


def _outputs(params, x):
    return nn.forward(params.decoder, nn.forward(params.encoder, x)[-1])[-1]


def test_propsize_widen_only_example():
    # raising the input to 2000 forces the first hidden to 600 = 0.3*2000
    plan = propsize_plan((1000, 500, 300), 2000, 0.3, 100)
    assert plan.encoder_sizes == (2000, 600, 300, 100)
    assert plan.decoder_sizes == (100, 300, 600, 2000)
    assert plan.deepen_ops == ()
    widened = {(side, layer): (old, new) for side, layer, old, new in plan.widen_ops}
    assert widened[("enc", 1)] == (500, 600)
    assert ("dec", 2) in widened and widened[("dec", 2)] == (500, 600)


def test_propsize_no_growth_is_empty_plan():
    plan = propsize_plan((1000, 500, 300), 1000, 0.3, 100)
    assert plan.widen_ops == () and plan.deepen_ops == ()
    assert plan.encoder_sizes == (1000, 500, 300, 100)


def test_propsize_insertion_example():
    # 100 < 0.3*400 = 120 -> insert one layer of width 120 next to the embedding
    plan = propsize_plan((1000, 500, 400), 1000, 0.3, 100)
    assert plan.encoder_sizes == (1000, 500, 400, 120, 100)
    assert plan.widen_ops == ()
    assert ("enc", 2, 120) in plan.deepen_ops
    assert ("dec", 0, 120) in plan.deepen_ops


def test_propsize_insertion_stall_terminates():
    # ceil(0.85*5)=5 makes no progress, so the planner must stop rather than
    # stack width-5 layers forever; the embedding pair stays the exception
    plan = propsize_plan((5,), 5, 0.85, 2)
    assert plan.encoder_sizes == (5, 2)
    assert plan.deepen_ops == ()
    # with room to shrink, insertion proceeds until the decrease stalls
    deep = propsize_plan((40, 34), 40, 0.85, 2)
    widths = [w for side, _, w in deep.deepen_ops if side == "enc"]
    assert widths and all(b < a for a, b in zip(widths, widths[1:]))
    assert widths[-1] > 2  # the stalled tail never reaches d


def test_propsize_validation():
    with pytest.raises(ValueError):
        propsize_plan((100, 50), 80, 0.3, 10)
    with pytest.raises(ValueError):
        propsize_plan((100, 50), 120, 0.0, 10)
    with pytest.raises(ValueError):
        propsize_plan((100, 50), 120, 1.0, 10)
    with pytest.raises(ValueError):
        propsize_plan((100, 0), 120, 0.3, 10)
    with pytest.raises(ValueError):
        propsize_plan((100, 50), 120, 0.3, 0)


def test_propsize_plan_properties():
    rng = np.random.default_rng(0)
    for _ in range(200):
        depth = int(rng.integers(1, 4))
        sizes = [int(rng.integers(50, 400))]
        for _ in range(depth):
            sizes.append(int(rng.integers(5, sizes[-1] + 1)))
        d = int(rng.integers(2, max(3, sizes[-1] // 2 + 1)))
        rho = float(rng.uniform(0.1, 0.9))
        new_n = int(sizes[0] * rng.uniform(1.0, 3.0))
        plan = propsize_plan(sizes, new_n, rho, d)
        chain = plan.encoder_sizes
        assert chain[0] == new_n
        assert chain[-1] == d
        # the rule holds on every consecutive pair except into the fixed embedding
        for a, b in zip(chain[:-2], chain[1:-1]):
            assert b >= rho * a
        # the embedding pair also holds unless insertion stalls (tiny widths
        # where ceil(rho*prev) cannot strictly decrease)
        if d < rho * chain[-2]:
            assert np.ceil(rho * chain[-2]) >= chain[-2]
        # hidden widths never shrink
        for old, new in zip(sizes[1:], chain[1 : len(sizes)]):
            assert new >= old
        assert plan.decoder_sizes == tuple(reversed(chain))
        # planning again from the grown sizes is a no-op
        again = propsize_plan(chain[:-1], new_n, rho, d)
        assert again.widen_ops == () and again.deepen_ops == ()
        assert again.encoder_sizes == chain


def test_widen_mapping_deterministic():
    params = build_autoencoder(10, (4, 3), 2, seed=1)
    a, m1 = net2wider(params, "enc", 1, 7, seed=3)
    b, m2 = net2wider(params, "enc", 1, 7, seed=3)
    np.testing.assert_array_equal(m1, m2)
    assert m1.size == 3
    assert np.all((m1 >= 0) & (m1 < 4))
    # new unit 4 + u copies the incoming weights of unit m1[u]
    np.testing.assert_array_equal(a.encoder[0].weights[4:], params.encoder[0].weights[m1])
    np.testing.assert_array_equal(a.encoder[0].weights, b.encoder[0].weights)


def test_net2wider_preserves_function():
    params = build_autoencoder(10, (6, 4), 2, seed=1)
    x = np.random.default_rng(2).uniform(0, 1, (50, 10))
    before = _outputs(params, x)
    wider, _ = net2wider(params, "enc", 1, 9, noise_scale=0.0, seed=5)
    assert wider.encoder_sizes == (10, 9, 4, 2)
    np.testing.assert_allclose(_outputs(wider, x), before, atol=1e-12)
    # replication structure: each new row copies an original row
    target = wider.encoder[0]
    for r in range(6, 9):
        assert any(np.array_equal(target.weights[r], params.encoder[0].weights[o]) for o in range(6))


def test_net2wider_splits_outgoing_weights():
    # find a seed whose mapping replicates unit 0 once: both columns get half
    params = build_autoencoder(4, (2,), 2, seed=0)
    wider, _ = next(
        grown for grown in (net2wider(params, "enc", 1, 3, seed=s) for s in range(50))
        if grown[1].tolist() == [0]
    )
    old_col = params.encoder[1].weights[:, 0]
    np.testing.assert_allclose(wider.encoder[1].weights[:, 0], old_col / 2)
    np.testing.assert_allclose(wider.encoder[1].weights[:, 2], old_col / 2)
    np.testing.assert_array_equal(wider.encoder[1].weights[:, 1], params.encoder[1].weights[:, 1])


def test_net2wider_noise_perturbs_only_new_rows():
    params = build_autoencoder(10, (6, 4), 2, seed=1)
    a, mapping_a = net2wider(params, "enc", 1, 8, noise_scale=0.0, seed=9)
    b, mapping_b = net2wider(params, "enc", 1, 8, noise_scale=1e-3, seed=9)
    np.testing.assert_array_equal(mapping_a, mapping_b)
    np.testing.assert_array_equal(a.encoder[0].weights[:6], b.encoder[0].weights[:6])
    assert not np.array_equal(a.encoder[0].weights[6:], b.encoder[0].weights[6:])


def test_net2wider_validation_and_identity():
    params = build_autoencoder(10, (6, 4), 2, seed=1)
    same, mapping = net2wider(params, "enc", 1, 6)
    assert same is not params
    assert mapping.size == 0
    np.testing.assert_array_equal(same.encoder[0].weights, params.encoder[0].weights)
    with pytest.raises(ValueError):
        net2wider(params, "enc", 1, 5)
    with pytest.raises(ValueError):
        net2wider(params, "enc", 3, 9)  # the embedding layer itself
    with pytest.raises(ValueError):
        net2wider(params, "middle", 1, 9)


def test_net2deeper_identity_insert_exact():
    params = build_autoencoder(10, (6, 4), 2, seed=3)
    x = np.random.default_rng(4).uniform(0, 1, (40, 10))
    before = _outputs(params, x)
    deeper = net2deeper(params, "enc", 1)
    assert deeper.encoder_sizes == (10, 6, 6, 4, 2)
    inserted = deeper.encoder[1]
    np.testing.assert_array_equal(inserted.weights, np.eye(6))
    np.testing.assert_array_equal(inserted.bias, np.zeros(6))
    np.testing.assert_array_equal(_outputs(deeper, x), before)


def test_net2deeper_insertions_commute():
    params = build_autoencoder(10, (6, 4), 2, seed=3)
    a = net2deeper(net2deeper(params, "enc", 1), "enc", 3)
    b = net2deeper(net2deeper(params, "enc", 2), "enc", 1)
    assert a.encoder_sizes == b.encoder_sizes
    for la, lb in zip(a.layers(), b.layers()):
        np.testing.assert_array_equal(la.weights, lb.weights)
        np.testing.assert_array_equal(la.bias, lb.bias)


def test_net2deeper_rejects_input_side():
    params = build_autoencoder(10, (6, 4), 2, seed=3)
    with pytest.raises(ValueError):
        net2deeper(params, "enc", 0)
    net2deeper(params, "dec", 0)  # decoder front sits after the embedding
    with pytest.raises(ValueError):
        net2deeper(params, "enc", 4)


def test_expand_input_output_old_coordinates_exact():
    params = build_autoencoder(10, (6, 4), 2, seed=5)
    x = np.random.default_rng(6).uniform(0, 1, (30, 10))
    before = _outputs(params, x)
    bigger = expand_input_output(params, 14, seed=7)
    assert bigger.n == 14
    assert bigger.encoder_sizes == (14, 6, 4, 2)
    assert bigger.decoder_sizes == (2, 4, 6, 14)
    xt = np.hstack([x, np.zeros((30, 4))])
    after = _outputs(bigger, xt)
    np.testing.assert_allclose(after[:, :10], before, atol=1e-9)
    # embeddings of old nodes unchanged exactly when the new columns see zeros
    np.testing.assert_allclose(
        nn.forward(bigger.encoder, xt)[-1], nn.forward(params.encoder, x)[-1], atol=1e-15
    )
    assert expand_input_output(params, 10).n == 10
    with pytest.raises(ValueError):
        expand_input_output(params, 9)


def test_expand_checkpoint_roundtrip(tmp_path):
    params = expand_input_output(build_autoencoder(8, (5,), 2, seed=1), 12, seed=2)
    loaded = load_checkpoint(save_checkpoint(params, tmp_path / "ck.npz"))
    for a, b in zip(params.layers(), loaded.layers()):
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.bias, b.bias)


def test_apply_plan_empty_is_identity():
    params = build_autoencoder(10, (6, 4), 2, seed=8)
    plan = propsize_plan(params.encoder_sizes[:-1], 10, 0.3, 2)
    grown, report = apply_plan(params, plan)
    assert report == []
    for a, b in zip(params.layers(), grown.layers()):
        np.testing.assert_array_equal(a.weights, b.weights)


def test_apply_plan_widen_only_matches_example_sizes():
    params = build_autoencoder(1000, (500, 300), 100, seed=0)
    plan = propsize_plan((1000, 500, 300), 2000, 0.3, 100)
    grown, report = apply_plan(params, plan, noise_scale=0.0, seed=1)
    assert grown.encoder_sizes == (2000, 600, 300, 100)
    assert grown.decoder_sizes == (100, 300, 600, 2000)
    ops = [r["op"] for r in report]
    assert ops == ["expand", "widen", "widen"]
    assert all(len(r["mapping"]) == 100 for r in report if r["op"] == "widen")


def test_apply_plan_with_inserts_preserves_function():
    # encoder-side inserts are narrower than their incoming width and decoder
    # inserts are wider; both routes must keep old-coordinate outputs
    params = build_autoencoder(100, (60,), 5, seed=3)
    plan = propsize_plan((100, 60), 140, 0.3, 5)
    assert plan.encoder_sizes == (140, 60, 18, 6, 5)
    x = np.random.default_rng(11).uniform(0, 1, (100, 100))
    before = _outputs(params, x)
    grown, report = apply_plan(params, plan, noise_scale=0.0, seed=11)
    assert grown.encoder_sizes == (140, 60, 18, 6, 5)
    assert grown.decoder_sizes == (5, 6, 18, 60, 140)
    routes = [r["construction"] for r in report if r["op"] == "deepen"]
    assert routes == ["weight_push", "identity_then_widen", "weight_push", "identity_then_widen"]
    xt = np.hstack([x, np.zeros((100, 40))])
    after = _outputs(grown, xt)
    assert np.max(np.abs(after[:, :100] - before)) <= 1e-9


def test_apply_plan_mismatched_plan_rejected():
    params = build_autoencoder(10, (6, 4), 2, seed=8)
    foreign = propsize_plan((12, 9, 5), 20, 0.3, 2)
    with pytest.raises(ValueError):
        apply_plan(params, foreign)


def test_apply_plan_noise_changes_outputs_but_not_sizes():
    params = build_autoencoder(30, (20,), 4, seed=9)
    plan = propsize_plan((30, 20), 80, 0.4, 4)
    assert plan.widen_ops  # raising n to 80 forces the hidden layer wider
    exact, _ = apply_plan(params, plan, noise_scale=0.0, seed=2)
    noisy, _ = apply_plan(params, plan, noise_scale=1e-3, seed=2)
    assert noisy.encoder_sizes == exact.encoder_sizes
    x = np.hstack([np.random.default_rng(3).uniform(0, 1, (20, 30)), np.zeros((20, 50))])
    assert not np.array_equal(_outputs(noisy, x), _outputs(exact, x))


def test_growth_plan_serialization():
    plan = propsize_plan((100, 60), 140, 0.3, 5)
    d = plan.to_dict()
    assert d["encoder_sizes"] == [140, 60, 18, 6, 5]
    rebuilt = GrowthPlan(
        tuple(d["encoder_sizes"]),
        tuple(d["decoder_sizes"]),
        tuple(tuple(op) for op in d["widen_ops"]),
        tuple(tuple(op) for op in d["deepen_ops"]),
    )
    assert rebuilt == plan
