from __future__ import annotations

import numpy as np
import pytest

from dyngem import nn
from dyngem.nn import (
    SLICE_ELEMENTS,
    LayerParams,
    OptimizerState,
    backward,
    forward,
    nesterov_step,
    regularizer_value_and_grads,
    relu,
)
from helpers import penalized_step_oracle


def test_relu_zero_and_negative():
    np.testing.assert_array_equal(relu(np.array([-2.0, 0.0, 3.0])), [0.0, 0.0, 3.0])


def test_layer_params_validation():
    LayerParams(np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        LayerParams(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        LayerParams(np.zeros((2, 3)), np.zeros(3))


def test_forward_hand_case():
    # z = (2*1 + 1*(-1) + 0.5, 2*0 + 1*2 - 3) = (1.5, -1) -> relu (1.5, 0)
    layer = LayerParams(np.array([[1.0, -1.0], [0.0, 2.0]]), np.array([0.5, -3.0]))
    acts = forward([layer], np.array([[2.0, 1.0]]))
    np.testing.assert_array_equal(acts[-1], [[1.5, 0.0]])
    assert len(acts) == 2
    with pytest.raises(ValueError):
        forward([layer], np.zeros((1, 3)))
    with pytest.raises(ValueError):
        forward([layer], np.array([2.0, 1.0]))


def test_forward_batch_matches_rows():
    rng = np.random.default_rng(0)
    layers = [
        LayerParams(rng.standard_normal((5, 4)), rng.standard_normal(5)),
        LayerParams(rng.standard_normal((3, 5)), rng.standard_normal(3)),
    ]
    x = rng.standard_normal((6, 4))
    batch_out = forward(layers, x)[-1]
    for i in range(6):
        np.testing.assert_allclose(batch_out[i : i + 1], forward(layers, x[i : i + 1])[-1], atol=1e-15)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(1)
    layers = [
        LayerParams(rng.uniform(0.2, 1.0, (4, 3)), rng.uniform(0.1, 0.5, 4)),
        LayerParams(rng.uniform(0.2, 1.0, (2, 4)), rng.uniform(0.1, 0.5, 2)),
    ]
    x = rng.uniform(0.5, 1.5, (3, 3))
    c = rng.standard_normal((3, 2))

    def value():
        return float(np.sum(forward(layers, x)[-1] * c))

    acts = forward(layers, x)
    grads, grad_in = backward(layers, acts, c)
    h = 1e-6
    for layer, (gw, gb) in zip(layers, grads):
        for arr, g in ((layer.weights, gw), (layer.bias, gb)):
            flat, gflat = arr.reshape(-1), g.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = value()
                flat[k] = orig - h
                down = value()
                flat[k] = orig
                fd = (up - down) / (2 * h)
                assert abs(fd - gflat[k]) <= 1e-5 * max(1.0, abs(fd))
    # input gradient too
    for i in range(3):
        for j in range(3):
            orig = x[i, j]
            x[i, j] = orig + h
            up = value()
            x[i, j] = orig - h
            down = value()
            x[i, j] = orig
            assert abs((up - down) / (2 * h) - grad_in[i, j]) <= 1e-5


def test_backward_masks_dead_units():
    # first unit dead for this input: its weight rows get zero gradient
    layer = LayerParams(np.array([[-1.0, 0.0], [1.0, 1.0]]), np.array([0.0, 0.0]))
    x = np.array([[2.0, 1.0]])
    acts = forward([layer], x)
    grads, _ = backward([layer], acts, np.ones((1, 2)))
    np.testing.assert_array_equal(grads[0][0][0], [0.0, 0.0])
    np.testing.assert_array_equal(grads[0][0][1], x[0])
    np.testing.assert_array_equal(grads[0][1], [0.0, 1.0])


def test_backward_without_input_grad_keeps_weight_grads():
    rng = np.random.default_rng(4)
    layers = [LayerParams(rng.standard_normal((o, i)), rng.standard_normal(o))
              for i, o in ((7, 5), (5, 4), (4, 3))]
    x = rng.standard_normal((6, 7))
    c = rng.standard_normal((6, 3))
    acts = forward(layers, x)
    full, grad_in = backward(layers, acts, c)
    skipped, none = backward(layers, acts, c, input_grad=False)
    assert grad_in.shape == x.shape and none is None
    for (gw, gb), (sw, sb) in zip(full, skipped):
        np.testing.assert_array_equal(gw, sw)
        np.testing.assert_array_equal(gb, sb)


def test_backward_activation_mismatch():
    layer = LayerParams(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError):
        backward([layer], [np.zeros((1, 2))], np.zeros((1, 2)))


def test_regularizer_hand_case():
    # L1 = 9, L2 = 29 for W = [[3,-4],[0,2]]; the penalty gradient is added
    # into the weight gradients in place
    layer = LayerParams(np.array([[3.0, -4.0], [0.0, 2.0]]), np.zeros(2))
    grads = [np.zeros((2, 2)), np.ones((2, 2))]
    l1, l2 = regularizer_value_and_grads([layer, layer], grads, 0.1, 0.01)
    assert (l1, l2) == (18.0, 58.0)
    penalty = [[0.1 + 0.06, -0.1 - 0.08], [0.0, 0.1 + 0.04]]
    np.testing.assert_allclose(grads[0], penalty)
    np.testing.assert_allclose(grads[1], np.add(penalty, 1.0))
    with pytest.raises(ValueError):
        regularizer_value_and_grads([layer], [np.zeros((2, 2))], -0.1, 0.0)
    with pytest.raises(ValueError):
        regularizer_value_and_grads([layer], [np.zeros((2, 3))], 0.1, 0.0)
    with pytest.raises(ValueError):
        regularizer_value_and_grads([layer, layer], [np.zeros((2, 2))], 0.1, 0.0)


WIDE = SLICE_ELEMENTS + 5  # one row (or column) longer than a whole slice

# Each case: per layer (weight shape, weight order, gradient order), then
# momentum, nu1, nu2.  The shapes span several slices.
ORACLE_CASES = {
    "row_major": ([((300, 250), "C", "C"), ((250, 40), "C", "C")], 0.9, 1e-3, 2e-3),
    "column_major": ([((300, 250), "F", "F"), ((250, 40), "F", "F")], 0.9, 1e-3, 2e-3),
    "gradient_layout_differs": ([((300, 250), "C", "F"), ((250, 300), "F", "C")], 0.9, 1e-3, 2e-3),
    "rows_wider_than_a_slice": ([((3, WIDE), "C", "C"), ((WIDE, 3), "F", "F"), ((2, WIDE), "C", "F")],
                                0.9, 1e-3, 2e-3),
    "momentum_zero": ([((300, 250), "C", "C"), ((250, 300), "F", "F")], 0.0, 1e-3, 2e-3),
    "no_penalty": ([((300, 250), "C", "C"), ((250, 300), "F", "F")], 0.9, 0.0, 0.0),
    # every array fits in one slice
    "single_slice": ([((128, 64), "C", "C"), ((64, 128), "F", "F"), ((32, 64), "C", "F"),
                      ((1, SLICE_ELEMENTS), "F", "C")], 0.9, 1e-3, 2e-3),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_streamed_passes_match_the_whole_array_oracle(case):
    spec, momentum, nu1, nu2 = ORACLE_CASES[case]
    rng = np.random.default_rng(sorted(ORACLE_CASES).index(case))
    layers = []
    for shape, w_order, _ in spec:
        w = np.asarray(rng.standard_normal(shape), order=w_order)
        w[rng.random(shape) < 0.05] = 0.0  # sign(0) = 0
        layers.append(LayerParams(w, rng.standard_normal(shape[0])))
    oracle_layers = [LayerParams(np.copy(l.weights), np.copy(l.bias)) for l in layers]  # layouts kept
    params = [a for layer in layers for a in (layer.weights, layer.bias)]
    state = OptimizerState.for_params(params, base_lr=0.05, momentum=momentum, decay=0.1)
    oracle_vel = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in oracle_layers]
    for step in range(4):
        lr = state.learning_rate()
        grads = [(np.asarray(rng.standard_normal(shape), order=g_order), rng.standard_normal(shape[0]))
                 for shape, _, g_order in spec]
        oracle_grads = [(np.copy(gw), np.copy(gb)) for gw, gb in grads]
        l1, l2 = regularizer_value_and_grads(layers, [gw for gw, _ in grads], nu1, nu2)
        nesterov_step(params, [g for pair in grads for g in pair], state)
        o1, o2 = penalized_step_oracle(oracle_layers, oracle_grads, oracle_vel, lr, momentum, nu1, nu2)
        assert l1 == pytest.approx(o1, rel=1e-12) and l2 == pytest.approx(o2, rel=1e-12)
        for k, (mine, theirs) in enumerate(zip(layers, oracle_layers)):
            assert np.array_equal(mine.weights, theirs.weights), (step, k)
            assert np.array_equal(mine.bias, theirs.bias), (step, k)
            assert np.array_equal(state.velocities[2 * k], oracle_vel[k][0]), (step, k)
            assert np.array_equal(state.velocities[2 * k + 1], oracle_vel[k][1]), (step, k)
    for (_, w_order, _), layer in zip(spec, layers):
        assert layer.weights.flags[f"{w_order}_CONTIGUOUS"]


def test_nesterov_updates_non_contiguous_arrays_in_place():
    for rows in (200, 20):  # several slices, and a single one
        rng = np.random.default_rng(6)
        base = rng.standard_normal((rows, 400))
        grads = rng.standard_normal((rows, 400))
        expected = base.copy()
        p = base[:, ::2]  # neither row- nor column-major: ravel would copy it
        assert not (p.flags.c_contiguous or p.flags.f_contiguous)
        v = np.zeros((rows, 400))[::-1, ::2]
        state = OptimizerState([v], base_lr=0.1, momentum=0.9)
        for _ in range(3):
            nesterov_step([p], [grads[:, ::2]], state)
        expected_v = np.zeros((rows, 200))
        for _ in range(3):
            step = 0.1 * grads[:, ::2]
            expected_v *= 0.9
            expected_v -= step
            expected[:, ::2] += 0.9 * expected_v
            expected[:, ::2] -= step
        assert np.array_equal(base, expected), rows
        assert np.array_equal(state.velocities[0], expected_v), rows


def test_scratch_slices_take_their_arrays_layout():
    for shape, order in (((300, 250), "C"), ((300, 250), "F"), ((70000,), "C")):
        a = np.zeros(shape, order=order)
        slices = list(nn._slices(a, 2))
        assert len(slices) > 1
        covered = np.zeros(shape, dtype=int)
        for index, got_order, buffers in slices:
            view = a[index]
            assert got_order == order and view.flags[f"{order}_CONTIGUOUS"]
            assert view.size < SLICE_ELEMENTS * 3 // 2  # a short tail joins the slice before it
            for buffer in buffers:
                assert buffer.shape == view.shape and buffer.flags[f"{order}_CONTIGUOUS"]
            covered[index] += 1
        assert (covered == 1).all()


def test_scratch_covers_a_row_wider_than_a_slice():
    # one row (column) per slice, and the buffers hold a whole one
    for a in (np.zeros((3, WIDE)), np.zeros((WIDE, 3), order="F")):
        slices = list(nn._slices(a, 1))
        assert len(slices) == 3
        for index, _, (buffer,) in slices:
            assert a[index].size == WIDE and buffer.shape == a[index].shape


def test_a_short_tail_joins_the_slice_before_it():
    # 128x300: a slice holds 109 rows, so the 19-row tail joins it; in
    # 170x300 the 61-row tail is kept, and the buffers fit the largest slice
    for rows, expected in ((128, [128]), (170, [109, 61]), (240, [109, 131])):
        a = np.zeros((rows, 300))
        slices = list(nn._slices(a, 1))
        assert [a[index].shape[0] for index, _, _ in slices] == expected, rows
        for index, _, (buffer,) in slices:
            assert buffer.shape == a[index].shape


def test_nesterov_two_step_hand_case():
    # mu=0.9, lr=0.1, g=1 twice: p = 1 -> 0.81 -> 0.539
    p = [np.array([1.0])]
    state = OptimizerState.for_params(p, base_lr=0.1, momentum=0.9, decay=0.0)
    nesterov_step(p, [np.array([1.0])], state)
    assert p[0][0] == pytest.approx(0.81)
    nesterov_step(p, [np.array([1.0])], state)
    assert p[0][0] == pytest.approx(0.539)
    assert state.step_count == 2


def test_nesterov_decay_schedule():
    # decay=1: second step uses lr 0.05 -> p = 0.81 - 0.126 - 0.05 = 0.634
    p = [np.array([1.0])]
    state = OptimizerState.for_params(p, base_lr=0.1, momentum=0.9, decay=1.0)
    assert state.learning_rate() == pytest.approx(0.1)
    nesterov_step(p, [np.array([1.0])], state)
    assert state.learning_rate() == pytest.approx(0.05)
    nesterov_step(p, [np.array([1.0])], state)
    assert p[0][0] == pytest.approx(0.634)


def test_momentum_zero_is_plain_sgd():
    rng = np.random.default_rng(5)
    p = [rng.standard_normal((3, 2))]
    g = [rng.standard_normal((3, 2))]
    expected = p[0] - 0.2 * g[0]
    state = OptimizerState.for_params(p, base_lr=0.2, momentum=0.0)
    nesterov_step(p, g, state)
    np.testing.assert_allclose(p[0], expected, atol=1e-15)


def test_nesterov_updates_in_place():
    arr = np.ones(4)
    p = [arr]
    state = OptimizerState.for_params(p, base_lr=0.1)
    nesterov_step(p, [np.ones(4)], state)
    assert arr is p[0]
    assert not np.array_equal(arr, np.ones(4))


def test_optimizer_validation():
    with pytest.raises(ValueError):
        OptimizerState.for_params([np.ones(2)], base_lr=0.0)
    with pytest.raises(ValueError):
        OptimizerState.for_params([np.ones(2)], base_lr=0.1, momentum=1.0)
    with pytest.raises(ValueError):
        OptimizerState.for_params([np.ones(2)], base_lr=0.1, decay=-1.0)
    state = OptimizerState.for_params([np.ones(2)], base_lr=0.1)
    with pytest.raises(ValueError):
        nesterov_step([np.ones(2)], [np.ones(3)], state)
    with pytest.raises(ValueError):
        nesterov_step([np.ones(2), np.ones(2)], [np.ones(2)], state)


def test_nesterov_rejects_a_velocity_of_another_shape():
    # rejected before anything is updated
    p = np.ones((2, 3))
    for shape in ((3, 2), (6,), (2, 4), (1, 3)):
        state = OptimizerState([np.ones(shape)], base_lr=0.1)
        with pytest.raises(ValueError):
            nesterov_step([p], [np.ones((2, 3))], state)
        assert state.step_count == 0
        np.testing.assert_array_equal(state.velocities[0], np.ones(shape))
    np.testing.assert_array_equal(p, np.ones((2, 3)))
