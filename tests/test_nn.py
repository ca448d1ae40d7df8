from __future__ import annotations

import numpy as np
import pytest

from dyngem.nn import (
    LayerParams,
    OptimizerState,
    backward,
    forward,
    nesterov_step,
    regularizer_value_and_grads,
    relu,
)


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
    acts = forward([layer], np.array([2.0, 1.0]))
    np.testing.assert_array_equal(acts[-1], [1.5, 0.0])
    assert len(acts) == 2
    with pytest.raises(ValueError):
        forward([layer], np.zeros(3))


def test_forward_batch_matches_rows():
    rng = np.random.default_rng(0)
    layers = [
        LayerParams(rng.standard_normal((5, 4)), rng.standard_normal(5)),
        LayerParams(rng.standard_normal((3, 5)), rng.standard_normal(3)),
    ]
    x = rng.standard_normal((6, 4))
    batch_out = forward(layers, x)[-1]
    for i in range(6):
        np.testing.assert_allclose(batch_out[i], forward(layers, x[i])[-1], atol=1e-15)


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
    x = np.array([2.0, 1.0])
    acts = forward([layer], x)
    grads, _ = backward([layer], acts, np.ones(2))
    np.testing.assert_array_equal(grads[0][0][0], [0.0, 0.0])
    np.testing.assert_array_equal(grads[0][0][1], x)


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
        backward([layer], [np.zeros(2)], np.zeros(2))


def test_regularizer_hand_case():
    # L1 = 9, L2 = 29 for W = [[3,-4],[0,2]]
    layer = LayerParams(np.array([[3.0, -4.0], [0.0, 2.0]]), np.zeros(2))
    l1, l2, grads = regularizer_value_and_grads([layer, layer], 0.1, 0.01)
    assert (l1, l2) == (18.0, 58.0)
    np.testing.assert_allclose(grads[0], [[0.1 + 0.06, -0.1 - 0.08], [0.0, 0.1 + 0.04]])
    np.testing.assert_array_equal(grads[1], grads[0])
    with pytest.raises(ValueError):
        regularizer_value_and_grads([layer], -0.1, 0.0)


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
