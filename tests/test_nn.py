from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from concurrent import futures
from pathlib import Path

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
from helpers import penalized_step_oracle, sparse_rows


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


def test_weight_gradients_take_their_weights_layout():
    # the kernel's sparse product writes a column-major gradient and numpy's
    # dense one a row-major gradient; each is laid out like its weights
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 7)) * (rng.random((6, 7)) < 0.3)
    c = rng.standard_normal((6, 3))
    for order, first_input in (("C", sparse_rows(x)), ("F", x), ("F", sparse_rows(x))):
        layers = [LayerParams(np.asarray(rng.standard_normal((5, 7)), order=order), np.zeros(5)),
                  LayerParams(rng.standard_normal((3, 5)), np.zeros(3))]
        grads, _ = backward(layers, forward(layers, first_input), c, input_grad=False)
        assert grads[0][0].flags[f"{order}_CONTIGUOUS"], order
        assert grads[1][0].flags.c_contiguous, order
        dense, _ = backward(layers, forward(layers, x), c, input_grad=False)
        np.testing.assert_allclose(grads[0][0], dense[0][0], rtol=1e-12, atol=1e-12)


def _overlap_stack(rng, sparse):
    """A three-layer stack with its forward pass and an output gradient; a
    sparse first input comes with column-major first weights, as training
    lays them out."""
    x = rng.standard_normal((40, 70)) * (rng.random((40, 70)) < 0.2)
    layers = [LayerParams(rng.standard_normal((o, i)), rng.standard_normal(o)) for i, o in ((70, 50), (50, 60), (60, 30))]
    if sparse:
        layers[0].weights = np.asfortranarray(layers[0].weights)
    acts = forward(layers, sparse_rows(x) if sparse else x)
    return layers, acts, rng.standard_normal((40, 30))


def _spy_on_helper(monkeypatch):
    """Counts the products handed to the helper; returns the list of calls."""
    calls, submit = [], nn._HELPER.submit
    monkeypatch.setattr(nn._HELPER, "submit", lambda fn, *args: calls.append(fn) or submit(fn, *args))
    return calls


def _open_gate(monkeypatch):
    # tier-1 models are tiny and pytest leaves BLAS threaded: force the gate
    monkeypatch.setattr(nn, "_blas_threads", lambda: 1)
    monkeypatch.setattr(nn, "OVERLAP_MIN_MACS", 1)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("input_grad", [True, False])
def test_overlapped_backward_is_bit_equal_to_serial(monkeypatch, sparse, input_grad):
    layers, acts, c = _overlap_stack(np.random.default_rng(7), sparse)
    serial = backward(layers, acts, c, input_grad=input_grad)
    _open_gate(monkeypatch)
    calls = _spy_on_helper(monkeypatch)
    overlapped = backward(layers, acts, c, input_grad=input_grad)
    # every layer but an input-gradient-free first one hands over its product
    assert len(calls) == (3 if input_grad else 2)
    for (sw, sb), (ow, ob) in zip(serial[0], overlapped[0]):
        assert np.array_equal(sw, ow) and np.array_equal(sb, ob)
        assert sw.flags.c_contiguous == ow.flags.c_contiguous and sw.flags.f_contiguous == ow.flags.f_contiguous
    if input_grad:
        assert np.array_equal(serial[1], overlapped[1])
    else:
        assert serial[1] is None and overlapped[1] is None


def test_the_helper_is_not_used_off_the_main_thread_with_threaded_blas_or_below_the_threshold(monkeypatch):
    layers, acts, c = _overlap_stack(np.random.default_rng(8), sparse=False)
    expected = backward(layers, acts, c)
    calls = _spy_on_helper(monkeypatch)

    def check(result):
        assert not calls
        assert all(np.array_equal(a, b) for pair in zip(expected[0], result[0]) for a, b in zip(*pair))
        assert np.array_equal(expected[1], result[1])

    _open_gate(monkeypatch)
    with futures.ThreadPoolExecutor(max_workers=1) as pool:  # as the engine's --jobs workers
        check(pool.submit(backward, layers, acts, c).result())
    monkeypatch.setattr(nn, "_blas_threads", lambda: 2)
    check(backward(layers, acts, c))
    monkeypatch.setattr(nn, "_blas_threads", lambda: 0)  # a BLAS the probe does not know
    check(backward(layers, acts, c))
    monkeypatch.setattr(nn, "_blas_threads", lambda: 1)
    largest = max(40 * layer.out_dim * layer.in_dim for layer in layers)
    monkeypatch.setattr(nn, "OVERLAP_MIN_MACS", largest + 1)
    check(backward(layers, acts, c))
    monkeypatch.setattr(nn, "OVERLAP_MIN_MACS", largest)  # the threshold itself overlaps
    backward(layers, acts, c)
    assert len(calls) == 1


def test_an_error_on_the_calling_thread_waits_for_the_helper(monkeypatch):
    # the first layer's weight gradient (the kernel's sparse product) fails
    # while its input gradient runs on the helper; the error surfaces only
    # once the helper's product has ended, and the next call is correct
    layers, acts, c = _overlap_stack(np.random.default_rng(9), sparse=True)
    expected = backward(layers, acts, c)
    _open_gate(monkeypatch)
    entered, finished = threading.Event(), threading.Event()
    submit = nn._HELPER.submit

    def slow(fn, *args):
        def run():
            entered.set()
            time.sleep(0.2)
            result = fn(*args)
            finished.set()
            return result
        entered.clear()
        finished.clear()
        return submit(run)

    def failing(*args):
        assert entered.wait(5)
        raise RuntimeError("product failed")

    monkeypatch.setattr(nn._HELPER, "submit", slow)
    product = nn.kernels.csr_tmatmul
    monkeypatch.setattr(nn.kernels, "csr_tmatmul", failing)
    with pytest.raises(RuntimeError, match="product failed"):
        backward(layers, acts, c)
    assert finished.is_set()
    monkeypatch.setattr(nn.kernels, "csr_tmatmul", product)
    grads, grad_in = backward(layers, acts, c)
    assert finished.is_set()
    assert all(np.array_equal(a, b) for pair in zip(expected[0], grads) for a, b in zip(*pair))
    assert np.array_equal(expected[1], grad_in)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
def test_a_forked_child_gets_a_helper_of_its_own(monkeypatch):
    # the parent's worker thread does not exist in a forked child, so a
    # child that used the parent's pool would wait for it forever
    layers, acts, c = _overlap_stack(np.random.default_rng(12), sparse=False)
    _open_gate(monkeypatch)
    expected = backward(layers, acts, c)  # the parent's helper has run
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if np.array_equal(backward(layers, acts, c)[1], expected[1]) else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


@pytest.mark.skipif(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"] != "scipy-openblas"
                    or (os.cpu_count() or 1) < 2, reason="numpy bundles no scipy-openblas, or one core")
def test_the_blas_probe_reads_the_thread_count():
    src = str(Path(nn.__file__).resolve().parent.parent)
    for threads in ("1", "2"):
        # OpenBLAS reads OPENBLAS_NUM_THREADS before OMP_NUM_THREADS
        proc = subprocess.run([sys.executable, "-c", "from dyngem import nn; print(nn._blas_threads())"],
                              env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src),
                              capture_output=True, text=True, check=True)
        assert proc.stdout.split() == [threads], proc.stderr


def test_sparse_rows_checks_its_row_pointers():
    good = nn.SparseRows([0, 2, 2, 3], [0, 4, 1], [1.0, 2.0, 3.0], (3, 5))
    assert good.ndim == 2 and good.shape == (3, 5) and good.indices.dtype == np.intp
    for indptr, shape in (([0, 2, 3], (3, 5)), ([1, 2, 2, 3], (3, 5)), ([0, 2, 1, 3], (3, 5)),
                          ([0, 2, 2, 2], (3, 5)), ([0, 2, 2, 3], (3,))):
        with pytest.raises(ValueError):
            nn.SparseRows(indptr, [0, 4, 1], [1.0, 2.0, 3.0], shape)


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


WIDE = SLICE_ELEMENTS + 5  # one row (or column) longer than a whole chunk

# Each case: per layer (weight shape, weight order, gradient order), then
# momentum, nu1, nu2.  The shapes span several chunks.
ORACLE_CASES = {
    "row_major": ([((300, 250), "C", "C"), ((250, 40), "C", "C")], 0.9, 1e-3, 2e-3),
    "column_major": ([((300, 250), "F", "F"), ((250, 40), "F", "F")], 0.9, 1e-3, 2e-3),
    "rows_wider_than_a_slice": ([((3, WIDE), "C", "C"), ((WIDE, 3), "F", "F"), ((2, WIDE), "C", "C")],
                                0.9, 1e-3, 2e-3),
    # just above 1.5 and 2.5 chunks: two and three chunks of uneven length
    "uneven_chunks": ([((1, 3 * SLICE_ELEMENTS // 2 + 7), "C", "C"),
                       ((5 * SLICE_ELEMENTS // 2 + 3, 1), "F", "F")], 0.9, 1e-3, 2e-3),
    "momentum_zero": ([((300, 250), "C", "C"), ((250, 300), "F", "F")], 0.0, 1e-3, 2e-3),
    "no_penalty": ([((300, 250), "C", "C"), ((250, 300), "F", "F")], 0.9, 0.0, 0.0),
    # every array fits in one chunk; a single row is both C- and F-contiguous
    "single_slice": ([((128, 64), "C", "C"), ((64, 128), "F", "F"), ((32, 64), "F", "F"),
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


def test_passes_reject_arrays_of_another_layout_before_writing_any():
    # a gradient or a velocity in the other layout, or a non-contiguous
    # parameter, raises ValueError and leaves every array as it was; the
    # first pair or triple is valid, so a pass that wrote as it checked
    # would have changed it
    rng = np.random.default_rng(6)
    good = [rng.standard_normal((20, 30)) for _ in range(3)]
    base = rng.standard_normal((20, 60))
    cases = {
        "gradient": (rng.standard_normal((20, 30)), np.asfortranarray(rng.standard_normal((20, 30))),
                     rng.standard_normal((20, 30))),
        "velocity": (rng.standard_normal((20, 30)), rng.standard_normal((20, 30)),
                     np.asfortranarray(rng.standard_normal((20, 30)))),
        "parameter": (base[:, ::2], rng.standard_normal((20, 30)), rng.standard_normal((20, 30))),
    }
    for name, (p, g, v) in cases.items():
        assert not (p.flags.c_contiguous and g.flags.c_contiguous and v.flags.c_contiguous)
        arrays = good + [p, g, v]
        before = [a.copy() for a in arrays]
        state = OptimizerState([good[2], v], base_lr=0.1, momentum=0.9)
        with pytest.raises(ValueError):
            nesterov_step([good[0], p], [good[1], g], state)
        assert state.step_count == 0, name
        if name != "velocity":
            layers = [LayerParams(good[0], np.zeros(20)), LayerParams(p, np.zeros(20))]
            with pytest.raises(ValueError):
                regularizer_value_and_grads(layers, [good[1], g], 1e-3, 2e-3)
        for a, b in zip(arrays, before):
            assert np.array_equal(a, b), name


def _chunks_cover_once(a, scratch):
    """Chunk ``a`` alone; check that the chunks are views of its memory, each
    under 1.5 slices with buffers of its length, and that together they cover
    every element exactly once.  Returns the chunk lengths."""
    chunks = list(nn._flat_chunks([(a,)], scratch))
    for view, *buffers in chunks:
        assert view.base is not None and np.shares_memory(view, a) or a.size == 0, a.shape
        assert 0 < view.size < SLICE_ELEMENTS * 3 // 2 or a.size == 0, a.shape
        assert len(buffers) == scratch and all(b.shape == view.shape for b in buffers), a.shape
        view += 1
    assert (a == 1).all(), a.shape
    assert len(chunks) == max(1, round(a.size / SLICE_ELEMENTS)), a.shape
    return [view.size for view, *_ in chunks]


def test_scratch_slices_take_their_arrays_layout():
    # chunks walk each array's own memory order, C or F, and come with
    # scratch buffers of their length
    for shape, order in (((300, 250), "C"), ((300, 250), "F"), ((70000,), "C"), ((0, 4), "C")):
        a = np.zeros(shape, order=order)
        sizes = _chunks_cover_once(a, 2)
        assert len(sizes) > 1 or a.size == 0, shape
    # a pair in one layout is cut at the same flat positions, element for element
    w = np.asfortranarray(np.arange(300 * 250, dtype=float).reshape(300, 250))
    g = np.asfortranarray(-w)
    for ws, gs in nn._flat_chunks([(w, g)], 0):
        assert np.array_equal(ws, -gs)


def test_scratch_covers_a_row_wider_than_a_slice():
    # a row (column) longer than a chunk is cut inside it: chunks follow
    # flat memory, not rows
    for a in (np.zeros((3, WIDE)), np.zeros((WIDE, 3), order="F")):
        sizes = _chunks_cover_once(a, 1)
        assert sizes == [WIDE] * 3, a.shape


def test_a_short_tail_joins_the_slice_before_it():
    # 128x300 (38,400 elements, under 1.5 slices) runs as one chunk; larger
    # arrays split into near-equal chunks instead of a full one and a tail
    for rows, expected in ((128, [38400]), (170, [25500, 25500]), (240, [36000, 36000])):
        assert _chunks_cover_once(np.zeros((rows, 300)), 1) == expected, rows
    # just above 1.5 slices: two chunks whose lengths differ by one
    n = 3 * SLICE_ELEMENTS // 2 + 1
    assert _chunks_cover_once(np.zeros(n), 2) == [n // 2, n - n // 2]


def test_scratch_buffers_are_kept_per_thread_and_grow():
    first = nn._scratch_buffers(2, 100)
    again = nn._scratch_buffers(2, 50)  # a narrower chunk reuses them
    assert all(a is b for a, b in zip(first, again)) and all(b.size >= 100 for b in again)
    wider = nn._scratch_buffers(3, 200)
    assert len(wider) == 3 and all(b.size >= 200 for b in wider)
    with futures.ThreadPoolExecutor(max_workers=1) as pool:
        theirs = pool.submit(nn._scratch_buffers, 2, 100).result()
    assert not any(np.shares_memory(a, b) for a in theirs for b in wider)


def test_passes_on_several_threads_match_the_serial_passes():
    # each thread walks its own scratch buffers: passes run at once on more
    # threads than cores give the serial bits
    def run():
        rng = np.random.default_rng(10)
        layers = [LayerParams(rng.standard_normal((300, 250)), rng.standard_normal(300)),
                  LayerParams(np.asfortranarray(rng.standard_normal((250, 40))), rng.standard_normal(250))]
        grads = [np.asarray(rng.standard_normal(layer.weights.shape), order=order)
                 for layer, order in zip(layers, "CF")]
        params = [a for layer in layers for a in (layer.weights, layer.bias)]
        state = OptimizerState.for_params(params, base_lr=0.01, momentum=0.9)
        values = []
        for _ in range(5):
            values.append(regularizer_value_and_grads(layers, grads, 1e-3, 2e-3))
            nesterov_step(params, [grads[0], np.ones(300), grads[1], np.ones(250)], state)
        return values, params

    expected = run()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with futures.ThreadPoolExecutor(max_workers=6) as pool:
            results = [f.result(timeout=60) for f in [pool.submit(run) for _ in range(6)]]
    finally:
        sys.setswitchinterval(interval)
    for values, params in results:
        assert values == expected[0]
        assert all(np.array_equal(a, b) for a, b in zip(params, expected[1]))


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
