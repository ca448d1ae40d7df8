"""Dense ReLU layers: forward/backward passes, weight penalties, Nesterov SGD."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dyngem import kernels


@dataclass
class LayerParams:
    """One dense layer y = relu(W x + b), W of shape (out_dim, in_dim)."""

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ValueError("weights must be 2-D (out_dim, in_dim)")
        if self.bias.shape != (self.weights.shape[0],):
            raise ValueError("bias length must equal the weight row count")

    @property
    def out_dim(self):
        return self.weights.shape[0]

    @property
    def in_dim(self):
        return self.weights.shape[1]

    def copy(self):
        return LayerParams(self.weights.copy(), self.bias.copy())


def relu(x, out=None):
    """Elementwise max(x, 0), into ``out`` when given; the subgradient used
    at 0 is 0."""
    return np.maximum(x, 0.0, out=out)


@dataclass
class SparseRows:
    """A (rows, width) matrix in CSR form: row i holds ``values[p]`` at column
    ``indices[p]`` for p in ``indptr[i]:indptr[i + 1]``.  The constructor
    checks the row pointers; the products check each column index."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    shape: tuple

    def __post_init__(self):
        self.indptr = np.ascontiguousarray(self.indptr, dtype=np.intp)
        self.indices = np.ascontiguousarray(self.indices, dtype=np.intp)
        self.values = np.ascontiguousarray(self.values, dtype=np.float64)
        rows, width = self.shape = tuple(int(s) for s in self.shape)
        ptr = self.indptr
        if not (min(rows, width) >= 0 and ptr.shape == (rows + 1,) and ptr[0] == 0
                and np.all(np.diff(ptr) >= 0) and self.indices.shape == self.values.shape == (ptr[-1],)):
            raise ValueError("indptr must rise from 0 to the non-zero count, one step per row")

    @property
    def ndim(self):
        return 2


def forward(layers, x):
    """Run x through the layer stack.

    Returns the activation list with the input at position 0 and the output
    of layer k at position k; x is a (batch, in_dim) matrix or
    :class:`SparseRows`, which only the first layer reads, through
    ``kernels.csr_matmul``.
    """
    acts = [x if isinstance(x, SparseRows) else np.asarray(x, dtype=np.float64)]
    if acts[0].ndim != 2:
        raise ValueError("x must be a (batch, in_dim) matrix")
    for layer in layers:
        if acts[-1].shape[1] != layer.in_dim:
            raise ValueError(
                f"input width {acts[-1].shape[1]} does not match layer in_dim {layer.in_dim}"
            )
        if isinstance(acts[-1], SparseRows):
            # the kernel reads Wᵀ row by row: a copy unless W is column-major
            z = kernels.csr_matmul(acts[-1], np.ascontiguousarray(layer.weights.T))
        else:
            z = acts[-1] @ layer.weights.T
        z += layer.bias
        acts.append(relu(z, out=z))
    return acts


def backward(layers, activations, grad_out, input_grad=True):
    """Backpropagate grad_out (d loss / d final activation) through the stack.

    ``activations`` must come from a matching :func:`forward` call.  Returns
    ``(grads, grad_input)`` where grads is a list of (dW, db) per layer.
    With ``input_grad=False`` the first layer's input gradient is not formed
    and grad_input is None.  A :class:`SparseRows` input gets its weight
    gradient from ``kernels.csr_tmatmul``, which writes it column-major.
    Each weight gradient takes its weights' layout.
    ReLU masking uses activation > 0, which matches a zero subgradient at 0.
    """
    if len(activations) != len(layers) + 1:
        raise ValueError("activation list does not match the layer stack")
    g = np.asarray(grad_out, dtype=np.float64) * (activations[-1] > 0)
    grads = [None] * len(layers)
    for k in range(len(layers), 0, -1):
        order = "F" if layers[k - 1].weights.flags.f_contiguous else "C"
        a = activations[k - 1]
        gw = kernels.csr_tmatmul(a, np.ascontiguousarray(g)).T if isinstance(a, SparseRows) else g.T @ a
        grads[k - 1] = (np.asarray(gw, order=order), g.sum(axis=0))
        if k == 1 and not input_grad:
            return grads, None
        g = g @ layers[k - 1].weights
        if k - 1 > 0:
            g *= activations[k - 1] > 0
    return grads, g


# The penalty and optimizer passes walk each parameter in chunks of about
# this many float64s (256 KB), so every operation on a chunk finds its
# operands still in L2 cache instead of streaming whole arrays through memory
# once per operation.
SLICE_ELEMENTS = 1 << 15


def _flat_chunks(groups, scratch):
    """Walk each group of same-shaped arrays in matching chunks of flat
    memory.  A group's arrays must be all C- or all F-contiguous, so their
    ``ravel("K")`` views list the same elements in the same order; every group
    is checked before the first chunk, else ValueError.  Each view is cut into
    ``max(1, round(size / SLICE_ELEMENTS))`` near-equal chunks, each shorter
    than 1.5 * SLICE_ELEMENTS.  Yields per chunk the group's chunk views, then
    ``scratch`` uninitialised buffers of the chunk's length."""
    groups = list(groups)
    for group in groups:
        if not (all(a.flags.c_contiguous for a in group) or all(a.flags.f_contiguous for a in group)):
            raise ValueError("arrays updated together must be all C- or all F-contiguous")
    counts = [max(1, round(group[0].size / SLICE_ELEMENTS)) for group in groups]
    width = max((-(-group[0].size // count) for group, count in zip(groups, counts)), default=0)
    buffers = [np.empty(width) for _ in range(scratch)]
    for group, count in zip(groups, counts):
        flat = [a.ravel("K") for a in group]
        bounds = [flat[0].size * k // count for k in range(count + 1)]
        for start, end in zip(bounds, bounds[1:]):
            yield (*(a[start:end] for a in flat), *(b[: end - start] for b in buffers))


def regularizer_value_and_grads(layers, grads, nu1, nu2):
    """L1 and squared-L2 penalty over weight matrices only (biases excluded).

    Returns ``(l1, l2)``, the raw sums ``sum|W|`` and ``sum W^2`` over all
    layers, and adds the gradient ``nu1 * sign(W) + 2 * nu2 * W`` of the
    penalty ``nu1 * l1 + nu2 * l2`` into each layer's weight gradient in
    ``grads`` in place; sign(0) is 0.  Each weight matrix and its gradient
    must share their shape and be both C- or both F-contiguous; they are
    walked one cache-sized chunk of flat memory at a time.  Any mismatch
    raises ValueError before a gradient is written.
    """
    if nu1 < 0 or nu2 < 0:
        raise ValueError("penalty coefficients must be non-negative")
    if len(layers) != len(grads):
        raise ValueError("one weight gradient per layer is needed")
    weights = [layer.weights for layer in layers]
    for w, grad in zip(weights, grads):
        if grad.shape != w.shape:
            raise ValueError("gradient shape does not match its weights")
    l1 = 0.0
    l2 = 0.0
    for ws, gs, sign, penalty in _flat_chunks(zip(weights, grads), 2):
        np.sign(ws, out=sign)
        l1 += float(np.vdot(sign, ws))
        l2 += float(np.vdot(ws, ws))
        sign *= nu1
        np.multiply(ws, 2.0 * nu2, out=penalty)
        sign += penalty
        gs += sign
    return l1, l2


@dataclass
class OptimizerState:
    """Velocity buffers plus the step-decayed learning-rate schedule."""

    velocities: list
    base_lr: float
    momentum: float = 0.99
    decay: float = 0.0
    step_count: int = 0

    @classmethod
    def for_params(cls, params, base_lr, momentum=0.99, decay=0.0):
        if base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if not (0.0 <= momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if decay < 0:
            raise ValueError("decay must be non-negative")
        return cls([np.zeros_like(p) for p in params], base_lr, momentum, decay)

    def learning_rate(self):
        return self.base_lr / (1.0 + self.decay * self.step_count)


def nesterov_step(params, grads, state):
    """One Nesterov-momentum update, applied to every array in place.

    v <- mu*v - lr_t*g and p <- p + mu*v - lr_t*g with
    lr_t = base_lr / (1 + decay*step_count); momentum 0 reduces to plain SGD.
    Each parameter, its gradient and its velocity must share their shape and
    be all C- or all F-contiguous; they are updated one cache-sized chunk of
    flat memory at a time.  Any mismatch raises ValueError before an array
    is written.
    """
    if len(params) != len(grads) or len(params) != len(state.velocities):
        raise ValueError("params, grads and velocities must align")
    for p, g, v in zip(params, grads, state.velocities):
        if not (p.shape == g.shape == v.shape):
            raise ValueError("parameter, gradient and velocity shapes differ")
    lr = state.learning_rate()
    mu = state.momentum
    for ps, gs, vs, step, push in _flat_chunks(zip(params, grads, state.velocities), 2):
        np.multiply(gs, lr, out=step)
        vs *= mu
        vs -= step
        np.multiply(vs, mu, out=push)
        ps += push
        ps -= step
    state.step_count += 1
    return params, state
