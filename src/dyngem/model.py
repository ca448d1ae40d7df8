"""Deep autoencoder over adjacency rows: weighted reconstruction plus
first-order proximity objective, minibatch training, and checkpoint I/O."""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dyngem import nn
from dyngem.errors import ConfigError, ConvergenceError, ParseError
from dyngem.nn import LayerParams, OptimizerState

# First bytes of the schema-1 text checkpoints, which are rejected by name,
# and of the zip archives that np.load reads as npz.
TEXT_CHECKPOINT_MAGIC = b"dyngem-checkpoint"
ZIP_MAGIC = (b"PK\x03\x04", b"PK\x05\x06")


@dataclass(frozen=True)
class Hyperparameters:
    """Training knobs for the autoencoder objective and optimizer.

    The minibatch objective is
    ``L = L_glob + alpha * L_loc + nu1 * L1 + nu2 * L2`` summed over the
    sampled edge pairs without batch-size normalization, so ``base_lr``
    is coupled to ``batch_size``.
    """

    alpha: float = 1e-5
    beta: float = 5.0
    nu1: float = 1e-6
    nu2: float = 1e-6
    rho: float = 0.3
    d: int = 32
    base_lr: float = 1e-6
    momentum: float = 0.99
    decay: float = 1e-5
    batch_size: int = 256
    epochs_first: int = 50
    epochs_warm: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.alpha < 0:
            raise ConfigError("alpha must be non-negative")
        if self.beta <= 1:
            raise ConfigError("beta must be greater than 1")
        if self.nu1 < 0 or self.nu2 < 0:
            raise ConfigError("nu1 and nu2 must be non-negative")
        if not (0.0 < self.rho < 1.0):
            raise ConfigError("rho must lie strictly between 0 and 1")
        if self.d < 1:
            raise ConfigError("d must be at least 1")
        if self.base_lr <= 0:
            raise ConfigError("base_lr must be positive")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError("momentum must lie in [0, 1)")
        if self.decay < 0:
            raise ConfigError("decay must be non-negative")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.epochs_first < 0 or self.epochs_warm < 0:
            raise ConfigError("epoch counts must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


@dataclass
class AutoencoderParams:
    """Encoder and decoder layer stacks; the decoder mirrors the encoder.

    Growth transforms edit the stacks in place and may leave them transiently
    unmirrored; construction enforces only a consistent dimension chain, and
    ``apply_plan`` checks that chain, now mirrored, after its last transform.
    """

    encoder: list
    decoder: list

    def __post_init__(self):
        if not self.encoder or not self.decoder:
            raise ValueError("encoder and decoder each need at least one layer")
        for side in (self.encoder, self.decoder):
            for prev, cur in zip(side, side[1:]):
                if cur.in_dim != prev.out_dim:
                    raise ValueError("layer dimensions do not chain")
        if self.decoder[0].in_dim != self.encoder[-1].out_dim:
            raise ValueError("decoder input width must equal the embedding width")
        if self.decoder[-1].out_dim != self.encoder[0].in_dim:
            raise ValueError("decoder output width must equal the input width")

    @property
    def n(self):
        return self.encoder[0].in_dim

    @property
    def d(self):
        return self.encoder[-1].out_dim

    @property
    def encoder_sizes(self):
        return tuple([self.encoder[0].in_dim] + [l.out_dim for l in self.encoder])

    @property
    def decoder_sizes(self):
        return tuple([self.decoder[0].in_dim] + [l.out_dim for l in self.decoder])

    def layers(self):
        return list(self.encoder) + list(self.decoder)

    def copy(self):
        return AutoencoderParams(
            [l.copy() for l in self.encoder], [l.copy() for l in self.decoder]
        )


def init_layer(rng, out_dim, in_dim):
    """Uniform(-b, b) weights with b = sqrt(6 / (fan_in + fan_out)), zero bias."""
    bound = np.sqrt(6.0 / (in_dim + out_dim))
    return LayerParams(rng.uniform(-bound, bound, (out_dim, in_dim)), np.zeros(out_dim))


def build_autoencoder(n, hidden_sizes, d, seed):
    """Fresh mirrored autoencoder [n, *hidden_sizes, d, *reversed(hidden), n]."""
    sizes = [int(n), *[int(h) for h in hidden_sizes], int(d)]
    if any(s < 1 for s in sizes):
        raise ValueError("all layer sizes must be positive")
    rng = np.random.default_rng(seed)
    encoder = [init_layer(rng, o, i) for i, o in zip(sizes, sizes[1:])]
    rev = sizes[::-1]
    decoder = [init_layer(rng, o, i) for i, o in zip(rev, rev[1:])]
    return AutoencoderParams(encoder, decoder)


# Snapshots whose adjacency density 2 * edge_count / n^2 is below this
# train on sparse CSR input rows, so the first encoder layer multiplies only
# the non-zeros (the kernel's CSR products); denser ones train on dense rows.
# Measured at n = 300 to 2,000, sparse rows save 10-20% of a batch below 3%.
# Moving the threshold changes the bits of the runs that cross it.
SPARSE_INPUT_DENSITY = 0.03


def _sparse_input(snapshot):
    n = snapshot.node_count
    return 2 * snapshot.edge_count < SPARSE_INPUT_DENSITY * n * n


@dataclass
class TrainBatch:
    """A minibatch of edges plus one adjacency row per distinct endpoint.

    ``x`` holds the rows, as a dense array or ``nn.SparseRows``.  ``rows``
    gives each of the 2m endpoints (the heads, then the tails) its row in
    ``x``, and ``counts`` each row's multiplicity among them.  ``nonzero``
    holds the flat positions of x's non-zeros in a row-major block of x's
    shape, in row order, and ``values`` their values."""

    heads: np.ndarray
    tails: np.ndarray
    weights: np.ndarray
    x: object
    nonzero: np.ndarray
    values: np.ndarray
    rows: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        m = self.heads.shape[0]
        if not (self.tails.shape[0] == self.weights.shape[0] == m):
            raise ValueError("batch arrays must share their leading length")
        if not np.all(np.isfinite(self.weights) & (self.weights > 0)):
            raise ValueError("edge weights must be positive and finite")
        k = self.x.shape[0]
        if self.rows.shape != (2 * m,):
            raise ValueError("rows must give both endpoints of every edge a row")
        if self.rows.size and (self.rows.min() < 0 or self.rows.max() >= k):
            raise ValueError("every endpoint row must be a row of x")
        if not np.array_equal(self.counts, np.bincount(self.rows, minlength=k)):
            raise ValueError("counts must be each row's multiplicity among the endpoints")
        if np.any(self.counts == 0):
            raise ValueError("every row of x must belong to an endpoint")


def make_batch(snapshot, heads, tails, weights):
    """Batch the edges with one adjacency row per distinct endpoint, sparse
    when the snapshot is sparser than ``SPARSE_INPUT_DENSITY``."""
    heads = np.asarray(heads, dtype=np.intp)
    tails = np.asarray(tails, dtype=np.intp)
    weights = np.asarray(weights, dtype=np.float64)
    n = snapshot.node_count
    nodes, rows, counts = np.unique(
        np.concatenate([heads, tails]), return_inverse=True, return_counts=True
    )
    indptr, cols, values = snapshot.csr_rows(nodes)
    nonzero = np.repeat(np.arange(0, nodes.size * n, n), np.diff(indptr)) + cols
    if _sparse_input(snapshot):
        x = nn.SparseRows(indptr, cols, values, (nodes.size, n))
    else:
        x = np.zeros((nodes.size, n))
        x.reshape(-1)[nonzero] = values
    return TrainBatch(heads, tails, weights, x, nonzero, values, rows, counts)


def loss_net_batch(params, batch, hyper):
    """Objective value, per-term breakdown, and parameter gradients for one batch.

    Returns ``(total, parts, (encoder_grads, decoder_grads))`` where parts
    holds the raw, unweighted values of the four terms and
    ``total = global + alpha*local + nu1*l1 + nu2*l2``.  Each distinct
    endpoint row is encoded and decoded once; its reconstruction term counts
    once per endpoint it stands for.
    """
    x = batch.x
    if x.shape[1] != params.n:
        raise ValueError("batch row width does not match the model input width")
    m = batch.heads.shape[0]
    acts_enc = nn.forward(params.encoder, x)
    y = acts_enc[-1]
    acts_dec = nn.forward(params.decoder, y)

    # The reconstruction error is weighted by beta where x is non-zero and
    # by 1 elsewhere, so only the non-zero positions need more than a copy.
    nonzero = batch.nonzero
    counts = batch.counts
    diff = acts_dec[-1].copy()
    flat = diff.reshape(-1)
    flat[nonzero] = (flat[nonzero] - batch.values) * hyper.beta
    l_glob = float(counts @ np.einsum("ij,ij->i", diff, diff))
    g_xhat = diff
    g_xhat *= (2.0 * counts)[:, None]
    g_xhat.reshape(-1)[nonzero] *= hyper.beta

    head_rows, tail_rows = batch.rows[:m], batch.rows[m:]
    pair_diff = y[head_rows] - y[tail_rows]
    sq = np.einsum("ij,ij->i", pair_diff, pair_diff)
    l_loc = float(batch.weights @ sq)
    g_loc = (2.0 * hyper.alpha) * batch.weights[:, None] * pair_diff

    dec_grads, g_y = nn.backward(params.decoder, acts_dec, g_xhat)
    # One row can be the head of several edges and the tail of others, so
    # each row sums its pair gradients.  Of the scatters timed on a desk
    # batch, two bincounts over flat positions were the fastest.
    d = g_y.shape[1]
    at = (batch.rows[:, None] * d + np.arange(d)).reshape(-1)
    pulls = g_loc.reshape(-1)
    g_y += np.bincount(at[: m * d], pulls, g_y.size).reshape(g_y.shape)
    g_y -= np.bincount(at[m * d :], pulls, g_y.size).reshape(g_y.shape)
    enc_grads, _ = nn.backward(params.encoder, acts_enc, g_y, input_grad=False)

    weight_grads = [gw for gw, _ in enc_grads + dec_grads]
    l1, l2 = nn.regularizer_value_and_grads(params.layers(), weight_grads, hyper.nu1, hyper.nu2)

    total = l_glob + hyper.alpha * l_loc + hyper.nu1 * l1 + hyper.nu2 * l2
    parts = {"global": l_glob, "local": l_loc, "l1": l1, "l2": l2}
    return total, parts, (enc_grads, dec_grads)


def train_snapshot(params, snapshot, hyper, epochs, seed=None):
    """Minibatch SGD over the snapshot's edge set, mutating params in place.

    Each epoch shuffles the edges with the seeded generator and consumes them
    in ``hyper.batch_size`` chunks; the Nesterov optimizer state is fresh per
    call.  Returns ``(params, trace)`` where ``trace[e]`` is the summed
    minibatch objective of epoch e (empty for ``epochs == 0``).  An epoch
    that ends with a non-finite objective or parameter raises
    ``ConvergenceError``.
    """
    if snapshot.node_count != params.n:
        raise ValueError("snapshot node count does not match the model input width")
    if snapshot.edge_count == 0:
        raise ValueError("snapshot has no edges to train on")
    heads, tails, weights = snapshot.heads, snapshot.tails, snapshot.weights
    rng = np.random.default_rng(hyper.seed if seed is None else seed)
    # nn's penalty and Nesterov passes need each weight, its gradient and its
    # velocity in one layout.  Column-major, the first layer's transpose is
    # the row-major operand whose rows the kernel's CSR product reads without
    # a copy, and the kernel writes its gradient column-major too; row-major
    # weights would copy both, about 11 ms per 2,000-node batch.  Dense rows,
    # like every other layer, get row-major weights whatever the last snapshot
    # was: BLAS rounds the two layouts differently, and a restored checkpoint
    # is row-major.
    first = params.encoder[0]
    layout = np.asfortranarray if _sparse_input(snapshot) else np.ascontiguousarray
    first.weights = layout(first.weights)
    flat = [a for layer in params.layers() for a in (layer.weights, layer.bias)]
    state = OptimizerState.for_params(flat, hyper.base_lr, hyper.momentum, hyper.decay)
    trace = []
    for epoch in range(epochs):
        perm = rng.permutation(snapshot.edge_count)
        epoch_loss = 0.0
        for start in range(0, snapshot.edge_count, hyper.batch_size):
            idx = perm[start : start + hyper.batch_size]
            batch = make_batch(snapshot, heads[idx], tails[idx], weights[idx])
            total, _, (enc_grads, dec_grads) = loss_net_batch(params, batch, hyper)
            nn.nesterov_step(flat, [g for pair in enc_grads + dec_grads for g in pair], state)
            epoch_loss += total
        if not math.isfinite(epoch_loss):
            raise ConvergenceError(f"training objective is {epoch_loss} in epoch {epoch}")
        if not all(np.isfinite(p).all() for p in flat):
            raise ConvergenceError(f"training left non-finite parameters in epoch {epoch}")
        trace.append(epoch_loss)
    return params, trace


# rows per stack pass in embed and reconstruct_scores, bounding their temporaries
STACK_ROWS = 512


def embed(params, snapshot):
    """Encode every adjacency row, ``STACK_ROWS`` rows at a time; returns the
    (node_count, d) embedding matrix."""
    if snapshot.node_count != params.n:
        raise ValueError("snapshot node count does not match the model input width")
    n = snapshot.node_count
    out = np.empty((n, params.d))
    for start in range(0, n, STACK_ROWS):
        rows = snapshot.dense_rows(np.arange(start, min(start + STACK_ROWS, n)))
        out[start : start + rows.shape[0]] = nn.forward(params.encoder, rows)[-1]
    return out


def reconstruct_scores(params, embedding):
    """Decoder outputs for every row of an (n, d) embedding, ``STACK_ROWS``
    rows at a time; entry (i, j) scores j as a neighbor of i."""
    out = np.empty((embedding.shape[0], params.n))
    for start in range(0, embedding.shape[0], STACK_ROWS):
        out[start : start + STACK_ROWS] = nn.forward(params.decoder, embedding[start : start + STACK_ROWS])[-1]
    return out


def save_checkpoint(params, path):
    """Write parameters as an uncompressed npz archive (exact float64) at
    exactly ``path``; returns the path.

    The archive is what ``np.savez`` writes, except that every member keeps
    zipfile's fixed 1980-01-01 stamp where ``np.savez`` stamps the current
    time, so two runs from one manifest write identical bytes.  Weights are
    written row-major whatever their layout in memory.
    """
    path = Path(path)
    arrays = {"layer_counts": np.array([len(params.encoder), len(params.decoder)])}
    for tag, side in (("enc", params.encoder), ("dec", params.decoder)):
        for k, layer in enumerate(side):
            arrays[f"{tag}{k}_w"] = np.ascontiguousarray(layer.weights)
            arrays[f"{tag}{k}_b"] = layer.bias
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name, value in arrays.items():
            with archive.open(zipfile.ZipInfo(f"{name}.npy"), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, value, allow_pickle=False)
    return path


def load_checkpoint(path):
    """Read a checkpoint written by :func:`save_checkpoint`; any other file
    raises ``ParseError`` naming the path."""
    path = Path(path)
    with open(path, "rb") as fh:
        head = fh.read(len(TEXT_CHECKPOINT_MAGIC))
        if head == TEXT_CHECKPOINT_MAGIC:
            raise ParseError(f"{path}: text checkpoints (schema 1) are no longer read; re-run train")
        if not head.startswith(ZIP_MAGIC):
            raise ParseError(f"{path}: not an npz checkpoint")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                sides = [
                    [LayerParams(archive[f"{tag}{k}_w"], archive[f"{tag}{k}_b"]) for k in range(count)]
                    for tag, count in zip(("enc", "dec"), archive["layer_counts"].tolist())
                ]
            return AutoencoderParams(*sides)
        except KeyError as exc:
            raise ParseError(f"{path}: missing array ({exc.args[0]})") from None
        except (ValueError, TypeError, zipfile.BadZipFile) as exc:
            raise ParseError(f"{path}: not a valid checkpoint ({exc})") from None
