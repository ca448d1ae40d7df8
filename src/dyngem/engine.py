"""Turn a snapshot series into one ``Step`` per snapshot.  All six methods
share one driver: a method picks its step (autoencoder or graph
factorization), whether each step warm-starts from the previous one, and
whether the result is rotated onto the previous step (orthogonal Procrustes)."""

from __future__ import annotations

import math
import time
from concurrent import futures
from dataclasses import dataclass, field, replace

import numpy as np

from dyngem import model
from dyngem.errors import ConfigError, ConvergenceError
from dyngem.growth import apply_plan, derive_seed, propsize_plan
from dyngem.kernels import gf_epoch, jacobi_svd
from dyngem.model import Hyperparameters

METHODS = ("dyngem", "sdne_retrain", "sdne_align", "gf", "gf_init", "gf_align")

_SALT_INIT = 0
_SALT_TRAIN = 1
_SALT_GROW = 2
# how many times a series' warm steps may halve the learning rate
MAX_BACKOFFS = 3


@dataclass(frozen=True)
class RunConfig:
    """Method choice plus everything the per-snapshot drivers need."""

    hyper: Hyperparameters = field(default_factory=Hyperparameters)
    method: str = "dyngem"
    hidden_sizes: tuple = (128, 64)
    gf_lambda: float = 1.0
    gf_iters: int = 100
    gf_lr: float = 0.01
    growth_noise: float = 1e-4
    jobs: int = 1

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose one of {METHODS}")
        if any(int(h) < 1 for h in self.hidden_sizes):
            raise ConfigError("hidden sizes must be positive")
        if self.gf_lambda < 0:
            raise ConfigError("gf_lambda must be non-negative")
        if self.gf_iters < 0:
            raise ConfigError("gf_iters must be non-negative")
        if self.gf_lr <= 0:
            raise ConfigError("gf_lr must be positive")
        if self.growth_noise < 0:
            raise ConfigError("growth_noise must be non-negative")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")


@dataclass
class Step:
    """One snapshot's result: its embedding, the training iterations (a warm
    step counts the attempts it discarded), the per-epoch objective and the
    wall-clock seconds, alignment included.  ``checkpoint`` is the trained
    model whose encoder gave ``embedding``: None for factorization and for
    an aligned step, whose rotated embedding is no model's output.  A warm
    next step trains a copy, so it stays as this step left it and its saved
    file trains on to the same bits.
    ``growth`` is the plan applied before training (None where nothing grew)
    and ``backoffs`` the learning-rate halvings in effect (a warm step trained
    again halved the rate for itself and every later step)."""

    embedding: np.ndarray
    iterations: int
    trace: list
    checkpoint: model.AutoencoderParams | None = None
    growth: dict | None = None
    backoffs: int = 0
    seconds: float = 0.0


def _drive(series, config, step, warm):
    """Run ``step(snap, config, t, prev)`` on every snapshot, timing each
    Step.  A warm method passes the previous Step and runs in order; a cold
    one passes None and runs on ``config.jobs`` threads."""

    def timed(t, snap, prev):
        start = time.perf_counter()
        result = step(snap, config, t, prev)
        result.seconds = time.perf_counter() - start
        return result

    if warm or config.jobs == 1:
        steps = []
        for t, snap in enumerate(series):
            steps.append(timed(t, snap, steps[-1] if warm and steps else None))
        return steps
    with futures.ThreadPoolExecutor(max_workers=config.jobs) as pool:
        return list(pool.map(lambda ts: timed(*ts, None), enumerate(series)))


def _grow(params, snap, config, t):
    """Grow ``params`` in place by a PropSize plan when the node set expanded.
    Returns ``(params, growth record)``, the record None when nothing grew."""
    if snap.node_count <= params.n:
        return params, None
    hyper = config.hyper
    plan = propsize_plan(params.encoder_sizes[:-1], snap.node_count, hyper.rho, hyper.d)
    seed = derive_seed(hyper.seed, t, _SALT_GROW)
    params, applied = apply_plan(params, plan, config.growth_noise, seed)
    return params, {"plan": plan.to_dict(), "applied": applied}


def _kills_embedding(before, after):
    """True when fewer than half as many embedding units are live (some node
    activates them) in ``after`` as in ``before``.  A ReLU unit that no
    input activates gets no gradient, so it stays dead."""
    return 2 * int((after > 0).any(axis=0).sum()) < int((before > 0).any(axis=0).sum())


def _autoencoder_step(snap, config, t, prev):
    """Train one autoencoder step.  A cold start builds a fresh model from
    the step's seed; a warm start trains a copy of the previous step's
    checkpoint, grown with a PropSize plan when the node set expanded.

    A graph far from the one the model fits (two communities merging, say)
    can make a warm step's training overflow or kill most of the embedding
    units.  Such a step is trained again from a fresh copy of that checkpoint
    at half the learning rate for twice the epochs, and later steps keep the
    halved rate; at most MAX_BACKOFFS halvings in all.  The iteration count
    includes the attempts a step discarded."""
    hyper = config.hyper
    seed = derive_seed(hyper.seed, t, _SALT_TRAIN)
    batches = (snap.edge_count + hyper.batch_size - 1) // hyper.batch_size
    if prev is None:
        params = model.build_autoencoder(
            snap.node_count, config.hidden_sizes, hyper.d, derive_seed(hyper.seed, t, _SALT_INIT)
        )
        params, trace = model.train_snapshot(params, snap, hyper, hyper.epochs_first, seed=seed)
        return Step(model.embed(params, snap), hyper.epochs_first * batches, trace, params)
    backoffs, iterations = prev.backoffs, 0
    while True:
        params, grown = _grow(prev.checkpoint.copy(), snap, config, t)
        epochs = hyper.epochs_warm << backoffs
        iterations += epochs * batches
        slowed = replace(hyper, base_lr=hyper.base_lr / (1 << backoffs))
        try:
            params, trace = model.train_snapshot(params, snap, slowed, epochs, seed=seed)
        except ConvergenceError:
            if backoffs == MAX_BACKOFFS:
                raise
        else:
            embedding = model.embed(params, snap)
            if backoffs == MAX_BACKOFFS or not _kills_embedding(prev.embedding, embedding):
                break
        backoffs += 1
    return Step(embedding, iterations, trace, params, grown, backoffs)


def procrustes_align(reference, target):
    """Best rotation R minimizing ||target @ R - reference||_F.

    Both matrices must share their shape (m >= 1 rows).  R comes from the
    Jacobi SVD of ``target.T @ reference``; reflections are allowed, and no
    translation or scaling is removed.  Returns ``(R, target @ R)``.
    """
    reference = np.asarray(reference, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if reference.ndim != 2 or reference.shape != target.shape:
        raise ValueError("reference and target must be matrices of one shape")
    if reference.shape[0] < 1:
        raise ValueError("alignment needs at least one row")
    u, _, vt = jacobi_svd(target.T @ reference)
    r = u @ vt
    return r, target @ r


def align_series(embeddings):
    """Chain-wise alignment: each step is rotated onto the already-aligned
    previous step over their common (prefix) node rows.

    Returns ``(aligned, seconds)``; ``seconds[t]`` is the time spent
    aligning step t, 0 for the reference step 0.
    """
    if not embeddings:
        return [], []
    aligned = [embeddings[0]]
    seconds = [0.0]
    for t in range(1, len(embeddings)):
        start = time.perf_counter()
        m = aligned[t - 1].shape[0]
        r, _ = procrustes_align(aligned[t - 1], embeddings[t][:m])
        aligned.append(embeddings[t] @ r)
        seconds.append(time.perf_counter() - start)
    return aligned, seconds


def _gf_step(snap, config, t, prev):
    """Run ``config.gf_iters`` factorization epochs on one snapshot, from a
    seeded random init or, warm, from the previous step's embedding with
    random rows for the new nodes."""
    if snap.edge_count == 0:
        raise ValueError(f"snapshot {t} has no edges to factorize")
    d = config.hyper.d
    y0 = np.empty((0, d)) if prev is None else prev.embedding
    rng_init = np.random.default_rng(derive_seed(config.hyper.seed, t, _SALT_INIT))
    y = np.vstack([y0, rng_init.uniform(-0.1, 0.1, (snap.node_count - y0.shape[0], d))])
    heads, tails, weights = snap.heads, snap.tails, snap.weights
    rng = np.random.default_rng(derive_seed(config.hyper.seed, t, _SALT_TRAIN))
    trace = []
    for it in range(config.gf_iters):
        order = rng.permutation(snap.edge_count).astype(np.intp)
        value = gf_epoch(y, heads, tails, weights, order, config.gf_lr, config.gf_lambda)
        if not math.isfinite(value):
            raise ConvergenceError(f"snapshot {t}: factorization objective is {value} in iteration {it}")
        trace.append(value)
    return Step(y, config.gf_iters * snap.edge_count, trace)


def run_gf(series, config):
    """Graph factorization baseline: per-edge SGD on
    ``sum (s_ij - <y_i, y_j>)^2 + gf_lambda * ||Y||_F^2``.

    ``config.method`` picks the start: ``gf_init`` warm-starts each step from
    the previous embedding (new nodes random), ``gf`` and ``gf_align`` start
    each from a fresh seeded init (``run_method`` aligns ``gf_align``).  The
    evaluation pair score is the inner product.
    """
    if not config.method.startswith("gf"):
        raise ConfigError(f"run_gf needs a gf method, got {config.method!r}")
    return _drive(series, config, _gf_step, config.method == "gf_init")


def run_method(series, config):
    """Run ``config.method`` over the series: one Step per snapshot.
    ``dyngem`` and ``gf_init`` warm-start each step from the previous one;
    the other methods start every step cold.  The ``*_align`` methods then
    rotate each step onto the previous one, charging each its own time, and
    drop its model, which no longer gives its embedding."""
    method = config.method
    if method.startswith("gf"):
        steps = run_gf(series, config)
    else:
        steps = _drive(series, config, _autoencoder_step, warm=method == "dyngem")
    if not method.endswith("_align"):
        return steps
    aligned, align_seconds = align_series([s.embedding for s in steps])
    return [replace(s, embedding=e, checkpoint=None, seconds=s.seconds + a)
            for s, e, a in zip(steps, aligned, align_seconds)]
