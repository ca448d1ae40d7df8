"""Drivers that turn a snapshot series into an embedding series: the
warm-started growable autoencoder, retrain-from-scratch baselines, graph
factorization, and Procrustes rotation alignment."""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from dyngem import model
from dyngem.errors import ConfigError, ConvergenceError
from dyngem.growth import apply_plan, propsize_plan
from dyngem.kernels import gf_epoch, jacobi_svd
from dyngem.model import Hyperparameters

METHODS = ("dyngem", "sdne_retrain", "sdne_align", "gf", "gf_init", "gf_align")

_SALT_INIT = 0
_SALT_TRAIN = 1
_SALT_GROW = 2


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
class EmbeddingSeries:
    """Per-step embeddings with wall-clock and iteration bookkeeping."""

    method: str
    embeddings: list
    seconds: list
    iterations: list
    traces: list
    checkpoints: list | None = None


def _step_seed(base, t, salt):
    return int(np.random.SeedSequence([int(base), int(t), salt]).generate_state(1)[0])


def _updates(edge_count, batch_size, epochs):
    return epochs * ((edge_count + batch_size - 1) // batch_size)


def run_dyngem(series, config):
    """Warm-started run: the model carries over between snapshots and is grown
    with a PropSize plan before training whenever the node set expands.

    Returns ``(EmbeddingSeries, growth_report)``; the report has one entry
    per step holding the applied plan, or None where no growth happened.
    """
    hyper = config.hyper
    out = EmbeddingSeries("dyngem", [], [], [], [], checkpoints=[])
    growth_report = []
    params = None
    for t, snap in enumerate(series):
        start = time.perf_counter()
        epochs = hyper.epochs_first if t == 0 else hyper.epochs_warm
        grown = None
        if t == 0:
            params = model.build_autoencoder(
                snap.node_count, config.hidden_sizes, hyper.d, _step_seed(hyper.seed, t, _SALT_INIT)
            )
        elif snap.node_count > params.n:
            plan = propsize_plan(
                params.encoder_sizes[:-1], snap.node_count, hyper.rho, hyper.d
            )
            params, applied = apply_plan(
                params, plan, config.growth_noise, _step_seed(hyper.seed, t, _SALT_GROW)
            )
            grown = {"plan": plan.to_dict(), "applied": applied}
        params, trace = model.train_snapshot(
            params, snap, hyper, epochs, seed=_step_seed(hyper.seed, t, _SALT_TRAIN)
        )
        out.embeddings.append(model.embed(params, snap))
        out.seconds.append(time.perf_counter() - start)
        out.iterations.append(_updates(snap.edge_count, hyper.batch_size, epochs))
        out.traces.append(trace)
        out.checkpoints.append(params.copy())
        growth_report.append(grown)
    return out, growth_report


def _train_fresh(snap, config, t):
    hyper = config.hyper
    start = time.perf_counter()
    params = model.build_autoencoder(
        snap.node_count, config.hidden_sizes, hyper.d, _step_seed(hyper.seed, t, _SALT_INIT)
    )
    params, trace = model.train_snapshot(
        params, snap, hyper, hyper.epochs_first, seed=_step_seed(hyper.seed, t, _SALT_TRAIN)
    )
    emb = model.embed(params, snap)
    seconds = time.perf_counter() - start
    return emb, seconds, trace, params


def run_sdne_retrain(series, config):
    """Baseline: train a fresh autoencoder per snapshot from a new random init.

    Per-step seeds differ, so back-to-back snapshots get independent
    initializations.  ``config.jobs > 1`` trains snapshots concurrently.
    """
    hyper = config.hyper
    out = EmbeddingSeries("sdne_retrain", [], [], [], [], checkpoints=[])
    if config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(lambda ts: _train_fresh(ts[1], config, ts[0]), enumerate(series)))
    else:
        results = [_train_fresh(snap, config, t) for t, snap in enumerate(series)]
    for snap, (emb, seconds, trace, params) in zip(series, results):
        out.embeddings.append(emb)
        out.seconds.append(seconds)
        out.iterations.append(_updates(snap.edge_count, hyper.batch_size, hyper.epochs_first))
        out.traces.append(trace)
        out.checkpoints.append(params)
    return out


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

    Returns ``(aligned, rotations, seconds)``; ``seconds[t]`` is the time
    spent aligning step t, 0 for the reference step 0.
    """
    if not embeddings:
        return [], [], []
    aligned = [embeddings[0]]
    rotations = [np.eye(embeddings[0].shape[1])]
    seconds = [0.0]
    for t in range(1, len(embeddings)):
        start = time.perf_counter()
        m = aligned[t - 1].shape[0]
        r, _ = procrustes_align(aligned[t - 1], embeddings[t][:m])
        aligned.append(embeddings[t] @ r)
        rotations.append(r)
        seconds.append(time.perf_counter() - start)
    return aligned, rotations, seconds


def _aligned_variant(base, method):
    aligned, _, align_seconds = align_series(base.embeddings)
    seconds = [s + a for s, a in zip(base.seconds, align_seconds)]
    return EmbeddingSeries(
        method, aligned, seconds, list(base.iterations), list(base.traces), base.checkpoints
    )


def run_sdne_align(series, config):
    """Retrained baseline post-processed with chain-wise rotation alignment."""
    return _aligned_variant(run_sdne_retrain(series, config), "sdne_align")


def _gf_objective(y, heads, tails, weights, lam):
    scores = np.einsum("ij,ij->i", y[heads], y[tails])
    resid = weights - scores
    return float(resid @ resid) + lam * float(np.sum(y * y))


def _gf_one(snap, config, t, y0=None):
    start = time.perf_counter()
    n = snap.node_count
    if snap.edge_count == 0:
        raise ValueError(f"snapshot {t} has no edges to factorize")
    d = config.hyper.d
    rng_init = np.random.default_rng(_step_seed(config.hyper.seed, t, _SALT_INIT))
    if y0 is None:
        y = rng_init.uniform(-0.1, 0.1, (n, d))
    else:
        y = np.vstack([y0, rng_init.uniform(-0.1, 0.1, (n - y0.shape[0], d))])
    y = np.ascontiguousarray(y)
    heads, tails, weights = snap.heads, snap.tails, snap.weights
    rng = np.random.default_rng(_step_seed(config.hyper.seed, t, _SALT_TRAIN))
    trace = []
    for it in range(config.gf_iters):
        order = rng.permutation(snap.edge_count).astype(np.intp)
        gf_epoch(y, heads, tails, weights, order, config.gf_lr, config.gf_lambda)
        value = _gf_objective(y, heads, tails, weights, config.gf_lambda)
        if not math.isfinite(value):
            raise ConvergenceError(f"snapshot {t}: factorization objective is {value} in iteration {it}")
        trace.append(value)
    return y, time.perf_counter() - start, trace


def run_gf(series, config, warm_start=False):
    """Graph factorization baseline: per-edge SGD on
    ``sum (s_ij - <y_i, y_j>)^2 + gf_lambda * ||Y||_F^2``.

    ``warm_start`` initializes each step from the previous embedding (new
    nodes random); otherwise every step starts from a fresh seeded init.
    The evaluation pair score is the inner product.
    """
    method = "gf_init" if warm_start else "gf"
    out = EmbeddingSeries(method, [], [], [], [])
    if not warm_start and config.jobs > 1:
        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(lambda ts: _gf_one(ts[1], config, ts[0]), enumerate(series)))
    else:
        results = []
        prev = None
        for t, snap in enumerate(series):
            y, seconds, trace = _gf_one(snap, config, t, y0=prev if warm_start else None)
            results.append((y, seconds, trace))
            prev = y
    for snap, (y, seconds, trace) in zip(series, results):
        out.embeddings.append(y)
        out.seconds.append(seconds)
        out.iterations.append(config.gf_iters * snap.edge_count)
        out.traces.append(trace)
    return out


def run_gf_align(series, config):
    """Cold-start factorization post-processed with rotation alignment."""
    return _aligned_variant(run_gf(series, config, warm_start=False), "gf_align")


def run_method(series, config):
    """Dispatch on ``config.method``; returns ``(series, growth_report)``
    where the report is None for everything except the warm-started run."""
    if config.method == "dyngem":
        return run_dyngem(series, config)
    if config.method == "sdne_retrain":
        return run_sdne_retrain(series, config), None
    if config.method == "sdne_align":
        return run_sdne_align(series, config), None
    if config.method == "gf":
        return run_gf(series, config, warm_start=False), None
    if config.method == "gf_init":
        return run_gf(series, config, warm_start=True), None
    if config.method == "gf_align":
        return run_gf_align(series, config), None
    raise ConfigError(f"unknown method {config.method!r}")
