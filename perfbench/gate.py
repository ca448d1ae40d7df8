"""Correctness gate for one benchmark iteration, plus the run fingerprint.

The gate reads only the artifacts the CLI wrote (run manifest, embedding
CSVs, checkpoints, eval reports) and the snapshot files the benchmark
generated.  Each check names the command whose output it judges, so a
failure is charged to that command.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# A MAP at the null floor is what unrelated (for example row-shuffled)
# embeddings score; requiring 10% above it separates the two at every
# workload size here (seed-to-seed noise of the floor estimate is ~1%).
MAP_FLOOR_MARGIN = 1.1

# Relative tolerance when re-encoding adjacency rows through a stored
# encoder: matmul blocking may change the last bits, row shuffles do not.
ENCODER_RTOL = 1e-9


def read_series(series_dir):
    """``(node_count, heads, tails, weights)`` per snapshot file, in step order."""
    steps = []
    for path in sorted(Path(series_dir).glob("snapshot_*.edges")):
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().split()
            if len(header) != 2 or header[0] != "n":
                raise ValueError(f"{path}: expected header 'n <node_count>'")
            edges = np.loadtxt(fh, ndmin=2).reshape(-1, 3)
        steps.append(
            (int(header[1]), edges[:, 0].astype(np.intp), edges[:, 1].astype(np.intp), edges[:, 2])
        )
    return steps


def expected_random_ap(candidates, relevant):
    """Expected average precision of a uniformly random ranking of
    ``candidates`` items of which ``relevant`` (an array) are true
    neighbours: (H_N + (R-1)/(N-1) * (N - H_N)) / N."""
    r = np.asarray(relevant, dtype=np.float64)
    if candidates == 1:
        return np.ones_like(r)
    n = float(candidates)
    harmonic = math.fsum(1.0 / k for k in range(1, candidates + 1))
    return (harmonic + (r - 1.0) / (n - 1.0) * (n - harmonic)) / n


def null_map_floor(series):
    """Average reconstruction MAP that random scores would get in expectation,
    aggregated like ``eval reconstruction``: mean over nodes with a neighbour,
    then mean over steps."""
    per_step = []
    for n, heads, tails, _ in series:
        degree = np.bincount(np.concatenate([heads, tails]), minlength=n)
        degree = degree[degree > 0]
        per_step.append(float(np.mean(expected_random_ap(n - 1, degree))))
    return float(np.mean(per_step))


def read_embedding(path):
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, 1:]


def read_run(run_dir):
    """The run manifest and its per-step embedding matrices."""
    run_dir = Path(run_dir)
    manifest = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))
    embeddings = [read_embedding(run_dir / step["embedding"]) for step in manifest["per_step"]]
    return manifest, embeddings


def fingerprint(manifest, embeddings):
    """sha256 of the embedding bytes (with shapes) plus the last step's objective."""
    digest = hashlib.sha256()
    for emb in embeddings:
        emb = np.ascontiguousarray(emb, dtype=np.float64)
        digest.update(np.asarray(emb.shape, dtype=np.int64).tobytes())
        digest.update(emb.tobytes())
    return {
        "embedding_sha256": digest.hexdigest(),
        "final_objective": manifest["per_step"][-1]["final_objective"],
    }


def _dense_adjacency(n, heads, tails, weights):
    adj = np.zeros((n, n))
    adj[heads, tails] = weights
    adj[tails, heads] = weights
    return adj


def encoder_mismatch(run_dir, manifest, embeddings, series):
    """Largest relative difference between each stored embedding and the
    stored encoder applied to that step's adjacency rows (None when the run
    has no checkpoints).  Checkpoints are read with the program's loader;
    the forward pass is recomputed here."""
    names = [step.get("checkpoint") for step in manifest["per_step"]]
    if not any(names):
        return None
    from dyngem import model

    worst = 0.0
    for name, emb, (n, heads, tails, weights) in zip(names, embeddings, series):
        params = model.load_checkpoint(Path(run_dir) / name)
        act = _dense_adjacency(n, heads, tails, weights)
        for layer in params.encoder:
            act = np.maximum(act @ layer.weights.T + layer.bias, 0.0)
        if act.shape != emb.shape:
            return math.inf
        scale = max(1.0, float(np.max(np.abs(act))))
        worst = max(worst, float(np.max(np.abs(act - emb))) / scale)
    return worst


def check_train(run_dir, manifest, embeddings, series, deep):
    """Problems with a train run's outputs; ``deep`` adds the encoder check."""
    problems = []
    if len(embeddings) != len(series):
        problems.append(f"{len(embeddings)} embeddings for {len(series)} snapshots")
    for t, (emb, (n, *_)) in enumerate(zip(embeddings, series)):
        if emb.shape[0] != n:
            problems.append(f"step {t}: {emb.shape[0]} embedding rows for {n} nodes")
        if not np.all(np.isfinite(emb)):
            problems.append(f"step {t}: non-finite embedding value")
    for step in manifest["per_step"]:
        value = step.get("final_objective")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"step {step['step']}: final objective {value!r} is not finite")
    if deep and not problems:
        mismatch = encoder_mismatch(run_dir, manifest, embeddings, series)
        if mismatch is not None and not mismatch <= ENCODER_RTOL:
            problems.append(f"embeddings differ from the stored encoder's output by {mismatch:.3g}")
    return problems


def check_report(kind, report, floor):
    """Problems with one ``eval <kind>`` report."""
    aggregate = report.get("aggregate", {})
    if kind == "reconstruction":
        value = aggregate.get("average_map")
        if not isinstance(value, float) or not value > MAP_FLOOR_MARGIN * floor:
            return [f"reconstruction MAP {value!r} is not above {MAP_FLOOR_MARGIN} x null floor {floor:.4g}"]
    elif kind == "stability":
        value = aggregate.get("k_s")
        if not isinstance(value, float) or not math.isfinite(value):
            return [f"K_S {value!r} is undefined or not finite"]
    elif kind == "anomaly":
        deltas = [step.get("delta") for step in report.get("per_step", [])]
        if not deltas or not all(isinstance(d, float) and math.isfinite(d) for d in deltas):
            return ["anomaly deltas missing or not finite"]
    return []
