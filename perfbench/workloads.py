"""Workload definitions for the dyngem benchmark and the series generator.

Each workload is a snapshot series made from the workload seed plus the
CLI commands run on it, in order, by one client (a closed loop: the next
command starts when the previous one has exited).  The sizes keep one run
of any workload under a minute on a 2-core machine with the pure-numpy
kernel backend, so that 22 runs per workload fit in an hour: fewer epochs
than the acceptance setting on the desk series, and a sparser, 3-step
growing series.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class SeriesSpec:
    """A migrating SBM series; ``prefix_sizes`` turns it into a node-growing
    series whose step t is the subgraph induced by the first
    ``prefix_sizes[t]`` nodes (after a seeded relabelling, so that every
    prefix mixes all communities)."""

    nodes: int
    p_in: float
    p_out: float
    steps: int
    migrate: int
    prefix_sizes: tuple | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    series: SeriesSpec
    train_args: tuple
    evals: tuple
    # The ``tracing.LAYERS`` this workload exercises; its traced run fails
    # if one of them reads 0 or any other layer is reached.
    layers: tuple
    # Eval passes per trained run.  The desk evals are short commands whose
    # time swings by up to 1.6x between consecutive runs of one command, so
    # a run takes four samples; on grow_2k a pass lasts about 7 s, swings
    # less, and two passes keep the run near a minute.
    eval_rounds: int = 2


DESK = SeriesSpec(nodes=300, p_in=0.2, p_out=0.01, steps=10, migrate=2)
AUTOENCODER_LAYERS = ("graph", "graph.dense", "model", "nn", "engine", "metrics",
                      "metrics.anomaly", "cli")

# Why each workload exists; BENCHMARK.json carries the same sentences.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk_warm",
            "Many small batches over a narrow 300-input model: per-call overhead and the "
            "dense loss pass count most; growth never fires and checkpoints are small.",
            DESK,
            ("--method", "dyngem", "--d", "32", "--epochs-first", "10", "--epochs-warm", "2"),
            ("reconstruction", "stability", "anomaly"),
            AUTOENCODER_LAYERS,
        ),
        Workload(
            "grow_2k",
            "Growth fires at every step up to a 2,000-wide model: wide sparse input rows, "
            "regularizer and optimizer cost per parameter, and large text checkpoints.",
            SeriesSpec(
                nodes=2000, p_in=0.015, p_out=0.001, steps=3, migrate=20,
                prefix_sizes=(1000, 1500, 2000),
            ),
            ("--method", "dyngem", "--epochs-first", "2", "--epochs-warm", "1"),
            ("reconstruction", "stability", "anomaly"),
            AUTOENCODER_LAYERS + ("growth",),
            eval_rounds=2,
        ),
        Workload(
            "desk_gf",
            "Bypasses model, nn and growth: time is in the GF kernel, the per-epoch "
            "objective and the alignment SVD; the no-change control for autoencoder PRs.",
            DESK,
            ("--method", "gf_align", "--gf-iters", "10"),
            ("reconstruction", "stability"),
            ("graph", "kernels", "engine", "engine.gf", "metrics", "cli"),
        ),
    )
}


def build_series(spec, seed):
    """Generate the workload's series with the package's own SBM generator."""
    import numpy as np

    from dyngem.graph import DynamicGraph, GraphSnapshot, SbmConfig, generate_sbm_series

    config = SbmConfig(
        node_count=spec.nodes,
        p_in=spec.p_in,
        p_out=spec.p_out,
        steps=spec.steps,
        communities=3,
        migrate_per_step=spec.migrate,
    )
    graph, _ = generate_sbm_series(config, seed)
    if spec.prefix_sizes is None:
        return graph
    if len(spec.prefix_sizes) != spec.steps:
        raise ValueError("prefix_sizes needs one size per step")
    relabel = np.random.default_rng([seed, 1]).permutation(spec.nodes)
    snaps = []
    for size, snap in zip(spec.prefix_sizes, graph):
        edges = []
        for i, j, w in snap.edges():
            a, b = int(relabel[i]), int(relabel[j])
            if a < size and b < size:
                edges.append((a, b, w))
        snaps.append(GraphSnapshot(int(size), edges))
    return DynamicGraph(snaps)
