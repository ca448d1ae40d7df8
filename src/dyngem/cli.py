"""Command-line interface: generate synthetic series, train embedding runs,
evaluate them, and export plot-ready artifacts.

Every command writes or consumes a manifest so a run can be reproduced from
its artifacts alone.  Exit codes: 0 success, 2 validation error, 3
runtime/numerical error.
"""

from __future__ import annotations

import ctypes
import functools
import json
from dataclasses import asdict, fields
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from dyngem import __version__, kernels, metrics, model
from dyngem.engine import METHODS, RunConfig, run_method
from dyngem.errors import ConfigError, ConvergenceError, ParseError, UndefinedMetricError
from dyngem.graph import (
    DynamicGraph,
    SbmConfig,
    generate_sbm_series,
    hide_edges,
    load_series,
    save_series,
    series_files,
)
from dyngem.model import Hyperparameters

SCHEMA_VERSION = 2
EMB_FMT = "emb_{:04d}.csv"
CKPT_FMT = "checkpoint_{:04d}.npz"

# Methods whose every step stores the model whose encoder gave its embedding,
# so eval decodes it; every other run (rotated or factorized) stores no model
# and is scored by embedding inner products.
DECODER_SCORED = ("dyngem", "sdne_retrain")

# glibc serves requests above a moving mmap threshold with fresh mappings
# and hands freed heap above its trim threshold back to the kernel, so each
# training batch page-faults again the tens of MB of temporaries that the
# batch before it freed.  Fixing both thresholds keeps that memory in the
# process: up to 1 GiB of freed heap stays mapped, and every request under
# 32 MB (glibc's largest mmap threshold) comes from the heap.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def retain_freed_memory():
    """Keep freed heap memory in the process for reuse; returns whether the
    C library accepted the setting (False where it has no ``mallopt``)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return bool(mallopt(_M_TRIM_THRESHOLD, 1 << 30)) and bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20))


_HYPER_FIELDS = {f.name for f in fields(Hyperparameters)}


class _ExitError(click.ClickException):
    def __init__(self, message, exit_code):
        super().__init__(message)
        self.exit_code = exit_code


def _guarded(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except (ConvergenceError, FloatingPointError, np.linalg.LinAlgError) as exc:
            raise _ExitError(str(exc), 3) from exc
        except (ParseError, ValueError) as exc:
            raise _ExitError(str(exc), 2) from exc
        except OSError as exc:
            raise _ExitError(str(exc), 2) from exc

    return wrapper


def _write_json(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_report(path, method, config, per_step, aggregate):
    report = {
        "schema_version": SCHEMA_VERSION,
        "method": method,
        "config": config,
        "per_step": per_step,
        "aggregate": aggregate,
    }
    _write_json(path, report)
    return report


def _parse_hidden(text):
    if not isinstance(text, str):
        return tuple(int(h) for h in text)
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"hidden sizes {text!r} must be comma-separated integers") from None


def _config_to_dict(config):
    payload = asdict(config)
    payload["hidden_sizes"] = [int(h) for h in config.hidden_sizes]
    return payload


def _config_from_dict(payload, flags):
    """RunConfig from a config echo, with the given train flags (named as
    the config's fields) overriding its values."""
    try:
        data = {**payload, "hyper": dict(payload["hyper"])}
        for name, value in flags.items():
            (data["hyper"] if name in _HYPER_FIELDS else data)[name] = value
        hyper = Hyperparameters(**data.pop("hyper"))
        data["hidden_sizes"] = _parse_hidden(data["hidden_sizes"])
        return RunConfig(hyper=hyper, **data)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed config echo: {exc!r}") from None


_H = Hyperparameters()
_R = RunConfig()
_DEFAULT_CONFIG = _config_to_dict(_R)


def train_options(f):
    opts = [
        click.option("--method", type=click.Choice(METHODS), default="dyngem",
                     show_default=True, help="embedding method"),
        click.option("--d", "d", type=int, default=_H.d, show_default=True,
                     help="embedding dimension"),
        click.option("--hidden", "hidden_sizes", default=",".join(str(h) for h in _R.hidden_sizes),
                     show_default=True, help="comma-separated hidden widths"),
        click.option("--alpha", type=float, default=_H.alpha, show_default=True,
                     help="first-order proximity weight"),
        click.option("--beta", type=float, default=_H.beta, show_default=True,
                     help="reconstruction penalty on observed edges"),
        click.option("--nu1", type=float, default=_H.nu1, show_default=True,
                     help="L1 weight decay"),
        click.option("--nu2", type=float, default=_H.nu2, show_default=True,
                     help="L2 weight decay"),
        click.option("--rho", type=float, default=_H.rho, show_default=True,
                     help="minimum layer-size ratio driving growth"),
        click.option("--base-lr", type=float, default=_H.base_lr, show_default=True,
                     help="initial SGD learning rate"),
        click.option("--momentum", type=float, default=_H.momentum, show_default=True),
        click.option("--decay", type=float, default=_H.decay, show_default=True,
                     help="learning-rate decay per update"),
        click.option("--batch-size", type=int, default=_H.batch_size, show_default=True),
        click.option("--epochs-first", type=int, default=_H.epochs_first, show_default=True,
                     help="epochs on the first snapshot"),
        click.option("--epochs-warm", type=int, default=_H.epochs_warm, show_default=True,
                     help="epochs on warm-started snapshots"),
        click.option("--seed", type=int, default=_H.seed, show_default=True),
        click.option("--gf-lambda", type=float, default=_R.gf_lambda, show_default=True,
                     help="factorization regularizer"),
        click.option("--gf-iters", type=int, default=_R.gf_iters, show_default=True,
                     help="factorization epochs"),
        click.option("--gf-lr", type=float, default=_R.gf_lr, show_default=True,
                     help="factorization learning rate"),
        click.option("--growth-noise", type=float, default=_R.growth_noise, show_default=True,
                     help="symmetry-breaking noise on widened units"),
        click.option("--jobs", type=int, default=_R.jobs, show_default=True,
                     help="parallel snapshot workers for cold-start baselines"),
    ]
    for opt in reversed(opts):
        f = opt(f)
    return f


@click.group()
@click.version_option(__version__, prog_name="dyngem")
def main():
    """Dynamic-graph embeddings: generate data, train, evaluate, export."""
    retain_freed_memory()


@main.command("generate")
@click.option("--nodes", type=int, required=True, help="nodes per snapshot")
@click.option("--communities", type=int, default=3, show_default=True)
@click.option("--p-in", "p_in", type=float, required=True, help="within-community edge probability")
@click.option("--p-out", "p_out", type=float, required=True, help="cross-community edge probability")
@click.option("--steps", type=int, required=True, help="number of snapshots")
@click.option("--migrate", type=int, default=0, show_default=True,
              help="nodes switching community per step")
@click.option("--edge-weight", type=float, default=1.0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "output_dir", required=True, type=click.Path(file_okay=False))
@_guarded
def cmd_generate(nodes, communities, p_in, p_out, steps, migrate, edge_weight, seed, output_dir):
    """Write a stochastic-block-model snapshot series with migrating nodes."""
    config = SbmConfig(
        node_count=nodes,
        p_in=p_in,
        p_out=p_out,
        steps=steps,
        communities=communities,
        migrate_per_step=migrate,
        edge_weight=edge_weight,
    )
    graph, labels = generate_sbm_series(config, seed)
    out = Path(output_dir)
    paths = save_series(graph, out)
    keys = [np.repeat(np.arange(steps), nodes), np.tile(np.arange(nodes), steps), labels.ravel()]
    _write_csv(out / "labels.csv", "step,node,community", keys, np.empty((labels.size, 0)))
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": "generate",
        "config": {
            "nodes": nodes,
            "communities": communities,
            "p_in": p_in,
            "p_out": p_out,
            "steps": steps,
            "migrate": migrate,
            "edge_weight": edge_weight,
            "seed": seed,
        },
        "artifacts": {"snapshots": [p.name for p in paths], "labels": "labels.csv"},
        "edge_counts": [int(snap.edge_count) for snap in graph],
    }
    _write_json(out / "manifest.json", manifest)
    click.echo(f"wrote {len(paths)} snapshots to {out}")


def _write_csv(path, header, keys, values):
    """Write ``header``, then one row per entry of the ``keys`` columns
    (integers or external-id strings, as ``%s``) followed by that row of the
    2-D ``values`` (as ``%.17g``, which reads back exactly).  The rows hold
    Python objects, which carry string ids and format faster than numpy's."""
    values = np.asarray(values, dtype=object)
    rows = np.column_stack([np.asarray(k, dtype=object) for k in keys] + [values])
    np.savetxt(path, rows, fmt=["%s"] * len(keys) + ["%.17g"] * values.shape[1], delimiter=",",
               header=header, comments="", encoding="utf-8")


def _read_embedding_csv(path, rows):
    """The embedding stored at ``path``, which must list nodes ``0..rows-1``
    in order; C-contiguous like the array that was written."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header[:1] != ["node"] or len(header) < 2:
            raise ParseError(f"{path}:1: expected 'node,y1,...' header")
        try:
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from None
    if table.shape != (rows, len(header)) or not np.array_equal(table[:, 0], np.arange(rows)):
        raise ParseError(f"{path}: expected nodes 0..{rows - 1} in order, "
                         f"each with {len(header) - 1} values, as manifest.json counts them")
    emb = np.ascontiguousarray(table[:, 1:])
    if not np.isfinite(emb).all():
        raise FloatingPointError(f"{path}: embedding holds non-finite values")
    return emb


def _write_run(out_dir, input_dir, series, config, steps):
    """Write a run directory with ``manifest.json`` last.  A manifest left
    by an earlier run is deleted first, so a write that fails part-way
    leaves a directory that ``eval`` rejects instead of a mix of two runs."""
    for t, step in enumerate(steps):
        if not np.isfinite(step.embedding).all():
            raise FloatingPointError(f"step {t}: embedding holds non-finite values")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.json").unlink(missing_ok=True)
    per_step = []
    for t, step in enumerate(steps):
        emb = step.embedding
        emb_name = EMB_FMT.format(t)
        header = "node" + "".join(f",y{k}" for k in range(1, emb.shape[1] + 1))
        _write_csv(out_dir / emb_name, header, [np.arange(emb.shape[0])], emb)
        entry = {
            "step": t,
            "embedding": emb_name,
            "checkpoint": None,
            "seconds": step.seconds,
            "iterations": int(step.iterations),
            "final_objective": step.trace[-1] if step.trace else None,
            "growth": step.growth,
            "backoffs": int(step.backoffs),
        }
        if step.checkpoint is not None:
            ckpt_name = CKPT_FMT.format(t)
            model.save_checkpoint(step.checkpoint, out_dir / ckpt_name)
            entry["checkpoint"] = ckpt_name
        per_step.append(entry)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": "train",
        "method": config.method,
        "config": _config_to_dict(config),
        "input": str(input_dir),
        # the compiled and numpy Jacobi SVDs differ in their last bits, so
        # an aligned re-run is byte-identical only on the same backend and numpy
        "backend": kernels.BACKEND,
        "numpy": np.__version__,
        "node_counts": [int(c) for c in series.node_counts],
        "per_step": per_step,
        "aggregate": {
            "total_seconds": float(sum(s.seconds for s in steps)),
            "total_iterations": int(sum(s.iterations for s in steps)),
        },
    }
    _write_json(out_dir / "manifest.json", manifest)
    return manifest


@main.command("train")
@click.option("--in", "input_dir", required=True,
              type=click.Path(exists=True, file_okay=False), help="snapshot series directory")
@click.option("--out", "output_dir", required=True, type=click.Path(file_okay=False))
@click.option("--from-manifest", "from_manifest", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="reuse the config echoed in a previous run manifest")
@train_options
@click.pass_context
@_guarded
def cmd_train(ctx, input_dir, output_dir, from_manifest, **flags):
    """Train one method over a snapshot series and write embeddings."""
    if from_manifest:
        with open(from_manifest, encoding="utf-8") as fh:
            payload = json.load(fh)
        if "config" not in payload:
            raise ConfigError(f"{from_manifest}: manifest has no config echo")
        config = _config_from_dict(payload["config"], {
            name: value for name, value in flags.items()
            if ctx.get_parameter_source(name) is ParameterSource.COMMANDLINE
        })
    else:
        config = _config_from_dict(_DEFAULT_CONFIG, flags)
    series = load_series(input_dir)
    _write_run(output_dir, input_dir, series, config, run_method(series, config))
    click.echo(f"trained {config.method} on {len(series)} snapshots -> {output_dir}")


def _load_run(run_dir, data_dir=None):
    """A train run's manifest, its embeddings, and per step a checkpoint path
    for a ``DECODER_SCORED`` method, else None (an older run's checkpoints are
    ignored).  Given ``data_dir``, the run must have one step per snapshot
    file there, which is checked before any file is parsed."""
    run_dir = Path(run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise ConfigError(f"no manifest.json in {run_dir}")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or manifest.get("command") != "train":
        raise ConfigError(f"{manifest_path} is not the manifest of a train run")
    steps = manifest.get("per_step")
    if not (isinstance(steps, list) and steps
            and all(isinstance(e, dict) and "embedding" in e for e in steps)):
        raise ConfigError(f"{manifest_path} needs a non-empty per_step list with an embedding per step")
    method = manifest.get("method")
    if method not in METHODS or not isinstance(manifest.get("config"), dict):
        raise ConfigError(f"{manifest_path} needs a method out of {', '.join(METHODS)} and a config echo")
    decoded = method in DECODER_SCORED
    if decoded and not all(isinstance(e.get("checkpoint"), str) and e["checkpoint"] for e in steps):
        raise ConfigError(f"{manifest_path} needs a checkpoint for every step of a {method} run")
    counts = manifest.get("node_counts")
    if not (isinstance(counts, list) and len(counts) == len(steps)
            and all(type(c) is int and c >= 0 for c in counts)):
        raise ConfigError(f"{manifest_path} needs node_counts: one non-negative integer per step")
    if data_dir is not None and len(series_files(data_dir)) != len(steps):
        raise ConfigError("run and data directories disagree on the number of steps")
    embeddings = [_read_embedding_csv(run_dir / e["embedding"], c) for e, c in zip(steps, counts)]
    checkpoints = [run_dir / e["checkpoint"] if decoded else None for e in steps]
    return manifest, embeddings, checkpoints


def _step_scores(embedding, params):
    """Pair scores of one step: the embedding decoded by ``params``, the model
    whose encoder gave it, or embedding inner products without a model."""
    if params is None:
        return embedding @ embedding.T
    return model.symmetrize_scores(model.reconstruct_scores(params, embedding))


@main.group("eval")
def cmd_eval():
    """Evaluate runs: reconstruction, linkpred, stability, anomaly, speedup."""


@cmd_eval.command("reconstruction")
@click.option("--run", "run_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_guarded
def eval_reconstruction_cmd(run_dir, data_dir, out_path):
    """Average MAP of reconstructing each snapshot's neighborhoods."""
    manifest, embeddings, checkpoints = _load_run(run_dir, data_dir)
    per_step = []
    for t, (snap, emb, checkpoint) in enumerate(zip(load_series(data_dir), embeddings, checkpoints)):
        params = model.load_checkpoint(checkpoint) if checkpoint is not None else None
        value = metrics.eval_reconstruction(_step_scores(emb, params), snap)
        per_step.append({"step": t, "map": value})
    aggregate = {"average_map": float(np.mean([e["map"] for e in per_step]))}
    _write_report(out_path, manifest["method"], manifest["config"], per_step, aggregate)
    click.echo(f"average reconstruction MAP: {aggregate['average_map']:.6f}")


@cmd_eval.command("linkpred")
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--hide-fraction", type=float, default=0.15, show_default=True,
              help="fraction of last-snapshot edges to hide")
@click.option("--hide-seed", type=int, default=0, show_default=True)
@train_options
@_guarded
def eval_linkpred_cmd(data_dir, out_path, hide_fraction, hide_seed, **flags):
    """Hide last-snapshot edges, train on the modified series, rank them."""
    config = _config_from_dict(_DEFAULT_CONFIG, flags)
    series = load_series(data_dir)
    last = len(series) - 1
    train_last, hidden = hide_edges(series[last], hide_fraction, hide_seed)
    modified = DynamicGraph([series[t] for t in range(last)] + [train_last])
    step = run_method(modified, config)[last]
    scores = _step_scores(step.embedding, step.checkpoint)
    value = metrics.eval_link_prediction(scores, train_last, hidden)
    per_step = [{"step": last, "map": value, "hidden_edges": len(hidden)}]
    aggregate = {"average_map": value, "hide_fraction": hide_fraction, "hide_seed": hide_seed}
    _write_report(out_path, config.method, _config_to_dict(config), per_step, aggregate)
    click.echo(f"link-prediction MAP: {value:.6f}")


@cmd_eval.command("stability")
@click.option("--run", "run_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@_guarded
def eval_stability_cmd(run_dir, data_dir, out_path):
    """Relative/absolute stability per transition plus the constant K_S."""
    manifest, embeddings, _ = _load_run(run_dir, data_dir)
    if len(embeddings) < 2:
        raise ConfigError("stability needs at least two snapshots")
    report = metrics.stability(embeddings, load_series(data_dir))
    per_step = []
    for t, (s_abs, s_rel) in enumerate(zip(report.s_abs, report.s_rel)):
        entry = {"step": t + 1, "s_abs": s_abs, "s_rel": s_rel, "defined": s_rel is not None}
        if s_rel is None:
            entry["reason"] = "adjacency unchanged" if s_abs is None else "zero embedding or adjacency norm"
        per_step.append(entry)
    aggregate = {"defined_transitions": len(report.s_rel) - len(report.skipped), "k_s": report.k_s}
    if report.k_s is None:
        aggregate["reason"] = "fewer than two defined relative stabilities"
    _write_report(out_path, manifest["method"], manifest["config"], per_step, aggregate)
    shown = "undefined" if aggregate["k_s"] is None else f"{aggregate['k_s']:.6g}"
    click.echo(f"stability constant K_S: {shown}")


@cmd_eval.command("anomaly")
@click.option("--run", "run_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.option("--rule", type=click.Choice(("std", "absolute")), default="std", show_default=True)
@click.option("--factor", type=float, default=2.0, show_default=True,
              help="std multiplier for the statistical rule")
@click.option("--threshold", type=float, default=None, help="cutoff for the absolute rule")
@_guarded
def eval_anomaly_cmd(run_dir, data_dir, out_path, rule, factor, threshold):
    """Embedding-drift deltas per transition with threshold flags."""
    manifest, embeddings, _ = _load_run(run_dir, data_dir)
    deltas = metrics.anomaly_series(embeddings)
    try:
        report = metrics.flag_anomalies(deltas, rule=rule, factor=factor, threshold=threshold)
        flagged = {t for t in report.flagged}
        per_step = [
            {"step": t + 1, "delta": float(dv), "flagged": t in flagged}
            for t, dv in enumerate(deltas)
        ]
        aggregate = {
            "rule": rule,
            "threshold": report.threshold,
            "flagged_steps": [t + 1 for t in report.flagged],
        }
        if rule == "std":
            aggregate["factor"] = factor
    except UndefinedMetricError as exc:
        per_step = [{"step": t + 1, "delta": float(dv), "flagged": None} for t, dv in enumerate(deltas)]
        aggregate = {"rule": rule, "threshold": None, "flagged_steps": None, "reason": str(exc)}
    _write_report(out_path, manifest["method"], manifest["config"], per_step, aggregate)
    click.echo(f"flagged steps: {aggregate['flagged_steps']}")


@cmd_eval.command("speedup")
@click.option("--ns", "n_s", type=int, required=True, help="cold-start iterations")
@click.option("--ni", "n_i", type=int, required=True, help="warm-start iterations per step")
@click.option("--T", "big_t", type=int, required=True, help="number of snapshots")
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
@_guarded
def eval_speedup_cmd(n_s, n_i, big_t, out_path):
    """Expected warm-start speedup T*ns / (ns + (T-1)*ni)."""
    value = metrics.expected_speedup(n_s, n_i, big_t)
    if out_path:
        _write_report(
            out_path, None, {"ns": n_s, "ni": n_i, "T": big_t}, [], {"expected_speedup": value}
        )
    click.echo(f"expected speedup: {value:.3f}")


def _load_ids(path):
    mapping = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected 'external,internal'")
            try:
                internal = int(parts[1])
            except ValueError:
                if lineno == 1:
                    continue
                raise ParseError(f"{path}:{lineno}: internal index {parts[1]!r} is not an integer") from None
            mapping[internal] = parts[0]
    return mapping


@main.command("export")
@click.option("--run", "run_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out", "output_dir", required=True, type=click.Path(file_okay=False))
@click.option("--ids", "ids_path", default=None, type=click.Path(exists=True, dir_okay=False),
              help="external-id,internal-index mapping joined onto the export")
@_guarded
def cmd_export(run_dir, output_dir, ids_path):
    """Concatenate a run into long-format embeddings.csv plus deltas.csv."""
    _, embeddings, _ = _load_run(run_dir)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    ext_of = _load_ids(ids_path) if ids_path else None
    sizes = [e.shape[0] for e in embeddings]
    nodes = np.concatenate([np.arange(n) for n in sizes])
    keys = [np.repeat(np.arange(len(sizes)), sizes), nodes]
    head = "t,node"
    if ext_of is not None:
        keys.append([ext_of.get(node, node) for node in nodes.tolist()])
        head += ",external_id"
    head += "".join(f",y{k}" for k in range(1, embeddings[0].shape[1] + 1))
    _write_csv(out / "embeddings.csv", head, keys, np.concatenate(embeddings))
    deltas = metrics.anomaly_series(embeddings) if len(embeddings) > 1 else np.empty(0)
    _write_csv(out / "deltas.csv", "step,delta", [np.arange(1, deltas.size + 1)], deltas.reshape(-1, 1))
    click.echo(f"exported {nodes.size} embedding rows to {out}")


if __name__ == "__main__":
    main()
