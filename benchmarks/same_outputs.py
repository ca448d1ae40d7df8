"""Check that a change writes the same files as its parent, byte for byte.

Run as::

    python3 benchmarks/same_outputs.py --parent ../parent

``--parent`` is a checkout of the parent commit and the change is this
checkout, each with its own ``src/``.  For each workload of
``perfbench/workloads.py`` the seed-0 series is built once, with that
file's ``build_series``.  Then each checkout's CLI runs ``train`` on it with
the workload's flags, the workload's ``eval`` commands, ``eval linkpred``
with the train flags (the one eval that ranks with excluded pairs) and
``export``.  On the desk series of ``desk_warm`` each checkout also trains
the methods of ``METHOD_RUNS`` (an aligned autoencoder, a warm-started
factorization and a cold autoencoder on a thread pool), which no workload
reaches, and runs ``METHOD_EVALS`` on each.  Every file written is compared
byte for byte, except that a manifest is compared without the keys that
hold timings or the input path (``seconds``, ``total_seconds``,
``input``).  This checkout then runs the ``eval`` commands on its own runs,
the workloads' and those of ``METHOD_RUNS``, again with
``DYNGEM_PURE_PYTHON=1``, and on every run the parent wrote (a cross-read:
a run written before a change must read the same after it); each report
must equal the compiled backend's, or the parent's, byte for byte.  On the
workloads and method runs of ``PYTHON_TRAINED`` this checkout also trains
with ``DYNGEM_PURE_PYTHON=1``: every embedding and checkpoint must equal the
compiled run's byte for byte, and so must each step's ``final_objective`` in
the manifest, because autoencoder training and unaligned factorization do
not depend on the backend.  Each file that differs is printed; for a
manifest, so is each key that differs, with the largest relative difference
of its numeric values.  The exit code is 1 when any file differs.  BLAS runs
on one thread, as in the benchmark, because the thread count changes the
summation order.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
os.environ.update({name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

from workloads import WORKLOADS, build_series  # noqa: E402

from dyngem.graph import save_series  # noqa: E402

UNCOMPARED_KEYS = {"seconds", "total_seconds", "input"}
# train flags of the extra runs on the desk series, a few epochs each
METHOD_RUNS = {
    "sdne_align": ("--method", "sdne_align", "--d", "32", "--epochs-first", "3"),
    "gf_init": ("--method", "gf_init", "--gf-iters", "5"),
    "sdne_retrain_jobs2": ("--method", "sdne_retrain", "--d", "32", "--epochs-first", "3", "--jobs", "2"),
}
METHOD_EVALS = ("reconstruction", "stability")
# workloads and method runs trained again on the numpy backend: grow_2k
# trains on sparse rows, desk_warm on dense rows, and gf_init factorizes
# without the Jacobi SVD that alignment runs
PYTHON_TRAINED = ("grow_2k", "desk_warm", "gf_init")


def run_cli(checkout, *args, **env):
    args = [str(a) for a in args]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **env)
    proc = subprocess.run([sys.executable, "-m", "dyngem.cli", *args], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: dyngem {' '.join(args)} exited {proc.returncode}\n"
                         f"{proc.stdout}{proc.stderr}")


def run_evals(checkout, kinds, run, series_dir, out, **env):
    for kind in kinds:
        run_cli(checkout, "eval", kind, "--run", run, "--data", series_dir, "--out", out / f"{kind}.json", **env)


def write_outputs(checkout, workload, series_dir, out):
    run = out / "run"
    run_cli(checkout, "train", "--in", series_dir, "--out", run, *workload.train_args)
    run_evals(checkout, workload.evals, run, series_dir, out)
    run_cli(checkout, "eval", "linkpred", "--data", series_dir, "--out", out / "linkpred.json",
            *workload.train_args)
    run_cli(checkout, "export", "--run", run, "--out", out / "export")


def _compared_part(node):
    if isinstance(node, dict):
        return {k: _compared_part(v) for k, v in node.items() if k not in UNCOMPARED_KEYS}
    if isinstance(node, list):
        return [_compared_part(v) for v in node]
    return node


def comparable(path):
    """The bytes of ``path``, or None when it is missing; a manifest without
    its timings and input path."""
    if not path.is_file():
        return None
    if path.name != "manifest.json":
        return path.read_bytes()
    return json.dumps(_compared_part(json.loads(path.read_text(encoding="utf-8"))), sort_keys=True)


_MISSING = object()


def _differing_leaves(a, b, path):
    """Yield ``(key, a, b)`` for each leaf where two JSON trees differ; the
    key writes list indices as ``[*]``, so one key gathers every step."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(a.keys() | b.keys()):
            yield from _differing_leaves(a.get(k, _MISSING), b.get(k, _MISSING), f"{path}.{k}" if path else k)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            yield from _differing_leaves(x, y, f"{path}[*]")
    elif a != b:
        yield path, a, b


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def describe_manifest_difference(parent, change):
    """One line per key where the compared parts of the manifests at two
    paths differ: how many values differ and, for numbers, the largest
    relative difference."""
    trees = (_compared_part(json.loads(p.read_text(encoding="utf-8"))) for p in (parent, change))
    keys = {}
    for key, a, b in _differing_leaves(*trees, ""):
        keys.setdefault(key, []).append((a, b))
    lines = []
    for key, pairs in keys.items():
        line = f"{key}: {len(pairs)} differing value(s)"
        if all(_is_number(a) and _is_number(b) for a, b in pairs):
            worst = max(abs(a - b) / max(abs(a), abs(b)) for a, b in pairs)
            line += f", largest relative difference {worst:.2e}"
        lines.append(line)
    return lines


def count_differing(name, work):
    """Compare the files under ``work/parent`` and ``work/change``, print
    each that differs (and, for a manifest, how), and return how many do."""
    files = sorted({p.relative_to(side) for side in (work / "parent", work / "change")
                    for p in side.rglob("*") if p.is_file()})
    differing = 0
    for rel in files:
        parent, change = work / "parent" / rel, work / "change" / rel
        if comparable(parent) != comparable(change):
            differing += 1
            print(f"{name}: {rel} differs")
            if rel.name == "manifest.json" and parent.is_file() and change.is_file():
                for line in describe_manifest_difference(parent, change):
                    print(f"    {line}")
    print(f"{name}: compared {len(files)} files")
    return differing


def count_differing_reports(name, kinds, work, side, reference, how):
    """Compare the eval reports under ``work/side`` with those under
    ``work/reference``, print each that differs, and return how many do."""
    differing = 0
    for kind in kinds:
        if comparable(work / side / f"{kind}.json") != comparable(work / reference / f"{kind}.json"):
            differing += 1
            print(f"{name}: {kind}.json differs {how}")
    print(f"{name}: compared {len(kinds)} eval reports {how}")
    return differing


def final_objectives(run):
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    return [step["final_objective"] for step in manifest["per_step"]]


def count_differing_python_training(name, train_args, work, series_dir):
    """Train on the numpy backend; count the embeddings and checkpoints that
    differ from the compiled run's, and the manifest when a step's final
    objective does (the manifests name their backends)."""
    runs = {"compiled": work / "change" / "run", "python": work / "python" / "run"}
    run_cli(ROOT, "train", "--in", series_dir, "--out", runs["python"], *train_args,
            DYNGEM_PURE_PYTHON="1")
    files = sorted({p.name for run in runs.values() for p in run.iterdir()} - {"manifest.json"})
    differing = 0
    for file in files:
        if comparable(runs["compiled"] / file) != comparable(runs["python"] / file):
            differing += 1
            print(f"{name}: run/{file} differs between the python and the compiled backend")
    if final_objectives(runs["compiled"]) != final_objectives(runs["python"]):
        differing += 1
        print(f"{name}: run/manifest.json's final objectives differ between the python and the compiled backend")
    print(f"{name}: compared {len(files)} training files and the final objectives "
          "between the python and the compiled backend")
    return differing


def count_differing_python_reads(name, kinds, work, series_dir):
    """Run this checkout's evals on its own run with the numpy backend; count
    the reports that differ from the compiled backend's."""
    run_evals(ROOT, kinds, work / "change" / "run", series_dir, work / "python", DYNGEM_PURE_PYTHON="1")
    return count_differing_reports(name, kinds, work, "python", "change",
                                   "between the python and the compiled backend")


def count_differing_cross_reads(name, kinds, work, series_dir):
    """Run this checkout's evals on the parent's run; count the reports
    that differ from the parent's own."""
    run_evals(ROOT, kinds, work / "parent" / "run", series_dir, work / "cross")
    return count_differing_reports(name, kinds, work, "cross", "parent",
                                   "when this checkout reads the parent's run")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parent = parser.parse_args().parent.resolve()
    differing = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in WORKLOADS.items():
            work = Path(tmp) / name
            save_series(build_series(workload.series, 0), work / "series")
            write_outputs(parent, workload, work / "series", work / "parent")
            write_outputs(ROOT, workload, work / "series", work / "change")
            differing += count_differing(name, work)
            differing += count_differing_python_reads(name, workload.evals, work, work / "series")
            differing += count_differing_cross_reads(name, workload.evals, work, work / "series")
            if name in PYTHON_TRAINED:
                differing += count_differing_python_training(name, workload.train_args, work, work / "series")
        desk = Path(tmp) / "desk_warm" / "series"
        for name, args in METHOD_RUNS.items():
            work = Path(tmp) / name
            for checkout, side in ((parent, "parent"), (ROOT, "change")):
                run_cli(checkout, "train", "--in", desk, "--out", work / side / "run", *args)
                run_evals(checkout, METHOD_EVALS, work / side / "run", desk, work / side)
            differing += count_differing(name, work)
            differing += count_differing_python_reads(name, METHOD_EVALS, work, desk)
            differing += count_differing_cross_reads(name, METHOD_EVALS, work, desk)
            if name in PYTHON_TRAINED:
                differing += count_differing_python_training(name, args, work, desk)
    print("same outputs" if not differing else f"{differing} files differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
