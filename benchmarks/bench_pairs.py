"""Benchmark a change against its parent in alternating pairs of runs, and
append one record per workload to ``BENCH_trajectory.json``.

Run as::

    python3 benchmarks/bench_pairs.py --parent ../parent \\
        --parent-commit <sha> --workload desk_warm

``--parent`` is a checkout of the parent commit and the change is this
checkout, each with its own ``src/`` and ``perfbench/``.  Pair k runs
``perfbench/run.py --seed k --seconds 20 --trace 0`` once in each
checkout, for k in SEEDS, the parent first in even pairs and the change
first in odd ones, so that a slow or fast spell of the host falls on both
sides.  The run length and the seeds are fixed here, so that every record
of the trajectory is comparable with every other.  The record holds each side's median and
quartiles (over the pairs) of the end-to-end metrics of ``BENCHMARK.json``,
how many pairs the change won, both sides' fingerprints at the first seed,
whether their embedding checksums match (``embeddings_identical``), the
metrics whose change median is worse than the parent's by more than their
bound in ``BENCHMARK.json`` (``beyond_bound``), the kernel backend and
``os.cpu_count()``.  Runs are sequential; nothing runs in parallel with
them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# metric name -> (True when higher is better, relative bound on a worse median)
METRICS = {m["name"]: (m["better"] == "higher", m["bound"])
           for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
SEEDS = list(range(10))
SECONDS = 20.0
TRAJECTORY = ROOT / "BENCH_trajectory.json"


def run_once(checkout, workload, seed):
    """One benchmark run; returns ``(metrics, failed, record)``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: run failed\n{proc.stdout}\n{proc.stderr}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = checkout / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(record_path.read_text())
    metrics = {name: entry["value"] for name, entry in summary["metrics"].items()}
    return metrics, summary["failed"], record


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def beyond_bound(parent, change, higher, bound):
    """True when the change's median is worse than the parent's by more than
    ``bound``, a fraction of the parent's median."""
    if higher:
        return change < parent * (1.0 - bound)
    return change > parent * (1.0 + bound)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {side: [] for side in sides}
    failed = {side: 0 for side in sides}
    records = {}
    for k, seed in enumerate(SEEDS):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            metrics, fails, record = run_once(sides[side], args.workload, seed)
            runs[side].append(metrics)
            failed[side] += fails
            records.setdefault(side, record)
            print(f"pair {k} seed {seed} {side}: " + " ".join(f"{n}={v:.6g}" for n, v in metrics.items()),
                  flush=True)

    table = {}
    worse = []
    for name, (higher, bound) in METRICS.items():
        values = {side: [run[name] for run in runs[side]] for side in sides}
        wins = sum((c > p) if higher else (c < p) for p, c in zip(values["parent"], values["change"]))
        table[name] = {side: spread(values[side]) for side in sides}
        table[name]["change_wins"] = wins
        if beyond_bound(table[name]["parent"]["median"], table[name]["change"]["median"], higher, bound):
            worse.append(name)
    fingerprint = {side: records[side]["result"]["iterations"][0]["fingerprint"] for side in sides}
    identical = fingerprint["parent"]["embedding_sha256"] == fingerprint["change"]["embedding_sha256"]
    environment = records["change"]["environment"]
    entry = {
        "workload": args.workload,
        "parent_commit": args.parent_commit,
        "src_sha256": {side: records[side]["environment"]["src_sha256"] for side in sides},
        "pairs": len(SEEDS),
        "seeds": SEEDS,
        "first": "parent in even pairs, change in odd pairs",
        "seconds": SECONDS,
        "failed_ops": failed,
        "metrics": table,
        "fingerprint_seed": SEEDS[0],
        "fingerprint": fingerprint,
        "embeddings_identical": identical,
        "beyond_bound": worse,
        "backend": environment["backend"],
        "blas_threads": environment["blas_threads"],
        "cpu_count": os.cpu_count(),
    }
    trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
    trajectory.append(entry)
    TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    for name, row in table.items():
        mark = "  BEYOND BOUND" if name in worse else ""
        print(f"{name:<18} parent {row['parent']['median']:.6g} [{row['parent']['q1']:.6g}, "
              f"{row['parent']['q3']:.6g}]  change {row['change']['median']:.6g}  "
              f"wins {row['change_wins']}/{len(SEEDS)}{mark}")
    print(f"seed-{SEEDS[0]} embeddings: " + ("identical" if identical else "differ"))


if __name__ == "__main__":
    main()
