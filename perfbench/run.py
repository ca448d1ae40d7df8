"""dyngem benchmark: run one workload through the CLI and report metrics.

Usage::

    python3 perfbench/run.py --workload desk_warm --seed 0 --seconds 20 --trace 0

Every command is a fresh ``dyngem`` process (``python -m dyngem.cli`` on the
checkout's ``src``), run in sequence by one client.  With ``--trace 0`` the
benchmark sets up the inputs several times (``setup_s`` is their median),
then repeats ``train`` and the workload's ``eval`` commands until
``--seconds`` have passed, and reports the end-to-end metrics.  With
``--trace 1`` it runs the commands once untraced and once with span tracing
(``tracing.py``), checks that both produce the same fingerprint, and reports
the per-layer metrics.  Every iteration passes the correctness gate
(``gate.py``) or counts as failed and reports no time.  The last line of
standard output is one JSON object; a record with the environment, the
fingerprint and every sample is written under ``.perfbench/results``.

Times are wall-clock seconds, as a user waits for them.  Each command's CPU
time (user plus system, from ``wait4``) is printed beside its wall time;
with BLAS on one thread the two agree unless the host withholds the CPU.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads here or in any child: the thread count
# changes the summation order and hence the embeddings and objectives, so it
# is fixed and recorded with every result.
BLAS_THREADS = 1
PINNED_ENV = {name: str(BLAS_THREADS) for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gate  # noqa: E402
import tracing  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 7
# A run must end within 180 s: no iteration starts when the previous one's
# length would carry it past ITERATION_CUTOFF, and any command still alive
# at KILL_AFTER is killed (and counted as failed).
ITERATION_CUTOFF = 150.0
KILL_AFTER = 170.0
# Methods whose manifest counts minibatches; the rest count edge updates.
BATCH_COUNTED = ("dyngem", "sdne_retrain", "sdne_align")

E2E_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "train_edges_per_s": "edges/s",
    "peak_rss_mb": "MB",
    "recon_map": "map",
}


class Runner:
    """Runs CLI commands as child processes under one deadline."""

    def __init__(self, started):
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv, log_path):
        """``(exit code, wall seconds, CPU seconds, peak RSS in MB)`` of one child."""
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(0.0, KILL_AFTER - (start - self.started)), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted, e.g. by SIGTERM: take the child down too
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def dyngem(self, args, log_path, spans_path=None):
        if spans_path is None:
            argv = [sys.executable, "-m", "dyngem.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path), *args]
        return self.run(argv, log_path)


def setup_inputs(runner, workload, seed, out_dir):
    """Time one set-up from a fresh interpreter; returns (seconds, info)."""
    log = out_dir.with_suffix(".log")
    argv = [sys.executable, str(BENCH / "make_inputs.py"), workload.name, str(seed), str(out_dir)]
    code, wall, _, _ = runner.run(argv, log)
    if code != 0:
        raise SystemExit(f"set-up failed with exit code {code}:\n{log.read_text()}")
    return wall, json.loads(log.read_text().strip().splitlines()[-1])


def series_digest(series_dir):
    digest = hashlib.sha256()
    for path in sorted(series_dir.glob("snapshot_*.edges")):
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_iteration(runner, workload, inputs, series, floor, work, deep, rounds=1, traced=False):
    """Train once, then run the workload's evals ``rounds`` times; returns the
    outcome of every command."""
    tag = "traced" if traced else "plain"
    run_dir = work / f"run-{tag}"
    shutil.rmtree(run_dir, ignore_errors=True)
    commands = []

    def invoke(name, args):
        spans = work / f"{tag}-{name}.spans.json" if traced else None
        code, wall, cpu, rss = runner.dyngem(args, work / f"{tag}-{name}.log", spans)
        entry = {"name": name, "code": code, "wall": wall, "cpu": cpu, "rss_mb": rss, "problems": []}
        if code != 0:
            entry["problems"].append(f"exit code {code}")
        if traced and spans.exists():
            entry["spans"] = json.loads(spans.read_text())
        commands.append(entry)
        return entry

    train = invoke("train", ["train", "--in", str(inputs), "--out", str(run_dir), *workload.train_args])
    out = {"commands": commands, "fingerprint": None, "edge_updates": None, "reports": {},
           "eval_rounds": []}
    if train["code"] == 0:
        try:
            manifest, embeddings = gate.read_run(run_dir)
        except (OSError, ValueError, KeyError) as exc:
            train["problems"].append(f"unreadable run: {exc}")
        else:
            train["problems"] += gate.check_train(run_dir, manifest, embeddings, series, deep)
            out["fingerprint"] = gate.fingerprint(manifest, embeddings)
            iterations = manifest["aggregate"]["total_iterations"]
            if manifest["method"] in BATCH_COUNTED:
                iterations *= manifest["config"]["hyper"]["batch_size"]
            out["edge_updates"] = iterations
            out["run_bytes"] = sum(p.stat().st_size for p in run_dir.iterdir())
    for _ in range(rounds if not train["problems"] else 0):
        round_wall = 0.0
        for kind in workload.evals:
            report_path = work / f"{tag}-{kind}.json"
            entry = invoke(kind, ["eval", kind, "--run", str(run_dir), "--data", str(inputs),
                                  "--out", str(report_path)])
            round_wall += entry["wall"]
            if entry["code"] == 0:
                report = json.loads(report_path.read_text())
                out["reports"][kind] = report["aggregate"]
                entry["problems"] += gate.check_report(kind, report, floor)
        out["eval_rounds"].append(round_wall)
    shutil.rmtree(run_dir, ignore_errors=True)
    out["ok"] = (len(commands) == 1 + rounds * len(workload.evals)
                 and all(not c["problems"] for c in commands))
    return out


def summarize(values):
    return {"median": statistics.median(values), "max": max(values), "n": len(values)}


def source_identity():
    """Commit when the checkout is a git repository, plus a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "dyngem").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def backend_agreement():
    """Compiled and python kernels must agree within 1e-8 when both import."""
    from dyngem import _kernels_py

    try:
        from dyngem import _kernels
    except ImportError:
        return "python only"
    rng = np.random.default_rng(0)
    n, m, d = 200, 2000, 16
    heads = rng.integers(0, n, m).astype(np.intp)
    tails = ((heads + 1 + rng.integers(0, n - 1, m)) % n).astype(np.intp)
    weights = rng.uniform(0.5, 2.0, m)
    order = rng.permutation(m).astype(np.intp)
    y0 = rng.uniform(-0.1, 0.1, (n, d))
    g0 = rng.standard_normal((32, 32))
    outputs = []
    for impl in (_kernels, _kernels_py):
        y = np.ascontiguousarray(y0.copy())
        impl.gf_epoch(y, heads, tails, weights, order, 0.01, 0.1)
        g, v = np.ascontiguousarray(g0.copy()), np.eye(32)
        if impl.jacobi_sweeps(g, v, 1e-12, 100) < 0:
            raise SystemExit("jacobi_sweeps did not converge in the agreement check")
        outputs.append((y, g))
    worst = max(float(np.max(np.abs(a - b))) for a, b in zip(*outputs))
    if worst > 1e-8:
        raise SystemExit(f"compiled and python kernels disagree by {worst:.2e}")
    return f"compiled agrees with python within {worst:.1e}"


def environment(setup_info, agreement):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads": BLAS_THREADS,
        "backend": setup_info["backend"],
        "numpy": setup_info["numpy"],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        **source_identity(),
        "backend_agreement": agreement,
    }


def measure(runner, workload, seed, seconds, work):
    """Untraced run: set-up repeats, then train/eval iterations for ``seconds``."""
    setups, digests = [], []
    for k in range(SETUP_REPEATS):
        wall, info = setup_inputs(runner, workload, seed, work / f"inputs-{k}")
        setups.append(wall)
        digests.append(series_digest(work / f"inputs-{k}"))
    if len(set(digests)) != 1:
        raise SystemExit("the generator wrote different series for one seed")
    inputs = work / "inputs-0"
    series = gate.read_series(inputs)
    floor = gate.null_map_floor(series)

    iterations = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        outcome = run_iteration(runner, workload, inputs, series, floor, work,
                                deep=not iterations, rounds=workload.eval_rounds)
        outcome["wall"] = wall = time.perf_counter() - start
        if iterations and outcome["fingerprint"] != iterations[0]["fingerprint"]:
            outcome["commands"][0]["problems"].append("fingerprint differs from the first iteration")
            outcome["ok"] = False
        iterations.append(outcome)
        now = time.perf_counter()
        # Start another iteration only if at least half of it fits the window.
        if now - begin + wall / 2 >= seconds or now + wall - runner.started > ITERATION_CUTOFF:
            break
    return {"setup_s": setups, "setup_info": info, "floor": floor, "iterations": iterations}


def end_to_end(result):
    good = [it for it in result["iterations"] if it["ok"]]
    samples = {"setup_s": result["setup_s"]}
    if good:
        samples["train_s"] = [it["commands"][0]["wall"] for it in good]
        samples["eval_s"] = [wall for it in good for wall in it["eval_rounds"]]
        samples["train_edges_per_s"] = [it["edge_updates"] / it["commands"][0]["wall"] for it in good]
        samples["peak_rss_mb"] = [it["commands"][0]["rss_mb"] for it in good]
        samples["recon_map"] = [it["reports"]["reconstruction"]["average_map"] for it in good]
    return samples


def trace(runner, workload, seed, work):
    """One untraced and one traced iteration; per-layer metrics from the spans."""
    wall, info = setup_inputs(runner, workload, seed, work / "inputs-0")
    inputs = work / "inputs-0"
    series = gate.read_series(inputs)
    floor = gate.null_map_floor(series)
    plain = run_iteration(runner, workload, inputs, series, floor, work, deep=True)
    traced = run_iteration(runner, workload, inputs, series, floor, work, deep=False, traced=True)
    if traced["fingerprint"] != plain["fingerprint"]:
        traced["commands"][0]["problems"].append("traced fingerprint differs from the untraced one")
        traced["ok"] = False
    metrics = {}
    if plain["ok"] and traced["ok"]:
        metrics = tracing.layer_metrics(traced["commands"])
        metrics["metrics.k_s"] = traced["reports"]["stability"]["k_s"]
        metrics["cli.run_bytes"] = traced["run_bytes"]
        try:
            tracing.check_layers(metrics, workload.layers)
        except ValueError as exc:
            raise SystemExit(f"the traced run does not match the workload's layers: {exc}")
        metrics["trace_overhead_ratio"] = (sum(c["wall"] for c in traced["commands"])
                                           / sum(c["wall"] for c in plain["commands"]))
    return {"setup_s": [wall], "setup_info": info, "floor": floor,
            "iterations": [plain, traced], "layers": metrics}


def layer_unit(name):
    if name.endswith("_ratio") or name == "metrics.k_s":
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("flops"):
        return "flop"
    return "count"


def main():
    parser = argparse.ArgumentParser(description="Run one dyngem benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    runner = Runner(time.perf_counter())
    if not (SRC / "dyngem" / "cli.py").is_file():
        raise SystemExit(f"no dyngem sources under {SRC}")
    sys.path.insert(0, str(SRC))
    agreement = backend_agreement()

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.trace:
            result = trace(runner, workload, args.seed, work)
        else:
            result = measure(runner, workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment(result["setup_info"], agreement)

    commands = [c for it in result["iterations"] for c in it["commands"]]
    failed = sum(1 for c in commands if c["problems"])
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"null MAP floor {result['floor']:.5f}")
    for it in result["iterations"]:
        print(f"fingerprint {it['fingerprint']}")
        for c in it["commands"]:
            status = "ok" if not c["problems"] else "FAILED: " + "; ".join(c["problems"])
            print(f"  {c['name']:<15} wall {c['wall']:8.3f} s  cpu {c['cpu']:8.3f} s  "
                  f"rss {c['rss_mb']:7.1f} MB  {status}")
    print(f"failed_ops {failed}/{len(commands)} = {failed / len(commands):.3f} (share)")

    if args.trace:
        layers = result["layers"]
        for name, value in layers.items():
            print(f"{name:<34} {value:.6g}")
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}
    else:
        samples = end_to_end(result)
        metrics = {}
        for name, values in samples.items():
            stats = summarize(values)
            print(f"{name:<18} median {stats['median']:.6g} max {stats['max']:.6g} "
                  f"n={stats['n']} [{E2E_UNITS[name]}]")
            metrics[name] = {"value": stats["median"], "unit": E2E_UNITS[name]}

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "environment": env, "result": result, "metrics": metrics}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    if not metrics or (not args.trace and metrics.keys() != E2E_UNITS.keys()):
        raise SystemExit("no iteration passed the correctness gate; nothing to report")
    print(json.dumps({"correct": failed == 0, "attempted": len(commands), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
