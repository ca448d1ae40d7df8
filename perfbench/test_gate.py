"""Tests of the benchmark's correctness gate: ``python3 -m pytest perfbench``.

Each test builds a small run with the real CLI, then damages one artifact
the way a fast-and-wrong change could, and asserts the gate reports it.
"""

from __future__ import annotations

import itertools
import json
import sys

import numpy as np
import pytest

import gate
from workloads import SRC, SeriesSpec, build_series

sys.path.insert(0, str(SRC))

from dyngem import cli  # noqa: E402
from dyngem.graph import save_series  # noqa: E402


def _cli(*args):
    cli.main(list(args), standalone_mode=False)


def _make_run(root, spec, train_args, evals):
    data, run = root / "data", root / "run"
    save_series(build_series(spec, seed=3), data)
    _cli("train", "--in", str(data), "--out", str(run), *train_args)
    for kind in evals:
        _cli("eval", kind, "--run", str(run), "--data", str(data), "--out", str(root / f"{kind}.json"))
    return data, run


def _gate(root, data, run, evals, deep=True):
    """Every problem the gate finds in the run and its reports."""
    series = gate.read_series(data)
    manifest, embeddings = gate.read_run(run)
    problems = gate.check_train(run, manifest, embeddings, series, deep)
    floor = gate.null_map_floor(series)
    for kind in evals:
        problems += gate.check_report(kind, json.loads((root / f"{kind}.json").read_text()), floor)
    return problems


def _rewrite_embedding(run, step, change):
    path = run / f"emb_{step:04d}.csv"
    lines = path.read_text().splitlines()
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    values = np.array([[float(v) for v in row[1:]] for row in rows])
    values = change(values)
    body = [",".join([row[0], *(repr(float(v)) for v in vals)]) for row, vals in zip(rows, values)]
    path.write_text("\n".join([header, *body]) + "\n")


AE_EVALS = ("reconstruction", "stability", "anomaly")


@pytest.fixture(scope="module")
def ae_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("ae")
    spec = SeriesSpec(nodes=60, p_in=0.3, p_out=0.02, steps=3, migrate=2)
    data, run = _make_run(root, spec, ("--d", "8", "--hidden", "32,16", "--epochs-first", "20",
                                       "--epochs-warm", "5", "--batch-size", "64"), AE_EVALS)
    return root, data, run


def test_expected_random_ap_matches_enumeration():
    for n, r in ((5, 1), (5, 2), (6, 3), (4, 4)):
        aps = []
        for order in itertools.permutations(range(n)):
            hits = [item < r for item in order]
            precisions = [sum(hits[: k + 1]) / (k + 1) for k, hit in enumerate(hits) if hit]
            aps.append(sum(precisions) / r)
        assert gate.expected_random_ap(n, [r])[0] == pytest.approx(np.mean(aps), rel=1e-12)


def test_gate_accepts_an_untouched_run(ae_run):
    root, data, run = ae_run
    assert _gate(root, data, run, AE_EVALS) == []


def test_gate_fails_shuffled_embedding_rows(tmp_path, ae_run):
    root, data, run = ae_run
    copy = tmp_path / "run"
    copy.mkdir()
    for path in run.iterdir():
        (copy / path.name).write_bytes(path.read_bytes())
    _rewrite_embedding(copy, 1, lambda v: v[np.random.default_rng(0).permutation(len(v))])
    problems = _gate(root, data, copy, AE_EVALS)
    assert any("stored encoder" in p for p in problems)


def test_gate_fails_a_non_finite_value(tmp_path, ae_run):
    root, data, run = ae_run
    copy = tmp_path / "run"
    copy.mkdir()
    for path in run.iterdir():
        (copy / path.name).write_bytes(path.read_bytes())

    def poison(values):
        values[3, 2] = np.nan
        return values

    _rewrite_embedding(copy, 2, poison)
    assert any("non-finite" in p for p in _gate(root, data, copy, AE_EVALS, deep=False))

    (copy / "emb_0002.csv").write_bytes((run / "emb_0002.csv").read_bytes())
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["per_step"][0]["final_objective"] = float("inf")
    (copy / "manifest.json").write_text(json.dumps(manifest))
    assert any("final objective" in p for p in _gate(root, data, copy, AE_EVALS, deep=False))


def test_gate_fails_shuffled_factorization_embeddings(tmp_path):
    spec = SeriesSpec(nodes=300, p_in=0.2, p_out=0.01, steps=3, migrate=2)
    evals = ("reconstruction",)
    data, run = _make_run(tmp_path, spec, ("--method", "gf_align", "--gf-iters", "3"), evals)
    assert _gate(tmp_path, data, run, evals) == []

    rng = np.random.default_rng(0)
    for step in range(spec.steps):
        _rewrite_embedding(run, step, lambda v: v[rng.permutation(len(v))])
    _cli("eval", "reconstruction", "--run", str(run), "--data", str(data),
         "--out", str(tmp_path / "reconstruction.json"))
    problems = _gate(tmp_path, data, run, evals)
    assert any("null floor" in p for p in problems)
