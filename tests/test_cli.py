import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import dyngem
from dyngem import cli, engine, graph, kernels, metrics, model, nn
from dyngem.cli import main, retain_freed_memory
from dyngem.errors import ConvergenceError

GEN_FLAGS = [
    "--nodes", "30", "--communities", "3", "--p-in", "0.25", "--p-out", "0.03",
    "--steps", "3", "--migrate", "1", "--seed", "0",
]
FAST_TRAIN = [
    "--d", "4", "--hidden", "8,4", "--epochs-first", "2", "--epochs-warm", "1",
    "--batch-size", "64", "--base-lr", "1e-5", "--seed", "5", "--gf-iters", "5",
]


def _invoke(args):
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    return result


def _generate(out_dir, extra=()):
    result = _invoke(["generate", *GEN_FLAGS, *extra, "--out", str(out_dir)])
    assert result.exit_code == 0, result.output
    return result


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    _generate(data)
    run = root / "run"
    result = _invoke(["train", "--in", str(data), "--out", str(run), *FAST_TRAIN])
    assert result.exit_code == 0, result.output
    return root, data, run


def test_generate_writes_manifest_and_labels(tmp_path):
    out = tmp_path / "series"
    result = _generate(out)
    assert "wrote 3 snapshots" in result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["config"]["nodes"] == 30
    assert manifest["config"]["seed"] == 0
    assert len(manifest["artifacts"]["snapshots"]) == 3
    assert len(manifest["edge_counts"]) == 3
    labels = (out / "labels.csv").read_text().splitlines()
    assert labels[0] == "step,node,community"
    assert len(labels) == 1 + 3 * 30
    for name in manifest["artifacts"]["snapshots"]:
        assert (out / name).exists()


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _generate(a)
    _generate(b)
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes()


def test_generate_rejects_bad_probability(tmp_path):
    result = _invoke(
        ["generate", "--nodes", "10", "--p-in", "1.5", "--p-out", "0.1",
         "--steps", "2", "--out", str(tmp_path / "x")]
    )
    assert result.exit_code == 2
    assert "p_in" in result.output


def test_train_run_directory_contents(workspace):
    _, data, run = workspace
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["method"] == "dyngem"
    assert manifest["config"]["hyper"]["seed"] == 5
    assert manifest["node_counts"] == [30, 30, 30]
    assert manifest["backend"] == kernels.BACKEND
    assert manifest["numpy"] == np.__version__
    assert len(manifest["per_step"]) == 3
    for t, entry in enumerate(manifest["per_step"]):
        assert entry["step"] == t
        assert entry["backoffs"] == 0
        assert (run / entry["embedding"]).exists()
        assert entry["checkpoint"] == f"checkpoint_{t:04d}.npz"
        assert (run / entry["checkpoint"]).exists()
        assert entry["iterations"] > 0
        assert entry["final_objective"] > 0
    assert manifest["per_step"][0]["growth"] is None
    emb_lines = (run / "emb_0000.csv").read_text().splitlines()
    assert emb_lines[0] == "node,y1,y2,y3,y4"
    assert len(emb_lines) == 31


def test_manifest_records_a_retrained_warm_step(workspace, tmp_path, monkeypatch):
    _, data, _ = workspace
    real = model.train_snapshot
    calls = []

    def overflow_once(params, snapshot, hyper, epochs, seed=None):
        calls.append(hyper.base_lr)
        if len(calls) == 2:  # step 1's first attempt
            raise ConvergenceError("training objective is inf in epoch 0")
        return real(params, snapshot, hyper, epochs, seed=seed)

    monkeypatch.setattr(model, "train_snapshot", overflow_once)
    out = tmp_path / "run"
    result = _invoke(["train", "--in", str(data), "--out", str(out), *FAST_TRAIN])
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest.json").read_text())
    # step 1 trained again at half the rate, and step 2 kept that rate
    assert [entry["backoffs"] for entry in manifest["per_step"]] == [0, 1, 1]
    assert calls == [1e-5, 1e-5, 5e-6, 5e-6]


def test_train_from_manifest_reproduces_run(workspace, tmp_path):
    _, data, run = workspace
    again = tmp_path / "again"
    result = _invoke(
        ["train", "--in", str(data), "--out", str(again),
         "--from-manifest", str(run / "manifest.json")]
    )
    assert result.exit_code == 0, result.output
    for name in ("emb_0000.csv", "emb_0001.csv", "emb_0002.csv"):
        assert (again / name).read_bytes() == (run / name).read_bytes()


def test_train_from_manifest_commandline_overrides(workspace, tmp_path):
    _, data, run = workspace
    out = tmp_path / "override"
    result = _invoke(
        ["train", "--in", str(data), "--out", str(out),
         "--from-manifest", str(run / "manifest.json"), "--seed", "6"]
    )
    assert result.exit_code == 0, result.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["hyper"]["seed"] == 6
    assert manifest["config"]["hyper"]["d"] == 4  # untouched flag keeps the echoed value
    assert (out / "emb_0000.csv").read_bytes() != (run / "emb_0000.csv").read_bytes()


def test_train_from_manifest_rejects_malformed_config(workspace, tmp_path):
    _, data, run = workspace
    manifest = json.loads((run / "manifest.json").read_text())
    for config in ({"method": "gf"}, dict(manifest["config"], colour="red")):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({"config": config}))
        result = _invoke(["train", "--in", str(data), "--out", str(tmp_path / "x"), "--from-manifest", str(bad)])
        assert result.exit_code == 2
        assert "malformed config echo" in result.output


def test_train_non_finite_objective_exits_three(workspace, tmp_path, monkeypatch):
    _, data, _ = workspace
    real = model.loss_net_batch

    def nan_loss(params, batch, hyper):
        _, parts, grads = real(params, batch, hyper)
        return float("nan"), parts, grads

    monkeypatch.setattr(model, "loss_net_batch", nan_loss)
    out = tmp_path / "nan"
    result = _invoke(["train", "--in", str(data), "--out", str(out), *FAST_TRAIN])
    assert result.exit_code == 3
    assert "objective is nan" in result.output
    assert not (out / "manifest.json").exists()


def test_train_non_finite_parameters_exit_three(workspace, tmp_path, monkeypatch):
    _, data, _ = workspace
    real = nn.nesterov_step

    def nan_bias(params, grads, state):
        # every epoch is one batch, so its objective came before the nan
        real(params, grads, state)
        params[-1][0] = np.nan
        return params, state

    monkeypatch.setattr(nn, "nesterov_step", nan_bias)
    out = tmp_path / "nan"
    result = _invoke(["train", "--in", str(data), "--out", str(out), *FAST_TRAIN])
    assert result.exit_code == 3
    assert "non-finite parameters in epoch 0" in result.output
    assert not (out / "manifest.json").exists()


def test_sparse_training_and_eval_import_no_scipy(tmp_path):
    # The sparse series trains on CSR rows through the C kernel or its numpy
    # fallback; scipy's import alone would add about 22 MB to the process.
    data = tmp_path / "sparse"
    _generate(data, ["--nodes", "300", "--p-in", "0.02", "--p-out", "0.002"])
    script = (
        "import sys\n"
        "from dyngem import kernels\n"
        "from dyngem.cli import main\n"
        "calls, product = [], kernels.csr_matmul\n"
        "kernels.csr_matmul = lambda *args: calls.append(1) or product(*args)\n"
        "data, out = sys.argv[1:3]\n"
        "main(['train', '--in', data, '--out', out + '/run', *sys.argv[3:]], standalone_mode=False)\n"
        "main(['eval', 'reconstruction', '--run', out + '/run', '--data', data, '--out', out + '/r.json'],\n"
        "     standalone_mode=False)\n"
        "print(bool(calls), 'scipy' in sys.modules)\n"
    )
    src = str(Path(dyngem.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(data), str(tmp_path), *FAST_TRAIN],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    # the sparse path ran, so the check could have seen an import
    assert proc.stdout.split()[-2:] == ["True", "False"], proc.stdout + proc.stderr


def test_train_non_finite_embedding_exits_three(workspace, tmp_path, monkeypatch):
    _, data, _ = workspace
    real = model.embed

    def nan_embed(params, snapshot):
        emb = real(params, snapshot)
        emb[2, 1] = np.nan
        return emb

    monkeypatch.setattr(model, "embed", nan_embed)
    out = tmp_path / "nan"
    result = _invoke(["train", "--in", str(data), "--out", str(out), *FAST_TRAIN])
    assert result.exit_code == 3
    assert "step 0: embedding holds non-finite values" in result.output
    assert not (out / "manifest.json").exists()
    assert not list(out.glob("emb_*.csv"))


def test_failed_retrain_leaves_no_readable_run(workspace, tmp_path, monkeypatch):
    _, data, _ = workspace
    run = tmp_path / "run"
    result = _invoke(["train", "--in", str(data), "--out", str(run), *FAST_TRAIN])
    assert result.exit_code == 0, result.output

    def failing_save(params, path):
        raise OSError(f"{path}: disk full")

    monkeypatch.setattr(model, "save_checkpoint", failing_save)
    result = _invoke(["train", "--in", str(data), "--out", str(run), *FAST_TRAIN, "--seed", "6"])
    assert result.exit_code == 2
    assert "disk full" in result.output
    monkeypatch.undo()
    result = _invoke(["eval", "reconstruction", "--run", str(run), "--data", str(data),
                      "--out", str(tmp_path / "recon.json")])
    assert result.exit_code == 2
    assert "no manifest.json" in result.output


def test_train_rejects_bad_flags(tmp_path, workspace):
    _, data, _ = workspace
    result = _invoke(["train", "--in", str(data), "--out", str(tmp_path / "x"),
                      "--method", "nope"])
    assert result.exit_code == 2
    result = _invoke(["train", "--in", str(data), "--out", str(tmp_path / "y"),
                      "--hidden", "8,oops"])
    assert result.exit_code == 2
    assert "comma-separated" in result.output
    result = _invoke(["train", "--in", str(tmp_path / "missing"), "--out", str(tmp_path / "z")])
    assert result.exit_code == 2


def test_eval_reconstruction_report(workspace, tmp_path):
    _, data, run = workspace
    out = tmp_path / "recon.json"
    result = _invoke(["eval", "reconstruction", "--run", str(run),
                      "--data", str(data), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "average reconstruction MAP:" in result.output
    report = json.loads(out.read_text())
    assert report["schema_version"] == 2
    assert report["method"] == "dyngem"
    assert len(report["per_step"]) == 3
    for entry in report["per_step"]:
        assert 0.0 <= entry["map"] <= 1.0
    assert 0.0 <= report["aggregate"]["average_map"] <= 1.0


def test_eval_linkpred_report(workspace, tmp_path):
    _, data, _ = workspace
    out = tmp_path / "lp.json"
    result = _invoke(
        ["eval", "linkpred", "--data", str(data), "--out", str(out),
         "--method", "gf", "--gf-iters", "5", "--d", "4", "--seed", "1",
         "--hide-fraction", "0.2", "--hide-seed", "3"]
    )
    assert result.exit_code == 0, result.output
    assert "link-prediction MAP:" in result.output
    report = json.loads(out.read_text())
    assert report["method"] == "gf"
    (entry,) = report["per_step"]
    assert entry["hidden_edges"] >= 1
    assert 0.0 <= entry["map"] <= 1.0
    assert report["aggregate"]["hide_fraction"] == 0.2
    assert report["aggregate"]["hide_seed"] == 3


def test_eval_stability_report(workspace, tmp_path):
    _, data, run = workspace
    out = tmp_path / "stab.json"
    result = _invoke(["eval", "stability", "--run", str(run),
                      "--data", str(data), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "stability constant K_S:" in result.output
    report = json.loads(out.read_text())
    assert [e["step"] for e in report["per_step"]] == [1, 2]
    for entry in report["per_step"]:
        if entry["defined"]:
            assert entry["s_rel"] >= 0.0
    ks = report["aggregate"]["k_s"]
    assert ks is None or ks >= 0.0


def test_eval_stability_reports_an_undefined_constant(tmp_path):
    data, run, out = tmp_path / "data", tmp_path / "run", tmp_path / "stab.json"
    _generate(data, ["--steps", "2"])
    trained = _invoke(["train", "--in", str(data), "--out", str(run), "--method", "gf", *FAST_TRAIN])
    assert trained.exit_code == 0, trained.output
    result = _invoke(["eval", "stability", "--run", str(run), "--data", str(data), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "stability constant K_S: undefined" in result.output
    assert json.loads(out.read_text())["aggregate"] == {
        "defined_transitions": 1, "k_s": None, "reason": "fewer than two defined relative stabilities"}


def test_eval_anomaly_report(workspace, tmp_path):
    _, data, run = workspace
    out = tmp_path / "anom.json"
    result = _invoke(["eval", "anomaly", "--run", str(run), "--data", str(data),
                      "--out", str(out)])
    assert result.exit_code == 0, result.output
    report = json.loads(out.read_text())
    assert report["aggregate"]["rule"] == "std"
    assert report["aggregate"]["factor"] == 2.0
    assert isinstance(report["aggregate"]["flagged_steps"], list)
    assert [e["step"] for e in report["per_step"]] == [1, 2]
    # an absolute threshold of zero flags every positive delta
    out2 = tmp_path / "anom0.json"
    result = _invoke(["eval", "anomaly", "--run", str(run), "--data", str(data),
                      "--out", str(out2), "--rule", "absolute", "--threshold", "0"])
    assert result.exit_code == 0
    report2 = json.loads(out2.read_text())
    assert report2["aggregate"]["flagged_steps"] == [1, 2]


@pytest.mark.parametrize("kind", ["reconstruction", "stability", "anomaly"])
def test_eval_rejects_data_with_another_number_of_steps(workspace, tmp_path, kind, monkeypatch):
    # the snapshot files are counted before any of them is parsed
    _, data, run = workspace
    short, out = tmp_path / "short", tmp_path / "report.json"
    shutil.copytree(data, short)
    (short / graph.SNAPSHOT_FMT.format(2)).unlink()

    def refuse(path):
        raise AssertionError(f"eval {kind} parsed {path}")

    monkeypatch.setattr(graph, "load_snapshot", refuse)
    result = _invoke(["eval", kind, "--run", str(run), "--data", str(short), "--out", str(out)])
    assert result.exit_code == 2
    assert "run and data directories disagree on the number of steps" in result.output
    assert not out.exists()


def test_eval_anomaly_parses_no_snapshot(workspace, tmp_path, monkeypatch):
    # the deltas come from the run's embeddings; the data directory only
    # has to hold as many snapshot files as the run has steps
    _, data, run = workspace

    def refuse(path):
        raise AssertionError(f"eval anomaly parsed {path}")

    monkeypatch.setattr(graph, "load_snapshot", refuse)
    out = tmp_path / "anom.json"
    result = _invoke(["eval", "anomaly", "--run", str(run), "--data", str(data), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert [e["step"] for e in json.loads(out.read_text())["per_step"]] == [1, 2]


def test_an_aligned_run_stores_no_model_and_reads_as_an_older_one_did(workspace, tmp_path):
    _, data, _ = workspace
    aligned, retrained, older = tmp_path / "aligned", tmp_path / "retrained", tmp_path / "older"
    for run, method in ((aligned, "sdne_align"), (retrained, "sdne_retrain")):
        result = _invoke(["train", "--in", str(data), "--out", str(run), "--method", method, *FAST_TRAIN])
        assert result.exit_code == 0, result.output
    assert not list(aligned.glob("checkpoint_*"))
    manifest = json.loads((aligned / "manifest.json").read_text())
    assert [e["checkpoint"] for e in manifest["per_step"]] == [None, None, None]
    # Older versions stored each aligned step's unrotated model, which is the
    # sdne_retrain step it was rotated from.  Eval ignores those checkpoints.
    shutil.copytree(aligned, older)
    for t, entry in enumerate(manifest["per_step"]):
        entry["checkpoint"] = cli.CKPT_FMT.format(t)
        shutil.copy(retrained / entry["checkpoint"], older / entry["checkpoint"])
    (older / "manifest.json").write_text(json.dumps(manifest))
    reports = []
    for run in (aligned, older):
        out = tmp_path / f"{run.name}.json"
        result = _invoke(["eval", "reconstruction", "--run", str(run), "--data", str(data), "--out", str(out)])
        assert result.exit_code == 0, result.output
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    # linkpred scores the aligned step by inner products, as older versions did
    out = tmp_path / "lp.json"
    result = _invoke(["eval", "linkpred", "--data", str(data), "--out", str(out), "--method", "sdne_align",
                      "--hide-fraction", "0.2", "--hide-seed", "3", *FAST_TRAIN])
    assert result.exit_code == 0, result.output
    series = graph.load_series(data)
    train_last, hidden = graph.hide_edges(series[2], 0.2, 3)
    hyper = model.Hyperparameters(d=4, epochs_first=2, epochs_warm=1, batch_size=64, base_lr=1e-5, seed=5)
    config = engine.RunConfig(hyper=hyper, method="sdne_align", hidden_sizes=(8, 4), gf_iters=5)
    step = engine.run_method(graph.DynamicGraph([series[0], series[1], train_last]), config)[2]
    assert step.checkpoint is None
    expected = metrics.eval_link_prediction(step.embedding @ step.embedding.T, train_last, hidden)
    assert json.loads(out.read_text())["per_step"][0]["map"] == expected


def _assert_every_reader_rejects(run, data, tmp_path, words):
    """``eval reconstruction``, ``stability``, ``anomaly`` and ``export`` each
    exit 2 on ``run``, naming its manifest and ``words``, and write nothing."""
    out = tmp_path / "out"
    commands = [["eval", kind, "--data", str(data), "--out", str(out / f"{kind}.json")]
                for kind in ("reconstruction", "stability", "anomaly")]
    for command in [*commands, ["export", "--out", str(out / "export")]]:
        result = _invoke([*command, "--run", str(run)])
        assert result.exit_code == 2, result.output
        assert str(run / "manifest.json") in result.output
        assert words in result.output
    assert not out.exists()


@pytest.mark.parametrize("method", ["dyngem", "sdne_retrain"])
def test_eval_and_export_reject_a_decoded_run_with_a_step_without_a_checkpoint(workspace, tmp_path, method):
    _, data, run = workspace
    broken = tmp_path / "broken"
    shutil.copytree(run, broken)
    manifest = json.loads((broken / "manifest.json").read_text())
    manifest["method"] = manifest["config"]["method"] = method
    manifest["per_step"][1]["checkpoint"] = None
    (broken / "manifest.json").write_text(json.dumps(manifest))
    _assert_every_reader_rejects(broken, data, tmp_path, "checkpoint")


def test_eval_and_export_reject_a_run_without_steps(workspace, tmp_path):
    _, data, run = workspace
    empty = tmp_path / "empty"
    empty.mkdir()
    manifest = json.loads((run / "manifest.json").read_text())
    (empty / "manifest.json").write_text(json.dumps(dict(manifest, per_step=[], node_counts=[])))
    _assert_every_reader_rejects(empty, data, tmp_path, "per_step")


def test_eval_speedup_echo_and_report(tmp_path):
    result = _invoke(["eval", "speedup", "--ns", "50", "--ni", "10", "--T", "10"])
    assert result.exit_code == 0
    assert "expected speedup: 3.571" in result.output
    out = tmp_path / "speedup.json"
    result = _invoke(["eval", "speedup", "--ns", "50", "--ni", "10", "--T", "10",
                      "--out", str(out)])
    report = json.loads(out.read_text())
    assert report["aggregate"]["expected_speedup"] == pytest.approx(25 / 7)
    result = _invoke(["eval", "speedup", "--ns", "0", "--ni", "10", "--T", "10"])
    assert result.exit_code == 2


def test_export_long_format(workspace, tmp_path):
    _, _, run = workspace
    out = tmp_path / "export"
    result = _invoke(["export", "--run", str(run), "--out", str(out)])
    assert result.exit_code == 0, result.output
    emb = (out / "embeddings.csv").read_text().splitlines()
    assert emb[0] == "t,node,y1,y2,y3,y4"
    assert len(emb) == 1 + 3 * 30
    assert emb[1].startswith("0,0,")
    deltas = (out / "deltas.csv").read_text().splitlines()
    assert deltas[0] == "step,delta"
    assert len(deltas) == 3  # header plus two transitions
    assert deltas[1].startswith("1,")


def test_export_with_external_ids(workspace, tmp_path):
    _, _, run = workspace
    ids = tmp_path / "ids.csv"
    ids.write_text("external,internal\n" + "\n".join(f"host{i:02d},{i}" for i in range(30)) + "\n")
    out = tmp_path / "export_ids"
    result = _invoke(["export", "--run", str(run), "--out", str(out), "--ids", str(ids)])
    assert result.exit_code == 0, result.output
    emb = (out / "embeddings.csv").read_text().splitlines()
    assert emb[0] == "t,node,external_id,y1,y2,y3,y4"
    assert emb[1].startswith("0,0,host00,")


def test_export_ids_header_may_follow_comments(workspace, tmp_path):
    _, _, run = workspace
    ids = tmp_path / "ids.csv"
    ids.write_text("# ids\nexternal,internal\nalice,0\nbob,1\n")
    out = tmp_path / "export_ids"
    result = _invoke(["export", "--run", str(run), "--out", str(out), "--ids", str(ids)])
    assert result.exit_code == 0, result.output
    emb = (out / "embeddings.csv").read_text().splitlines()
    assert emb[1].startswith("0,0,alice,") and emb[2].startswith("0,1,bob,")
    # only the first line that holds data may be a header
    ids.write_text("# ids\nexternal,internal\nalice,0\nbob,one\n")
    result = _invoke(["export", "--run", str(run), "--out", str(out), "--ids", str(ids)])
    assert result.exit_code == 2
    assert "ids.csv:4: internal index 'one' is not an integer" in result.output


def test_eval_reconstruction_of_a_decoded_step_holds_one_score_matrix():
    # the decoder's directed scores are ranked as they are: each pair's mean
    # score is formed inside the ranking, so no second n x n matrix is made
    n = 1100
    assert n > 2 * model.STACK_ROWS  # three decode blocks
    rng = np.random.default_rng(0)
    params = model.build_autoencoder(n, (64,), 16, seed=0)
    pairs = rng.integers(0, n, (4 * n, 2))
    snap = graph.GraphSnapshot(n, {(min(i, j), max(i, j)): 1.0 for i, j in pairs if i != j})
    embedding = rng.standard_normal((n, 16))
    tracemalloc.start()
    try:
        metrics.eval_reconstruction(cli._step_scores(embedding, params), snap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.8 * n * n * 8


def test_eval_rejects_empty_or_corrupt_run(tmp_path, workspace):
    _, data, run = workspace
    empty = tmp_path / "empty"
    empty.mkdir()
    result = _invoke(["eval", "reconstruction", "--run", str(empty),
                      "--data", str(data), "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2
    assert "manifest.json" in result.output
    corrupt = tmp_path / "corrupt"
    corrupt.mkdir()
    (corrupt / "manifest.json").write_text("{not json")
    result = _invoke(["eval", "anomaly", "--run", str(corrupt),
                      "--data", str(data), "--out", str(tmp_path / "a.json")])
    assert result.exit_code == 2
    # a run whose checkpoint is in the old text format
    old = tmp_path / "old"
    shutil.copytree(run, old)
    (old / "checkpoint_0001.npz").write_text("dyngem-checkpoint v1\n", encoding="utf-8")
    result = _invoke(["eval", "reconstruction", "--run", str(old),
                      "--data", str(data), "--out", str(tmp_path / "o.json")])
    assert result.exit_code == 2
    assert "re-run train" in result.output


def test_eval_and_export_reject_a_directory_that_is_not_a_train_run(workspace, tmp_path):
    _, data, _ = workspace
    commands = [
        ["eval", "reconstruction", "--data", str(data), "--out", str(tmp_path / "r.json")],
        ["eval", "stability", "--data", str(data), "--out", str(tmp_path / "s.json")],
        ["eval", "anomaly", "--data", str(data), "--out", str(tmp_path / "a.json")],
        ["export", "--out", str(tmp_path / "export")],
    ]
    for command in commands:
        result = _invoke([*command, "--run", str(data)])
        assert result.exit_code == 2, result.output
        assert str(data / "manifest.json") in result.output
        assert "not the manifest of a train run" in result.output
    assert not list(tmp_path.iterdir())


def test_eval_rejects_a_train_manifest_without_a_per_step_list(workspace, tmp_path):
    _, data, _ = workspace
    for name, manifest in (("missing", {"command": "train"}),
                           ("not_a_list", {"command": "train", "per_step": {"embedding": "e.csv"}})):
        run = tmp_path / name
        run.mkdir()
        (run / "manifest.json").write_text(json.dumps(manifest))
        result = _invoke(["eval", "reconstruction", "--run", str(run),
                          "--data", str(data), "--out", str(tmp_path / "r.json")])
        assert result.exit_code == 2, result.output
        assert str(run / "manifest.json") in result.output
        assert "per_step" in result.output
    assert not (tmp_path / "r.json").exists()


def test_eval_rejects_a_train_step_without_an_embedding(workspace, tmp_path):
    _, data, run = workspace
    broken = tmp_path / "broken"
    shutil.copytree(run, broken)
    manifest = json.loads((broken / "manifest.json").read_text())
    del manifest["per_step"][1]["embedding"]
    (broken / "manifest.json").write_text(json.dumps(manifest))
    result = _invoke(["eval", "reconstruction", "--run", str(broken),
                      "--data", str(data), "--out", str(tmp_path / "r.json")])
    assert result.exit_code == 2, result.output
    assert str(broken / "manifest.json") in result.output
    assert "embedding" in result.output
    assert not (tmp_path / "r.json").exists()


# Each edit of an emb_<t>.csv's lines (header first) that eval and export must reject.
BROKEN_EMBEDDINGS = {
    "truncated": lambda lines: lines[:11],  # 10 of 30 rows kept
    "out_of_order": lambda lines: [lines[0], lines[2], lines[1], *lines[3:]],
    "extra_field": lambda lines: [*lines[:4], lines[4] + ",0.5", *lines[5:]],
    "comment": lambda lines: [*lines[:5], "# a comment", *lines[5:]],
    "non_numeric": lambda lines: [*lines[:6], lines[6].rsplit(",", 1)[0] + ",oops", *lines[7:]],
}


@pytest.mark.parametrize("edit", BROKEN_EMBEDDINGS.values(), ids=list(BROKEN_EMBEDDINGS))
def test_eval_and_export_reject_an_embedding_that_disagrees_with_the_manifest(workspace, tmp_path, edit):
    _, data, run = workspace
    broken = tmp_path / "broken"
    shutil.copytree(run, broken)
    emb = broken / "emb_0000.csv"
    emb.write_text("\n".join(edit(emb.read_text().splitlines())) + "\n")
    report, export = tmp_path / "anomaly.json", tmp_path / "export"
    for command in (["eval", "anomaly", "--data", str(data), "--out", str(report)],
                    ["export", "--out", str(export)]):
        result = _invoke([*command, "--run", str(broken)])
        assert result.exit_code == 2, result.output
        assert str(broken / "emb_0000.csv") in result.output
    assert not report.exists() and not export.exists()


def test_eval_and_export_reject_a_manifest_without_the_fields_they_read(workspace, tmp_path):
    _, data, run = workspace
    good = json.loads((run / "manifest.json").read_text())
    broken = [
        {k: v for k, v in good.items() if k != "method"},
        dict(good, method="sdne_plus"),
        dict(good, config=None),
        {k: v for k, v in good.items() if k != "node_counts"},
        dict(good, node_counts=[30, 30]),
        dict(good, node_counts=[30, -1, 30]),
    ]
    for k, manifest in enumerate(broken):
        bad = tmp_path / f"run{k}"
        shutil.copytree(run, bad)
        (bad / "manifest.json").write_text(json.dumps(manifest))
        for command in (["eval", "stability", "--data", str(data), "--out", str(tmp_path / "s.json")],
                        ["export", "--out", str(tmp_path / "export")]):
            result = _invoke([*command, "--run", str(bad)])
            assert result.exit_code == 2, result.output
            assert str(bad / "manifest.json") in result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"run{k}" for k in range(len(broken))]


def test_csv_values_round_trip_and_export_layouts(workspace, tmp_path):
    values = [-0.0, 5e-324, 1e-05, 0.1, 1 / 3, 1e16]
    emb = np.array([values, values[::-1]])
    path = tmp_path / "emb.csv"
    cli._write_csv(path, "node,y1,y2,y3,y4,y5,y6", [np.arange(2)], emb)
    assert path.read_text().splitlines() == [
        "node,y1,y2,y3,y4,y5,y6",
        "0," + ",".join(f"{v:.17g}" for v in values),
        "1," + ",".join(f"{v:.17g}" for v in values[::-1]),
    ]
    back = cli._read_embedding_csv(path, 2)
    assert back.flags.c_contiguous and back.tobytes() == emb.tobytes()
    # a one-step run has no transitions, so deltas.csv is its header alone
    _, _, run = workspace
    one = tmp_path / "one"
    shutil.copytree(run, one)
    manifest = json.loads((one / "manifest.json").read_text())
    manifest.update(per_step=manifest["per_step"][:1], node_counts=manifest["node_counts"][:1])
    (one / "manifest.json").write_text(json.dumps(manifest))
    result = _invoke(["export", "--run", str(one), "--out", str(tmp_path / "one_export")])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "one_export" / "deltas.csv").read_text() == "step,delta\n"
    # nodes missing from the ids file keep their internal index
    ids = tmp_path / "ids.csv"
    ids.write_text("external,internal\n" + "".join(f"host{i:02d},{i}\n" for i in range(20)))
    result = _invoke(["export", "--run", str(run), "--out", str(tmp_path / "ids_export"), "--ids", str(ids)])
    assert result.exit_code == 0, result.output
    rows = (tmp_path / "ids_export" / "embeddings.csv").read_text().splitlines()
    assert rows[0] == "t,node,external_id,y1,y2,y3,y4"
    stored = [cli._read_embedding_csv(run / f"emb_{t:04d}.csv", 30) for t in range(3)]
    assert rows[1:] == [
        f"{t},{node},{f'host{node:02d}' if node < 20 else node}," + ",".join(f"{v:.17g}" for v in row)
        for t, emb_t in enumerate(stored) for node, row in enumerate(emb_t)
    ]


def test_eval_non_finite_embeddings_exit_three(workspace, tmp_path):
    _, data, _ = workspace
    run = tmp_path / "gf"
    result = _invoke(["train", "--in", str(data), "--out", str(run), *FAST_TRAIN, "--method", "gf"])
    assert result.exit_code == 0, result.output
    emb = run / "emb_0001.csv"
    lines = emb.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",nan"
    emb.write_text("\n".join(lines) + "\n")
    out = tmp_path / "recon.json"
    result = _invoke(["eval", "reconstruction", "--run", str(run), "--data", str(data), "--out", str(out)])
    assert result.exit_code == 3
    assert "non-finite" in result.output
    assert not out.exists()


def test_usage_errors_exit_two():
    result = _invoke(["train"])  # missing required --in/--out
    assert result.exit_code == 2
    result = _invoke(["frobnicate"])
    assert result.exit_code == 2


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's")
def test_freed_memory_is_reused_without_page_faults():
    assert retain_freed_memory()

    def batch():
        # Four 16 MB temporaries alive at once, like one training batch's.
        return sum(float(a[0]) for a in [np.ones(2 << 20) for _ in range(4)])

    batch()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        batch()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # Memory handed back to the kernel would fault about 16,000 pages a batch.
    assert faults < 1000
