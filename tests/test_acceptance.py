"""End-to-end acceptance checks.

Each test records one PASS/FAIL line (echoed in the terminal summary) with
its measured values so a run of this file doubles as the release report.
The desk-scale fixture trains real 300-node series, so this module is the
slow part of the suite; everything else stays small.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import record_acceptance
from dyngem.cli import main as cli_main
from dyngem.engine import RunConfig, align_series, procrustes_align, run_method
from dyngem.graph import DynamicGraph, SbmConfig, generate_sbm_series, hide_edges
from dyngem.growth import apply_plan, net2deeper, net2wider, propsize_plan
from dyngem.metrics import (
    anomaly_series,
    eval_link_prediction,
    eval_reconstruction,
    expected_speedup,
    flag_anomalies,
    stability,
)
from dyngem.model import Hyperparameters, build_autoencoder, reconstruct_scores, symmetrize_scores
from dyngem import nn
from helpers import (
    exhaustive_ap,
    finite_difference_max_rel_error,
    growing_series,
    jittered_model_and_batch,
    merge_series,
    neighbors,
    random_snapshot,
    random_symmetric_scores,
    toy_hyper,
)

SEEDS = (0, 1, 2)

DESK_SBM = dict(node_count=300, p_in=0.2, p_out=0.01, steps=10, communities=3, migrate_per_step=2)


def _desk_hyper(seed):
    return Hyperparameters(d=32, epochs_first=50, epochs_warm=10, seed=seed)


def _outputs(params, x):
    return nn.forward(params.decoder, nn.forward(params.encoder, x)[-1])[-1]


def _pdist(m):
    diff = m[:, None, :] - m[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


@pytest.fixture(scope="module")
def desk_runs():
    """Warm-started and retrained runs over the same three seeded series.
    The two runs of a seed are timed back to back, and the one that runs
    first alternates by seed, so each pair sees one host state."""
    runs = {}
    for seed in SEEDS:
        graphs, _ = generate_sbm_series(SbmConfig(**DESK_SBM), seed)
        hyper = _desk_hyper(seed)
        results, seconds = {}, {}
        for method in ("dyngem", "sdne_retrain")[:: 1 if seed % 2 == 0 else -1]:
            start = time.perf_counter()
            results[method] = run_method(graphs, RunConfig(hyper=hyper, method=method))
            seconds[method] = time.perf_counter() - start
        dyn, ret = results["dyngem"], results["sdne_retrain"]
        aligned, _ = align_series([s.embedding for s in ret])
        runs[seed] = SimpleNamespace(
            graphs=graphs, dyn=dyn, ret=ret, aligned=aligned,
            t_dyn=seconds["dyngem"], t_ret=seconds["sdne_retrain"],
        )
    return runs


def test_01_analytic_gradients_match_finite_differences():
    start = time.perf_counter()
    hyper = toy_hyper()
    worst = 0.0
    for seed in range(20):
        params, batch = jittered_model_and_batch(seed)
        worst = max(worst, finite_difference_max_rel_error(params, batch, hyper))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 60.0
    record_acceptance(
        1, ok, f"20 models, max norm-relative gradient error {worst:.2e} (tol 1e-4) in {elapsed:.1f}s"
    )
    assert ok


def test_02_growth_transforms_preserve_outputs():
    rng = np.random.default_rng(2)
    params = build_autoencoder(100, (60,), 5, seed=3)
    x = rng.uniform(0.0, 1.0, (100, 100))
    base = _outputs(params, x)
    wider, deeper = params.copy(), params.copy()
    net2wider(wider, "enc", 1, 80)
    net2deeper(deeper, "enc", 1)
    err_wide = float(np.max(np.abs(_outputs(wider, x) - base)))
    err_deep = float(np.max(np.abs(_outputs(deeper, x) - base)))
    # the grown net sees the old inputs zero-extended to the new node count
    plan = propsize_plan((100, 60), 140, 0.3, 5)
    assert plan.deepen_ops, "the plan must exercise layer insertion"
    grown, _ = apply_plan(params, plan, noise_scale=0.0, seed=11)
    x_ext = np.hstack([x, np.zeros((100, 40))])
    err_plan = float(np.max(np.abs(_outputs(grown, x_ext)[:, :100] - base)))
    worst = max(err_wide, err_deep, err_plan)
    ok = worst <= 1e-9
    record_acceptance(
        2,
        ok,
        "100 random inputs: wider "
        f"{err_wide:.1e}, deeper {err_deep:.1e}, full plan {err_plan:.1e} (tol 1e-9)",
    )
    assert ok


def test_03_growth_keeps_layer_ratio_floor():
    graphs = growing_series(n_start=100, n_end=200, steps=10, seed=0)
    hyper = Hyperparameters(d=4, epochs_first=5, epochs_warm=3, seed=0)
    steps = run_method(graphs, RunConfig(hyper=hyper, method="dyngem", hidden_sizes=(40, 12)))
    events = [s.growth for s in steps if s.growth is not None]
    pairs = 0
    ok = len(events) == 9  # every step after the first adds nodes
    for ckpt in (s.checkpoint for s in steps):
        for chain in (ckpt.encoder_sizes, tuple(reversed(ckpt.decoder_sizes))):
            for a, b in zip(chain, chain[1:]):
                pairs += 1
                if b < hyper.rho * a - 1e-9:
                    ok = False
    record_acceptance(
        3, ok, f"nodes 100->200: {len(events)} growth events, {pairs} layer pairs hold >= 0.3x"
    )
    assert ok


def test_04_map_matches_exhaustive_enumeration():
    rng = np.random.default_rng(44)
    instances = 0
    worst = 0.0
    while instances < 1000:
        n = int(rng.integers(2, 7))
        snap = random_snapshot(rng, n, p=0.5)
        scores = random_symmetric_scores(rng, n)
        expected = []
        for i in range(n):
            truth, _ = neighbors(snap, i)
            if truth.size == 0:
                continue
            candidates = [c for c in range(n) if c != i]
            expected.append(exhaustive_ap(scores[i], candidates, set(truth.tolist())))
        got = eval_reconstruction(scores, snap)
        worst = max(worst, abs(got - float(np.mean(expected))))
        instances += 1
    ok = worst == 0.0
    record_acceptance(4, ok, f"{instances} graphs of <=6 nodes, max |MAP - enumeration| = {worst:.1e}")
    assert ok


def test_05_reconstruction_map_beats_null(desk_runs):
    run = desk_runs[0]
    rng = np.random.default_rng(99)
    values, nulls = [], []
    for t, snap in enumerate(run.graphs):
        scores = symmetrize_scores(reconstruct_scores(run.dyn[t].checkpoint, run.dyn[t].embedding))
        values.append(eval_reconstruction(scores, snap))
        null = rng.standard_normal((snap.node_count, snap.node_count))
        nulls.append(eval_reconstruction((null + null.T) / 2, snap))
    avg, null_avg = float(np.mean(values)), float(np.mean(nulls))
    ok = avg >= 0.5 and avg >= 5.0 * null_avg
    record_acceptance(
        5, ok, f"average reconstruction MAP {avg:.3f} (need >=0.5), random null {null_avg:.3f} (need >=5x)"
    )
    assert ok


def test_06_warm_start_is_most_stable(desk_runs):
    beats_retrain = beats_aligned = 0
    triples = []
    for seed in SEEDS:
        run = desk_runs[seed]
        k_dyn = stability([s.embedding for s in run.dyn], run.graphs).k_s
        k_ret = stability([s.embedding for s in run.ret], run.graphs).k_s
        k_ali = stability(run.aligned, run.graphs).k_s
        beats_retrain += k_dyn < k_ret
        beats_aligned += k_dyn < k_ali
        triples.append(f"seed {seed}: {k_dyn:.2f}|{k_ret:.2f}|{k_ali:.2f}")
    ok = beats_retrain >= 2 and beats_aligned >= 2
    record_acceptance(
        6,
        ok,
        f"K_S warm|retrain|aligned {'; '.join(triples)} "
        f"(warm lowest in {beats_retrain}/3 and {beats_aligned}/3)",
    )
    assert ok


def test_07_link_prediction_beats_null():
    maps, nulls = [], []
    for seed in SEEDS:
        graphs, _ = generate_sbm_series(SbmConfig(**DESK_SBM), seed)
        last = len(graphs) - 1
        train_last, hidden = hide_edges(graphs[last], 0.15, seed + 50)
        modified = DynamicGraph([graphs[t] for t in range(last)] + [train_last])
        step = run_method(modified, RunConfig(hyper=_desk_hyper(seed), method="dyngem"))[last]
        scores = symmetrize_scores(reconstruct_scores(step.checkpoint, step.embedding))
        maps.append(eval_link_prediction(scores, train_last, hidden))
        rng = np.random.default_rng(seed + 1000)
        null = rng.standard_normal(scores.shape)
        nulls.append(eval_link_prediction((null + null.T) / 2, train_last, hidden))
    mean_map, mean_null = float(np.mean(maps)), float(np.mean(nulls))
    ok = mean_map >= 3.0 * mean_null
    record_acceptance(
        7,
        ok,
        f"15% hidden edges, 3 seeds: mean MAP {mean_map:.3f} vs null {mean_null:.3f} "
        f"({mean_map / mean_null:.1f}x, need >=3x)",
    )
    assert ok


def test_08_warm_start_wall_clock_speedup(desk_runs):
    # the median over the interleaved pairs, so a host that slows down
    # between two runs moves one pair, not the verdict
    pairs = [desk_runs[seed] for seed in SEEDS]
    t_dyn = float(np.median([run.t_dyn for run in pairs]))
    t_ret = float(np.median([run.t_ret for run in pairs]))
    ratio = float(np.median([run.t_dyn / run.t_ret for run in pairs]))
    measured = 1.0 / ratio
    expected = expected_speedup(50, 10, 10)
    ok = ratio <= 0.6 and abs(measured - expected) <= 0.25 * expected
    record_acceptance(
        8,
        ok,
        f"median of {len(pairs)} interleaved pairs: wall {t_dyn:.1f}s vs {t_ret:.1f}s "
        f"(ratio {ratio:.3f}, need <=0.6); speedup {measured:.2f} vs model {expected:.2f} (within 25%)",
    )
    assert ok


def test_09_community_merge_is_flagged():
    ok = True
    peaks = []
    for seed in SEEDS:
        series = merge_series(seed=seed)
        steps = run_method(series, RunConfig(hyper=_desk_hyper(seed), method="dyngem"))
        deltas = anomaly_series([s.embedding for s in steps])
        rep = flag_anomalies(deltas, rule="std", factor=2.0)
        flagged_steps = [t + 1 for t in rep.flagged]
        peak = int(np.argmax(deltas)) + 1
        peaks.append(f"seed {seed}: peak step {peak}, flagged {flagged_steps}")
        if flagged_steps != [8] or peak != 8:
            ok = False
    record_acceptance(9, ok, f"merge at step 8 over 12 steps: {'; '.join(peaks)}")
    assert ok


def test_10_rotation_alignment_recovers_and_preserves_geometry():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((80, 16))
    q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
    _, rotated = procrustes_align(x, x @ q)
    recovery = float(np.linalg.norm(rotated - x))
    series = [x]
    for _ in range(4):
        step, _ = np.linalg.qr(rng.standard_normal((16, 16)))
        series.append(series[-1] @ step + rng.normal(0, 0.01, x.shape))
    aligned, _ = align_series(series)
    isometry = max(
        float(np.max(np.abs(_pdist(al) - _pdist(raw)))) for raw, al in zip(series, aligned)
    )
    ok = recovery <= 1e-6 and isometry <= 1e-9
    record_acceptance(
        10, ok, f"rotation recovery {recovery:.1e} (tol 1e-6), distance drift {isometry:.1e} (tol 1e-9)"
    )
    assert ok


def test_11_identical_manifests_reproduce_byte_identical_embeddings(tmp_path):
    runner = CliRunner()
    data = tmp_path / "data"
    result = runner.invoke(
        cli_main,
        ["generate", "--nodes", "40", "--p-in", "0.25", "--p-out", "0.03",
         "--steps", "3", "--migrate", "1", "--seed", "2", "--out", str(data)],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    first, second = tmp_path / "first", tmp_path / "second"
    flags = ["--d", "4", "--hidden", "12,6", "--epochs-first", "3", "--epochs-warm", "2",
             "--base-lr", "1e-5", "--seed", "9"]
    result = runner.invoke(
        cli_main, ["train", "--in", str(data), "--out", str(first), *flags], catch_exceptions=False
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(
        cli_main,
        ["train", "--in", str(data), "--out", str(second),
         "--from-manifest", str(first / "manifest.json")],
        catch_exceptions=False,
    )
    assert result.exit_code == 0, result.output
    names = [f"emb_{t:04d}.csv" for t in range(3)]
    ok = all((first / n).read_bytes() == (second / n).read_bytes() for n in names)
    record_acceptance(11, ok, f"two runs from one manifest: {len(names)} embedding files byte-identical")
    assert ok
