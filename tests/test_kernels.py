import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dyngem import _kernels_py, kernels, nn
from dyngem.errors import ConvergenceError
from dyngem.graph import GraphSnapshot, hide_edges
from dyngem.kernels import BACKEND, _complete_basis, gf_epoch, jacobi_svd
from dyngem.metrics import eval_link_prediction, eval_reconstruction
from helpers import random_snapshot, random_symmetric_scores, sparse_rows

try:
    from dyngem import _kernels as _compiled
except ImportError:
    _compiled = None

needs_compiled = pytest.mark.skipif(_compiled is None, reason="compiled extension unavailable")
RANKERS = [pytest.param(_kernels_py.truth_ranks, id="python"),
           pytest.param(getattr(_compiled, "truth_ranks", None), id="compiled", marks=needs_compiled)]
PRODUCTS = [pytest.param(_kernels_py, id="python"),
            pytest.param(_compiled, id="compiled", marks=needs_compiled)]


def _svd_checks(m, u, s, vt, atol=1e-9):
    d = m.shape[0]
    np.testing.assert_allclose(u @ np.diag(s) @ vt, m, atol=atol)
    np.testing.assert_allclose(u.T @ u, np.eye(d), atol=atol)
    np.testing.assert_allclose(vt @ vt.T, np.eye(d), atol=atol)
    assert (np.diff(s) <= 1e-12).all()
    assert (s >= 0).all()


def test_gf_epoch_hand_case():
    y = np.array([[1.0, 0.0], [0.5, 0.0]])
    heads = np.array([0], dtype=np.intp)
    tails = np.array([1], dtype=np.intp)
    weights = np.array([2.0])
    order = np.array([0], dtype=np.intp)
    gf_epoch(y, heads, tails, weights, order, 0.1, 0.05)
    # r = 2 - 0.5; y0 += 0.2*(1.5*[0.5,0] - 0.05*[1,0]); y1 from the old y0
    np.testing.assert_allclose(y, [[1.14, 0.0], [0.795, 0.0]], atol=1e-12)


def test_gf_epoch_uses_pre_update_rows_per_edge():
    # two edges sharing node 0: the second update must see node 0 as already
    # moved by the first, but within one edge both rows read the old values
    y = np.array([[1.0], [1.0], [1.0]])
    heads = np.array([0, 0], dtype=np.intp)
    tails = np.array([1, 2], dtype=np.intp)
    weights = np.array([3.0, 3.0])
    order = np.array([0, 1], dtype=np.intp)
    gf_epoch(y, heads, tails, weights, order, 0.1, 0.0)
    y0 = 1.0 + 0.2 * (2.0 * 1.0)  # 1.4
    y1 = 1.0 + 0.2 * (2.0 * 1.0)
    r2 = 3.0 - y0 * 1.0
    np.testing.assert_allclose(y[:, 0], [y0 + 0.2 * r2 * 1.0, y1, 1.0 + 0.2 * r2 * y0])


def test_gf_epoch_respects_order():
    rng = np.random.default_rng(0)
    y1 = rng.uniform(-0.1, 0.1, (6, 3))
    y2 = y1.copy()
    heads = np.array([0, 2, 4], dtype=np.intp)
    tails = np.array([1, 3, 5], dtype=np.intp)
    weights = np.array([1.0, 2.0, 3.0])
    fwd = np.array([0, 1, 2], dtype=np.intp)
    rev = np.array([2, 1, 0], dtype=np.intp)
    gf_epoch(y1, heads, tails, weights, fwd, 0.05, 0.1)
    gf_epoch(y2, heads, tails, weights, rev, 0.05, 0.1)
    # disjoint edges: visiting order cannot matter
    np.testing.assert_allclose(y1, y2, atol=1e-15)


@needs_compiled
def test_backends_agree_on_gf_epoch():
    rng = np.random.default_rng(1)
    n, m = 30, 80
    heads = rng.integers(0, n, m).astype(np.intp)
    tails = ((heads + 1 + rng.integers(0, n - 1, m)) % n).astype(np.intp)
    weights = rng.uniform(0.5, 2.0, m)
    order = rng.permutation(m).astype(np.intp)
    y_c = np.ascontiguousarray(rng.uniform(-0.1, 0.1, (n, 4)))
    y_p = y_c.copy()
    _compiled.gf_epoch(y_c, heads, tails, weights, order, 0.01, 0.1)
    _kernels_py.gf_epoch(y_p, heads, tails, weights, order, 0.01, 0.1)
    assert np.array_equal(y_c, y_p)


@needs_compiled
def test_backends_agree_on_penalty_and_nesterov():
    # bit-equal gradients, parameters and velocities, down to the sign of a
    # zero, and exactly equal sums
    rng = np.random.default_rng(3)
    for n in (0, 1, 7, 300_001):
        w = rng.standard_normal(n)
        w[rng.random(n) < 0.1] = 0.0
        w[rng.random(n) < 0.1] = -0.0
        g, p, v = (rng.standard_normal(n) for _ in range(3))
        g[rng.random(n) < 0.1] = 0.0
        g[rng.random(n) < 0.1] = -0.0
        sides = []
        for impl in (_compiled, _kernels_py):
            mine = [a.copy() for a in (g, p, v)]
            sums = impl.penalty_pass(w, mine[0], 1e-3, 2e-3)
            impl.nesterov_update(mine[1], mine[0], mine[2], 0.05, 0.9)
            sides.append((sums, [a.view(np.int64) for a in mine]))
        (sums_c, arrays_c), (sums_p, arrays_p) = sides
        assert sums_c == sums_p, n
        assert all(np.array_equal(a, b) for a, b in zip(arrays_c, arrays_p)), n
        assert sums_c == pytest.approx((np.abs(w).sum(), (w * w).sum()), rel=1e-12), n


@needs_compiled
def test_backends_agree_on_jacobi():
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = rng.standard_normal((7, 7))
        g_c, v_c = np.ascontiguousarray(m.copy()), np.eye(7)
        g_p, v_p = m.copy(), np.eye(7)
        s_c = _compiled.jacobi_sweeps(g_c, v_c, 1e-12, 100)
        s_p = _kernels_py.jacobi_sweeps(g_p, v_p, 1e-12, 100)
        assert s_c >= 0 and s_p >= 0
        np.testing.assert_allclose(g_c, g_p, atol=1e-10)
        np.testing.assert_allclose(v_c, v_p, atol=1e-10)


def _pairs(*pairs):
    heads, tails = zip(*pairs)
    return np.array(heads, dtype=np.intp), np.array(tails, dtype=np.intp)


@pytest.mark.parametrize("truth_ranks", RANKERS)
def test_truth_ranks_hand_cases(truth_ranks):
    scores = np.array([
        [9.0, 5.0, 7.0, 5.0, 3.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [1.0, 1.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
    ])
    heads, tails = _pairs((0, 2), (0, 1), (0, 3), (0, 4), (3, 4), (3, 0), (3, 2))
    # node 0 ranks 2, 1, 3, 4 (its own top score does not count; 1 and 3 tie
    # and go by id); node 3 ranks 0, 1, 4, 2, its own tie ignored
    np.testing.assert_array_equal(truth_ranks(scores, heads, tails, None), [1, 2, 3, 4, 3, 1, 4])
    # excluded: 2 ranks ahead of the tails 1 and 3, 4 behind them; 2 and 4
    # are no candidates of node 0, so their pairs get rank 0
    excluded = GraphSnapshot(5, [(0, 2, 1.0), (0, 4, 1.0), (3, 1, 1.0)])
    np.testing.assert_array_equal(truth_ranks(scores, heads, tails, excluded), [0, 1, 2, 0, 2, 1, 3])
    one, empty = np.zeros(1, dtype=np.intp), np.zeros(0, dtype=np.intp)
    assert truth_ranks(np.zeros((1, 1)), empty, empty, None).size == 0
    np.testing.assert_array_equal(truth_ranks(np.zeros((1, 1)), one, one, None), [1])
    pair = _pairs((0, 1), (1, 0))
    np.testing.assert_array_equal(truth_ranks(np.eye(2), *pair, None), [1, 1])
    np.testing.assert_array_equal(truth_ranks(np.eye(2), *pair, GraphSnapshot(2, [(0, 1, 1.0)])), [0, 0])


@pytest.mark.parametrize("truth_ranks", RANKERS)
def test_truth_ranks_rejects_out_of_range_pairs(truth_ranks):
    scores = np.zeros((3, 3))
    for pair in ((3, 1), (1, 3)):
        with pytest.raises(IndexError):
            truth_ranks(scores, *_pairs(pair), None)
        with pytest.raises(IndexError):
            truth_ranks(scores, *_pairs(pair), GraphSnapshot(3, [(0, 1, 1.0)]))


@needs_compiled
def test_backends_agree_on_truth_ranks():
    rng = np.random.default_rng(8)
    for trial in range(40):
        n = int(rng.integers(2, 60))
        scores = rng.standard_normal((n, n))
        if trial % 2:  # ReLU-like: many exact zeros, and ties among the rest
            scores = np.maximum(np.round(scores, 1), 0.0)
        snap = random_snapshot(rng, n, p=0.2)
        heads = rng.integers(0, n, 3 * n).astype(np.intp)
        tails = rng.integers(0, n, 3 * n).astype(np.intp)
        for excluded in (None, snap):
            expected = _kernels_py.truth_ranks(scores, heads, tails, excluded)
            got = _compiled.truth_ranks(scores, heads, tails, excluded)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)


@needs_compiled
def test_backends_agree_on_map(monkeypatch):
    rng = np.random.default_rng(9)
    n = 200
    snap = random_snapshot(rng, n, p=0.1)
    train, hidden = hide_edges(snap, 0.2, seed=1)
    for scores in (random_symmetric_scores(rng, n),
                   np.maximum(np.round(random_symmetric_scores(rng, n), 1), 0.0)):
        values = []
        for impl in (_compiled, _kernels_py):
            monkeypatch.setattr(kernels, "truth_ranks", impl.truth_ranks)
            values.append((eval_reconstruction(scores, snap), eval_link_prediction(scores, train, hidden)))
        assert values[0] == values[1]


def _random_rows(rng, k, n):
    """A k x n matrix of about 20% non-zeros of weight 0.5 to 3, with one
    empty row."""
    x = rng.uniform(0.5, 3.0, (k, n)) * (rng.random((k, n)) < 0.2)
    x[k // 2] = 0.0
    return x


@pytest.mark.parametrize("impl", PRODUCTS)
def test_sparse_products_match_dense_products(impl):
    rng = np.random.default_rng(11)
    x = _random_rows(rng, 9, 13)
    w = np.asfortranarray(rng.standard_normal((5, 13)))
    g = rng.standard_normal((9, 5))
    np.testing.assert_allclose(impl.csr_matmul(sparse_rows(x), w.T), x @ w.T, rtol=1e-13, atol=1e-14)
    np.testing.assert_allclose(impl.csr_tmatmul(sparse_rows(x), g), x.T @ g, rtol=1e-13, atol=1e-14)
    empty = nn.SparseRows(np.zeros(3, dtype=np.intp), [], [], (2, 13))
    np.testing.assert_array_equal(impl.csr_matmul(empty, w.T), np.zeros((2, 5)))
    np.testing.assert_array_equal(impl.csr_tmatmul(empty, g[:2]), np.zeros((13, 5)))


@needs_compiled
def test_backends_agree_on_sparse_products():
    rng = np.random.default_rng(12)
    for _ in range(20):
        k, n, h = (int(v) for v in rng.integers(1, (60, 300, 40)))
        x = sparse_rows(_random_rows(rng, k, n))
        wt = np.asfortranarray(rng.standard_normal((h, n))).T  # a column-major W
        g = rng.standard_normal((k, h))
        assert np.array_equal(_compiled.csr_matmul(x, wt), _kernels_py.csr_matmul(x, wt))
        assert np.array_equal(_compiled.csr_tmatmul(x, g), _kernels_py.csr_tmatmul(x, g))


@pytest.mark.parametrize("impl", PRODUCTS)
def test_sparse_products_reject_out_of_range_columns(impl):
    for bad in (-1, 4):
        x = nn.SparseRows([0, 1, 2], [1, bad], [1.0, 2.0], (2, 4))
        with pytest.raises(IndexError):
            impl.csr_matmul(x, np.ones((4, 3)))
        with pytest.raises(IndexError):
            impl.csr_tmatmul(x, np.ones((2, 3)))


def test_jacobi_svd_matches_lapack_values():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = int(rng.integers(1, 9))
        m = rng.standard_normal((d, d)) * rng.uniform(0.1, 10)
        u, s, vt = jacobi_svd(m)
        _svd_checks(m, u, s, vt)
        np.testing.assert_allclose(s, np.linalg.svd(m, compute_uv=False), rtol=1e-9, atol=1e-9)


def test_jacobi_svd_rank_deficient():
    rng = np.random.default_rng(4)
    base = rng.standard_normal((6, 2))
    m = base @ rng.standard_normal((2, 6))  # rank 2
    u, s, vt = jacobi_svd(m)
    _svd_checks(m, u, s, vt)
    assert (s[2:] < 1e-9).all()
    zero = np.zeros((4, 4))
    u, s, vt = jacobi_svd(zero)
    _svd_checks(zero, u, s, vt)
    np.testing.assert_array_equal(s, np.zeros(4))


def test_jacobi_svd_graded_and_duplicate_columns():
    # widely spread scales plus an exactly repeated column
    m = np.diag([1e4, 1.0, 1e-4, 1e-2])
    u, s, vt = jacobi_svd(m)
    np.testing.assert_allclose(s, [1e4, 1.0, 1e-2, 1e-4], rtol=1e-12)
    dup = np.ones((5, 5))
    u, s, vt = jacobi_svd(dup)
    _svd_checks(dup, u, s, vt)
    np.testing.assert_allclose(s[0], 5.0, rtol=1e-12)
    assert (s[1:] < 1e-9).all()


def test_jacobi_svd_deflates_sub_roundoff_columns():
    # a column whose whole mass sits below roundoff of the matrix norm used
    # to never satisfy the relative pair test; it is dropped to zero instead
    u, s, vt = jacobi_svd(np.diag([1e8, 1e-9]))
    assert s[0] == pytest.approx(1e8)
    assert s[1] == 0.0
    np.testing.assert_allclose(u.T @ u, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(vt @ vt.T, np.eye(2), atol=1e-12)


def test_jacobi_svd_identity_and_rotation_products():
    u, s, vt = jacobi_svd(np.eye(3))
    np.testing.assert_allclose(s, np.ones(3))
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    u, s, vt = jacobi_svd(q)
    np.testing.assert_allclose(s, np.ones(5), atol=1e-12)
    np.testing.assert_allclose(u @ vt, q, atol=1e-10)


def test_jacobi_svd_validation_and_convergence_error():
    with pytest.raises(ValueError):
        jacobi_svd(np.ones(3))
    with pytest.raises(ValueError):
        jacobi_svd(np.ones((2, 3)))
    with pytest.raises(ConvergenceError):
        jacobi_svd(np.random.default_rng(6).standard_normal((8, 8)), max_sweeps=1)


def test_complete_basis_evenly_spread_residual():
    # one known direction, the remaining mass spread evenly over 8 axes:
    # any fixed-threshold candidate filter fails here, the greedy pick works
    d = 8
    u = np.zeros((d, d))
    u[:, 0] = np.ones(d) / np.sqrt(d)
    _complete_basis(u, list(range(1, d)))
    np.testing.assert_allclose(u.T @ u, np.eye(d), atol=1e-12)


def test_complete_basis_rejects_full_span():
    u = np.eye(3)
    with pytest.raises(ConvergenceError):
        _complete_basis(u.copy(), [0])  # span already complete, no direction left


def test_jacobi_svd_deterministic():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((6, 6))
    first = jacobi_svd(m)
    second = jacobi_svd(m)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a, b)


def test_pure_python_env_var_forces_fallback():
    code = (
        "import dyngem.kernels as k; "
        "print(k.BACKEND); "
        "import numpy as np; "
        "u, s, vt = k.jacobi_svd(np.diag([2.0, 1.0])); "
        "print(float(s[0]), float(s[1]))"
    )
    env = dict(os.environ, DYNGEM_PURE_PYTHON="1")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "python"
    assert lines[1] == "2.0 1.0"


def test_backend_is_reported():
    assert BACKEND in ("compiled", "python")
    if shutil.which("cc") is not None and os.environ.get("DYNGEM_PURE_PYTHON") != "1":
        # a compiler on PATH must give the compiled backend, not a silent fallback
        assert BACKEND == "compiled"
        assert _compiled is not None


@pytest.fixture
def package_copy(tmp_path):
    """A copy of the package with no cached library, and a function that runs
    ``python -c code`` against it; returns ``(package_dir, run)``."""
    pkg = tmp_path / "dyngem"
    shutil.copytree(Path(__file__).resolve().parent.parent / "src" / "dyngem", pkg,
                    ignore=shutil.ignore_patterns("*.so", "__pycache__"))
    env = {k: v for k, v in os.environ.items()
           if k not in ("DYNGEM_PURE_PYTHON", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(tmp_path)

    def run(code, wait=True, **extra):
        argv = [sys.executable, "-c", code]
        if not wait:
            return subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    text=True, env=dict(env, **extra), cwd=tmp_path)
        return subprocess.run(argv, capture_output=True, text=True, env=dict(env, **extra),
                              cwd=tmp_path, timeout=300)

    return pkg, run


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
REPORT = "import dyngem.kernels as k; print(k.BACKEND)"


def _libraries(pkg):
    return sorted((pkg / "__pycache__").glob("_libkernels*"))


@needs_cc
def test_first_import_builds_one_library_and_later_imports_reuse_it(package_copy):
    pkg, run = package_copy
    first = run(REPORT)
    assert first.stdout.strip() == "compiled", first.stdout + first.stderr
    (library,) = _libraries(pkg)
    assert library.suffix == ".so" and library.stat().st_mode & 0o444 == 0o444
    before = library.stat()
    second = run(REPORT)
    assert second.stdout.strip() == "compiled", second.stdout + second.stderr
    assert _libraries(pkg) == [library]
    after = library.stat()
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


@needs_cc
def test_an_edited_source_gets_a_new_library(package_copy):
    pkg, run = package_copy
    assert run(REPORT).stdout.strip() == "compiled"
    (old,) = _libraries(pkg)
    with open(pkg / "_libkernels.c", "a", encoding="utf-8") as fh:
        fh.write("/* edited */\n")
    assert run(REPORT).stdout.strip() == "compiled"
    (new,) = _libraries(pkg)
    assert new != old


@needs_cc
def test_processes_importing_at_once_load_a_complete_library(package_copy):
    pkg, run = package_copy
    code = REPORT + "; import numpy as np; y = np.ones((2, 1)); e = np.zeros(1, dtype=np.intp)" \
        "; k.gf_epoch(y, e, e + 1, np.ones(1), e, 0.1, 0.0); print(y[0, 0])"
    procs = [run(code, wait=False) for _ in range(2)]
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, out + err
        assert out.split() == ["compiled", "1.0"], out + err
    assert len(_libraries(pkg)) == 1
    assert not list(pkg.glob("**/*.tmp"))


def test_without_a_compiler_the_import_falls_back_quietly(package_copy, tmp_path):
    pkg, run = package_copy
    empty = tmp_path / "empty-path"
    empty.mkdir()
    result = run(REPORT, PATH=str(empty))
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "python"
    assert "Warning" not in result.stderr, result.stderr
    assert not (pkg / "__pycache__").exists()


@needs_cc
def test_the_library_cache_honours_the_pycache_prefix(package_copy, tmp_path):
    pkg, run = package_copy
    prefix = tmp_path / "prefix"
    assert run(REPORT, PYTHONPYCACHEPREFIX=str(prefix)).stdout.strip() == "compiled"
    assert not (pkg / "__pycache__").exists()
    assert len(list(prefix.glob("**/_libkernels.*.so"))) == 1
    # a cache that cannot be created falls back quietly
    blocked = run(REPORT, PYTHONPYCACHEPREFIX=str(pkg / "kernels.py"))
    assert blocked.stdout.strip() == "python", blocked.stderr
    assert "Warning" not in blocked.stderr, blocked.stderr


@needs_cc
def test_a_failed_build_or_load_falls_back_with_a_warning(package_copy):
    pkg, run = package_copy
    assert run(REPORT).stdout.strip() == "compiled"
    (library,) = _libraries(pkg)
    library.write_bytes(b"not a shared library")
    result = run(REPORT)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "python"
    assert "RuntimeWarning" in result.stderr and str(library) in result.stderr, result.stderr
    library.unlink()
    with open(pkg / "_libkernels.c", "a", encoding="utf-8") as fh:
        fh.write("int broken(void) { return }\n")
    result = run(REPORT)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "python"
    assert "RuntimeWarning" in result.stderr and "error" in result.stderr, result.stderr
    assert "_libkernels.c" in result.stderr
    assert not list(pkg.glob("**/_libkernels.*.so")) and not list(pkg.glob("**/*.tmp"))


@needs_cc
def test_a_failed_build_is_remembered_until_the_source_changes(package_copy, tmp_path):
    pkg, run = package_copy
    # a cc on PATH that logs each call, then runs the real compiler
    shim, log = tmp_path / "shim", tmp_path / "cc.log"
    shim.mkdir()
    (shim / "cc").write_text(f"#!/bin/sh\necho cc >> {shlex.quote(str(log))}\n"
                             f"exec {shlex.quote(shutil.which('cc'))} \"$@\"\n")
    (shim / "cc").chmod(0o755)
    path = f"{shim}{os.pathsep}{os.environ['PATH']}"
    source = pkg / "_libkernels.c"
    original = source.read_text(encoding="utf-8")
    source.write_text(original + "int broken(void) { return }\n", encoding="utf-8")
    first = run(REPORT, PATH=path)
    assert first.stdout.strip() == "python", first.stderr
    assert "RuntimeWarning" in first.stderr and "error" in first.stderr, first.stderr
    (marker,) = (pkg / "__pycache__").glob("_libkernels.*.failed")
    assert str(marker) in first.stderr and "error" in marker.read_text()
    assert log.read_text().split() == ["cc"]
    # a second process falls back without running the compiler or warning
    second = run(REPORT, PATH=path)
    assert second.returncode == 0 and second.stdout.strip() == "python", second.stderr
    assert "Warning" not in second.stderr, second.stderr
    assert log.read_text().split() == ["cc"]
    # a source edit changes the key, so the build runs again; its success
    # deletes the stale marker
    source.write_text(original, encoding="utf-8")
    third = run(REPORT, PATH=path)
    assert third.stdout.strip() == "compiled", third.stderr
    assert log.read_text().split() == ["cc", "cc"]
    assert not list((pkg / "__pycache__").glob("_libkernels.*.failed"))


@needs_cc
def test_compiled_backend_builds_with_the_system_compiler(package_copy):
    """Run this file's tests against a fresh copy of the package, where the
    first import builds the library: the ``needs_compiled`` tests must run,
    not skip."""
    pkg, run = package_copy
    tests = run(f"import sys, pytest; sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', "
                f"{__file__!r}, '-k', 'agree or is_reported']))")
    assert tests.returncode == 0, tests.stdout + tests.stderr
    assert "skipped" not in tests.stdout, tests.stdout
    assert len(_libraries(pkg)) == 1
    check = (
        "import ctypes, numpy as np, dyngem.kernels as k, dyngem.nn as nn\n"
        "y, e, w = np.zeros((3, 2)), np.zeros(1, dtype=np.intp), np.ones(1)\n"
        "for args in ((np.asfortranarray(y), e, e + 1, w, e), (y, e.astype(np.int32), e + 1, w, e)):\n"
        "    try:\n"
        "        k.gf_epoch(*args, 0.1, 0.0)\n"
        "    except ctypes.ArgumentError:\n"
        "        continue\n"
        "    raise SystemExit('accepted an array the C kernel cannot read')\n"
        "s = np.array([[0.0, 2.0, 1.0], [0.0, 0.0, 0.0], [1.0, 3.0, 0.0]])\n"
        "for bad in (np.asfortranarray(s), s.astype(np.float32)):\n"
        "    try:\n"
        "        k.truth_ranks(bad, e, e + 2, None)\n"
        "    except ctypes.ArgumentError:\n"
        "        continue\n"
        "    raise SystemExit('accepted scores the C kernel cannot read')\n"
        "print(k.truth_ranks(s, np.array([0, 2], dtype=np.intp), np.array([2, 0], dtype=np.intp), None))\n"
        "x = nn.SparseRows([0, 2, 2], [0, 2], [2.0, -1.0], (2, 3))\n"
        "wt, g = np.arange(6.0).reshape(3, 2), np.ones((2, 2))\n"
        "for product, dense in ((k.csr_matmul, wt), (k.csr_tmatmul, g)):\n"
        "    for bad in (np.asfortranarray(dense), dense.astype(np.float32)):\n"
        "        try:\n"
        "            product(x, bad)\n"
        "        except ctypes.ArgumentError:\n"
        "            continue\n"
        "        raise SystemExit('accepted a dense operand the C kernel cannot read')\n"
        "if k.csr_matmul(x, wt).tolist() != [[-4.0, -3.0], [0.0, 0.0]]:\n"
        "    raise SystemExit('csr_matmul: wrong product')\n"
        "if k.csr_tmatmul(x, g).tolist() != [[2.0, 2.0], [0.0, 0.0], [-1.0, -1.0]]:\n"
        "    raise SystemExit('csr_tmatmul: wrong product')\n"
        "u = np.ones(4)\n"
        "for bad in (u.astype(np.float32), np.ones(8)[::2]):\n"
        "    for call in (lambda: k.penalty_pass(bad, u.copy(), 0.1, 0.1),\n"
        "                 lambda: k.nesterov_update(u.copy(), bad, u.copy(), 0.1, 0.9)):\n"
        "        try:\n"
        "            call()\n"
        "        except ctypes.ArgumentError:\n"
        "            continue\n"
        "        raise SystemExit('accepted a vector the C pass cannot read')\n"
        "q, v = np.ones(4), np.zeros(4)\n"
        "if k.penalty_pass(q, u, 0.5, 0.25) != (4.0, 4.0) or u.tolist() != [2.0] * 4:\n"
        "    raise SystemExit('penalty_pass: wrong sums or gradient')\n"
        "k.nesterov_update(q, u, v, 0.25, 0.5)\n"
        "if v.tolist() != [-0.5] * 4 or q.tolist() != [0.25] * 4:\n"
        "    raise SystemExit('nesterov_update: wrong update')\n"
        "print(k.BACKEND, k.__file__)\n"
    )
    compiled = run(check)
    assert compiled.returncode == 0, compiled.stdout + compiled.stderr
    assert compiled.stdout.split() == ["[2", "2]", "compiled", str(pkg / "kernels.py")]
    forced = run(REPORT, DYNGEM_PURE_PYTHON="1")
    assert forced.stdout.strip() == "python", forced.stdout + forced.stderr
