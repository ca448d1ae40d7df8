"""ctypes bindings for the compiled hot loops in ``_libkernels.c``:
``gf_epoch``, ``truth_ranks``, ``jacobi_sweeps``, the two sparse products
``csr_matmul`` and ``csr_tmatmul``, and the two per-parameter passes
``penalty_pass`` and ``nesterov_update``.

The first import compiles that file with the system's ``cc`` and caches the
library the way Python caches bytecode: in the package's ``__pycache__``
(under ``sys.pycache_prefix`` when set), named by a hash of the source, the
flags and the extension suffix, so an edited source is rebuilt and the
libraries of earlier sources are deleted.  The build writes a per-process
temporary file and renames it into place, so processes importing at once
never load a half-written library.  Importing raises ImportError, and
:mod:`dyngem.kernels` selects the numpy fallback, when no ``cc`` is on
``PATH`` or the cache directory cannot be written; a build or load that
fails also warns, with the compiler's or loader's message.  A failed build
leaves ``_libkernels.<hash>.failed`` there, holding that message; until the
source changes or it is deleted, imports fall back without running ``cc``
or warning again.  The argument types, declared with
``numpy.ctypeslib.ndpointer``, make ctypes reject an array of the wrong
dtype, rank or memory order (``ctypes.ArgumentError``) before any pointer
reaches C.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import warnings
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import cache_from_source, source_hash
from pathlib import Path

import numpy as np

# -O3 vectorizes the sparse products' row updates; -ffp-contract=off keeps
# every multiply-add unfused, so results do not depend on the host's
# instruction set
_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")
_LIBS = ("-lm",)
_SOURCE = Path(__file__).with_name("_libkernels.c")
_SUFFIX = EXTENSION_SUFFIXES[0]


def _library_path():
    # the hash Python keys hash-based bytecode with
    key = source_hash(_SOURCE.read_bytes() + repr((_FLAGS, _LIBS, _SUFFIX)).encode())
    cache = Path(cache_from_source(__file__)).parent
    return cache / f"_libkernels.{key.hex()}{_SUFFIX}"


def _build(target):
    import subprocess  # here, not at the top: it adds about 7 ms to every CLI start

    failed = target.with_name(target.name.removesuffix(_SUFFIX) + ".failed")
    if failed.exists():
        raise ImportError(f"building the kernel library failed before; see {failed}")
    cc = shutil.which("cc")
    if cc is None:
        raise ImportError("no C compiler (cc) on PATH to build _libkernels.c")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        writable = os.access(target.parent, os.W_OK)
    except OSError:
        writable = False
    if not writable:
        raise ImportError(f"cannot write the kernel library cache {target.parent}")
    partial = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        built = subprocess.run([cc, *_FLAGS, "-o", partial, _SOURCE, *_LIBS],
                               capture_output=True, text=True)
        if built.returncode != 0:
            failed.write_text(built.stderr)
            warnings.warn(f"building {_SOURCE} failed, so dyngem uses its numpy fallback until the "
                          f"source changes or {failed} is deleted:\n{built.stderr}", RuntimeWarning)
            raise ImportError("the compiled kernel library could not be built")
        os.replace(partial, target)
    finally:
        partial.unlink(missing_ok=True)
    # only this interpreter's libraries (another Python may share the cache),
    # and every failure marker
    for pattern in (f"_libkernels.*{_SUFFIX}", "_libkernels.*.failed"):
        for stale in target.parent.glob(pattern):
            if stale != target:
                stale.unlink(missing_ok=True)


def _load():
    target = _library_path()
    if not target.exists():
        _build(target)
    try:
        return ctypes.CDLL(str(target))
    except OSError as exc:
        warnings.warn(f"loading {target} failed, so dyngem uses its numpy fallback: {exc}",
                      RuntimeWarning)
        raise ImportError("the compiled kernel library could not be loaded") from None


_lib = _load()


def _array(dtype, ndim, writeable=False):
    flags = "C_CONTIGUOUS,WRITEABLE" if writeable else "C_CONTIGUOUS"
    return np.ctypeslib.ndpointer(dtype=dtype, ndim=ndim, flags=flags)


_size = ctypes.c_ssize_t
_lib.gf_epoch.restype = ctypes.c_int
_lib.gf_epoch.argtypes = [
    _array(np.float64, 2, writeable=True),
    _array(np.intp, 1), _array(np.intp, 1), _array(np.float64, 1), _array(np.intp, 1),
    _size, _size, _size, _size, ctypes.c_double, ctypes.c_double,
]
_lib.truth_ranks.restype = ctypes.c_int
_vector, _written = _array(np.float64, 1), _array(np.float64, 1, writeable=True)
_lib.truth_ranks.argtypes = [_array(np.float64, 2), *[_array(np.intp, 1)] * 4, _written,
                             _array(np.intp, 1, writeable=True), _size, _size]
for _product in (_lib.csr_matmul, _lib.csr_tmatmul):
    _product.restype = ctypes.c_int
    _product.argtypes = [_array(np.intp, 1), _array(np.intp, 1), _array(np.float64, 1),
                         _array(np.float64, 2), _array(np.float64, 2, writeable=True),
                         _size, _size, _size]
_lib.penalty_pass.restype = _lib.nesterov_update.restype = None
_lib.penalty_pass.argtypes = [_vector, _written, _size, ctypes.c_double, ctypes.c_double, _written]
_lib.nesterov_update.argtypes = [_written, _vector, _written, _size, ctypes.c_double, ctypes.c_double]
_lib.jacobi_sweeps.restype = ctypes.c_int
_lib.jacobi_sweeps.argtypes = [
    _array(np.float64, 2, writeable=True), _array(np.float64, 2, writeable=True),
    _size, _size, _size, ctypes.c_double, ctypes.c_int,
]


def gf_epoch(y, heads, tails, weights, order, lr, lam):
    """One epoch of per-edge SGD for graph factorization, updating y in place.

    ``y`` is a C-ordered float64 matrix; ``heads``, ``tails`` and ``order``
    are intp vectors and ``weights`` a float64 vector.  Raises IndexError
    when an edge or node index is out of range.
    """
    m = len(heads)
    if len(tails) != m or len(weights) != m:
        raise ValueError("heads, tails and weights must have one length")
    status = _lib.gf_epoch(y, heads, tails, weights, order, y.shape[0], y.shape[1], m,
                           len(order), lr, lam)
    if status != 0:
        raise IndexError("gf_epoch: an edge or node index is out of range")


def truth_ranks(scores, heads, tails, excluded):
    """``_kernels_py.truth_ranks`` on C-ordered float64 ``scores``, with the
    same ranks; each head's symmetric scores are formed in one scratch row.
    Raises IndexError when a pair or an excluded neighbour is out of range."""
    n = scores.shape[0]
    if scores.shape != (n, n) or len(tails) != len(heads):
        raise ValueError("scores must be square and heads and tails of one length")
    if excluded is None:
        indptr, indices = np.zeros(n + 1, dtype=np.intp), np.empty(0, dtype=np.intp)
    else:
        indptr, indices, _ = excluded.csr_rows(np.arange(n))
    ranks = np.empty(len(heads), dtype=np.intp)
    if _lib.truth_ranks(scores, heads, tails, indptr, indices, np.empty(n), ranks, n, len(heads)) != 0:
        raise IndexError("truth_ranks: a pair or an excluded neighbour is out of range")
    return ranks


def csr_matmul(x, wt):
    """``_kernels_py.csr_matmul`` on a C-ordered float64 ``wt``, with the same
    bits; raises IndexError when a column index of x is out of range."""
    k, n = x.shape
    if wt.ndim != 2 or wt.shape[0] != n:
        raise ValueError("wt must have one row per column of x")
    out = np.empty((k, wt.shape[1]))
    if _lib.csr_matmul(x.indptr, x.indices, x.values, wt, out, k, n, wt.shape[1]) != 0:
        raise IndexError("csr_matmul: a column index is out of range")
    return out


def csr_tmatmul(x, g):
    """``_kernels_py.csr_tmatmul`` on a C-ordered float64 ``g``, with the same
    bits; raises IndexError when a column index of x is out of range."""
    k, n = x.shape
    if g.ndim != 2 or g.shape[0] != k:
        raise ValueError("g must have one row per row of x")
    out = np.empty((n, g.shape[1]))
    if _lib.csr_tmatmul(x.indptr, x.indices, x.values, g, out, k, n, g.shape[1]) != 0:
        raise IndexError("csr_tmatmul: a column index is out of range")
    return out


def penalty_pass(w, g, nu1, nu2):
    """``_kernels_py.penalty_pass`` on contiguous float64 vectors, with the
    same bits."""
    if g.size != w.size:
        raise ValueError("w and g must have one length")
    sums = np.empty(2)
    _lib.penalty_pass(w, g, w.size, nu1, nu2, sums)
    return float(sums[0]), float(sums[1])


def nesterov_update(p, g, v, lr, mu):
    """``_kernels_py.nesterov_update`` on contiguous float64 vectors, with the
    same bits."""
    if not p.size == g.size == v.size:
        raise ValueError("p, g and v must have one length")
    _lib.nesterov_update(p, g, v, p.size, lr, mu)


def jacobi_sweeps(g, v, tol, max_sweeps):
    """One-sided Jacobi orthogonalization of the columns of g, in place,
    accumulating the rotations into v (which has as many columns as g).
    Returns the number of completed sweeps, or -1 when the tolerance was
    still violated after ``max_sweeps`` sweeps."""
    if v.ndim != 2 or v.shape[1] != g.shape[1]:
        raise ValueError("v must have as many columns as g")
    return _lib.jacobi_sweeps(g, v, g.shape[0], g.shape[1], v.shape[0], tol, max_sweeps)
