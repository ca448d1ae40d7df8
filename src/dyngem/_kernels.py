"""ctypes bindings for the compiled hot loops in ``_libkernels.c``.

``setup.py`` builds that file as a plain shared library next to this
module; importing this module raises ImportError when it was not built, so
:mod:`dyngem.kernels` selects the numpy fallback.  The argument types,
declared with ``numpy.ctypeslib.ndpointer``, make ctypes reject an array of
the wrong dtype, rank or memory order (``ctypes.ArgumentError``) before any
pointer reaches C.
"""

from __future__ import annotations

import ctypes
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np

# looked for before numpy.ctypeslib is first used, which imports it: the
# numpy fallback never needs that module
_built = [path for path in (Path(__file__).with_name("_libkernels" + suffix)
                            for suffix in EXTENSION_SUFFIXES) if path.exists()]
if not _built:
    raise ImportError("the compiled kernel library _libkernels is not built")
_lib = ctypes.CDLL(str(_built[0]))


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


def jacobi_sweeps(g, v, tol, max_sweeps):
    """One-sided Jacobi orthogonalization of the columns of g, in place,
    accumulating the rotations into v (which has as many columns as g).
    Returns the number of completed sweeps, or -1 when the tolerance was
    still violated after ``max_sweeps`` sweeps."""
    if v.ndim != 2 or v.shape[1] != g.shape[1]:
        raise ValueError("v must have as many columns as g")
    return _lib.jacobi_sweeps(g, v, g.shape[0], g.shape[1], v.shape[0], tol, max_sweeps)
