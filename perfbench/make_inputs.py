"""Write one workload's snapshot series: ``make_inputs.py <workload> <seed> <dir>``.

This is the benchmark's set-up step, timed from a fresh interpreter: it
imports the CLI (which selects the kernel backend), generates the series
and writes it with ``graph.save_series``.  It prints one JSON line naming
the backend and numpy version it ran with.
"""

from __future__ import annotations

import json
import sys

from workloads import WORKLOADS, build_series


def main(argv):
    name, seed, out_dir = argv[0], int(argv[1]), argv[2]
    import numpy as np

    from dyngem import cli, kernels  # noqa: F401  (importing the CLI is part of set-up)
    from dyngem.graph import save_series

    save_series(build_series(WORKLOADS[name].series, seed), out_dir)
    print(json.dumps({"backend": kernels.BACKEND, "numpy": np.__version__}))


if __name__ == "__main__":
    main(sys.argv[1:])
