"""Run one dyngem CLI command with span tracing installed.

Usage: ``traced_cli.py <spans.json> <dyngem arguments...>``.  Exit codes
and outputs are those of ``dyngem`` itself; the spans are written to the
first argument when the command ends, however it ends.
"""

from __future__ import annotations

import sys

from tracing import Tracer, install


def main(argv):
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    entry = install(tracer)
    try:
        entry.main(args, prog_name="dyngem")
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main(sys.argv[1:])
