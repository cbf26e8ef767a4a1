"""Traced CLI child: ``python3 bench/launcher.py OUT ARGS...``.

Imports ``wittkit.cli``, installs the per-layer wrappers, runs
``wittkit.cli.main(ARGS)`` and appends the trace totals, with the import
time, as one JSON line to OUT.  Exits with the CLI's exit code.
"""

import json
import os
import sys
import time


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import wittkit.cli
    import_s = time.perf_counter() - t0
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    tracer.request_id = 0
    try:
        code = wittkit.cli.main(argv)
    finally:
        tracer.uninstall()
        totals = tracer.totals()
        totals["cli.import_s"] = import_s
        with open(out, "a") as fh:
            fh.write(json.dumps(totals) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
