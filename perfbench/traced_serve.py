"""``repro serve`` with the harness's layer spans installed.

    python -m perfbench.traced_serve SPANS_PATH [repro serve arguments...]

Runs the same CLI entry point as ``python -m repro serve``.  When the
server exits (Ctrl-C / SIGINT), the recorded span roots are pickled to
``SPANS_PATH`` for the harness, which started this process, to read.
"""

from __future__ import annotations

import pickle
import sys

from perfbench.layers import LayerTracer


def main(argv) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    layer_tracer = LayerTracer().install()
    from repro import cli

    try:
        return cli.main(["serve", *serve_args])
    finally:
        with open(spans_path, "wb") as fh:
            pickle.dump(layer_tracer.tracer.roots(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
