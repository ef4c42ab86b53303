"""One benchmark harness for ``repro``: four user workloads, timed end to end.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``.
"""

import pathlib

#: The repository root (the checkout the harness runs from).
ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Where the ``repro`` package is imported from.
SRC = ROOT / "src"

#: Scratch space and trace files of harness runs (ignored by git).
OUT = ROOT / ".perfbench"
