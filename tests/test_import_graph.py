"""Importing any entry point loads numpy and ``scipy.special``, no more.

The paper's quantities are sums of a load pmf against ``pi(C/k)``:
they need numpy and a few special functions.  The rest of scipy costs
every process about a second of start-up, so the three functions that
need more import their package in their own body:
``numerics.quadrature.integrate`` (``scipy.integrate``), the algebraic
maximum-likelihood fit and the network admission ILP
(``scipy.optimize``).  A fresh interpreter checks the graph, since the
test process itself has long since imported everything.

The probe imports ``scipy.special`` first and counts only the packages
the entry points add beyond it: before scipy 1.17, ``scipy.special``
imports ``scipy.linalg`` itself, which no code here can avoid.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

ENTRY_POINTS = (
    "repro",
    "repro.cli",
    "repro.runner",
    "repro.verify.runner",
    "repro.service",
    "repro.traces",
    "repro.emulator",
    "repro.continuum",
    "repro.inference",
    "repro.network",
)

#: scipy packages no import may add to what ``scipy.special`` loads.
HEAVY = tuple(
    f"scipy.{name}"
    for name in (
        "stats",
        "optimize",
        "integrate",
        "interpolate",
        "linalg",
        "sparse",
        "fft",
        "ndimage",
        "spatial",
    )
)

_PROBE = "\n".join(
    [
        "import json, sys",
        "import scipy.special",
        f"base = {{m for m in {HEAVY!r} if m in sys.modules}}",
        *[f"import {module}" for module in ENTRY_POINTS],
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules and m not in base]))",
    ]
)


def test_entry_points_load_no_heavy_scipy_package():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == []
