"""Importing any entry point, or evaluating the continuum engines, loads
numpy and ``scipy.special``, no more.

The paper's quantities are sums of a load pmf against ``pi(C/k)``, or
their continuum integrals: they need numpy and a few special functions.
The rest of scipy costs every process about a second of start-up, so
the two functions that need more import their package in their own
body: the algebraic maximum-likelihood fit (``fit_algebraic``) and the
network admission ILP (``admit_flows``), both ``scipy.optimize``.
Quadrature is numpy's own (``numerics.quadrature``), so the probe also
evaluates ``ContinuumModel`` B and R, ``ContinuumSamplingModel`` B and
an Euler-Maclaurin-plan ``VariableLoadModel`` total.  A fresh
interpreter checks the graph, since the test process itself has long
since imported everything.

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

#: Continuum B and R, sampling B and an Euler-Maclaurin tail: every
#: quadrature caller, each on a small grid.
_EVALUATE = (
    "import numpy as np",
    "import repro.models.variable_load as vlm",
    "from repro.continuum import ContinuumModel, ContinuumSamplingModel",
    "from repro.loads import AlgebraicLoad, ExponentialLoad, ParetoLoad",
    "from repro.utility import AdaptiveUtility, PowerLowUtility, RigidUtility",
    "model = ContinuumModel(ParetoLoad(2.5), AdaptiveUtility())",
    "model.best_effort_batch([1.0, 4.0]); model.reservation_batch([1.0, 4.0])",
    "ContinuumSamplingModel(ExponentialLoad(1.0), RigidUtility(1.0), 3).best_effort_batch([2.0])",
    "vlm.BRUTE_FORCE_CAP = 1 << 12",
    "em = vlm.VariableLoadModel(AlgebraicLoad.from_mean(3.0, 12.0), PowerLowUtility(2.0))",
    "assert np.all(em._plan_batch(np.array([25.0, 40.0]))[0] == vlm._MODE_EM)",
    "em.total_best_effort_batch([25.0, 40.0])",
)

_PROBE = "\n".join(
    [
        "import json, sys",
        "import scipy.special",
        f"base = {{m for m in {HEAVY!r} if m in sys.modules}}",
        *[f"import {module}" for module in ENTRY_POINTS],
        *_EVALUATE,
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
