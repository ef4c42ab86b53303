"""Dense window reference for the census sums at any Poisson mean.

An independent check on the discrete models' mass window and series
planner: it calls no model sum, no planner and no ``mass_window``.
Each quantity is a direct numpy sum of ``scipy.stats.poisson.pmf``
over ``k = nu +- 40 sqrt(nu)``, where a Poisson census keeps all of
its mass that a double can hold:

    B(C)   = sum_k k P(k) pi(C/k) / nu
    R(C)   = [sum_{k<=m} k P(k) pi(C/k) + m pi(C/m) P(K > m)] / nu
    delta  = max(0, R - B)
    Delta  : B(C + Delta) = R(C), by Brent's method on the dense B

with ``m = k_max(C)`` from :class:`~repro.models.FixedLoadModel` and
the overload mass ``P(K > m)`` from ``scipy.stats.poisson.sf``.  The
sampling model's worst-of-``S`` curves use the size-biased cdf
``F(j) = sum_{k<=j} k P(k) / nu``:

    B_S(C) = sum_j pi(C/j) [F(j)^S - F(j-1)^S]
    R_S(C) = sum_{j<m} pi(C/j) [F(j)^S - F(j-1)^S]
           + pi(C/m) [F(m) - F(m-1)^S + m P(K > m) / nu]

The reference shares scipy's Poisson pmf with the model, and that pmf
carries its own relative error at large ``nu`` (about 5e-10 at 1e7 and
1e-7 at 1e9, from the cancellation in ``k ln nu - lnGamma(k+1) - nu``):
what it checks is where the sums start and stop, not the pmf.

Run as a script, it recomputes the Poisson ``k_bar = 1e7`` pins of
``tests/golden/figures.json`` and exits nonzero if any pin is more
than :data:`RTOL` from the reference (absolute :data:`ATOL` near 0):

    PYTHONPATH=src python tests/golden/census_reference.py
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

import numpy as np
from scipy import optimize, stats

from repro.experiments.params import DEFAULT_CONFIG
from repro.models import FixedLoadModel
from repro.models.variable_load import GAP_FLOOR

#: Half-width of the summed census, in standard deviations.
HALFWIDTH = 40.0

#: The large-k_bar pins: mean load, capacities in mean loads, utilities.
KBAR = 1e7
CAPACITY_RATIOS = (0.5, 0.95, 1.0, 2.0)
UTILITIES = ("rigid", "adaptive")

#: The pins, and their largest allowed deviation from the reference.
GOLDEN = pathlib.Path(__file__).parent / "figures.json"
SECTION = "poisson_large_kbar"
RTOL = 1e-9
ATOL = 1e-12


def census(nu: float) -> tuple:
    """``(k, P(k))`` over ``nu +- 40 sqrt(nu)`` (``k >= 1``)."""
    half = HALFWIDTH * math.sqrt(nu)
    ks = np.arange(max(1, math.floor(nu - half)), math.ceil(nu + half) + 1, dtype=float)
    return ks, stats.poisson.pmf(ks, nu)


def best_effort(nu: float, utility, capacities) -> np.ndarray:
    """``B(C)`` per capacity."""
    ks, pk = census(nu)
    kpk = ks * pk
    return np.array([kpk @ utility(c / ks) for c in np.ravel(capacities)]) / nu


def reservation(nu: float, utility, capacities) -> np.ndarray:
    """``R(C)`` per capacity."""
    ks, pk = census(nu)
    kpk = ks * pk
    out = []
    for c in np.ravel(capacities):
        m = FixedLoadModel(utility).k_max(float(c))
        admitted = ks <= m
        over = m * float(utility(c / m)) * stats.poisson.sf(m, nu) if m >= 1 else 0.0
        out.append(kpk[admitted] @ utility(c / ks[admitted]) + over)
    return np.array(out) / nu


def performance_gap(nu: float, utility, capacities) -> np.ndarray:
    """``delta(C) = max(0, R - B)`` per capacity."""
    return np.maximum(
        0.0, reservation(nu, utility, capacities) - best_effort(nu, utility, capacities)
    )


def bandwidth_gap(nu: float, utility, capacities) -> np.ndarray:
    """``Delta(C)`` per capacity: 0 where ``R - B <= GAP_FLOOR``."""
    out = []
    for c in np.ravel(capacities):
        c = float(c)
        target = float(reservation(nu, utility, [c])[0])
        if target - float(best_effort(nu, utility, [c])[0]) <= GAP_FLOOR:
            out.append(0.0)
            continue
        gap = lambda x: float(best_effort(nu, utility, [x])[0]) - target  # noqa: E731
        hi = c + max(1.0, c)
        while gap(hi) < 0.0:
            hi *= 2.0
        out.append(optimize.brentq(gap, c, hi, xtol=1e-12 * hi) - c)
    return np.array(out)


def sampling(nu: float, utility, samples: int, capacities) -> tuple:
    """``(B_S, R_S)`` per capacity for the worst-of-``samples`` model."""
    ks, pk = census(nu)
    cdf = np.concatenate(([0.0], np.minimum(1.0, np.cumsum(ks * pk) / nu)))
    weights = np.diff(cdf**samples)  # P(max = k) for each k in ks
    b, r = [], []
    for c in np.ravel(capacities):
        values = utility(c / ks)
        b.append(weights @ values)
        m = FixedLoadModel(utility).k_max(float(c))
        if m < 1:
            r.append(0.0)
            continue
        # F(j) = cdf[j - ks[0] + 1], 0 below the census and F(ks[-1]) above it
        at, before = (int(np.clip(j - ks[0] + 1, 0, ks.size)) for j in (m, m - 1))
        below = ks < m
        at_cap = cdf[at] - cdf[before] ** samples
        over = m * stats.poisson.sf(m, nu) / nu
        r.append(weights[below] @ values[below] + float(utility(c / m)) * (at_cap + over))
    return np.array(b), np.array(r)


def pins() -> dict:
    """The ``k_bar = 1e7`` golden section, computed from the reference."""
    caps = [ratio * KBAR for ratio in CAPACITY_RATIOS]
    section: dict = {"load": "poisson", "kbar": KBAR, "capacity": caps}
    for name in UTILITIES:
        utility = DEFAULT_CONFIG.utility(name)
        section[name] = {
            "best_effort": best_effort(KBAR, utility, caps).tolist(),
            "reservation": reservation(KBAR, utility, caps).tolist(),
            "delta": performance_gap(KBAR, utility, caps).tolist(),
            "Delta": bandwidth_gap(KBAR, utility, caps).tolist(),
        }
    return section


def main() -> int:
    stored = json.loads(GOLDEN.read_text())[SECTION]
    fresh = pins()
    worst = 0
    for name in UTILITIES:
        for quantity, want in fresh[name].items():
            got = np.asarray(stored[name][quantity], dtype=float)
            ok = np.isclose(got, want, rtol=RTOL, atol=ATOL)
            for c, g, w, good in zip(fresh["capacity"], got, want, ok):
                if not good:
                    worst += 1
                    print(f"{name} {quantity} C={c:g}: pinned {g!r}, reference {w!r}")
    count = sum(len(v) for name in UTILITIES for v in fresh[name].values())
    print(f"{count - worst}/{count} large-k_bar pins within rtol {RTOL:g} of the reference")
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())
