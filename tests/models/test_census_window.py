"""Census sums over the load's mass window, at any mean load.

Three guarantees:

1. **The window holds the mass.**  Each side of a load's
   :meth:`~repro.loads.LoadDistribution.mass_window` leaves out at most
   ``eps`` of the first moment; the default window is the whole support.
2. **The sums are right at any Poisson mean.**  B, R, delta, Delta and
   the sampling model's B_S and R_S match the dense window reference
   (``tests/golden/census_reference.py``: no planner, no mass window)
   for means drawn log-uniform over [1, 1e9].  Heavy-tailed loads,
   which keep the default window, match a dense sum to 2^22 flows plus
   the analytic bound on what it omits.
3. **Memory stays bounded.**  A mean-1e7 Poisson sum allocates its
   ~6e4-term window, not the census from k = 0.
"""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.loads import AlgebraicLoad, GeometricLoad, PoissonLoad
from repro.models import SamplingModel, VariableLoadModel
from repro.utility import AdaptiveUtility, RigidUtility
from tests.golden import census_reference as ref

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

UTILITIES = {"rigid": RigidUtility(1.0), "adaptive": AdaptiveUtility(0.62086)}


def _close(got, want, rtol, atol=1e-12):
    assert np.isclose(got, want, rtol=rtol, atol=atol), (got, want)


class TestMassWindow:
    @given(
        nu=st.floats(min_value=1e-3, max_value=1e12),
        eps=st.sampled_from([1e-15, 1e-12, 1e-6]),
    )
    @settings(max_examples=60, deadline=None)
    def test_poisson_edges_leave_out_at_most_eps(self, nu, eps):
        k_lo, k_hi = PoissonLoad(nu).mass_window(eps)
        assert 0 <= k_lo <= nu <= k_hi
        # k P(k) = nu P(k - 1): each side's first moment is nu times a tail
        assert nu * stats.poisson.cdf(k_lo - 2, nu) <= eps
        assert nu * stats.poisson.sf(k_hi - 1, nu) <= eps

    def test_window_is_about_sqrt_nu_wide(self):
        k_lo, k_hi = PoissonLoad(1e7).mass_window(1e-12)
        assert 12 * math.sqrt(1e7) < k_hi - k_lo < 24 * math.sqrt(1e7)

    @pytest.mark.parametrize(
        "load", [GeometricLoad.from_mean(50.0), AlgebraicLoad.from_mean(3.0, 50.0)]
    )
    def test_default_window_is_the_whole_support(self, load):
        assert load.mass_window(1e-12) == (0, math.inf)


class TestPoissonAgainstReference:
    @given(
        log_nu=st.floats(min_value=0.0, max_value=9.0),
        utility=st.sampled_from(sorted(UTILITIES)),
        ratio=st.floats(min_value=0.3, max_value=3.0),
    )
    # a series level inside the window left out 4.5e-10 of V_B here
    @example(log_nu=2.4296875, utility="adaptive", ratio=2.0)
    # C + Delta is past a fixed 1e9 bracket ceiling here
    @example(log_nu=9.0, utility="rigid", ratio=0.5)
    @settings(max_examples=30, deadline=None)
    def test_basic_model(self, log_nu, utility, ratio):
        nu, u = 10.0**log_nu, UTILITIES[utility]
        c = ratio * nu
        model = VariableLoadModel(PoissonLoad(nu), u)
        _close(model.best_effort(c), ref.best_effort(nu, u, [c])[0], 1e-9)
        _close(model.reservation(c), ref.reservation(nu, u, [c])[0], 1e-9)
        delta = ref.performance_gap(nu, u, [c])[0]
        _close(model.performance_gap(c), delta, 1e-9)
        if delta > 1e-9:
            # both root finders resolve C + Delta to ~1e-12 relative
            _close(model.bandwidth_gap(c), ref.bandwidth_gap(nu, u, [c])[0], 1e-6, 1e-11 * c)

    @given(
        log_nu=st.floats(min_value=0.0, max_value=9.0),
        utility=st.sampled_from(sorted(UTILITIES)),
        ratio=st.floats(min_value=0.3, max_value=3.0),
        samples=st.integers(min_value=1, max_value=8),
    )
    # a truncation point inside the window left out 5.6e-12 of B_S here
    @example(log_nu=5.4375, utility="adaptive", ratio=1.0, samples=1)
    @settings(max_examples=30, deadline=None)
    def test_sampling_model(self, log_nu, utility, ratio, samples):
        nu, u = 10.0**log_nu, UTILITIES[utility]
        c = ratio * nu
        model = SamplingModel(PoissonLoad(nu), u, samples)
        b_s, r_s = ref.sampling(nu, u, samples, [c])
        _close(model.best_effort(c), b_s[0], 1e-9)
        _close(model.reservation(c), r_s[0], 1e-9)
        _close(model.performance_gap(c), max(0.0, r_s[0] - b_s[0]), 1e-9)


def _dense(load, utility, capacity, deep=1 << 22):
    """``(V_B, V_R)`` summed over ``1 <= k < deep`` and the omitted bound."""
    ks = np.arange(1, deep, dtype=float)
    kpk = ks * np.asarray(load.pmf_array(ks), dtype=float)
    values = np.asarray(utility(capacity / ks), dtype=float)
    m = VariableLoadModel(load, utility).k_max(capacity)
    admitted = ks <= m
    v_r = kpk[admitted] @ values[admitted]
    if m >= 1:
        v_r += m * float(utility(capacity / m)) * load.sf(m)
    omitted = min(1.0, utility.value(capacity / deep)) * load.mean_tail(deep)
    return kpk @ values, v_r, omitted


class TestHeavyTailsAgainstDenseSum:
    @given(
        family=st.sampled_from(["exponential", "algebraic"]),
        log_kbar=st.floats(min_value=0.0, max_value=4.0),
        utility=st.sampled_from(sorted(UTILITIES)),
        ratio=st.floats(min_value=0.3, max_value=3.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_default_window(self, family, log_kbar, utility, ratio):
        kbar, u = 10.0**log_kbar, UTILITIES[utility]
        if family == "exponential":
            load = GeometricLoad.from_mean(kbar)
        else:
            load = AlgebraicLoad.from_mean(3.0, max(kbar, 1.5))
        c = ratio * load.mean
        model = VariableLoadModel(load, u)
        v_b, v_r, omitted = _dense(load, u, c)
        slack = 2.0 * model._tol + omitted
        assert model.total_best_effort(c) == pytest.approx(v_b, rel=1e-9, abs=slack)
        # the dense reservation sum stops at k_max <= 2^22 here
        assert model.total_reservation(c) == pytest.approx(v_r, rel=1e-9, abs=slack)


_MEMORY_PROBE = """
import json, resource
from repro.models import VariableLoadModel, WelfareModel
from repro.loads import PoissonLoad
from repro.utility import AdaptiveUtility
import numpy as np
model = VariableLoadModel(PoissonLoad(1e7), AdaptiveUtility(0.62086))
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
caps = np.array([0.5, 0.95, 1.0, 2.0]) * 1e7
model.reservation_batch(caps)
model.performance_gap_batch(caps)
WelfareModel(model).equalizing_ratio_batch([0.01, 0.1])
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"added_mb": (peak - base) / 1024.0}))
"""


def test_large_kbar_sums_stay_small():
    # the sums allocate the ~6e4-term window; a census array from k = 0
    # to k_max ~ 1e7 would add over a gigabyte
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _MEMORY_PROBE],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    assert json.loads(out.stdout.strip().splitlines()[-1])["added_mb"] < 100.0
