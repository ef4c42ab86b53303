"""Tests for the batched Gauss–Kronrod quadrature kernel.

References come from mpmath at 30 digits; the continuum cases are the
integrals the engines hand the kernel.
"""

import math

import mpmath
import numpy as np
import pytest

from repro.continuum import ContinuumModel
from repro.errors import ConvergenceError
from repro.loads import AlgebraicLoad, ParetoLoad
from repro.models import VariableLoadModel
from repro.numerics.quadrature import MAX_PANELS, integrate, integrate_rows
from repro.utility import (
    KAPPA_PAPER,
    AdaptiveUtility,
    PiecewiseLinearUtility,
    PowerLowUtility,
    RigidUtility,
)

mpmath.mp.dps = 30

#: Absolute agreement with the mpmath references.
ABS = 1e-12


class TestIntegrate:
    def test_polynomial(self):
        assert integrate(lambda x: 3.0 * x * x, 0.0, 2.0) == pytest.approx(8.0)

    def test_empty_interval(self):
        assert integrate(lambda x: x, 1.0, 1.0) == 0.0

    def test_semi_infinite_exponential(self):
        assert integrate(lambda x: np.exp(-x), 0.0, math.inf) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_step_function_with_breakpoint(self):
        f = lambda x: np.where(x >= 1.0, 1.0, 0.0)  # noqa: E731
        value = integrate(f, 0.0, 3.0, points=[1.0])
        assert value == pytest.approx(2.0, abs=1e-9)

    def test_breakpoints_outside_interval_ignored(self):
        value = integrate(lambda x: x, 0.0, 1.0, points=[-5.0, 7.0])
        assert value == pytest.approx(0.5)

    def test_kinked_ramp(self):
        a = 0.5
        ramp = lambda x: np.clip((x - a) / (1 - a), 0.0, 1.0)  # noqa: E731
        value = integrate(ramp, 0.0, 2.0, points=[a, 1.0])
        # triangle from a to 1 (area (1-a)/2) plus unit strip from 1 to 2
        assert value == pytest.approx((1 - a) / 2 + 1.0, abs=1e-10)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 2.0, 1.0)


def _pareto_best_effort(z, pi, capacity):
    """``int_1^inf (z-1) k^{-z} k pi(C/k) dk`` in mpmath, split at ``C``."""
    z, c = mpmath.mpf(z), mpmath.mpf(capacity)
    f = lambda k: (z - 1) * k ** (-z) * k * pi(c / k)  # noqa: E731
    cuts = [1, c, mpmath.inf] if c > 1 else [1, mpmath.inf]
    return mpmath.quad(f, cuts)


class TestAgainstMpmath:
    @pytest.mark.parametrize("capacity", [0.5, 2.0, 8.0, 30.0])
    def test_pareto_ramp_tail(self, capacity):
        """ParetoLoad(2.5) x ramp(a=0): the tail integrand is ~u**0.5 at u -> 0."""
        model = ContinuumModel(ParetoLoad(2.5), PiecewiseLinearUtility(0.0))
        want = _pareto_best_effort(2.5, lambda b: min(b, 1), capacity)
        assert abs(model.total_best_effort(capacity) - float(want)) < ABS

    @pytest.mark.parametrize("capacity", [0.5, 3.0, 20.0])
    def test_pareto_205_adaptive(self, capacity):
        model = ContinuumModel(ParetoLoad(2.05), AdaptiveUtility())
        kappa = mpmath.mpf(KAPPA_PAPER)
        want = _pareto_best_effort(2.05, lambda b: 1 - mpmath.exp(-b * b / (kappa + b)), capacity)
        assert abs(model.total_best_effort(capacity) - float(want)) < ABS

    @pytest.mark.parametrize("capacity", [0.5, 3.0])
    def test_pareto_205_ramp_endpoint(self, capacity):
        """ramp(a=0) under ParetoLoad(2.05): the tail integrand is ~u**0.05."""
        model = ContinuumModel(ParetoLoad(2.05), PiecewiseLinearUtility(0.0))
        want = _pareto_best_effort(2.05, lambda b: min(b, 1), capacity)
        assert abs(model.total_best_effort(capacity) - float(want)) < ABS

    def test_rigid_step_with_break_points(self):
        """``int_0^inf e^{-k} k 1[k <= C] dk`` for three capacities, one call."""
        caps = np.array([0.5, 2.0, 7.5])
        rigid = RigidUtility(1.0)
        got = integrate_rows(
            lambda k, row: np.exp(-k) * k * rigid(caps[row] / k),
            0.0,
            math.inf,
            points=[[c] for c in caps],
        )
        for c, value in zip(caps, got):
            want = mpmath.quad(lambda k: mpmath.exp(-k) * k, [0, c])
            assert abs(value - float(want)) < ABS

    def test_em_plan_tail(self):
        """The Euler-Maclaurin tail of an EM-plan capacity grid."""
        load, pi = AlgebraicLoad.from_mean(3.0, 12.0), PowerLowUtility(2.0)
        model = VariableLoadModel(load, pi)
        caps, n0s = np.array([25.0, 40.0, 5000.0]), np.array([4096, 4096, 8192])
        got = model._euler_maclaurin_tails(caps, n0s)
        # the load's smooth pmf extension A (lam + x)^{-z}, in mpmath
        lam, norm, z = (mpmath.mpf(v) for v in (load._lam, load._norm, load.z))
        for c, n0, value in zip(caps, n0s, got):
            def f(x, c=mpmath.mpf(c)):
                return (lam + x) ** (-z) / norm * x * min(1, (c / x) ** 2)

            cuts = [n0, c, mpmath.inf] if c > n0 else [n0, mpmath.inf]
            want = mpmath.quad(f, cuts) + f(n0) / 2 - mpmath.diff(f, n0) / 12
            assert abs(value - float(want)) < ABS
            assert value == pytest.approx(float(want), rel=1e-9)


class TestBatch:
    def test_rows_equal_one_row_calls_bit_for_bit(self):
        caps = np.array([0.3, 1.0, 2.5, 9.0, 40.0])
        for load, pi in (
            (ParetoLoad(2.5), PiecewiseLinearUtility(0.0)),
            (ParetoLoad(2.05), AdaptiveUtility()),
            (ParetoLoad(3.0), PiecewiseLinearUtility(0.5)),
        ):
            model = ContinuumModel(load, pi, k_max_override=lambda c: c)
            for kernel in (model.best_effort_batch, model.reservation_batch):
                grid = kernel(caps)
                alone = np.array([kernel([c])[0] for c in caps])
                assert np.array_equal(grid, alone)

    def test_mixed_limits_and_points(self):
        lo, hi = np.array([0.0, 1.0, 2.0]), np.array([math.inf, 3.0, 2.0])
        points = [[0.5, 4.0], [2.0], []]
        f = lambda x, row: np.exp(-x) * (1.0 + row)  # noqa: E731
        got = integrate_rows(f, lo, hi, points=points)
        assert got == pytest.approx([1.0, 2.0 * (math.exp(-1.0) - math.exp(-3.0)), 0.0])
        for i in range(3):
            one = integrate_rows(
                lambda x, row, i=i: f(x, i), lo[i], hi[i], points=[points[i]]
            )
            assert one[0] == got[i]

    def test_panel_limit_raises_naming_the_label(self):
        # 1/x on (0, 1] diverges: halving the panel at 0 never shrinks its error
        with pytest.raises(ConvergenceError, match="divergent probe") as exc:
            integrate(lambda x: 1.0 / x, 0.0, 1.0, label="divergent probe")
        assert f"{MAX_PANELS} panels" in str(exc.value)

    def test_nan_integrand_is_refused(self):
        with pytest.raises(ConvergenceError, match="nan probe"):
            integrate(lambda x: np.full_like(x, np.nan), 0.0, 1.0, label="nan probe")
