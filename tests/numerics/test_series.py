"""Tests for the shared moment-tail table / polynomial-tail machinery."""

import numpy as np
import pytest

from repro.loads import AlgebraicLoad, GeometricLoad
from repro.numerics.series import (
    TAIL_DEGREE,
    power_series_tail,
    shared_moment_tail_table,
)
from repro.utility import AdaptiveUtility


class TestPowerSeriesTail:
    def test_small_polynomial_exact(self):
        # sum_j a_j S_j C**j with a*S = (1, 2, 3): 1 + 2C + 3C^2
        caps = np.array([0.0, 1.0, 2.0])
        out = power_series_tail([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], caps)
        np.testing.assert_allclose(out, 1.0 + 2.0 * caps + 3.0 * caps**2)

    def test_scalar_capacity_keeps_scalar_shape(self):
        out = power_series_tail([1.0, 2.0], [1.0, 1.0], 3.0)
        assert out.shape == ()
        assert float(out) == pytest.approx(7.0)

    def test_empty_grid_and_constant_series(self):
        assert power_series_tail([1.0, 2.0], [1.0, 1.0], np.array([])).size == 0
        out = power_series_tail([5.0], [2.0], np.array([1.0, 3.0]))
        np.testing.assert_array_equal(out, [10.0, 10.0])

    @staticmethod
    def _paper_weights(level):
        load = AlgebraicLoad.from_mean(3.0, 100.0)
        mac = AdaptiveUtility().maclaurin(TAIL_DEGREE)
        table = shared_moment_tail_table(load, level)
        assert table is not None
        return mac.coefficients, table

    def test_matches_horner_reference(self):
        coeffs, table = self._paper_weights(1024)
        caps = np.array([20.0, 100.0, 220.0, 400.0])
        out = power_series_tail(coeffs, table, caps)
        weights = np.asarray(coeffs, dtype=float) * np.asarray(table, dtype=float)
        ref = [
            float(np.polynomial.polynomial.polyval(c, weights)) for c in caps
        ]
        np.testing.assert_allclose(out, ref, rtol=1e-13)

    def test_large_capacity_rescale_path(self):
        """Past C ~ 1600 the raw power ladder overflows (C**96 = inf).

        The ldexp-rescaled path must agree with an extended-precision
        Horner reference instead of emitting inf/nan — this is the
        regression test for the welfare-envelope overflow bug.
        """
        level = 32768  # certified split point for capacities this deep
        coeffs, table = self._paper_weights(level)
        caps = np.array([2000.0, 6000.0, 12000.0])
        with np.errstate(over="raise", invalid="raise"):
            out = power_series_tail(coeffs, table, caps)
        assert np.all(np.isfinite(out))
        weights = (
            np.asarray(coeffs, dtype=np.longdouble)
            * np.asarray(table, dtype=np.longdouble)
        )
        ref = []
        for c in caps:
            acc = np.longdouble(0.0)
            for w in weights[::-1]:
                acc = acc * np.longdouble(c) + w
            ref.append(float(acc))
        np.testing.assert_allclose(out, ref, rtol=1e-11)


class TestSharedMomentTailTable:
    def test_memoised_per_load_value(self):
        # two distinct but equal loads share one table object: the cache
        # keys by value semantics, which is what lets every model over
        # the same distribution reuse the work
        a = GeometricLoad.from_mean(10.0)
        b = GeometricLoad.from_mean(10.0)
        assert a is not b
        table = shared_moment_tail_table(a, 64)
        assert shared_moment_tail_table(b, 64) is table

    def test_infeasible_level_memoises_none(self):
        calls = []

        class _Probe(GeometricLoad):
            def moment_tail_table(self, n, degree):
                calls.append(n)
                return None

            def __repr__(self):
                return f"_Probe({self._q!r})"

        load = _Probe.from_mean(10.0)
        assert shared_moment_tail_table(load, 128) is None
        assert shared_moment_tail_table(load, 128) is None
        assert calls == [128]  # the discovery is paid for exactly once
