"""``PoissonLoad`` against ``scipy.stats.poisson``, bit for bit.

``PoissonLoad`` evaluates the formulas ``scipy.stats.poisson`` does,
``exp(xlogy(k, nu) - gammaln(k + 1) - nu)`` and ``pdtrc(floor(k), nu)``,
straight from ``scipy.special``, with scipy's support rules: the pmf
is 0 off the nonnegative integers, the sf is 1 below 0, and NaN in
gives NaN out.  Every census sum and golden pin goes through these two
formulas, so equality here is what keeps those numbers where they were.
"""

import warnings

import numpy as np
import pytest
from scipy import stats

from repro.loads import PoissonLoad

NUS = np.geomspace(1e-3, 1e9, 25)

#: Off-support and non-finite arguments, NaN included.
ODD_KS = np.array([-np.inf, -7.0, -1.0, -0.5, 0.5, 2.5, 1e3 + 0.25, np.nan, np.inf])


def _bits_equal(actual, expected) -> None:
    actual = np.atleast_1d(np.asarray(actual, dtype=float))
    expected = np.atleast_1d(np.asarray(expected, dtype=float))
    assert actual.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    np.testing.assert_array_equal(actual[~nan].view(np.int64), expected[~nan].view(np.int64))


def _census(nu: float) -> np.ndarray:
    """Nonnegative integers across ``nu +- 40 sqrt(nu)`` (float64)."""
    spread = 40.0 * np.sqrt(nu)
    return np.unique(np.floor(np.linspace(max(0.0, nu - spread), nu + spread, 121)))


@pytest.mark.parametrize("nu", NUS, ids=lambda nu: f"{nu:.3g}")
class TestAgainstScipy:
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_arrays_on_the_census(self, nu, dtype):
        load, oracle = PoissonLoad(nu), stats.poisson(nu)
        ks = _census(nu).astype(dtype)
        _bits_equal(load.pmf_array(ks), oracle.pmf(ks))
        _bits_equal(load.sf_array(ks), oracle.sf(ks))

    def test_arrays_off_the_support(self, nu):
        # negative, non-integer and infinite k, mixed into one array with
        # the census so masking cannot shift the values it keeps
        load, oracle = PoissonLoad(nu), stats.poisson(nu)
        ks = np.concatenate([ODD_KS, _census(nu)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf, both sides
            _bits_equal(load.pmf_array(ks), oracle.pmf(ks))
            _bits_equal(load.sf_array(ks), oracle.sf(ks))

    def test_nan_gives_nan(self, nu):
        load = PoissonLoad(nu)
        for method in (load.pmf_array, load.sf_array):
            assert np.isnan(method(np.array([np.nan]))).all()
            assert np.isnan(method(np.nan))

    def test_scalar_views_and_mean_tail(self, nu):
        load, oracle = PoissonLoad(nu), stats.poisson(nu)
        for k in [0, 1, 2, *_census(nu)[::10].astype(int).tolist()]:
            _bits_equal(load.pmf(k), float(oracle.pmf(k)))
            _bits_equal(load.sf(k), float(oracle.sf(k)))
            # sum_{k >= n} k P(k) = nu P(K > n - 2), below n = 1 the mean
            _bits_equal(load.mean_tail(k), nu if k <= 0 else nu * float(oracle.sf(k - 2)))

