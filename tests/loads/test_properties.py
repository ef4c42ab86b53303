"""Property-based tests of the discrete load-distribution contract."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.loads import AlgebraicLoad, GeometricLoad, PoissonLoad

LOADS = [
    PoissonLoad(12.0),
    PoissonLoad(100.0),
    GeometricLoad.from_mean(12.0),
    GeometricLoad.from_mean(100.0),
    AlgebraicLoad.from_mean(3.0, 12.0),
    AlgebraicLoad.from_mean(2.5, 12.0),
    AlgebraicLoad.from_mean(4.0, 40.0),
]
#: Families with a smooth pmf extension (Poisson has none: its mass
#: window keeps it off the Euler-Maclaurin path).
SMOOTH = [load for load in LOADS if not isinstance(load, PoissonLoad)]


def pytest_generate_tests(metafunc):
    """Run every contract test on every load, the smooth-extension test
    on the families that define one."""
    if metafunc.cls is TestLoadContract:
        smooth = metafunc.function.__name__ == "test_continuous_pmf_interpolates"
        loads = SMOOTH if smooth else LOADS
        metafunc.parametrize("load", loads, ids=[repr(load) for load in loads])


class TestLoadContract:
    def test_pmf_normalised(self, load):
        # pmf sums to 1 minus a tail bounded by sf at the cut
        cut = int(40 * load.mean)
        total = float(np.sum(load.pmf_array(np.arange(cut + 1, dtype=float))))
        assert total + load.sf(cut) == pytest.approx(1.0, abs=1e-6)

    def test_mean_matches_pmf_sum(self, load):
        cut = int(400 * load.mean)
        ks = np.arange(cut, dtype=float)
        partial = float(np.dot(ks, load.pmf_array(ks)))
        assert partial + load.mean_tail(cut) == pytest.approx(load.mean, rel=1e-9)

    def test_sf_is_a_survival_function(self, load):
        values = [load.sf(k) for k in range(0, int(8 * load.mean), 3)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_sf_consistent_with_pmf(self, load):
        for k in (0, 1, 5, int(load.mean), int(3 * load.mean)):
            direct = load.sf(k) - load.sf(k + 1)
            assert direct == pytest.approx(load.pmf(k + 1), abs=1e-12)

    def test_mean_tail_decreasing(self, load):
        points = [1, 2, 5, int(load.mean), int(4 * load.mean)]
        tails = [load.mean_tail(n) for n in points]
        assert all(b <= a + 1e-12 for a, b in zip(tails, tails[1:]))

    def test_mean_tail_consistent_with_pmf(self, load):
        n = int(load.mean)
        direct = load.mean_tail(n) - load.mean_tail(n + 1)
        assert direct == pytest.approx(n * load.pmf(n), rel=1e-9, abs=1e-12)

    def test_mean_tail_at_support_start_is_mean(self, load):
        assert load.mean_tail(load.support_min) == pytest.approx(load.mean)

    def test_pmf_array_matches_scalar(self, load):
        ks = np.arange(0, 60, dtype=float)
        np.testing.assert_allclose(
            load.pmf_array(ks),
            [load.pmf(int(k)) for k in ks],
            rtol=1e-12,
        )

    def test_continuous_pmf_interpolates(self, load):
        for k in (2, 7, int(load.mean)):
            if k < load.support_min:
                continue
            assert load.continuous_pmf(float(k)) == pytest.approx(
                load.pmf(k), rel=1e-9
            )

    def test_rescaled_hits_target_mean(self, load):
        target = 1.7 * load.mean
        assert load.rescaled(target).mean == pytest.approx(target, rel=1e-6)

    def test_rescaled_preserves_family(self, load):
        assert type(load.rescaled(2.0 * load.mean)) is type(load)

    def test_invalid_k_rejected(self, load):
        with pytest.raises(ValueError):
            load.pmf(-1)
        with pytest.raises(ValueError):
            load.sf(-3)


class TestHypothesisMeans:
    @given(mean=st.floats(min_value=0.5, max_value=500.0))
    @settings(max_examples=40, deadline=None)
    def test_geometric_mean_roundtrip(self, mean):
        assert GeometricLoad.from_mean(mean).mean == pytest.approx(mean, rel=1e-9)

    @given(
        z=st.floats(min_value=2.2, max_value=5.0),
        mean=st.floats(min_value=5.0, max_value=300.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_algebraic_mean_roundtrip(self, z, mean):
        assert AlgebraicLoad.from_mean(z, mean).mean == pytest.approx(mean, rel=1e-6)

    @given(mean=st.floats(min_value=0.5, max_value=500.0))
    @settings(max_examples=40, deadline=None)
    def test_poisson_mean_is_nu(self, mean):
        assert PoissonLoad(mean).mean == mean
