"""Family-specific tests for the three discrete load distributions."""

import math

import pytest

from repro.errors import CalibrationError
from repro.loads import AlgebraicLoad, GeometricLoad, PoissonLoad, standard_loads
from repro.loads.continuum import ExponentialLoad, ParetoLoad


class TestPoissonLoad:
    def test_pmf_formula(self):
        load = PoissonLoad(4.0)
        assert load.pmf(2) == pytest.approx(math.exp(-4.0) * 16.0 / 2.0)

    def test_mean_tail_identity(self):
        # sum_{k>=n} k P(k) = nu P(K >= n-1)
        load = PoissonLoad(9.0)
        for n in (1, 5, 9, 20):
            brute = sum(k * load.pmf(k) for k in range(n, 200))
            assert load.mean_tail(n) == pytest.approx(brute, rel=1e-10)

    def test_deep_tail_precision(self):
        # the Poisson case's headline claim needs sf accurate at 1e-15+
        load = PoissonLoad(100.0)
        assert 0.0 < load.sf(200) < 1e-15

    def test_invalid_nu(self):
        with pytest.raises(ValueError):
            PoissonLoad(0.0)


class TestGeometricLoad:
    def test_paper_mean_formula(self):
        # the paper: k_bar = (e^beta - 1)^-1
        load = GeometricLoad(0.25)
        assert load.mean == pytest.approx(1.0 / (math.exp(0.25) - 1.0))

    def test_pmf_formula(self):
        load = GeometricLoad(0.5)
        q = math.exp(-0.5)
        assert load.pmf(3) == pytest.approx((1.0 - q) * q**3)

    def test_sf_closed_form(self):
        load = GeometricLoad(0.5)
        assert load.sf(4) == pytest.approx(math.exp(-0.5 * 5))

    def test_mean_tail_identity(self):
        load = GeometricLoad.from_mean(8.0)
        for n in (0, 1, 4, 16):
            brute = sum(k * load.pmf(k) for k in range(n, 2000))
            assert load.mean_tail(n) == pytest.approx(brute, rel=1e-10)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            GeometricLoad(0.0)
        with pytest.raises(ValueError):
            GeometricLoad.from_mean(-2.0)


class TestAlgebraicLoad:
    def test_tail_power_law(self):
        load = AlgebraicLoad(3.0, 5.0)
        # pmf(k)/pmf(2k) -> 2^z for large k
        ratio = load.pmf(4000) / load.pmf(8000)
        assert ratio == pytest.approx(2.0**3, rel=0.01)

    def test_requires_z_above_two(self):
        with pytest.raises(ValueError):
            AlgebraicLoad(2.0, 1.0)
        with pytest.raises(ValueError):
            AlgebraicLoad(1.5, 1.0)

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            AlgebraicLoad(3.0, -0.5)

    def test_mean_below_floor_uncalibratable(self):
        # at lam = 0 the mean has a positive floor; below it must raise
        with pytest.raises(CalibrationError):
            AlgebraicLoad.from_mean(3.0, 0.5)

    def test_support_starts_at_one(self):
        load = AlgebraicLoad(3.0, 2.0)
        assert load.pmf(0) == 0.0
        assert load.pmf(1) > 0.0
        assert load.support_min == 1

    def test_sf_closed_form_vs_brute(self):
        load = AlgebraicLoad.from_mean(3.0, 10.0)
        for k in (1, 5, 20):
            brute = sum(load.pmf(j) for j in range(k + 1, 400_000))
            assert load.sf(k) == pytest.approx(brute, rel=1e-3)

    def test_mean_tail_closed_form_vs_brute(self):
        load = AlgebraicLoad.from_mean(4.0, 10.0)  # faster tail for brute sum
        for n in (2, 10, 30):
            brute = sum(k * load.pmf(k) for k in range(n, 400_000))
            assert load.mean_tail(n) == pytest.approx(brute, rel=1e-4)

    def test_heavier_tail_than_geometric_at_same_mean(self):
        alg = AlgebraicLoad.from_mean(3.0, 20.0)
        geo = GeometricLoad.from_mean(20.0)
        assert alg.sf(200) > geo.sf(200)


class TestStandardLoads:
    def test_all_three_families_at_kbar(self):
        loads = standard_loads(kbar=50.0)
        assert set(loads) == {"poisson", "exponential", "algebraic"}
        for load in loads.values():
            assert load.mean == pytest.approx(50.0, rel=1e-6)

    def test_z_parameter_passed_through(self):
        loads = standard_loads(kbar=50.0, z=2.5)
        assert loads["algebraic"].z == 2.5


#: Every load constructor argument, as ``(id, build(value))``.
LOAD_ARGUMENTS = [
    ("poisson-nu", PoissonLoad),
    ("geometric-beta", GeometricLoad),
    ("geometric-from_mean-mean", GeometricLoad.from_mean),
    ("algebraic-z", lambda v: AlgebraicLoad(v, 1.0)),
    ("algebraic-lam", lambda v: AlgebraicLoad(3.0, v)),
    ("algebraic-from_mean-z", lambda v: AlgebraicLoad.from_mean(v, 10.0)),
    ("algebraic-from_mean-mean", lambda v: AlgebraicLoad.from_mean(3.0, v)),
    ("exponential_continuum-beta", ExponentialLoad),
    ("pareto_continuum-z", ParetoLoad),
]


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "build", [b for _, b in LOAD_ARGUMENTS], ids=[i for i, _ in LOAD_ARGUMENTS]
)
def test_non_finite_parameters_refused(build, value):
    # NaN passes every `x <= bound` check, and inf made loads whose pmf
    # and sf are NaN; both are refused where the load is built
    with pytest.raises(ValueError, match="finite"):
        build(value)
