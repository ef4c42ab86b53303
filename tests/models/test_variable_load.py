"""Tests for the Section 3.1 discrete variable-load model."""

import numpy as np
import pytest

import repro.models.variable_load as vlm
from repro.loads import AlgebraicLoad, GeometricLoad, PoissonLoad
from repro.models import SamplingModel, VariableLoadModel
from repro.utility import (
    AdaptiveUtility,
    PiecewiseLinearUtility,
    PowerLowUtility,
    RigidUtility,
)
from tests.conftest import SMALL_MEAN


def brute_force_best_effort(load, utility, capacity, terms=100_000):
    """Reference implementation: direct truncated sum."""
    total = 0.0
    for k in range(1, terms):
        p = load.pmf(k)
        if p == 0.0 and k > 4 * load.mean:
            break
        total += p * k * utility.value(capacity / k)
    return total / load.mean


class TestBestEffort:
    def test_matches_brute_force(self, any_load, inelastic_utility):
        m = VariableLoadModel(any_load, inelastic_utility)
        for c in (4.0, 12.0, 30.0):
            expected = brute_force_best_effort(any_load, inelastic_utility, c)
            assert m.best_effort(c) == pytest.approx(expected, abs=2e-5)

    def test_zero_capacity(self, poisson_load, adaptive):
        assert VariableLoadModel(poisson_load, adaptive).best_effort(0.0) == 0.0

    def test_monotone_in_capacity(self, any_load, inelastic_utility):
        m = VariableLoadModel(any_load, inelastic_utility)
        values = [m.best_effort(c) for c in (5.0, 10.0, 20.0, 40.0, 80.0)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_approaches_one(self, poisson_load, adaptive):
        m = VariableLoadModel(poisson_load, adaptive)
        assert m.best_effort(2000.0) == pytest.approx(1.0, abs=1e-3)

    def test_rejects_negative_capacity(self, poisson_load, adaptive):
        with pytest.raises(ValueError):
            VariableLoadModel(poisson_load, adaptive).best_effort(-1.0)

    def test_caching_returns_identical_values(self, poisson_load, adaptive):
        m = VariableLoadModel(poisson_load, adaptive)
        assert m.best_effort(17.0) == m.best_effort(17.0)


def deep_dense_total(load, utility, capacity, deep=1 << 22):
    """``sum_{k<deep} P(k) k pi(C/k)`` and the bound on what it omits."""
    ks = np.arange(1, deep, dtype=float)
    kpk = ks * np.asarray(load.pmf_array(ks), dtype=float)
    total = float(kpk @ np.asarray(utility(capacity / ks), dtype=float))
    omitted = min(1.0, utility.value(capacity / deep)) * load.mean_tail(deep)
    return total, omitted


class TestEulerMaclaurinTail:
    """The EM branch: capacities the planner leaves open past the cap.

    The power-law utility has no Maclaurin series, so no level can
    close as TAIL; with ``BRUTE_FORCE_CAP`` shrunk the dense bound
    cannot close either, and the plan must be EM.
    """

    @pytest.fixture
    def shrunk_cap(self, monkeypatch):
        def shrink(cap):
            monkeypatch.setattr(vlm, "BRUTE_FORCE_CAP", cap)

        return shrink

    def _check_em(self, shrink, load, caps):
        u = PowerLowUtility(2.0)
        shrink(1 << 12)
        model = VariableLoadModel(load, u)
        modes, _ = model._plan_batch(np.asarray(caps))
        assert np.all(modes == vlm._MODE_EM)
        scalar = [model.total_best_effort(c) for c in caps]
        grid = VariableLoadModel(load, u).total_best_effort_batch(caps)
        for c, got_scalar, got_grid in zip(caps, scalar, grid):
            reference, omitted = deep_dense_total(load, u, c)
            assert got_scalar == pytest.approx(reference, abs=1e-9 + omitted)
            assert got_grid == pytest.approx(reference, abs=1e-9 + omitted)

    def test_em_mode_matches_brute_force(self, shrunk_cap):
        self._check_em(shrunk_cap, AlgebraicLoad.from_mean(3.0, 12.0), [25.0, 40.0])

    def test_em_mode_geometric(self, shrunk_cap):
        # a mean-2000 census keeps the geometric tail alive past 2^12
        self._check_em(shrunk_cap, GeometricLoad.from_mean(2000.0), [25.0, 40.0])


class TestReservation:
    def test_dominates_best_effort(self, any_load, inelastic_utility):
        # the paper's R(C) >= B(C), strict in all considered cases
        m = VariableLoadModel(any_load, inelastic_utility)
        for c in (3.0, 8.0, 15.0, 24.0, 60.0):
            assert m.reservation(c) >= m.best_effort(c) - 1e-12

    def test_strictly_better_under_overload(self, any_load, inelastic_utility):
        m = VariableLoadModel(any_load, inelastic_utility)
        c = 0.5 * any_load.mean
        assert m.reservation(c) > m.best_effort(c)

    def test_matches_definition(self, geometric_load, rigid):
        m = VariableLoadModel(geometric_load, rigid)
        c = 8.0
        kmax = m.k_max(c)
        expected = sum(
            geometric_load.pmf(k) * k for k in range(1, kmax + 1)
        ) + kmax * geometric_load.sf(kmax)
        assert m.total_reservation(c) == pytest.approx(expected, rel=1e-9)

    def test_zero_capacity(self, poisson_load, adaptive):
        assert VariableLoadModel(poisson_load, adaptive).reservation(0.0) == 0.0

    def test_below_support_yields_zero(self):
        load = AlgebraicLoad.from_mean(3.0, 12.0)
        m = VariableLoadModel(load, RigidUtility(1.0))
        assert m.reservation(0.5) == 0.0


class TestGaps:
    def test_performance_gap_nonnegative(self, any_load, inelastic_utility):
        m = VariableLoadModel(any_load, inelastic_utility)
        for c in (2.0, 10.0, 30.0, 100.0):
            assert m.performance_gap(c) >= 0.0

    def test_bandwidth_gap_solves_its_equation(self, any_load, inelastic_utility):
        m = VariableLoadModel(any_load, inelastic_utility)
        c = 8.0
        gap = m.bandwidth_gap(c)
        target = m.reservation(c)
        assert gap > 0.0
        if isinstance(inelastic_utility, RigidUtility):
            # B is a step function of C for rigid utilities: the gap is
            # the crossing point, bracketed within one step
            assert m.best_effort(c + gap + 0.51) >= target - 1e-9
            assert m.best_effort(c + max(gap - 0.51, 0.0)) <= target + 1e-9
        else:
            assert m.best_effort(c + gap) == pytest.approx(target, abs=1e-6)

    def test_gap_zero_when_gap_below_floor(self, poisson_load, adaptive):
        m = VariableLoadModel(poisson_load, adaptive)
        # far overprovisioned: utilities agree to machine precision
        assert m.bandwidth_gap(60.0 * poisson_load.mean) == 0.0

    def test_rigid_gap_larger_than_adaptive(self, any_load):
        rigid = VariableLoadModel(any_load, RigidUtility(1.0))
        adaptive = VariableLoadModel(any_load, AdaptiveUtility())
        c = any_load.mean
        assert rigid.bandwidth_gap(c) > adaptive.bandwidth_gap(c)

    def test_ramp_gap_decreases_with_adaptivity(self, geometric_load):
        c = geometric_load.mean
        gaps = [
            VariableLoadModel(geometric_load, PiecewiseLinearUtility(a)).bandwidth_gap(c)
            for a in (0.9, 0.5, 0.2)
        ]
        assert gaps[0] > gaps[1] > gaps[2]


class TestBlockingAndOverload:
    def test_overload_probability_is_sf_at_kmax(self, geometric_load, rigid):
        m = VariableLoadModel(geometric_load, rigid)
        c = 10.0
        assert m.overload_probability(c) == pytest.approx(
            geometric_load.sf(m.k_max(c))
        )

    def test_blocking_fraction_definition(self, geometric_load, rigid):
        m = VariableLoadModel(geometric_load, rigid)
        c = 10.0
        kmax = m.k_max(c)
        expected = sum(
            geometric_load.pmf(k) * (k - kmax) for k in range(kmax + 1, 3000)
        ) / geometric_load.mean
        assert m.blocking_fraction(c) == pytest.approx(expected, rel=1e-6)

    def test_blocking_decreases_with_capacity(self, any_load, rigid):
        m = VariableLoadModel(any_load, rigid)
        values = [m.blocking_fraction(c) for c in (5.0, 15.0, 40.0)]
        assert values[0] > values[1] > values[2]


class TestSweep:
    def test_sweep_matches_pointwise(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        caps = [5.0, 10.0, 20.0]
        out = m.sweep(caps)
        for i, c in enumerate(caps):
            assert out["best_effort"][i] == pytest.approx(m.best_effort(c))
            assert out["reservation"][i] == pytest.approx(m.reservation(c))
            assert out["bandwidth_gap"][i] == pytest.approx(m.bandwidth_gap(c))

    def test_sweep_without_gaps(self, geometric_load, adaptive):
        out = VariableLoadModel(geometric_load, adaptive).sweep(
            [5.0, 10.0], include_gaps=False
        )
        assert "bandwidth_gap" not in out

    def test_progress_callback_called(self, geometric_load, adaptive):
        seen = []
        VariableLoadModel(geometric_load, adaptive).sweep(
            [5.0, 10.0], include_gaps=False, progress=lambda i, n: seen.append((i, n))
        )
        assert seen == [(1, 2), (2, 2)]


class TestMarginals:
    """``V_B'(C) = sum_k P(k) pi'(C/k)``, the slope the welfare kernel's
    finite differences read off ``total_best_effort_batch``."""

    def test_best_effort_marginal_positive(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        low, high = m.total_best_effort_batch([9.99, 10.01])
        assert high > low

    def test_marginal_matches_slope(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        c, h = 15.0, 1e-3
        low, high = m.total_best_effort_batch([c - h, c + h])
        ks = np.arange(1, 4000)
        pk = geometric_load.pmf_array(ks)
        marginal = sum(p * adaptive.derivative(c / k) for p, k in zip(pk, ks))
        assert (high - low) / (2 * h) == pytest.approx(marginal, rel=1e-6)

    def test_invalid_tol_rejected(self, geometric_load, adaptive):
        with pytest.raises(ValueError):
            VariableLoadModel(geometric_load, adaptive, tol=0.0)


class TestThresholdSensitivity:
    """Suboptimal admission thresholds (trunk-reservation style)."""

    def test_optimum_at_k_max(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        c = geometric_load.mean
        k_star = m.k_max(c)
        best = m.reservation_at_threshold(c, k_star)
        for k in (k_star - 3, k_star - 1, k_star + 1, k_star + 3):
            if k >= 1:
                assert m.reservation_at_threshold(c, k) <= best + 1e-12

    def test_matches_reservation_at_k_max(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        c = 1.2 * geometric_load.mean
        assert m.reservation_at_threshold(c, m.k_max(c)) == pytest.approx(
            m.reservation(c), abs=1e-12
        )

    def test_huge_threshold_approaches_best_effort(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        c = geometric_load.mean
        loose = m.reservation_at_threshold(c, int(40 * geometric_load.mean))
        assert loose == pytest.approx(m.best_effort(c), abs=1e-3)

    def test_zero_threshold(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        assert m.reservation_at_threshold(10.0, 0) == 0.0

    def test_rigid_cliff_below_capacity(self, geometric_load, rigid):
        # rigid flows still succeed when the threshold is *below*
        # capacity, but utility is left on the table
        m = VariableLoadModel(geometric_load, rigid)
        c = geometric_load.mean
        tight = m.reservation_at_threshold(c, int(c) // 2)
        assert 0.0 < tight < m.reservation(c)

    def test_rigid_threshold_above_capacity_hurts(self, geometric_load, rigid):
        # admitting more rigid flows than capacity serves reintroduces
        # the best-effort failure mode
        m = VariableLoadModel(geometric_load, rigid)
        c = geometric_load.mean
        over = m.reservation_at_threshold(c, int(2 * c))
        assert over < m.reservation(c)

    def test_invalid_threshold(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        with pytest.raises(ValueError):
            m.reservation_at_threshold(10.0, -1)

    def test_grid_of_thresholds_matches_views(self, geometric_load, adaptive):
        # the welfare kernel reads the pieces V_R^m through the grid form;
        # rows far apart in k_max are summed in separate groups
        m = VariableLoadModel(geometric_load, adaptive)
        caps, ks = [3.0, 12.0, 0.0, 200.0, 40.0], [2, 11, 5, 190, 0]
        grid = m.total_reservation_at_thresholds(caps, ks)
        for c, k, got in zip(caps, ks, grid):
            fresh = VariableLoadModel(geometric_load, adaptive)
            assert got == pytest.approx(fresh.total_reservation_at_threshold(c, k), rel=1e-12)
        assert grid[2] == 0.0 and grid[4] == 0.0
        for bad in ([2.5] * 5, [-1] * 5, [1, 2]):
            with pytest.raises(ValueError):
                m.total_reservation_at_thresholds(caps, bad)


class TestCapacityPlanning:
    """Inverse queries: capacity for a target service level."""

    def test_best_effort_inverse(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        c = m.capacity_for_best_effort(0.7)
        assert m.best_effort(c) == pytest.approx(0.7, abs=1e-6)

    def test_reservation_inverse(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        c = m.capacity_for_reservation(0.7)
        assert m.reservation(c) == pytest.approx(0.7, abs=1e-6)

    def test_reservation_needs_less_capacity(self, any_load, adaptive):
        m = VariableLoadModel(any_load, adaptive)
        assert m.capacity_for_reservation(0.6) <= m.capacity_for_best_effort(0.6)

    def test_gap_consistency(self, geometric_load, adaptive):
        # capacity_for_best_effort(R(C)) - C is exactly the bandwidth gap
        m = VariableLoadModel(geometric_load, adaptive)
        c = geometric_load.mean
        target = m.reservation(c)
        assert m.capacity_for_best_effort(target) - c == pytest.approx(
            m.bandwidth_gap(c), abs=1e-6
        )

    def test_invalid_target(self, geometric_load, adaptive):
        m = VariableLoadModel(geometric_load, adaptive)
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                m.capacity_for_best_effort(bad)


_MODELS = {
    "poisson": lambda: VariableLoadModel(PoissonLoad(SMALL_MEAN), AdaptiveUtility()),
    "algebraic": lambda: VariableLoadModel(
        AlgebraicLoad.from_mean(3.0, SMALL_MEAN), AdaptiveUtility()
    ),
    "sampling": lambda: SamplingModel(PoissonLoad(SMALL_MEAN), AdaptiveUtility(), 3),
}


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("grid", [False, True], ids=["scalar", "batch"])
@pytest.mark.parametrize(
    "method", ["best_effort", "reservation", "performance_gap", "bandwidth_gap"]
)
@pytest.mark.parametrize("kind", sorted(_MODELS))
def test_non_finite_capacity_refused(kind, method, grid, bad):
    """NaN and +-inf are refused up front, never planned or summed."""
    model = _MODELS[kind]()
    with pytest.raises(ValueError, match="capacity must be finite"):
        if grid:
            getattr(model, f"{method}_batch")([10.0, bad])
        else:
            getattr(model, method)(bad)
