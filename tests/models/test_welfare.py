"""Tests for the Section 4 welfare model."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.experiments.params import DEFAULT_CONFIG
from repro.loads import AlgebraicLoad, GeometricLoad, PoissonLoad
from repro.models import Architecture, VariableLoadModel, WelfareModel
from repro.utility import AdaptiveUtility, RigidUtility
from tests.golden.welfare_reference import dense_reference

#: The golden figure pins' price grid (tests/golden/generate.py).
GOLDEN_PRICES = np.geomspace(1e-3, 0.2, 10)


@pytest.fixture
def rigid_welfare(geometric_load):
    return WelfareModel(VariableLoadModel(geometric_load, RigidUtility(1.0)))


@pytest.fixture
def adaptive_welfare(geometric_load):
    return WelfareModel(VariableLoadModel(geometric_load, AdaptiveUtility()))


class TestProvisioning:
    def test_reservation_capacity_decreases_with_price(self, rigid_welfare):
        caps = [
            rigid_welfare.optimal_capacity(p, Architecture.RESERVATION)
            for p in (0.02, 0.05, 0.15)
        ]
        assert caps[0] >= caps[1] >= caps[2]

    def test_rigid_best_effort_optimum_is_a_welfare_max(self, rigid_welfare):
        p = 0.05
        c_star = rigid_welfare.optimal_capacity(p, Architecture.BEST_EFFORT)
        w_star = rigid_welfare.welfare_best_effort(p)
        model = rigid_welfare.model
        assert model.total_best_effort(c_star) - p * c_star == pytest.approx(w_star)
        for c in np.arange(0.0, 4.0 * model.mean_load, 1.0):
            w = model.total_best_effort(float(c)) - p * float(c)
            assert w <= w_star + 1e-9

    def test_rigid_reservation_optimum_is_a_welfare_max(self, rigid_welfare):
        p = 0.05
        w_star = rigid_welfare.welfare_reservation(p)
        model = rigid_welfare.model
        for c in np.arange(0.0, 6.0 * model.mean_load, 1.0):
            w = model.total_reservation(float(c)) - p * float(c)
            assert w <= w_star + 1e-9

    def test_smooth_optimum_satisfies_foc(self, adaptive_welfare):
        p = 0.05
        c_star = adaptive_welfare.optimal_capacity(p, Architecture.BEST_EFFORT)
        h = 1e-3
        low, high = adaptive_welfare.model.total_best_effort_batch(
            [c_star - h, c_star + h]
        )
        assert (high - low) / (2 * h) == pytest.approx(p, rel=1e-6)

    def test_smooth_optimum_beats_neighbours(self, adaptive_welfare):
        p = 0.05
        c_star = adaptive_welfare.optimal_capacity(p, Architecture.BEST_EFFORT)
        w_star = adaptive_welfare.welfare_best_effort(p)
        model = adaptive_welfare.model
        for c in (0.5 * c_star, 0.9 * c_star, 0.999 * c_star, 1.001 * c_star, 2.0 * c_star):
            assert model.total_best_effort(c) - p * c <= w_star

    def test_exorbitant_price_builds_nothing(self, adaptive_welfare):
        decision = adaptive_welfare.provision(5.0, Architecture.BEST_EFFORT)
        assert decision.capacity == 0.0
        assert decision.welfare == 0.0

    def test_invalid_price_rejected(self, adaptive_welfare):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                adaptive_welfare.provision(bad, Architecture.BEST_EFFORT)


class TestWelfareOrdering:
    @pytest.mark.parametrize("price", [0.02, 0.05, 0.1])
    def test_reservation_welfare_dominates(
        self, rigid_welfare, adaptive_welfare, price
    ):
        # W_R(p) >= W_B(p) always (the paper's inequality), exactly
        for w in (rigid_welfare, adaptive_welfare):
            assert w.welfare_reservation(price) >= w.welfare_best_effort(price)

    def test_welfare_decreasing_in_price(self, adaptive_welfare):
        values = [
            adaptive_welfare.welfare_reservation(p) for p in (0.01, 0.05, 0.2)
        ]
        assert values[0] > values[1] > values[2]


class TestEqualizingRatio:
    def test_at_least_one(self, rigid_welfare, adaptive_welfare):
        for w in (rigid_welfare, adaptive_welfare):
            assert w.equalizing_ratio(0.05) >= 1.0

    def test_equalizing_price_equalises(self, rigid_welfare, adaptive_welfare):
        p = 0.05
        for welfare in (rigid_welfare, adaptive_welfare):
            p_hat = welfare.equalizing_price(p)
            assert welfare.welfare_reservation(p_hat) == pytest.approx(
                welfare.welfare_best_effort(p), rel=1e-9
            )

    def test_adaptive_ratio_smaller_than_rigid(
        self, rigid_welfare, adaptive_welfare
    ):
        # adaptivity shrinks the case for reservations
        p = 0.05
        assert adaptive_welfare.equalizing_ratio(p) < rigid_welfare.equalizing_ratio(p)

    def test_zero_welfare_price_raises(self, rigid_welfare):
        # price above the largest best-effort increment: W_B = 0
        with pytest.raises(ModelError, match="zero"):
            rigid_welfare.equalizing_price(0.9)


class TestEnvelope:
    def test_envelope_monotone(self, adaptive_welfare):
        for architecture in Architecture:
            env = adaptive_welfare.envelope(architecture)
            assert np.all(np.diff(env["capacity"]) > 0.0)
            assert np.all(np.diff(env["total_utility"]) >= 0.0)

    def test_envelope_welfare_matches_exact(self, adaptive_welfare):
        # the polish only ever raises the table argmax, and not by much
        env = adaptive_welfare.envelope(Architecture.BEST_EFFORT)
        for p in (0.3, 0.05, 0.01):
            on_table = np.max(env["total_utility"] - p * env["capacity"])
            exact = adaptive_welfare.welfare_best_effort(p)
            assert on_table <= exact
            assert on_table == pytest.approx(exact, rel=1e-3)

    def test_rigid_envelope_tabulates_steps(self, rigid_welfare):
        env = rigid_welfare.envelope(Architecture.RESERVATION)
        assert np.array_equal(env["capacity"], np.arange(env["capacity"].size))
        # reservation increments are survival probabilities <= 1
        steps = np.diff(env["total_utility"])
        assert np.all(steps >= -1e-12) and np.all(steps <= 1.0)

    def test_ratio_curve_matches_exact(self, rigid_welfare):
        # the rigid table is exact: gamma from the jump points themselves
        prices = [0.03, 0.08]
        curve = rigid_welfare.ratio_curve(prices)
        ref = dense_reference(rigid_welfare.model, prices, c_lo=1.0, c_hi=400.0)
        np.testing.assert_allclose(curve["gamma"], ref["gamma"], rtol=1e-12)

    def test_ratio_curve_nan_outside_range(self, adaptive_welfare):
        curve = adaptive_welfare.ratio_curve([1e9])
        assert np.isnan(curve["gamma"][0])


def _small_model(load: str, utility: str) -> VariableLoadModel:
    loads = {
        "poisson": PoissonLoad(20.0),
        "geometric": GeometricLoad.from_mean(16.0),
        "algebraic": AlgebraicLoad.from_mean(3.0, 12.0),
    }
    utilities = {"rigid": RigidUtility(1.0), "adaptive": AdaptiveUtility()}
    return VariableLoadModel(loads[load], utilities[utility])


class TestDenseReference:
    """The kernel against an independent dense argmax (no root finder)."""

    PRICES = np.concatenate([np.geomspace(3e-3, 0.15, 9), [0.2, 0.25, 0.3]])

    @pytest.mark.parametrize("utility", ["rigid", "adaptive"])
    @pytest.mark.parametrize("load", ["poisson", "geometric", "algebraic"])
    def test_matches_dense_reference(self, load, utility):
        model = _small_model(load, utility)
        kbar = model.mean_load
        ref = dense_reference(
            model, self.PRICES, c_lo=kbar / 8.0, c_hi=96.0 * kbar, points=20_000
        )
        welfare = WelfareModel(_small_model(load, utility))
        gamma = welfare.equalizing_ratio_batch(self.PRICES)
        np.testing.assert_allclose(gamma, ref["gamma"], rtol=1e-9)
        for architecture, key in (
            (Architecture.BEST_EFFORT, "best_effort"),
            (Architecture.RESERVATION, "reservation"),
        ):
            got = welfare.provision_batch(self.PRICES, architecture)["welfare"]
            np.testing.assert_allclose(got, ref[f"welfare_{key}"], rtol=1e-9)


    @pytest.mark.parametrize("load", ["geometric", "algebraic"])
    def test_matches_dense_reference_as_best_effort_welfare_vanishes(self, load):
        # loads with mass at small k: as W_B -> 0 the tangent point falls
        # to about one flow's best share b* ~ 1, far below k_bar / 16
        kbar = 40.0
        if load == "geometric":
            dist = GeometricLoad.from_mean(kbar)
        else:
            dist = AlgebraicLoad.from_mean(3.0, kbar)
        model = VariableLoadModel(dist, AdaptiveUtility())
        caps = np.geomspace(0.25, 96.0 * kbar, 20_000)
        p_zero = np.max(model.total_best_effort_batch(caps) / caps)
        prices = p_zero * (1.0 - np.array([1e-2, 1e-3, 1e-4]))
        ref = dense_reference(model, prices, c_lo=0.25, c_hi=96.0 * kbar, points=20_000)
        welfare = WelfareModel(VariableLoadModel(dist, AdaptiveUtility()))
        np.testing.assert_allclose(
            welfare.equalizing_ratio_batch(prices), ref["gamma"], rtol=1e-9
        )


class TestPaperPairs:
    """All six (load, utility) pairs at the paper's parameters."""

    PRICES = np.unique(np.concatenate([DEFAULT_CONFIG.prices, GOLDEN_PRICES]))

    @pytest.mark.parametrize("utility", ["rigid", "adaptive"])
    @pytest.mark.parametrize("load", ["poisson", "exponential", "algebraic"])
    def test_exact_inequalities_and_views(self, load, utility):
        cfg = DEFAULT_CONFIG
        welfare = WelfareModel(VariableLoadModel(cfg.load(load), cfg.utility(utility)))
        gamma = welfare.equalizing_ratio_batch(self.PRICES)
        best = welfare.provision_batch(self.PRICES, Architecture.BEST_EFFORT)
        res = welfare.provision_batch(self.PRICES, Architecture.RESERVATION)
        live = ~np.isnan(gamma)
        assert np.all(gamma[live] >= 1.0)
        assert np.all(res["welfare"] >= best["welfare"])
        for curve in (best, res):
            assert np.all(np.diff(curve["capacity"]) <= 0.0)
        # one-element views agree with the grid call
        for i in (0, 7, len(self.PRICES) - 1):
            p = float(self.PRICES[i])
            if live[i]:
                assert welfare.equalizing_ratio(p) == pytest.approx(gamma[i], rel=1e-12)
            assert welfare.welfare_best_effort(p) == pytest.approx(
                best["welfare"][i], rel=1e-12, abs=1e-12
            )
            decision = welfare.provision(p, Architecture.RESERVATION)
            assert decision.welfare == pytest.approx(
                res["welfare"][i], rel=1e-12, abs=1e-12
            )
            # W is flat at its optimum, so the argmax C(p) is only
            # sqrt(eps W / |V''|)-conditioned: ~3e-4 absolute at C ~ 2000
            assert decision.capacity == pytest.approx(res["capacity"][i], rel=1e-6)


class TestCapacityTable:
    def test_given_capacities_are_the_table(self, geometric_load):
        caps = np.geomspace(4.0, 400.0, 90)
        welfare = WelfareModel(
            VariableLoadModel(geometric_load, AdaptiveUtility()), capacities=caps
        )
        np.testing.assert_array_equal(
            welfare.envelope(Architecture.BEST_EFFORT)["capacity"], caps
        )

    def test_too_small_table_rejected(self, geometric_load):
        with pytest.raises(ModelError):
            WelfareModel(
                VariableLoadModel(geometric_load, AdaptiveUtility()),
                capacities=[1.0, 2.0],
            )

    def test_optimum_off_the_table_is_nan_and_refused(self, geometric_load):
        welfare = WelfareModel(
            VariableLoadModel(geometric_load, AdaptiveUtility()),
            capacities=np.geomspace(4.0, 40.0, 30),
        )
        assert np.isnan(welfare.equalizing_ratio_batch([1e-4])[0])
        with pytest.raises(ModelError, match="outside"):
            welfare.provision(1e-4, Architecture.BEST_EFFORT)

    def test_tangent_off_the_table_is_nan_and_refused(self, geometric_load):
        # just below the zero-welfare price the tangent point (~1) lies
        # below a table that starts under C_B: the C_B candidate alone
        # would only be a lower bound on p_hat
        model = VariableLoadModel(geometric_load, AdaptiveUtility())
        caps = np.geomspace(0.25, 1200.0, 20_000)
        p = float(np.max(model.total_best_effort_batch(caps) / caps)) * (1.0 - 1e-3)
        c_b = WelfareModel(model).optimal_capacity(p, Architecture.BEST_EFFORT)
        welfare = WelfareModel(model, capacities=np.geomspace(0.5 * c_b, 1200.0, 200))
        assert welfare.welfare_best_effort(p) > 0.0
        assert np.isnan(welfare.equalizing_ratio_batch([p])[0])
        with pytest.raises(ModelError, match="outside"):
            welfare.equalizing_ratio(p)
