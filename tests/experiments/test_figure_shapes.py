"""Figure-shape assertions at reduced scale.

The benchmark harness checks shapes at paper scale; these tests assert
the same qualitative structure on the FAST grids so a broken model
shape fails the ordinary test run, not just the benches.
"""

import numpy as np
import pytest

from repro.experiments import FAST_CONFIG, figure2, figure3, figure4
from repro.experiments.figures import retrying_series, sampling_series


@pytest.fixture(scope="module")
def fig2():
    return figure2(FAST_CONFIG)


@pytest.fixture(scope="module")
def fig3():
    return figure3(FAST_CONFIG)


@pytest.fixture(scope="module")
def fig4():
    return figure4(FAST_CONFIG)


class TestFigure2Shapes:
    def test_reservation_dominates_everywhere(self, fig2):
        for tag in ("rigid", "adaptive"):
            assert np.all(
                fig2[f"reservation_{tag}"] >= fig2[f"best_effort_{tag}"] - 1e-12
            )

    def test_poisson_gap_vanishes_past_kbar(self, fig2):
        late = fig2["capacity"] >= 2.0 * FAST_CONFIG.kbar
        assert np.all(fig2["bandwidth_gap_rigid"][late] < 1e-6)
        assert np.all(fig2["bandwidth_gap_adaptive"][late] < 1e-6)

    def test_adaptive_gamma_is_one(self, fig2):
        gamma = fig2["gamma_adaptive"]
        assert np.nanmedian(gamma) < 1.01


class TestFigure3Shapes:
    def test_rigid_gap_monotone_increasing(self, fig3):
        gaps = fig3["bandwidth_gap_rigid"]
        assert np.all(np.diff(gaps) > -1e-6)

    def test_adaptive_gap_peaks_then_decays(self, fig3):
        gaps = fig3["bandwidth_gap_adaptive"]
        peak = int(np.argmax(gaps))
        assert gaps[-1] < gaps[peak]

    def test_utilities_rise_with_capacity(self, fig3):
        for tag in ("rigid", "adaptive"):
            assert np.all(np.diff(fig3[f"best_effort_{tag}"]) > -1e-12)


class TestFigure4Shapes:
    def test_rigid_gap_grows_linearly(self, fig4):
        caps = fig4["capacity"]
        hi = caps >= 2.0 * FAST_CONFIG.kbar
        slope = np.polyfit(caps[hi], fig4["bandwidth_gap_rigid"][hi], 1)[0]
        assert slope == pytest.approx(1.0, abs=0.35)

    def test_adaptive_slope_far_smaller(self, fig4):
        caps = fig4["capacity"]
        hi = caps >= 2.0 * FAST_CONFIG.kbar
        rigid = np.polyfit(caps[hi], fig4["bandwidth_gap_rigid"][hi], 1)[0]
        adaptive = np.polyfit(caps[hi], fig4["bandwidth_gap_adaptive"][hi], 1)[0]
        assert 0.0 < adaptive < rigid / 20.0

    def test_gamma_bounded_away_from_one(self, fig4):
        gamma = fig4["gamma_rigid"]
        ok = ~np.isnan(gamma)
        assert gamma[ok].min() > 1.7


class TestExtensionSeries:
    def test_sampling_widens_gaps_everywhere(self):
        series = sampling_series("exponential", "adaptive", FAST_CONFIG)
        assert np.all(
            series["performance_gap_sampling"]
            >= series["performance_gap_basic"] - 1e-12
        )

    def test_retrying_amplifies_algebraic_gaps(self):
        series = retrying_series("algebraic", "adaptive", FAST_CONFIG)
        late = series["capacity"] >= 3.0 * FAST_CONFIG.kbar
        ratio = series["performance_gap_retrying"][late] / np.maximum(
            series["performance_gap_basic"][late], 1e-12
        )
        assert np.all(ratio > 3.0)

    def test_retrying_sweep_respects_validity_floor(self):
        series = retrying_series("algebraic", "adaptive", FAST_CONFIG)
        assert series["capacity"].min() >= 2.0 * FAST_CONFIG.kbar


class TestSamplingWelfareInvariance:
    def test_small_p_gamma_unchanged_by_sampling_exponential(self):
        """Section 5.1: sampling does not alter gamma(p->0) for the
        exponential load — provisioning still wins asymptotically."""
        from repro.loads import GeometricLoad
        from repro.models import SamplingModel, WelfareModel
        from repro.utility import AdaptiveUtility

        load = GeometricLoad.from_mean(FAST_CONFIG.kbar)
        u = AdaptiveUtility()
        welfare = WelfareModel(
            SamplingModel(load, u, 10),
            capacities=np.geomspace(
                0.3 * FAST_CONFIG.kbar, 40.0 * FAST_CONFIG.kbar, 140
            ),
        )
        lo, _ = welfare.price_range()
        small_p = max(2.0 * lo, 1e-4)
        assert welfare.equalizing_ratio(small_p) < 1.1


class TestContinuumSeries:
    def test_c1_registered_and_shaped(self):
        from repro.experiments import continuum_series, get

        assert get("C1").run is continuum_series
        series = continuum_series(FAST_CONFIG, points=12)
        caps = series["capacity_over_kbar"]
        for tag in ("rigid_exp", "adaptive_exp", "rigid_alg", "adaptive_alg"):
            b = series[f"best_effort_{tag}"]
            r = series[f"reservation_{tag}"]
            assert np.all(r >= b - 1e-12), tag
            assert np.all(np.diff(b) > 0.0), tag
        # the algebraic gaps are exactly linear in C
        for tag in ("rigid_alg", "adaptive_alg"):
            ratio = series[f"bandwidth_gap_{tag}"] / caps
            assert np.ptp(ratio) < 1e-9, tag

    def test_c1_discrete_overlay_agreement(self):
        # the continuum rigid-exp Delta at C = 2 k_bar is close to the
        # discrete model's (scaled by k_bar) — the paper's "completely
        # equivalent in the asymptotic case" statement, at finite C
        from repro.continuum import RigidExponentialContinuum
        from repro.loads import GeometricLoad
        from repro.models import VariableLoadModel
        from repro.utility import RigidUtility

        kbar = 100.0
        discrete = VariableLoadModel(
            GeometricLoad.from_mean(kbar), RigidUtility(1.0)
        ).bandwidth_gap(2.0 * kbar)
        continuum = kbar * RigidExponentialContinuum(1.0).bandwidth_gap(2.0)
        assert discrete == pytest.approx(continuum, rel=0.15)
