"""Tests for model selection, goodness-of-fit, and tail estimation."""

import numpy as np
import pytest
from scipy import special, stats

from repro.inference import chi_square_gof, fit_all, hill_estimate, selection
from repro.loads import AlgebraicLoad, GeometricLoad, PoissonLoad


class TestFitAll:
    @pytest.mark.parametrize(
        "true,expected",
        [
            (PoissonLoad(30.0), "poisson"),
            (GeometricLoad.from_mean(30.0), "exponential"),
            (AlgebraicLoad.from_mean(3.0, 30.0), "algebraic"),
        ],
        ids=["poisson", "geometric", "algebraic"],
    )
    def test_identifies_true_family(self, true, expected):
        samples = true.sample(np.random.default_rng(11), 8_000)
        assert fit_all(samples).best_name == expected

    def test_ranking_sorted_by_aic(self):
        samples = PoissonLoad(20.0).sample(np.random.default_rng(12), 3_000)
        sel = fit_all(samples)
        aics = [sel.fits[name].aic for name in sel.ranking()]
        assert aics == sorted(aics)

    def test_zeros_exclude_algebraic(self):
        samples = GeometricLoad.from_mean(5.0).sample(np.random.default_rng(13), 3_000)
        assert samples.min() == 0
        sel = fit_all(samples)
        assert "algebraic" not in sel.fits


class TestChiSquareGof:
    def test_accepts_true_model(self):
        true = PoissonLoad(15.0)
        samples = true.sample(np.random.default_rng(14), 5_000)
        _, p = chi_square_gof(true, samples)
        assert p > 0.01

    def test_rejects_wrong_model(self):
        samples = AlgebraicLoad.from_mean(3.0, 15.0).sample(
            np.random.default_rng(15), 5_000
        )
        _, p = chi_square_gof(PoissonLoad(15.0), samples)
        assert p < 1e-6

    def test_pooling_handles_sparse_tail(self):
        samples = GeometricLoad.from_mean(40.0).sample(
            np.random.default_rng(16), 2_000
        )
        stat, p = chi_square_gof(GeometricLoad.from_mean(40.0), samples)
        assert np.isfinite(stat) and 0.0 <= p <= 1.0

    def test_p_value_is_scipy_chi2_sf(self, monkeypatch):
        # the p-value comes from special.chdtrc; scipy.stats is the oracle,
        # at the degrees of freedom the pooling chose
        seen = []
        chdtrc = special.chdtrc

        def spy(dof, x):
            seen.append((dof, x))
            return chdtrc(dof, x)

        monkeypatch.setattr(selection.special, "chdtrc", spy)
        cases = [
            (PoissonLoad(15.0), PoissonLoad(15.0), 5_000),
            (PoissonLoad(15.0), PoissonLoad(16.0), 400),
            (AlgebraicLoad.from_mean(3.0, 15.0), PoissonLoad(15.0), 5_000),
            (GeometricLoad.from_mean(40.0), GeometricLoad.from_mean(40.0), 2_000),
            (GeometricLoad.from_mean(4.0), GeometricLoad.from_mean(3.0), 60),
        ]
        # p from 0 (underflow) through 1e-4 to 0.69, dof from 5 to 123
        for seed, (truth, fitted, size) in enumerate(cases):
            samples = truth.sample(np.random.default_rng(seed), size)
            stat, p = chi_square_gof(fitted, samples)
            dof, x = seen[-1]
            assert x == stat
            assert p == float(stats.chi2.sf(stat, dof))


class TestHillEstimate:
    def test_pure_pareto_recovery(self):
        # continuous Pareto with survival power alpha = 2 -> z = 3
        rng = np.random.default_rng(17)
        draws = np.ceil((1.0 - rng.random(50_000)) ** (-1.0 / 2.0)).astype(int)
        est = hill_estimate(draws, fraction=0.05)
        assert est.z_hat == pytest.approx(3.0, abs=0.35)
        assert est.heavy_tailed

    def test_light_tail_reads_heavy_z(self):
        samples = PoissonLoad(30.0).sample(np.random.default_rng(18), 20_000)
        est = hill_estimate(samples)
        assert est.z_hat > 6.0
        assert not est.heavy_tailed

    def test_shifted_algebraic_flagged_heavy(self):
        samples = AlgebraicLoad.from_mean(3.0, 30.0).sample(
            np.random.default_rng(19), 50_000
        )
        est = hill_estimate(samples, fraction=0.02)
        assert est.heavy_tailed
        # the shift biases Hill low; it must still land near the truth
        assert 2.0 < est.z_hat < 3.6

    def test_degenerate_top_values(self):
        est = hill_estimate([5] * 50 + [1] * 50, fraction=0.2)
        assert est.z_hat == np.inf

    def test_input_validation(self):
        with pytest.raises(ValueError):
            hill_estimate([1, 2, 3])
        with pytest.raises(ValueError):
            hill_estimate(np.arange(100), fraction=1.5)


class TestNearCriticalTail:
    """z near 2: the regime where the architecture question is sharpest."""

    def test_mle_recovers_z_near_two(self):
        true = AlgebraicLoad.from_mean(2.2, 30.0)
        samples = true.sample(np.random.default_rng(31), 30_000)
        from repro.inference import fit_algebraic

        fit = fit_algebraic(samples)
        assert fit.load.z == pytest.approx(2.2, abs=0.1)

    def test_hill_tracks_near_critical_tail(self):
        true = AlgebraicLoad.from_mean(2.2, 30.0)
        samples = true.sample(np.random.default_rng(31), 30_000)
        est = hill_estimate(samples, fraction=0.02)
        assert est.z_hat == pytest.approx(2.2, abs=0.3)
        assert est.heavy_tailed
