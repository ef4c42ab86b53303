"""Tests for scalar maximisation."""

import math

import pytest

from repro.numerics.optimize import maximize_scalar


class TestMaximizeScalar:
    def test_parabola_peak(self):
        x, v = maximize_scalar(lambda t: -(t - 2.5) ** 2 + 7.0, 0.0, 10.0)
        assert x == pytest.approx(2.5, abs=1e-6)
        assert v == pytest.approx(7.0, abs=1e-10)

    def test_peak_at_boundary(self):
        x, v = maximize_scalar(lambda t: t, 0.0, 5.0)
        assert x == pytest.approx(5.0, abs=1e-4)
        assert v == pytest.approx(5.0, abs=1e-4)

    def test_degenerate_interval(self):
        x, v = maximize_scalar(lambda t: t * t, 3.0, 3.0)
        assert (x, v) == (3.0, 9.0)

    def test_no_polish_returns_grid_best(self):
        x, _ = maximize_scalar(
            lambda t: -(t - 0.5) ** 2, 0.0, 1.0, grid=4, polish=False
        )
        assert x == pytest.approx(0.5)

    def test_multimodal_picks_global_on_grid(self):
        # two peaks; the higher one (at 8) must win
        f = lambda t: math.exp(-((t - 2) ** 2)) + 2 * math.exp(-((t - 8) ** 2))  # noqa: E731
        x, _ = maximize_scalar(f, 0.0, 10.0, grid=128)
        assert x == pytest.approx(8.0, abs=1e-3)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            maximize_scalar(lambda t: t, 1.0, 0.0)
