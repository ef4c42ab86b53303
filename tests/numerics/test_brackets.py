"""Tests for upward bracket expansion in the root finders."""

import numpy as np
import pytest

from repro.errors import BracketError
from repro.numerics.batch import find_roots
from repro.numerics.solvers import find_root


class TestExpandUpward:
    def test_finds_sign_change_beyond_initial_interval(self):
        result = find_roots(lambda x: x - 100.0, 0.0, 1.0, expand=True)
        assert result.all_converged
        assert bool(result.bracket_expanded[0])
        assert result.roots[0] == pytest.approx(100.0)

    def test_immediate_sign_change_kept(self):
        result = find_roots(lambda x: x - 0.5, 0.0, 1.0, expand=True)
        assert not bool(result.bracket_expanded[0])
        assert result.roots[0] == pytest.approx(0.5)

    def test_root_at_lo_returns_degenerate_bracket(self):
        # a zero at lo is the root itself, found without expanding
        result = find_roots(lambda x: x, 0.0, 1.0, expand=True)
        assert result.roots[0] == 0.0
        assert not bool(result.bracket_expanded[0])
        assert find_root(lambda x: x, 0.0, 1.0, expand=True) == 0.0

    def test_respects_upper_limit(self):
        with pytest.raises(BracketError, match="capped"):
            find_root(
                lambda x: x - 1e6, 0.0, 1.0, expand=True, upper_limit=100.0,
                label="capped",
            )
        result = find_roots(
            lambda x: x - 1e6, 0.0, 1.0, expand=True, upper_limit=100.0
        )
        assert np.isnan(result.roots[0])  # flagged, not clipped to 100
        assert not bool(result.converged[0])

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            find_root(lambda x: 1.0, 0.0, 1.0, expand=True, upper_limit=1e6)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError, match="lo <= hi"):
            find_roots(lambda x: x, 2.0, 1.0, expand=True)
        with pytest.raises(ValueError, match="lo <= hi"):
            find_roots(lambda x: x, np.array([0.0, 2.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="lo <= hi"):
            find_root(lambda x: x, 2.0, 1.0, expand=True)

    def test_exponential_scale_target(self):
        # root near 2^40: geometric growth must reach it in few steps
        root = find_root(lambda x: x - 2.0**40, 0.0, 1.0, expand=True)
        assert root == pytest.approx(2.0**40)
