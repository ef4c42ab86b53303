"""Tests for the exception hierarchy and its use across the package."""

import pytest

from repro.errors import (
    BracketError,
    CalibrationError,
    ConvergenceError,
    ModelError,
    ReproError,
)


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (BracketError, CalibrationError, ConvergenceError, ModelError):
            assert issubclass(exc, ReproError)

    def test_bracket_is_a_convergence_error(self):
        assert issubclass(BracketError, ConvergenceError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise BracketError("no bracket")


class TestRaisedWhereDocumented:
    def test_calibration_error_from_kappa(self, monkeypatch):
        import repro.utility.adaptive as adaptive

        monkeypatch.setattr(
            adaptive, "find_root", lambda *a, **k: 42.0
        )  # lands far outside the expected neighbourhood
        with pytest.raises(CalibrationError):
            adaptive.calibrate_kappa()

    def test_model_error_from_topology(self):
        from repro.network import NetworkTopology

        with pytest.raises(ModelError):
            NetworkTopology({}, [])

    def test_bracket_error_names_the_quantity(self):
        from repro.numerics import find_root

        with pytest.raises(BracketError, match="gap at C=42"):
            find_root(lambda x: 1.0, 0.0, 1.0, label="gap at C=42")
