"""Surface fitting, certification refusal and domain policing.

These tests drive the Chebyshev machinery with cheap synthetic
functions so the contract — dense-sample certification, refuse rather
than extrapolate, serialisation fidelity — is exercised without the
exact solvers in the loop.  The real-solver integration lives in
``test_bank.py`` and the EM invariants.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.emulator import (
    CertificationError,
    ChebyshevSurface,
    ErrorBudget,
    OutOfDomainError,
    fit_surface,
    surfaces_summary,
)
from repro.emulator.surfaces import BOUND_FLOOR, SAFETY_FACTOR


def smooth(xs):
    """An analytic stand-in: entire, gap-like shape, cheap."""
    xs = np.asarray(xs, dtype=float)
    return np.exp(-xs / 100.0) + 0.01 * xs


@pytest.fixture(scope="module")
def surface():
    return fit_surface(
        smooth,
        quantity="delta",
        load="poisson",
        utility="adaptive",
        xname="capacity",
        lo=20.0,
        hi=400.0,
        degree=16,
        budget=ErrorBudget(atol=1e-6),
    )


class TestCertification:
    def test_certified_bound_is_safety_factor_times_observed(self, surface):
        assert surface.certified_bound == pytest.approx(
            max(SAFETY_FACTOR * surface.observed_residual, BOUND_FLOOR)
        )
        assert surface.certified_bound <= surface.allowance

    def test_fresh_probes_stay_inside_the_bound(self, surface):
        # disjoint from both the fit nodes and the certification grid
        xs = 20.0 + (400.0 - 20.0) * (np.arange(37) + np.sqrt(0.5)) / 37
        err = np.abs(surface.evaluate(xs) - smooth(xs))
        assert float(np.max(err)) <= surface.certified_bound

    def test_underparameterised_fit_refuses_to_certify(self):
        # a kink is unreachable for a low-degree polynomial at this atol
        with pytest.raises(CertificationError, match="exceeds the allowance"):
            fit_surface(
                lambda xs: np.abs(np.asarray(xs) - 200.0),
                quantity="delta",
                load="poisson",
                utility="adaptive",
                xname="capacity",
                lo=20.0,
                hi=400.0,
                degree=8,
                budget=ErrorBudget(atol=1e-8),
            )

    def test_non_finite_exact_values_refuse(self):
        def blows_up(xs):
            xs = np.asarray(xs, dtype=float)
            return np.where(xs > 300.0, np.inf, xs)

        with pytest.raises(CertificationError, match="non-finite"):
            fit_surface(
                blows_up,
                quantity="delta",
                load="poisson",
                utility="adaptive",
                xname="capacity",
                lo=20.0,
                hi=400.0,
                degree=8,
                budget=ErrorBudget(atol=1.0),
            )

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            ErrorBudget(atol=-1.0)
        with pytest.raises(ValueError):
            ErrorBudget(atol=0.0, rtol=0.0)

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ValueError, match="lo < hi"):
            fit_surface(
                smooth,
                quantity="delta",
                load="poisson",
                utility="adaptive",
                xname="capacity",
                lo=400.0,
                hi=20.0,
                degree=8,
                budget=ErrorBudget(atol=1.0),
            )


class TestDomainPolicing:
    @pytest.mark.parametrize("x", [10.0, 19.999, 400.001, 900.0])
    def test_eval_scalar_refuses_out_of_domain(self, surface, x):
        with pytest.raises(OutOfDomainError, match="outside the fitted"):
            surface.eval_scalar(x)

    def test_evaluate_refuses_and_names_the_offender(self, surface):
        with pytest.raises(OutOfDomainError, match="first offender 900"):
            surface.evaluate([50.0, 900.0])

    def test_endpoints_are_inside(self, surface):
        assert surface.eval_scalar(20.0) == pytest.approx(smooth(20.0), abs=1e-5)
        assert surface.eval_scalar(400.0) == pytest.approx(smooth(400.0), abs=1e-5)

    def test_contains_is_elementwise(self, surface):
        np.testing.assert_array_equal(
            surface.contains([10.0, 20.0, 200.0, 400.0, 401.0]),
            [False, True, True, True, False],
        )


class TestEvaluation:
    def test_clenshaw_matches_numpy_chebval(self, surface):
        # eval_scalar is a hand-rolled recurrence; hold it to the
        # vectorised numpy evaluation at float precision
        xs = np.linspace(20.0, 400.0, 101)
        vec = surface.evaluate(xs)
        scl = np.array([surface.eval_scalar(x) for x in xs])
        np.testing.assert_allclose(scl, vec, rtol=1e-12, atol=1e-12)

    def test_log_x_surface(self):
        surf = fit_surface(
            lambda ps: np.log(np.asarray(ps)) ** 2,
            quantity="gamma",
            load="poisson",
            utility="adaptive",
            xname="price",
            lo=1e-3,
            hi=0.3,
            degree=12,
            budget=ErrorBudget(atol=1e-6),
            log_x=True,
        )
        ps = np.geomspace(1e-3, 0.3, 23)
        np.testing.assert_allclose(
            surf.evaluate(ps), np.log(ps) ** 2, atol=surf.certified_bound
        )
        assert surf.eval_scalar(0.01) == pytest.approx(np.log(0.01) ** 2, abs=1e-6)


class TestSerialisation:
    def test_round_trip_preserves_everything(self, surface):
        clone = ChebyshevSurface.from_dict(surface.to_dict())
        assert clone == surface
        assert clone.eval_scalar(123.0) == surface.eval_scalar(123.0)

    def test_kind_dispatch(self, surface):
        with pytest.raises(ValueError, match="not a chebyshev1d surface"):
            ChebyshevSurface.from_dict({**surface.to_dict(), "kind": "spline"})

    def test_summary_renders_every_surface(self, surface):
        text = surfaces_summary([surface])
        assert "delta/poisson/adaptive" in text
        assert "bound" in text

