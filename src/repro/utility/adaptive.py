"""Adaptive (rate- and delay-adaptive) utility — Equation 2 of the paper.

Internet audio/video applications adapt to the bandwidth they get, but
human perception makes very low rates nearly worthless and very high
rates barely better than merely good ones.  The paper models this with

    pi(b) = 1 - exp(-b**2 / (kappa + b))

which is convex near the origin (``pi(b) ~ b**2 / kappa`` for small
``b``) and approaches 1 like ``1 - exp(-b)`` for large ``b``.  The
constant ``kappa = 0.62086`` is chosen so that the fixed-load optimum
sits at one unit of bandwidth per flow, ``k_max(C) = C``, matching the
rigid case and making the two utility classes directly comparable.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.errors import CalibrationError
from repro.numerics.solvers import find_root
from repro.utility.base import MaclaurinExpansion, UtilityFunction

#: The paper's calibrated constant (footnote 4).
KAPPA_PAPER = 0.62086

#: Fraction of ``kappa`` used as the certified coefficient-envelope
#: radius.  ``pi`` is analytic in the disc ``|b| < kappa`` (the only
#: singularity is the essential one at ``b = -kappa``), so a Cauchy
#: estimate on the circle ``|b| = 0.8 kappa`` bounds every Maclaurin
#: coefficient by ``M / (0.8 kappa)**j`` with
#: ``M = 1 + exp(rho^2 / (kappa - rho))``.
_ENVELOPE_FRACTION = 0.8


class AdaptiveUtility(UtilityFunction):
    """Smooth sigmoid-like utility ``1 - exp(-b^2/(kappa+b))`` (Eq. 2)."""

    name = "adaptive"

    def __init__(self, kappa: float = KAPPA_PAPER):
        if kappa <= 0.0:
            raise ValueError(f"kappa must be > 0, got {kappa!r}")
        self._kappa = float(kappa)
        self._maclaurin_cache: Dict[int, MaclaurinExpansion] = {}

    @property
    def kappa(self) -> float:
        """Shape constant; larger kappa widens the low-value region."""
        return self._kappa

    def value(self, b: float) -> float:
        if b < 0.0:
            raise ValueError(f"bandwidth must be >= 0, got {b!r}")
        return 1.0 - math.exp(-b * b / (self._kappa + b))

    def _values(self, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        # 1 - exp(-b*b / (kappa + b)), operation for operation
        np.multiply(b, b, out=out)
        np.negative(out, out=out)
        np.divide(out, np.add(b, self._kappa, out=b), out=out)
        np.exp(out, out=out)
        return np.subtract(1.0, out, out=out)

    def derivative(self, b: float) -> float:
        """Exact marginal utility.

        d/db [b^2/(kappa+b)] = (b^2 + 2*kappa*b) / (kappa+b)^2, so
        pi'(b) = exp(-b^2/(kappa+b)) * (b^2 + 2*kappa*b) / (kappa+b)^2.
        """
        if b < 0.0:
            raise ValueError(f"bandwidth must be >= 0, got {b!r}")
        k = self._kappa
        exponent = math.exp(-b * b / (k + b))
        return exponent * (b * b + 2.0 * k * b) / ((k + b) ** 2)

    def maclaurin(self, degree: int) -> Optional[MaclaurinExpansion]:
        """Exact Maclaurin coefficients of ``1 - exp(-b^2/(kappa+b))``.

        Composed from the geometric series of the exponent,
        ``e(b) = b^2/(kappa+b) = sum_{m>=0} (-1)^m b^{m+2}/kappa^{m+1}``,
        through ``pi = sum_{i>=1} (-1)^{i+1} e^i / i!`` with every
        product truncated at ``degree`` — so the retained coefficients
        are the true ones up to float roundoff, and the envelope
        certificate is the Cauchy estimate described at
        :data:`_ENVELOPE_FRACTION`.
        """
        if degree < 2:
            return None
        cached = self._maclaurin_cache.get(int(degree))
        if cached is not None:
            return cached
        kappa = self._kappa
        exponent = np.zeros(degree + 1)
        for m in range(degree - 1):
            exponent[m + 2] = (-1.0) ** m / kappa ** (m + 1)
        coeffs = np.zeros(degree + 1)
        power = exponent.copy()  # e(b)^i, truncated at `degree`
        factorial = 1.0
        for i in range(1, degree + 1):
            coeffs += ((-1.0) ** (i + 1) / factorial) * power
            if 2 * (i + 1) > degree:
                break  # e^i starts at degree 2i: higher powers vanish
            factorial *= i + 1
            power = np.convolve(power, exponent)[: degree + 1]
        rho = _ENVELOPE_FRACTION * kappa
        bound = 1.0 + math.exp(rho * rho / (kappa - rho))
        expansion = MaclaurinExpansion(coeffs, radius=rho, bound=bound)
        self._maclaurin_cache[int(degree)] = expansion
        return expansion

    def __repr__(self) -> str:
        return f"AdaptiveUtility(kappa={self._kappa!r})"


def _stationarity_residual(kappa: float) -> float:
    """Residual of the condition placing the fixed-load optimum at b = 1.

    ``V(k) = k * pi(C/k)`` is stationary in ``k`` where
    ``pi(b) - b * pi'(b) = 0`` with ``b = C/k``; requiring that root at
    ``b = 1`` (so ``k_max(C) = C``) gives ``pi(1) = pi'(1)``.
    """
    u = AdaptiveUtility(kappa)
    return u.value(1.0) - u.derivative(1.0)


def calibrate_kappa(*, tol: float = 1e-12) -> float:
    """Solve for the kappa that puts ``k_max(C)`` exactly at ``C``.

    Reproduces the paper's footnote-4 constant 0.62086.  Raises
    :class:`CalibrationError` if the root is not where expected (which
    would indicate a broken utility implementation, not bad luck).
    """
    try:
        kappa = find_root(
            _stationarity_residual, 0.05, 5.0, xtol=tol, label="kappa calibration"
        )
    except Exception as exc:
        raise CalibrationError(f"kappa calibration failed: {exc}") from exc
    if not 0.5 < kappa < 0.8:  # paper value is 0.62086
        raise CalibrationError(
            f"kappa calibration landed at {kappa!r}, outside the expected "
            "neighbourhood of the paper's 0.62086"
        )
    return kappa
