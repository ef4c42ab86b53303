"""Tolerance policies: one comparison semantics for every oracle.

Every invariant and differential oracle in :mod:`repro.verify` reports
a single **normalised residual**: the worst observed deviation divided
by the allowance the policy grants at that point.  A residual of 0
means exact agreement, anything at or below 1.0 passes, and the
magnitude above 1.0 says *how far* outside tolerance the quantity
drifted — so a JSON report line is meaningful on its own, without
knowing which rtol/atol produced it.

The allowance for a reference value ``ref`` accompanied by a Monte
Carlo confidence half-width ``ci`` is::

    atol + rtol * |ref| + ci_multiplier * ci

Deterministic quantities use ``ci = 0`` and the familiar
``numpy.isclose``-style band.  Stochastic quantities (ensemble
estimates) keep their statistical uncertainty in the comparison: a
tight seed-lucky run does not hide drift, and a wide-CI run does not
fail on honest noise.

Policy choice rationale (see ``docs/VERIFY.md`` for the long form):

- ``EXACT`` — algebraic identities (Erlang recursion, S=1 reduction,
  the alpha=1 retry identity) where both sides run the *same* float
  arithmetic in a different order; anything beyond a few ulps is a bug.
- ``TIGHT`` — a one-element view against its grid evaluation, and the
  continuum closed forms against their batch kernels: the same terms
  summed in a different order, held to rtol 1e-9.
- ``GOLDEN`` — values pinned against stored references or independent
  quadrature; matches the golden-figure gate (rtol 1e-7).
- ``STRUCTURAL`` — one-sided bounds and monotonicity (absolute slack
  only: these compare quantities against 0, where rtol is meaningless).
- ``MONTE_CARLO`` — ensemble estimates; 3 half-widths plus a small
  absolute floor for quantities whose CI collapses to ~0 under CRN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class TolerancePolicy:
    """Allowance parameters for one class of quantity.

    Parameters
    ----------
    rtol:
        Relative tolerance against the reference magnitude.
    atol:
        Absolute tolerance floor.
    ci_multiplier:
        How many confidence half-widths of slack a Monte Carlo
        estimate receives on top of the deterministic band.
    """

    rtol: float = 0.0
    atol: float = 0.0
    ci_multiplier: float = 0.0

    def __post_init__(self):
        if self.rtol < 0.0 or self.atol < 0.0 or self.ci_multiplier < 0.0:
            raise ValueError(
                "tolerances must be >= 0: "
                f"rtol={self.rtol!r}, atol={self.atol!r}, "
                f"ci_multiplier={self.ci_multiplier!r}"
            )
        if self.rtol == 0.0 and self.atol == 0.0 and self.ci_multiplier == 0.0:
            raise ValueError("a policy must grant some allowance")

    def allowance(self, reference: ArrayLike, ci_halfwidth: ArrayLike = 0.0):
        """Permitted absolute deviation at ``reference`` (elementwise)."""
        return (
            self.atol
            + self.rtol * np.abs(reference)
            + self.ci_multiplier * np.asarray(ci_halfwidth, dtype=float)
        )

    def residual(
        self,
        got: ArrayLike,
        reference: ArrayLike,
        *,
        ci_halfwidth: ArrayLike = 0.0,
    ) -> float:
        """Worst normalised deviation of ``got`` from ``reference``.

        NaNs in either side are an automatic failure (``inf``) unless
        they appear at the same positions in both, in which case they
        are treated as agreeing (the convention ``numpy.isclose``
        spells ``equal_nan=True``, used by the golden-figure gate).
        """
        got_arr = np.asarray(got, dtype=float)
        ref_arr = np.asarray(reference, dtype=float)
        got_arr, ref_arr = np.broadcast_arrays(got_arr, ref_arr)
        both_nan = np.isnan(got_arr) & np.isnan(ref_arr)
        either_nan = np.isnan(got_arr) | np.isnan(ref_arr)
        if np.any(either_nan & ~both_nan):
            return float("inf")
        diff = np.abs(got_arr - ref_arr)
        ratio = diff / self.allowance(ref_arr, ci_halfwidth)
        ratio = np.where(both_nan, 0.0, ratio)
        if ratio.size == 0:
            return 0.0
        return float(np.max(ratio))

    def agree(
        self,
        got: ArrayLike,
        reference: ArrayLike,
        *,
        ci_halfwidth: ArrayLike = 0.0,
    ) -> bool:
        """True when every element is inside its allowance."""
        return self.residual(got, reference, ci_halfwidth=ci_halfwidth) <= 1.0

    def describe(self) -> str:
        """Compact human-readable form for reports."""
        parts = []
        if self.rtol:
            parts.append(f"rtol={self.rtol:g}")
        if self.atol:
            parts.append(f"atol={self.atol:g}")
        if self.ci_multiplier:
            parts.append(f"ci*{self.ci_multiplier:g}")
        return " ".join(parts)


def bound_residual(
    values: ArrayLike,
    *,
    lower: float = -np.inf,
    upper: float = np.inf,
    atol: float = 1e-9,
) -> float:
    """Normalised worst violation of ``lower <= values <= upper``.

    The one-sided counterpart of :meth:`TolerancePolicy.residual`:
    0 when every element sits inside the (closed) band, and the worst
    overshoot divided by ``atol`` otherwise.  NaNs fail outright.
    """
    arr = np.asarray(values, dtype=float)
    if np.any(np.isnan(arr)):
        return float("inf")
    low_violation = np.maximum(0.0, lower - arr) if np.isfinite(lower) else 0.0
    high_violation = np.maximum(0.0, arr - upper) if np.isfinite(upper) else 0.0
    worst = float(np.max(np.maximum(low_violation, high_violation), initial=0.0))
    return worst / atol


def monotone_residual(
    values: ArrayLike, *, increasing: bool = True, atol: float = 1e-9
) -> float:
    """Normalised worst violation of (weak) monotonicity along an array."""
    arr = np.asarray(values, dtype=float).ravel()
    if np.any(np.isnan(arr)):
        return float("inf")
    if arr.size < 2:
        return 0.0
    steps = np.diff(arr)
    violation = np.maximum(0.0, -steps if increasing else steps)
    return float(np.max(violation)) / atol


#: Same-arithmetic algebraic identities.
EXACT = TolerancePolicy(rtol=1e-12, atol=1e-12)

#: Point-versus-grid evaluations of the same kernel.
TIGHT = TolerancePolicy(rtol=1e-9, atol=1e-9)

#: Pinned references and independent-quadrature agreement.
GOLDEN = TolerancePolicy(rtol=1e-7, atol=1e-9)

#: One-sided bounds / monotonicity slack (absolute only).
STRUCTURAL = TolerancePolicy(atol=1e-9)

#: Monte Carlo estimates: 3 half-widths + an absolute floor.
MONTE_CARLO = TolerancePolicy(atol=2e-3, ci_multiplier=3.0)

#: Asymptotic limits probed at finite parameters (tolerances inherited
#: from the EXPERIMENTS.md checkpoint bands, which they mirror).
LIMIT = TolerancePolicy(rtol=0.0, atol=1e-2)

#: Emulator surfaces versus the exact engines.  The ``EM*`` checks
#: normalise their residuals *in certified-bound units* — each surface
#: carries its own bound from dense residual sampling at fit time — so
#: the allowance here is exactly 1 bound: a fresh probe drifting past
#: what the surface certifies is a failure regardless of scale.
EMULATOR = TolerancePolicy(atol=1.0)
