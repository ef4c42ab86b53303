"""Model selection over the paper's three census families.

Fits all applicable families to the same census sample and ranks them
by information criterion, with a chi-square goodness-of-fit check on
the winner so "least bad" is distinguishable from "actually fits".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np
from scipy import special

from repro.errors import CalibrationError
from repro.inference.fitters import (
    FitResult,
    _validate_samples,
    fit_algebraic,
    fit_geometric,
    fit_poisson,
)
from repro.loads.base import LoadDistribution


@dataclass(frozen=True)
class SelectionResult:
    """Ranked family fits for one census sample."""

    fits: Dict[str, FitResult]
    best_name: str

    @property
    def best(self) -> FitResult:
        """The AIC-winning fit."""
        return self.fits[self.best_name]

    def ranking(self) -> Tuple[str, ...]:
        """Family names from best to worst AIC."""
        return tuple(sorted(self.fits, key=lambda name: self.fits[name].aic))


def fit_all(samples) -> SelectionResult:
    """Fit every applicable family and pick the AIC winner.

    The algebraic family needs ``k >= 1`` support; samples containing
    zeros simply exclude it (a census that is ever zero cannot follow
    the paper's algebraic law).
    """
    arr = _validate_samples(samples)
    fits: Dict[str, FitResult] = {}
    fits["poisson"] = fit_poisson(arr)
    fits["exponential"] = fit_geometric(arr)
    if arr.min() >= 1:
        try:
            fits["algebraic"] = fit_algebraic(arr)
        except CalibrationError:
            pass
    best = min(fits, key=lambda name: fits[name].aic)
    return SelectionResult(fits=fits, best_name=best)


def chi_square_gof(
    load: LoadDistribution,
    samples,
    *,
    min_expected: float = 5.0,
) -> Tuple[float, float]:
    """Chi-square goodness-of-fit of a census law to sample counts.

    Bins with expected counts below ``min_expected`` are pooled into
    their neighbours (standard practice), and the tail beyond the
    largest observation is pooled into the final bin.  Returns
    ``(statistic, p_value)`` with the degrees of freedom reduced by one
    for the constrained total.
    """
    arr = _validate_samples(samples)
    n = arr.size
    hi = int(arr.max())
    observed = np.bincount(arr, minlength=hi + 1).astype(float)
    expected = n * np.asarray(
        load.pmf_array(np.arange(hi + 1, dtype=float)), dtype=float
    )
    if load.support_min > 0:
        expected[: load.support_min] = 0.0
    # final bin absorbs the analytic tail mass
    expected[hi] += n * load.sf(hi)

    # pool adjacent bins until every pooled bin has enough mass
    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 and pooled_exp:
        pooled_obs[-1] += acc_o
        pooled_exp[-1] += acc_e
    if len(pooled_exp) < 2:
        raise ValueError("too few usable bins for a chi-square test")

    obs = np.asarray(pooled_obs)
    exp = np.asarray(pooled_exp)
    exp *= obs.sum() / exp.sum()  # renormalise pooled expectations
    statistic = float(np.sum((obs - exp) ** 2 / exp))
    dof = len(obs) - 1
    p_value = float(special.chdtrc(dof, statistic))  # chi2.sf(statistic, dof)
    return statistic, p_value
