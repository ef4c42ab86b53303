"""Maximum-likelihood fitting of the paper's load families.

The paper's closing argument is that the architecture question turns on
which census distribution future networks actually face.  These fitters
turn that into practice: given census measurements (flow counts sampled
from a running network), estimate each of the paper's three families by
maximum likelihood and report comparable information criteria.

MLEs:

- Poisson: ``nu_hat = sample mean`` (exact).
- Geometric (``P(k) = (1-q) q^k``): ``q_hat = m/(1+m)`` (exact).
- Algebraic (``P(k) = A (lam+k)^{-z}``): no closed form; the
  log-likelihood ``sum [-z ln(lam+k)] - n ln zeta(z, lam+1)`` is
  maximised numerically over ``(z, lam)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special

from repro.errors import CalibrationError
from repro.loads import AlgebraicLoad, GeometricLoad, PoissonLoad
from repro.loads.base import LoadDistribution


@dataclass(frozen=True)
class FitResult:
    """One fitted census family with its fit diagnostics."""

    load: LoadDistribution
    log_likelihood: float
    n_parameters: int
    n_samples: int

    @property
    def aic(self) -> float:
        """Akaike information criterion (lower is better)."""
        return 2.0 * self.n_parameters - 2.0 * self.log_likelihood

    @property
    def bic(self) -> float:
        """Bayesian information criterion (lower is better)."""
        return self.n_parameters * np.log(self.n_samples) - 2.0 * self.log_likelihood


def _validate_samples(samples: np.ndarray, *, support_min: int = 0) -> np.ndarray:
    arr = np.asarray(samples)
    if arr.size < 2:
        raise ValueError(f"need at least 2 census samples, got {arr.size}")
    if np.any(arr != np.floor(arr)) or np.any(arr < 0):
        raise ValueError("census samples must be nonnegative integers")
    if np.any(arr < support_min):
        raise ValueError(
            f"samples below the family's support minimum {support_min}"
        )
    return arr.astype(np.int64)


def _log_likelihood(load: LoadDistribution, samples: np.ndarray) -> float:
    pmf = np.asarray(load.pmf_array(samples.astype(float)), dtype=float)
    if np.any(pmf <= 0.0):
        return -np.inf
    return float(np.sum(np.log(pmf)))


def fit_poisson(samples) -> FitResult:
    """Exact Poisson MLE: ``nu_hat`` is the sample mean."""
    arr = _validate_samples(samples)
    nu = float(arr.mean())
    if nu <= 0.0:
        raise CalibrationError("all-zero samples cannot fit a Poisson census")
    load = PoissonLoad(nu)
    return FitResult(load, _log_likelihood(load, arr), 1, arr.size)


def fit_geometric(samples) -> FitResult:
    """Exact geometric MLE: ``q_hat = m/(1+m)``."""
    arr = _validate_samples(samples)
    mean = float(arr.mean())
    if mean <= 0.0:
        raise CalibrationError("all-zero samples cannot fit a geometric census")
    load = GeometricLoad.from_mean(mean)
    return FitResult(load, _log_likelihood(load, arr), 1, arr.size)


def fit_algebraic(
    samples,
    *,
    z_bounds: tuple = (2.05, 8.0),
    initial: Optional[tuple] = None,
) -> FitResult:
    """Numerical MLE of the shifted power law over ``(z, lam)``.

    Works in the unconstrained coordinates ``(log(z - 2), log(lam))`` so
    Nelder-Mead cannot step outside the valid region, then clips ``z``
    into ``z_bounds`` (a ``z`` estimated at the boundary means the data
    does not look algebraic at all — the selection layer will prefer
    another family on AIC anyway).
    """
    arr = _validate_samples(samples, support_min=1)
    n = arr.size
    mean = float(arr.mean())
    if initial is None:
        initial = (3.0, max(mean, 1.0))

    def negative_log_likelihood(theta: np.ndarray) -> float:
        z = 2.0 + np.exp(theta[0])
        lam = np.exp(theta[1])
        if z > 64.0 or lam > 1e9:
            return 1e12
        norm = float(special.zeta(z, lam + 1.0))
        if not np.isfinite(norm) or norm <= 0.0:
            return 1e12
        return float(z * np.sum(np.log(lam + arr)) + n * np.log(norm))

    # the only scipy.optimize caller in the inference layer: loaded at
    # the first fit, not by every `import repro`
    from scipy import optimize

    theta0 = np.array([np.log(initial[0] - 2.0), np.log(initial[1])])
    result = optimize.minimize(
        negative_log_likelihood,
        theta0,
        method="Nelder-Mead",
        options={"xatol": 1e-6, "fatol": 1e-8, "maxiter": 2000},
    )
    if not result.success:  # pragma: no cover - Nelder-Mead rarely fails here
        raise CalibrationError(f"algebraic MLE did not converge: {result.message}")
    z = float(np.clip(2.0 + np.exp(result.x[0]), *z_bounds))
    lam = float(np.exp(result.x[1]))
    load = AlgebraicLoad(z, lam)
    return FitResult(load, _log_likelihood(load, arr), 2, n)
