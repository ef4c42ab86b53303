"""Numeric continuum sampling model (Section 5.1, continuum version).

The continuum counterpart of :class:`repro.models.sampling.SamplingModel`:
a tagged flow draws ``S`` iid censuses from the size-biased density
``q(k) = k P(k) / k_bar`` (cdf ``F``) and is scored at the maximum.

    B_S(C) = int pi(C/k) d[F(k)^S]

    R_S(C) = int_{k < kmax} pi(C/k) d[F(k)^S]
           + pi(C/kmax) [F(kmax) - F(kmax)^S]           (hit the cap)
           + pi(C/kmax) kmax P(K > kmax) / k_bar        (overload-admitted)

Exists mainly to certify the sampling asymptotics
(:func:`repro.continuum.asymptotics.sampling_rigid_ratio` and friends)
by direct quadrature, independently of the discrete machinery.
"""

from __future__ import annotations

import math

import numpy as np

from repro.loads.continuum import ContinuumLoad
from repro.models.base import CapacityModel
from repro.models.fixed_load import validated_capacities
from repro.numerics.quadrature import integrate_rows
from repro.utility.base import UtilityFunction


class ContinuumSamplingModel(CapacityModel):
    """Worst-of-S-samples model over a continuum census.

    ``k_max(C) = C`` is assumed (true for the rigid and ramp utilities
    this model exists to study); pass ``k_max_override`` otherwise.
    """

    def __init__(
        self,
        load: ContinuumLoad,
        utility: UtilityFunction,
        samples: int,
        *,
        k_max_override=None,
        tol: float = 1e-11,
    ):
        if samples < 1 or samples != int(samples):
            raise ValueError(f"samples must be a positive integer, got {samples!r}")
        self._load = load
        self._utility = utility
        self._samples = int(samples)
        self._tol = float(tol)
        self._kbar = load.mean
        self._override = k_max_override

    @property
    def samples(self) -> int:
        """Number of census samples per flow."""
        return self._samples

    @property
    def mean_load(self) -> float:
        """``k_bar`` of the census density."""
        return self._kbar

    def k_max(self, capacity: float) -> float:
        """Admission threshold (defaults to the ``k_max(C) = C`` cases)."""
        if self._override is not None:
            return float(self._override(capacity))
        return capacity

    # ------------------------------------------------------------------

    def _biased_cdf(self, k):
        """``F(k)`` of the size-biased census (0 below the support)."""
        return self._load.partial_mean(k) / self._kbar

    def _weighted_integrals(self, caps: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """``int_{k_min}^{hi[i]} pi(C_i/k) d[F^S]`` for every capacity at once.

        The density of the max of ``S`` draws is ``S F^{S-1} q`` with
        ``q(k) = k P(k) / k_bar``; one batched quadrature, each row
        split at the kinks ``C_i/b`` of ``pi``.
        """
        kinks = [b for b in self._utility.breakpoints() if b > 0.0]
        points = [[c / b for b in kinks] for c in caps.tolist()]
        samples = self._samples

        def f(k: np.ndarray, row: np.ndarray) -> np.ndarray:
            density = k * self._load.pdf(k) / self._kbar
            if samples > 1:
                density = samples * self._biased_cdf(k) ** (samples - 1) * density
            return density * self._utility(caps[row] / k)

        return integrate_rows(
            f, self._load.support_min, hi, points=points, tol=self._tol,
            label="sampling integral",
        )

    # ------------------------------------------------------------------

    def best_effort_batch(self, capacities) -> np.ndarray:
        """``B_S`` — per-flow expected utility at the worst sample, one
        batched quadrature over the grid."""
        caps = validated_capacities(capacities)
        values = np.zeros(caps.size)
        live = np.flatnonzero(caps > 0.0)
        if live.size:
            values[live] = self._weighted_integrals(caps[live], np.full(live.size, math.inf))
        return values

    def reservation_batch(self, capacities) -> np.ndarray:
        """``R_S`` — admit on first sample, cap subsequent censuses; one
        batched quadrature over the grid."""
        caps = validated_capacities(capacities)
        values = np.zeros(caps.size)
        kmax = np.array(
            [self.k_max(c) if c > 0.0 else 0.0 for c in caps.tolist()], dtype=float
        )
        live = np.flatnonzero(kmax > self._load.support_min)
        if live.size:
            c, m = caps[live], kmax[live]
            below = self._weighted_integrals(c, m)
            f_cap = self._biased_cdf(m)
            at_cap = f_cap - f_cap**self._samples
            over = m * self._load.sf(m) / self._kbar
            values[live] = below + (at_cap + over) * self._utility(c / m)
        return values
