"""Algebraic (power-law) load distribution (paper Section 3.1).

``P(k) = A * (lam + k)**-z`` for ``k >= 1``: the heavy-tailed load whose
census decays only polynomially.  The paper deliberately uses *two*
parameters — the power ``z`` and the shift ``lam`` — so the mean can be
held at ``k_bar = 100`` while the asymptotic power law is varied.  This
is the distribution under which reservations retain an advantage no
matter how cheap bandwidth gets, and self-similar-traffic measurements
are cited as making such laws plausible.

Normalisation and moments come from the Hurwitz zeta function:

    sum_{k>=1} (lam + k)**-z            = zeta(z,   lam + 1)
    sum_{k>=1} k (lam + k)**-z          = zeta(z-1, lam + 1) - lam * zeta(z, lam + 1)

and the same identities shifted by ``n`` give exact tails.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from repro.errors import CalibrationError
from repro.loads.base import (
    _MOMENT_TABLE_CAP,
    _MOMENT_TABLE_EPS,
    LoadDistribution,
)
from repro.numerics.batch import find_roots


def _hurwitz(s: float, q: float) -> float:
    """Hurwitz zeta ``sum_{n>=0} (q+n)**-s`` via scipy."""
    return float(special.zeta(s, q))


def _check_power(z: float) -> None:
    if not 2.0 < z < math.inf:  # NaN fails too
        raise ValueError(
            f"power z must be finite and > 2 so the mean is finite, got {z!r}"
        )


def _calibrated_shifts(z: float, means) -> list:
    """The shift ``lam`` giving each mean, all from one vector solve.

    The mean is strictly increasing in ``lam`` (more mass pushed to
    large ``k``), from its ``lam = 0`` floor of
    ``zeta(z-1, 1)/zeta(z, 1)``, so a bracketed root find is exact.
    Every residual is the closed form of :attr:`AlgebraicLoad.mean`
    over one vector Hurwitz-zeta call per iterate; the solve is
    element-wise, so a shift does not depend on the rest of the grid.
    """
    _check_power(z)
    targets = np.asarray(means, dtype=float).ravel()
    unbounded = np.flatnonzero(~np.isfinite(targets))
    if unbounded.size:
        raise ValueError(f"mean must be finite, got {targets[unbounded[0]]!r}")
    floor = _hurwitz(z - 1.0, 1.0) / _hurwitz(z, 1.0)
    low = np.flatnonzero(~(targets > floor))
    if low.size:
        raise CalibrationError(
            f"algebraic load with z={z} cannot have mean {targets[low[0]]}; "
            f"the minimum (lam=0) mean is {floor:.6g}"
        )

    def residual(lam: np.ndarray, target: np.ndarray) -> np.ndarray:
        norm = special.zeta(z, lam + 1.0)
        return (special.zeta(z - 1.0, lam + 1.0) - lam * norm) / norm - target

    # the mean grows roughly linearly in lam, so 4 * mean is a safe cap
    result = find_roots(
        residual,
        0.0,
        np.maximum(4.0 * targets, 16.0),
        args=(targets,),
        expand=True,
        upper_limit=1e9,
        label=f"algebraic-load mean calibration (z={z})",
    )
    return [
        result.checked_root(i, f"at mean={m}, expanding up to 1e9")
        for i, m in enumerate(targets.tolist())
    ]


class AlgebraicLoad(LoadDistribution):
    """Shifted power-law flow-count distribution on ``k >= 1``."""

    name = "algebraic"
    support_min = 1

    def __init__(self, z: float, lam: float):
        _check_power(z)
        if not 0.0 <= lam < math.inf:  # NaN fails too
            raise ValueError(f"shift lam must be finite and >= 0, got {lam!r}")
        self._z = float(z)
        self._lam = float(lam)
        self._norm = _hurwitz(self._z, self._lam + 1.0)

    @classmethod
    def from_mean(cls, z: float, mean: float) -> "AlgebraicLoad":
        """Calibrate the shift ``lam`` so the distribution has ``mean``.

        The one-element view of :func:`_calibrated_shifts`, the solve
        behind :meth:`rescaled_batch`.
        """
        return cls(z, float(_calibrated_shifts(z, [mean])[0]))

    @property
    def z(self) -> float:
        """Asymptotic power of the tail (``P(k) ~ k**-z``)."""
        return self._z

    @property
    def lam(self) -> float:
        """Shift parameter controlling the mean at fixed ``z``."""
        return self._lam

    @property
    def mean(self) -> float:
        z, lam = self._z, self._lam
        return (_hurwitz(z - 1.0, lam + 1.0) - lam * self._norm) / self._norm

    def pmf(self, k: int) -> float:
        self.validate_k(k)
        if k < 1:
            return 0.0
        return (self._lam + k) ** (-self._z) / self._norm

    def sf(self, k: int) -> float:
        self.validate_k(k)
        if k < 1:
            return 1.0
        return _hurwitz(self._z, self._lam + k + 1.0) / self._norm

    def pmf_array(self, ks: np.ndarray) -> np.ndarray:
        ks = np.asarray(ks, dtype=float)
        out = (self._lam + ks) ** (-self._z) / self._norm
        return np.where(ks >= 1, out, 0.0)

    def sf_array(self, ks: np.ndarray) -> np.ndarray:
        ks = np.asarray(ks, dtype=float)
        tail = special.zeta(self._z, self._lam + np.maximum(ks, 1.0) + 1.0)
        return np.where(ks >= 1, tail / self._norm, 1.0)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Hybrid sampler: table for the bulk, bisection for the tail.

        The generic inverse-cdf table would need ~1e7 entries to cover a
        z = 3 tail; instead the table stops where the survival drops to
        1e-6 and the (rare) deeper draws invert the closed-form cdf by
        bisection.
        """
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size!r}")
        cut = max(64, int(8 * self.mean))
        while self.sf(cut) > 1e-6 and cut < (1 << 22):
            cut *= 2
        ks = np.arange(cut + 1, dtype=float)
        pmf = np.asarray(self.pmf_array(ks), dtype=float)
        pmf[: self.support_min] = 0.0
        cdf = np.cumsum(pmf)
        u = rng.random(size)
        out = np.searchsorted(cdf, u).astype(np.int64)
        deep = u > cdf[-1]
        for i in np.nonzero(deep)[0]:
            out[i] = self._invert_sf(1.0 - u[i], cut)
        return out

    def _invert_sf(self, target_sf: float, lo: int) -> int:
        """Smallest k with ``sf(k) <= target_sf`` (tail bisection)."""
        hi = max(2 * lo, 2)
        while self.sf(hi) > target_sf:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.sf(mid) > target_sf:
                lo = mid
            else:
                hi = mid
        return hi

    def continuous_pmf(self, x):
        """``A (lam + x)^{-z}`` evaluated at real ``x`` (scalar or array)."""
        x = np.asarray(x, dtype=float)
        smooth = (self._lam + np.maximum(x, 1.0)) ** (-self._z) / self._norm
        return np.where(x < 1.0, 0.0, smooth)[()]

    def mean_tail(self, n: int) -> float:
        """Exact tail first moment via shifted Hurwitz zetas."""
        z, lam = self._z, self._lam
        if n <= 1:
            return self.mean
        tail = _hurwitz(z - 1.0, lam + n) - lam * _hurwitz(z, lam + n)
        return tail / self._norm

    def moment_tail_table(self, n: int, degree: int):
        """Closed-form moment tails via a ``lam/k`` binomial expansion.

        Expanding ``(lam + k)**-z = k**-z * (1 + lam/k)**-z`` gives

            S_j(n) * norm = sum_m binom(-z, m) lam**m zeta(z - 1 + j + m, n)

        which is well conditioned because the binomial smallness is
        independent of ``j`` (the naive ``(lam+n)``-shifted expansion
        cancels catastrophically at high ``j``).  Successive term
        ratios are ``(z+m)/(m+1) * lam/n`` with asymptote ``lam/n``;
        under the guard ``n >= 4 * lam`` they drop below 1 within the
        first few ``m`` (transient growth at most ``~z/4``-fold, a
        couple of bits of cancellation for permitted ``z``) and 64
        terms reach machine precision (validated against brute-force
        summation at the guard boundary).  One vector zeta call over
        the shared exponent grid serves every ``(j, m)`` pair through
        sliding dot products.
        """
        z, lam = self._z, self._lam
        if n < 4.0 * max(lam, 1.0) or z > 8.0 or lam > 1e4:
            # lam/n too large for the expansion, or z/lam ranges where
            # the term growth or lam**m overflow is not certified.  The
            # brute-force default converges (z > 2 => summable) but its
            # stopping rule needs mean_tail(k)/mean_tail(n), which
            # decays like (k/n)**(2-z), to fall below machine epsilon —
            # skip straight to None when that provably exceeds the
            # array cap instead of burning millions of pmf evaluations
            # discovering it.
            if z > 2.0 and n * _MOMENT_TABLE_EPS ** (1.0 / (2.0 - z)) > (
                _MOMENT_TABLE_CAP
            ):
                return None
            return super().moment_tail_table(n, degree)
        mmax = 64
        exponents = np.arange(degree + mmax + 1, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            zetas = special.zeta(z - 1.0 + exponents, float(n))
        # high-order zetas underflow to 0 for large n; treat non-finite
        # scipy output (possible at extreme s) the same way.
        zetas = np.where(np.isfinite(zetas), zetas, 0.0)
        binom = np.empty(mmax + 1)
        binom[0] = 1.0
        for m in range(mmax):
            binom[m + 1] = binom[m] * (-(z + m)) / (m + 1.0)
        weights = binom * lam ** np.arange(mmax + 1, dtype=float)
        table = np.empty(degree + 1)
        for j in range(degree + 1):
            table[j] = np.dot(weights, zetas[j : j + mmax + 1])
        table /= self._norm
        if not np.all(np.isfinite(table)):
            return super().moment_tail_table(n, degree)
        return table

    def rescaled(self, new_mean: float) -> "AlgebraicLoad":
        return self.rescaled_batch([new_mean])[0]

    def rescaled_batch(self, means) -> list:
        """Every mean's load from one calibration solve (:func:`_calibrated_shifts`)."""
        return [AlgebraicLoad(self._z, lam) for lam in _calibrated_shifts(self._z, means)]

    def __repr__(self) -> str:
        return f"AlgebraicLoad(z={self._z!r}, lam={self._lam!r})"
