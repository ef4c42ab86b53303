"""Base class for discrete load distributions ``P(k)``.

Section 3.1 describes the network load not by arrival dynamics but by a
stationary probability distribution over the number of simultaneously
active flows.  Models need five things from a distribution beyond its
pmf: the mean (paper fixes ``k_bar = 100``), the survival function
(the reservation model's overload mass), the *partial first moment
tail* ``sum_{k >= n} k P(k)`` (for truncating infinite sums with a hard
bound), the *mass window* where every census sum runs, and the ability
to rescale to a different mean within the same family (the retry
balance inflates the offered load).
"""

from __future__ import annotations

import abc
import math

import numpy as np

#: Hard ceiling on brute-force moment-table summation, matching the
#: models' ``BRUTE_FORCE_CAP``: past this many terms the default
#: :meth:`LoadDistribution.moment_tail_table` gives up and returns None.
_MOMENT_TABLE_CAP = 1 << 22

#: Chunk size for the brute-force moment-table summation.
_MOMENT_TABLE_CHUNK = 8192

#: Relative stop threshold for the brute-force table (one ulp of the
#: leading tail, so the truncated remainder is below roundoff).
_MOMENT_TABLE_EPS = 2.220446049250313e-16


class LoadDistribution(abc.ABC):
    """A stationary distribution over the number of active flows."""

    #: Family name, overridden per subclass.
    name: str = "load"

    #: Smallest k with nonzero probability (0 or 1 in this package).
    support_min: int = 0

    @abc.abstractmethod
    def pmf(self, k: int) -> float:
        """Probability that exactly ``k`` flows request service."""

    @property
    @abc.abstractmethod
    def mean(self) -> float:
        """Average number of flows requesting service (``k_bar``)."""

    @abc.abstractmethod
    def sf(self, k: int) -> float:
        """Survival function ``P(K > k)`` (strictly greater).

        Implemented directly (not as ``1 - cdf``) so the deep tail keeps
        full relative precision — the Poisson-case results hinge on tail
        masses around 1e-15.
        """

    @abc.abstractmethod
    def mean_tail(self, n: int) -> float:
        """Partial first moment ``sum_{k >= n} k * P(k)``.

        Used as the analytic tail bound when truncating sums of
        ``P(k) * k * f(k)`` with ``|f| <= 1``.
        """

    @abc.abstractmethod
    def rescaled(self, new_mean: float) -> "LoadDistribution":
        """Same family and shape, rescaled to ``new_mean``.

        The retrying model (Section 5.2) needs the offered-load family
        ``P_L`` parametrised by its average ``L``: retries inflate the
        average while the family stays fixed.
        """

    def rescaled_batch(self, means) -> list:
        """:meth:`rescaled` at every mean of a grid, one load per mean.

        The retry balance rescales the family for every open capacity
        at once.  The default loops over :meth:`rescaled`; a family
        whose calibration is a root solve overrides it with one
        vectorised solve.
        """
        return [self.rescaled(float(m)) for m in np.asarray(means, dtype=float).ravel()]

    def cdf(self, k: int) -> float:
        """Cumulative probability ``P(K <= k)``."""
        return 1.0 - self.sf(k)

    def sample(self, rng: "np.random.Generator", size: int) -> np.ndarray:
        """Draw ``size`` iid census values.

        Generic inverse-cdf sampling over a truncated support (the cut
        is pushed until the survival mass is below 1e-12 of the draw
        resolution); families with native samplers override this.
        """
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size!r}")
        cut = max(64, int(16 * self.mean))
        while self.sf(cut) > 1e-12 and cut < (1 << 26):
            cut *= 2
        ks = np.arange(cut + 1, dtype=float)
        pmf = np.asarray(self.pmf_array(ks), dtype=float)
        if self.support_min > 0:
            pmf[: self.support_min] = 0.0
        pmf = np.maximum(pmf, 0.0)
        pmf /= pmf.sum()
        return rng.choice(ks.astype(int), size=size, p=pmf)

    def mass_window(self, eps: float) -> tuple:
        """``(k_lo, k_hi)``: where the census sums of the models run.

        Outside the window each side holds at most ``eps`` of the first
        moment ``sum_k k P(k)``, so a sum of ``P(k) k f(k)`` with
        ``|f| <= 1`` over the window misses at most ``2 eps``.  The
        default is the whole support: ``k_lo = 0`` and no right edge
        (``k_hi = inf``), which leaves the right side to the models'
        tail bound on ``mean_tail``.  Light-tailed families override it
        with closed-form edges.
        """
        return 0, math.inf

    def continuous_pmf(self, x):
        """Smooth extension of the pmf to real ``x`` (scalar or array).

        Used by the variable-load model's Euler-Maclaurin tail
        correction, which replaces the far tail of ``sum P(k) k f(k)``
        by an integral when the distribution is heavy-tailed and the
        brute-force truncation point would be astronomically large.
        Families for which the correction is never needed may leave the
        default, which raises.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not provide a smooth pmf extension"
        )

    def pmf_array(self, ks: np.ndarray) -> np.ndarray:
        """Vectorised pmf over an integer array.

        The default delegates to :meth:`pmf` per element; the concrete
        families override it with closed-form numpy expressions because
        the variable-load sums can run over millions of terms under
        heavy-tailed loads.
        """
        return np.array([self.pmf(int(k)) for k in np.asarray(ks).ravel()]).reshape(
            np.asarray(ks).shape
        )

    def sf_array(self, ks: np.ndarray) -> np.ndarray:
        """Vectorised survival function over an integer array.

        The batch reservation path evaluates the overload mass
        ``P(K > k_max(C))`` for a whole capacity grid at once; scalar
        :meth:`sf` calls dominate that sweep for scipy-backed families,
        so the concrete distributions override this with one vector
        call.  The default delegates per element.
        """
        return np.array([self.sf(int(k)) for k in np.asarray(ks).ravel()]).reshape(
            np.asarray(ks).shape
        )

    def moment_tail_table(self, n: int, degree: int):
        """Moment tails ``S_j(n) = sum_{k >= n} k**(1-j) P(k)``, j = 0..degree.

        These are the capacity-independent coefficients that turn a deep
        utility-series tail into a short polynomial: if ``pi`` has a
        Maclaurin expansion ``sum_j a_j b**j``, then
        ``sum_{k >= n} P(k) k pi(C/k) = sum_j a_j C**j S_j(n)``.  One
        table serves every capacity in a sweep (and every sweep sharing
        the load), which is the whole point — see
        ``repro.numerics.series.shared_moment_tail_table``.

        The default sums brute force in chunks, stopping once the
        remaining first-moment tail is below one ulp of the accumulated
        ``S_0`` (``|k**(1-j)| <= k`` for ``k >= 1`` bounds every row by
        the same remainder).  Returns ``None`` if convergence would need
        more than ``_MOMENT_TABLE_CAP`` terms — callers must fall back
        to their dense/integral paths.  Heavy-tailed families override
        this with closed forms.
        """
        if n < 1:
            raise ValueError(f"table start must be >= 1, got {n!r}")
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree!r}")
        table = np.zeros(degree + 1)
        if self.mean_tail(n) <= 0.0:
            return table
        k = int(n)
        stop = int(n) + _MOMENT_TABLE_CAP
        while k < stop:
            ks = np.arange(k, k + _MOMENT_TABLE_CHUNK, dtype=float)
            terms = ks * self.pmf_array(ks)  # j = 0 row: k**1 * P(k)
            inv = 1.0 / ks
            for j in range(degree + 1):
                table[j] += terms.sum()
                if j < degree:
                    terms *= inv
            k += _MOMENT_TABLE_CHUNK
            if self.mean_tail(k) <= _MOMENT_TABLE_EPS * table[0] + 1e-300:
                return table
        return None

    def validate_k(self, k: int) -> None:
        """Raise if ``k`` is not a nonnegative integer."""
        if k != int(k) or k < 0:
            raise ValueError(f"flow count must be a nonnegative integer, got {k!r}")

    def __repr__(self) -> str:  # pragma: no cover - overridden by subclasses
        return f"{type(self).__name__}(mean={self.mean!r})"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and repr(self) == repr(other)

    def __hash__(self) -> int:
        return hash((type(self), repr(self)))
