"""Base class for application utility functions ``pi(b)``.

The paper models each application by a nondecreasing performance (or
utility) function of the bandwidth ``b`` allotted to it, normalised so
that ``pi(0) = 0`` (no bandwidth, no value) and ``pi(inf) = 1`` (fully
satisfied).  Everything else in the paper — which architecture wins,
by how much — is determined by the *shape* of ``pi`` between those
endpoints, so this class keeps the contract minimal: a value, a
derivative, and vectorised evaluation.
"""

from __future__ import annotations

import abc
from typing import Optional, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

#: Step used by the default central-difference derivative.
_DIFF_STEP = 1e-6


class MaclaurinExpansion:
    """A truncated power series ``pi(b) ~ sum_j a_j b^j`` with a certificate.

    The discrete models use this to replace deep series tails: because a
    monomial separates capacity and flow count
    (``(C/k)^j = C^j * k^-j``), a utility with a Maclaurin expansion
    turns ``sum_{k>=M} P(k) k pi(C/k)`` into a short polynomial in ``C``
    whose coefficients are capacity-independent moment tails of the load
    (see :meth:`LoadDistribution.moment_tail_table`).

    The certificate is a geometric coefficient envelope: the supplying
    utility guarantees ``|a_j| <= bound / radius**j`` for *all* ``j``
    (typically a Cauchy estimate on a circle of that radius inside the
    true convergence disc), so the truncation error after degree ``J``
    is at most ``bound * t**(J+1) / (1 - t)`` with ``t = b/radius``.
    :meth:`remainder_bound` evaluates that bound (``inf`` once ``t``
    approaches 1 — callers shrink ``b`` by raising the series split
    point until the bound fits their tolerance).
    """

    __slots__ = ("coefficients", "radius", "bound")

    def __init__(self, coefficients, radius: float, bound: float):
        self.coefficients = np.asarray(coefficients, dtype=float)
        if radius <= 0.0:
            raise ValueError(f"envelope radius must be > 0, got {radius!r}")
        if bound <= 0.0:
            raise ValueError(f"envelope bound must be > 0, got {bound!r}")
        self.radius = float(radius)
        self.bound = float(bound)

    @property
    def degree(self) -> int:
        """Highest retained power of ``b``."""
        return int(self.coefficients.size - 1)

    def remainder_bound(self, b: ArrayLike) -> np.ndarray:
        """Upper bound on ``|pi(b) - poly(b)|`` for ``0 <= b`` (vectorised)."""
        t = np.asarray(b, dtype=float) / self.radius
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            out = self.bound * t ** (self.degree + 1) / (1.0 - t)
        return np.where(t < 0.96875, out, np.inf)

    def __call__(self, b: ArrayLike) -> np.ndarray:
        """Evaluate the truncated polynomial by Horner's rule."""
        x = np.asarray(b, dtype=float)
        out = np.zeros_like(x)
        for a in self.coefficients[::-1]:
            out = out * x + a
        return out


class UtilityFunction(abc.ABC):
    """A normalised application utility function ``pi(b)``.

    Subclasses implement :meth:`value` for scalar ``b >= 0`` and may
    override :meth:`derivative` with an analytic form.  Instances are
    immutable and hashable so they can key caches in the models.

    The normalisation contract (checked by the test suite for every
    concrete subclass):

    - ``pi(0) == 0``
    - ``pi`` is nondecreasing
    - ``pi(b) -> 1`` as ``b -> inf``
    """

    #: Human-readable short name, overridden per subclass.
    name: str = "utility"

    @abc.abstractmethod
    def value(self, b: float) -> float:
        """Utility at bandwidth ``b`` (scalar, ``b >= 0``)."""

    def __call__(self, b: ArrayLike) -> ArrayLike:
        """Evaluate at a scalar or an array of bandwidths."""
        if np.isscalar(b):
            return self.value(float(b))
        # a copy, since the expression may use its input as scratch
        b = np.array(b, dtype=float)
        return self.values_into(b, np.empty_like(b))[()]

    def values_into(self, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write ``pi(b)`` into ``out`` (an array of ``b``'s shape); return it.

        ``b`` is the caller's scratch: the family's expression may
        overwrite it.  The series kernel passes buffers it reuses, so a
        sum over millions of shares allocates nothing per chunk.
        """
        # fmin.reduce skips NaN exactly as ``b < 0`` does
        if np.fmin.reduce(b, axis=None, initial=np.inf) < 0.0:
            raise ValueError("bandwidth must be >= 0")
        return self._values(b, out)

    def _values(self, b: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The family's one vectorised expression, written into ``out``.

        The default loops over :meth:`value`; concrete families override
        it with numpy expressions because the discrete-model sums can
        run over millions of bandwidth shares.
        """
        out[...] = np.fromiter(
            (self.value(float(x)) for x in b.flat), dtype=float, count=b.size
        ).reshape(b.shape)
        return out

    def derivative(self, b: float) -> float:
        """Marginal utility ``pi'(b)``.

        Default: central difference, one-sided at the origin.  Concrete
        utilities override this with exact expressions where they are
        smooth; the default is good enough for the convexity probes.
        """
        if b < 0.0:
            raise ValueError(f"bandwidth must be >= 0, got {b!r}")
        h = _DIFF_STEP * max(1.0, abs(b))
        if b < h:
            return (self.value(b + h) - self.value(b)) / h
        return (self.value(b + h) - self.value(b - h)) / (2.0 * h)

    def maclaurin(self, degree: int) -> Optional[MaclaurinExpansion]:
        """Certified Maclaurin expansion of ``pi`` up to ``degree``.

        Returns ``None`` when the utility has no useful power series at
        the origin (rigid steps, kinked ramps) — the models then keep
        their dense summation paths.  Implementations must return
        coefficients of the *exact* Maclaurin series together with a
        sound geometric envelope (see :class:`MaclaurinExpansion`).
        """
        return None

    def breakpoints(self) -> tuple:
        """Bandwidths where ``pi`` is non-smooth (kinks or jumps).

        Quadrature-based tail corrections split their integrals at the
        corresponding flow counts so adaptive quadrature never straddles
        a kink.  Smooth utilities return the default ``(1.0,)`` (a
        harmless split at the nominal satiation point).
        """
        return (1.0,)

    def fixed_load_total(self, k: float, capacity: float) -> float:
        """Total utility ``V(k) = k * pi(C / k)`` of ``k`` equal shares.

        This is the paper's fixed-load objective (Section 2): ``k``
        identical flows splitting capacity ``C`` evenly.  ``k = 0``
        returns 0.
        """
        if k < 0:
            raise ValueError(f"flow count must be >= 0, got {k!r}")
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity!r}")
        if k == 0:
            return 0.0
        return k * self.value(capacity / k)

    # Utilities are value objects: equality and hashing go through the
    # repr, which every subclass builds from its full parameter set.
    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and repr(self) == repr(other)

    def __hash__(self) -> int:
        return hash((type(self), repr(self)))
