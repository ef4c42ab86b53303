"""Certified Chebyshev emulator surfaces for the paper's headline curves.

The quantities the comparison debate actually queries — ``delta(C)``,
``Delta(C)`` and ``gamma(p)`` — are smooth (piecewise-smooth in the
worst case: integer ``k_max`` jumps put small kinks in ``delta``) maps
from one parameter to a scalar.  A low-degree Chebyshev
expansion therefore reproduces them to ~1e-4 absolute while costing a
few microseconds per evaluation, versus ~0.3-100 ms for a full solver
run — the surrogate move that makes a "millions of queries" service
economical.

Every surface here is **certified**: after fitting on Chebyshev nodes
the residual is sampled densely against the exact solver (a sample set
disjoint from the fit nodes), and the surface records a
``certified_bound`` — twice the worst observed residual — that every
served value promises to honour.  A fit whose bound exceeds the
declared allowance raises :class:`~repro.errors.CertificationError`
and is never constructed; queries outside the fitted domain raise
:class:`~repro.errors.OutOfDomainError` instead of extrapolating.
The PR-5 verify registry re-checks the served-vs-exact agreement as
the ``EM*`` invariants under the ``EMULATOR`` tolerance policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from repro.errors import CertificationError, OutOfDomainError

#: Safety factor on the worst dense-sample residual: the certified
#: bound must cover the residual oscillation *between* sample points,
#: which for a sampling rate of ~8 points per fitted degree is well
#: inside a factor of two.
SAFETY_FACTOR = 2.0

#: Absolute floor on any certified bound (a perfect fit still cannot
#: promise better than roundoff on the exact side).
BOUND_FLOOR = 1e-12

#: Dense residual samples per polynomial degree.
SAMPLES_PER_DEGREE = 8


def _as_grid(values) -> np.ndarray:
    return np.asarray(values, dtype=float).ravel()


@dataclass(frozen=True)
class ErrorBudget:
    """The allowance a fit must clear to certify.

    ``allowance = atol + rtol * max|exact|`` over the dense residual
    sample — the same shape as a verify tolerance policy, evaluated at
    the scale of the surface being fitted.
    """

    atol: float
    rtol: float = 0.0

    def __post_init__(self):
        if self.atol < 0.0 or self.rtol < 0.0:
            raise ValueError(
                f"tolerances must be >= 0: atol={self.atol!r}, rtol={self.rtol!r}"
            )
        if self.atol == 0.0 and self.rtol == 0.0:
            raise ValueError("an error budget must grant some allowance")

    def allowance(self, exact: np.ndarray) -> float:
        scale = float(np.max(np.abs(exact))) if exact.size else 0.0
        return self.atol + self.rtol * scale


@dataclass(frozen=True)
class ChebyshevSurface:
    """A certified 1-D Chebyshev fit of one paper quantity.

    Frozen and value-only (coefficients are a tuple), so instances are
    safe to share across service worker threads without locking.
    """

    quantity: str  #: "delta" | "Delta" | "gamma"
    load: str
    utility: str
    xname: str  #: "capacity" | "price"
    lo: float
    hi: float
    log_x: bool
    coefficients: Tuple[float, ...]
    certified_bound: float
    observed_residual: float
    allowance: float
    residual_samples: int
    #: private cache of the scaled-domain constants for eval_scalar
    _scale: Tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = (np.log(self.lo), np.log(self.hi)) if self.log_x else (self.lo, self.hi)
        object.__setattr__(self, "_scale", (2.0 / (hi - lo), lo))

    # ------------------------------------------------------------------
    # identity / serialisation
    # ------------------------------------------------------------------

    @property
    def key(self) -> str:
        """Bank/service lookup key."""
        return f"{self.quantity}/{self.load}/{self.utility}"

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def to_dict(self) -> dict:
        return {
            "kind": "chebyshev1d",
            "quantity": self.quantity,
            "load": self.load,
            "utility": self.utility,
            "xname": self.xname,
            "domain": [self.lo, self.hi],
            "log_x": self.log_x,
            "coefficients": list(self.coefficients),
            "certified_bound": self.certified_bound,
            "observed_residual": self.observed_residual,
            "allowance": self.allowance,
            "residual_samples": self.residual_samples,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ChebyshevSurface":
        """Rebuild a saved surface; refuse one that could not be served.

        A bank file is outside input, so every entry is checked here:
        a malformed entry, a domain that is not ``0 < lo < hi``, empty
        or non-finite coefficients and a bound that is not finite and
        positive each raise ``ValueError``.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"a surface must be a JSON object, not {type(payload).__name__}"
            )
        kind = payload.get("kind")
        if kind == "chebyshev2d":
            raise ValueError(
                "chebyshev2d surfaces are no longer served: kbar what-ifs are "
                "answered by the exact solver; refit the bank with `emulate fit`"
            )
        if kind != "chebyshev1d":
            raise ValueError(f"not a chebyshev1d surface: {kind!r}")

        def read(key, convert):
            try:
                return convert(payload[key])
            except KeyError:
                raise ValueError(f"missing field {key!r}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"malformed field {key!r}: {exc}") from None

        domain = read("domain", lambda v: tuple(float(d) for d in v))
        if len(domain) != 2 or not 0.0 < domain[0] < domain[1] < math.inf:
            raise ValueError(f"domain must be [lo, hi] with 0 < lo < hi, got {list(domain)}")
        coefficients = read("coefficients", lambda v: tuple(float(c) for c in v))
        if not coefficients or not all(math.isfinite(c) for c in coefficients):
            raise ValueError("coefficients must be a non-empty list of finite numbers")
        bound = read("certified_bound", float)
        if not (math.isfinite(bound) and bound > 0.0):
            raise ValueError(f"certified_bound must be finite and > 0, got {bound!r}")
        return cls(
            quantity=read("quantity", str),
            load=read("load", str),
            utility=read("utility", str),
            xname=read("xname", str),
            lo=domain[0],
            hi=domain[1],
            log_x=read("log_x", bool),
            coefficients=coefficients,
            certified_bound=bound,
            observed_residual=read("observed_residual", float),
            allowance=read("allowance", float),
            residual_samples=read("residual_samples", int),
        )

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def contains(self, xs) -> np.ndarray:
        """Elementwise domain membership."""
        arr = _as_grid(xs)
        return (arr >= self.lo) & (arr <= self.hi)

    def _to_unit(self, xs: np.ndarray) -> np.ndarray:
        scale, lo = self._scale
        t = np.log(xs) if self.log_x else xs
        return scale * (t - lo) - 1.0

    def evaluate(self, xs) -> np.ndarray:
        """Surface values over a grid; refuses out-of-domain points."""
        arr = _as_grid(xs)
        inside = self.contains(arr)
        if not bool(np.all(inside)):
            bad = arr[~inside]
            raise OutOfDomainError(
                f"{self.key}: {bad.size} point(s) outside the fitted "
                f"{self.xname} domain [{self.lo:g}, {self.hi:g}] "
                f"(first offender {float(bad[0]):g}); certified bounds do "
                "not extrapolate — use the exact fallback"
            )
        return _cheb.chebval(self._to_unit(arr), np.asarray(self.coefficients))

    def eval_scalar(self, x: float) -> float:
        """One point, pure-Python Clenshaw — the service hot path.

        ~2 us at degree 32 versus ~10 us through ``numpy`` scalar
        dispatch; the point-query speedup gate in
        ``benchmarks/bench_service.py`` rides on this.
        """
        if not self.lo <= x <= self.hi:
            raise OutOfDomainError(
                f"{self.key}: {x:g} outside the fitted {self.xname} domain "
                f"[{self.lo:g}, {self.hi:g}]"
            )
        scale, lo = self._scale
        t = scale * ((math.log(x) if self.log_x else x) - lo) - 1.0
        c = self.coefficients
        b1 = 0.0
        b2 = 0.0
        t2 = 2.0 * t
        for a in c[:0:-1]:
            b1, b2 = a + t2 * b1 - b2, b1
        return c[0] + t * b1 - b2


# ----------------------------------------------------------------------
# fitting
# ----------------------------------------------------------------------


def _fit_nodes(lo: float, hi: float, degree: int, log_x: bool) -> np.ndarray:
    """Chebyshev (first-kind) nodes mapped into the fit domain."""
    t = _cheb.chebpts1(degree + 1)
    t_lo, t_hi = (np.log(lo), np.log(hi)) if log_x else (lo, hi)
    mapped = 0.5 * (t_hi + t_lo) + 0.5 * (t_hi - t_lo) * t
    return np.exp(mapped) if log_x else mapped


def _sample_grid(lo: float, hi: float, count: int, log_x: bool) -> np.ndarray:
    """Dense residual sample: endpoint-inclusive, disjoint from the nodes."""
    if log_x:
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def _certify(
    observed: float, allowance: float, *, what: str, samples: int
) -> Tuple[float, float]:
    bound = max(SAFETY_FACTOR * observed, BOUND_FLOOR)
    if bound > allowance:
        raise CertificationError(
            f"{what}: certified bound {bound:.3e} "
            f"({SAFETY_FACTOR:g}x the worst residual {observed:.3e} over "
            f"{samples} dense samples) exceeds the allowance "
            f"{allowance:.3e}; raise the degree, shrink the domain or "
            "loosen the budget"
        )
    return bound, observed


def fit_surface(
    exact_batch: Callable[[np.ndarray], np.ndarray],
    *,
    quantity: str,
    load: str,
    utility: str,
    xname: str,
    lo: float,
    hi: float,
    degree: int,
    budget: ErrorBudget,
    log_x: bool = False,
    samples: Optional[int] = None,
) -> ChebyshevSurface:
    """Fit and certify one 1-D surface against an exact batch solver.

    ``exact_batch`` is called twice: once on the ``degree + 1``
    Chebyshev nodes (the fit) and once on a dense, node-disjoint
    sample (the certification) — so the certificate is differential
    evidence, not an in-sample statistic.
    """
    if not 0.0 < lo < hi:
        raise ValueError(f"need 0 < lo < hi, got [{lo!r}, {hi!r}]")
    if degree < 2:
        raise ValueError(f"degree must be >= 2, got {degree!r}")
    nodes = _fit_nodes(lo, hi, degree, log_x)
    node_vals = np.asarray(exact_batch(nodes), dtype=float)
    if not np.all(np.isfinite(node_vals)):
        raise CertificationError(
            f"{quantity}/{load}/{utility}: exact solver returned non-finite "
            f"values on the fit nodes; shrink the domain"
        )
    t_lo, t_hi = (np.log(lo), np.log(hi)) if log_x else (lo, hi)
    t = np.log(nodes) if log_x else nodes
    unit = 2.0 * (t - t_lo) / (t_hi - t_lo) - 1.0
    coef = _cheb.chebfit(unit, node_vals, degree)

    n_samples = samples if samples is not None else SAMPLES_PER_DEGREE * degree + 1
    grid = _sample_grid(lo, hi, n_samples, log_x)
    exact = np.asarray(exact_batch(grid), dtype=float)
    t = np.log(grid) if log_x else grid
    fitted = _cheb.chebval(2.0 * (t - t_lo) / (t_hi - t_lo) - 1.0, coef)
    observed = float(np.max(np.abs(fitted - exact)))
    allowance = budget.allowance(exact)
    bound, observed = _certify(
        observed,
        allowance,
        what=f"{quantity}/{load}/{utility} over [{lo:g}, {hi:g}]",
        samples=n_samples,
    )
    return ChebyshevSurface(
        quantity=quantity,
        load=load,
        utility=utility,
        xname=xname,
        lo=float(lo),
        hi=float(hi),
        log_x=log_x,
        coefficients=tuple(float(c) for c in coef),
        certified_bound=bound,
        observed_residual=observed,
        allowance=allowance,
        residual_samples=n_samples,
    )


#: Per-quantity default error budgets.  ``delta`` values are O(0.05)
#: and kink-limited near 1e-5, so a flat absolute budget; ``Delta``
#: scales with capacity (up to ~16 at k_bar = 100), so mostly
#: relative; ``gamma`` is O(1) by construction.
DEFAULT_BUDGETS: Dict[str, ErrorBudget] = {
    "delta": ErrorBudget(atol=1e-4),
    "Delta": ErrorBudget(atol=1e-3, rtol=2e-3),
    "gamma": ErrorBudget(atol=2e-3, rtol=2e-3),
}

#: Per-quantity default fit degrees (1-D surfaces).
DEFAULT_DEGREES: Dict[str, int] = {"delta": 32, "Delta": 48, "gamma": 32}

#: Per-quantity certification density (dense samples per degree).  The
#: exact ``gamma`` has small kinks where the optimal admission threshold
#: switches (near p = 0.3 on the heavy-tailed loads); 8 samples per
#: degree missed their peak residuals by up to 26% on fresh probes.
DEFAULT_SAMPLES_PER_DEGREE: Dict[str, int] = {"gamma": 12}


def default_budget(quantity: str) -> ErrorBudget:
    try:
        return DEFAULT_BUDGETS[quantity]
    except KeyError:
        raise ValueError(
            f"unknown quantity {quantity!r}; expected one of "
            f"{sorted(DEFAULT_BUDGETS)}"
        ) from None


def default_degree(quantity: str) -> int:
    return DEFAULT_DEGREES[quantity]


def default_samples(quantity: str) -> int:
    """Dense certification samples for a default-degree 1-D surface."""
    per_degree = DEFAULT_SAMPLES_PER_DEGREE.get(quantity, SAMPLES_PER_DEGREE)
    return per_degree * default_degree(quantity) + 1


def surfaces_summary(surfaces: Sequence) -> str:
    """Text table of fitted surfaces (CLI ``emulate fit`` output)."""
    lines = [
        f"{'surface':34s} {'domain':>22s} {'deg':>4s} "
        f"{'bound':>10s} {'allowance':>10s}"
    ]
    for s in surfaces:
        domain = f"[{s.lo:g}, {s.hi:g}]"
        lines.append(
            f"{s.key:34s} {domain:>22s} {s.degree:>4d} "
            f"{s.certified_bound:10.2e} {s.allowance:10.2e}"
        )
    return "\n".join(lines)
