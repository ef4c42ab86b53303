"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised deliberately by this package derive from
:class:`ReproError`, so callers can catch one base class instead of
guessing which submodule failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConvergenceError(ReproError):
    """A numerical routine failed to converge.

    Raised by root finders, fixed-point iterations and series summation
    when the requested tolerance cannot be met within the iteration
    budget.  The offending inputs are included in the message so the
    failure can be reproduced.
    """


class BracketError(ConvergenceError):
    """A root or optimum could not be bracketed.

    Usually means the target value lies outside the function's range
    (e.g. asking for a bandwidth gap when best-effort utility can never
    reach the reservation utility within the search limits).
    """


class ConvergenceWarning(UserWarning):
    """A numerical routine degraded instead of failing.

    Emitted (not raised) when a solver returns a usable answer that
    missed the requested tolerance — e.g. a root finder stopping at its
    iteration cap with its best root.  The observability layer
    (:mod:`repro.obs`) counts these under ``batch.solve.failures`` when
    enabled.
    """


class CalibrationError(ReproError):
    """A distribution or utility parameter could not be calibrated.

    Raised, for example, when no value of the algebraic-load shift
    parameter produces the requested mean, or when the adaptive-utility
    kappa cannot be tuned to place ``k_max(C)`` at ``C``.
    """


class ModelError(ReproError):
    """A model was constructed or queried with inconsistent inputs."""


class ProvenanceError(ReproError):
    """A frozen result snapshot is malformed or cannot be processed.

    Raised by :mod:`repro.provenance` for structural problems — a
    missing or unparseable ``MANIFEST.json``, an unknown schema, an
    artifact the manifest names that is absent from the snapshot.
    *Drift* (artifacts whose hashes or recomputed headline numbers no
    longer match) is not an exception: it is reported through the
    verification report so every check runs and the full divergence is
    visible at once.
    """


class EmulatorError(ReproError):
    """Base class for emulator-surface errors (:mod:`repro.emulator`)."""


class CertificationError(EmulatorError):
    """A fitted surface could not be certified within tolerance.

    Raised when dense residual sampling against the exact solver finds
    a deviation too large for the declared error allowance.  The
    surface is *refused*, never served: a certified bound that the
    emulator cannot honour would silently corrupt every downstream
    query.  The message carries the observed residual and the
    allowance so the degree/domain can be retuned.
    """


class OutOfDomainError(EmulatorError):
    """An emulator surface was queried outside its fitted domain.

    Certified error bounds hold only on the fitted interval; instead
    of extrapolating (Chebyshev polynomials diverge fast outside
    [-1, 1]) the surface refuses, and the service layer falls back to
    the exact solvers through the result cache.
    """


class SimulationBudgetError(ModelError):
    """A simulation exhausted its event budget before the horizon.

    Carries the diagnostics an operator needs to size the next attempt:
    how many events were executed, how far simulated time got, and the
    horizon that was requested.  Raised instead of silently truncating
    so a partial trajectory can never be mistaken for a full run.

    ``partial`` optionally carries whatever completed state the caller
    accumulated before the budget ran out — adaptive ensemble runs
    attach the Welford estimate over the replications that *did*
    finish, so an equal-budget comparison can still read the partial
    answer instead of discarding paid-for work.
    """

    def __init__(
        self,
        *,
        events: int,
        reached_t: float,
        horizon: float,
        partial=None,
    ):
        self.events = int(events)
        self.reached_t = float(reached_t)
        self.horizon = float(horizon)
        self.partial = partial
        message = (
            f"exceeded {self.events} events at simulated time "
            f"{self.reached_t:.6g} of horizon {self.horizon:.6g} "
            f"({100.0 * self.reached_t / self.horizon:.1f}% covered); "
            "reduce the horizon or raise max_events"
        )
        if partial is not None:
            replications = getattr(partial, "replications", None)
            if replications:
                message += (
                    f" (partial estimate over {replications} completed "
                    "replications preserved on .partial)"
                )
            else:
                message += " (partial state preserved on .partial)"
        super().__init__(message)
