"""Certified emulator surfaces for delta(C), Delta(C) and gamma(p).

The north-star workload queries the paper's headline comparisons at
interactive rates; this package replaces the per-query exact solver
run with low-degree Chebyshev surfaces that carry *certified* max
error bounds (dense differential sampling against the exact batch
engines — see :mod:`repro.emulator.surfaces`).  The service layer
(:mod:`repro.service`) serves these surfaces and falls back through
the result cache to the exact solvers whenever a surface refuses.
"""

from repro.emulator.bank import (
    DOMAINS,
    FITTED_UTILITY,
    LOADS,
    QUANTITIES,
    SCHEMA,
    SurfaceBank,
    check_bank,
    default_bank,
    exact_values,
    fit_bank,
    replace_axis,
)
from repro.emulator.surfaces import (
    ChebyshevSurface,
    ErrorBudget,
    default_budget,
    default_degree,
    fit_surface,
    surfaces_summary,
)
from repro.errors import CertificationError, EmulatorError, OutOfDomainError

__all__ = [
    "SCHEMA",
    "QUANTITIES",
    "LOADS",
    "FITTED_UTILITY",
    "DOMAINS",
    "SurfaceBank",
    "fit_bank",
    "default_bank",
    "check_bank",
    "exact_values",
    "replace_axis",
    "ChebyshevSurface",
    "ErrorBudget",
    "default_budget",
    "default_degree",
    "fit_surface",
    "surfaces_summary",
    "EmulatorError",
    "CertificationError",
    "OutOfDomainError",
]
