"""Numerical substrate used by every model in the package.

The paper's quantities are defined implicitly far more often than
explicitly: the bandwidth gap ``Delta(C)`` is the solution of
``B(C + Delta) = R(C)``, the continuum admission share ``b*`` solves
``b pi'(b) = pi(b)``, and the discrete sums run over infinite
supports.  This subpackage provides the small set of robust primitives
those definitions need:

- :func:`find_root` / :func:`invert_monotone` — bracketed root finding
  with automatic bracket expansion, one problem at a time,
- :func:`integrate_rows` / :func:`integrate` — batched Gauss–Kronrod
  quadrature over finite or semi-infinite intervals, and its one-row
  view.

Whole-grid sweeps go through the batch forms in
:mod:`repro.numerics.batch` — :func:`find_roots`,
:func:`invert_monotone_batch`, :func:`share_weighted_sums` — which
solve a vector of independent scalar problems in a handful of numpy
calls and report per-element convergence masks instead of raising on
the first bad element.  There is one root finder: :func:`find_root`
and :func:`invert_monotone` are one-element views of
:func:`find_roots` and :func:`invert_monotone_batch` that raise where
the batch flags.
"""

from repro.numerics.batch import (
    BatchRootResult,
    expand_brackets_upward,
    find_roots,
    invert_monotone_batch,
    share_weighted_sums,
)
from repro.numerics.quadrature import integrate, integrate_rows
from repro.numerics.solvers import find_root, invert_monotone

__all__ = [
    "BatchRootResult",
    "expand_brackets_upward",
    "find_root",
    "find_roots",
    "integrate",
    "integrate_rows",
    "invert_monotone",
    "invert_monotone_batch",
    "share_weighted_sums",
]
