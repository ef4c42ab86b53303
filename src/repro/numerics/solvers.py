"""Root finding and monotone-function inversion, one problem at a time.

:func:`find_root` and :func:`invert_monotone` are one-element views of
the batch kernels :func:`~repro.numerics.batch.find_roots` and
:func:`~repro.numerics.batch.invert_monotone_batch`: a single solve
runs the same iteration, bracket expansion and endpoint conventions as
a grid sweep, and is metered the same way (``batch.solve.*`` under the
``batch.find_roots`` span).  The views turn the kernels' per-element
flags into errors that name the quantity being solved for
(:meth:`~repro.numerics.batch.BatchRootResult.checked_root`):

- no sign change in the (possibly expanded) bracket raises
  :class:`~repro.errors.BracketError`;
- a NaN function value raises :class:`~repro.errors.ConvergenceError`;
- at the iteration cap the best root found is returned with a
  :class:`~repro.errors.ConvergenceWarning`.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.numerics.batch import (
    RTOL,
    XTOL,
    find_roots,
    invert_monotone_batch,
)


def _elementwise(func: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """A scalar function as the vector callable the batch kernels take."""
    return lambda x: np.array([func(float(v)) for v in x])


def find_root(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    expand: bool = False,
    upper_limit: float = float("inf"),
    xtol: float = XTOL,
    rtol: float = RTOL,
    label: str = "root",
) -> float:
    """Find a root of ``func`` in ``[lo, hi]``.

    Parameters
    ----------
    func:
        Continuous scalar function.
    lo, hi:
        Search interval, ``lo <= hi``.  If ``expand`` is true and
        ``func`` does not change sign on the interval, ``hi`` is grown
        geometrically (up to ``upper_limit``) until it does.
    label:
        Human-readable name of the quantity, used in error messages.

    Raises
    ------
    BracketError
        If no sign change exists in the (possibly expanded) interval.
    ConvergenceError
        If ``func`` returns NaN during the solve.
    ValueError
        If ``lo > hi``.
    """
    result = find_roots(
        _elementwise(func),
        lo,
        hi,
        xtol=xtol,
        rtol=rtol,
        expand=expand,
        upper_limit=upper_limit,
        label=label,
    )
    reach = f", expanding up to {upper_limit}" if expand else ""
    return result.checked_root(0, f"on [{lo}, {hi}]{reach}")


def invert_monotone(
    func: Callable[[float], float],
    target: float,
    lo: float,
    hi: float,
    *,
    increasing: bool = True,
    upper_limit: float = float("inf"),
    xtol: float = XTOL,
    rtol: float = RTOL,
    label: str = "inverse",
    clip: Optional[str] = None,
) -> float:
    """Solve ``func(x) = target`` for a monotone ``func``.

    The one-element view of
    :func:`~repro.numerics.batch.invert_monotone_batch`, which documents
    ``increasing``, ``upper_limit`` and ``clip``.  A target that is
    unreachable (already passed at ``lo``, or out of reach at
    ``upper_limit``) raises :class:`~repro.errors.BracketError` unless
    ``clip`` names that side.
    """
    result = invert_monotone_batch(
        _elementwise(func),
        target,
        lo,
        hi,
        increasing=increasing,
        upper_limit=upper_limit,
        xtol=xtol,
        rtol=rtol,
        label=label,
        clip=clip,
    )
    return result.checked_root(
        0, f"for target {target!r} from [{lo}, {hi}], expanding up to {upper_limit}"
    )
