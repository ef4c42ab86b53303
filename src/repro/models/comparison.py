"""One-call orchestration of the paper's full comparison.

:class:`ArchitectureComparison` bundles the variable-load, welfare,
sampling and retrying models for a (load, utility) pair and produces
the complete set of quantities the paper reports — handy for the
examples and the experiment harness, and a natural top-level entry
point for library users.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.loads.base import LoadDistribution
from repro.models.fixed_load import FixedLoadModel
from repro.models.retrying import RetryingModel
from repro.models.sampling import SamplingModel
from repro.models.variable_load import VariableLoadModel
from repro.models.welfare import WelfareModel
from repro.utility.base import UtilityFunction


@dataclass(frozen=True)
class ComparisonPoint:
    """All Section 3 quantities at a single capacity."""

    capacity: float
    k_max: int
    best_effort: float
    reservation: float
    performance_gap: float
    bandwidth_gap: float
    overload_probability: float

    def as_dict(self) -> dict:
        """Plain-dict view (stable keys, used by the CLI reports)."""
        return {
            "capacity": self.capacity,
            "k_max": self.k_max,
            "best_effort": self.best_effort,
            "reservation": self.reservation,
            "performance_gap": self.performance_gap,
            "bandwidth_gap": self.bandwidth_gap,
            "overload_probability": self.overload_probability,
        }


@dataclass
class ComparisonReport:
    """Full sweep output plus the models that produced it."""

    points: Sequence[ComparisonPoint]
    gamma_prices: np.ndarray = field(default_factory=lambda: np.empty(0))
    gamma_values: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def max_performance_gap(self) -> float:
        """Peak ``delta(C)`` over the sweep."""
        return max((pt.performance_gap for pt in self.points), default=0.0)

    @property
    def max_bandwidth_gap(self) -> float:
        """Peak ``Delta(C)`` over the sweep."""
        return max((pt.bandwidth_gap for pt in self.points), default=0.0)

    def bandwidth_gap_trend(self) -> str:
        """Coarse asymptotic verdict from the top third of the sweep.

        Returns ``"increasing"``, ``"decreasing"`` or ``"flat"`` — the
        property the paper keys its architecture recommendation on.
        """
        gaps = [pt.bandwidth_gap for pt in self.points]
        n = len(gaps)
        if n < 6:
            raise ValueError("need at least 6 sweep points for a trend verdict")
        tail = gaps[-(n // 3) :]
        span = max(tail) - min(tail)
        scale = max(max(tail), 1e-9)
        if span < 0.05 * scale:
            return "flat"
        return "increasing" if tail[-1] >= tail[0] else "decreasing"


class ArchitectureComparison:
    """The whole paper for one (load, utility) pair.

    >>> from repro.loads import GeometricLoad
    >>> from repro.utility import AdaptiveUtility
    >>> cmp = ArchitectureComparison(GeometricLoad.from_mean(100.0),
    ...                              AdaptiveUtility())
    >>> point = cmp.at(capacity=200.0)
    >>> point.reservation >= point.best_effort
    True
    """

    def __init__(
        self,
        load: LoadDistribution,
        utility: UtilityFunction,
        *,
        k_max_limit: Optional[int] = None,
    ):
        self._load = load
        self._utility = utility
        self._model = VariableLoadModel(load, utility, k_max_limit=k_max_limit)
        self._welfare: Optional[WelfareModel] = None
        self._k_max_limit = k_max_limit

    @property
    def load(self) -> LoadDistribution:
        """The offered-load distribution."""
        return self._load

    @property
    def utility(self) -> UtilityFunction:
        """The application utility function."""
        return self._utility

    @property
    def variable_load(self) -> VariableLoadModel:
        """The Section 3.1 model."""
        return self._model

    @property
    def fixed_load(self) -> FixedLoadModel:
        """A Section 2 model sharing this comparison's utility."""
        return FixedLoadModel(self._utility, k_max_limit=self._k_max_limit)

    @property
    def welfare(self) -> WelfareModel:
        """The Section 4 model (built lazily)."""
        if self._welfare is None:
            self._welfare = WelfareModel(self._model)
        return self._welfare

    def with_sampling(self, samples: int) -> SamplingModel:
        """Section 5.1 extension with ``samples`` census draws."""
        return SamplingModel(
            self._load, self._utility, samples, k_max_limit=self._k_max_limit
        )

    def with_retries(self, *, alpha: float = 0.1) -> RetryingModel:
        """Section 5.2 extension with retry penalty ``alpha``."""
        return RetryingModel(
            self._load, self._utility, alpha=alpha, k_max_limit=self._k_max_limit
        )

    def at(self, capacity: float) -> ComparisonPoint:
        """Every Section 3 quantity at one capacity."""
        return self._points([capacity])[0]

    def sweep(
        self,
        capacities: Sequence[float],
        *,
        prices: Optional[Sequence[float]] = None,
    ) -> ComparisonReport:
        """Full report over a capacity grid (and optional price grid)."""
        points = self._points(capacities)
        if prices is not None:
            curve = self.welfare.ratio_curve(prices)
            return ComparisonReport(
                points=points,
                gamma_prices=curve["price"],
                gamma_values=curve["gamma"],
            )
        return ComparisonReport(points=points)

    def _points(self, capacities) -> list:
        """Section 3 quantities over a capacity grid: one model sweep,
        one ``k_max`` grid call and one survival-function array."""
        series = self._model.sweep(capacities)
        kmax = self._model.k_max_batch(series["capacity"])
        # a threshold of 0 admits nobody: overload is certain
        overload = np.where(kmax >= 1, self._load.sf_array(np.maximum(kmax, 1)), 1.0)
        quantities = ("best_effort", "reservation", "performance_gap", "bandwidth_gap")
        rows = zip(
            series["capacity"].tolist(),
            kmax.tolist(),
            *(series[name].tolist() for name in quantities),
            overload.tolist(),
        )
        return [ComparisonPoint(*row) for row in rows]

    def break_even_complexity_cost(self, price: float) -> float:
        """Fractional extra bandwidth cost reservations may carry.

        ``gamma(p) - 1``: if adding reservation capability raises the
        per-unit bandwidth cost by more than this fraction, best-effort
        is the better buy at price ``p`` (Section 4's decision rule).
        """
        return self.welfare.equalizing_ratio(price) - 1.0
