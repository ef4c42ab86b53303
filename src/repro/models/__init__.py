"""The paper's models: Sections 2-5 as composable classes.

- :class:`FixedLoadModel` — Section 2's ``V(k) = k pi(C/k)`` analysis.
- :class:`VariableLoadModel` — Section 3.1's ``B(C)``, ``R(C)``,
  ``delta(C)`` and ``Delta(C)``.
- :class:`WelfareModel` — Section 4's ``C(p)``, ``W(p)`` and the
  equalizing price ratio ``gamma(p)``, for the basic model and the
  Section 5 extensions.
- :class:`SamplingModel` — Section 5.1's worst-of-S-samples extension.
- :class:`RetryingModel` — Section 5.2's blocked-flows-retry extension.
- :class:`ArchitectureComparison` — all of the above behind one call.
"""

from repro.models.comparison import (
    ArchitectureComparison,
    ComparisonPoint,
    ComparisonReport,
)
from repro.models.erlang import carried_utility, erlang_b, erlang_b_inverse
from repro.models.fixed_load import (
    Architecture,
    FixedLoadComparison,
    FixedLoadModel,
)
from repro.models.retrying import ALPHA_PAPER, RetryingModel
from repro.models.sampling import SamplingModel
from repro.models.variable_load import VariableLoadModel
from repro.models.welfare import ProvisioningDecision, WelfareModel

__all__ = [
    "ALPHA_PAPER",
    "Architecture",
    "ArchitectureComparison",
    "ComparisonPoint",
    "carried_utility",
    "erlang_b",
    "erlang_b_inverse",
    "ComparisonReport",
    "FixedLoadComparison",
    "FixedLoadModel",
    "ProvisioningDecision",
    "RetryingModel",
    "SamplingModel",
    "VariableLoadModel",
    "WelfareModel",
]
