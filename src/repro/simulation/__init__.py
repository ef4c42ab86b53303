"""Flow-level discrete-event simulation substrate.

The paper's variable-load model assumes flows experience a stationary
census; this subpackage provides the dynamics that assumption abstracts
away, so it can be validated (and stressed) empirically:

- :class:`FlowSimulator` — Gillespie-style CTMC engine over a shared
  link with pluggable demand and admission.
- demand processes: :class:`BirthDeathProcess` (exact target census for
  any ``P(k)``), :class:`PoissonProcess` (M/M/inf),
  :class:`ParetoBatchProcess` (bursty, heavy-tailed census).
- admission: :class:`AdmitAll` (best-effort-only),
  :class:`ThresholdAdmission` (reservation-capable at ``k_max(C)``).
- measurement: census distributions, flow-average utilities, and
  worst-of-S-samples scoring, all comparable 1:1 with the analytic
  model's ``B(C)``, ``R(C)`` and the Section 5.1 extension.
- ensembles: :class:`EnsembleSimulator` runs R replications as census
  walks over per-replication ``SeedSequence`` streams, with
  CRN-paired gap estimation (:func:`paired_gap`) and CI-targeted
  adaptive stopping (``run_until``).
"""

from repro.simulation.admission import AdmissionPolicy, AdmitAll, ThresholdAdmission
from repro.simulation.ensemble import (
    EnsembleResult,
    EnsembleSimulator,
    PairedGapResult,
    paired_gap,
)
from repro.simulation.events import Event, EventKind, EventQueue
from repro.simulation.general import GeneralHoldingSimulator
from repro.simulation.holding import (
    DeterministicHolding,
    ExponentialHolding,
    HoldingTime,
    LogNormalHolding,
    ParetoHolding,
)
from repro.simulation.link import Link
from repro.simulation.measure import (
    arrival_census_distribution,
    census_distribution,
    census_total_variation,
    empirical_mean_census,
    mean_utilities,
    retry_adjusted_utilities,
    sampled_worst_utilities,
)
from repro.simulation.processes import (
    BirthDeathProcess,
    DemandProcess,
    ParetoBatchProcess,
    PoissonProcess,
    RegimeSwitchingProcess,
)
from repro.simulation.simulator import (
    FlowLog,
    FlowSimulator,
    SimulationResult,
    Trajectory,
)
from repro.simulation.stats import AdaptiveEstimate, RunningStat
from repro.simulation.streams import (
    GeneratorDraws,
    ReplicationStream,
    spawn_children,
    spawn_streams,
)

__all__ = [
    "AdaptiveEstimate",
    "AdmissionPolicy",
    "AdmitAll",
    "BirthDeathProcess",
    "DemandProcess",
    "EnsembleResult",
    "EnsembleSimulator",
    "Event",
    "EventKind",
    "EventQueue",
    "GeneratorDraws",
    "DeterministicHolding",
    "ExponentialHolding",
    "FlowLog",
    "FlowSimulator",
    "GeneralHoldingSimulator",
    "HoldingTime",
    "LogNormalHolding",
    "ParetoHolding",
    "Link",
    "PairedGapResult",
    "ParetoBatchProcess",
    "PoissonProcess",
    "RegimeSwitchingProcess",
    "ReplicationStream",
    "RunningStat",
    "SimulationResult",
    "ThresholdAdmission",
    "Trajectory",
    "arrival_census_distribution",
    "census_distribution",
    "census_total_variation",
    "empirical_mean_census",
    "mean_utilities",
    "paired_gap",
    "retry_adjusted_utilities",
    "sampled_worst_utilities",
    "spawn_children",
    "spawn_streams",
]
