"""Instrumentation wiring: solvers, quadrature, optimizers, simulator."""

import numpy as np
import pytest

from repro import obs
from repro.errors import BracketError
from repro.loads import PoissonLoad
from repro.models import FixedLoadModel, VariableLoadModel
from repro.numerics.batch import find_roots
from repro.numerics.quadrature import integrate
from repro.numerics.solvers import find_root
from repro.simulation import AdmitAll, BirthDeathProcess, FlowSimulator, Link
from repro.utility import AdaptiveUtility, RigidUtility


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestSolverDiagnostics:
    """A solve's record is its ``BatchRootResult`` (one element for
    ``find_root``); its metering is the ``batch.solve.*`` counters."""

    def test_diag_reports_iterations_and_residual(self):
        result = find_roots(lambda x: x * x - 9.0, 0.0, 10.0)
        assert result.roots[0] == pytest.approx(3.0)
        assert result.all_converged
        assert result.iterations[0] > 0
        assert result.function_evaluations >= result.iterations[0]
        assert abs(result.residuals[0]) < 1e-9

    def test_diag_endpoint_shortcuts(self):
        result = find_roots(lambda x: x, 0.0, 1.0)
        assert result.iterations[0] == 0 and result.residuals[0] == 0.0

    def test_diag_records_bracket_expansion(self):
        result = find_roots(
            lambda x: x - 50.0, 0.0, 1.0, expand=True, label="expanded"
        )
        assert result.roots[0] == pytest.approx(50.0)
        assert bool(result.bracket_expanded[0])
        assert result.label == "expanded"

    def test_solver_metrics_recorded(self):
        obs.enable()
        find_root(lambda x: x * x - 2.0, 0.0, 2.0)
        counters = obs.snapshot()["counters"]
        assert counters["batch.solve.calls"] == 1.0
        assert counters["batch.solve.iterations"] > 0
        assert "batch.solve.failures" not in counters
        # a solve the kernel flags counts as a failure before it raises
        with pytest.raises(BracketError):
            find_root(lambda x: x + 1.0, 0.0, 1.0)
        counters = obs.snapshot()["counters"]
        assert counters["batch.solve.calls"] == 2.0
        assert counters["batch.solve.failures"] == 1.0

    def test_solver_metrics_silent_when_disabled(self):
        find_root(lambda x: x - 1.0, 0.0, 5.0)
        assert obs.snapshot()["counters"] == {}


class TestQuadratureMetrics:
    def test_evaluations_counted_when_enabled(self):
        obs.enable()
        value = integrate(lambda x: x, 0.0, 1.0, points=[0.5])
        assert value == pytest.approx(0.5)
        counters = obs.snapshot()["counters"]
        assert counters["quadrature.integrals"] == 1.0
        assert counters["quadrature.pieces"] == 2.0
        assert counters["quadrature.evaluations"] > 0

    def test_silent_when_disabled(self):
        integrate(lambda x: x, 0.0, 1.0)
        assert obs.snapshot()["counters"] == {}


class TestOptimizerMetrics:
    def test_k_max_search_and_cache_hits_counted(self):
        obs.enable()
        model = FixedLoadModel(AdaptiveUtility())
        model.k_max(64.0)
        model.k_max(64.0)
        counters = obs.snapshot()["counters"]
        assert counters["model.k_max.searches"] == 1.0
        assert counters["model.k_max.cache_hits"] == 1.0


class TestSimulatorInstrumentation:
    def _run(self, **kwargs):
        process = BirthDeathProcess(PoissonLoad(15.0))
        return FlowSimulator(process, Link(20.0), AdmitAll()).run(
            40.0, seed=3, **kwargs
        )

    def test_progress_hook_called_every_n_events(self):
        ticks = []
        self._run(progress=lambda events, t: ticks.append((events, t)),
                  progress_every=250)
        assert len(ticks) >= 2
        assert [e for e, _ in ticks] == [250 * (i + 1) for i in range(len(ticks))]
        times = [t for _, t in ticks]
        assert times == sorted(times)

    def test_progress_every_validated(self):
        with pytest.raises(ValueError):
            self._run(progress=lambda e, t: None, progress_every=0)

    def test_no_progress_by_default(self):
        result = self._run()
        assert len(result.flows) > 0

    def test_simulation_metrics_recorded(self):
        obs.enable()
        result = self._run()
        counters = obs.snapshot()["counters"]
        admitted = int(np.sum(result.flows.admitted))
        assert counters["sim.events"] > 0
        assert counters["sim.flows.admitted"] == float(admitted)
        assert counters["sim.flows.rejected"] == float(
            len(result.flows) - admitted
        )
        assert obs.gauge("sim.event_rate").value > 0.0

    def test_simulation_silent_when_disabled(self):
        self._run()
        assert obs.snapshot()["counters"] == {}


class TestModelLevelCounters:
    def test_variable_load_sweep_touches_solver_counters(self):
        obs.enable()
        model = VariableLoadModel(PoissonLoad(20.0), RigidUtility(1.0))
        model.bandwidth_gap(15.0)
        counters = obs.snapshot()["counters"]
        assert counters.get("batch.solve.calls", 0) >= 1
        assert counters.get("model.k_max.searches", 0) >= 1
