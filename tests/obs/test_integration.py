"""Instrumentation wiring: solvers, quadrature, optimizers, simulator."""

import numpy as np
import pytest

from repro import obs
from repro.loads import PoissonLoad
from repro.models import FixedLoadModel, VariableLoadModel
from repro.numerics.optimize import maximize_scalar
from repro.numerics.quadrature import integrate
from repro.numerics.solvers import (
    SolverDiagnostics,
    find_root,
    find_root_diag,
    last_diagnostics,
)
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
    def test_diag_reports_iterations_and_residual(self):
        root, diag = find_root_diag(lambda x: x * x - 9.0, 0.0, 10.0)
        assert root == pytest.approx(3.0)
        assert isinstance(diag, SolverDiagnostics)
        assert diag.converged and diag.met_tolerance
        assert diag.iterations > 0
        assert diag.function_calls >= diag.iterations
        assert abs(diag.residual) < 1e-9

    def test_diag_endpoint_shortcuts(self):
        _, diag = find_root_diag(lambda x: x, 0.0, 1.0)
        assert diag.iterations == 0 and diag.residual == 0.0

    def test_diag_records_bracket_expansion(self):
        root, diag = find_root_diag(
            lambda x: x - 50.0, 0.0, 1.0, expand=True, label="expanded"
        )
        assert root == pytest.approx(50.0)
        assert diag.bracket_expanded
        assert diag.label == "expanded"

    def test_last_diagnostics_tracks_diagnosed_solves(self):
        find_root_diag(lambda x: x - 2.0, 0.0, 5.0, label="first")
        find_root_diag(lambda x: x - 4.0, 0.0, 5.0, label="second")
        assert last_diagnostics().label == "second"

    def test_find_root_meters_without_allocating_diagnostics(self):
        obs.enable()
        find_root(lambda x: x - 1.5, 0.0, 5.0, label="observed")
        # aggregate metrics recorded, but no per-solve record kept
        assert obs.counter("solver.find_root.calls").value == 1.0
        previous = last_diagnostics()
        assert previous is None or previous.label != "observed"

    def test_solver_metrics_recorded(self):
        obs.enable()
        find_root(lambda x: x * x - 2.0, 0.0, 2.0)
        find_root(lambda x: x - 50.0, 0.0, 1.0, expand=True)
        counters = obs.snapshot()["counters"]
        assert counters["solver.find_root.calls"] == 2.0
        assert counters["solver.find_root.iterations"] > 0
        assert counters["solver.bracket_expansions"] == 1.0
        # |f(root)| is sampled: the first solve (calls == 0) pays for it
        assert obs.snapshot()["histograms"]["solver.find_root.residual"]["count"] == 1

    def test_residual_sampling_stride(self):
        from repro.numerics.solvers import RESIDUAL_SAMPLE_EVERY

        obs.enable()
        for _ in range(RESIDUAL_SAMPLE_EVERY + 1):
            find_root(lambda x: x * x - 2.0, 0.0, 2.0)
        hist = obs.snapshot()["histograms"]["solver.find_root.residual"]
        # solves 0 and RESIDUAL_SAMPLE_EVERY are sampled, the rest skip
        assert hist["count"] == 2
        # diag solves are always recorded exactly, sampling aside
        find_root_diag(lambda x: x * x - 2.0, 0.0, 2.0)
        hist = obs.snapshot()["histograms"]["solver.find_root.residual"]
        assert hist["count"] == 3

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
    def test_maximize_scalar_counted(self):
        obs.enable()
        x, v = maximize_scalar(lambda x: -(x - 2.0) ** 2, 0.0, 5.0, grid=16)
        assert x == pytest.approx(2.0, abs=1e-6)
        counters = obs.snapshot()["counters"]
        assert counters["optimize.maximize_scalar.calls"] == 1.0
        assert counters["optimize.maximize_scalar.evaluations"] == 17.0

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
