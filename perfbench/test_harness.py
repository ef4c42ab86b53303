"""Tests of the benchmark harness, at the workloads' tiny size.

    python -m pytest perfbench/test_harness.py

Each workload runs once untraced and once traced (a few seconds each);
the output checks are also fed deliberately wrong answers.
"""

from __future__ import annotations

import dataclasses
import random
import statistics
import sys
from types import SimpleNamespace

import pytest

from perfbench import SRC

if str(SRC) not in sys.path:  # repro from source, in this process and its children
    sys.path.insert(0, str(SRC))

from perfbench import compare, harness, layers, paper, replay, service, stats, verify  # noqa: E402

SPEC = harness.load_spec()

#: Layers each workload exercises (the README's layer table).
EXERCISED = {
    "paper": ("experiments", "models", "numerics", "simulation", "runner"),
    "verify": ("verify", "models", "numerics", "simulation", "meanfield", "emulator", "runner"),
    "service": ("models", "numerics", "meanfield", "emulator", "service", "runner"),
    "replay": ("traces",),
}


@pytest.fixture(scope="module")
def outcomes(tmp_path_factory):
    cache = {}

    def get(workload: str, trace: bool):
        if (workload, trace) not in cache:
            tmp = tmp_path_factory.mktemp(f"{workload}-{int(trace)}")
            module = harness.WORKLOADS[workload]
            cache[workload, trace] = module.run(7, 1.0, trace, tmp, size="tiny")
        return cache[workload, trace]

    return get


def test_spec_matches_the_metric_catalogue():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds, key=bounds.get) == "setup_s"


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(outcomes, workload):
    outcome = outcomes(workload, False)
    assert outcome.failures == []
    assert outcome.attempted > 0
    for metric in SPEC["end_to_end"]:
        assert outcome.metrics[metric["name"]] > 0.0, metric["name"]


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_traced_run_records_every_exercised_layer(outcomes, workload):
    outcome = outcomes(workload, True)
    assert outcome.failures == []
    assert set(outcome.metrics) == set(layers.PER_LAYER)
    for layer in EXERCISED[workload]:
        recorded = [
            value
            for name, value in outcome.metrics.items()
            if name.startswith(f"{layer}.") and not name.endswith(".self_ms")
        ]
        assert any(value > 0.0 for value in recorded), layer
    assert outcome.trace_groups and all(roots for _, roots in outcome.trace_groups)


def test_chrome_trace_validates(outcomes, tmp_path):
    outcome = outcomes("replay", True)
    assert layers.write_chrome_trace(tmp_path / "t.json", outcome.trace_groups, run_id="t") == []


def test_paper_checks_reject_wrong_answers():
    from repro import runner
    from repro.experiments.params import FAST_CONFIG

    report = runner.run_many(["F2", "T1"], config=FAST_CONFIG, use_cache=False)
    results = {o.exp_id: o.result() for o in report.outcomes}
    assert paper.check_results(results, FAST_CONFIG.kbar) == []
    results["F2"]["best_effort_rigid"][-1] = 0.5
    results["T1"][0] = dataclasses.replace(results["T1"][0], matches=False)
    failures = paper.check_results(results, FAST_CONFIG.kbar)
    assert [f.split(":")[0] for f in failures] == ["F2", "T1"]


def test_verify_checks_reject_wrong_answers():
    from repro.verify.report import InvariantOutcome, VerificationReport

    def outcome(passed):
        return InvariantOutcome("B1", "", "", ("batch",), passed, 0.5, "", "bad", 0.1)

    good = VerificationReport("fast", (outcome(True),), 0.1)
    assert verify.check_report(good, 1) == []
    assert verify.check_report(good, 52) != []
    assert verify.check_report(VerificationReport("fast", (outcome(False),), 0.1), None)


def test_service_checks_reject_wrong_answers():
    hit = service.Request("point_hit", "delta", "poisson", "adaptive", (100.0,))
    exact = service.Request("exact", "delta", "poisson", "rigid", (100.0,))
    records = [
        service.Record(
            hit, 0.001, {"source": "surface", "value": 0.5, "certified_bound": 1e-3}, None
        ),
        service.Record(exact, 0.001, {"source": "exact", "value": 0.25}, None),
        service.Record(exact, 0.001, {"source": "surface", "value": 0.25}, None),
        service.Record(exact, 0.001, None, "HTTP 500: boom"),
    ]
    assert sorted(service.check_sources(records)) == [2, 3]
    truth = {"point_hit": [0.5], "exact": [0.25]}
    assert service.check_values(
        records[:2], random.Random(0), 1.0, lambda r, xs: truth[r.kind]
    ) == {}
    wrong = {"point_hit": [0.51], "exact": [0.25000001]}
    failures = service.check_values(records[:2], random.Random(0), 1.0, lambda r, xs: wrong[r.kind])
    assert sorted(failures) == [0, 1]


def test_replay_checks_reject_wrong_answers():
    occ = SimpleNamespace(flows=100, max_pending=10)
    result = SimpleNamespace(capacity=95.0, paired=SimpleNamespace(gap_ci=0.01))
    assert replay.check_replay("p", occ, [result], 100, 100.0) == []
    assert replay.check_replay("p", occ, [result], 101, 100.0)
    flat = SimpleNamespace(capacity=95.0, paired=SimpleNamespace(gap_ci=0.0))
    assert replay.check_replay("p", occ, [flat], 100, 100.0)
    assert replay.check_replay("p", SimpleNamespace(flows=100, max_pending=801), [], 100, 100.0)


def test_median_and_quartiles_on_fixed_inputs():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 8.0, 7.0, 6.0]
    assert stats.median(values) == 4.5
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4)[::2])
    assert stats.quartiles(values) == (2.25, 6.75)
    assert stats.iqr_share(values) == pytest.approx(4.5 / 4.5)
    assert stats.lower_quartile(values) == 2.75
    assert stats.lower_quartile([2.0, 1.0, 3.0]) == 1.5
    assert stats.lower_quartile([1.0, 2.0]) == 1.25  # inside the samples, unlike n=4 exclusive
    assert stats.lower_quartile([3.0]) == 3.0


def test_percentiles_need_ten_samples_beyond():
    values = list(range(1, 1001))
    assert stats.percentile(values, 99.0) == 990
    assert stats.samples_beyond(99.0, 1000) == 10
    assert stats.tail(values) == (99.0, 990)
    assert stats.samples_beyond(99.0, 999) == 9
    assert stats.tail(values[:999]) == (90.0, 900)
    assert stats.samples_beyond(99.9, 10_000) == 10
    assert stats.tail(list(range(10_000)))[0] == 99.9
    assert stats.tail(list(range(19))) is None
    assert stats.tail(list(range(100))) == (90.0, 89)


def test_compare_verdicts_on_fixed_runs():
    metric = {"name": "cold_ms", "better": "lower", "bound": 0.1}
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.2]
    assert compare.verdict(metric, parent, [x * 0.8 for x in parent]).startswith("gain")
    assert compare.verdict(metric, parent, [x * 1.2 for x in parent]).startswith("regression")
    assert compare.verdict(metric, parent, [x * 1.05 for x in parent]) == "same"
    # nine wins in ten are not enough when the medians sit inside the parent's spread
    close = [x - 0.1 for x in parent[:9]] + [parent[9] + 1.0]
    assert compare.verdict(metric, parent, close) == "same"


def test_compare_leaves_each_checkout_ledger_as_it_was(tmp_path):
    path = tmp_path / harness.LEDGER.relative_to(harness.ROOT)
    path.parent.mkdir(parents=True)
    path.write_text("kept\n")
    with compare.ledger_kept(tmp_path):
        path.write_text("kept\nappended\n")
    assert path.read_text() == "kept\n"
    path.unlink()
    with compare.ledger_kept(tmp_path):
        path.write_text("appended\n")
    assert not path.exists()
