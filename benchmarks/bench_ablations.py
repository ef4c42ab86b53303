"""Ablation benchmarks for the design choices DESIGN.md calls out.

**Admission-threshold sensitivity** — how much utility a mis-estimated
``k_max`` costs.
"""

from benchmarks.conftest import run_once
from repro.models import VariableLoadModel
from repro.utility import AdaptiveUtility


def test_ablation_threshold_sensitivity(benchmark, record):
    """How much does getting k_max exactly right matter?

    Admission controllers estimate the threshold from measurements; a
    trunk-reservation margin or an estimation error moves it off the
    optimum.  This ablation sweeps multiplicative threshold errors.
    """
    from repro.loads import GeometricLoad

    load = GeometricLoad.from_mean(100.0)
    model = VariableLoadModel(load, AdaptiveUtility())
    capacity = 120.0

    def sweep():
        k_star = model.k_max(capacity)
        rows = [f"k_max(C={capacity:.0f}) = {k_star}; B = {model.best_effort(capacity):.4f}"]
        values = {}
        for mult in (0.5, 0.75, 0.9, 1.0, 1.1, 1.5, 3.0):
            k = max(1, int(round(mult * k_star)))
            r = model.reservation_at_threshold(capacity, k)
            values[mult] = r
            rows.append(f"threshold = {mult:4.2f} * k_max ({k:4d}): R = {r:.4f}")
        return "\n".join(rows), values

    text, values = run_once(benchmark, sweep)
    record("ablation_threshold", text)
    best = values[1.0]
    # the optimum is flat nearby (10% error costs < 0.5% utility) but
    # halving the threshold costs real utility
    assert values[0.9] > best - 0.005
    assert values[1.1] > best - 0.005
    assert values[0.5] < best - 0.02
    # and an over-loose threshold degrades toward best effort
    assert values[3.0] < best
