#!/usr/bin/env python
"""Provisioning planner: a provider's capacity decision, per the paper.

Section 4's welfare model answers the provider's actual question: given
the price of bandwidth, how much capacity should I build, under each
architecture — and is the reservation machinery worth its complexity?

This example sweeps bandwidth prices for a chosen load/utility pair,
prints the welfare-optimal capacities and welfares, and the equalizing
price ratio gamma(p) — the fraction of extra per-unit cost the
reservation architecture could carry and still win.

Run:
    python examples/provisioning_planner.py [poisson|exponential|algebraic]
"""

import sys

import numpy as np

from repro.experiments.params import PaperConfig
from repro.models import Architecture, VariableLoadModel, WelfareModel


def plan(load_name: str) -> None:
    config = PaperConfig(kbar=100.0)
    load = config.load(load_name)
    utility = config.utility("adaptive")
    model = VariableLoadModel(load, utility)
    welfare = WelfareModel(model)

    print(f"provisioning plan — {load_name} load, adaptive applications")
    print(f"mean offered load: {load.mean:.0f} flows\n")
    print(
        f"{'price':>8} {'C_best_effort':>14} {'C_reservation':>14} "
        f"{'W_B':>8} {'W_R':>8} {'gamma':>7}"
    )
    table = (0.2, 0.1, 0.05, 0.02, 0.01, 0.005)
    best = welfare.provision_batch(table, Architecture.BEST_EFFORT)
    res = welfare.provision_batch(table, Architecture.RESERVATION)
    gammas = welfare.equalizing_ratio_batch(table)
    for i, price in enumerate(table):
        print(
            f"{price:8.3f} {best['capacity'][i]:14.1f} {res['capacity'][i]:14.1f} "
            f"{best['welfare'][i]:8.2f} {res['welfare'][i]:8.2f} {gammas[i]:7.4f}"
        )

    # the whole gamma curve in one batch call
    prices = np.geomspace(0.003, 0.2, 10)
    curve = welfare.ratio_curve(prices)
    print("\nequalizing price ratio gamma(p):")
    for p, g in zip(curve["price"], curve["gamma"]):
        bar = "#" * int(round((g - 1.0) * 200.0)) if np.isfinite(g) else ""
        print(f"  p={p:7.4f}  gamma={g:7.4f}  {bar}")

    tail = curve["gamma"][np.isfinite(curve["gamma"])]
    if len(tail) and tail[0] > 1.02:
        print(
            "\ncheap-bandwidth verdict: gamma stays above 1 — reservations "
            "keep a durable edge under this load (heavy tails)"
        )
    else:
        print(
            "\ncheap-bandwidth verdict: gamma -> 1 — overprovisioning "
            "eventually beats admission control here"
        )


def main() -> None:
    load_name = sys.argv[1] if len(sys.argv) > 1 else "algebraic"
    if load_name not in {"poisson", "exponential", "algebraic"}:
        raise SystemExit(f"unknown load {load_name!r}")
    plan(load_name)


if __name__ == "__main__":
    main()
