#!/usr/bin/env python
"""Heavy-tail sensitivity study: the z -> 2+ frontier and beyond.

The paper's sharpest results live at the heavy-tail edge: as the
algebraic power z approaches 2, the reservation advantage climbs to its
conjectured maximum (bandwidth ratio e, equalizing ratio e) — and the
Section 5 extensions (sampling, retrying) blow past it.  This example
maps that frontier with the continuum closed forms, then confirms two
points with the discrete model at paper scale.

Run:
    python examples/heavy_tail_study.py
"""

import math

from repro.continuum import (
    AdaptiveAlgebraicContinuum,
    RigidAlgebraicContinuum,
    adaptive_algebraic_ratio_limit,
    retrying_rigid_ratio,
    sampling_rigid_ratio,
)
from repro.loads import AlgebraicLoad
from repro.models import VariableLoadModel
from repro.utility import AdaptiveUtility, RigidUtility


def main() -> None:
    print("the z -> 2+ frontier (continuum closed forms)\n")
    print(
        f"{'z':>6} {'basic ratio':>12} {'ramp a=.5':>10} "
        f"{'sampling S=5':>13} {'retrying a=.1':>14}"
    )
    for z in (4.0, 3.0, 2.5, 2.2, 2.1, 2.05):
        basic = RigidAlgebraicContinuum(z).gap_ratio()
        ramp = AdaptiveAlgebraicContinuum(z, 0.5).gap_ratio()
        sampling = sampling_rigid_ratio(z, 5)
        retrying = retrying_rigid_ratio(z, 0.1)
        print(
            f"{z:6.2f} {basic:12.4f} {ramp:10.4f} {sampling:13.4g} {retrying:14.4g}"
        )
    print(
        f"\nbasic-model bound: ratio -> e = {math.e:.5f} as z -> 2+ "
        "(the paper's conjectured maximum);"
    )
    print("the extensions diverge — no bound survives sampling or retries.\n")

    print("adaptivity softens the frontier (z -> 2+ limit by dead zone a):")
    for a in (0.1, 0.3, 0.5, 0.7, 0.9):
        print(f"  a={a:.1f}: limit ratio = {adaptive_algebraic_ratio_limit(a):.4f}")

    print("\ndiscrete model at paper scale (k_bar = 100): the gap ratio in action")
    print(f"{'z':>6} {'utility':>9} {'Delta(400)/400':>15} {'Delta(800)/800':>15}")
    for z in (3.0, 2.5):
        load = AlgebraicLoad.from_mean(z, 100.0)
        for utility, name in ((RigidUtility(1.0), "rigid"), (AdaptiveUtility(), "adaptive")):
            model = VariableLoadModel(load, utility)
            r400 = model.bandwidth_gap(400.0) / 400.0
            r800 = model.bandwidth_gap(800.0) / 800.0
            print(f"{z:6.2f} {name:>9} {r400:15.4f} {r800:15.4f}")
    print(
        "\nthe per-capacity ratio is roughly constant — the linear growth "
        "the paper proves in the continuum survives in the discrete model."
    )

    gamma_reversal_demo()


def gamma_reversal_demo() -> None:
    """Section 5.2's welfare reversal, computed at paper scale."""
    import numpy as np

    from repro.models import RetryingModel, WelfareModel

    print("\nretrying welfare reversal: gamma(p) is no longer monotone")
    load = AlgebraicLoad.from_mean(3.0, 100.0)
    retry = RetryingModel(load, AdaptiveUtility(), alpha=0.1)
    welfare = WelfareModel(retry, capacities=np.geomspace(220.0, 8000.0, 160))
    lo, hi = welfare.price_range()
    for p in np.geomspace(lo * 1.3, hi * 0.7, 8):
        gamma = welfare.equalizing_ratio(float(p))
        print(f"  p={p:9.5f}  gamma={gamma:7.4f}")
    print(
        "  gamma peaks at an interior price and *decreases* as bandwidth "
        "gets cheaper — with retries, cheap bandwidth no longer erases "
        "the case for reservations (paper Section 5.2)."
    )


if __name__ == "__main__":
    main()
