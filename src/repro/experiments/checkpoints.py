"""Paper-vs-measured checkpoints: every number quoted in the text.

The paper quotes specific values in prose (Section 3.3's "delta is
approximately .27 and .07 at capacities 2k and 4k", Section 4's
"between 1.1 and 1.2", Section 5's sampling and retrying contrasts,
the continuum limits e and e-1).  Each checkpoint here recomputes one
of those from our models and reports it next to the paper's claim.
``EXPERIMENTS.md`` is generated from these rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.continuum import (
    AdaptiveAlgebraicContinuum,
    AdaptiveExponentialContinuum,
    RigidAlgebraicContinuum,
    RigidExponentialContinuum,
    adaptive_algebraic_ratio_limit,
    retrying_rigid_ratio,
    rigid_algebraic_ratio,
    sampling_rigid_ratio,
)
from repro.experiments.figures import retrying_gamma
from repro.experiments.params import DEFAULT_CONFIG, PaperConfig
from repro.models import (
    RetryingModel,
    SamplingModel,
    VariableLoadModel,
    WelfareModel,
)


@dataclass(frozen=True)
class Checkpoint:
    """One paper-quoted value next to our measurement."""

    exp_id: str
    description: str
    paper_value: str
    measured: float
    matches: bool

    def row(self) -> str:
        """One formatted report line."""
        flag = "ok" if self.matches else "DIFFERS"
        return (
            f"[{self.exp_id}] {self.description}: paper={self.paper_value} "
            f"measured={self.measured:.6g} [{flag}]"
        )


def section3_checkpoints(config: Optional[PaperConfig] = None) -> List[Checkpoint]:
    """Section 3.3 prose numbers (discrete variable-load model)."""
    cfg = config or DEFAULT_CONFIG
    rows: List[Checkpoint] = []
    kbar = cfg.kbar

    # Poisson, rigid: delta peaks near 0.8, Delta peaks near 80
    m = VariableLoadModel(cfg.load("poisson"), cfg.utility("rigid"))
    caps = [40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0]
    delta_peak = float(np.max(m.performance_gap_batch(caps)))
    rows.append(
        Checkpoint(
            "T1.1",
            "Poisson/rigid: peak performance gap",
            "~0.8",
            delta_peak,
            0.7 <= delta_peak <= 0.9,
        )
    )
    # the bandwidth-gap peak sits at small C, where R(C) ~ C/k is
    # linear but B(C) only wakes up near C = k (see Figure 2b)
    gap_peak = float(np.max(m.bandwidth_gap_batch([5.0, 10.0, 20.0, 30.0, *caps])))
    rows.append(
        Checkpoint(
            "T1.2",
            "Poisson/rigid: peak bandwidth gap",
            "~80",
            gap_peak,
            60.0 <= gap_peak <= 100.0,
        )
    )
    tiny = m.performance_gap(2.0 * kbar)
    rows.append(
        Checkpoint(
            "T1.3",
            "Poisson/rigid: gap at C=2k (superexponential vanishing)",
            "<1e-15",
            tiny,
            tiny < 1e-15,
        )
    )

    # exponential, rigid: delta ~ .27 at 2k, ~.07 at 4k
    m = VariableLoadModel(cfg.load("exponential"), cfg.utility("rigid"))
    d2 = m.performance_gap(2.0 * kbar)
    d4 = m.performance_gap(4.0 * kbar)
    rows.append(
        Checkpoint(
            "T1.4", "exponential/rigid: delta(2k)", "~0.27", d2, abs(d2 - 0.27) < 0.03
        )
    )
    rows.append(
        Checkpoint(
            "T1.5", "exponential/rigid: delta(4k)", "~0.07", d4, abs(d4 - 0.07) < 0.02
        )
    )
    increasing = bool(
        np.all(np.diff(m.bandwidth_gap_batch([100.0, 200.0, 400.0, 800.0])) > 0.0)
    )
    rows.append(
        Checkpoint(
            "T1.6",
            "exponential/rigid: Delta(C) monotone increasing",
            "increasing",
            float(increasing),
            increasing,
        )
    )

    # exponential, adaptive: delta < .01 at 2k, < .001 at 4k; Delta peak ~ 9
    m = VariableLoadModel(cfg.load("exponential"), cfg.utility("adaptive"))
    d2 = m.performance_gap(2.0 * kbar)
    d4 = m.performance_gap(4.0 * kbar)
    rows.append(
        Checkpoint(
            "T1.7", "exponential/adaptive: delta(2k)", "<0.01", d2, d2 < 0.01
        )
    )
    rows.append(
        Checkpoint(
            "T1.8", "exponential/adaptive: delta(4k)", "<0.001", d4, d4 < 0.001
        )
    )
    peak = float(np.max(m.bandwidth_gap_batch([30.0, 40.0, 50.0, 60.0, 80.0])))
    rows.append(
        Checkpoint(
            "T1.9",
            "exponential/adaptive: peak bandwidth gap",
            "~9",
            peak,
            7.0 <= peak <= 11.0,
        )
    )

    # algebraic, rigid: gap ~.20 at 2k / ~.10 at 4k; Delta slope ~1
    m = VariableLoadModel(cfg.load("algebraic"), cfg.utility("rigid"))
    d2 = m.performance_gap(2.0 * kbar)
    d4 = m.performance_gap(4.0 * kbar)
    rows.append(
        Checkpoint(
            "T1.10",
            "algebraic/rigid: R-B gap at 2k (paper ~.20)",
            "~0.20",
            d2,
            0.1 <= d2 <= 0.3,
        )
    )
    rows.append(
        Checkpoint(
            "T1.11",
            "algebraic/rigid: R-B gap at 4k (paper ~.10)",
            "~0.10",
            d4,
            0.05 <= d4 <= 0.2,
        )
    )
    low, high = m.bandwidth_gap_batch([4.0 * kbar, 8.0 * kbar]).tolist()
    slope_rigid = (high - low) / (4.0 * kbar)
    rows.append(
        Checkpoint(
            "T1.12",
            "algebraic/rigid: Delta slope (linear growth, ~1 at z=3)",
            "~1",
            slope_rigid,
            0.7 <= slope_rigid <= 1.3,
        )
    )

    # algebraic, adaptive: still linear but slope reduced > 20x
    m = VariableLoadModel(cfg.load("algebraic"), cfg.utility("adaptive"))
    low, high = m.bandwidth_gap_batch([4.0 * kbar, 8.0 * kbar]).tolist()
    slope_adaptive = (high - low) / (4.0 * kbar)
    reduction = slope_rigid / max(slope_adaptive, 1e-12)
    rows.append(
        Checkpoint(
            "T1.13",
            "algebraic: rigid/adaptive Delta slope ratio (paper: >20x)",
            ">20",
            reduction,
            reduction > 20.0,
        )
    )
    return rows


def continuum_checkpoints(config: Optional[PaperConfig] = None) -> List[Checkpoint]:
    """Section 3.2/3.3 continuum closed-form results."""
    cfg = config or DEFAULT_CONFIG
    rows: List[Checkpoint] = []

    # rigid-exponential: Delta grows like ln(beta C)/beta
    re = RigidExponentialContinuum(beta=1.0)
    big = 1e5
    measured = re.bandwidth_gap(big) / math.log(big)
    rows.append(
        Checkpoint(
            "T2.1",
            "rigid/exp continuum: Delta(C)/ln(C) -> 1/beta",
            "1.0",
            measured,
            abs(measured - 1.0) < 0.15,
        )
    )

    # adaptive-exponential: Delta -> -ln(1-a)/beta
    ae = AdaptiveExponentialContinuum(a=cfg.ramp_a, beta=1.0)
    limit = ae.bandwidth_gap_limit()
    # C = 15 mean loads: the correction term ~ e^{-C} is ~3e-7 while the
    # raw gaps are still far above the numerical floor
    measured = ae.bandwidth_gap(15.0)
    rows.append(
        Checkpoint(
            "T2.2",
            f"adaptive(a={cfg.ramp_a})/exp continuum: Delta -> -ln(1-a)",
            f"{limit:.6g}",
            measured,
            abs(measured - limit) < 1e-3,
        )
    )

    # rigid-algebraic: Delta(C) = C((z-1)^{1/(z-2)} - 1), exactly linear
    ra = RigidAlgebraicContinuum(cfg.z)
    ratio = ra.gap_ratio()
    rows.append(
        Checkpoint(
            "T2.3",
            f"rigid/alg continuum: (C+Delta)/C at z={cfg.z}",
            f"{(cfg.z - 1.0) ** (1.0 / (cfg.z - 2.0)):.6g}",
            ratio,
            abs(ratio - (cfg.z - 1.0) ** (1.0 / (cfg.z - 2.0))) < 1e-12,
        )
    )
    worst = rigid_algebraic_ratio(2.0005)
    rows.append(
        Checkpoint(
            "T2.4",
            "rigid/alg continuum: z->2+ ratio -> e (Delta/C -> e-1)",
            f"{math.e:.6g}",
            worst,
            abs(worst - math.e) < 0.01,
        )
    )

    # adaptive-algebraic: z->2+ ratio -> a^{-a/(1-a)} in [1, e)
    aa_limit = adaptive_algebraic_ratio_limit(cfg.ramp_a)
    aa = AdaptiveAlgebraicContinuum(2.0005, cfg.ramp_a)
    rows.append(
        Checkpoint(
            "T2.5",
            f"adaptive(a={cfg.ramp_a})/alg continuum: z->2+ ratio -> a^(-a/(1-a))",
            f"{aa_limit:.6g}",
            aa.gap_ratio(),
            abs(aa.gap_ratio() - aa_limit) < 0.01,
        )
    )
    return rows


def welfare_checkpoints(config: Optional[PaperConfig] = None) -> List[Checkpoint]:
    """Section 4 prose numbers (welfare / equalizing price ratio)."""
    cfg = config or DEFAULT_CONFIG
    rows: List[Checkpoint] = []

    # Poisson rigid: gamma in [1.1, 1.2] over most of the price range
    w = WelfareModel(VariableLoadModel(cfg.load("poisson"), cfg.utility("rigid")))
    gammas = w.equalizing_ratio_batch([0.2, 0.1, 0.05, 0.02]).tolist()
    in_band = all(1.05 <= g <= 1.25 for g in gammas)
    rows.append(
        Checkpoint(
            "T3.1",
            "Poisson/rigid: gamma(p) over mid prices",
            "1.1-1.2",
            sum(gammas) / len(gammas),
            in_band,
        )
    )

    # Poisson adaptive: gamma effectively 1 except at high prices
    w = WelfareModel(VariableLoadModel(cfg.load("poisson"), cfg.utility("adaptive")))
    g = w.equalizing_ratio(0.02)
    rows.append(
        Checkpoint(
            "T3.2", "Poisson/adaptive: gamma(0.02)", "~1.0", g, g < 1.01
        )
    )

    # algebraic rigid: gamma -> (z-1)^{1/(z-2)} = 2 at z=3
    w = WelfareModel(VariableLoadModel(cfg.load("algebraic"), cfg.utility("rigid")))
    g = w.equalizing_ratio(0.003)
    rows.append(
        Checkpoint(
            "T3.3",
            "algebraic/rigid: gamma(p->0) -> (z-1)^{1/(z-2)} = 2",
            "~2",
            g,
            1.8 <= g <= 2.3,
        )
    )

    # algebraic adaptive: gamma ~ 1.02 as p -> 0 (discrete model)
    w = WelfareModel(VariableLoadModel(cfg.load("algebraic"), cfg.utility("adaptive")))
    g = w.equalizing_ratio(0.003)
    rows.append(
        Checkpoint(
            "T3.4",
            "algebraic/adaptive: gamma(p->0) (paper ~1.02)",
            "~1.02",
            g,
            1.005 <= g <= 1.08,
        )
    )

    # continuum gamma -> e bound as z -> 2+
    g = RigidAlgebraicContinuum(2.0005).equalizing_ratio()
    rows.append(
        Checkpoint(
            "T3.5",
            "continuum: gamma bound as z->2+ -> e",
            f"{math.e:.6g}",
            g,
            abs(g - math.e) < 0.01,
        )
    )
    return rows


def sampling_checkpoints(config: Optional[PaperConfig] = None) -> List[Checkpoint]:
    """Section 5.1 prose numbers (sampling extension)."""
    cfg = config or DEFAULT_CONFIG
    rows: List[Checkpoint] = []
    kbar = cfg.kbar

    load = cfg.load("exponential")
    utility = cfg.utility("adaptive")
    base = VariableLoadModel(load, utility)
    sampled = SamplingModel(load, utility, cfg.samples)

    d_sampled = sampled.performance_gap(0.5 * kbar)
    rows.append(
        Checkpoint(
            "T4.1",
            f"exp/adaptive S={cfg.samples}: delta(0.5k) (paper ~0.21)",
            "~0.21",
            d_sampled,
            0.1 <= d_sampled <= 0.3,
        )
    )
    rows.append(
        Checkpoint(
            "T4.2",
            "exp/adaptive basic: delta(2k) for contrast",
            "<0.01",
            base.performance_gap(2.0 * kbar),
            base.performance_gap(2.0 * kbar) < 0.01,
        )
    )
    peak_caps = np.array([100.0, 130.0, 150.0, 180.0, 220.0])
    peak_gaps = sampled.bandwidth_gap_batch(peak_caps)
    peak_c = float(peak_caps[np.argmax(peak_gaps)])
    peak_v = float(np.max(peak_gaps))
    rows.append(
        Checkpoint(
            "T4.3",
            "exp/adaptive sampling: Delta peak ~2k at C~1.5k",
            "~200 at C~150",
            peak_v,
            120.0 <= peak_v <= 280.0 and 100.0 <= peak_c <= 220.0,
        )
    )

    # asymptotic ratio (S(z-1))^{1/(z-2)} and its divergence as z->2+
    pred = sampling_rigid_ratio(cfg.z, 3)
    rows.append(
        Checkpoint(
            "T4.4",
            "continuum sampling rigid ratio (S=3, z=3) = (S(z-1))^{1/(z-2)}",
            f"{3 * (cfg.z - 1.0):.6g}",
            pred,
            abs(pred - 6.0) < 1e-12,
        )
    )
    divergent = sampling_rigid_ratio(2.1, 3) > 100.0
    rows.append(
        Checkpoint(
            "T4.5",
            "sampling ratio diverges as z->2+ (S>1)",
            "divergent",
            sampling_rigid_ratio(2.1, 3),
            divergent,
        )
    )
    return rows


def retrying_checkpoints(config: Optional[PaperConfig] = None) -> List[Checkpoint]:
    """Section 5.2 prose numbers (retrying extension)."""
    cfg = config or DEFAULT_CONFIG
    rows: List[Checkpoint] = []
    kbar = cfg.kbar

    load = cfg.load("algebraic")
    utility = cfg.utility("adaptive")
    base = VariableLoadModel(load, utility)
    retry = RetryingModel(load, utility, alpha=cfg.alpha)

    d_base = base.performance_gap(4.0 * kbar)
    d_retry = retry.performance_gap(4.0 * kbar)
    amplification = d_retry / max(d_base, 1e-12)
    rows.append(
        Checkpoint(
            "T5.1",
            "alg/adaptive: retry/basic delta ratio at 4k (paper .027/.0025 ~ 10.8)",
            "~10.8",
            amplification,
            5.0 <= amplification <= 20.0,
        )
    )

    # retries matter more at large C (the paper's "more apparent in C >> k")
    rel_2k = retry.performance_gap(2.0 * kbar) / max(
        base.performance_gap(2.0 * kbar), 1e-12
    )
    rows.append(
        Checkpoint(
            "T5.2",
            "alg/adaptive: retry amplification grows with C",
            "grows",
            amplification - rel_2k,
            amplification > rel_2k,
        )
    )

    # Poisson/exponential: retrying has minimal effect
    for i, name in enumerate(("poisson", "exponential")):
        b = VariableLoadModel(cfg.load(name), utility)
        r = RetryingModel(cfg.load(name), utility, alpha=cfg.alpha)
        diff = abs(r.performance_gap(4.0 * kbar) - b.performance_gap(4.0 * kbar))
        rows.append(
            Checkpoint(
                f"T5.{3 + i}",
                f"{name}/adaptive: retrying changes delta(4k) only minimally",
                "<0.01",
                diff,
                diff < 0.01,
            )
        )

    # asymptotic ratio ((z-1)/alpha)^{1/(z-2)} unbounded as z -> 2+
    pred = retrying_rigid_ratio(cfg.z, cfg.alpha)
    rows.append(
        Checkpoint(
            "T5.5",
            f"continuum retrying rigid ratio (z={cfg.z}, alpha={cfg.alpha})",
            f"{(cfg.z - 1.0) / cfg.alpha:.6g}",
            pred,
            abs(pred - (cfg.z - 1.0) / cfg.alpha) < 1e-12,
        )
    )
    divergent = retrying_rigid_ratio(2.1, cfg.alpha) > 1e10
    rows.append(
        Checkpoint(
            "T5.6",
            "retrying ratio diverges as z->2+",
            "divergent",
            min(retrying_rigid_ratio(2.1, cfg.alpha), 1e300),
            divergent,
        )
    )

    # the welfare reversal: gamma(p) peaks inside the price range and
    # falls toward small p (prices ascend, so index 0 is the cheapest)
    gamma = retrying_gamma(cfg)["gamma"]
    peak = int(np.argmax(gamma))
    rows.append(
        Checkpoint(
            "T5.7",
            "alg/adaptive retry: gamma(p) peaks inside the price range, "
            "falls toward small p",
            "non-monotone",
            float(gamma[peak]),
            bool(
                np.all(np.isfinite(gamma))
                and 0 < peak < gamma.size - 1
                and gamma[0] < gamma[peak]
                and gamma[peak] > 1.3
            ),
        )
    )
    return rows


def all_checkpoints(config: Optional[PaperConfig] = None) -> List[Checkpoint]:
    """Every checkpoint, in experiment-id order."""
    cfg = config or DEFAULT_CONFIG
    rows: List[Checkpoint] = []
    rows.extend(section3_checkpoints(cfg))
    rows.extend(continuum_checkpoints(cfg))
    rows.extend(welfare_checkpoints(cfg))
    rows.extend(sampling_checkpoints(cfg))
    rows.extend(retrying_checkpoints(cfg))
    return rows
