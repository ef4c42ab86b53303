"""Generators for every figure in the paper.

Each function returns the numeric series behind one figure — exactly
the data a plotting script would need to redraw it:

- :func:`figure1` — the adaptive utility curve (Eq. 2).
- :func:`figure2` / :func:`figure3` / :func:`figure4` — the six-panel
  grids for Poisson / exponential / algebraic loads: panels (a,d) are
  ``B(C)`` and ``R(C)`` for rigid and adaptive apps, (b,e) the
  bandwidth gap ``Delta(C)``, and (c,f) the equalizing price ratio
  ``gamma(p)``.
- :func:`sampling_series` / :func:`retrying_series` — the Section 5
  extension sweeps quoted in the text.

All output is plain ``{name: ndarray}`` dicts, JSON-serialisable after
``.tolist()`` — the benchmark harness prints them as the paper's
rows/series.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.experiments.params import DEFAULT_CONFIG, PaperConfig
from repro.models import (
    RetryingModel,
    SamplingModel,
    VariableLoadModel,
    WelfareModel,
)
from repro.utility import AdaptiveUtility


def figure1(config: Optional[PaperConfig] = None, *, points: int = 200) -> dict:
    """Figure 1: the adaptive performance curve ``pi(b)`` (Eq. 2)."""
    cfg = config or DEFAULT_CONFIG
    utility = AdaptiveUtility(cfg.kappa)
    bandwidth = np.linspace(0.0, 10.0, points)
    return {
        "bandwidth": bandwidth,
        "utility": np.asarray(utility(bandwidth)),
        "kappa": np.array([cfg.kappa]),
    }


def _figure_panels(load_name: str, config: Optional[PaperConfig]) -> dict:
    """The six-panel data grid for one load distribution."""
    cfg = config or DEFAULT_CONFIG
    load = cfg.load(load_name)
    out: dict = {"capacity": np.asarray(cfg.capacities, dtype=float)}
    for util_name, tag in (("rigid", "rigid"), ("adaptive", "adaptive")):
        model = VariableLoadModel(load, cfg.utility(util_name))
        sweep = model.sweep(cfg.capacities)
        out[f"best_effort_{tag}"] = sweep["best_effort"]
        out[f"reservation_{tag}"] = sweep["reservation"]
        out[f"performance_gap_{tag}"] = sweep["performance_gap"]
        out[f"bandwidth_gap_{tag}"] = sweep["bandwidth_gap"]
        welfare = WelfareModel(model)
        curve = welfare.ratio_curve(cfg.prices)
        out[f"gamma_price_{tag}"] = curve["price"]
        out[f"gamma_{tag}"] = curve["gamma"]
    return out


def figure2(config: Optional[PaperConfig] = None) -> dict:
    """Figure 2: Poisson load — utility, bandwidth gap, price ratio."""
    return _figure_panels("poisson", config)


def figure3(config: Optional[PaperConfig] = None) -> dict:
    """Figure 3: exponential load — utility, bandwidth gap, price ratio."""
    return _figure_panels("exponential", config)


def figure4(config: Optional[PaperConfig] = None) -> dict:
    """Figure 4: algebraic load — utility, bandwidth gap, price ratio."""
    return _figure_panels("algebraic", config)


def continuum_series(config: Optional[PaperConfig] = None, *, points: int = 30) -> dict:
    """Analytic continuum overlays: B, R and Delta per worked case.

    Capacities are in mean-load units (k_bar = 1 for the continuum
    model); multiply by k_bar to overlay on the discrete figures.
    """
    from repro.continuum import (
        AdaptiveAlgebraicContinuum,
        AdaptiveExponentialContinuum,
        RigidAlgebraicContinuum,
        RigidExponentialContinuum,
    )

    cfg = config or DEFAULT_CONFIG
    caps = np.geomspace(1.05, 10.0, points)
    cases = {
        "rigid_exp": RigidExponentialContinuum(1.0),
        "adaptive_exp": AdaptiveExponentialContinuum(cfg.ramp_a, 1.0),
        "rigid_alg": RigidAlgebraicContinuum(cfg.z),
        "adaptive_alg": AdaptiveAlgebraicContinuum(cfg.z, cfg.ramp_a),
    }
    out: dict = {"capacity_over_kbar": caps}
    for tag, model in cases.items():
        out[f"best_effort_{tag}"] = model.best_effort_batch(caps)
        out[f"reservation_{tag}"] = model.reservation_batch(caps)
        out[f"bandwidth_gap_{tag}"] = model.bandwidth_gap_batch(caps)
    return out


def sampling_series(
    load_name: str = "exponential",
    util_name: str = "adaptive",
    config: Optional[PaperConfig] = None,
) -> dict:
    """Section 5.1 sweep: basic model vs worst-of-S sampling."""
    cfg = config or DEFAULT_CONFIG
    load = cfg.load(load_name)
    utility = cfg.utility(util_name)
    base = VariableLoadModel(load, utility)
    sampled = SamplingModel(load, utility, cfg.samples)
    base_sweep = base.sweep(cfg.capacities)
    sample_sweep = sampled.sweep(cfg.capacities)
    return {
        "capacity": base_sweep["capacity"],
        "samples": np.array([cfg.samples]),
        "performance_gap_basic": base_sweep["performance_gap"],
        "performance_gap_sampling": sample_sweep["performance_gap"],
        "bandwidth_gap_basic": base_sweep["bandwidth_gap"],
        "bandwidth_gap_sampling": sample_sweep["bandwidth_gap"],
    }


def retrying_series(
    load_name: str = "algebraic",
    util_name: str = "adaptive",
    config: Optional[PaperConfig] = None,
) -> dict:
    """Section 5.2 sweep: basic model vs retrying with penalty alpha."""
    cfg = config or DEFAULT_CONFIG
    load = cfg.load(load_name)
    utility = cfg.utility(util_name)
    base = VariableLoadModel(load, utility)
    retry = RetryingModel(load, utility, alpha=cfg.alpha)
    # the retry fixed point diverges under heavy blocking (offered load
    # grows without bound); the paper's Section 5.2 numbers live in the
    # provisioned regime, so the sweep starts at 2 k_bar
    caps = [c for c in cfg.capacities if c >= 2.0 * cfg.kbar]
    if len(caps) < 4:
        caps = list(np.linspace(2.0 * cfg.kbar, 8.0 * cfg.kbar, 7))
    base_sweep = base.sweep(caps)
    retry_sweep = retry.sweep(caps)
    return {
        "capacity": base_sweep["capacity"],
        "alpha": np.array([cfg.alpha]),
        "performance_gap_basic": base_sweep["performance_gap"],
        "performance_gap_retrying": retry_sweep["performance_gap"],
        "bandwidth_gap_basic": base_sweep["bandwidth_gap"],
        "bandwidth_gap_retrying": retry_sweep["bandwidth_gap"],
        "retries_per_flow": np.array(
            [retry.retries_per_flow(float(c)) for c in base_sweep["capacity"]]
        ),
    }
