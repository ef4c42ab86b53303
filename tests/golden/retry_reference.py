"""Independent reference for the Section 5.2 retry pins.

An independent check on :class:`repro.models.RetryingModel`: it uses no
``repro`` model, load, utility or solver code.  For the algebraic load
``P(k) = (lam + k)**-z / zeta(z, lam + 1)`` on ``k >= 1`` and the
adaptive utility ``pi(b) = 1 - exp(-b**2 / (kappa + b))`` it computes:

- the shift ``lam`` with mean ``m`` by ``scipy.optimize.brentq`` on the
  Hurwitz-zeta mean ``zeta(z-1, lam+1) / zeta(z, lam+1) - lam``;
- ``k_max(C)`` as a direct integer argmax of ``k pi(C/k)``;
- the offered load ``L~`` balancing ``E_{L~}[min(K, k_max)] = L`` by
  ``brentq`` on ``[L, 10 L]``, with the carried load summed directly
  over the pmf and the overload mass ``P(K > k_max)`` from one zeta;
- ``R~ = V_R(L~) / L - alpha (L~ / L - 1)`` with ``V_R`` the direct sum
  ``sum_{k<=k_max} P(k) k pi(C/k) + k_max pi(C/k_max) P(K > k_max)``,
  and ``B`` a direct sum of ``P(k) k pi(C/k) / L`` to ``2**22`` terms
  (the remainder is below ``C**2 / (3 kappa 2**66)``).

Run as a script, it recomputes ``retrying_T5``'s ``reservation`` and
``delta`` in ``tests/golden/figures.json`` at the paper's parameters
and exits nonzero if any value is more than :data:`MODEL_RTOL` from the
model or :data:`PIN_RTOL` from the pin:

    PYTHONPATH=src python tests/golden/retry_reference.py
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np
from scipy import optimize, special

#: Largest allowed relative deviation from the model, and from the pins.
MODEL_RTOL = 1e-9
PIN_RTOL = 1e-7

#: Terms of the direct best-effort sum.
TERMS = 1 << 22

#: Largest blocking the balance may carry: its bracket is [L, L/(1 - 0.9)].
THETA_CEILING = 0.9

GOLDEN = pathlib.Path(__file__).parent / "figures.json"


def utility(b, kappa):
    """The paper's adaptive utility (its Eq. 2)."""
    b = np.asarray(b, dtype=float)
    return 1.0 - np.exp(-b * b / (kappa + b))


def shift_for_mean(z: float, mean: float) -> float:
    """``lam`` with ``E[K] = mean``: the mean grows with ``lam``."""

    def excess(lam: float) -> float:
        return special.zeta(z - 1.0, lam + 1.0) / special.zeta(z, lam + 1.0) - lam - mean

    hi = max(4.0 * mean, 16.0)
    while excess(hi) < 0.0:
        hi *= 2.0
    return optimize.brentq(excess, 0.0, hi, xtol=1e-14, rtol=8.9e-16)


def pmf(z: float, lam: float, ks: np.ndarray) -> np.ndarray:
    return (lam + ks) ** -z / special.zeta(z, lam + 1.0)


def overload(z: float, lam: float, k: int) -> float:
    """``P(K > k)``: one zeta over the normalisation."""
    return special.zeta(z, lam + k + 1.0) / special.zeta(z, lam + 1.0)


def k_max(capacity: float, kappa: float) -> int:
    """Argmax of ``k pi(C/k)`` over ``1 <= k <= 64 C + 64``."""
    ks = np.arange(1.0, 64.0 * capacity + 65.0)
    return int(ks[np.argmax(ks * utility(capacity / ks, kappa))])


def carried(z: float, mean: float, k: int) -> float:
    """``E[min(K, k)]`` at the family member with mean ``mean``."""
    lam = shift_for_mean(z, mean)
    ks = np.arange(1.0, k + 1.0)
    return float(np.sum(ks * pmf(z, lam, ks)) + k * overload(z, lam, k))


def offered_load(z: float, mean: float, k: int) -> float:
    """``L~`` with ``E_{L~}[min(K, k)] = L`` (raises past the blocking ceiling)."""
    top = mean / (1.0 - THETA_CEILING)
    return optimize.brentq(
        lambda m: carried(z, m, k) - mean, mean, top, xtol=1e-13, rtol=8.9e-16
    )


def retry_values(z: float, mean: float, kappa: float, alpha: float, capacity: float) -> dict:
    """``R~``, ``B`` and ``delta~ = R~ - B`` at one capacity."""
    k = k_max(capacity, kappa)
    offered = offered_load(z, mean, k)
    lam = shift_for_mean(z, offered)
    ks = np.arange(1.0, k + 1.0)
    admitted = np.sum(pmf(z, lam, ks) * ks * utility(capacity / ks, kappa))
    v_r = admitted + k * utility(capacity / k, kappa) * overload(z, lam, k)
    reservation = v_r / mean - alpha * (offered / mean - 1.0)
    base = shift_for_mean(z, mean)
    ks = np.arange(1.0, TERMS + 1.0)
    best_effort = np.sum(pmf(z, base, ks) * ks * utility(capacity / ks, kappa)) / mean
    return {
        "reservation": float(reservation),
        "best_effort": float(best_effort),
        "delta": float(reservation - best_effort),
    }


def check_retry_pins() -> int:
    """Compare the model and the ``retrying_T5`` pins with the reference."""
    from repro.experiments.params import DEFAULT_CONFIG
    from repro.models import RetryingModel

    cfg = DEFAULT_CONFIG
    entry = json.loads(GOLDEN.read_text())["retrying_T5"]
    model = RetryingModel(
        cfg.load(entry["load"]), cfg.utility("adaptive"), alpha=entry["alpha"]
    )
    caps = np.asarray(entry["capacity"], dtype=float)
    got = {
        "reservation": model.reservation_batch(caps),
        "delta": model.performance_gap_batch(caps),
    }
    worst = {"model": 0.0, "pin": 0.0}
    for i, capacity in enumerate(caps.tolist()):
        ref = retry_values(cfg.z, cfg.kbar, cfg.kappa, entry["alpha"], capacity)
        for quantity in ("reservation", "delta"):
            want = ref[quantity]
            vs_model = abs(got[quantity][i] - want) / abs(want)
            vs_pin = abs(entry[quantity][i] - want) / abs(want)
            worst["model"] = max(worst["model"], vs_model)
            worst["pin"] = max(worst["pin"], vs_pin)
            flag = "ok" if vs_model <= MODEL_RTOL and vs_pin <= PIN_RTOL else "FAIL"
            print(
                f"C={capacity:g} {quantity} ref={want!r} model rel={vs_model:.2e} "
                f"pin rel={vs_pin:.2e} {flag}"
            )
    print(
        f"worst relative deviation: model {worst['model']:.3e} (limit {MODEL_RTOL:g}), "
        f"pins {worst['pin']:.3e} (limit {PIN_RTOL:g})"
    )
    return 0 if worst["model"] <= MODEL_RTOL and worst["pin"] <= PIN_RTOL else 1


if __name__ == "__main__":
    sys.exit(check_retry_pins())
