"""Network-wide admission control as an integer program.

The single-link reservation architecture admits ``k_max(C) = C`` unit
flows; its network analogue must pick, per census vector, how many
flows to admit on each route so that every link honours its
reservations:

    maximize    sum_r  w_r n_r
    subject to  sum_{r: l in r} d_r n_r <= C_l   for every link l
                0 <= n_r <= k_r, integer         for every route r

with per-flow reservations of the route's ``demand`` ``d_r`` and
weights ``w_r`` defaulting to 1 (utilitarian: maximise admitted
flows).  Solved exactly with ``scipy.optimize.milp``.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

import numpy as np

from repro.errors import ModelError
from repro.network.topology import NetworkTopology


def admit_flows(
    counts: Mapping[str, int],
    topology: NetworkTopology,
    *,
    weights: Optional[Mapping[str, float]] = None,
) -> Dict[str, int]:
    """Optimal admitted counts per route for one census vector.

    Returns route name -> admitted flows (integer, bounded by the
    offered count and every traversed link's capacity).
    """
    route_names = topology.route_names
    offered = np.array(
        [int(counts.get(name, 0)) for name in route_names], dtype=float
    )
    if np.any(offered < 0):
        raise ModelError("offered flow counts must be nonnegative")
    if offered.sum() == 0:
        return {name: 0 for name in route_names}

    weight_vec = np.ones(len(route_names))
    if weights is not None:
        weight_vec = np.array([float(weights.get(name, 1.0)) for name in route_names])
        if np.any(weight_vec < 0.0):
            raise ModelError("admission weights must be nonnegative")

    link_names = topology.link_names
    matrix = np.zeros((len(link_names), len(route_names)))
    for i, link in enumerate(link_names):
        for j, name in enumerate(route_names):
            route = topology.routes[name]
            if link in route.links:
                matrix[i, j] = route.demand
    capacities = np.array([topology.capacities[name] for name in link_names])

    # the only scipy.optimize caller in the network layer: loaded at the
    # first ILP, not by every `import repro`
    from scipy import optimize

    result = optimize.milp(
        c=-weight_vec,  # milp minimises
        constraints=optimize.LinearConstraint(matrix, -np.inf, capacities),
        integrality=np.ones(len(route_names)),
        bounds=optimize.Bounds(np.zeros(len(route_names)), offered),
    )
    if not result.success:  # pragma: no cover - infeasibility is impossible here
        raise ModelError(f"admission ILP failed: {result.message}")
    admitted = np.round(result.x).astype(int)
    return {name: int(n) for name, n in zip(route_names, admitted)}


def greedy_admit_flows(
    counts: Mapping[str, int], topology: NetworkTopology
) -> Dict[str, int]:
    """Shortest-route-first greedy admission (baseline for the ILP).

    Admits routes in increasing hop count, each up to the tightest
    remaining link.  Fast and simple, but can strand capacity that the
    ILP would use — the gap between the two is itself a measure of how
    much *optimal* admission control buys over a naive controller.
    """
    remaining = topology.capacities
    admitted: Dict[str, int] = {}
    order = sorted(
        topology.route_names,
        key=lambda name: (len(topology.routes[name].links), name),
    )
    for name in order:
        route = topology.routes[name]
        k = int(counts.get(name, 0))
        room = min(
            (remaining[link] for link in route.links),
            default=0.0,
        )
        n = min(k, int(math.floor(room / route.demand + 1e-9)))
        admitted[name] = n
        for link in route.links:
            remaining[link] -= n * route.demand
    return admitted
