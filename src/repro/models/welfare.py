"""The variable capacity (welfare) model — Section 4 of the paper.

What capacity will a provider actually build?  The paper's answer: the
one maximising total welfare ``W = V(C) - p*C`` where ``p`` is the
price per unit of bandwidth and ``V`` the total utility the provider
can recover from customers.  Each architecture then gets its own
welfare-optimal capacity ``C(p)`` and welfare ``W(p)``, and instead of
comparing utilities at equal capacity we compare welfares at equal
price.

The headline quantity is the *equalizing price ratio*

    gamma(p) = p_hat / p   where   W_R(p_hat) = W_B(p),

i.e. how much more expensive per-unit bandwidth could be in the
reservation-capable architecture before best-effort-only becomes the
more cost-effective choice.  ``gamma -> 1`` as ``p -> 0`` means cheap
bandwidth erases the case for reservations; a ``gamma`` bounded away
from 1 (the algebraic load) means it never does.

Implementation notes
--------------------
One kernel serves every price grid, for the basic model and the
Section 5 extensions: the argmax of ``V(C) - p C`` on a memoised
capacity table (:meth:`WelfareModel.envelope`) — the exact jump points
``k * b_hat`` for the rigid utility, else a geometric grid.  For the
basic model with a smooth utility the argmax is polished by batched
Newton steps.  ``V_R`` is the upper envelope over admission thresholds
``m`` of smooth pieces whose neighbours differ in closed form,

    V_R^m(C)          = sum_{k<=m} P(k) k pi(C/k) + m pi(C/m) P(K > m),
    V_R^{m+1} - V_R^m = P(K > m) [(m+1) pi(C/(m+1)) - m pi(C/m)],

so the polish works on the pieces around the argmax, one series sum
for several thresholds.  Every candidate is an exact evaluation at a
feasible point, so polishing never overshoots the true optimum.

The equalizing price comes in tangent form, with no inversion:
``W_R(q) >= W_B(p)`` exactly when some capacity has
``V_R(C) - q C >= W_B(p)``, so ``p_hat = max_{C>0} [V_R(C) - W_B(p)] / C``.
``C_B(p)`` is a candidate, with slope ``p + [V_R - V_B](C_B) / C_B
>= p``, so ``gamma >= 1`` and ``W_R >= W_B`` hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.models.fixed_load import Architecture, validated_capacities
from repro.models.variable_load import VariableLoadModel
from repro.utility.rigid import RigidUtility

#: Default geometric capacity table: points, and span in mean loads
#: (smooth utilities extend it downwards at the same ratio).
TABLE_POINTS = 256
TABLE_SPAN = (1.0 / 16.0, 96.0)

#: Relative step of the central differences for ``V'`` and ``V''``.
FD_STEP = 1e-3

#: Admission thresholds examined on each side of the current one.
NEIGHBOURS = 2

#: Largest Newton step, relative to ``C``: the distance over which a
#: piece's quadratic model is trusted.
TRUST = 0.1

#: Pieces followed on their own after the first stencil.
TRACKS = 2

#: Relative Newton step below which a track stops, and the most
#: stencils it takes.
STEP_TOL = 5e-4
STEPS = 3

#: Largest rigid jump table before a price is refused as absurd.
RIGID_TABLE_CAP = 1 << 26

#: Price x capacity objective elements materialised at once.
ARGMAX_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class ProvisioningDecision:
    """A provider's welfare-maximising choice at one bandwidth price."""

    architecture: Architecture
    price: float
    capacity: float
    total_utility: float

    @property
    def welfare(self) -> float:
        """``V(C) - p*C`` at the chosen capacity."""
        return self.total_utility - self.price * self.capacity


def _objective(kind: str, c, v, par, v1=None, v2=None):
    """``W = V - p C`` or the tangent slope ``(V - w) / C``; with
    ``V'``/``V''`` also its first two capacity derivatives."""
    if kind == "welfare":
        phi = v - par * c
        return phi if v1 is None else (phi, v1 - par, v2)
    phi = (v - par) / c
    if v1 is None:
        return phi
    d1 = (v1 - phi) / c
    return phi, d1, (v2 - 2.0 * d1) / c


def _vertex(c, f):
    """Abscissa of the parabola through three points per row (the middle
    one holds the largest ``f``, so the parabola is concave or flat)."""
    d0 = (f[:, 1] - f[:, 0]) / (c[:, 1] - c[:, 0])
    d1 = (f[:, 2] - f[:, 1]) / (c[:, 2] - c[:, 1])
    curv = (d1 - d0) / (c[:, 2] - c[:, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        x = 0.5 * (c[:, 0] + c[:, 1]) - d0 / (2.0 * curv)
    return np.where(curv < 0.0, np.clip(x, c[:, 0], c[:, 2]), c[:, 1])


class WelfareModel:
    """Welfare-optimal provisioning and the equalizing price ratio.

    Parameters
    ----------
    model:
        Supplies ``V_B`` and ``V_R``: a
        :class:`~repro.models.VariableLoadModel`, or another
        :class:`~repro.models.base.CapacityModel` with per-flow
        ``best_effort_batch`` / ``reservation_batch`` (sampling,
        retrying, risk-averse).
    capacities:
        Capacity table to search instead of the default one.  Extension
        models evaluate only there, so their optima are exact up to the
        table's resolution; the table must respect their validity floor
        (the retry fixed point needs ``C`` well above ``k_bar``).

    Batch calls return NaN for prices whose optimum the table cannot
    place (an argmax on its edge); the one-element views raise
    :class:`~repro.errors.ModelError` there.
    """

    def __init__(self, model, *, capacities=None):
        self._model = model
        # exact jump table, Newton-polished grid, or plain grid
        self._mode = "grid"
        if isinstance(model, VariableLoadModel):
            self._floor = max(1, model.load.support_min)
            if not isinstance(model.utility, RigidUtility):
                self._mode = "smooth"
            elif capacities is None:
                self._mode = "rigid"
        # a given table's smallest capacity is an edge like its largest;
        # the default tables start where nothing pays to build
        self._open_below = capacities is not None
        if capacities is None:
            lo, hi = (s * model.mean_load for s in TABLE_SPAN)
            caps = np.geomspace(lo, hi, TABLE_POINTS)
            if self._mode == "smooth":
                # V/C rises below the best per-flow share b* = C/k_max(C),
                # so every optimum lies above it: extend the table down to
                # half of it at the table's own ratio
                ratio = caps[1] / caps[0]
                below = np.ceil(np.log(lo * model.k_max(hi) / (0.5 * hi)) / np.log(ratio))
                caps = np.concatenate([lo / ratio ** np.arange(below, 0, -1), caps])
        else:
            caps = np.unique(validated_capacities(capacities))
            caps = caps[caps > 0.0]
            if caps.size < 3:
                raise ModelError("need at least 3 positive capacities in the table")
        self._caps = caps
        self._tables: dict = {}
        self._rigid_size = 4096

    @property
    def model(self):
        """The model supplying ``V_B`` and ``V_R``."""
        return self._model

    # ------------------------------------------------------------------
    # the capacity table
    # ------------------------------------------------------------------

    def _cover(self, price: float) -> None:
        """Grow the rigid jump table until it holds every optimum: once
        the steps of ``V_R`` (``P(K > k)``) and ``V_B`` (``k P(k)``) both
        fall below ``p b_hat``, no larger capacity pays for itself."""
        load, unit = self._model.load, price * self._model.utility.b_hat
        size = self._rigid_size
        while not (load.sf(size - 1) < unit and (size - 1) * load.pmf(size - 1) < unit):
            size *= 2
            if size > RIGID_TABLE_CAP:
                raise ModelError(f"rigid welfare table too large at price {price}")
        if size != self._rigid_size:
            self._rigid_size = size
            self._tables.clear()

    def envelope(self, architecture: Architecture) -> dict:
        """The memoised capacity table: ``capacity`` and ``total_utility``.

        Rigid utility: every jump point ``k * b_hat`` from 0 up, with
        ``V_B`` the cumulative ``k P(k)`` and ``V_R = V_B + k P(K > k)``.
        Otherwise the model's totals on the capacity grid.
        """
        table = self._tables.get(architecture)
        if table is not None:
            return table
        model, reservation = self._model, architecture is Architecture.RESERVATION
        if self._mode == "rigid":
            ks = np.arange(self._rigid_size, dtype=float)
            pk = np.asarray(model.load.pmf_array(ks), dtype=float)
            pk[: model.load.support_min] = 0.0
            values = np.cumsum(ks * pk)
            if reservation:
                values = values + ks * np.asarray(model.load.sf_array(ks), dtype=float)
            caps = ks * model.utility.b_hat
        else:
            caps = self._caps
            per_flow = model.reservation_batch if reservation else model.best_effort_batch
            values = model.mean_load * np.asarray(per_flow(caps), dtype=float)
        table = self._tables[architecture] = {"capacity": caps, "total_utility": values}
        return table

    def price_range(self) -> tuple:
        """Prices whose optima stay inside the table for both architectures:
        between the secant slopes of its last and first segments."""
        lo, hi = 0.0, np.inf
        for architecture in Architecture:
            table = self.envelope(architecture)
            c, v = table["capacity"], table["total_utility"]
            lo = max(lo, (v[-1] - v[-2]) / (c[-1] - c[-2]))
            hi = min(hi, (v[1] - v[0]) / (c[1] - c[0]))
        if not 0.0 < lo < hi:
            raise ModelError("the capacity table yields no interior price range; widen it")
        return float(lo), float(hi)

    # ------------------------------------------------------------------
    # the kernel
    # ------------------------------------------------------------------

    def _stencil(self, architecture, kind, par, c, base, pieces):
        """One central-difference stencil at ``c`` on the pieces ``base ..
        base + pieces - 1``.

        Best effort is one piece.  Reservation rows take one series sum
        per point at ``base``, then the closed-form step.  Returns, rows x
        pieces, ``V`` and the objective at ``c`` (exact), and each piece's
        Newton point, at most ``TRUST c`` away (``c`` itself where its
        quadratic model is not concave), with the model's value there.
        """
        model, h = self._model, (FD_STEP * c)[:, None]
        caps = c[:, None] + h * np.arange(-1.0, 2.0)
        if architecture is Architecture.BEST_EFFORT:
            v = model.total_best_effort_batch(caps.ravel(), cache=False)
            v = v.reshape(caps.shape)[..., None]
        else:
            m = np.broadcast_to(base[:, None], caps.shape)
            out = [model.total_reservation_at_thresholds(caps.ravel(), m.ravel()).reshape(m.shape)]
            for k in (m + j for j in range(pieces - 1)):
                sf = np.asarray(model.load.sf_array(k.astype(float)), dtype=float)
                step = (k + 1) * model.utility(caps / (k + 1)) - k * model.utility(caps / k)
                out.append(out[-1] + sf * step)
            v = np.stack(out, axis=-1)
        v1, v2 = (v[:, 2] - v[:, 0]) / (2.0 * h), (v[:, 2] - 2.0 * v[:, 1] + v[:, 0]) / h**2
        ph, d1, d2 = _objective(kind, c[:, None], v[:, 1], par[:, None], v1, v2)
        with np.errstate(divide="ignore", invalid="ignore"):
            move = np.where(d2 < 0.0, -d1 / d2, 0.0)
        reach = TRUST * c[:, None]
        move = np.clip(move, -reach, reach)
        return v[:, 1], ph, c[:, None] + move, ph + move * (d1 + 0.5 * move * d2)

    def _optimise(self, architecture, kind, par, prices):
        """Row-wise ``max_C`` of an objective of ``V``: the kernel.

        Returns ``(capacity, total_utility, objective)`` per row, NaN
        where the table edge holds the argmax; ``welfare`` rows whose
        best value is negative build nothing (capacity 0).
        """
        if self._mode == "rigid":
            self._cover(float(prices.min()))
        table = self.envelope(architecture)
        caps, vals = table["capacity"], table["total_utility"]
        if kind == "tangent" and caps[0] == 0.0:
            caps, vals = caps[1:], vals[1:]
        # the price x capacity objective, a bounded block of prices at a time
        block = max(1, ARGMAX_ELEMENTS // caps.size)
        i = np.concatenate([
            np.argmax(_objective(kind, caps, vals, par[s : s + block, None]), axis=1)
            for s in range(0, par.size, block)
        ])
        best = [caps[i], vals[i], _objective(kind, caps[i], vals[i], par)]
        low = ((best[2] > 0.0) & (self._mode != "rigid")) | self._open_below
        edge = (i == caps.size - 1) | ((i == 0) & low)
        live = np.flatnonzero((i > 0) & (i < caps.size - 1))
        if self._mode == "smooth" and live.size:
            j = i[live, None] + np.arange(-1, 2)
            window_phi = _objective(kind, caps[j], vals[j], par[live, None])
            polished = self._polish(
                architecture, kind, par[live], caps[j], window_phi, [b[live] for b in best]
            )
            for b, sub in zip(best, polished):
                b[live] = sub
        out = [np.where(edge, np.nan, b) for b in best]
        if kind == "welfare":
            for b in out:
                b[out[2] <= 0.0] = 0.0
        return out

    def _polish(self, architecture, kind, par, window, window_phi, best):
        """Batched Newton polish of table optima (smooth basic model).

        Starts at the vertex of the parabola through the argmax and its
        table neighbours.  Each stencil evaluates the examined pieces
        (reservation: thresholds ``NEIGHBOURS`` either side of a centre
        one).  The first ranks them by their quadratic models' peaks, and
        the ``TRACKS`` best each follow Newton steps on their own piece,
        its examined neighbours re-centred on it, until a step falls
        below ``STEP_TOL C`` or ``STEPS`` stencils are spent: near a
        threshold switch two pieces' optima can tie closer than one
        quadratic model, taken a threshold step away, ranks them.  Then
        each track's own and best other piece are evaluated exactly at
        their last Newton points.  Returns ``(capacity, total_utility,
        objective)`` per row of the best exact value, stencil centres
        included.
        """
        best = [b.copy() for b in best]
        rows = par.size

        def keep(cc, vv, ph):
            """Write each row's best candidate where it wins (flat per row)."""
            cc, vv, ph = (x.reshape(rows, -1) for x in (cc, vv, ph))
            j = np.argmax(np.nan_to_num(ph, nan=-np.inf), axis=1)[:, None]
            cc, vv, ph = (np.take_along_axis(x, j, axis=1)[:, 0] for x in (cc, vv, ph))
            won = ph > best[2]
            for b, new in zip(best, (cc, vv, ph)):
                b[won] = new[won]

        model, reservation = self._model, architecture is Architecture.RESERVATION
        start, base, pieces = _vertex(window, window_phi), None, 1
        if reservation:
            base = np.maximum(self._floor, model.k_max_batch(start) - NEIGHBOURS)
            pieces = 2 * NEIGHBOURS + 1
        v, ph, target, peak = self._stencil(architecture, kind, par, start, base, pieces)
        keep(np.broadcast_to(start[:, None], v.shape), v, ph)
        own = np.argsort(-peak, axis=1)[:, :TRACKS]
        # the tracks, flat row-major rows x tracks, each on its own piece
        # m, with its last stencil's Newton points and peaks on every piece
        tracks = own.shape[1]
        target, peak = (np.repeat(x, tracks, axis=0) for x in (target, peak))
        own, start, par = own.ravel(), np.repeat(start, tracks), np.repeat(par, tracks)
        m = None if base is None else np.repeat(base, tracks) + own
        n = np.arange(own.size)
        c = target[n, own]
        live = np.flatnonzero(np.abs(c - start) > STEP_TOL * c)
        for _ in range(STEPS - 1):
            if not live.size:
                break
            sub = None
            if reservation:
                sub = np.maximum(self._floor, m[live] - NEIGHBOURS)
                own[live] = m[live] - sub
            v, ph, target[live], peak[live] = self._stencil(
                architecture, kind, par[live], c[live], sub, pieces
            )
            centres = np.full((3, own.size, pieces), np.nan)
            centres[:, live] = np.broadcast_to(c[live, None], v.shape), v, ph
            keep(*centres)
            step = target[live, own[live]] - c[live]
            c[live] += step
            live = live[np.abs(step) > STEP_TOL * c[live]]
        # each track's own piece and its best other one
        peak[n, own] = -np.inf
        cand = np.stack([own, np.argmax(peak, axis=1)], axis=1)[:, : min(2, pieces)]
        cc = np.take_along_axis(target, cand, axis=1)
        if reservation:
            thresholds = (m - own)[:, None] + cand
            vv = model.total_reservation_at_thresholds(cc.ravel(), thresholds.ravel())
        else:
            vv = model.total_best_effort_batch(cc.ravel(), cache=False)
        vv = vv.reshape(cc.shape)
        keep(cc, vv, _objective(kind, cc, vv, par[:, None]))
        return best

    def provision_batch(self, prices, architecture: Architecture) -> dict:
        """``C(p)``, ``V(C(p))`` and ``W(p)`` over a price grid."""
        p = np.asarray(prices, dtype=float).ravel()
        bad = p[~((p > 0.0) & np.isfinite(p))]
        if bad.size:
            raise ValueError(f"price must be finite and > 0, got {float(bad[0])!r}")
        c, v, w = self._optimise(architecture, "welfare", p, p)
        if architecture is Architecture.RESERVATION and self._mode != "grid":
            # C_B(p) as a candidate: R >= B pointwise makes W_R >= W_B
            best = self.provision_batch(p, Architecture.BEST_EFFORT)
            c_b, v_b = best["capacity"], best["total_utility"]
            built = np.flatnonzero(c_b > 0.0)
            v_b[built] = np.fmax(v_b[built], self._model.total_reservation_batch(c_b[built]))
            wins = v_b - p * c_b > w
            c, v = np.where(wins, c_b, c), np.where(wins, v_b, v)
        return {"price": p, "capacity": c, "total_utility": v, "welfare": v - p * c}

    def ratio_curve(self, prices) -> dict:
        """``gamma(p)`` over a price grid (NaN where ``W_B(p) = 0``)."""
        best = self.provision_batch(prices, Architecture.BEST_EFFORT)
        p, target = best["price"], best["welfare"]
        live = target > 0.0
        p_hat = np.full(p.size, np.nan)
        if np.any(live):
            _, _, slope = self._optimise(
                Architecture.RESERVATION, "tangent", target[live], p[live]
            )
            if self._mode != "grid":
                # C_B(p) as a candidate: R >= B pointwise makes its slope >= p
                c_b = best["capacity"][live]
                gap = self._model.total_reservation_batch(c_b) - best["total_utility"][live]
                slope = np.maximum(slope, p[live] + np.maximum(gap, 0.0) / c_b)
            p_hat[live] = slope
        return {"price": p, "gamma": p_hat / p}

    def equalizing_ratio_batch(self, prices) -> np.ndarray:
        """``gamma`` over a price grid (the ``ratio_curve`` values)."""
        return self.ratio_curve(prices)["gamma"]

    # ------------------------------------------------------------------
    # one-element views
    # ------------------------------------------------------------------

    def provision(self, price: float, architecture: Architecture) -> ProvisioningDecision:
        """Welfare-maximising capacity and utility at a bandwidth price."""
        row = self.provision_batch([price], architecture)
        if np.isnan(row["capacity"][0]):
            raise ModelError(
                f"the {architecture.value} optimum at price {price} lies outside "
                "the capacity table; widen it"
            )
        capacity, total = float(row["capacity"][0]), float(row["total_utility"][0])
        return ProvisioningDecision(architecture, float(price), capacity, total)

    def optimal_capacity(self, price: float, architecture: Architecture) -> float:
        """``C(p)`` for one architecture."""
        return self.provision(price, architecture).capacity

    def welfare(self, price: float, architecture: Architecture) -> float:
        """``W(p) = V(C(p)) - p C(p)`` for one architecture."""
        return self.provision(price, architecture).welfare

    def welfare_best_effort(self, price: float) -> float:
        """``W_B(p)``."""
        return self.welfare(price, Architecture.BEST_EFFORT)

    def welfare_reservation(self, price: float) -> float:
        """``W_R(p)``."""
        return self.welfare(price, Architecture.RESERVATION)

    def equalizing_price(self, price: float) -> float:
        """``p_hat >= p`` with ``W_R(p_hat) = W_B(p)``."""
        gamma = float(self.equalizing_ratio_batch([price])[0])
        if np.isnan(gamma):
            if self.welfare_best_effort(price) <= 0.0:
                raise ModelError(
                    f"best-effort welfare is zero at price {price}; the "
                    "equalizing price is unbounded there"
                )
            raise ModelError(f"the equalizing price at p={price} lies outside the table")
        return gamma * price

    def equalizing_ratio(self, price: float) -> float:
        """``gamma(p) = p_hat / p`` — the paper's complexity-cost bound."""
        return self.equalizing_price(price) / price
