"""Property-based tests of the batch numerics kernels.

The contract under test: every batch primitive solves each element as
that element's own scalar problem — checked against an independent
per-element answer (a closed form), since the one-problem solvers are
views of these kernels — and failures are *flagged* in the convergence
mask rather than returned as plausible numbers.
"""

import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConvergenceError, ConvergenceWarning
from repro.numerics import batch
from repro.numerics.batch import (
    DEFAULT_CHUNK_ELEMENTS,
    find_roots,
    invert_monotone_batch,
    share_weighted_sums,
)
from repro.numerics.solvers import find_root
from repro.utility import (
    AdaptiveUtility,
    AlgebraicTailUtility,
    ExponentialElasticUtility,
    HyperbolicElasticUtility,
    PiecewiseLinearUtility,
    PowerLowUtility,
    RigidUtility,
    UtilityFunction,
)

#: Brackets resolve to xtol + rtol*|x| with xtol = rtol = 1e-12, so a
#: root can sit a few of those from the exact value.
ROOT_RTOL = 1e-9
ROOT_ATOL = 1e-10

targets_arrays = st.lists(
    st.floats(min_value=1e-3, max_value=999.0), min_size=1, max_size=32
)


class TestFindRootsMatchesScalar:
    @given(cs=targets_arrays)
    @settings(max_examples=40, deadline=None)
    def test_cubic_family(self, cs):
        """x^3 = c element-wise, all well-bracketed in [0, 10]."""
        cs = np.asarray(cs)
        result = find_roots(
            lambda x, c: x**3 - c, 0.0, 10.0, args=(cs,), label="cubic"
        )
        assert bool(np.all(result.converged))
        assert np.allclose(
            result.roots, cs ** (1.0 / 3.0), rtol=ROOT_RTOL, atol=ROOT_ATOL
        )

    @given(
        cs=targets_arrays,
        scale=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_exponential_family_with_expansion(self, cs, scale):
        """1 - exp(-x/s) = t needs upward bracket expansion for small s."""
        cs = np.asarray(cs)
        ts = cs / (1.0 + cs)  # targets in (0, 1), root = -s*log1p(-t)
        result = find_roots(
            lambda x, t: (1.0 - np.exp(-x / scale)) - t,
            0.0,
            1e-3,
            args=(ts,),
            expand=True,
            upper_limit=1e9,
            label="exp family",
        )
        assert bool(np.all(result.converged))
        exact = -scale * np.log1p(-ts)
        assert np.allclose(result.roots, exact, rtol=1e-7, atol=1e-10)


class TestNonConvergedFlaggedNotGarbage:
    @given(
        cs=st.lists(
            st.floats(min_value=0.5, max_value=50.0), min_size=2, max_size=24
        ),
        flips=st.lists(st.booleans(), min_size=2, max_size=24),
    )
    @settings(max_examples=40, deadline=None)
    def test_mixed_bracketed_and_rootless(self, cs, flips):
        """Elements with no sign change in-bracket must come back
        nan + converged=False, never a finite wrong answer; their
        well-posed neighbours must still solve correctly."""
        n = min(len(cs), len(flips))
        cs = np.asarray(cs[:n])
        rootless = np.asarray(flips[:n])
        # f(x) = x^2 - c solvable in [0, 8] iff c <= 64; rootless rows
        # get c shifted above the bracket's reach
        shifted = np.where(rootless, cs + 100.0, cs)
        result = find_roots(
            lambda x, c: x**2 - c, 0.0, 8.0, args=(shifted,), label="mixed"
        )
        assert not np.any(result.converged[rootless])
        assert np.all(np.isnan(result.roots[rootless]))
        ok = ~rootless
        assert bool(np.all(result.converged[ok]))
        assert np.allclose(
            result.roots[ok], np.sqrt(cs[ok]), rtol=1e-9, atol=1e-10
        )

    def test_nan_value_is_undefined_not_a_sign_change(self):
        """A NaN past x = 8 is not a sign change: that element comes
        back nan and undefined, never as the converged root 8.0, and a
        bracket with no sign change is not marked undefined."""
        result = find_roots(
            lambda x, c: np.where(x > 8.0, np.nan, x - c),
            0.0,
            4.0,
            args=(np.array([30.0, 2.0, 6.0]),),
            expand=True,
        )
        assert not bool(result.converged[0]) and bool(result.undefined[0])
        assert math.isnan(result.roots[0])
        assert result.roots[1] == pytest.approx(2.0)
        assert result.roots[2] == pytest.approx(6.0)
        assert not np.any(result.undefined[1:])
        rootless = find_roots(lambda x: x + 1.0, 0.0, 1.0)
        assert not bool(rootless.undefined[0])

    def test_nan_value_raises_through_find_root(self):
        nan_past_8 = lambda x: math.nan if x > 8.0 else x - 30.0  # noqa: E731
        with pytest.raises(ConvergenceError, match="NaN"):
            find_root(nan_past_8, 0.0, 4.0, expand=True)
        # NaN inside a bracket that does change sign, hit mid-iteration
        with pytest.raises(ConvergenceError, match="mid"):
            find_root(
                lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5,
                0.0,
                1.0,
                label="mid",
            )

    def test_iteration_cap_warns_with_best_root(self):
        # zero tolerance never converges: the best root comes back flagged
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            root = find_root(lambda x: x * x - 2.0, 0.0, 2.0, xtol=0.0, rtol=0.0)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert any(issubclass(w.category, ConvergenceWarning) for w in caught)


class TestInvertMonotoneBatchMatchesScalar:
    @given(ts=st.lists(
        st.floats(min_value=1e-6, max_value=0.999), min_size=1, max_size=32
    ))
    @settings(max_examples=40, deadline=None)
    def test_saturating_curve(self, ts):
        ts = np.asarray(ts)
        curve = lambda x: 1.0 - np.exp(-np.asarray(x))  # noqa: E731
        result = invert_monotone_batch(
            curve, ts, np.zeros(ts.size), np.full(ts.size, 0.5),
            upper_limit=1e6, label="batch saturating",
        )
        assert bool(np.all(result.converged))
        assert np.allclose(
            result.roots, -np.log1p(-ts), rtol=ROOT_RTOL, atol=ROOT_ATOL
        )


class TestShareWeightedSums:
    @given(
        n=st.integers(min_value=2, max_value=400),
        m=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_sum(self, n, m, seed):
        rng = np.random.default_rng(seed)
        weights = rng.random(n)
        weights[rng.random(n) < 0.3] = 0.0  # exercise zero-run trimming
        caps = rng.uniform(0.5, 50.0, size=m)
        value_fn = lambda b: 1.0 - np.exp(-np.asarray(b))  # noqa: E731
        got = share_weighted_sums(caps, weights[1:], value_fn, k_start=1)
        ks = np.arange(1, n, dtype=float)
        want = np.array(
            [np.dot(weights[1:], value_fn(c / ks)) for c in caps]
        )
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)

    @given(
        n=st.integers(min_value=4, max_value=200),
        m=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_kmax_masking(self, n, m, seed):
        rng = np.random.default_rng(seed)
        weights = rng.random(n)
        caps = rng.uniform(0.5, 50.0, size=m)
        kmax = rng.integers(1, n, size=m)
        value_fn = lambda b: np.asarray(b) / (1.0 + np.asarray(b))  # noqa: E731
        got = share_weighted_sums(
            caps, weights[1:], value_fn, k_start=1, kmax=kmax
        )
        ks = np.arange(1, n, dtype=float)
        want = np.array(
            [
                np.dot(weights[1:] * (ks <= km), value_fn(c / ks))
                for c, km in zip(caps, kmax)
            ]
        )
        assert np.allclose(got, want, rtol=1e-12, atol=1e-14)


class _Quadratic(UtilityFunction):
    """A custom utility: no expression of its own, the base class's loop."""

    name = "quadratic-test"

    def value(self, b: float) -> float:
        if b < 0.0:
            raise ValueError("negative bandwidth")
        return min(1.0, b * b)

    def __repr__(self) -> str:
        return "_Quadratic()"


#: Each utility's out-of-place numpy expression, a fresh array per step.
_OUT_OF_PLACE = {
    RigidUtility: lambda u, b: (b >= u.b_hat).astype(float),
    AdaptiveUtility: lambda u, b: 1.0 - np.exp(-b * b / (u.kappa + b)),
    PiecewiseLinearUtility: lambda u, b: np.clip((b - u.a) / (1.0 - u.a), 0.0, 1.0),
    ExponentialElasticUtility: lambda u, b: 1.0 - np.exp(-u.rate * b),
    HyperbolicElasticUtility: lambda u, b: b / (u.half + b),
    AlgebraicTailUtility: lambda u, b: np.where(
        b > 1.0, 1.0 - np.maximum(b, 1.0) ** (-u.tau), 0.0
    ),
    PowerLowUtility: lambda u, b: np.where(b >= 1.0, 1.0, b**u.r),
    _Quadratic: lambda u, b: np.vectorize(u.value, otypes=[float])(b),
}

SERIES_UTILITIES = [
    RigidUtility(1.0),
    RigidUtility(0.7),
    AdaptiveUtility(),
    PiecewiseLinearUtility(0.0),
    PiecewiseLinearUtility(0.4),
    ExponentialElasticUtility(1.5),
    HyperbolicElasticUtility(0.8),
    AlgebraicTailUtility(1.0),
    AlgebraicTailUtility(0.7),
    PowerLowUtility(2.0),
    PowerLowUtility(3.5),
    _Quadratic(),
]


def _out_of_place_sums(caps, weights, utility, k_start, kmax, chunk_elements):
    """The chunked series with every temporary freshly allocated."""
    expression = _OUT_OF_PLACE[type(utility)]
    nonzero = np.flatnonzero(weights)
    first, stop = int(nonzero[0]), int(nonzero[-1]) + 1
    chunk = max(1, chunk_elements // caps.size)
    totals = np.zeros(caps.size)
    for start in range(first, stop, chunk):
        end = min(stop, start + chunk)
        ks = np.arange(k_start + start, k_start + end, dtype=float)
        values = expression(utility, caps.reshape(-1, 1) / ks)
        if kmax is not None:
            values = values * (ks <= kmax.reshape(-1, 1))
        totals += values @ weights[start:end]
    return totals


class TestShareWeightedSumsWorkspace:
    """The kernel writes into reused buffers; its sums stay bit for bit."""

    @pytest.mark.parametrize("utility", SERIES_UTILITIES, ids=repr)
    @pytest.mark.parametrize("masked", [False, True], ids=["all", "kmax"])
    def test_equals_out_of_place_expression(self, utility, masked):
        rng = np.random.default_rng(7)
        n = 300 if isinstance(utility, _Quadratic) else 3000
        weights = rng.random(n)
        weights[rng.random(n) < 0.2] = 0.0
        weights[:3] = 0.0
        caps = rng.uniform(0.5, 300.0, size=7)
        kmax = rng.integers(1, n, size=caps.size) if masked else None
        for chunk_elements in (1000, DEFAULT_CHUNK_ELEMENTS):
            got = share_weighted_sums(
                caps, weights, utility, k_start=2, kmax=kmax, chunk_elements=chunk_elements
            )
            want = _out_of_place_sums(caps, weights, utility, 2, kmax, chunk_elements)
            assert np.array_equal(got, want)

    def test_threads_each_get_their_serial_answer(self):
        rng = np.random.default_rng(11)
        utility = AdaptiveUtility()
        grids = [
            (rng.uniform(1.0, 80.0, size=5), rng.random(40000), None),
            (rng.uniform(1.0, 800.0, size=9), rng.random(25000), rng.integers(1, 25000, 9)),
        ]
        serial = [share_weighted_sums(c, w, utility, kmax=m) for c, w, m in grids]
        start = threading.Barrier(len(grids))
        answers = [[] for _ in grids]

        def work(i):
            caps, weights, kmax = grids[i]
            start.wait()
            for _ in range(10):
                answers[i].append(share_weighted_sums(caps, weights, utility, kmax=kmax))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(grids))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for want, got in zip(serial, answers):
            assert len(got) == 10
            assert all(np.array_equal(g, want) for g in got)

    def test_more_rows_than_chunk_elements_leave_the_workspace_at_its_bound(self):
        utility = AdaptiveUtility()
        weights = np.array([0.5, 0.25, 0.125])
        share_weighted_sums([1.0], weights, utility)  # this thread now holds its buffers
        caps = np.linspace(0.5, 50.0, DEFAULT_CHUNK_ELEMENTS + 1)
        got = share_weighted_sums(caps, weights, utility)
        want = _out_of_place_sums(caps, weights, utility, 1, None, DEFAULT_CHUNK_ELEMENTS)
        assert np.array_equal(got, want)
        held = batch._WORKSPACE.buffers
        assert len(held) == 2
        assert all(buf.size == DEFAULT_CHUNK_ELEMENTS for buf in held)
