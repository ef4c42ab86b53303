"""The bounded LRU used by the model-layer value caches."""

from repro.caching import ROUND_DECIMALS, BoundedCache


class TestBoundedCache:
    def test_round_trip(self):
        cache = BoundedCache()
        cache.put(200.0, 1.5)
        assert cache.get(200.0) == 1.5
        assert 200.0 in cache
        assert cache.get(999.0) is None

    def test_float_keys_are_rounded(self):
        cache = BoundedCache()
        eps = 10 ** -(ROUND_DECIMALS + 3)
        cache.put(1.0, "a")
        assert cache.get(1.0 + eps) == "a"  # same key after rounding

    def test_eviction_is_lru(self):
        cache = BoundedCache(maxsize=2)
        cache.put(1.0, "a")
        cache.put(2.0, "b")
        cache.get(1.0)  # refresh 1.0 -> 2.0 is now least recent
        cache.put(3.0, "c")
        assert cache.get(2.0) is None
        assert cache.get(1.0) == "a"
        assert len(cache) == 2

    def test_size_never_exceeds_maxsize(self):
        cache = BoundedCache(maxsize=8)
        for i in range(100):
            cache.put(float(i), i)
        assert len(cache) == 8
        assert cache.maxsize == 8

    def test_clear(self):
        cache = BoundedCache()
        cache.put(1.0, "a")
        cache.clear()
        assert len(cache) == 0
        assert cache.get(1.0) is None


class TestModelCachesAreBounded:
    def test_variable_load_capacity_caches(self):
        from repro.loads import PoissonLoad
        from repro.models.variable_load import VariableLoadModel
        from repro.utility import AdaptiveUtility

        model = VariableLoadModel(PoissonLoad(12.0), AdaptiveUtility())
        for capacity in range(5, 40):
            model.best_effort(float(capacity))
        assert len(model._b_cache) <= model._b_cache.maxsize

    def test_retrying_fixed_point_cache(self):
        from repro.loads import PoissonLoad
        from repro.models.retrying import RetryingModel
        from repro.utility import AdaptiveUtility

        model = RetryingModel(PoissonLoad(12.0), AdaptiveUtility())
        value = model.reservation(24.0)
        assert value == model.reservation(24.0)  # cache hit, same answer
        assert len(model._fixed_point_cache) >= 1

    def test_fixed_load_k_max_cache(self):
        import numpy as np

        from repro.models.fixed_load import FixedLoadModel
        from repro.utility import RigidUtility

        model = FixedLoadModel(RigidUtility(1.0))
        bound = model._k_max_cache.maxsize
        capacities = 0.5 + np.arange(bound + 100)
        np.testing.assert_array_equal(
            model.k_max_batch(capacities), np.floor(capacities)
        )
        assert len(model._k_max_cache) == bound
        # the oldest entries went first; an evicted capacity is searched
        # again, answers the same and evicts the next oldest
        assert 99.5 not in model._k_max_cache and 100.5 in model._k_max_cache
        assert model.k_max(99.5) == 99
        assert len(model._k_max_cache) == bound
        assert 100.5 not in model._k_max_cache
