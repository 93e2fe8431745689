"""Plan cache: principled keys, LRU behaviour, single-flight builds."""

import threading

import pytest

from repro.serve import (
    PlanCache,
    PlanKey,
    build_plan,
    clear_trace_cache,
    plan_key,
    trace_app,
)


def _key(tag: str) -> PlanKey:
    """A synthetic key; the cache treats keys opaquely."""
    return PlanKey(digest=tag, variant="isp", pattern="clamp", width=64,
                   height=64, device="GTX680", block=(32, 4))


class TestPlanKey:
    def test_key_is_content_based_not_identity_based(self):
        # Two completely independent traces of the same workload must
        # produce the same key (the id()-based keys the cache replaces
        # would differ every time).
        a = trace_app("gaussian", "mirror", 128, 128)
        clear_trace_cache()  # the second trace must not be the memo's entry
        b = trace_app("gaussian", "mirror", 128, 128)
        assert a is not b and a[0] is not b[0]
        ka = plan_key(a, variant="isp+m", pattern="mirror")
        kb = plan_key(b, variant="isp+m", pattern="mirror")
        assert ka == kb
        assert hash(ka) == hash(kb)

    def test_key_distinguishes_workload_dimensions(self):
        descs = trace_app("gaussian", "mirror", 128, 128)
        base = plan_key(descs, variant="isp", pattern="mirror")
        assert plan_key(descs, variant="naive", pattern="mirror") != base
        other_pattern = trace_app("gaussian", "clamp", 128, 128)
        assert plan_key(other_pattern, variant="isp", pattern="clamp") != base
        other_size = trace_app("gaussian", "mirror", 256, 256)
        assert plan_key(other_size, variant="isp", pattern="mirror") != base
        other_app = trace_app("laplace", "mirror", 128, 128)
        assert plan_key(other_app, variant="isp", pattern="mirror") != base

    def test_unknown_variant_rejected(self):
        descs = trace_app("gaussian", "clamp", 64, 64)
        with pytest.raises(ValueError):
            plan_key(descs, variant="warp9", pattern="clamp")


class TestLru:
    def test_hit_miss_accounting(self):
        cache = PlanCache(capacity=4)
        assert cache.get(_key("a")) is None
        cache.put(_key("a"), "plan-a")
        assert cache.get(_key("a")) == "plan-a"
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["size"] == 1

    def test_eviction_order_is_least_recently_used(self):
        cache = PlanCache(capacity=2)
        cache.put(_key("a"), "A")
        cache.put(_key("b"), "B")
        # Touch "a" so "b" becomes the LRU entry.
        assert cache.get(_key("a")) == "A"
        cache.put(_key("c"), "C")
        assert cache.keys() == [_key("a"), _key("c")]
        assert cache.get(_key("b")) is None  # evicted
        assert cache.stats()["evictions"] == 1

    def test_reinserting_refreshes_recency(self):
        cache = PlanCache(capacity=2)
        cache.put(_key("a"), "A")
        cache.put(_key("b"), "B")
        cache.put(_key("a"), "A2")  # refresh: now "b" is LRU
        cache.put(_key("c"), "C")
        assert _key("b") not in cache
        assert cache.get(_key("a")) == "A2"

    def test_capacity_zero_disables_caching(self):
        cache = PlanCache(capacity=0)
        cache.put(_key("a"), "A")
        assert len(cache) == 0
        builds = []
        for _ in range(3):
            plan, hit = cache.get_or_build(_key("a"), lambda: builds.append(1))
            assert not hit
        assert len(builds) == 3
        assert cache.stats()["misses"] == 3

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=-1)


class TestGetOrBuild:
    def test_miss_then_hits(self):
        cache = PlanCache(capacity=4)
        calls = []

        def factory():
            calls.append(1)
            return "built"

        plan, hit = cache.get_or_build(_key("a"), factory)
        assert (plan, hit) == ("built", False)
        plan, hit = cache.get_or_build(_key("a"), factory)
        assert (plan, hit) == ("built", True)
        assert len(calls) == 1

    def test_concurrent_misses_coalesce_to_one_build(self):
        cache = PlanCache(capacity=4)
        calls = []
        release = threading.Event()

        def slow_factory():
            calls.append(1)
            release.wait(5.0)
            return "built"

        results = []

        def worker():
            results.append(cache.get_or_build(_key("a"), slow_factory))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        release.set()
        for t in threads:
            t.join(10.0)
        assert len(calls) == 1, "single-flight: only one thread builds"
        assert all(plan == "built" for plan, _ in results)
        # Exactly one build; the other five were served from the cache.
        assert sum(1 for _, hit in results if not hit) == 1
        assert sum(1 for _, hit in results if hit) == 5

    def test_factory_failure_releases_waiters(self):
        cache = PlanCache(capacity=4)

        def boom():
            raise RuntimeError("no plan for you")

        with pytest.raises(RuntimeError):
            cache.get_or_build(_key("a"), boom)
        # The key is not wedged: the next caller becomes the builder.
        plan, hit = cache.get_or_build(_key("a"), lambda: "fine")
        assert (plan, hit) == ("fine", False)

    def test_real_plans_round_trip(self):
        cache = PlanCache(capacity=4)
        descs = trace_app("gaussian", "clamp", 64, 64)
        key = plan_key(descs, variant="isp", pattern="clamp")
        plan, hit = cache.get_or_build(
            key,
            lambda: build_plan("gaussian", "clamp", 64, 64, variant="isp",
                               descs=descs),
        )
        assert not hit
        again, hit = cache.get_or_build(key, lambda: None)
        assert hit and again is plan
        assert again.kernel_variants == {"out": "isp"}
