"""Plan resolve: the per-signature trace memo and the request signature.

A warm request resolves its plan without tracing: ``trace_app`` memoizes the
traced descriptions per ``(app, pattern, width, height, constant)`` and each
description memoizes its digest. These tests pin what that sharing must not
change — outputs, plan keys, micro-batch grouping — and the memo's own
contract (bounded LRU, one entry per signature under races, immutable).
"""

import itertools
import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    Request,
    ServeEngine,
    build_plan,
    clear_trace_cache,
    combined_digest,
    plan_key,
    trace_app,
)
from repro.serve import plan as plan_module
from repro.serve.plan import TRACE_MEMO_SIZE

#: Constant forms that compare equal as numbers but not all as digests.
CONSTANTS = [0, 0.0, -0.0, float("nan"), np.float32(0.3), 0.3]


def _engine_key(request: Request):
    """The plan key ``ServeEngine._resolve_plan`` computes for a request."""
    h, w = request.image.shape
    descs = trace_app(request.app, request.pattern, w, h, request.constant)
    return plan_key(descs, variant=request.variant, pattern=request.pattern)


class TestSignature:
    def _request(self, constant):
        return Request(app="gaussian", image=np.zeros((16, 16), np.float32),
                       pattern="constant", variant="naive", constant=constant)

    def test_request_stores_a_float_constant(self):
        for c in CONSTANTS:
            assert type(self._request(c).constant) is float

    def test_equal_signatures_exactly_when_equal_plan_keys(self):
        requests = [self._request(c) for c in CONSTANTS]
        keys = [_engine_key(r) for r in requests]
        for (a, ka), (b, kb) in itertools.combinations(zip(requests, keys), 2):
            assert (a.signature == b.signature) == (ka == kb), (
                a.constant, b.constant)
        # 0 and 0.0 merge; -0.0, nan, float32(0.3) and 0.3 stay apart.
        assert len({r.signature for r in requests}) == 5
        assert len(set(keys)) == 5

    def test_nan_signature_matches_itself(self):
        a, b = self._request(float("nan")), self._request(float("nan"))
        assert a.signature == b.signature

    def test_mixed_burst_keeps_each_plan_key(self, rng):
        image = rng.random((16, 16), dtype=np.float32)
        gate = threading.Event()
        taken = threading.Event()
        original = ServeEngine._execute

        def gated(self, plan, pending, response):
            taken.set()
            gate.wait(10.0)
            return original(self, plan, pending, response)

        burst = [c for c in CONSTANTS for _ in range(2)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ServeEngine, "_execute", gated)
            with ServeEngine(workers=1, batch_size=8) as engine:
                # Park the only worker so the burst queues up behind it and
                # dequeues as micro-batches grouped by signature.
                blocker = engine.submit(Request(app="sobel", image=image))
                taken.wait(10.0)
                handles = [
                    engine.submit(Request(
                        app="gaussian", image=image, pattern="constant",
                        variant="naive", constant=c))
                    for c in burst
                ]
                gate.set()
                responses = [h.result(timeout=30) for h in handles]
                assert blocker.result(timeout=30).ok
        for c, r in zip(burst, responses):
            assert r.ok, r.error
            alone = build_plan("gaussian", "constant", 16, 16, variant="naive",
                               constant=float(c))
            assert r.plan_key == alone.key, c
            assert np.array_equal(r.output, alone.execute(image),
                                  equal_nan=True), c


class TestMemoizedPlans:
    @pytest.mark.parametrize("variant", ["naive", "isp+m", "prepad", "fused"])
    @pytest.mark.parametrize("size", [17, 64])
    @pytest.mark.parametrize("pattern", ["clamp", "mirror", "repeat", "constant"])
    @pytest.mark.parametrize("app", ["gaussian", "laplace", "sobel", "night"])
    def test_bitexact_with_fresh_trace(self, app, pattern, size, variant):
        rng = np.random.default_rng(size * 7 + len(app))
        x = rng.random((size, size), dtype=np.float32)
        batch = rng.random((3, size, size), dtype=np.float32)
        # The memoized descriptions have already run once (tapes built).
        build_plan(app, pattern, size, size, variant=variant).execute(x)
        memo = build_plan(app, pattern, size, size, variant=variant)
        assert memo.descs is trace_app(app, pattern, size, size)
        clear_trace_cache()
        fresh = build_plan(app, pattern, size, size, variant=variant)
        assert fresh.descs is not memo.descs
        assert fresh.key == memo.key
        assert fresh.kernel_variants == memo.kernel_variants
        assert np.array_equal(memo.execute(x), fresh.execute(x))
        assert np.array_equal(memo.execute_batch(batch),
                              fresh.execute_batch(batch))


class TestTraceMemo:
    def test_bounded_lru(self):
        clear_trace_cache()
        sigs = [("gaussian", "constant", 8, 8, float(i))
                for i in range(TRACE_MEMO_SIZE + 2)]
        first = trace_app(*sigs[0])
        second = trace_app(*sigs[1])
        for sig in sigs[2:TRACE_MEMO_SIZE]:
            trace_app(*sig)
        assert len(plan_module._TRACES) == TRACE_MEMO_SIZE
        # A hit refreshes: sigs[1] is now the least recently used entry.
        assert trace_app(*sigs[0]) is first
        trace_app(*sigs[TRACE_MEMO_SIZE])
        assert len(plan_module._TRACES) == TRACE_MEMO_SIZE
        assert trace_app(*sigs[0]) is first
        # The evicted signature is traced again: new descriptions, same digest.
        again = trace_app(*sigs[1])
        assert again is not second
        assert combined_digest(again) == combined_digest(second)
        assert len(plan_module._TRACES) == TRACE_MEMO_SIZE
        clear_trace_cache()
        assert len(plan_module._TRACES) == 0

    def test_constant_is_keyed_by_repr(self):
        assert trace_app("gaussian", "constant", 8, 8, 0.0) is \
            trace_app("gaussian", "constant", 8, 8, 0.0)
        assert trace_app("gaussian", "constant", 8, 8, -0.0) is not \
            trace_app("gaussian", "constant", 8, 8, 0.0)
        assert trace_app("gaussian", "constant", 8, 8, float("nan")) is \
            trace_app("gaussian", "constant", 8, 8, float("nan"))

    def test_unknown_app_is_not_memoized(self):
        with pytest.raises(KeyError):
            trace_app("nope", "clamp", 8, 8)
        assert all(k[0] != "nope" for k in plan_module._TRACES)

    def test_callers_cannot_mutate_the_entry(self):
        descs = trace_app("sobel", "clamp", 16, 16)
        n = len(descs)
        with pytest.raises(TypeError):
            descs[0] = descs[-1]
        with pytest.raises(AttributeError):
            descs.append(descs[0])
        copy = list(descs)
        copy.clear()
        assert trace_app("sobel", "clamp", 16, 16) is descs
        assert len(descs) == n

    def test_digest_is_memoized_on_the_description(self):
        desc = trace_app("laplace", "mirror", 16, 16)[0]
        assert desc.stable_digest() is desc.stable_digest()

    def test_racing_threads_share_one_entry(self):
        n_threads = 2 * (os.cpu_count() or 1) + 1
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for app in ("gaussian", "night"):
                clear_trace_cache()
                start = threading.Barrier(n_threads)
                got: list = []
                errors: list[BaseException] = []

                def worker():
                    try:
                        start.wait(10.0)
                        descs = trace_app(app, "mirror", 24, 24)
                        got.append((id(descs), combined_digest(descs)))
                    except BaseException as exc:  # noqa: BLE001 — reported below
                        errors.append(exc)

                threads = [threading.Thread(target=worker)
                           for _ in range(n_threads)]
                for t in threads:
                    t.start()
                deadline = time.monotonic() + 30.0
                for t in threads:
                    t.join(timeout=max(0.0, deadline - time.monotonic()))
                assert not any(t.is_alive() for t in threads)
                assert not errors, errors
                assert len(got) == n_threads
                assert len({digest for _, digest in got}) == 1
                assert len({ident for ident, _ in got}) == 1
                assert got[0][1] == combined_digest(
                    trace_app(app, "mirror", 24, 24))
        finally:
            sys.setswitchinterval(interval)
