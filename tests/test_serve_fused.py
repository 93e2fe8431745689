"""Serving the fused variant: transparency, caching, tuning, routing.

The engine contract (test_serve_engine docstring) extends to fusion: a
``variant="fused"`` request must return bits identical to staged execution,
the geometry-only fused plan must be built once per content digest and
replayed across requests and batch sizes, the autotuner must trial the
fused arm, ``predict_fused`` must keep its crossover, and the cluster's
digest routing must be independent of the chosen variant.
"""

import numpy as np
import pytest

from repro.dsl import Boundary
from repro.filters import PIPELINES
from repro.gpu import GTX680
from repro.runtime import run_pipeline_vectorized
from repro.serve import Request, ServeEngine
from repro.model import predict_fused
from repro.serve.autotune import TUNE_CANDIDATES
from repro.serve.plan import PLAN_VARIANTS, build_plan, trace_app


def _staged(app: str, image, pattern: str):
    pipe = PIPELINES[app](image.shape[1], image.shape[0], Boundary(pattern))
    images = run_pipeline_vectorized(pipe, {pipe.inputs[0].name: image},
                                     variant="isp")
    return images[pipe.output.name]


@pytest.fixture
def image(rng):
    return rng.random((64, 64), dtype=np.float32)


class TestFusedRequests:
    def test_fused_is_a_plan_and_tune_candidate(self):
        assert "fused" in PLAN_VARIANTS
        assert "fused" in TUNE_CANDIDATES

    @pytest.mark.parametrize("app", ["sobel", "night"])
    @pytest.mark.parametrize("pattern", ["clamp", "mirror", "repeat",
                                         "constant"])
    def test_served_fused_bit_identical_to_staged(self, app, pattern, image):
        with ServeEngine(workers=2) as engine:
            resp = engine.run([Request(app=app, image=image,
                                       pattern=pattern, variant="fused")])[0]
        assert resp.ok, resp.error
        assert np.array_equal(resp.output, _staged(app, image, pattern))

    def test_single_kernel_app_serves_fused_too(self, image):
        """Fusing a one-stage pipeline is legal — it degenerates to tiled
        execution of that stage."""
        with ServeEngine(workers=1) as engine:
            resp = engine.run([Request(app="gaussian", image=image,
                                       pattern="mirror", variant="fused")])[0]
        assert resp.ok, resp.error
        assert np.array_equal(resp.output,
                              _staged("gaussian", image, "mirror"))

    def test_fused_plan_cached_once_per_digest(self, image):
        with ServeEngine(workers=2) as engine:
            engine.run([Request(app="night", image=image, variant="fused")
                        for _ in range(8)])
            stats = engine.stats()
        assert stats["engine"]["engine.plan_cache_misses"] == 1
        assert stats["engine"]["engine.plan_cache_hits"] == 7

    def test_fused_and_staged_plans_are_distinct_cache_entries(self, image):
        with ServeEngine(workers=1) as engine:
            engine.run([
                Request(app="sobel", image=image, variant="fused"),
                Request(app="sobel", image=image, variant="isp"),
                Request(app="sobel", image=image, variant="fused"),
            ])
            stats = engine.stats()
        assert stats["engine"]["engine.plan_cache_misses"] == 2
        assert stats["engine"]["engine.plan_cache_hits"] == 1

    def test_batched_fused_execution_matches_per_image(self, rng):
        """The fused schedule is geometry-only: one plan serves (N, H, W)
        micro-batches bit-identically to per-image staged execution."""
        batch = rng.random((3, 32, 32), dtype=np.float32)
        plan = build_plan("sobel", "repeat", 32, 32, variant="fused")
        out = plan.execute_batch(batch)
        assert out.shape == batch.shape
        for i in range(batch.shape[0]):
            assert np.array_equal(out[i], _staged("sobel", batch[i], "repeat"))
            assert np.array_equal(out[i], plan.execute(batch[i]))


class TestFusedPlanObject:
    def test_fused_plan_attached_only_for_fused_variant(self):
        fused = build_plan("sobel", "clamp", 64, 64, variant="fused")
        staged = build_plan("sobel", "clamp", 64, 64, variant="naive")
        assert fused.fused_plan is not None
        assert fused.fused_plan.output_name == "out"
        assert staged.fused_plan is None

    def test_point_ops_stay_naive_in_fused_choices(self):
        plan = build_plan("sobel", "clamp", 64, 64, variant="fused")
        assert plan.kernel_variants["dx"] == "fused"
        assert plan.kernel_variants["out"] == "naive"


class TestFusedPrior:
    def test_sobel_prediction_favors_fusion(self):
        descs = trace_app("sobel", "clamp", 512, 512)
        pred = predict_fused(list(descs), block=(32, 4), device=GTX680)
        assert pred.gain > 1.0  # sobel fuses profitably

    def test_night_repeat_prediction_disfavors_fusion(self):
        descs = trace_app("night", "repeat", 512, 512)
        pred = predict_fused(list(descs), block=(32, 4), device=GTX680)
        assert pred.gain < 1.0


class TestClusterRouting:
    def test_variant_does_not_change_routing_digest(self, image):
        """The cluster routes by workload content digest; asking for the
        fused variant must not re-route the workload to another shard."""
        from repro.serve.plan import plan_key

        descs = trace_app("night", "mirror", 64, 64)
        k_fused = plan_key(descs, variant="fused", pattern="mirror")
        k_isp = plan_key(descs, variant="isp", pattern="mirror")
        assert k_fused.digest == k_isp.digest
        assert k_fused != k_isp
