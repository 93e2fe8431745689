"""``repro.serve`` — batched execution service over the compiler/runtime.

The production-shaped front door of the reproduction (see docs/serving.md):

* :mod:`~repro.serve.plan` — :class:`ExecutionPlan` (trace + model-based
  variant selection, done once per distinct workload) and its content-hash
  :class:`PlanKey`;
* :mod:`~repro.serve.cache` — :class:`PlanCache`, a thread-safe LRU with
  single-flight builds;
* :mod:`~repro.serve.engine` — :class:`ServeEngine`: bounded queue with
  backpressure, micro-batching by workload signature, a worker pool,
  per-request timeouts and graceful degradation;
* :mod:`~repro.serve.metrics` — counters/histograms behind
  :meth:`ServeEngine.stats`;
* :mod:`~repro.serve.bench` — the ``serve-bench`` synthetic workload.
"""

from .autotune import (
    TUNE_CANDIDATES,
    AutoTuner,
    TunerKey,
    pipeline_gain,
    tuner_key,
)
from .bench import build_workload, format_report, run_baseline, run_serve_bench
from .breaker import VariantBreaker
from .cache import PlanCache
from .engine import (
    ERROR_KINDS,
    EngineClosed,
    EngineSaturated,
    Request,
    Response,
    ResponseHandle,
    ServeEngine,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .plan import (
    EXEC_MODES,
    PLAN_VARIANTS,
    REQUEST_VARIANTS,
    ExecutionPlan,
    PlanKey,
    build_plan,
    clear_trace_cache,
    combined_digest,
    plan_key,
    trace_app,
)

__all__ = [
    "ERROR_KINDS",
    "EXEC_MODES",
    "PLAN_VARIANTS",
    "REQUEST_VARIANTS",
    "TUNE_CANDIDATES",
    "AutoTuner",
    "Counter",
    "EngineClosed",
    "EngineSaturated",
    "ExecutionPlan",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PlanCache",
    "PlanKey",
    "Request",
    "TunerKey",
    "pipeline_gain",
    "tuner_key",
    "Response",
    "ResponseHandle",
    "ServeEngine",
    "VariantBreaker",
    "build_plan",
    "build_workload",
    "clear_trace_cache",
    "combined_digest",
    "format_report",
    "plan_key",
    "run_baseline",
    "run_serve_bench",
    "trace_app",
]
