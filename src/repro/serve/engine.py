"""The serve engine: bounded queue -> micro-batcher -> worker pool.

Request lifecycle::

    submit() --[bounded deque, backpressure]--> worker dequeues a batch of
    requests sharing one workload signature --> plan cache (build on miss)
    --> kernel-level batched execution (one (N, H, W) vectorized call for
    the whole micro-batch) when eligible, else per-request execution
    (vectorized host path, or SIMT simulation under a timeout with
    vectorized fallback) --> Response.

Robustness decisions, per DESIGN "production-shaped" goals:

* **Backpressure** — ``submit`` raises :class:`EngineSaturated` when the
  queue is full instead of buffering unboundedly (callers can also opt into
  blocking submits).
* **Timeouts** — a request carries a wall-clock budget measured from
  enqueue. A request that exceeds it while still queued fails fast; a SIMT
  execution that exceeds it is abandoned and degrades to the vectorized
  path (recorded in ``Response.fallbacks`` and the fallback counters).
* **Plan sanitization** — every newly built plan runs the static bounds
  sanitizer (:mod:`repro.sanitize`) on its compiled kernels before entering
  the cache; a finding rejects the plan and fails its requests loudly
  (``engine.plans_sanitize_rejected``), because an unprovable memory access
  is a compiler bug, not something to degrade around.
* **Bounded retry with backoff** — a failed execution gets ``retries`` more
  attempts with exponential backoff before failing typed
  (``Response.error_kind``); deadlines still rule.
* **Per-variant circuit breaker** — a variant whose executions keep failing
  trips :class:`~repro.serve.breaker.VariantBreaker` and is rerouted to
  ``naive`` for a cooldown (a trip also feeds the autotuner's penalty path).
* **Crash containment** — a worker that dies mid-batch fails its remaining
  requests with ``error_kind="worker_crash"`` and keeps serving; no request
  is ever lost.

All of these degradation paths are exercised *systematically* (not just
incidentally) by the deterministic fault-injection layer (:mod:`repro.faults`)
and the chaos suite in ``tests/test_faults_chaos.py``.

Every stage records metrics; ``stats()`` returns one merged snapshot.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from collections import deque
from typing import Optional

import numpy as np

from typing import Union

from ..faults import core as _faults
from ..faults.core import FaultError
from ..trace import core as _trace_core
from ..gpu.device import DeviceSpec, GTX680
from ..gpu.profiler import EVENT_NAMES
from ..sanitize.static import SanitizeError
from .autotune import AutoTuner, TunerKey, pipeline_gain, tuner_key
from .breaker import VariantBreaker
from .cache import PlanCache
from .metrics import MetricsRegistry
from .plan import (
    EXEC_MODES,
    REQUEST_VARIANTS,
    ExecutionPlan,
    build_plan,
    plan_key,
    trace_app,
)


class EngineSaturated(RuntimeError):
    """The bounded request queue is full (backpressure signal)."""


class EngineClosed(RuntimeError):
    """submit() after close()."""


_REQUEST_IDS = itertools.count(1)

#: Every way a request is allowed to fail. Anything outside this set is an
#: engine bug; the chaos suite enforces membership for all non-ok responses.
ERROR_KINDS = (
    "plan_build",      # tracing/compilation of the plan failed
    "sanitize",        # the static bounds sanitizer rejected the plan
    "timeout_queue",   # deadline passed while the request was still queued
    "timeout_execute", # deadline passed while the request was executing
    "execution",       # execution failed after the retry budget was exhausted
    "worker_crash",    # the worker processing the batch died mid-flight
)


@dataclasses.dataclass
class Request:
    """One unit of work: run ``app`` over ``image`` under a border pattern."""

    app: str
    image: np.ndarray
    pattern: str = "clamp"
    variant: str = "isp+m"
    exec_mode: str = "vectorized"
    constant: float = 0.0
    #: wall-clock budget in seconds, measured from enqueue; None = unlimited
    timeout_s: Optional[float] = None
    request_id: int = dataclasses.field(default_factory=lambda: next(_REQUEST_IDS))

    def __post_init__(self):
        if self.variant not in REQUEST_VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; have {REQUEST_VARIANTS}"
            )
        if self.exec_mode not in EXEC_MODES:
            raise ValueError(
                f"unknown exec_mode {self.exec_mode!r}; have {EXEC_MODES}"
            )
        self.image = np.asarray(self.image, dtype=np.float32)
        if self.image.ndim != 2:
            raise ValueError(f"expected a 2-D image, got shape {self.image.shape}")
        self.constant = float(self.constant)

    @property
    def signature(self) -> tuple:
        """Cheap grouping key for micro-batching (no tracing needed): two
        requests with equal signatures are guaranteed to resolve to the same
        plan key, and requests with different plan keys never share one.

        The constant enters by its ``repr``, the form the plan key's digest
        hashes: ``0.0`` and ``-0.0`` compare equal as floats but trace to
        different digests, so they must not share a batch (and ``nan``
        matches itself here, as its digest does)."""
        h, w = self.image.shape
        return (self.app, self.pattern, self.variant, w, h,
                repr(self.constant), self.exec_mode)


@dataclasses.dataclass
class Response:
    """Outcome of one request."""

    request_id: int
    app: str
    output: Optional[np.ndarray] = None
    plan_key: Optional[object] = None
    #: the concrete plan variant that served this request (an ``"auto"``
    #: request learns what the tuner resolved it to from here)
    variant: Optional[str] = None
    cache_hit: bool = False
    #: degradations applied, e.g. "breaker:isp->naive", "timeout:simt->vectorized"
    fallbacks: list[str] = dataclasses.field(default_factory=list)
    error: Optional[str] = None
    #: machine-readable failure class when ``error`` is set — one of
    #: :data:`ERROR_KINDS` (the chaos suite asserts failures are typed)
    error_kind: Optional[str] = None
    #: execution attempts beyond the first that this request consumed
    retries: int = 0
    queue_seconds: float = 0.0
    build_seconds: float = 0.0
    execute_seconds: float = 0.0
    worker: str = ""
    #: trace id when a tracer was installed and this request was sampled
    trace_id: Optional[str] = None
    #: per-kernel :class:`~repro.trace.profile.RegionProfile` list when a
    #: sampled SIMT execution served this request
    region_profiles: Optional[list] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _injected_sanitize_report(variant: str):
    """A synthetic one-finding report for the injected-rejection fault point."""
    from ..sanitize.static import Finding, SanitizeReport

    return SanitizeReport(
        kernel="<injected>", variant=variant,
        findings=[Finding(
            kernel="<injected>", variant=variant, region=None,
            context="fault-injection", kind="analysis",
            message="injected fault: sanitizer rejection "
                    "(serve.engine.sanitize)",
        )],
    )


class _Pending:
    """A submitted request plus its completion latch.

    A pending request is resolved exactly once: the worker that serves it
    and a caller whose :meth:`ResponseHandle.result` wait expired past the
    request deadline can race, and :meth:`claim` makes the race safe —
    first claimer wins, the loser reads the winner's response.
    """

    __slots__ = ("request", "enqueued_at", "event", "response",
                 "tracer", "span", "phase", "claimed", "_claim_lock")

    def __init__(self, request: Request):
        self.request = request
        self.enqueued_at = time.perf_counter()
        self.event = threading.Event()
        self.response: Optional[Response] = None
        #: trace context riding along the queue handoff (None = unsampled)
        self.tracer = None
        self.span = None
        #: lifecycle phase, for typing a caller-side expiry:
        #: "queued" until execution begins, then "executing"
        self.phase = "queued"
        self.claimed = False
        self._claim_lock = threading.Lock()

    def claim(self) -> bool:
        """Atomically take the right to resolve this request (first wins)."""
        with self._claim_lock:
            if self.claimed:
                return False
            self.claimed = True
            return True

    def deadline(self) -> Optional[float]:
        if self.request.timeout_s is None:
            return None
        return self.enqueued_at + self.request.timeout_s


class ResponseHandle:
    """Future-like handle returned by :meth:`ServeEngine.submit`."""

    def __init__(self, pending: _Pending, engine: Optional["ServeEngine"] = None):
        self._pending = pending
        self._engine = engine

    def done(self) -> bool:
        return self._pending.event.is_set()

    def result(self, timeout: Optional[float] = None) -> Response:
        """Wait for the response (``timeout`` bounds *this call's* wait).

        When the wait expires and the request's own deadline has also
        passed, the request is resolved here and now as a typed timeout
        :class:`Response` (``timeout_queue`` or ``timeout_execute``) instead
        of raising — previously the caller could observe an expired request
        as ``TimeoutError`` while the engine never typed the failure. A
        caller whose wait expires *before* the request deadline still gets
        ``TimeoutError``: the request is merely in flight.
        """
        if self._pending.event.wait(timeout):
            assert self._pending.response is not None
            return self._pending.response
        p = self._pending
        deadline = p.deadline()
        if (self._engine is not None and deadline is not None
                and time.perf_counter() >= deadline):
            return self._engine._expire(p)
        raise TimeoutError(
            f"request {p.request.request_id} still in flight"
        )


class ServeEngine:
    """Batched execution service over the compiler/runtime stack."""

    def __init__(
        self,
        *,
        workers: int = 4,
        queue_depth: int = 64,
        batch_size: int = 8,
        plan_cache_size: int = 64,
        device: DeviceSpec = GTX680,
        block: tuple[int, int] = (32, 4),
        default_timeout_s: Optional[float] = None,
        sanitize_plans: bool = True,
        kernel_batching: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        autotune: Union[bool, AutoTuner] = False,
        autotune_path: Optional[str] = None,
        retries: int = 2,
        retry_backoff_s: float = 0.002,
        breaker_threshold: int = 3,
        breaker_cooldown: int = 8,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.device = device
        self.block = tuple(block)
        self.batch_size = batch_size
        self.queue_depth = queue_depth
        self.default_timeout_s = default_timeout_s
        self.sanitize_plans = sanitize_plans
        self.kernel_batching = kernel_batching
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s

        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = PlanCache(plan_cache_size)
        self.breaker = VariantBreaker(
            threshold=breaker_threshold, cooldown=breaker_cooldown,
            metrics=self.metrics,
        )
        # Model-guided adaptive variant selection for "auto" requests. A
        # shared AutoTuner may be passed in (its own metrics registry stays);
        # `autotune=True` / a cache path builds one onto this engine's
        # registry, loading any previously learned table from the path.
        if isinstance(autotune, AutoTuner):
            self.tuner: Optional[AutoTuner] = autotune
        elif autotune or autotune_path is not None:
            self.tuner = AutoTuner(metrics=self.metrics, path=autotune_path)
        else:
            self.tuner = None

        m = self.metrics
        self._c_submitted = m.counter("engine.requests_submitted")
        self._c_rejected = m.counter("engine.requests_rejected",
                                     "backpressure: queue was full")
        self._c_ok = m.counter("engine.responses_ok")
        self._c_error = m.counter("engine.responses_error")
        self._c_queue_timeout = m.counter("engine.timeouts_queue",
                                          "deadline passed while queued")
        self._c_exec_timeout = m.counter("engine.timeouts_execute",
                                         "deadline passed during execution")
        self._c_fb_timeout = m.counter("engine.fallbacks_timeout",
                                       "simt -> vectorized on exec timeout")
        self._c_fb_error = m.counter("engine.fallbacks_error",
                                     "simt -> vectorized on execution error")
        self._c_retries = m.counter("engine.retries",
                                    "execution attempts beyond the first")
        self._c_worker_crashes = m.counter(
            "engine.worker_crashes",
            "batches whose worker died mid-flight (requests failed typed)")
        self._c_faults_observed = m.counter(
            "engine.faults_observed",
            "injected faults observed at engine-level fault points")
        self._c_sanitized = m.counter("engine.plans_sanitized",
                                      "plans bounds-checked on first build")
        self._c_sanitize_rejected = m.counter(
            "engine.plans_sanitize_rejected",
            "plans rejected by the static bounds sanitizer")
        self._c_batches = m.counter("engine.batches")
        self._c_kernel_batches = m.counter(
            "engine.kernel_batches",
            "micro-batches executed as a single (N,H,W) kernel call")
        self._c_kernel_batched = m.counter(
            "engine.kernel_batched_requests",
            "requests served by kernel-level batched execution")
        self._c_cache_hits = m.counter("engine.plan_cache_hits")
        self._c_cache_misses = m.counter("engine.plan_cache_misses")
        # Architectural event counters of the SIMT simulator, aggregated
        # across every completed SIMT execution (per-region breakdowns ride
        # the trace spans; these are the fleet-level Prometheus series).
        self._c_simt_events = {
            name: m.counter(f"engine.simt_events_{name}",
                            f"simulator {name.replace('_', ' ')} events")
            for name in EVENT_NAMES
        }
        self._h_queue = m.histogram("engine.queue_seconds", unit="s")
        self._h_build = m.histogram("engine.plan_build_seconds", unit="s")
        self._h_execute = m.histogram("engine.execute_seconds", unit="s")

        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._space_free = threading.Condition(self._lock)
        self._queue: deque[_Pending] = deque()
        self._closed = False
        self._close_lock = threading.Lock()
        self._tuner_saved = False
        self._threads = [
            threading.Thread(target=self._worker_loop, name=f"serve-{i}",
                             daemon=True)
            for i in range(workers)
        ]
        for t in self._threads:
            t.start()

    # ----------------------------------------------------------- submission

    def submit(self, request: Request, *, block: bool = False) -> ResponseHandle:
        """Enqueue one request; raises :class:`EngineSaturated` when the
        queue is full (or waits for space with ``block=True``)."""
        if request.timeout_s is None and self.default_timeout_s is not None:
            request.timeout_s = self.default_timeout_s
        pending = _Pending(request)
        tracer = _trace_core._current
        if tracer is not None:
            span = tracer.start_trace(
                "request", key=f"r{request.request_id}",
                request_id=request.request_id, app=request.app,
                pattern=request.pattern, variant=request.variant,
                exec_mode=request.exec_mode,
            )
            if span is not None:  # None = head sampling skipped this request
                pending.tracer = tracer
                pending.span = span
        with self._lock:
            if self._closed:
                raise EngineClosed("engine is closed")
            while len(self._queue) >= self.queue_depth:
                if not block:
                    self._c_rejected.inc()
                    raise EngineSaturated(
                        f"queue full ({self.queue_depth} requests waiting)"
                    )
                self._space_free.wait()
                if self._closed:
                    raise EngineClosed("engine is closed")
            pending.enqueued_at = time.perf_counter()
            self._queue.append(pending)
            self._c_submitted.inc()
            self._not_empty.notify()
        return ResponseHandle(pending, self)

    def run(self, requests: list[Request]) -> list[Response]:
        """Submit a list (blocking on backpressure) and wait for all results,
        returned in submission order."""
        handles = [self.submit(r, block=True) for r in requests]
        return [h.result() for h in handles]

    # -------------------------------------------------------------- workers

    def _take_batch(self) -> Optional[list[_Pending]]:
        """Block for the next request, then greedily drain queued requests
        sharing its workload signature (micro-batching)."""
        with self._lock:
            while not self._queue and not self._closed:
                self._not_empty.wait()
            if not self._queue:
                return None  # closed and drained
            head = self._queue.popleft()
            batch = [head]
            sig = head.request.signature
            if self.batch_size > 1:
                rest = deque()
                while self._queue and len(batch) < self.batch_size:
                    cand = self._queue.popleft()
                    if cand.request.signature == sig:
                        batch.append(cand)
                    else:
                        rest.append(cand)
                rest.extend(self._queue)
                self._queue = rest
            self._space_free.notify(len(batch))
            return batch

    def _worker_loop(self) -> None:
        name = threading.current_thread().name
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            self._c_batches.inc()
            try:
                self._process_batch(batch, name)
            except BaseException as exc:
                # Containment: a worker must never take unfinished requests
                # down with it (the no-lost-requests invariant). Whatever
                # escaped _process_batch — an injected crash or a real bug —
                # fails the batch's remaining requests with a typed error and
                # the worker goes back to the queue.
                self._c_worker_crashes.inc()
                for p in batch:
                    if not p.event.is_set():
                        r = Response(
                            request_id=p.request.request_id,
                            app=p.request.app, worker=name,
                            error=f"worker crashed mid-batch: {exc}",
                            error_kind="worker_crash",
                        )
                        self._finish(p, r)

    # ------------------------------------------------------------- planning

    def _resolve_plan(
        self, request: Request
    ) -> tuple[ExecutionPlan, bool, list[str], float,
               Optional[tuple[TunerKey, str]], list[tuple]]:
        """Plan for one workload signature: trace (memoized per signature
        by :func:`trace_app`), resolve ``"auto"`` through the tuner, look up
        the cache by content digest, build on miss. Returns (plan, was_hit,
        fallbacks, build_seconds, tuner_context, trace_events) where
        tuner_context is ``(key, decided_variant)`` for tuned requests and
        trace_events is a list of ``(name, start, end, attrs)`` perf_counter
        stamps for sub-steps (populated only while a tracer is installed)."""
        t0 = time.perf_counter()
        events: list[tuple] = []
        h, w = request.image.shape
        descs = trace_app(request.app, request.pattern, w, h, request.constant)
        fallbacks: list[str] = []
        variant = request.variant
        tuner_ctx: Optional[tuple[TunerKey, str]] = None

        if variant == "auto":
            if self.tuner is None:
                # No tuner attached: the model-only policy is the closest
                # static stand-in for "decide for me".
                variant = "isp+m"
                fallbacks.append("auto:no-tuner->isp+m")
            else:
                key_t = tuner_key(descs, request.pattern, self.device)
                t_tune = time.perf_counter()
                variant, phase = self.tuner.decide(
                    key_t,
                    lambda: pipeline_gain(
                        descs, block=self.block, device=self.device
                    ),
                )
                tuner_ctx = (key_t, variant)
                if _trace_core._current is not None:
                    attrs = {"variant": variant, "phase": phase}
                    attrs.update(self.tuner.explain(key_t))
                    events.append(("autotune", t_tune, time.perf_counter(),
                                   attrs))

        if variant != "naive" and self.breaker.should_reroute(variant):
            # The circuit for this shape is open: serve naive instead of
            # burning a retry budget on a variant that keeps failing.
            fallbacks.append(f"breaker:{variant}->naive")
            if tuner_ctx is not None:
                tuner_ctx = (tuner_ctx[0], "naive")
            variant = "naive"

        def build() -> ExecutionPlan:
            plan = build_plan(
                request.app, request.pattern, w, h, variant=variant,
                device=self.device, block=self.block,
                constant=request.constant, descs=descs,
            )
            if self.sanitize_plans:
                # Sanitize inside the single-flight build so every plan is
                # bounds-checked exactly once, before it is cached.
                reports = plan.sanitize()
                if any(not r.ok for r in reports):
                    raise SanitizeError(reports)
                self._c_sanitized.inc()
            if _faults._current is not None:
                # Fault point: the sanitizer rejects this plan. Uses a
                # synthetic finding so the failure is exactly as typed as a
                # real rejection.
                act = _faults.fire("serve.engine.sanitize",
                                   key=plan.key.short(), app=request.app)
                if act is not None:
                    self._c_faults_observed.inc()
                    raise SanitizeError([_injected_sanitize_report(variant)])
            return plan

        key = plan_key(descs, variant=variant, pattern=request.pattern,
                       device=self.device, block=self.block)
        try:
            plan, hit = self.cache.get_or_build(key, build)
        except SanitizeError:
            # A bounds finding is a compiler bug, not a workload property:
            # degrading to another variant would serve potentially corrupt
            # pixels, so the request fails loudly instead.
            self._c_sanitize_rejected.inc()
            raise
        return (plan, hit, fallbacks, time.perf_counter() - t0, tuner_ctx,
                events)

    # ------------------------------------------------------------ execution

    def _execute(
        self, plan: ExecutionPlan, pending: _Pending, response: Response
    ) -> np.ndarray:
        request = pending.request
        deadline = pending.deadline()
        if _faults._current is not None:
            # Fault point: per-request execution, keyed by request id so each
            # request's fate is deterministic regardless of which worker
            # serves it. Transient specs (max_fires) are what retries outlive.
            act = _faults.fire("serve.engine.execute",
                               key=f"r{request.request_id}",
                               variant=plan.variant, app=request.app)
            if act is not None:
                self._c_faults_observed.inc()
                if act.kind == "latency":
                    act.sleep()
                else:
                    raise FaultError("serve.engine.execute", act.kind)
        if request.exec_mode == "simt":
            remaining = None if deadline is None else deadline - time.perf_counter()
            # Per-kernel profilers are always collected: their event totals
            # feed the engine's simulator event counters. Sampled (traced)
            # requests additionally get region profiles on the Response.
            sampled = _trace_core.current_context() is not None
            collect: Optional[list] = []
            try:
                output = self._execute_simt_with_timeout(
                    plan, request, remaining, collect=collect
                )
            except Exception:
                # A failed simulation (e.g. a redzone trap) degrades to the
                # vectorized path, which computes independently — same rule
                # as a timeout: the simulator's problems are not the
                # request's problems.
                self._c_fb_error.inc()
                response.fallbacks.append("error:simt->vectorized")
                output = None
            else:
                if output is None:
                    # Timed out: degrade to the vectorized path, which
                    # always answers.
                    self._c_fb_timeout.inc()
                    response.fallbacks.append("timeout:simt->vectorized")
            if output is not None:
                if collect:
                    for _name, _var, prof in collect:
                        for ev, n in prof.event_totals().items():
                            if n:
                                self._c_simt_events[ev].inc(n)
                if sampled and collect:
                    from ..trace.profile import RegionProfile

                    response.region_profiles = [
                        RegionProfile.from_profiler(name, var, prof)
                        for name, var, prof in collect
                    ]
                return output
        return plan.execute(request.image)

    def _execute_simt_with_timeout(
        self,
        plan: ExecutionPlan,
        request: Request,
        budget_s: Optional[float],
        collect: Optional[list] = None,
    ) -> Optional[np.ndarray]:
        """Run the SIMT simulation; ``None`` means the budget expired.

        The budget has expired when the clock says so after the wait, even
        if the simulation thread has finished by then: a late result is
        discarded, and its counters are not counted. Python threads cannot
        be killed, so an over-budget simulation is *abandoned* — but not
        left running to completion: the wave executor polls the ``abort``
        event and bails out cooperatively, so the zombie thread stops
        burning CPU within a few thousand instructions instead of finishing
        a result nobody will read.
        """
        if budget_s is not None and budget_s <= 0:
            return None
        box: dict[str, object] = {}
        abort = threading.Event()
        # The simulation runs on its own watchdogged thread; re-bind the
        # trace context explicitly (thread-locals do not cross threads).
        ctx = _trace_core.current_context()

        def run():
            try:
                if ctx is not None:
                    with _trace_core.context(*ctx):
                        box["output"] = plan.execute_simt(
                            request.image, abort=abort, collect=collect
                        )
                else:
                    box["output"] = plan.execute_simt(
                        request.image, abort=abort, collect=collect
                    )
            except Exception as exc:  # surfaced by the caller below
                box["error"] = exc

        t = threading.Thread(target=run, daemon=True,
                             name=f"simt-{request.request_id}")
        deadline = None if budget_s is None else time.perf_counter() + budget_s
        t.start()
        t.join(budget_s)
        # The clock decides, not join(): a descheduled or GIL-starved waiter
        # may only wake after the simulation has finished, and a result that
        # finished late is still late.
        if t.is_alive() or (deadline is not None
                            and time.perf_counter() >= deadline):
            abort.set()
            return None
        if "error" in box:
            raise box["error"]  # type: ignore[misc]
        return box["output"]  # type: ignore[return-value]

    def _process_batch(self, batch: list[_Pending], worker: str) -> None:
        if _faults._current is not None:
            # Fault point: the worker dies before touching its batch — the
            # containment net in _worker_loop must fail every request typed.
            act = _faults.fire("serve.engine.worker", worker=worker)
            if act is not None:
                self._c_faults_observed.inc()
                raise FaultError("serve.engine.worker", act.kind)
        leader = batch[0]
        responses = [
            Response(request_id=p.request.request_id, app=p.request.app,
                     worker=worker)
            for p in batch
        ]
        now = time.perf_counter()
        for p, r in zip(batch, responses):
            r.queue_seconds = now - p.enqueued_at
            self._h_queue.observe(r.queue_seconds)
            if p.span is not None:
                # Retroactive: the wait was measured anyway, no live span
                # had to ride the queue.
                p.tracer.record_span("queue", p.span, p.enqueued_at, now)

        t_plan0 = time.perf_counter()
        try:
            plan, hit, fallbacks, build_s, tuner_ctx, plan_events = (
                self._resolve_plan(leader.request)
            )
        except Exception as exc:
            kind = "sanitize" if isinstance(exc, SanitizeError) else "plan_build"
            for p, r in zip(batch, responses):
                if p.span is not None:
                    p.tracer.record_span("plan", p.span, t_plan0,
                                         time.perf_counter(),
                                         status="error", error=str(exc))
                r.error = f"plan build failed: {exc}"
                r.error_kind = kind
                self._finish(p, r)
            return
        t_plan1 = time.perf_counter()

        self._h_build.observe(build_s)
        # The leader's resolution outcome; followers were served without a
        # build of their own, so they count as hits.
        self._c_cache_hits.inc(len(batch) - 1 + (1 if hit else 0))
        if not hit:
            self._c_cache_misses.inc()

        runnable: list[tuple[_Pending, Response]] = []
        for p, r in zip(batch, responses):
            r.plan_key = plan.key
            r.variant = plan.variant
            r.cache_hit = hit if p is leader else True
            r.build_seconds = build_s if p is leader else 0.0
            r.fallbacks.extend(fallbacks)
            if p.span is not None:
                pspan = p.tracer.record_span(
                    "plan", p.span, t_plan0, t_plan1,
                    cache_hit=r.cache_hit, variant=plan.variant,
                    leader=p is leader, build_seconds=r.build_seconds,
                )
                for ev_name, ev_s, ev_e, ev_attrs in plan_events:
                    p.tracer.record_span(ev_name, pspan, ev_s, ev_e,
                                         **ev_attrs)
            deadline = p.deadline()
            # Deadline comparisons are uniformly inclusive (``>=``): a
            # request *at* its deadline is expired, matching the retry
            # loop's check below (the queue check used to say ``>``).
            if (deadline is not None and time.perf_counter() >= deadline
                    and p.request.exec_mode != "simt"):
                r.error = (f"timed out after {p.request.timeout_s:.3f}s "
                           "while queued")
                r.error_kind = "timeout_queue"
                if self._finish(p, r):
                    self._c_queue_timeout.inc()
                continue
            p.phase = "executing"
            runnable.append((p, r))

        # Kernel-level batching: same-signature requests that survived the
        # queue-deadline check collapse into one (N, H, W) evaluation — the
        # Python/plan overhead of every stage is paid once for the whole
        # micro-batch. Disabled under fault injection (fault points are
        # keyed per request id; collapsing requests would change which
        # requests a replayed plan hits). Any batched failure falls back to
        # the per-request retry path below, so batching can only ever speed
        # requests up, not change their outcome.
        if (self.kernel_batching
                and len(runnable) > 1
                and leader.request.exec_mode == "vectorized"
                and _faults._current is None
                and self._execute_kernel_batch(plan, runnable, tuner_ctx)):
            return

        for p, r in runnable:
            t0 = time.perf_counter()
            # Bounded retry with exponential backoff: transient failures
            # (injected faults, co-tenant hiccups) get self.retries more
            # chances; the deadline still rules, and a request that exhausts
            # its budget fails with a typed error — never silently.
            attempt = 0
            while True:
                espan = None
                if p.span is not None:
                    espan = p.tracer.start_span(
                        "execute", p.span, attempt=attempt,
                        exec_mode=p.request.exec_mode, variant=plan.variant,
                    )
                try:
                    if espan is not None:
                        with _trace_core.context(p.tracer, espan):
                            r.output = self._execute(plan, p, r)
                    else:
                        r.output = self._execute(plan, p, r)
                    r.error = None
                    r.error_kind = None
                    if espan is not None:
                        p.tracer.finish(espan, fallbacks=list(r.fallbacks))
                    break
                except Exception as exc:
                    if espan is not None:
                        p.tracer.finish(espan, status="error",
                                        error=str(exc))
                    r.error = f"execution failed: {exc}"
                    r.error_kind = "execution"
                    deadline = p.deadline()
                    out_of_time = (deadline is not None
                                   and time.perf_counter() >= deadline)
                    if out_of_time and attempt < self.retries:
                        # The deadline — not the retry budget — is what
                        # stopped us; type the failure as a timeout.
                        r.error = (f"timed out after "
                                   f"{p.request.timeout_s:.3f}s during "
                                   f"execution (last error: {exc})")
                        r.error_kind = "timeout_execute"
                        break
                    if attempt >= self.retries or out_of_time:
                        break
                    attempt += 1
                    r.retries = attempt
                    self._c_retries.inc()
                    time.sleep(self.retry_backoff_s * (2 ** (attempt - 1)))
            r.execute_seconds = time.perf_counter() - t0
            self._h_execute.observe(r.execute_seconds)
            # Feed the per-variant circuit breaker; a trip also lands a
            # penalty in the tuner's table so tuned configs avoid the shape.
            if r.ok:
                self.breaker.record_success(plan.variant)
            elif self.breaker.record_failure(plan.variant):
                if self.tuner is not None and tuner_ctx is not None:
                    self.tuner.penalize(tuner_ctx[0], plan.variant)
            # Feed measurements back: the plan tracks its own cost EMA, and
            # tuned requests refine the learned table. Only the vectorized
            # path is comparable across variants (SIMT timings measure the
            # simulator, and a timed-out SIMT run degrades mid-request).
            if p.request.exec_mode == "vectorized" and not r.fallbacks:
                if r.ok:
                    plan.note_execution(r.execute_seconds)
                if tuner_ctx is not None:
                    key_t, decided = tuner_ctx
                    if r.ok:
                        self.tuner.observe(key_t, decided, r.execute_seconds)
                    else:
                        self.tuner.penalize(key_t, decided)
            if self._finish(p, r) and r.error_kind == "timeout_execute":
                self._c_exec_timeout.inc()

    def _execute_kernel_batch(
        self,
        plan: ExecutionPlan,
        pairs: list[tuple[_Pending, Response]],
        tuner_ctx: Optional[tuple[TunerKey, str]],
    ) -> bool:
        """Serve ``pairs`` with one batched plan execution.

        Returns False (having resolved nothing) when the batched call
        fails for any reason — the caller's per-request path then serves
        every request individually, with its full retry budget. On success
        each request is charged the amortized wall time (elapsed / N): that
        is the figure the autotuner and the plan EMA must learn, because it
        is what a request actually costs under this policy.
        """
        t0 = time.perf_counter()
        try:
            stack = np.stack([p.request.image for p, _ in pairs])
            outputs = plan.execute_batch(stack)
        except Exception:
            return False
        t1 = time.perf_counter()
        per_request = (t1 - t0) / len(pairs)
        self._c_kernel_batches.inc()
        self._c_kernel_batched.inc(len(pairs))
        for i, (p, r) in enumerate(pairs):
            r.output = outputs[i]
            r.execute_seconds = per_request
            self._h_execute.observe(per_request)
            if p.span is not None:
                p.tracer.record_span(
                    "execute", p.span, t0, t1,
                    exec_mode=p.request.exec_mode, variant=plan.variant,
                    kernel_batch=len(pairs),
                )
            self.breaker.record_success(plan.variant)
            if not r.fallbacks:
                plan.note_execution(per_request)
                if tuner_ctx is not None:
                    self.tuner.observe(tuner_ctx[0], tuner_ctx[1],
                                       per_request)
            self._finish(p, r)
        return True

    def _finish(self, pending: _Pending, response: Response) -> bool:
        """Resolve a request (first-claim-wins); returns whether *this*
        response won. Outcome counters must only be incremented by the
        winner — a worker completing a request the caller already expired
        must not double-count."""
        if not pending.claim():
            return False
        (self._c_ok if response.ok else self._c_error).inc()
        if pending.span is not None:
            response.trace_id = pending.span.trace_id
            pending.tracer.finish(
                pending.span,
                status="ok" if response.ok else f"error:{response.error_kind}",
                error_kind=response.error_kind,
                retries=response.retries,
                fallbacks=list(response.fallbacks),
                cache_hit=response.cache_hit,
                worker=response.worker,
            )
        pending.response = response
        pending.event.set()
        return True

    def _expire(self, pending: _Pending) -> Response:
        """Caller-side deadline expiry (from :meth:`ResponseHandle.result`):
        resolve the request as a typed timeout now, racing the worker.
        The loser of the race returns the winner's response."""
        request = pending.request
        if pending.phase == "queued":
            kind, where = "timeout_queue", "while queued"
        else:
            kind, where = "timeout_execute", "during execution"
        response = Response(
            request_id=request.request_id, app=request.app,
            error=f"timed out after {request.timeout_s:.3f}s {where}",
            error_kind=kind,
        )
        if self._finish(pending, response):
            (self._c_queue_timeout if kind == "timeout_queue"
             else self._c_exec_timeout).inc()
            return response
        # The worker claimed first; its response is (about to be) set.
        pending.event.wait()
        assert pending.response is not None
        return pending.response

    # ------------------------------------------------------------ lifecycle

    def stats(self) -> dict:
        """Merged snapshot: engine counters/latencies + plan-cache stats."""
        snap = self.metrics.snapshot()
        stats = {
            "engine": snap["counters"],
            "gauges": snap["gauges"],
            "latency": snap["histograms"],
            "plan_cache": self.cache.stats(),
            "breaker": self.breaker.stats(),
        }
        if self.tuner is not None:
            stats["tuner"] = self.tuner.stats()
        injector = _faults.active()
        if injector is not None:
            stats["faults"] = injector.counts()
        return stats

    def close(self, *, timeout: Optional[float] = 30.0) -> None:
        """Stop accepting work, drain the queue, join the workers; persist
        the tuner's learned table when it has a cache path.

        Idempotent and thread-safe: a second (or concurrent) close also
        waits for the drain instead of returning while workers are still
        running, a submitter blocked on backpressure is woken (and raises
        :class:`EngineClosed`, typed, rather than hanging), and the tuner
        table is persisted exactly once. Shard lifecycle management calls
        close from signal handlers and monitor threads concurrently, so
        none of these paths may raise or deadlock.
        """
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._space_free.notify_all()
        me = threading.current_thread()
        for t in self._threads:
            if t is not me:  # close() from a worker must not self-join
                t.join(timeout)
        with self._close_lock:
            if self._tuner_saved:
                return
            self._tuner_saved = True
        if self.tuner is not None and self.tuner.path is not None:
            try:
                self.tuner.save()
            except OSError:
                # Losing the learned table costs a cold start next boot;
                # failing close() would cost the caller its shutdown path.
                pass

    def __enter__(self) -> "ServeEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
