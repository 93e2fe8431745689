"""The traced run: per-layer times from spans the benchmark records itself.

No span is added inside the program. For each request of the traced phase:

1. ``engine.request`` covers submit -> result. Its children ``engine.queue``,
   ``engine.build`` and ``engine.execute`` carry the durations the engine
   reports on each Response, so its self time is the engine's handoff.
2. ``floor`` times the floor on the same inputs, right after the request.
3. ``replay`` sends the same request again through the public entry points,
   one span per call: ``plan.trace_app``, ``plan.digest`` (``plan_key``) and
   ``plan.cache_lookup`` (``PlanCache.get``); then on the host
   ``runtime.execute`` with ``runtime.stage`` (``run_kernel_vectorized``),
   ``runtime.pad`` (``make_border``) and ``runtime.fused`` (``run_fused``)
   children, or in SIMT ``gpu.memory`` and ``gpu.launch`` (with a Profiler).
4. ``probe`` holds side measurements off the request's path: ``gpu.decode``
   (``verify`` + ``immediate_postdominators``, which ``launch`` repeats
   inside) and ``gpu.launch_noprof`` (``launch`` without a Profiler).

All spans of one request share its id; a span's self time is its duration
minus its children's. Spans stay in memory and are written to
perfbench/.runs/ when the run ends. Allocation tracing and fault counting
run only around the calls they measure, outside the timed spans or with a
cost of two system calls.

Additivity: queue + handoff + the replay's span must add up to the
request's ``engine.request``; the median of that ratio over the traced
requests must stay within ADDITIVITY_TOLERANCE of 1. The replay is a second
execution of the same work, so single pairs differ by the machine's noise.

Before the traced phase, one cold replay per distinct plan (caches cleared)
times the set-up layers: trace, model prediction, plan build, SIMT compile,
static sanitizer and first execution.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import json
import math
import os
import resource
import statistics
import time
import tracemalloc

import numpy as np

from repro.compiler import (
    CompileError,
    CompiledFusedKernel,
    Variant,
    compile_fused_simt,
    compile_kernel,
)
from repro.dsl import Boundary
from repro.gpu import EVENT_NAMES, GlobalMemory, Profiler, cost_table_for, launch
from repro.ir import immediate_postdominators, verify
from repro.ir.types import DataType
from repro.model import clear_model_cache, predict_kernel
from repro.runtime import (
    clear_profile_cache,
    make_border,
    pad_key,
    run_fused,
    run_kernel_vectorized,
)
from repro.sanitize import sanitize_compiled
from repro.sanitize.static import sanitize_fused
from repro.serve import build_plan, plan_key, trace_app

from floors import within_tolerance
from harness import Samples, closed_loop, hit_rate

#: |median of (queue + handoff + replay) / engine.request - 1| must stay below.
ADDITIVITY_TOLERANCE = 0.15

RUNS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".runs")

_RUSAGE = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)

#: Plan variant -> the SIMT code shape the plan compiles it to.
_SIMT_SHAPES = {
    "naive": Variant.NAIVE,
    "isp": Variant.ISP,
    "isp_warp": Variant.ISP_WARP,
    "prepad": Variant.NAIVE,
    "fused": Variant.NAIVE,
}


class SpanLog:
    """In-memory spans: (request id, name, parent name, start, end)."""

    def __init__(self):
        self.rows: list[tuple] = []

    def add(self, rid, name, parent, start, end) -> None:
        self.rows.append((rid, name, parent, start, end))

    @contextlib.contextmanager
    def span(self, rid, name, parent=None):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.rows.append((rid, name, parent, t0, time.perf_counter()))

    def per_request(self) -> dict:
        """rid -> {name: (total duration, self time)}."""
        total = collections.defaultdict(float)
        child = collections.defaultdict(float)
        for rid, name, parent, t0, t1 in self.rows:
            total[rid, name] += t1 - t0
            if parent is not None:
                child[rid, parent] += t1 - t0
        out: dict = collections.defaultdict(dict)
        for (rid, name), dur in total.items():
            out[rid][name] = (dur, dur - child[rid, name])
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            for rid, name, parent, t0, t1 in self.rows:
                f.write(json.dumps({"id": rid, "name": name, "parent": parent,
                                    "start": t0, "end": t1}) + "\n")


def compile_simt(plan) -> list:
    """The SIMT kernels the plan runs, compiled through the public compiler
    entry points the way the plan compiles them."""
    if plan.fused_plan is not None:
        try:
            return [compile_fused_simt(plan.fused_plan, block=plan.key.block,
                                       device=plan.device)]
        except CompileError:
            pass  # the plan runs the staged naive kernels instead
    return [compile_kernel(d, variant=_SIMT_SHAPES[plan.kernel_variants[d.output_name]],
                           block=plan.key.block, device=plan.device)
            for d in plan.descs]


class Replay:
    """Sends one request's work through the public entry points, with spans."""

    def __init__(self, spans: SpanLog):
        self.spans = spans

    def resolve(self, rid, parent, engine, kind):
        s = self.spans
        with s.span(rid, "plan.trace_app", parent):
            descs = trace_app(kind.app, kind.pattern, kind.size, kind.size)
        with s.span(rid, "plan.digest", parent):
            key = plan_key(descs, variant=kind.variant, pattern=kind.pattern,
                           device=engine.device, block=engine.block)
        with s.span(rid, "plan.cache_lookup", parent):
            plan = engine.cache.get(key)
        return plan

    def host(self, rid, parent, plan, images):
        """The plan's host execution: pad, stage and fused calls."""
        s = self.spans
        bound = {plan.input_names[0]: images}
        if plan.fused_plan is not None:
            with s.span(rid, "runtime.fused", parent):
                return run_fused(plan.fused_plan, bound)
        pad_cache: dict = {}
        for desc in plan.descs:
            variant = plan.kernel_variants[desc.output_name]
            if variant == "prepad":
                hx, hy = desc.extent
                for acc in desc.accessors:
                    # run_kernel_vectorized pads UNDEFINED as CLAMP
                    boundary = (Boundary.CLAMP if acc.boundary is Boundary.UNDEFINED
                                else acc.boundary)
                    key = pad_key(acc.image.name, boundary, acc.constant, hx, hy)
                    if key in pad_cache:
                        continue
                    src = bound[acc.image.name]
                    with s.span(rid, "runtime.pad", parent):
                        padded = make_border(src, hx, hy, boundary, acc.constant)
                    pad_cache[key] = (src, padded)
            with s.span(rid, "runtime.stage", parent):
                bound[desc.output_name] = run_kernel_vectorized(
                    desc, bound, variant=variant, pad_cache=pad_cache,
                    warp_width=plan.device.warp_size)
        return bound[plan.output_name]

    def simt(self, rid, parent, plan, compiled, image, profile=True):
        """The plan's SIMT execution; returns (output, profilers)."""
        s = self.spans
        memory_span = "gpu.memory" if profile else "gpu.memory_noprof"
        launch_span = "gpu.launch" if profile else "gpu.launch_noprof"
        with s.span(rid, memory_span, parent):
            n_images = len(plan.descs) + 1
            px = max(d.width * d.height for d in plan.descs)
            mem = GlobalMemory(
                1 << max(16, math.ceil(math.log2((n_images + 2) * px * 4 + 4096))))
            name = plan.input_names[0]
            bases = {name: mem.alloc(image.size * 4)}
            mem.write_array(bases[name], image)
        if len(compiled) == 1 and isinstance(compiled[0], CompiledFusedKernel):
            stages = [(compiled[0], compiled[0].plan.output_name)]
        else:
            stages = [(ck, d.output_name) for ck, d in zip(compiled, plan.descs)]
        profilers = []
        out = None
        for ck, out_name in stages:
            h, w = plan.key.height, plan.key.width
            with s.span(rid, memory_span, parent):
                bases[out_name] = mem.alloc(w * h * 4)
            prof = Profiler(cost_table_for(plan.device)) if profile else None
            with s.span(rid, launch_span, parent):
                launch(ck.func, ck.launch_config, mem, ck.param_values(bases), prof)
            with s.span(rid, memory_span, parent):
                out = mem.read_array(bases[out_name], (h, w), DataType.F32)
            profilers.append(prof)
        return out, profilers

    def decode(self, rid, parent, compiled) -> None:
        with self.spans.span(rid, "gpu.decode", parent):
            for ck in compiled:
                verify(ck.func)
                immediate_postdominators(ck.func)


def _host_images(kind, x):
    # A burst reaches the executor as one (N, H, W) stack.
    return np.stack(list(x)) if kind.burst > 1 else x


def cold_setup(h, spans: SpanLog) -> dict:
    """One cold replay per distinct plan: seconds per set-up layer, summed."""
    replay = Replay(spans)
    for i in h.plan_firsts():
        kind, x = h.kinds[i], h.draw(i)
        engine = h.engine_for(i)
        rid = f"setup-{i}"
        clear_model_cache()
        clear_profile_cache()
        with spans.span(rid, "setup"):
            with spans.span(rid, "compiler.trace", "setup"):
                descs = trace_app(kind.app, kind.pattern, kind.size, kind.size)
            with spans.span(rid, "model.predict", "setup"):
                if kind.variant == "isp+m":
                    for d in descs:
                        if d.needs_border_handling:
                            predict_kernel(d, block=engine.block, device=engine.device)
            with spans.span(rid, "plan.build", "setup"):
                plan = build_plan(kind.app, kind.pattern, kind.size, kind.size,
                                  variant=kind.variant, device=engine.device,
                                  block=engine.block, descs=descs)
            with spans.span(rid, "compiler.compile", "setup"):
                compiled = compile_simt(plan)
            with spans.span(rid, "sanitize.static", "setup"):
                reports = [sanitize_fused(ck) if isinstance(ck, CompiledFusedKernel)
                           else sanitize_compiled(ck) for ck in compiled]
            with spans.span(rid, "runtime.first_execute", "setup"):
                if kind.exec_mode == "simt":
                    out, _ = replay.simt(rid, "runtime.first_execute", plan,
                                         compiled, x)
                else:
                    out = plan.execute(x)
        problems = [f"sanitizer finding in {r.kernel}" for r in reports if not r.ok]
        if not within_tolerance(out, h.floors[i](x)):
            problems.append("cold replay outside the floor tolerance")
        if kind.exec_mode == "simt" and not np.array_equal(out, plan.execute(x)):
            problems.append("cold SIMT replay differs from host execute")
        h.failures.record(kind, problems)
    per = spans.per_request()
    layers = ("compiler.trace", "model.predict", "plan.build", "compiler.compile",
              "sanitize.static", "runtime.first_execute")
    return {name: sum(v[name][0] for rid, v in per.items()
                      if str(rid).startswith("setup-") and name in v)
            for name in layers}


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


class TracedRun:
    """State of one traced run: its spans, replays and counts.

    Replays run on one long-lived thread of their own, like the engine's
    worker: the main thread's malloc arena trims and faults differently, so
    a replay there would not repeat the engine's work.
    """

    def __init__(self, h):
        self.h = h
        self.spans = SpanLog()
        self.replay = Replay(self.spans)
        self.pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="replay")
        self.flags: list[str] = []
        self.compiled: dict[int, list] = {}
        #: kind index -> simulator counts of one replay (SIMT kinds)
        self.kind_counts: dict[int, dict] = {}
        self.faults: dict = {}
        self.stime: dict = {}
        self.temp_mib: dict[int, float] = {}
        self.rids_by_kind: dict[int, list] = collections.defaultdict(list)
        self.samples = Samples(len(h.kinds))

    def close(self) -> None:
        self.pool.shutdown(wait=True)

    def on_replay_thread(self, fn, *args):
        return self.pool.submit(fn, *args).result()

    def request(self, rid: int, i: int) -> None:
        """One traced request: engine request, floor, replay and checks."""
        h, spans = self.h, self.spans
        kind = h.kinds[i]
        self.rids_by_kind[i].append(rid)
        x = h.draw(i)
        latency, responses = h.send(i, x)
        t1 = time.perf_counter()
        t0 = t1 - latency
        queue = responses[0].queue_seconds
        build = sum(r.build_seconds for r in responses)
        execute = sum(r.execute_seconds for r in responses)
        spans.add(rid, "engine.request", None, t0, t1)
        spans.add(rid, "engine.queue", "engine.request", t0, t0 + queue)
        spans.add(rid, "engine.build", "engine.request",
                  t0 + queue, t0 + queue + build)
        spans.add(rid, "engine.execute", "engine.request",
                  t0 + queue + build, t0 + queue + build + execute)
        t_floor = time.perf_counter()
        floor_s, floor_out = h.time_floor(i, x, latency)
        spans.add(rid, "floor", None, t_floor, t_floor + floor_s)
        self.samples.add(i, latency, floor_s, len(responses))
        h.check(i, x, responses, floor_out, h.plans.get(i))

        out = self.on_replay_thread(self._replay, rid, i, x)
        engine_out = (np.stack([r.output for r in responses]) if kind.burst > 1
                      else responses[0].output)
        if engine_out is None or not np.array_equal(out, engine_out):
            self.flags.append(f"{kind.name}: replay output differs from the engine's")

    def _replay(self, rid: int, i: int, x: np.ndarray):
        h, spans, replay = self.h, self.spans, self.replay
        kind, engine = h.kinds[i], h.engine_for(i)
        with spans.span(rid, "replay"):
            plan = replay.resolve(rid, "replay", engine, kind)
            if plan is None:
                raise RuntimeError(f"{kind.name}: no cached plan to replay")
            if kind.exec_mode == "simt":
                out, profilers = replay.simt(rid, "replay", plan, self.compiled[i], x)
            else:
                ru0 = resource.getrusage(_RUSAGE)
                with spans.span(rid, "runtime.execute", "replay"):
                    out = replay.host(rid, "runtime.execute", plan,
                                      _host_images(kind, x))
                ru1 = resource.getrusage(_RUSAGE)
                self.faults[rid] = ru1.ru_minflt - ru0.ru_minflt
                self.stime[rid] = ru1.ru_stime - ru0.ru_stime
        if kind.exec_mode == "simt":
            with spans.span(rid, "probe"):
                replay.decode(rid, "probe", self.compiled[i])
                replay.simt(rid, "probe", plan, self.compiled[i], x, profile=False)
            counts = collections.Counter()
            for prof in profilers:
                counts["gpu.warp_instructions"] += prof.warp_instructions
                for name, n in prof.event_totals().items():
                    counts[f"gpu.events.{name}"] += n
            if self.kind_counts.setdefault(i, dict(counts)) != dict(counts):
                self.flags.append(f"{kind.name}: simulator counts changed between replays")
        elif i not in self.temp_mib:
            # Allocation tracing slows every allocation, so it runs on a
            # separate, untimed execution of the same calls.
            tracemalloc.start()
            try:
                traced_out = Replay(SpanLog()).host(
                    None, None, plan, _host_images(kind, x))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.temp_mib[i] = (peak - traced_out.nbytes) / 2 ** 20
        return out

    def compile_simt_kinds(self) -> None:
        """Compile each SIMT kind's kernels once, before any span is timed."""
        for i, kind in enumerate(self.h.kinds):
            if kind.exec_mode == "simt":
                plan = Replay(SpanLog()).resolve(None, None, self.h.engine_for(i), kind)
                self.compiled[i] = compile_simt(plan)

    def phase(self, seconds: float, rng) -> dict:
        """Traced requests in the closed loop; returns the engines' counter
        deltas."""
        before = self.h.engine_counters()
        t_start = time.perf_counter()
        for rid, i in enumerate(closed_loop(len(self.h.kinds), seconds, rng), 1):
            self.request(rid, i)
        self.samples.elapsed = time.perf_counter() - t_start
        return self.h.engine_counters(since=before)


def run(h, seconds: float, rng, workload: str):
    """The traced run. Returns (per-layer values, exact counts, context, flags)."""
    tr = TracedRun(h)
    try:
        setup = tr.on_replay_thread(cold_setup, h, tr.spans)
        tr.compile_simt_kinds()
        untraced = h.timed_phase(seconds / 2, rng)
        delta = tr.phase(seconds / 2, rng)
    finally:
        tr.close()
    flags, kind_counts, rids_by_kind = tr.flags, tr.kind_counts, tr.rids_by_kind

    os.makedirs(RUNS_DIR, exist_ok=True)
    tr.spans.dump(os.path.join(RUNS_DIR, f"spans-{workload}.jsonl"))
    per = tr.spans.per_request()
    rids = [r for rs in rids_by_kind.values() for r in rs]
    request_s = sum(per[r]["engine.request"][0] for r in rids)

    def layer(name, scale, self_time=False):
        """Mean over kinds of the kind's median span time, per request."""
        idx = 1 if self_time else 0
        return scale * _mean(
            statistics.median(per[r].get(name, (0.0, 0.0))[idx] for r in rs)
            for rs in rids_by_kind.values())

    def share(*names):
        return sum(per[r].get(n, (0.0, 0.0))[0] for r in rids for n in names) / request_s

    # Exact counts: one replay of every SIMT kind, summed. The engine's own
    # event counters over the traced phase must match the replays.
    counts = collections.Counter()
    for c in kind_counts.values():
        counts.update(c)
    for name in EVENT_NAMES:
        replayed = sum(len(rids_by_kind[i]) * c.get(f"gpu.events.{name}", 0)
                       for i, c in kind_counts.items())
        if delta.get(f"engine.simt_events_{name}", 0) != replayed:
            flags.append(f"engine counted {name} events unlike the replay")

    launch_s = sum(statistics.median(per[r]["gpu.launch"][0] for r in rids_by_kind[i])
                   for i in kind_counts)
    layers_over_request = statistics.median(
        (per[r]["engine.queue"][0] + per[r]["engine.request"][1] + per[r]["replay"][0])
        / per[r]["engine.request"][0] for r in rids)
    additivity_error = abs(layers_over_request - 1.0)
    if additivity_error > ADDITIVITY_TOLERANCE:
        flags.append(f"layers add up to {layers_over_request:.3f} of the request "
                     f"(tolerance {ADDITIVITY_TOLERANCE})")
    host_exec = sum(per[r].get("runtime.execute", (0.0, 0.0))[0] for r in rids)
    host_kinds = [rs for i, rs in rids_by_kind.items() if h.kinds[i].exec_mode != "simt"]

    values = {
        "engine.queue_wait_us": layer("engine.queue", 1e6),
        "engine.handoff_us": layer("engine.request", 1e6, self_time=True),
        "engine.kernel_batched_share":
            delta["engine.kernel_batched_requests"] / delta["engine.requests_submitted"],
        "engine.plan_cache_hit_rate": hit_rate(delta),
        "plan.trace_app_us": layer("plan.trace_app", 1e6),
        "plan.digest_us": layer("plan.digest", 1e6),
        "plan.cache_lookup_us": layer("plan.cache_lookup", 1e6),
        "plan.resolve_share": share("plan.trace_app", "plan.digest", "plan.cache_lookup"),
        "runtime.execute_ms": layer("runtime.execute", 1e3),
        "runtime.stage_ms": layer("runtime.stage", 1e3),
        "runtime.pad_ms": layer("runtime.pad", 1e3),
        "runtime.fused_ms": layer("runtime.fused", 1e3),
        "runtime.temp_peak_mib": _mean(tr.temp_mib.values()),
        "runtime.minor_faults": _mean(
            statistics.median(tr.faults[r] for r in rs) for rs in host_kinds),
        "runtime.sys_share": sum(tr.stime.values()) / host_exec if host_exec else 0.0,
        "compiler.trace_ms": 1e3 * setup["compiler.trace"],
        "model.predict_ms": 1e3 * setup["model.predict"],
        "plan.build_ms": 1e3 * setup["plan.build"],
        "compiler.compile_ms": 1e3 * setup["compiler.compile"],
        "sanitize.static_ms": 1e3 * setup["sanitize.static"],
        "runtime.first_execute_ms": 1e3 * setup["runtime.first_execute"],
        "gpu.winst_per_s": counts["gpu.warp_instructions"] / launch_s if launch_s else 0.0,
        "gpu.decode_ms": layer("gpu.decode", 1e3),
        "gpu.profiler_ms": 1e3 * _mean(
            statistics.median(per[r]["gpu.launch"][0] - per[r]["gpu.launch_noprof"][0]
                              for r in rids_by_kind[i]) for i in kind_counts),
        "gpu.memory_ms": layer("gpu.memory", 1e3),
        "gpu.launch_ms": layer("gpu.launch", 1e3),
        "gpu.launch_share": share("gpu.launch"),
        "gpu.warp_instructions": counts["gpu.warp_instructions"],
        "trace.overhead": tr.samples.x_floor() / untraced.x_floor() - 1.0,
        "trace.additivity_error": additivity_error,
    }
    for name in EVENT_NAMES:
        values[f"gpu.events.{name}"] = counts[f"gpu.events.{name}"]

    exact = {k: v for k, v in values.items()
             if k == "gpu.warp_instructions" or k.startswith("gpu.events.")}
    exact["engine.plan_cache_hit_rate"] = values["engine.plan_cache_hit_rate"]
    context = {
        "untraced": untraced.context(h.kinds),
        "traced": tr.samples.context(h.kinds),
        "x_floor_untraced": untraced.x_floor(),
        "x_floor_traced": tr.samples.x_floor(),
        "layers_over_request": layers_over_request,
        "additivity_tolerance": ADDITIVITY_TOLERANCE,
        "traced_requests": len(rids),
    }
    return values, exact, context, flags
