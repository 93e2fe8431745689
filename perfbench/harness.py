"""Engines, requests, floors and output checks shared by the timed and traced runs."""

from __future__ import annotations

import collections
import math
import statistics
import time

import numpy as np

from repro.gpu import get_device
from repro.model import clear_model_cache
from repro.runtime import clear_profile_cache
from repro.serve import ExecutionPlan, Request, ServeEngine

from floors import Floor, within_tolerance
from workloads import Kind, draw_input, input_rng

#: A request's floor time is the mean per call of back-to-back floor calls
#: made right after the request on the same inputs: at least FLOOR_CALLS of
#: them, filling at least FLOOR_SHARE of the request's latency. Like the
#: request, the mean absorbs the machine's short stalls; the fastest single
#: call of a 0.1 ms floor slips between them, which a 0.5 s SIMT request
#: cannot, and dividing by it would not cancel them.
FLOOR_CALLS = 3
FLOOR_SHARE = 0.05

#: Cold first requests per distinct plan; setup_s sums each plan's fastest.
#: The repeats are interleaved across plans, so one slow stretch of the
#: machine costs each plan one sample rather than all of one plan's.
SETUP_REPEATS = 4


def new_engine(device: str) -> ServeEngine:
    """One worker: with the client thread that makes two threads on 2 cores."""
    return ServeEngine(workers=1, device=get_device(device))


def closed_loop(n_kinds: int, seconds: float, rng: np.random.Generator):
    """Kind indices in a seeded order, round after round, for ``seconds``
    (at least one full round, so every kind has a sample)."""
    deadline = time.perf_counter() + seconds
    first_round = True
    while first_round or time.perf_counter() < deadline:
        for i in rng.permutation(n_kinds):
            yield int(i)
            if not first_round and time.perf_counter() >= deadline:
                return
        first_round = False


def hit_rate(counters: dict) -> float:
    """Plan-cache hit rate from engine counters."""
    hits = counters.get("engine.plan_cache_hits", 0)
    total = hits + counters.get("engine.plan_cache_misses", 0)
    return hits / total if total else 0.0


class Failures:
    """Engine requests attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, kind: Kind, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{kind.name}: {'; '.join(problems)}")


class Harness:
    """The engines, inputs and floors of one workload."""

    def __init__(self, kinds: list[Kind], seed: int):
        self.kinds = kinds
        self.rng = input_rng(seed)
        self.floors = [Floor(k.app, k.pattern, k.input_shape) for k in kinds]
        #: the engines the timed phases run on, started by :meth:`warm`
        self.engines: dict[str, ServeEngine] = {}
        #: kind index -> the timed engine's plan (SIMT kinds), whose host
        #: ``execute`` is the bit-exact reference for the simulator
        self.plans: dict[int, ExecutionPlan] = {}
        self.failures = Failures()

    def close(self) -> None:
        for engine in self.engines.values():
            engine.close()

    def engine_counters(self, since: dict = None) -> dict:
        """The timed engines' counters, summed; minus ``since`` when given."""
        total = collections.Counter()
        for engine in self.engines.values():
            total.update(engine.stats()["engine"])
        if since is not None:
            total.subtract(since)
        return dict(total)

    def engine_for(self, i: int) -> ServeEngine:
        return self.engines[self.kinds[i].device]

    def draw(self, i: int) -> np.ndarray:
        """A fresh input for one request of kind ``i``."""
        return draw_input(self.kinds[i], self.rng)

    def send(self, i: int, x: np.ndarray, engine: ServeEngine = None):
        """Client-observed latency (first submit -> last result) and responses."""
        engine = engine or self.engine_for(i)
        k = self.kinds[i]
        requests = [Request(app=k.app, image=img, pattern=k.pattern,
                            variant=k.variant, exec_mode=k.exec_mode)
                    for img in (x if k.burst > 1 else [x])]
        t0 = time.perf_counter()
        handles = [engine.submit(r) for r in requests]
        responses = [h.result() for h in handles]
        return time.perf_counter() - t0, responses

    def time_floor(self, i: int, x: np.ndarray, latency: float):
        """The floor's time per call on ``x`` after a request, and its output."""
        floor = self.floors[i]
        calls = 0
        t0 = time.perf_counter()
        while True:
            out = floor(x)
            calls += 1
            spent = time.perf_counter() - t0
            if calls >= FLOOR_CALLS and spent >= FLOOR_SHARE * latency:
                return spent / calls, out

    def check(self, i: int, x: np.ndarray, responses, floor_out: np.ndarray,
              plan: ExecutionPlan = None) -> None:
        """A non-ok response, any fallback or a mismatch fails the request.

        Every output must lie within the floor tolerance; a SIMT output must
        also equal ``plan``'s host execution of the same input bit for bit.
        """
        k = self.kinds[i]
        refs = floor_out if k.burst > 1 else [floor_out]
        host = plan.execute(x) if k.exec_mode == "simt" and plan else None
        for r, ref in zip(responses, refs):
            problems = []
            if not r.ok:
                problems.append(f"{r.error_kind}: {r.error}")
            if r.fallbacks:
                problems.append("fallbacks " + ",".join(r.fallbacks))
            if r.output is None:
                problems.append("no output")
            elif not within_tolerance(r.output, ref):
                problems.append("output outside the floor tolerance")
            elif k.exec_mode == "simt" and (host is None
                                            or not np.array_equal(r.output, host)):
                problems.append("SIMT output differs from host execute")
            self.failures.record(k, problems)

    # ------------------------------------------------------------ phases

    def _serve_checked(self, i: int, engine: ServeEngine):
        """One checked request on ``engine``; returns its latency and plan."""
        x = self.draw(i)
        latency, responses = self.send(i, x, engine)
        plan = engine.cache.get(responses[0].plan_key) if responses[0].ok else None
        self.check(i, x, responses, self.floors[i](x), plan)
        return latency, plan

    def warm(self) -> None:
        """Start the timed engines and build every plan on them, so no plan
        is built while timing."""
        self.engines = {d: new_engine(d) for d in sorted({k.device for k in self.kinds})}
        for i, k in enumerate(self.kinds):
            _, plan = self._serve_checked(i, self.engine_for(i))
            if k.exec_mode == "simt":
                self.plans[i] = plan

    def plan_firsts(self) -> list[int]:
        """Index of the first alone kind of each distinct plan."""
        firsts: dict[tuple, int] = {}
        for i, k in enumerate(self.kinds):
            if k.burst == 1:
                firsts.setdefault(k.plan_id, i)
        return list(firsts.values())

    def measure_setup(self) -> float:
        """setup_s: per distinct plan, the fastest of SETUP_REPEATS cold first
        requests, each on a fresh engine with the model and profile caches
        cleared; summed over plans. A first, throwaway pass pays the lazy
        imports.

        Runs before :meth:`warm`: each engine's worker thread exits before
        the next one starts, so they all reuse one malloc arena and the peak
        resident set does not depend on how threads interleaved.
        """
        firsts = self.plan_firsts()
        best = {i: math.inf for i in firsts}
        for rep in range(1 + SETUP_REPEATS):
            for i in firsts:
                clear_model_cache()
                clear_profile_cache()
                engine = new_engine(self.kinds[i].device)
                try:
                    latency, _ = self._serve_checked(i, engine)
                finally:
                    engine.close()
                if rep:
                    best[i] = min(best[i], latency)
        return sum(best.values())

    def timed_phase(self, seconds: float, rng: np.random.Generator) -> "Samples":
        """Closed loop over the kinds; each request is followed by its floor."""
        samples = Samples(len(self.kinds))
        t_start = time.perf_counter()
        for i in closed_loop(len(self.kinds), seconds, rng):
            x = self.draw(i)
            latency, responses = self.send(i, x)
            floor_s, floor_out = self.time_floor(i, x, latency)
            self.check(i, x, responses, floor_out, self.plans.get(i))
            samples.add(i, latency, floor_s, len(responses))
        samples.elapsed = time.perf_counter() - t_start
        return samples


class Samples:
    """Per-kind (latency, floor) pairs of one phase."""

    def __init__(self, n_kinds: int):
        self.latency: list[list[float]] = [[] for _ in range(n_kinds)]
        self.floor: list[list[float]] = [[] for _ in range(n_kinds)]
        self.requests = 0
        self.elapsed = 0.0

    def add(self, i: int, latency: float, floor_s: float, n_requests: int):
        self.latency[i].append(latency)
        self.floor[i].append(floor_s)
        self.requests += n_requests

    def x_floor(self) -> float:
        """Geomean over kinds of fastest latency / fastest floor."""
        return statistics.geometric_mean(
            min(l) / min(f) for l, f in zip(self.latency, self.floor))

    def x_floor_p50(self) -> float:
        """Geomean over kinds of the median per-request latency / floor."""
        return statistics.geometric_mean(
            statistics.median(a / b for a, b in zip(l, f))
            for l, f in zip(self.latency, self.floor)
        )

    def context(self, kinds: list[Kind]) -> dict:
        """Absolute figures, reported beside the normalised metrics."""
        lat = sorted(x for l in self.latency for x in l)
        n = len(lat)
        ctx = {
            "per_kind": {
                k.name: {
                    "samples": len(l),
                    "latency_min_ms": 1e3 * min(l),
                    "floor_min_ms": 1e3 * min(f),
                    "x_floor": min(l) / min(f),
                }
                for k, l, f in zip(kinds, self.latency, self.floor)
            },
            "floor_ms_per_round": 1e3 * sum(min(f) for f in self.floor),
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_samples": n,
            "requests": self.requests,
            "requests_per_s": self.requests / self.elapsed,
            "seconds": self.elapsed,
        }
        # The highest percentile with at least ten samples beyond it.
        ctx["latency_tail"] = None
        for p in (99.9, 99.0, 95.0, 90.0, 75.0):
            if n * (1 - p / 100) >= 10:
                ctx["latency_tail"] = {
                    "percentile": p,
                    "ms": 1e3 * lat[min(n - 1, math.ceil(n * p / 100) - 1)],
                    "samples_beyond": n - math.ceil(n * p / 100),
                }
                break
        return ctx
