"""Adaptive variant selection: the analytic model as a prior, measurement as
the judge.

The paper's model (Eqs. 1-10) predicts whether partitioning pays off via
``G = R_reduced * O_ISP / O_naive`` — and Table III shows it mispredicts
exactly near the switching point, where the margin between variants is small
enough for an online measurement to settle cheaply. The tuner closes that
loop per configuration ``(pipeline digest, image size, border pattern,
device)``:

1. **Prior** — :func:`pipeline_gain`, the Eq. 10 prediction ``isp+m``
   plans already make, seeds the choice: ``G <= 1`` starts from ``naive``
   (the Section VI-A.2 fallback), ``G > 1`` from ``isp``. The prior also
   orders the trial schedule, so the very first request already runs the
   model's pick.
2. **Trials** — the next requests for the configuration are routed
   round-robin across :data:`TUNE_CANDIDATES`, the host's four schedules,
   until every candidate has ``trials_per_variant`` measured executions.
   Each candidate is scored by its *best* (minimum) observed time — the
   usual autotuner convention, because co-tenant work (plan compiles on a
   sibling worker, GC, scheduler noise) only ever inflates a wall-clock
   sample, never deflates it. An exponential moving average is kept
   alongside for reporting and drift visibility.
3. **Commit** — the empirical winner (lowest best-observed time) is
   committed; agreement with the model's binary prediction is recorded
   (``tuner.model_agreements`` over committed configs — a live Table III).
4. **Hysteresis** — after commit, an occasional probe request gives the
   runner-up a fresh chance to set a better best time; the tuner only
   switches when the challenger beats the incumbent by the ``hysteresis``
   margin, so measurement noise cannot make it flap (``tuner.switches``
   counts real regime changes).
5. **Persistence** — :meth:`AutoTuner.save` writes the learned table to JSON
   and :meth:`AutoTuner.load` restores it, so a warm restart skips trials
   entirely (committed entries serve immediately).

Degradation paths (execution failure, a tripped circuit breaker) record a
*penalty*: the failing variant's EMA is inflated and, after
``max_failures``, it is excluded from trials — a variant that keeps failing
should never win.
"""

from __future__ import annotations

import dataclasses
import json
import math
import threading
from pathlib import Path
from typing import Callable, Optional, Sequence, Union

from ..compiler.frontend import KernelDescription
from ..faults import core as _faults
from ..gpu.device import DeviceSpec
from .metrics import MetricsRegistry
from .plan import combined_digest

#: The host schedules the tuner arbitrates between. ``fused`` is
#: pipeline-level (overlapped tiles, no materialized intermediates); the
#: others are per-stage schedules applied to staged execution. ``isp_warp``
#: is not one: the host runs it as ``isp``.
TUNE_CANDIDATES = ("naive", "isp", "prepad", "fused")

#: Arms of older persistence files and the candidate each now loads as.
_RENAMED = {"isp_warp": "isp"}


@dataclasses.dataclass(frozen=True)
class TunerKey:
    """One tuned configuration: what must match for timings to transfer."""

    digest: str
    width: int
    height: int
    pattern: str
    device: str

    def short(self) -> str:
        return (f"{self.digest[:10]}/{self.width}x{self.height}/"
                f"{self.pattern}/{self.device}")


def tuner_key(
    descs: Sequence[KernelDescription], pattern: str, device: DeviceSpec
) -> TunerKey:
    """Key a traced pipeline the same way plan keys do (content digest)."""
    return TunerKey(
        digest=combined_digest(descs),
        width=descs[-1].width,
        height=descs[-1].height,
        pattern=pattern,
        device=device.name,
    )


def pipeline_gain(
    descs: Sequence[KernelDescription],
    *,
    block: tuple[int, int] = (32, 4),
    device: DeviceSpec = None,
) -> float:
    """The model's G for a pipeline: geometric mean over bordered kernels.

    Point-operator-only pipelines have nothing to partition; their gain is
    1.0 (neither side of the decision), matching the measurement harness.
    """
    from ..model.prediction import predict_for

    gains = []
    for desc in descs:
        if not desc.needs_border_handling:
            continue
        kwargs = {"block": block}
        if device is not None:
            kwargs["device"] = device
        gains.append(predict_for(desc, **kwargs).gain)
    if not gains:
        return 1.0
    return math.exp(sum(math.log(max(g, 1e-12)) for g in gains) / len(gains))


@dataclasses.dataclass
class VariantStats:
    """Measured state of one candidate variant within one configuration."""

    #: lowest observed wall time — the candidate's score (noise inflates
    #: samples, so the minimum is the least-contaminated estimate)
    best_seconds: Optional[float] = None
    ema_seconds: Optional[float] = None
    observations: int = 0
    failures: int = 0
    #: decisions handed out but not yet measured (transient, not persisted)
    pending: int = 0

    def observe(self, seconds: float, alpha: float) -> None:
        seconds = float(seconds)
        if self.best_seconds is None or seconds < self.best_seconds:
            self.best_seconds = seconds
        if self.ema_seconds is None:
            self.ema_seconds = seconds
        else:
            self.ema_seconds += alpha * (seconds - self.ema_seconds)
        self.observations += 1

    def to_json(self) -> dict:
        return {
            "best_seconds": self.best_seconds,
            "ema_seconds": self.ema_seconds,
            "observations": self.observations,
            "failures": self.failures,
        }

    @classmethod
    def from_json(cls, data: dict) -> "VariantStats":
        return cls(
            best_seconds=data.get("best_seconds"),
            ema_seconds=data.get("ema_seconds"),
            observations=int(data.get("observations", 0)),
            failures=int(data.get("failures", 0)),
        )


@dataclasses.dataclass
class ConfigState:
    """Everything the tuner knows about one configuration."""

    key: TunerKey
    model_gain: float
    #: the model's prediction: "isp" when G > 1, else "naive"
    model_choice: str
    stats: dict[str, VariantStats]
    committed: Optional[str] = None
    switches: int = 0
    since_probe: int = 0

    def eligible(self, candidates: Sequence[str], max_failures: int) -> list[str]:
        elig = [c for c in candidates if self.stats[c].failures < max_failures]
        # Never exclude everything: a config whose every variant failed still
        # has to serve — fall back to naive, the always-expressible shape.
        return elig or ["naive"]

    def best_measured(self, among: Sequence[str]) -> Optional[str]:
        timed = [c for c in among if self.stats[c].best_seconds is not None]
        if not timed:
            return None
        return min(timed, key=lambda c: self.stats[c].best_seconds)

    @property
    def agrees_with_model(self) -> Optional[bool]:
        """Does the committed choice land on the model's side of Eq. 10?

        The model only predicts naive-vs-not: every other committed
        candidate counts as the "partition" side. ``None`` until committed.
        """
        if self.committed is None:
            return None
        return (self.committed == "naive") == (self.model_choice == "naive")


class AutoTuner:
    """Model-seeded, measurement-refined variant selector (thread-safe).

    The serve engine calls :meth:`decide` when planning an ``"auto"``
    request, :meth:`observe` after each measured vectorized execution, and
    :meth:`penalize` on degradation paths. All three are O(candidates) under
    one lock; the model prior is computed outside the lock (a racing
    duplicate evaluation is harmless — the model's artifact cache absorbs
    the cost).
    """

    def __init__(
        self,
        *,
        candidates: Sequence[str] = TUNE_CANDIDATES,
        trials_per_variant: int = 2,
        ema_alpha: float = 0.3,
        hysteresis: float = 0.10,
        probe_every: int = 64,
        max_failures: int = 2,
        metrics: Optional[MetricsRegistry] = None,
        path: Optional[Union[str, Path]] = None,
    ):
        if trials_per_variant < 1:
            raise ValueError("trials_per_variant must be >= 1")
        if not 0.0 < ema_alpha <= 1.0:
            raise ValueError("ema_alpha must be in (0, 1]")
        if hysteresis < 0.0:
            raise ValueError("hysteresis must be >= 0")
        unknown = set(candidates) - set(TUNE_CANDIDATES)
        if unknown:
            raise ValueError(f"unknown candidates {sorted(unknown)}")
        self.candidates = tuple(candidates)
        self.trials_per_variant = trials_per_variant
        self.ema_alpha = ema_alpha
        self.hysteresis = hysteresis
        self.probe_every = probe_every
        self.max_failures = max_failures
        self.path = Path(path) if path is not None else None

        m = metrics if metrics is not None else MetricsRegistry()
        self.metrics = m
        self._c_trials = m.counter(
            "tuner.trials", "trial-phase decisions routed to a candidate")
        self._c_commits = m.counter(
            "tuner.commits", "configurations committed to an empirical winner")
        self._c_agreements = m.counter(
            "tuner.model_agreements",
            "commits that landed on the model's side of Eq. 10")
        self._c_switches = m.counter(
            "tuner.switches", "post-commit regime changes past hysteresis")
        self._c_probes = m.counter(
            "tuner.probes", "post-commit refresh measurements of the runner-up")
        self._c_penalties = m.counter(
            "tuner.penalties", "degradation-path penalties recorded")
        self._c_load_errors = m.counter(
            "tuner.load_errors",
            "corrupt/unreadable persistence files ignored on warm restart")
        self._g_configs = m.gauge(
            "tuner.configs", "configurations in the learned table")
        self._g_agreement = m.gauge(
            "tuner.agreement_rate", "model agreement over committed configs")

        self._lock = threading.Lock()
        self._states: dict[TunerKey, ConfigState] = {}

        if self.path is not None and self.path.exists():
            # A corrupt or stale cache file must never take the tuner (and
            # with it the engine) down on a warm restart: losing learned
            # state is a cold start, not an outage. Explicit load() calls
            # stay strict so operators see real corruption.
            try:
                self.load(self.path)
            except (ValueError, OSError):
                self._c_load_errors.inc()
                with self._lock:
                    self._states.clear()
                    self._update_agreement_gauge()

    # -------------------------------------------------------------- decisions

    def decide(
        self, key: TunerKey, prior: Callable[[], float]
    ) -> tuple[str, str]:
        """Pick the variant to build/execute for one request of ``key``.

        ``prior`` returns the model's pipeline gain G (:func:`pipeline_gain`);
        it is only invoked the first time a configuration is seen.
        Returns ``(variant, phase)`` with phase one of ``"trial"``,
        ``"probe"``, ``"serve"``.
        """
        state = self._state_for(key, prior)
        with self._lock:
            eligible = state.eligible(self.candidates, self.max_failures)
            if state.committed is None:
                variant = self._pick_trial(state, eligible)
                if variant is not None:
                    state.stats[variant].pending += 1
                    self._c_trials.inc()
                    return variant, "trial"
                # All trials are in flight but not yet measured: serve the
                # best timing so far, else the model's pick.
                provisional = state.best_measured(eligible)
                if provisional is None:
                    provisional = (state.model_choice
                                   if state.model_choice in eligible
                                   else eligible[0])
                return provisional, "serve"

            state.since_probe += 1
            if (self.probe_every and len(eligible) > 1
                    and state.since_probe >= self.probe_every):
                state.since_probe = 0
                others = [c for c in eligible if c != state.committed]
                runner = state.best_measured(others) or others[0]
                state.stats[runner].pending += 1
                self._c_probes.inc()
                return runner, "probe"
            return state.committed, "serve"

    def _pick_trial(
        self, state: ConfigState, eligible: list[str]
    ) -> Optional[str]:
        """Least-measured eligible candidate still owing trials, model-first."""

        def order(c: str) -> tuple:
            st = state.stats[c]
            # Fewest (measured + in-flight) first; the model's pick breaks
            # ties, so the first request of a new config runs the prior.
            return (st.observations + st.pending, c != state.model_choice,
                    self.candidates.index(c))

        candidate = min(eligible, key=order)
        st = state.stats[candidate]
        if st.observations + st.pending >= self.trials_per_variant:
            return None
        return candidate

    def _state_for(
        self, key: TunerKey, prior: Callable[[], float]
    ) -> ConfigState:
        with self._lock:
            state = self._states.get(key)
        if state is not None:
            return state
        gain = float(prior())
        fresh = ConfigState(
            key=key,
            model_gain=gain,
            model_choice="isp" if gain > 1.0 else "naive",
            stats={c: VariantStats() for c in self.candidates},
        )
        with self._lock:
            state = self._states.setdefault(key, fresh)
            self._g_configs.set(len(self._states))
        return state

    # ----------------------------------------------------------- observations

    def observe(self, key: TunerKey, variant: str, seconds: float) -> None:
        """Fold one measured vectorized execution into the table."""
        with self._lock:
            state = self._states.get(key)
            if state is None or variant not in state.stats:
                return
            st = state.stats[variant]
            st.pending = max(0, st.pending - 1)
            st.observe(seconds, self.ema_alpha)

            eligible = state.eligible(self.candidates, self.max_failures)
            if state.committed is None:
                if all(state.stats[c].observations >= self.trials_per_variant
                       for c in eligible):
                    self._commit(state, eligible)
            elif variant != state.committed:
                incumbent = state.stats[state.committed].best_seconds
                challenger = st.best_seconds
                if (incumbent is not None and challenger is not None
                        and challenger < incumbent * (1.0 - self.hysteresis)):
                    state.committed = variant
                    state.switches += 1
                    self._c_switches.inc()
                    self._update_agreement_gauge()

    def penalize(
        self, key: TunerKey, variant: str, *, factor: float = 4.0
    ) -> None:
        """Record a degradation (execution failure / breaker trip).

        The variant's score is inflated so the winner selection shies away
        from it, and after ``max_failures`` it is excluded from trials. A
        committed variant that keeps failing is demoted back to the trial
        phase (with itself excluded), so the config re-converges on a
        buildable shape.
        """
        with self._lock:
            state = self._states.get(key)
            if state is None or variant not in state.stats:
                return
            st = state.stats[variant]
            st.pending = max(0, st.pending - 1)
            st.failures += 1
            if st.best_seconds is not None:
                st.best_seconds *= factor
            if st.ema_seconds is not None:
                st.ema_seconds *= factor
            self._c_penalties.inc()
            if (state.committed == variant
                    and st.failures >= self.max_failures):
                state.committed = None
                self._update_agreement_gauge()

    def _commit(self, state: ConfigState, eligible: list[str]) -> None:
        winner = state.best_measured(eligible)
        if winner is None:
            return
        state.committed = winner
        state.since_probe = 0
        self._c_commits.inc()
        if state.agrees_with_model:
            self._c_agreements.inc()
        self._update_agreement_gauge()

    def _update_agreement_gauge(self) -> None:
        committed = [s for s in self._states.values() if s.committed is not None]
        if committed:
            rate = sum(1 for s in committed if s.agrees_with_model) / len(committed)
            self._g_agreement.set(rate)
        self._g_configs.set(len(self._states))

    # -------------------------------------------------------------- reporting

    def explain(self, key: TunerKey) -> dict:
        """Why the tuner is deciding the way it is for ``key`` — flat,
        span-attribute-friendly facts (used by the trace layer to annotate
        ``autotune`` spans)."""
        with self._lock:
            state = self._states.get(key)
            if state is None:
                return {}
            return {
                "model_gain": state.model_gain,
                "model_choice": state.model_choice,
                "committed": state.committed,
                "switches": state.switches,
                "observations": {
                    c: st.observations for c, st in state.stats.items()
                },
            }

    def agreement_rate(self) -> Optional[float]:
        """Fraction of committed configs agreeing with the model (live
        Table III); ``None`` before any commit."""
        with self._lock:
            committed = [s for s in self._states.values()
                         if s.committed is not None]
            if not committed:
                return None
            return (sum(1 for s in committed if s.agrees_with_model)
                    / len(committed))

    def table(self) -> list[dict]:
        """One row per configuration, for the ``tune`` CLI and tests."""
        with self._lock:
            rows = []
            for key in sorted(self._states, key=lambda k: k.short()):
                state = self._states[key]
                rows.append({
                    "key": key,
                    "model_gain": state.model_gain,
                    "model_choice": state.model_choice,
                    "committed": state.committed,
                    "agrees": state.agrees_with_model,
                    "switches": state.switches,
                    "stats": {
                        c: dataclasses.replace(st)
                        for c, st in state.stats.items()
                    },
                })
            return rows

    def stats(self) -> dict:
        with self._lock:
            committed = sum(
                1 for s in self._states.values() if s.committed is not None
            )
            return {
                "configs": len(self._states),
                "committed": committed,
            }

    # ------------------------------------------------------------ persistence

    def save(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Write the learned table as JSON (see docs/autotuner.md)."""
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("no path given and the tuner has no default path")
        with self._lock:
            payload = {
                "version": 1,
                "candidates": list(self.candidates),
                "configs": [
                    {
                        **dataclasses.asdict(state.key),
                        "model_gain": state.model_gain,
                        "model_choice": state.model_choice,
                        "committed": state.committed,
                        "switches": state.switches,
                        "stats": {
                            c: st.to_json() for c, st in state.stats.items()
                        },
                    }
                    for state in self._states.values()
                ],
            }
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_suffix(target.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        tmp.replace(target)
        return target

    def load(self, path: Optional[Union[str, Path]] = None) -> int:
        """Merge a previously saved table; returns configs restored.

        Entries with a committed variant serve immediately on warm restart —
        no re-trialing. Unknown candidates in the file are dropped; missing
        ones start fresh. A committed or predicted ``isp_warp``, from files
        written while it was a candidate, loads as ``isp``, the schedule the
        host runs it with.
        """
        source = Path(path) if path is not None else self.path
        if source is None:
            raise ValueError("no path given and the tuner has no default path")
        text = source.read_text()
        if _faults._current is not None:
            # Fault point: the persisted table was corrupted on disk.
            if _faults.fire("serve.autotune.load", key=str(source)) is not None:
                text = text[: len(text) // 2] + "\x00<injected-corruption>"
        payload = json.loads(text)
        if payload.get("version") != 1:
            raise ValueError(
                f"unsupported autotune cache version {payload.get('version')!r}"
            )
        restored = 0
        with self._lock:
            for entry in payload.get("configs", []):
                key = TunerKey(
                    digest=entry["digest"],
                    width=int(entry["width"]),
                    height=int(entry["height"]),
                    pattern=entry["pattern"],
                    device=entry["device"],
                )
                stats = {c: VariantStats() for c in self.candidates}
                for c, data in entry.get("stats", {}).items():
                    if c in stats:
                        stats[c] = VariantStats.from_json(data)
                committed = entry.get("committed")
                committed = _RENAMED.get(committed, committed)
                if committed not in self.candidates:
                    committed = None
                choice = entry["model_choice"]
                self._states[key] = ConfigState(
                    key=key,
                    model_gain=float(entry["model_gain"]),
                    model_choice=_RENAMED.get(choice, choice),
                    stats=stats,
                    committed=committed,
                    switches=int(entry.get("switches", 0)),
                )
                restored += 1
            self._update_agreement_gauge()
        return restored
