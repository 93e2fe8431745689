"""The adaptive variant selector: model prior, trials, commit, hysteresis.

These tests drive :class:`repro.serve.AutoTuner` directly with synthetic
timings (no engine, no clock), so every decision path is deterministic; a
final set exercises the real engine integration end-to-end on small images.
"""

import json

import numpy as np
import pytest

from repro.gpu import DEVICES
from repro.serve.plan import trace_app
from repro.serve import (
    TUNE_CANDIDATES,
    AutoTuner,
    Request,
    ServeEngine,
    TunerKey,
    pipeline_gain,
    tuner_key,
)

KEY = TunerKey(digest="abc123", width=64, height=64, pattern="clamp",
               device="GTX680")
KEY2 = TunerKey(digest="def456", width=128, height=128, pattern="repeat",
                device="GTX680")


def make_tuner(**kw):
    kw.setdefault("trials_per_variant", 1)
    return AutoTuner(**kw)


def drain_trials(tuner, key, timings, prior=2.0):
    """Run the full trial phase, feeding ``timings[variant]`` per trial.

    Tests about naive vs isp need not mention prepad or fused: unless a
    timing is given, they trial at never-winning times.
    """
    timings = {"prepad": 9.0, "fused": 9.5, **timings}
    while True:
        variant, phase = tuner.decide(key, lambda: prior)
        if phase != "trial":
            return variant, phase
        tuner.observe(key, variant, timings[variant])


class TestDecisionLifecycle:
    def test_trials_cover_every_candidate_then_commit(self):
        tuner = make_tuner()
        seen = []
        for _ in range(len(TUNE_CANDIDATES)):
            variant, phase = tuner.decide(KEY, lambda: 2.0)
            assert phase == "trial"
            seen.append(variant)
            tuner.observe(KEY, variant, {"naive": 3.0, "isp": 1.0,
                                         "prepad": 4.0,
                                         "fused": 5.0}[variant])
        assert sorted(seen) == sorted(TUNE_CANDIDATES)
        variant, phase = tuner.decide(KEY, lambda: 2.0)
        assert (variant, phase) == ("isp", "serve")

    def test_model_prior_orders_the_first_trial(self):
        # G > 1: the partitioned family goes first; G <= 1: naive does.
        tuner = make_tuner()
        assert tuner.decide(KEY, lambda: 1.5)[0] == "isp"
        assert tuner.decide(KEY2, lambda: 0.7)[0] == "naive"

    def test_prior_called_once_per_config(self):
        tuner = make_tuner()
        calls = []

        def prior():
            calls.append(1)
            return 2.0

        for _ in range(4):
            variant, _ = tuner.decide(KEY, prior)
            tuner.observe(KEY, variant, 1.0)
        assert len(calls) == 1

    def test_inflight_trials_serve_provisionally(self):
        # All trials handed out but none measured yet: decide() must still
        # answer (with the model's pick), not block or re-trial.
        tuner = make_tuner()
        for _ in range(len(TUNE_CANDIDATES)):
            _, phase = tuner.decide(KEY, lambda: 2.0)
            assert phase == "trial"
        variant, phase = tuner.decide(KEY, lambda: 2.0)
        assert phase == "serve"
        assert variant == "isp"

    def test_unknown_candidate_rejected(self):
        with pytest.raises(ValueError, match="unknown candidates"):
            AutoTuner(candidates=("naive", "simd"))
        with pytest.raises(ValueError, match="trials_per_variant"):
            AutoTuner(trials_per_variant=0)
        with pytest.raises(ValueError, match="ema_alpha"):
            AutoTuner(ema_alpha=0.0)


class TestMinScoring:
    def test_winner_judged_by_best_observation_not_first(self):
        """Regression for the cold-start contention bug: a variant whose
        *first* sample was inflated (co-tenant compile, GC pause) must still
        win on its best sample. EMA-based scoring failed this — the first
        sample dominates an EMA — and committed the wrong variant."""
        tuner = AutoTuner(trials_per_variant=2)
        timings = {
            "naive": iter([0.050, 0.001]),   # contaminated, then clean
            "isp": iter([0.004, 0.004]),
            "prepad": iter([0.006, 0.006]),
            "fused": iter([0.007, 0.007]),
        }
        while True:
            variant, phase = tuner.decide(KEY, lambda: 0.5)
            if phase != "trial":
                break
            tuner.observe(KEY, variant, next(timings[variant]))
        assert variant == "naive"
        stats = tuner.table()[0]["stats"]["naive"]
        assert stats.best_seconds == pytest.approx(0.001)
        assert stats.observations == 2

    def test_ema_still_tracked_for_reporting(self):
        tuner = make_tuner()
        drain_trials(tuner, KEY, {"naive": 1.0, "isp": 2.0})
        st = tuner.table()[0]["stats"]["naive"]
        assert st.ema_seconds == pytest.approx(1.0)
        assert st.best_seconds == pytest.approx(1.0)


class TestHysteresisAndProbes:
    def test_small_improvement_does_not_flap(self):
        tuner = make_tuner(hysteresis=0.10)
        drain_trials(tuner, KEY, {"naive": 1.00, "isp": 1.50})
        # isp improves to within 10% of naive: no switch.
        tuner.observe(KEY, "isp", 0.95)
        assert tuner.table()[0]["committed"] == "naive"
        # isp clearly beats the margin: switch.
        tuner.observe(KEY, "isp", 0.80)
        row = tuner.table()[0]
        assert row["committed"] == "isp"
        assert row["switches"] == 1
        assert tuner.metrics.snapshot()["counters"]["tuner.switches"] == 1

    def test_probe_schedules_the_runner_up(self):
        tuner = make_tuner(probe_every=3)
        drain_trials(tuner, KEY, {"naive": 1.0, "isp": 2.0})
        phases = []
        for _ in range(6):
            variant, phase = tuner.decide(KEY, lambda: 2.0)
            phases.append((variant, phase))
            if phase == "probe":
                tuner.observe(KEY, variant, 2.0)
        probes = [v for v, p in phases if p == "probe"]
        assert probes == ["isp", "isp"]  # runner-up by best time, twice
        assert tuner.metrics.snapshot()["counters"]["tuner.probes"] == 2


class TestPenalties:
    def test_failing_variant_is_excluded_from_trials(self):
        tuner = make_tuner(max_failures=2)
        for _ in range(2):
            tuner.decide(KEY, lambda: 2.0)
            tuner.penalize(KEY, "isp")
        # With isp excluded, trials only cover the other two.
        seen = set()
        while True:
            variant, phase = tuner.decide(KEY, lambda: 2.0)
            if phase != "trial":
                break
            seen.add(variant)
            tuner.observe(KEY, variant, 1.0)
        assert "isp" not in seen
        assert tuner.metrics.snapshot()["counters"]["tuner.penalties"] == 2

    def test_penalty_inflates_scores(self):
        tuner = make_tuner()
        drain_trials(tuner, KEY, {"naive": 1.0, "isp": 2.0})
        tuner.penalize(KEY, "naive", factor=4.0)
        st = tuner.table()[0]["stats"]["naive"]
        assert st.best_seconds == pytest.approx(4.0)
        assert st.ema_seconds == pytest.approx(4.0)

    def test_committed_variant_demoted_after_repeated_failures(self):
        tuner = make_tuner(max_failures=2)
        drain_trials(tuner, KEY, {"naive": 2.0, "isp": 1.0})
        assert tuner.table()[0]["committed"] == "isp"
        tuner.penalize(KEY, "isp")
        tuner.penalize(KEY, "isp")
        assert tuner.table()[0]["committed"] is None  # back to trials


class TestAgreement:
    def test_agreement_rate_is_a_live_table_iii(self):
        tuner = make_tuner()
        # Model says partition (G=2), measurement agrees (isp wins).
        drain_trials(tuner, KEY, {"naive": 3.0, "isp": 1.0},
                     prior=2.0)
        # Model says naive (G=0.8), measurement disagrees (isp wins).
        drain_trials(tuner, KEY2, {"naive": 3.0, "isp": 1.0}, prior=0.8)
        assert tuner.agreement_rate() == pytest.approx(0.5)
        counters = tuner.metrics.snapshot()["counters"]
        assert counters["tuner.commits"] == 2
        assert counters["tuner.model_agreements"] == 1
        rows = tuner.table()
        assert [r["agrees"] for r in rows] == [True, False]


class TestPersistence:
    def test_save_load_roundtrip_skips_trials(self, tmp_path):
        path = tmp_path / "tune.json"
        tuner = make_tuner(path=path)
        drain_trials(tuner, KEY, {"naive": 3.0, "isp": 1.0})
        tuner.save()

        warm = AutoTuner(trials_per_variant=1, path=path)
        variant, phase = warm.decide(KEY, lambda: (_ for _ in ()).throw(
            AssertionError("prior must not be re-evaluated on warm restart")))
        assert (variant, phase) == ("isp", "serve")
        assert warm.metrics.snapshot()["counters"]["tuner.trials"] == 0

    def test_save_is_versioned_and_sorted(self, tmp_path):
        path = tmp_path / "tune.json"
        tuner = make_tuner(path=path)
        drain_trials(tuner, KEY, {"naive": 1.0, "isp": 2.0})
        tuner.save()
        payload = json.loads(path.read_text())
        assert payload["version"] == 1
        assert payload["configs"][0]["committed"] == "naive"
        assert payload["configs"][0]["stats"]["naive"]["best_seconds"] == 1.0

    def test_unsupported_version_rejected_by_explicit_load(self, tmp_path):
        path = tmp_path / "tune.json"
        path.write_text(json.dumps({"version": 99, "configs": []}))
        tuner = AutoTuner()
        with pytest.raises(ValueError, match="version"):
            tuner.load(path)

    def test_warm_restart_survives_corrupt_file(self, tmp_path):
        """A corrupt/unsupported cache file must not take the constructor
        (and with it the engine) down — it is a cold start, not an outage."""
        path = tmp_path / "tune.json"
        path.write_text(json.dumps({"version": 99, "configs": []}))
        tuner = AutoTuner(path=path)
        assert tuner.stats()["configs"] == 0
        assert tuner.metrics.snapshot()["counters"]["tuner.load_errors"] == 1

        path.write_text("{ not json at all")
        tuner = AutoTuner(path=path)
        assert tuner.stats()["configs"] == 0
        assert tuner.metrics.snapshot()["counters"]["tuner.load_errors"] == 1

    def test_unknown_file_candidates_dropped(self, tmp_path):
        path = tmp_path / "tune.json"
        tuner = make_tuner(path=path)
        drain_trials(tuner, KEY, {"naive": 1.0, "isp": 2.0})
        tuner.save()
        payload = json.loads(path.read_text())
        payload["configs"][0]["committed"] = "gone_variant"
        payload["configs"][0]["stats"]["gone_variant"] = {"best_seconds": 0.1}
        path.write_text(json.dumps(payload))
        warm = AutoTuner(path=path)
        assert warm.table()[0]["committed"] is None
        assert "gone_variant" not in warm.table()[0]["stats"]


class TestModelSeeding:
    def test_pipeline_gain_matches_harness_semantics(self):
        descs = trace_app("gaussian", "repeat", 256, 256)
        g = pipeline_gain(descs, device=DEVICES["GTX680"])
        assert g > 0
        # Point-operator-only pipelines have nothing to partition.
        descs_night = [d for d in trace_app("night", "clamp", 64, 64)
                       if not d.needs_border_handling]
        assert pipeline_gain(descs_night, device=DEVICES["GTX680"]) == 1.0

    def test_tuner_key_is_content_addressed(self):
        descs = trace_app("gaussian", "clamp", 64, 64)
        k1 = tuner_key(descs, "clamp", DEVICES["GTX680"])
        k2 = tuner_key(trace_app("gaussian", "clamp", 64, 64), "clamp",
                       DEVICES["GTX680"])
        assert k1 == k2
        k3 = tuner_key(descs, "clamp", DEVICES["RTX2080"])
        assert k3 != k1


class TestPrepadArm:
    def test_prepad_commit_when_it_wins_trials(self):
        tuner = make_tuner()
        variant, phase = drain_trials(
            tuner, KEY, {"naive": 3.0, "isp": 2.0, "prepad": 1.0}, prior=1.2)
        assert (variant, phase) == ("prepad", "serve")
        row = tuner.table()[0]
        assert row["committed"] == "prepad"
        # model said isp (non-naive side), measurement committed prepad:
        # that is agreement under the Eq. 10 binary split.
        assert row["agrees"] is True


class TestParentFormatFiles:
    def test_isp_warp_commit_loads_as_isp(self, tmp_path):
        """A table written while ``isp_warp`` was a candidate and the prior
        carried prepad and fused gains: the committed ``isp_warp`` serves as
        ``isp`` with no new trials, the prior fields are ignored and the
        ``isp_warp`` stats dropped like any unknown arm's."""
        path = tmp_path / "tune.json"
        stats = {c: {"best_seconds": t, "ema_seconds": t, "observations": 1,
                     "failures": 0}
                 for c, t in [("naive", 0.003), ("isp", 0.002),
                              ("isp_warp", 0.001), ("prepad", 0.004),
                              ("fused", 0.005)]}
        path.write_text(json.dumps({
            "version": 1,
            "candidates": ["naive", "isp", "isp_warp", "prepad", "fused"],
            "configs": [{
                "digest": "abc123", "width": 64, "height": 64,
                "pattern": "clamp", "device": "GTX680",
                "model_gain": 2.0, "model_prepad_gain": 1.0,
                "model_fused_gain": 0.9, "model_choice": "isp_warp",
                "committed": "isp_warp", "switches": 0, "stats": stats,
            }],
        }))
        warm = AutoTuner(path=path)
        variant, phase = warm.decide(KEY, lambda: (_ for _ in ()).throw(
            AssertionError("prior must not be re-evaluated on warm restart")))
        assert (variant, phase) == ("isp", "serve")
        assert warm.metrics.snapshot()["counters"]["tuner.trials"] == 0
        row = warm.table()[0]
        assert row["model_choice"] == "isp"
        assert set(row["stats"]) == set(TUNE_CANDIDATES)
        assert row["stats"]["isp"].best_seconds == 0.002
        assert set(warm.explain(KEY)) == {
            "model_gain", "model_choice", "committed", "switches",
            "observations"}


class TestEngineIntegration:
    @pytest.fixture
    def image(self, rng):
        return rng.random((48, 48), dtype=np.float32)

    def test_auto_requests_trial_then_commit(self, image):
        with ServeEngine(workers=1, batch_size=1, autotune=True) as engine:
            n = (len(engine.tuner.candidates)
                 * engine.tuner.trials_per_variant + 2)
            reqs = [Request(app="gaussian", image=image, pattern="clamp",
                            variant="auto") for _ in range(n)]
            responses = engine.run(reqs)
            assert all(r.ok for r in responses)
            # Every response reports the concrete variant that served it.
            assert all(r.variant in TUNE_CANDIDATES for r in responses)
            rows = engine.tuner.table()
        assert len(rows) == 1
        assert rows[0]["committed"] in TUNE_CANDIDATES
        stats = engine.stats()
        assert stats["tuner"]["configs"] == 1
        assert stats["tuner"]["committed"] == 1

    def test_auto_output_matches_direct_execution(self, image, rng):
        from repro.dsl import Boundary
        from repro.filters import PIPELINES
        from repro.runtime import run_pipeline_vectorized

        pipe = PIPELINES["laplace"](48, 48, Boundary.REPEAT)
        ref = run_pipeline_vectorized(
            pipe, {pipe.inputs[0].name: image})[pipe.output.name]
        with ServeEngine(workers=1, batch_size=1, autotune=True) as engine:
            for _ in range(6):
                resp = engine.run([Request(app="laplace", image=image,
                                           pattern="repeat",
                                           variant="auto")])[0]
                assert resp.ok, resp.error
                np.testing.assert_allclose(resp.output, ref, rtol=1e-5,
                                           atol=1e-5)

    def test_prior_is_the_isp_m_prediction(self, image):
        """The tuner's prior is Eq. 10's pipeline gain, and its pick is the
        stage choice an ``isp+m`` plan makes for the same kernel."""
        from repro.serve import build_plan

        descs = trace_app("gaussian", "clamp", 48, 48)
        with ServeEngine(workers=1, batch_size=1, autotune=True) as engine:
            engine.run([Request(app="gaussian", image=image, pattern="clamp",
                                variant="auto")])
            facts = engine.tuner.explain(
                tuner_key(descs, "clamp", engine.device))
            plan = build_plan("gaussian", "clamp", 48, 48, variant="isp+m",
                              device=engine.device, block=engine.block)
        assert facts["model_gain"] == pipeline_gain(
            descs, block=engine.block, device=engine.device)
        assert [facts["model_choice"]] == [v for _, v in plan.stages()]

    def test_auto_without_tuner_degrades_to_model_policy(self, image):
        with ServeEngine(workers=1) as engine:
            resp = engine.run([Request(app="gaussian", image=image,
                                       pattern="clamp", variant="auto")])[0]
        assert resp.ok
        assert "auto:no-tuner->isp+m" in resp.fallbacks

    def test_engine_persists_learned_table_on_close(self, image, tmp_path):
        path = tmp_path / "learned.json"
        engine = ServeEngine(workers=1, batch_size=1, autotune=True,
                             autotune_path=str(path))
        with engine:
            engine.run([Request(app="gaussian", image=image, pattern="clamp",
                                variant="auto") for _ in range(8)])
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["version"] == 1
        assert len(payload["configs"]) == 1
