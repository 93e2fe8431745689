"""Property test: the autotuner never flaps.

The hysteresis contract (docs/autotuner.md): once a configuration commits,
the committed variant changes only when a challenger's *best* observed time
beats the incumbent's by more than the hysteresis margin. So for any
workload where one variant is genuinely fastest — its rivals' noise-free
times sit at or above the winner's worst noisy sample — the committed
variant must change **at most once** (the initial commit) and the switch
counter must stay at zero, no matter how the noise lands, how often probes
fire, or how many requests arrive.

Measurement noise is modelled the way the tuner's own scoring assumes
(module docstring of repro.serve.autotune): co-tenant interference only
ever *inflates* a wall-clock sample, so multipliers are drawn from
``[1.0, noise_max]``.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import TUNE_CANDIDATES, AutoTuner, TunerKey

KEY = TunerKey(digest="f" * 64, width=64, height=64,
               pattern="clamp", device="hypothetical")

VARIANTS = TUNE_CANDIDATES


def run_workload(tuner, key, base_times, noise_max, n_requests, rng):
    """Drive decide/observe like the engine does, with inflate-only noise."""
    served = []
    for _ in range(n_requests):
        variant, phase = tuner.decide(key, prior=lambda: 1.5)
        seconds = base_times[variant] * rng.uniform(1.0, noise_max)
        tuner.observe(key, variant, seconds)
        served.append((variant, phase))
    return served


@settings(max_examples=60, deadline=None)
@given(
    winner=st.sampled_from(VARIANTS),
    winner_base=st.floats(min_value=1e-4, max_value=5e-2),
    noise_max=st.floats(min_value=1.0, max_value=1.6),
    # rivals sit strictly above winner_base * noise_max: the winner is
    # stable even against its own worst noisy sample (an exact tie is a
    # legitimate coin-flip commit, not a stable winner)
    lifts=st.tuples(*[st.floats(min_value=1.01, max_value=4.0)]
                    * (len(VARIANTS) - 1)),
    trials=st.integers(min_value=1, max_value=3),
    probe_every=st.integers(min_value=3, max_value=12),
    hysteresis=st.floats(min_value=0.0, max_value=0.3),
    n_extra=st.integers(min_value=10, max_value=80),
    noise_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stable_winner_commits_once_and_never_flaps(
        winner, winner_base, noise_max, lifts, trials, probe_every,
        hysteresis, n_extra, noise_seed):
    rivals = [v for v in VARIANTS if v != winner]
    base_times = {winner: winner_base}
    for rival, lift in zip(rivals, lifts):
        base_times[rival] = winner_base * noise_max * lift

    tuner = AutoTuner(trials_per_variant=trials, hysteresis=hysteresis,
                      probe_every=probe_every)
    rng = random.Random(noise_seed)
    n_requests = trials * len(VARIANTS) + probe_every + n_extra
    served = run_workload(tuner, KEY, base_times, noise_max, n_requests, rng)

    snap = tuner.metrics.snapshot()["counters"]
    assert snap["tuner.commits"] == 1, "committed more than once"
    assert snap["tuner.switches"] == 0, (
        f"tuner flapped under a stable winner: {served}"
    )
    (row,) = tuner.table()
    assert row["committed"] == winner
    assert row["switches"] == 0
    # probes did run — the no-flap property was actually exercised, not
    # trivially satisfied by never re-measuring the runner-up
    if n_extra > probe_every:
        assert snap["tuner.probes"] >= 1
    # post-commit serving sticks to the winner outside probe decisions
    post_commit = served[trials * len(VARIANTS):]
    assert all(v == winner for v, phase in post_commit if phase == "serve")


@settings(max_examples=40, deadline=None)
@given(
    hysteresis=st.floats(min_value=0.05, max_value=0.3),
    probe_every=st.integers(min_value=2, max_value=8),
    noise_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_genuine_regime_change_switches_exactly_once(
        hysteresis, probe_every, noise_seed):
    """The dual property: when the truth changes by more than the margin,
    the tuner follows it — with exactly one switch, not a flap train."""
    tuner = AutoTuner(trials_per_variant=1, hysteresis=hysteresis,
                      probe_every=probe_every)
    rng = random.Random(noise_seed)

    # phase 1: isp clearly fastest -> commit isp
    phase1 = {"naive": 10e-3, "isp": 2e-3, "prepad": 14e-3, "fused": 16e-3}
    run_workload(tuner, KEY, phase1, 1.2, 4 + probe_every, rng)
    (row,) = tuner.table()
    assert row["committed"] == "isp"

    # phase 2: the regime shifts — isp degrades far past the margin while
    # naive probes come back well under it
    phase2 = {"naive": 0.2e-3, "isp": 2e-3, "prepad": 14e-3, "fused": 16e-3}
    run_workload(tuner, KEY, phase2, 1.2, 6 * probe_every, rng)

    snap = tuner.metrics.snapshot()["counters"]
    (row,) = tuner.table()
    assert row["committed"] == "naive"
    assert snap["tuner.switches"] == 1, "regime change should switch once"


def test_switch_requires_beating_the_margin_strictly():
    """Deterministic pin of the boundary: a challenger exactly at
    ``incumbent * (1 - hysteresis)`` must NOT switch; epsilon under it must."""
    for challenger_scale, expect_switch in ((1.0, False), (0.999, True)):
        tuner = AutoTuner(trials_per_variant=1, hysteresis=0.10,
                          probe_every=1)
        # commit naive at 10ms; rivals slower
        for _ in range(len(VARIANTS)):
            decided, phase = tuner.decide(KEY, prior=lambda: 0.5)
            tuner.observe(KEY, decided, {"naive": 10e-3, "isp": 20e-3,
                                         "prepad": 40e-3,
                                         "fused": 50e-3}[decided])
        (row,) = tuner.table()
        assert row["committed"] == "naive"
        # drive probes until isp gets re-measured at the boundary value
        target = 10e-3 * (1.0 - 0.10) * challenger_scale
        for _ in range(8):
            decided, phase = tuner.decide(KEY, prior=lambda: 0.5)
            if phase == "probe" and decided == "isp":
                tuner.observe(KEY, decided, target)
            else:
                tuner.observe(KEY, decided, {"naive": 10e-3,
                                             "prepad": 40e-3,
                                             "fused": 50e-3}.get(decided,
                                                                 target))
        (row,) = tuner.table()
        switched = row["committed"] != "naive"
        assert switched == expect_switch, (
            f"challenger at scale {challenger_scale}: "
            f"expected switch={expect_switch}, committed={row['committed']}"
        )
