"""Cross-device regression matrix: device x variant x pattern, pinned.

The device zoo (docs/devices.md) only earns its keep if the *decisions* it
drives are frozen per device. This module pins, for every zoo entry:

* **who wins where** — the fastest of {naive, isp, isp_warp} for gaussian
  512x512 per border pattern, from the timing model. The grid shape is the
  paper's Table III story generalized across architectures: Clamp sits near
  the switching point (naive-side on most parts, partition-side on MI100's
  cheap-memory CDNA tables), the expensive patterns are partition-side
  everywhere;
* **architectural event counters** — whole-grid coalesced/scattered
  transaction and replay totals from representative-block profiling. The
  wave64 parts pin to *zero* coalesced accesses: a 64-lane f32 access spans
  two 128-byte segments by construction, so every access is ≥ 2
  transactions — the counter semantics, not a bug (docs/devices.md);
* **codegen** — the warp-grained dispatch provably follows
  ``device.warp_size``: the printed-IR diff between a warp32 and a wave64
  compile of the same kernel is exactly the strip-shift amount
  (``tid.x >> 5`` vs ``>> 6``) and the derived W_R warp bound, pinned as a
  golden diff under ``tests/goldens/``;
* **caching and priors** — block profiles are shared across devices with
  the same warp width and never across widths; the autotuner's model prior
  is computed per device and flips sides where the per-device gain does.

Pins regenerate like the IR goldens: run the printed command in the
assertion message, review the diff, commit in the same change.
"""

from __future__ import annotations

import difflib
import pathlib

import numpy as np
import pytest

from repro.compiler import Variant, compile_kernel, trace_kernel
from repro.dsl import Boundary
from repro.filters import PIPELINES
from repro.gpu import DEVICES, GTX680, VEGA64
from repro.gpu.profiler import EVENT_NAMES
from repro.ir.printer import print_function
from repro.runtime import measure_pipeline, run_pipeline_simt
from repro.runtime.executor import profile_kernel
from repro.trace.profile import profile_regions

SIZE = 512
#: two warps per block row on wave32 *and* wave64 parts — warp-grained
#: dispatch is effective for the whole zoo at this shape
BLOCK = (128, 2)
PATTERNS = ("clamp", "mirror", "repeat", "constant")
GOLDEN_DIR = pathlib.Path(__file__).parent / "goldens"


def _gaussian_desc(pattern: str, size: int = SIZE):
    pipe = PIPELINES["gaussian"](size, size, Boundary(pattern))
    return trace_kernel(pipe.kernels[0])


# ---------------------------------------------------------------------------
# Who wins where: fastest of {naive, isp, isp_warp}, gaussian 512, per device.
# ---------------------------------------------------------------------------

WINNERS = {
    ("GTX680", "clamp"): "naive",
    ("GTX680", "mirror"): "isp_warp",
    ("GTX680", "repeat"): "isp_warp",
    ("GTX680", "constant"): "isp_warp",
    ("GTX1080", "clamp"): "naive",
    ("GTX1080", "mirror"): "isp_warp",
    ("GTX1080", "repeat"): "isp_warp",
    ("GTX1080", "constant"): "isp_warp",
    ("RTX2080", "clamp"): "naive",
    ("RTX2080", "mirror"): "isp_warp",
    ("RTX2080", "repeat"): "isp_warp",
    ("RTX2080", "constant"): "isp_warp",
    ("RTX3080", "clamp"): "naive",
    ("RTX3080", "mirror"): "isp_warp",
    ("RTX3080", "repeat"): "isp_warp",
    ("RTX3080", "constant"): "isp_warp",
    # GCN5: high per-transaction cost and flat occupancy squeeze the ISP
    # margin — the cheap patterns stay naive-side.
    ("VEGA64", "clamp"): "naive",
    ("VEGA64", "mirror"): "isp_warp",
    ("VEGA64", "repeat"): "isp_warp",
    ("VEGA64", "constant"): "naive",
    # CDNA's cheap memory path makes even Clamp partition-side.
    ("MI100", "clamp"): "isp",
    ("MI100", "mirror"): "isp_warp",
    ("MI100", "repeat"): "isp_warp",
    ("MI100", "constant"): "isp_warp",
}


@pytest.mark.parametrize("pattern", PATTERNS)
@pytest.mark.parametrize("device", sorted(DEVICES))
def test_who_wins_where(device, pattern):
    pipe = PIPELINES["gaussian"](SIZE, SIZE, Boundary(pattern))
    times = {
        v.value: measure_pipeline(pipe, variant=v, block=BLOCK,
                                  device=DEVICES[device]).total_us
        for v in (Variant.NAIVE, Variant.ISP, Variant.ISP_WARP)
    }
    winner = min(times, key=times.get)
    assert winner == WINNERS[(device, pattern)], (
        f"who-wins-where flipped for {device}/{pattern}: {times} — if the "
        f"timing-model change is intentional, update WINNERS and the "
        f"benchmark golden (REPRO_UPDATE_DEVICE_MATRIX=1 pytest -q "
        f"--benchmark-only benchmarks/bench_device_matrix.py) together"
    )


# ---------------------------------------------------------------------------
# Counter pins: whole-grid event totals, gaussian 512 / MIRROR.
# ---------------------------------------------------------------------------

#: (device, variant) -> (warp_instructions, coalesced, scattered, replays).
#: Identical events across variants per device is itself the pin: ISP
#: removes border *checks*, never loads, so the transaction mix is variant-
#: invariant while instruction totals drop.
REGION_EVENT_PINS = {
    ("GTX680", "naive"): (1859584, 35840, 46080, 46080),
    ("GTX680", "isp"): (1107008, 35840, 46080, 46080),
    ("GTX680", "isp_warp"): (1045568, 35840, 46080, 46080),
    ("RTX3080", "naive"): (1859584, 35840, 46080, 46080),
    ("RTX3080", "isp"): (1107008, 35840, 46080, 46080),
    ("RTX3080", "isp_warp"): (1045568, 35840, 46080, 46080),
    # wave64: half the warp instructions (64 lanes per wave), zero coalesced
    # accesses (every 64-lane f32 access spans >= 2 segments), more replays.
    ("VEGA64", "naive"): (929792, 0, 40960, 62464),
    ("VEGA64", "isp"): (553504, 0, 40960, 62464),
    ("VEGA64", "isp_warp"): (537120, 0, 40960, 62464),
    ("MI100", "naive"): (929792, 0, 40960, 62464),
    ("MI100", "isp"): (553504, 0, 40960, 62464),
    ("MI100", "isp_warp"): (537120, 0, 40960, 62464),
}


@pytest.mark.parametrize(("device", "variant"), sorted(REGION_EVENT_PINS))
def test_event_counter_pins(device, variant):
    rp = profile_regions(_gaussian_desc("mirror"), variant=variant,
                         block=BLOCK, device=DEVICES[device])
    instrs, coalesced, scattered, replays = REGION_EVENT_PINS[
        (device, variant)]
    assert rp.warp_instructions == instrs
    assert rp.events.get("coalesced_access", 0) == coalesced
    assert rp.events.get("scattered_access", 0) == scattered
    assert rp.events.get("mem_replay", 0) == replays
    assert rp.events.get("branch_divergence", 0) == 0
    assert rp.events.get("watchdog_stall", 0) == 0


def test_wave64_halves_warp_instructions():
    """The wave64 naive grid executes exactly half the warp instructions of
    the warp32 grid: same code, 64 lanes per wave -> half the waves."""
    w32 = REGION_EVENT_PINS[("GTX680", "naive")][0]
    w64 = REGION_EVENT_PINS[("VEGA64", "naive")][0]
    assert w64 * 2 == w32


# ---------------------------------------------------------------------------
# Full functional simulation across warp widths: bits and events.
# ---------------------------------------------------------------------------

#: full-SIMT event totals for gaussian 64x64 / MIRROR / block (64,2)
SIMT_EVENT_PINS = {
    # NAIVE stages no shared memory, so the smem/LDS counters pin to zero.
    "GTX680": {"branch_divergence": 0, "mem_replay": 384,
               "coalesced_access": 896, "scattered_access": 384,
               "watchdog_stall": 0, "smem_load": 0, "smem_store": 0,
               "lds_bank_conflict": 0},
    "VEGA64": {"branch_divergence": 0, "mem_replay": 640,
               "coalesced_access": 0, "scattered_access": 640,
               "watchdog_stall": 0, "smem_load": 0, "smem_store": 0,
               "lds_bank_conflict": 0},
}
SIMT_INSTR_PINS = {"GTX680": 29056, "VEGA64": 14528}


def test_simt_bit_exact_across_warp_widths(rng):
    src = rng.random((64, 64), dtype=np.float32)
    outs, profs = {}, {}
    for name in ("GTX680", "VEGA64"):
        pipe = PIPELINES["gaussian"](64, 64, Boundary.MIRROR)
        res = run_pipeline_simt(pipe, variant=Variant.NAIVE, block=(64, 2),
                                device=DEVICES[name], inputs={"inp": src})
        outs[name] = res.output
        profs[name] = res.profilers[0]
    # Warp width is an execution-shape choice, never a semantics choice.
    assert np.array_equal(outs["GTX680"], outs["VEGA64"])
    for name in ("GTX680", "VEGA64"):
        assert profs[name].warp_instructions == SIMT_INSTR_PINS[name], name
        assert profs[name].event_totals() == SIMT_EVENT_PINS[name], name
    # event_totals is zero-filled over the full schema, in declared order.
    assert tuple(profs["GTX680"].event_totals()) == EVENT_NAMES


# ---------------------------------------------------------------------------
# Codegen: the warp strip width provably follows device.warp_size.
# ---------------------------------------------------------------------------

WARP_IR_GOLDEN = GOLDEN_DIR / "isp_warp-warp32-vs-wave64.diff"


def _warp_ir_diff() -> str:
    texts = {}
    for dev in (GTX680, VEGA64):
        ck = compile_kernel(_gaussian_desc("mirror"), variant=Variant.ISP_WARP,
                            block=BLOCK, device=dev)
        assert ck.effective_variant is Variant.ISP_WARP
        assert ck.func.metadata["warp_size"] == dev.warp_size
        assert ck.func.metadata["warp_grained_effective"] is True
        texts[dev.name] = print_function(ck.func)
    diff = difflib.unified_diff(
        texts["GTX680"].splitlines(keepends=True),
        texts["VEGA64"].splitlines(keepends=True),
        fromfile="gaussian_isp_warp@warp32",
        tofile="gaussian_isp_warp@wave64",
        n=0,
    )
    return "".join(diff)


def test_warp_strip_width_follows_device(update_goldens):
    diff = _warp_ir_diff()
    if update_goldens:
        WARP_IR_GOLDEN.write_text(diff)
        pytest.skip("golden diff rewritten; review and commit")
    # The two compiles differ in exactly the dispatch arithmetic: the strip
    # shift (tid.x >> log2(warp_size)) and the derived W_R warp bound.
    changed = [ln for ln in diff.splitlines()
               if ln[:1] in "+-" and ln[:3] not in ("+++", "---")]
    assert any("shr.s32" in ln and ln.rstrip().endswith(", 5;")
               for ln in changed if ln.startswith("-")), diff
    assert any("shr.s32" in ln and ln.rstrip().endswith(", 6;")
               for ln in changed if ln.startswith("+")), diff
    for ln in changed:
        assert "shr.s32" in ln or "setp." in ln, (
            f"unexpected non-dispatch difference between warp widths: "
            f"{ln!r}\n{diff}"
        )
    assert WARP_IR_GOLDEN.exists(), (
        "golden missing — regenerate with `pytest "
        "tests/test_device_matrix.py --update-goldens` and commit"
    )
    golden = WARP_IR_GOLDEN.read_text()
    if diff != golden:
        delta = "".join(difflib.unified_diff(
            golden.splitlines(keepends=True), diff.splitlines(keepends=True),
            fromfile="golden", tofile="recompiled"))
        raise AssertionError(
            f"warp32-vs-wave64 IR diff drifted from golden — if intentional "
            f"rerun with --update-goldens and commit:\n{delta}"
        )


WARP_EFFECTIVE_PINS = {
    # block (64,2): one warp per row on wave64 — the warp index carries no
    # information, so warp-grained dispatch degenerates to block-grained
    # (recorded in metadata), while warp32 parts keep the Listing 5 shape.
    "GTX680": True, "GTX1080": True, "RTX2080": True, "RTX3080": True,
    "VEGA64": False, "MI100": False,
}


@pytest.mark.parametrize("device", sorted(WARP_EFFECTIVE_PINS))
def test_warp_grained_effectiveness_per_device(device):
    ck = compile_kernel(_gaussian_desc("mirror"), variant=Variant.ISP_WARP,
                        block=(64, 2), device=DEVICES[device])
    assert ck.effective_variant is Variant.ISP_WARP
    meta = ck.func.metadata
    assert meta["warp_size"] == DEVICES[device].warp_size
    assert meta["warp_grained_effective"] is WARP_EFFECTIVE_PINS[device]


# ---------------------------------------------------------------------------
# Caching and priors are warp-width / device aware.
# ---------------------------------------------------------------------------


def test_profile_cache_shared_within_width_never_across():
    desc = _gaussian_desc("mirror")
    kp_680 = profile_kernel(desc, variant=Variant.ISP, block=BLOCK,
                            device=GTX680)
    kp_3080 = profile_kernel(desc, variant=Variant.ISP, block=BLOCK,
                             device=DEVICES["RTX3080"])
    kp_vega = profile_kernel(desc, variant=Variant.ISP, block=BLOCK,
                             device=VEGA64)
    # Same warp width -> the cached per-class profiles are literally shared.
    assert kp_680.profiles is kp_3080.profiles
    # Different width -> distinct profiles with different instruction counts
    # (a warp32 profile reused for wave64 would double-count waves).
    assert kp_vega.profiles is not kp_680.profiles
    total32 = sum(p.warp_instructions for p in kp_680.profiles.values())
    total64 = sum(p.warp_instructions for p in kp_vega.profiles.values())
    assert total64 < total32


def test_autotune_prior_flips_with_the_device():
    """The model prior is computed per device and lands on different sides
    of G = 1 for laplace/clamp: partition-side on Kepler, naive-side on
    GCN5's wave64 economics. TunerKeys carrying different devices never
    share state."""
    from repro.serve import pipeline_gain
    from repro.serve.autotune import TUNE_CANDIDATES, AutoTuner, tuner_key
    from repro.serve.plan import trace_app

    descs = trace_app("laplace", "clamp", SIZE, SIZE)
    tuner = AutoTuner(candidates=TUNE_CANDIDATES)
    choices = {}
    for dev in (GTX680, VEGA64):
        key = tuner_key(descs, "clamp", dev)
        gain = pipeline_gain(descs, block=(32, 4), device=dev)
        tuner.decide(key, lambda g=gain: g)
        choices[dev.name] = tuner.explain(key)["model_choice"]
    assert choices == {"GTX680": "isp", "VEGA64": "naive"}
    assert tuner.stats()["configs"] == 2
