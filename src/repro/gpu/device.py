"""Device specifications for the simulated GPUs.

The paper evaluates on an Nvidia GTX680 (Kepler GK104, compute capability 3.0)
and an RTX2080 (Turing TU104, compute capability 7.5). The specification
fields below are the public numbers from the CUDA programming guide's
"Compute Capabilities" tables — exactly the inputs the CUDA occupancy
calculator uses, plus a few scheduling parameters consumed by the timing model
(:mod:`repro.gpu.timing`).

Beyond the paper's pair, the zoo carries a Pascal- and an Ampere-class NVIDIA
part and two wave64 AMD-like parts (GCN5 and CDNA generations). Lappi et al.
(arXiv:2406.08923) show border-handling and autotuning tradeoffs flip between
vendors; the ``warp_size`` field is what lets the whole stack — occupancy,
cost/timing, the SIMT interpreter, and warp-grained ISP codegen — follow the
device instead of a baked-in 32.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class DeviceSpec:
    """Static description of a GPU, sufficient for occupancy + timing.

    Attributes
    ----------
    name / arch / compute_capability:
        Identification.
    sm_count:
        Number of streaming multiprocessors (compute units on AMD).
    max_warps_per_sm / max_blocks_per_sm / max_threads_per_block:
        Hardware scheduler limits ("warp" reads "wavefront" on AMD).
    registers_per_sm:
        Size of the SM register file (32-bit registers).
    max_registers_per_thread:
        Per-thread architectural cap; exceeding it forces spills to local
        memory (CC 3.0: 63, CC 7.5: 255). The paper notes Turing's larger
        register budget is why its model saw no occupancy drop there.
    register_alloc_unit:
        Register-file allocation granularity (registers, per warp).
    warp_alloc_granularity:
        Warps per block are rounded up to a multiple of this for allocation.
    clock_mhz:
        Core clock, used only to convert cycles to (pseudo) seconds.
    issue_width:
        Independent warp-instructions an SM can issue per cycle across its
        schedulers (Kepler SMX: 4 schedulers dual-issue ≈ 6 effective for
        mixed code; Turing SM: 4 schedulers single-issue = 4).
    latency_hiding_warps:
        Resident warps per SM needed to fully hide ALU latency for a purely
        arithmetic kernel; the per-kernel memory fraction raises the
        requirement (see :mod:`repro.gpu.timing`).
    mem_latency_warps:
        Additional warps needed at 100% memory-issue fraction.
    mem_bandwidth_gbs:
        Peak global-memory bandwidth in GB/s; used to price the memory copy
        of the padding baseline (paper Section I: padding requires "additional
        memory copy, which is costly, particularly for ... GPUs").
    warp_size:
        SIMT execution width in lanes: 32 on every NVIDIA generation
        modelled here, 64 on the AMD GCN/CDNA wavefront parts. Threads per
        warp, strip width of warp-grained ISP, and the coalescing window all
        scale with it.
    """

    name: str
    arch: str
    compute_capability: tuple[int, int]
    sm_count: int
    max_warps_per_sm: int
    max_blocks_per_sm: int
    max_threads_per_block: int
    registers_per_sm: int
    max_registers_per_thread: int
    register_alloc_unit: int
    warp_alloc_granularity: int
    clock_mhz: float
    issue_width: float
    latency_hiding_warps: float
    mem_latency_warps: float
    mem_bandwidth_gbs: float = 200.0
    #: shared memory per SM (bytes) — limits resident blocks for the
    #: tile-staging kernel variants
    shared_mem_per_sm: int = 49152
    #: shared-memory allocation granularity (bytes)
    shared_alloc_unit: int = 256
    #: SIMT width in lanes (32 = NVIDIA warp, 64 = AMD wavefront)
    warp_size: int = 32

    def __post_init__(self):
        if self.warp_size <= 0 or self.warp_size & (self.warp_size - 1):
            raise ValueError(
                f"warp_size must be a positive power of two, got {self.warp_size}"
            )

    @property
    def max_threads_per_sm(self) -> int:
        return self.max_warps_per_sm * self.warp_size

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name} ({self.arch}, CC {self.compute_capability[0]}.{self.compute_capability[1]})"


#: Nvidia GTX680 — Kepler GK104, CC 3.0 (paper's first evaluation GPU).
GTX680 = DeviceSpec(
    name="GTX680",
    arch="Kepler",
    compute_capability=(3, 0),
    sm_count=8,
    max_warps_per_sm=64,
    max_blocks_per_sm=16,
    max_threads_per_block=1024,
    registers_per_sm=65536,
    max_registers_per_thread=63,
    register_alloc_unit=256,
    warp_alloc_granularity=4,
    clock_mhz=1006.0,
    issue_width=6.0,
    latency_hiding_warps=30.0,
    mem_latency_warps=30.0,
    mem_bandwidth_gbs=192.2,
    shared_mem_per_sm=49152,
    shared_alloc_unit=256,
    warp_size=32,
)

#: Nvidia GTX1080 — Pascal GP104, CC 6.1 (one generation past the paper).
GTX1080 = DeviceSpec(
    name="GTX1080",
    arch="Pascal",
    compute_capability=(6, 1),
    sm_count=20,
    max_warps_per_sm=64,
    max_blocks_per_sm=32,
    max_threads_per_block=1024,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    register_alloc_unit=256,
    warp_alloc_granularity=4,
    clock_mhz=1607.0,
    issue_width=5.0,
    latency_hiding_warps=16.0,
    mem_latency_warps=20.0,
    mem_bandwidth_gbs=320.3,
    shared_mem_per_sm=98304,
    shared_alloc_unit=256,
    warp_size=32,
)

#: Nvidia RTX2080 — Turing TU104, CC 7.5 (paper's second evaluation GPU).
RTX2080 = DeviceSpec(
    name="RTX2080",
    arch="Turing",
    compute_capability=(7, 5),
    sm_count=46,
    max_warps_per_sm=32,
    max_blocks_per_sm=16,
    max_threads_per_block=1024,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    register_alloc_unit=256,
    warp_alloc_granularity=4,
    clock_mhz=1515.0,
    issue_width=4.0,
    latency_hiding_warps=10.0,
    mem_latency_warps=14.0,
    mem_bandwidth_gbs=448.0,
    shared_mem_per_sm=65536,
    shared_alloc_unit=256,
    warp_size=32,
)

#: Nvidia RTX3080 — Ampere GA102, CC 8.6.
RTX3080 = DeviceSpec(
    name="RTX3080",
    arch="Ampere",
    compute_capability=(8, 6),
    sm_count=68,
    max_warps_per_sm=48,
    max_blocks_per_sm=16,
    max_threads_per_block=1024,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    register_alloc_unit=256,
    warp_alloc_granularity=4,
    clock_mhz=1710.0,
    issue_width=4.0,
    latency_hiding_warps=8.0,
    mem_latency_warps=12.0,
    mem_bandwidth_gbs=760.3,
    shared_mem_per_sm=102400,
    shared_alloc_unit=128,
    warp_size=32,
)

#: AMD Vega 64 — GCN5, wave64. ``compute_capability`` carries the GFX ISA
#: level in the NVIDIA-shaped field (gfx9.0). A CU holds 4 SIMD16 units,
#: each with 10 wavefront slots → 40 resident waves of 64 lanes per CU.
VEGA64 = DeviceSpec(
    name="VEGA64",
    arch="GCN5",
    compute_capability=(9, 0),
    sm_count=64,
    max_warps_per_sm=40,
    max_blocks_per_sm=16,
    max_threads_per_block=1024,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    register_alloc_unit=256,
    warp_alloc_granularity=1,
    clock_mhz=1546.0,
    issue_width=4.0,
    latency_hiding_warps=16.0,
    mem_latency_warps=24.0,
    mem_bandwidth_gbs=483.8,
    shared_mem_per_sm=65536,
    shared_alloc_unit=512,
    warp_size=64,
)

#: AMD Instinct MI100 — CDNA, wave64 (gfx9.08).
MI100 = DeviceSpec(
    name="MI100",
    arch="CDNA",
    compute_capability=(9, 8),
    sm_count=120,
    max_warps_per_sm=40,
    max_blocks_per_sm=16,
    max_threads_per_block=1024,
    registers_per_sm=65536,
    max_registers_per_thread=255,
    register_alloc_unit=256,
    warp_alloc_granularity=1,
    clock_mhz=1502.0,
    issue_width=4.0,
    latency_hiding_warps=12.0,
    mem_latency_warps=20.0,
    mem_bandwidth_gbs=1228.8,
    shared_mem_per_sm=65536,
    shared_alloc_unit=512,
    warp_size=64,
)

#: Registry used by the benchmark harness and the cross-device matrix.
DEVICES: dict[str, DeviceSpec] = {
    d.name: d for d in (GTX680, GTX1080, RTX2080, RTX3080, VEGA64, MI100)
}


def get_device(name: str) -> DeviceSpec:
    try:
        return DEVICES[name]
    except KeyError:
        raise KeyError(
            f"unknown device {name!r}; available: {sorted(DEVICES)}"
        ) from None

