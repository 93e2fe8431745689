"""SIMT GPU simulator: devices, occupancy, memory, block execution, timing.

This package stands in for the paper's GTX680/RTX2080 testbed. See DESIGN.md
("Substitutions") for the fidelity argument: the simulator models exactly the
mechanisms the paper's analysis depends on — dynamic instruction counts per
region, register-limited occupancy, and wave scheduling. A device zoo
(``DEVICES``) extends the paper's pair with Pascal/Ampere NVIDIA parts and
wave64 AMD-like specs; the warp width is a ``DeviceSpec`` field threaded
through the whole stack.
"""

from .cost import CostTable, cost_table_for
from .device import (
    DEVICES,
    GTX680,
    GTX1080,
    MI100,
    RTX2080,
    RTX3080,
    VEGA64,
    DeviceSpec,
    get_device,
)
from .launch import LaunchConfig, execute_block, launch
from .memory import GlobalMemory, MemoryError_, transactions_for
from .occupancy import OccupancyResult, compute_occupancy, registers_per_block
from .profiler import EVENT_NAMES, BlockProfile, Profiler
from .simt import SimtError
from .timing import LAUNCH_OVERHEAD_US, TimingEstimate, estimate_time

__all__ = [
    "DEVICES",
    "EVENT_NAMES",
    "GTX680",
    "GTX1080",
    "MI100",
    "RTX2080",
    "RTX3080",
    "VEGA64",
    "LAUNCH_OVERHEAD_US",
    "BlockProfile",
    "CostTable",
    "DeviceSpec",
    "GlobalMemory",
    "LaunchConfig",
    "MemoryError_",
    "OccupancyResult",
    "Profiler",
    "SimtError",
    "TimingEstimate",
    "compute_occupancy",
    "cost_table_for",
    "estimate_time",
    "execute_block",
    "get_device",
    "launch",
    "registers_per_block",
    "transactions_for",
]

