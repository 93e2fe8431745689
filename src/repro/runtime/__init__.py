"""Runtime: functional simulation, profiling/timing, vectorized host path."""

from ..compiler.isp import Variant
from .executor import (
    FineClass,
    KernelMeasurement,
    KernelProfile,
    PipelineMeasurement,
    SimulationResult,
    clear_profile_cache,
    fine_block_classes,
    launch_stages,
    measure_pipeline,
    profile_kernel,
    run_pipeline_simt,
    select_variants,
)
from .make_border import (
    ELEMENT_BYTES,
    ELEMENT_DTYPE,
    make_border,
    pad_key,
    padded_bytes,
    padded_for,
    padded_shape,
)
from .fused import run_fused, run_pipeline_fused
from .padding import PaddingEstimate, measure_padding_kernel, pad_copy_time_us
from .vectorized import (
    VECTORIZED_VARIANTS,
    OutOfBoundsError,
    degenerate_geometry,
    run_kernel_vectorized,
    run_pipeline_vectorized,
)

__all__ = [
    "ELEMENT_BYTES",
    "ELEMENT_DTYPE",
    "FineClass",
    "KernelMeasurement",
    "KernelProfile",
    "OutOfBoundsError",
    "PipelineMeasurement",
    "SimulationResult",
    "VECTORIZED_VARIANTS",
    "Variant",
    "clear_profile_cache",
    "degenerate_geometry",
    "fine_block_classes",
    "launch_stages",
    "make_border",
    "measure_padding_kernel",
    "measure_pipeline",
    "pad_copy_time_us",
    "pad_key",
    "padded_bytes",
    "padded_for",
    "padded_shape",
    "PaddingEstimate",
    "profile_kernel",
    "run_fused",
    "run_kernel_vectorized",
    "run_pipeline_fused",
    "run_pipeline_simt",
    "run_pipeline_vectorized",
    "select_variants",
]
