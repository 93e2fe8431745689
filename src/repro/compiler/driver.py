"""Compiler driver: DSL kernel -> verified, optimized kernel variants.

This is the equivalent of the Hipacc ``Rewrite`` stage plus NVCC (paper
Figure 5): it traces the kernel, generates the requested variant, runs the
optimization passes, verifies the IR, and attaches register estimates and
launch geometry.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Union

from ..dsl.kernel import Kernel
from ..gpu.device import DeviceSpec
from ..gpu.launch import LaunchConfig
from ..ir.function import KernelFunction
from ..ir.verifier import verify
from .frontend import KernelDescription, trace_kernel
from .isp import CompileError, Variant, generate_isp, generate_naive, generate_texture
from .shared import generate_shared
from .passes import optimize as run_passes
from .regions import RegionGeometry
from .registers import RegisterEstimate, estimate_registers

DEFAULT_BLOCK = (32, 4)


@dataclasses.dataclass
class CompiledKernel:
    """A compiled kernel variant, ready to launch on the simulator."""

    desc: KernelDescription
    func: KernelFunction
    variant: Variant
    #: the variant actually generated (point operators and degenerate
    #: geometries silently collapse to NAIVE — recorded here)
    effective_variant: Variant
    block: tuple[int, int]
    launch_config: LaunchConfig
    geometry: Optional[RegionGeometry]
    registers: Optional[RegisterEstimate] = None

    @property
    def name(self) -> str:
        return self.func.name

    def param_values(self, image_bases: dict[str, int]) -> dict[str, int]:
        """Build the launch parameter dict given image base addresses."""
        values: dict[str, int] = {}
        seen: set[str] = set()
        for acc in self.desc.accessors:
            img = acc.image
            if img.name in seen:
                continue
            seen.add(img.name)
            values[f"{img.name}_ptr"] = image_bases[img.name]
            values[f"{img.name}_w"] = img.width
            values[f"{img.name}_h"] = img.height
        values["out_ptr"] = image_bases[self.desc.output_name]
        values["out_w"] = self.desc.width
        values["out_h"] = self.desc.height
        return values


def compile_kernel(
    kernel: Union[Kernel, KernelDescription],
    *,
    variant: Variant = Variant.NAIVE,
    block: tuple[int, int] = DEFAULT_BLOCK,
    device: Optional[DeviceSpec] = None,
    optimize: bool = True,
    fallback_to_naive: bool = True,
    sign_filter: bool = False,
) -> CompiledKernel:
    """Compile one kernel into the requested variant.

    ``Variant.ISP_MODEL`` is resolved by :mod:`repro.model.prediction` (it
    needs both compiled variants); requesting it here raises — use
    :func:`repro.runtime.executor.select_variant` instead.
    """
    if variant is Variant.ISP_MODEL:
        raise CompileError(
            "ISP_MODEL is a selection policy, not a code shape; compile NAIVE "
            "and ISP and let repro.model decide (see runtime.executor)"
        )
    desc = kernel if isinstance(kernel, KernelDescription) else trace_kernel(kernel)

    # The device's warp width shapes warp-grained codegen and the launch
    # decomposition; absent a device we keep the NVIDIA default.
    warp_size = device.warp_size if device is not None else 32

    effective = variant
    geometry: Optional[RegionGeometry] = None
    if variant in (Variant.ISP, Variant.ISP_WARP, Variant.SHARED,
                   Variant.SHARED_ISP) and not desc.needs_border_handling:
        # Point operators have nothing to partition or stage (paper: border
        # handling concerns local operators only).
        effective = Variant.NAIVE
    elif variant in (Variant.ISP, Variant.ISP_WARP):
        hx, hy = desc.extent
        geometry = RegionGeometry.compute(desc.width, desc.height, hx, hy, block)
        if geometry.degenerate:
            if not fallback_to_naive:
                raise CompileError(
                    f"{desc.name}: degenerate ISP geometry for "
                    f"{desc.width}x{desc.height} with block {block}"
                )
            effective = Variant.NAIVE
            geometry = None

    if effective is Variant.NAIVE:
        func = generate_naive(desc, block, sign_filter=sign_filter)
    elif effective is Variant.TEXTURE:
        func = generate_texture(desc, block)
    elif effective in (Variant.SHARED, Variant.SHARED_ISP):
        func = generate_shared(desc, block, variant=effective,
                               warp_size=warp_size)
        geometry = func.metadata["geometry"]
    else:
        func = generate_isp(
            desc, block,
            warp_grained=effective is Variant.ISP_WARP,
            sign_filter=sign_filter,
            warp_size=warp_size,
        )
        geometry = func.metadata["geometry"]

    if optimize:
        run_passes(func)
    verify(func)

    regs = estimate_registers(func, device)
    cfg = LaunchConfig.for_image(desc.width, desc.height, block,
                                 warp_size=warp_size)
    return CompiledKernel(
        desc=desc,
        func=func,
        variant=variant,
        effective_variant=effective,
        block=block,
        launch_config=cfg,
        geometry=geometry,
        registers=regs,
    )
