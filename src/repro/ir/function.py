"""Kernel functions and basic blocks of the virtual ISA."""

from __future__ import annotations

import dataclasses
from typing import Iterator, Optional

from .instructions import Instruction, Opcode
from .types import DataType


@dataclasses.dataclass(frozen=True)
class Param:
    """A kernel parameter.

    ``is_pointer`` marks parameters that hold global-memory base addresses
    (image buffers). Pointer params are typed ``U32`` word addresses in our
    simulated flat memory; ``elem_dtype`` records what they point at.
    """

    name: str
    dtype: DataType
    is_pointer: bool = False
    elem_dtype: Optional[DataType] = None


class BasicBlock:
    """A labelled straight-line instruction sequence ending in a terminator."""

    def __init__(self, label: str):
        self.label = label
        self.instructions: list[Instruction] = []

    @property
    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    @property
    def is_terminated(self) -> bool:
        return self.terminator is not None

    def append(self, instr: Instruction) -> Instruction:
        if self.is_terminated:
            raise ValueError(f"block {self.label!r} already terminated")
        self.instructions.append(instr)
        return instr

    def successor_labels(self) -> list[str]:
        term = self.terminator
        if term is None or term.op is Opcode.EXIT:
            return []
        assert term.op is Opcode.BRA
        if term.pred is None:
            return [term.target]
        return [term.target, term.target_else]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"BasicBlock({self.label!r}, {len(self.instructions)} instrs)"


class KernelFunction:
    """A compiled kernel: ordered basic blocks + parameter list.

    Block order is the emission order; the first block is the entry. The
    printer emits blocks in this order, so fall-through chains read naturally
    in the CUDA-like output (paper Listing 3's ``goto`` chain becomes explicit
    branches here).
    """

    def __init__(self, name: str, params: list[Param]):
        self.name = name
        self.params = list(params)
        self.blocks: list[BasicBlock] = []
        self._by_label: dict[str, BasicBlock] = {}
        #: free-form metadata filled by the compiler (variant, bounds, ...)
        self.metadata: dict = {}
        #: the simulator's decoded form (:func:`repro.gpu.simt.decode`), set
        #: by the function's first launch and immutable afterwards
        self.decoded = None

    @property
    def entry(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError("function has no blocks")
        return self.blocks[0]

    def new_block(self, label: str) -> BasicBlock:
        if label in self._by_label:
            raise ValueError(f"duplicate block label {label!r}")
        block = BasicBlock(label)
        self.blocks.append(block)
        self._by_label[label] = block
        return block

    def block(self, label: str) -> BasicBlock:
        return self._by_label[label]

    def has_block(self, label: str) -> bool:
        return label in self._by_label

    def param(self, name: str) -> Param:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(f"no parameter named {name!r}")

    def instructions(self) -> Iterator[Instruction]:
        for block in self.blocks:
            yield from block

    def static_size(self) -> int:
        """Static instruction count across all blocks."""
        return sum(len(b) for b in self.blocks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"KernelFunction({self.name!r}, {len(self.blocks)} blocks, "
            f"{self.static_size()} instrs)"
        )
