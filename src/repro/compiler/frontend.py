"""Front end: trace a DSL kernel into a compiler-internal description.

The Hipacc front end parses C++ with Clang and walks the AST; our embedded
DSL makes this trivial — calling ``Kernel.kernel()`` *builds* the AST
directly. The front end then validates the kernel and extracts the domain
knowledge Hipacc's ``Analyze`` library gathers (paper Section V-A): window
extent, access set, and per-accessor boundary conditions.
"""

from __future__ import annotations

import dataclasses
import hashlib

from ..dsl.accessor import Accessor
from ..dsl.boundary import Boundary
from ..dsl.expr import BINARY_OPS, UNARY_OPS, BinOp, Const, Expr, PixelAccess, UnOp, walk, wrap
from ..dsl.kernel import Kernel


class FrontendError(Exception):
    """Raised when a user kernel is malformed."""


def canonical_expr(expr: Expr) -> str:
    """Deterministic serialization of an expression tree.

    Two independently-traced kernels that build the same computation produce
    the same string: nodes are labelled in first-visit order (never by
    ``id()``), shared subexpressions serialize once and are referenced as
    ``@<label>`` afterwards — so CSE structure is part of the canonical form.
    """
    labels: dict[int, int] = {}

    def rec(node: Expr) -> str:
        key = id(node)
        if key in labels:
            return f"@{labels[key]}"
        labels[key] = len(labels)
        if isinstance(node, Const):
            return f"c({node.value!r}:{node.dtype.name})"
        if isinstance(node, BinOp):
            return f"({node.op} {rec(node.lhs)} {rec(node.rhs)})"
        if isinstance(node, UnOp):
            return f"({node.op} {rec(node.operand)})"
        if isinstance(node, PixelAccess):
            a = node.accessor
            return (
                f"px({a.image.name}:{a.image.width}x{a.image.height}:"
                f"{a.boundary.value}:{a.constant!r}:{node.dx:+d}{node.dy:+d})"
            )
        raise TypeError(f"cannot serialize {node!r}")

    return rec(expr)


@dataclasses.dataclass
class KernelDescription:
    """Everything the lowering passes need to compile one kernel."""

    name: str
    width: int
    height: int
    expr: Expr
    accessors: list[Accessor]
    #: (hx, hy) — window half-extent across all accesses of all accessors
    extent: tuple[int, int]
    #: accesses grouped per accessor (for analysis/reporting)
    accesses: dict[int, list[PixelAccess]] = dataclasses.field(default_factory=dict)
    output_name: str = "out"
    #: the host executor's op tape (:func:`repro.runtime.vectorized.lower`),
    #: set by the description's first host execution and immutable afterwards
    tape: object = dataclasses.field(default=None, repr=False, compare=False)
    #: :meth:`stable_digest`'s value, set by its first call and immutable
    #: afterwards (like ``tape``: nothing mutates a description once traced)
    _digest: str | None = dataclasses.field(default=None, repr=False, compare=False)

    @property
    def is_point_operator(self) -> bool:
        """True when no access can ever leave the image (no border handling)."""
        return self.extent == (0, 0)

    @property
    def window_size(self) -> tuple[int, int]:
        hx, hy = self.extent
        return 2 * hx + 1, 2 * hy + 1

    @property
    def needs_border_handling(self) -> bool:
        if self.is_point_operator:
            return False
        return any(a.boundary.needs_checks for a in self.accessors)

    def stable_digest(self) -> str:
        """Content hash of the traced kernel (sha256 hex, first 16 bytes).

        Identical for two independent traces of the same kernel and stable
        across processes — unlike ``id()``-derived keys — so it can key
        caches that outlive a single compilation (the serve plan cache).
        Covers everything compilation depends on: the canonical expression
        (which embeds every access's image geometry, boundary pattern and
        constant), the iteration-space geometry, and the output binding.
        Computed once per description and memoized on it.
        """
        if self._digest is not None:
            return self._digest
        accs = ",".join(
            f"{a.image.name}:{a.image.width}x{a.image.height}:"
            f"{a.boundary.value}:{a.constant!r}"
            for a in self.accessors
        )
        payload = "|".join(
            [
                self.name,
                f"{self.width}x{self.height}",
                f"ext{self.extent[0]},{self.extent[1]}",
                f"out:{self.output_name}",
                accs,
                canonical_expr(self.expr),
            ]
        )
        self._digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]
        return self._digest


def trace_kernel(kernel: Kernel) -> KernelDescription:
    """Run the user's ``kernel()`` and validate the resulting expression."""
    result = kernel.kernel()
    if result is None:
        raise FrontendError(
            f"{kernel.name}: kernel() returned None — return the output expression"
        )
    expr = wrap(result)

    accesses: list[PixelAccess] = []
    for node in walk(expr):
        if isinstance(node, BinOp):
            if node.op not in BINARY_OPS:
                raise FrontendError(f"{kernel.name}: unknown binary op {node.op!r}")
        elif isinstance(node, UnOp):
            if node.op not in UNARY_OPS:
                raise FrontendError(f"{kernel.name}: unknown unary op {node.op!r}")
        elif isinstance(node, PixelAccess):
            accesses.append(node)
        elif isinstance(node, (Const, Expr)) and not isinstance(node, Expr):
            raise FrontendError(f"{kernel.name}: unexpected node {node!r}")

    if not accesses:
        raise FrontendError(f"{kernel.name}: kernel reads no input pixels")

    registered = {id(a) for a in kernel.accessors}
    by_accessor: dict[int, list[PixelAccess]] = {}
    out = kernel.iter_space.output
    for acc_node in accesses:
        acc = acc_node.accessor
        if id(acc) not in registered:
            raise FrontendError(
                f"{kernel.name}: accessor on image {acc.image.name!r} used but "
                "not registered with add_accessor()"
            )
        if acc.image.shape != out.shape:
            raise FrontendError(
                f"{kernel.name}: input {acc.image.name!r} {acc.image.shape} does "
                f"not match output {out.name!r} {out.shape}"
            )
        by_accessor.setdefault(id(acc), []).append(acc_node)
        if acc.boundary is Boundary.UNDEFINED and (acc_node.dx or acc_node.dy):
            raise FrontendError(
                f"{kernel.name}: offset access ({acc_node.dx}, {acc_node.dy}) on "
                f"image {acc.image.name!r} without a boundary condition — "
                "out-of-bounds reads would be undefined behaviour"
            )

    hx = max(abs(a.dx) for a in accesses)
    hy = max(abs(a.dy) for a in accesses)

    return KernelDescription(
        name=kernel.name,
        width=out.width,
        height=out.height,
        expr=expr,
        accessors=list(kernel.accessors),
        extent=(hx, hy),
        accesses=by_accessor,
        output_name=out.name,
    )
