"""Control-flow-graph analyses for kernel functions.

The SIMT simulator reconverges divergent warps at the *immediate
post-dominator* of the branch block — the textbook stack-based reconvergence
model used by GPGPU-Sim and by real SIMT hardware descriptions. We compute
post-dominators as the dominators of the reversed CFG, rooted at a virtual
exit node that every exiting block edges into, with the iterative algorithm
of Cooper, Harvey and Kennedy ("A Simple, Fast Dominance Algorithm").
"""

from __future__ import annotations

from typing import Optional

from .function import KernelFunction

#: Name of the virtual exit node used for post-dominator computation.
VIRTUAL_EXIT = "__exit__"


def build_cfg(func: KernelFunction) -> dict[str, list[str]]:
    """Successor map over block labels; exit blocks edge into VIRTUAL_EXIT,
    which has no successors."""
    g = {block.label: block.successor_labels() or [VIRTUAL_EXIT]
         for block in func.blocks}
    g[VIRTUAL_EXIT] = []
    return g


def _reachable(succs: dict[str, list[str]], root: str) -> set[str]:
    seen = {root}
    todo = [root]
    while todo:
        for s in succs[todo.pop()]:
            if s not in seen:
                seen.add(s)
                todo.append(s)
    return seen


def reachable_blocks(func: KernelFunction) -> set[str]:
    reach = _reachable(build_cfg(func), func.entry.label)
    reach.discard(VIRTUAL_EXIT)
    return reach


def _postorder(succs: dict[str, list[str]], root: str) -> list[str]:
    order: list[str] = []
    seen = {root}
    stack = [(root, iter(succs[root]))]
    while stack:
        node, it = stack[-1]
        for s in it:
            if s not in seen:
                seen.add(s)
                stack.append((s, iter(succs[s])))
                break
        else:
            order.append(node)
            stack.pop()
    return order


def immediate_postdominators(func: KernelFunction) -> dict[str, Optional[str]]:
    """Map block label -> label of its immediate post-dominator.

    Blocks whose ipdom is the virtual exit map to ``None`` (the warp simply
    runs to completion past them), as do blocks that cannot reach an exit.
    Unreachable blocks are absent from the map.
    """
    g = build_cfg(func)
    keep = _reachable(g, func.entry.label)
    if VIRTUAL_EXIT not in keep:
        # No reachable exit (e.g. an infinite loop): nothing post-dominates.
        return {label: None for label in keep}
    # The reversed CFG: a node's predecessors there are its successors here.
    preds: dict[str, list[str]] = {label: [] for label in keep}
    for label in keep:
        for s in g[label]:
            preds[s].append(label)
    order = _postorder(preds, VIRTUAL_EXIT)
    number = {label: i for i, label in enumerate(order)}
    idom = {VIRTUAL_EXIT: VIRTUAL_EXIT}
    changed = True
    while changed:
        changed = False
        for label in reversed(order[:-1]):
            new = None
            for p in g[label]:
                if p not in idom:
                    continue
                if new is None:
                    new = p
                    continue
                a, b = p, new
                while a != b:
                    while number[a] < number[b]:
                        a = idom[a]
                    while number[b] < number[a]:
                        b = idom[b]
                new = a
            if idom.get(label) != new:
                idom[label] = new
                changed = True
    return {label: None if idom.get(label, VIRTUAL_EXIT) == VIRTUAL_EXIT
            else idom[label]
            for label in keep if label != VIRTUAL_EXIT}


def back_edges(func: KernelFunction) -> set[tuple[str, str]]:
    """DFS back edges — presence indicates loops (Repeat border pattern)."""
    g = build_cfg(func)
    edges: set[tuple[str, str]] = set()
    color: dict[str, int] = {}
    stack = [(func.entry.label, iter(g[func.entry.label]))]
    color[func.entry.label] = 1
    while stack:
        node, it = stack[-1]
        advanced = False
        for succ in it:
            if succ == VIRTUAL_EXIT:
                continue
            if color.get(succ, 0) == 0:
                color[succ] = 1
                stack.append((succ, iter(g[succ])))
                advanced = True
                break
            if color.get(succ) == 1:
                edges.add((node, succ))
        if not advanced:
            color[node] = 2
            stack.pop()
    return edges


def has_loops(func: KernelFunction) -> bool:
    return bool(back_edges(func))


def live_out(func: KernelFunction) -> dict[str, set[str]]:
    """Map block label -> names of the registers live on leaving the block
    (backward dataflow: live-in = read before written, plus live-out minus
    written)."""
    blocks = func.blocks
    uses: dict[str, set[str]] = {}
    defs: dict[str, set[str]] = {}
    for block in blocks:
        use, written = set(), set()
        for instr in block:
            for r in instr.used_registers():
                if r.name not in written:
                    use.add(r.name)
            d = instr.defined_register()
            if d is not None:
                written.add(d.name)
        uses[block.label], defs[block.label] = use, written
    succs = {block.label: block.successor_labels() for block in blocks}
    live_in: dict[str, set[str]] = {b.label: set() for b in blocks}
    out: dict[str, set[str]] = {b.label: set() for b in blocks}
    changed = True
    while changed:
        changed = False
        for block in reversed(blocks):
            label = block.label
            new_out = set().union(*(live_in[s] for s in succs[label]))
            new_in = uses[label] | (new_out - defs[label])
            if new_out != out[label] or new_in != live_in[label]:
                out[label], live_in[label] = new_out, new_in
                changed = True
    return out
