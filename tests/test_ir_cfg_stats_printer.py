"""Unit tests for CFG analyses, instruction statistics, and the printer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import (
    CmpOp,
    DataType,
    IRBuilder,
    Param,
    build_cfg,
    count_by_region,
    count_by_role,
    count_function,
    format_instruction,
    has_loops,
    immediate_postdominators,
    print_function,
)
from repro.ir.cfg import VIRTUAL_EXIT, back_edges
from repro.ir.stats import ordered_categories, total


def diamond():
    """entry -> (then|else) -> join -> exit."""
    b = IRBuilder("diamond", [Param("n", DataType.S32)])
    b.new_block("entry")
    n = b.ld_param("n")
    p = b.setp(CmpOp.GT, n, 0)
    b.cbr(p, "then", "els")
    b.new_block("then")
    b.br("join")
    b.new_block("els")
    b.br("join")
    b.new_block("join")
    b.exit()
    return b.finish()


def loop():
    b = IRBuilder("loop", [Param("n", DataType.S32)])
    b.new_block("entry")
    n = b.ld_param("n")
    x = b.fresh_reg(DataType.S32, "x")
    b.mov_to(x, 0)
    b.br("head")
    b.new_block("head")
    p = b.setp(CmpOp.LT, x, n)
    b.cbr(p, "body", "after")
    b.new_block("body")
    b.mov_to(x, b.add(x, 1))
    b.br("head")
    b.new_block("after")
    b.exit()
    return b.finish()


class TestCfg:
    def test_diamond_edges(self):
        g = build_cfg(diamond())
        assert set(g["entry"]) == {"then", "els"}
        assert set(g["join"]) == {VIRTUAL_EXIT}

    def test_diamond_ipdom(self):
        ipd = immediate_postdominators(diamond())
        assert ipd["entry"] == "join"
        assert ipd["then"] == "join"
        assert ipd["els"] == "join"
        assert ipd["join"] is None

    def test_loop_ipdom_and_backedges(self):
        f = loop()
        ipd = immediate_postdominators(f)
        assert ipd["head"] == "after"
        assert back_edges(f) == {("body", "head")}
        assert has_loops(f)
        assert not has_loops(diamond())


@st.composite
def random_cfgs(draw):
    """Functions of 1-8 blocks, each exiting, branching or branching
    conditionally to any block: loops, unreachable blocks and loops that
    never exit all occur."""
    n_blocks = draw(st.integers(1, 8))
    labels = [f"b{i}" for i in range(n_blocks)]
    target = st.sampled_from(labels)
    b = IRBuilder("random", [Param("n", DataType.S32)])
    for i, label in enumerate(labels):
        b.new_block(label)
        kind = draw(st.sampled_from(["exit", "br", "cbr"]))
        if kind == "exit":
            b.exit()
        elif kind == "br":
            b.br(draw(target))
        else:
            p = b.setp(CmpOp.GT, b.ld_param("n"), i)
            b.cbr(p, draw(target), draw(target))
    return b.finish()


def textbook_ipdoms(func):
    """Immediate post-dominators from the set fixpoint
    pdom(n) = {n} | intersection of pdom(s) over the successors s, on the
    blocks reachable from the entry plus the virtual exit. A block that
    cannot reach the exit has no post-dominator (None)."""
    succs = {blk.label: blk.successor_labels() or [VIRTUAL_EXIT]
             for blk in func.blocks}
    succs[VIRTUAL_EXIT] = []
    keep, todo = {func.entry.label}, [func.entry.label]
    while todo:
        for s in succs[todo.pop()]:
            if s not in keep:
                keep.add(s)
                todo.append(s)
    pdom = {n: set(keep) for n in keep}
    pdom[VIRTUAL_EXIT] = {VIRTUAL_EXIT} if VIRTUAL_EXIT in keep else set(keep)
    changed = True
    while changed:
        changed = False
        for n in keep - {VIRTUAL_EXIT}:
            new = {n} | set.intersection(*(pdom[s] for s in succs[n]))
            if new != pdom[n]:
                pdom[n], changed = new, True
    exits = {VIRTUAL_EXIT} & keep  # the blocks that can reach the exit
    changed = True
    while changed:
        grown = {n for n in keep if exits & set(succs[n])}
        changed = not grown <= exits
        exits |= grown
    result = {}
    for n in keep - {VIRTUAL_EXIT}:
        if n not in exits:
            result[n] = None
            continue
        strict = pdom[n] - {n}
        # the strict post-dominator that every other one post-dominates
        (ipdom,) = [d for d in strict if pdom[d] == strict]
        result[n] = None if ipdom == VIRTUAL_EXIT else ipdom
    return result


class TestCfgOracle:
    @settings(max_examples=300, deadline=None)
    @given(func=random_cfgs())
    def test_ipdoms_match_the_set_fixpoint(self, func):
        assert immediate_postdominators(func) == textbook_ipdoms(func)


class TestStats:
    def test_count_function(self):
        counts = count_function(diamond())
        assert counts["bra"] == 3
        assert counts["exit"] == 1
        assert counts["setp"] == 1
        assert counts["ld"] == 1  # ld.param counts as ld

    def test_total_and_order(self):
        counts = count_function(diamond())
        assert total(counts) == sum(counts.values())
        cats = ordered_categories([counts])
        # setp should come before ld before bra in Table-I order
        assert cats.index("setp") < cats.index("ld") < cats.index("bra")

    def test_region_role_grouping(self):
        b = IRBuilder("t", [Param("n", DataType.S32)])
        b.new_block("entry")
        n = b.ld_param("n")
        with b.region("Body"), b.role("kernel"):
            b.add(n, 1)
        with b.region("L"), b.role("check"):
            b.max(n, 0)
        b.exit()
        f = b.finish()
        by_region = count_by_region(f)
        assert by_region["Body"]["add"] == 1
        assert by_region["L"]["max"] == 1
        assert "(shared)" in by_region
        by_role = count_by_role(f)
        assert by_role["check"]["max"] == 1


class TestPrinter:
    def test_roundtrip_text_shape(self):
        text = print_function(diamond())
        assert ".visible .entry diamond(" in text
        assert "entry:" in text and "join:" in text
        assert "setp.gt.s32" in text
        assert "exit;" in text

    def test_annotated_output(self):
        b = IRBuilder("t", [Param("n", DataType.S32)])
        b.new_block("entry")
        n = b.ld_param("n")
        with b.region("TL"), b.role("check"):
            b.max(n, 0)
        b.exit()
        text = print_function(b.finish(), annotate=True)
        assert "region=TL role=check" in text

    def test_format_specific_instructions(self):
        f = loop()
        texts = [format_instruction(i) for i in f.instructions()]
        assert any(t.startswith("@") and "bra" in t for t in texts)  # cond branch
        assert any("ld.param.s32" in t for t in texts)
