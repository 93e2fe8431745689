"""Dynamic execution counters.

The profiler is the simulator's NVProf. The block executor charges it once
per executed straight-line segment (static counts times the warps taking
part) and once per memory access, divergence and watchdog poll, and it
aggregates

* dynamic counts by PTX keyword (the unit of the paper's Table I),
* counts by ISP region tag and by accounting role (check/switch/kernel),
* per-block totals (block classes feed representative-block scaling),
* memory transactions (coalescing) and divergence events,
* architectural event counters in the style of a simulated machine's
  event-counter file: branch divergences, memory-transaction replays,
  coalesced vs scattered accesses, and watchdog stalls — kept globally,
  per block, and per ISP region (see ``docs/devices.md``),
* cost-weighted issue cycles when a :class:`~repro.gpu.cost.CostTable` is
  attached.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Optional

from .cost import CostTable

#: Architectural event names, in a stable reporting order. Every consumer
#: (trace spans, Prometheus, the device regression matrix) uses these keys.
EVENT_NAMES = (
    "branch_divergence",   # a warp's branch split its active mask
    "mem_replay",          # extra transactions beyond the first per access
    "coalesced_access",    # global-memory access serviced by 1 transaction
    "scattered_access",    # global-memory access needing >1 transaction
    "watchdog_stall",      # warp paused to poll the host abort watchdog
    "smem_load",           # warp-level shared-memory load (lds)
    "smem_store",          # warp-level shared-memory store (sts)
    "lds_bank_conflict",   # shared-access replays: distinct words in one bank
)


@dataclasses.dataclass
class BlockProfile:
    """Counters for a single executed threadblock.

    ``by_category`` holds device-independent cost-category counts
    (:func:`repro.gpu.cost.category_of`), so a single profiled block can be
    priced on any device's cost table via :meth:`cycles_on`.
    """

    block_idx: tuple[int, int]
    block_class: Optional[str] = None
    warp_instructions: int = 0
    thread_instructions: int = 0
    issue_cycles: float = 0.0
    mem_transactions: int = 0
    divergences: int = 0
    by_keyword: Counter = dataclasses.field(default_factory=Counter)
    by_category: Counter = dataclasses.field(default_factory=Counter)
    #: warp instructions by ISP region tag / accounting role — these make a
    #: representative block regionally scalable (repro.trace.profile lifts
    #: them into whole-grid region profiles via class block counts, Eq. 8)
    by_region: Counter = dataclasses.field(default_factory=Counter)
    by_role: Counter = dataclasses.field(default_factory=Counter)
    #: architectural events of this block (keys from :data:`EVENT_NAMES`)
    events: Counter = dataclasses.field(default_factory=Counter)

    def cycles_on(self, table: CostTable) -> float:
        """Issue cycles of this block under a specific device cost table."""
        cycles = sum(n * table.rate(cat) for cat, n in self.by_category.items())
        cycles += self.mem_transactions * table.mem_transaction
        cycles += self.divergences * table.divergence_penalty
        return cycles

    def mem_cycles_on(self, table: CostTable) -> float:
        """Memory-issue share of :meth:`cycles_on` (latency-hiding proxy)."""
        return (
            self.by_category.get("mem", 0) * table.mem_issue
            + self.mem_transactions * table.mem_transaction
        )


class Profiler:
    """Accumulates dynamic statistics for one or more launches."""

    def __init__(self, cost_table: Optional[CostTable] = None):
        self.cost_table = cost_table
        self.warp_instructions = 0
        self.thread_instructions = 0
        self.issue_cycles = 0.0
        self.mem_transactions = 0
        self.divergent_branches = 0
        self.by_keyword: Counter = Counter()
        self.by_region: dict[str, Counter] = {}
        self.by_role: dict[str, Counter] = {}
        #: architectural events, globally and per ISP region tag
        self.events: Counter = Counter()
        self.events_by_region: dict[str, Counter] = {}
        self.block_profiles: list[BlockProfile] = []
        self._current: Optional[BlockProfile] = None

    # ------------------------------------------------------------- block scope

    def begin_block(
        self, block_idx: tuple[int, int], block_class: Optional[str] = None
    ) -> None:
        self._current = BlockProfile(block_idx=block_idx, block_class=block_class)

    def end_block(self) -> BlockProfile:
        if self._current is None:
            raise RuntimeError("end_block without begin_block")
        done, self._current = self._current, None
        self.block_profiles.append(done)
        return done

    # ----------------------------------------------------------------- events

    def on_segments(self, counts: dict, thread_instructions: int) -> None:
        """Record the straight-line segments one block executed.

        ``counts`` maps ``(keyword, region, role, category)`` to warp
        executions: a segment's static counts times the warps that took
        part, summed over the block's executions of it.
        ``thread_instructions`` sums the active lanes of those executions.
        """
        blk = self._current
        table = self.cost_table
        cycles = 0.0
        for (keyword, region, role, category), n in counts.items():
            region = region or "(shared)"
            role = role or "(untagged)"
            self.warp_instructions += n
            self.by_keyword[keyword] += n
            _counter(self.by_region, region)[keyword] += n
            _counter(self.by_role, role)[keyword] += n
            if table is not None:
                cycles += n * table.rate(category)
            if blk is not None:
                blk.warp_instructions += n
                blk.by_keyword[keyword] += n
                blk.by_category[category] += n
                blk.by_region[region] += n
                blk.by_role[role] += n
        self.thread_instructions += thread_instructions
        self.issue_cycles += cycles
        if blk is not None:
            blk.thread_instructions += thread_instructions
            blk.issue_cycles += cycles

    def on_global_access(
        self, region: Optional[str], transactions: list[int], *, billed: bool
    ) -> None:
        """Record one block-wide global-memory access.

        ``transactions`` holds each warp's 128-byte segment count (0 for a
        warp with no active lane). A warp served by one transaction is a
        coalesced access; more make a scattered one, replayed once per
        extra transaction. ``billed`` accesses (``ld``/``st``) also pay
        the cost table's per-transaction cycles; textured loads do not.
        """
        total = warps = coalesced = 0
        for tx in transactions:
            if tx:
                total += tx
                warps += 1
                coalesced += tx == 1
        self.mem_transactions += total
        if self._current is not None:
            self._current.mem_transactions += total
        if billed and self.cost_table is not None:
            cycles = self.cost_table.mem_transaction * total
            self.issue_cycles += cycles
            if self._current is not None:
                self._current.issue_cycles += cycles
        region = region or "(shared)"
        if coalesced:
            self._event("coalesced_access", region, coalesced)
        if warps > coalesced:
            self._event("scattered_access", region, warps - coalesced)
            self._event("mem_replay", region, total - warps)

    def _event(self, name: str, region: Optional[str] = None, n: int = 1) -> None:
        self.events[name] += n
        if region is not None:
            _counter(self.events_by_region, region)[name] += n
        if self._current is not None:
            self._current.events[name] += n

    def on_shared_access(
        self, region: Optional[str], *, store: bool, warps: int = 1,
        conflicts: int = 0,
    ) -> None:
        """Record one block-wide shared-memory access by ``warps`` warps.

        ``conflicts`` sums the warps' replay counts under the bank model:
        with ``warp_size`` banks of one 4-byte word, a warp access replays
        once per *distinct word* beyond the first that lands in the
        most-loaded bank (lanes hitting the same word broadcast for free).
        Purely observational — the cost table prices the instruction itself.
        """
        region = region or "(shared)"
        self._event("smem_store" if store else "smem_load", region, warps)
        if conflicts > 0:
            self._event("lds_bank_conflict", region, conflicts)

    def on_divergence(self, region: Optional[str] = None, warps: int = 1) -> None:
        """Record a branch at which ``warps`` warps split their active masks."""
        self.divergent_branches += warps
        self._event("branch_divergence", region, warps)
        if self._current is not None:
            self._current.divergences += warps
        if self.cost_table is not None:
            penalty = self.cost_table.divergence_penalty * warps
            self.issue_cycles += penalty
            if self._current is not None:
                self._current.issue_cycles += penalty

    def on_watchdog_poll(self, n: int = 1) -> None:
        """Warps paused ``n`` times to poll the host abort watchdog."""
        self._event("watchdog_stall", None, n)

    # ---------------------------------------------------------------- queries

    @property
    def mem_issue_fraction(self) -> float:
        """Fraction of issue cycles spent on memory ops — the timing model's
        proxy for how latency-sensitive (occupancy-hungry) a kernel is."""
        if not self.issue_cycles:
            return 0.0
        if self.cost_table is None:
            return 0.0
        mem_cycles = 0.0
        for kw in ("ld", "st"):
            mem_cycles += self.by_keyword.get(kw, 0) * self.cost_table.mem_issue
        mem_cycles += self.mem_transactions * self.cost_table.mem_transaction
        return min(1.0, mem_cycles / self.issue_cycles)

    def region_totals(self) -> dict[str, int]:
        return {r: sum(c.values()) for r, c in self.by_region.items()}

    def event_totals(self) -> dict[str, int]:
        """All architectural event counters, zero-filled in stable order."""
        return {name: int(self.events.get(name, 0)) for name in EVENT_NAMES}


def _counter(counters: dict, key: str) -> Counter:
    """``counters[key]``, created empty on first use."""
    c = counters.get(key)
    if c is None:
        c = counters[key] = Counter()
    return c
