"""Dynamic execution counters.

The profiler is the simulator's NVProf. The wave executor charges it once
per wave with each block's segment counts (static counts times the block's
warps taking part), and per warp on each memory access, divergence and
watchdog poll; it reduces those by block and aggregates

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

import numpy as np

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
    """Accumulates dynamic statistics for one or more launches.

    The wave executor charges it per *wave* of blocks: :meth:`begin_wave`,
    per-warp memory, divergence and watchdog events as they happen, then
    :meth:`end_wave` with the segment counts per block, which attributes
    everything to the wave's blocks and returns their profiles.
    """

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
        self._wave: Optional[_Wave] = None
        self._rate_keys: Optional[tuple] = None
        self._rate_values = np.zeros(0)

    # -------------------------------------------------------------- wave scope

    def begin_wave(
        self,
        blocks: list[tuple[tuple[int, int], Optional[str]]],
        warps_per_block: int,
    ) -> None:
        """Start a wave of ``(block_idx, block_class)`` blocks, whose warps
        the per-warp events list block after block."""
        self._wave = _Wave(blocks, warps_per_block)

    def end_wave(self, counts: np.ndarray, keys: tuple,
                 thread_instructions: np.ndarray) -> list[BlockProfile]:
        """Attribute the wave's counts to its blocks and to the totals;
        returns one profile per block, in the wave's order. Blocks with
        equal counts share one computed profile, and each gets its own
        copy.

        ``counts[b, k]`` is block ``b``'s warp executions of key ``keys[k]``,
        a ``(keyword, region, role, category)`` tuple: each straight-line
        segment's static counts times the block's warps that took part,
        summed over the segment's runs. ``thread_instructions[b]`` sums the
        block's active lanes over the same executions.
        """
        if self._wave is None:
            raise RuntimeError("end_wave without begin_wave")
        wave, self._wave = self._wave, None
        table = self.cost_table
        per_block = wave.per_block
        events: dict[str, np.ndarray] = {}

        def event(name: str, region: Optional[str], per_warp: np.ndarray) -> None:
            counts = per_block(per_warp)
            n = int(counts.sum())
            if n:
                self.events[name] += n
                if region is not None:
                    _counter(self.events_by_region, region)[name] += n
                events[name] = events[name] + counts if name in events else counts

        n_blocks = len(wave.blocks)
        transactions = np.zeros(n_blocks, dtype=np.int64)
        billed = np.zeros(n_blocks, dtype=np.int64)
        for (region, is_billed), (tx, active, coalesced) in wave.memory.items():
            region = region or "(shared)"
            block_tx = per_block(tx)
            transactions += block_tx
            if is_billed:
                billed += block_tx
            event("coalesced_access", region, coalesced)
            event("scattered_access", region, active - coalesced)
            event("mem_replay", region, tx - active)
        for (region, store), (warps, conflicts) in wave.shared.items():
            region = region or "(shared)"
            event("smem_store" if store else "smem_load", region, warps)
            event("lds_bank_conflict", region, conflicts)
        divergences = np.zeros(n_blocks, dtype=np.int64)
        for region, split in wave.divergence.items():
            divergences += per_block(split)
            event("branch_divergence", region, split)
        if wave.polls is not None:
            event("watchdog_stall", None, wave.polls)
        self.mem_transactions += int(transactions.sum())
        self.divergent_branches += int(divergences.sum())

        totals = counts.sum(axis=0)
        for k in np.flatnonzero(totals):
            keyword, region, role, _ = keys[k]
            n = int(totals[k])
            self.warp_instructions += n
            self.by_keyword[keyword] += n
            _counter(self.by_region, region or "(shared)")[keyword] += n
            _counter(self.by_role, role or "(untagged)")[keyword] += n
        self.thread_instructions += int(thread_instructions.sum())
        cycles = np.zeros(n_blocks)
        if table is not None:
            # Every rate is a multiple of half a cycle, so these float sums
            # are exact in any order.
            rates = self._rates(keys)
            cycles = (counts @ rates + billed * table.mem_transaction
                      + divergences * table.divergence_penalty)
            self.issue_cycles += float(cycles.sum())

        names = [name for name in EVENT_NAMES if name in events]
        signature = np.column_stack(
            [counts, thread_instructions, transactions, billed,
             divergences,
             *(events[name] for name in names)])
        shared: dict[bytes, BlockProfile] = {}
        profiles = []
        for b, (block_idx, block_class) in enumerate(wave.blocks):
            key = signature[b].tobytes()
            proto = shared.get(key)
            if proto is None:
                proto = shared[key] = _block_profile(
                    keys, counts[b], int(thread_instructions[b]),
                    float(cycles[b]), int(transactions[b]),
                    int(divergences[b]),
                    {name: int(events[name][b]) for name in names
                     if events[name][b]})
            profiles.append(BlockProfile(
                block_idx, block_class, proto.warp_instructions,
                proto.thread_instructions, proto.issue_cycles,
                proto.mem_transactions, proto.divergences,
                _copy(proto.by_keyword), _copy(proto.by_category),
                _copy(proto.by_region), _copy(proto.by_role),
                _copy(proto.events)))
        return profiles

    def _rates(self, keys: tuple) -> np.ndarray:
        """Issue cycles per warp instruction of each count key."""
        if self._rate_keys is not keys:
            table = self.cost_table
            by_category = {cat: table.rate(cat) for *_, cat in keys}
            self._rate_keys = keys
            self._rate_values = np.array([by_category[key[3]] for key in keys])
        return self._rate_values

    # ----------------------------------------------------------------- events

    def on_global_access(
        self, region: Optional[str], transactions: np.ndarray, *, billed: bool
    ) -> None:
        """Record one wave-wide global-memory access.

        ``transactions`` holds each warp's 128-byte segment count (0 for a
        warp with no active lane). A warp served by one transaction is a
        coalesced access; more make a scattered one, replayed once per
        extra transaction. ``billed`` accesses (``ld``/``st``) also pay
        the cost table's per-transaction cycles; textured loads do not.
        """
        acc = self._wave.memory.get((region, billed))
        if acc is None:
            acc = self._wave.memory[region, billed] = _zeros(3, transactions)
        acc[0] += transactions
        acc[1] += transactions > 0
        acc[2] += transactions == 1

    def on_shared_access(
        self, region: Optional[str], *, store: bool, warps: np.ndarray,
        conflicts: np.ndarray,
    ) -> None:
        """Record one wave-wide shared-memory access by the ``warps`` that
        have an active lane.

        ``conflicts`` holds each warp's replay count under the bank model:
        with ``warp_size`` banks of one 4-byte word, a warp access replays
        once per *distinct word* beyond the first that lands in the
        most-loaded bank (lanes hitting the same word broadcast for free).
        Purely observational — the cost table prices the instruction itself.
        """
        acc = self._wave.shared.get((region, store))
        if acc is None:
            acc = self._wave.shared[region, store] = _zeros(2, conflicts)
        acc[0] += warps
        acc[1] += conflicts

    def on_divergence(self, region: Optional[str], warps: np.ndarray) -> None:
        """Record a branch at which the ``warps`` split their active masks."""
        acc = self._wave.divergence.get(region)
        if acc is None:
            acc = self._wave.divergence[region] = _zeros(1, warps)[0]
        acc += warps

    def on_watchdog_poll(self, polls: np.ndarray) -> None:
        """Each warp paused ``polls`` times to poll the host abort watchdog."""
        if self._wave.polls is None:
            self._wave.polls = _zeros(1, polls)[0]
        self._wave.polls += polls

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


class _Wave:
    """Per-warp accumulators of the wave being profiled."""

    def __init__(self, blocks: list, warps_per_block: int):
        self.blocks = blocks
        self.warps_per_block = warps_per_block
        #: (region, billed) -> per-warp transactions, active and coalesced
        #: access counts
        self.memory: dict = {}
        #: (region, store) -> per-warp access and bank-conflict counts
        self.shared: dict = {}
        #: region -> per-warp divergence counts
        self.divergence: dict = {}
        self.polls: Optional[np.ndarray] = None

    def per_block(self, per_warp: np.ndarray) -> np.ndarray:
        return per_warp.reshape(len(self.blocks), self.warps_per_block).sum(axis=1)


def _copy(counter: Counter) -> Counter:
    copy = Counter()
    dict.update(copy, counter)  # Counter's own update is several times slower
    return copy


def _zeros(n: int, like: np.ndarray) -> list[np.ndarray]:
    return [np.zeros(like.shape, dtype=np.int64) for _ in range(n)]


def _block_profile(keys, counts, thread_instructions, cycles, transactions,
                   divergences, events) -> BlockProfile:
    blk = BlockProfile(block_idx=(0, 0), thread_instructions=thread_instructions,
                       issue_cycles=cycles, mem_transactions=transactions,
                       divergences=divergences, events=Counter(events))
    for k in np.flatnonzero(counts):
        keyword, region, role, category = keys[k]
        n = int(counts[k])
        blk.warp_instructions += n
        blk.by_keyword[keyword] += n
        blk.by_category[category] += n
        blk.by_region[region or "(shared)"] += n
        blk.by_role[role or "(untagged)"] += n
    return blk


def _counter(counters: dict, key: str) -> Counter:
    """``counters[key]``, created empty on first use."""
    c = counters.get(key)
    if c is None:
        c = counters[key] = Counter()
    return c
