"""Consistent-hash router: content digests -> shard slots, failover order.

Placement is the whole point of the cluster: a :class:`~repro.serve.cache.
PlanCache` and an :class:`~repro.serve.autotune.AutoTuner` are only fast
when the same workload keeps landing on the same engine. The router keys
placement on the same identity the caches key on — the content digest of the
workload's :class:`KernelDescription` chain (``combined_digest``), reached
through ``trace_app``, whose per-signature memo the engine shares, so a
warm route costs a dict lookup and one short hash.

Membership is a set of stable *slot names* (``"shard-0"``...), not
addresses: a replacement process for a dead slot inherits the slot name and
therefore the exact keyspace (and, via the warm-start tier, the dead
shard's learned autotune table). :func:`~repro.cluster.protocol.
rendezvous_order` gives every digest a stable preference list over slots;
the router serves from the first *live* entry, so killing one shard moves
only that shard's keys and every other key stays where its caches are warm.
"""

from __future__ import annotations

import threading
from typing import Optional, Sequence

from ..serve.plan import combined_digest, trace_app
from .protocol import rendezvous_order


class NoLiveShards(RuntimeError):
    """Every slot in the table is marked dead."""


class RoutingTable:
    """Thread-safe slot -> address map with liveness marks.

    The gateway's failover path and the manager's monitor both mutate this
    (mark_dead on a connection error, set_addr on a respawn), so every read
    takes a consistent snapshot under the lock. ``generation`` increments on
    each mutation — cheap staleness check for callers that cache a view.
    """

    def __init__(self, addrs: Optional[dict[str, tuple[str, int]]] = None):
        self._lock = threading.Lock()
        self._addrs: dict[str, tuple[str, int]] = dict(addrs or {})
        self._dead: set[str] = set()
        self.generation = 0

    def slots(self) -> list[str]:
        with self._lock:
            return sorted(self._addrs)

    def live_slots(self) -> list[str]:
        with self._lock:
            return sorted(s for s in self._addrs if s not in self._dead)

    def addr(self, slot: str) -> tuple[str, int]:
        with self._lock:
            return self._addrs[slot]

    def set_addr(self, slot: str, addr: tuple[str, int]) -> None:
        """Register (or re-register) a slot; a respawned shard revives here."""
        with self._lock:
            self._addrs[slot] = tuple(addr)
            self._dead.discard(slot)
            self.generation += 1

    def mark_dead(self, slot: str) -> None:
        with self._lock:
            if slot in self._addrs and slot not in self._dead:
                self._dead.add(slot)
                self.generation += 1

    def mark_live(self, slot: str) -> None:
        with self._lock:
            if slot in self._dead:
                self._dead.discard(slot)
                self.generation += 1

    def is_live(self, slot: str) -> bool:
        with self._lock:
            return slot in self._addrs and slot not in self._dead

    def remove(self, slot: str) -> None:
        with self._lock:
            self._addrs.pop(slot, None)
            self._dead.discard(slot)
            self.generation += 1


class Router:
    """Maps one request signature to its shard preference order.

    The routing key is the *content digest* of the workload — two apps whose
    kernel chains trace to identical descriptions share a digest and
    therefore a shard (and that shard's cached plan serves both). The digest
    comes from the same memoized :func:`~repro.serve.plan.trace_app` and
    per-description digests the shard's engine resolves plans with, so the
    two cannot disagree on a signature.
    """

    def __init__(self, table: RoutingTable):
        self.table = table

    def digest_for(self, app: str, pattern: str, width: int, height: int,
                   constant: float = 0.0) -> str:
        return combined_digest(trace_app(app, pattern, width, height, constant))

    def preference(self, digest: str) -> list[str]:
        """All slots, most-preferred first (ignores liveness — the failover
        loop walks this list and skips dead entries itself)."""
        slots = self.table.slots()
        if not slots:
            raise NoLiveShards("routing table is empty")
        return rendezvous_order(digest, slots)

    def route(self, app: str, pattern: str, width: int, height: int,
              constant: float = 0.0) -> list[str]:
        """Live slots for one request signature, most-preferred first."""
        digest = self.digest_for(app, pattern, width, height, constant)
        order = self.preference(digest)
        live = [s for s in order if self.table.is_live(s)]
        if not live:
            raise NoLiveShards(
                f"no live shard for digest {digest[:12]} "
                f"(table has {len(order)} slots, all dead)"
            )
        return live

    def placement(self, workloads: Sequence[tuple]) -> dict[str, list[tuple]]:
        """Primary placement of a workload list (for balance inspection):
        {slot: [workload, ...]} using each workload's first live choice."""
        out: dict[str, list[tuple]] = {s: [] for s in self.table.slots()}
        for w in workloads:
            out[self.route(*w)[0]].append(w)
        return out
