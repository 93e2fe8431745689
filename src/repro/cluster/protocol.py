"""Wire protocol of the cluster: length-prefixed JSON headers + raw binary.

Every message on a shard connection is one *frame*::

    u32 header_len | u32 payload_len | header (JSON, UTF-8) | payload (bytes)

The header is a small JSON object (``{"op": "run", ...}``); the payload is
opaque binary — a float32 image on the way in, a float32 result on the way
out. Keeping pixels out of JSON matters: a 512x512 request is 1 MB of
payload but would be ~7 MB of JSON floats, and the gateway shovels thousands
of these per second.

The same frame functions exist in blocking-socket form (shard workers and
control connections use plain threads) and asyncio form (the gateway's
event loop). Both sides enforce :data:`MAX_FRAME` so a corrupt or hostile
length prefix fails loudly instead of allocating gigabytes.

Also here, because every layer of the cluster shares them:

* :func:`rendezvous_order` — highest-random-weight (rendezvous) hashing.
  Each routing key gets a stable preference order over the shard *slots*;
  the first live shard serves it, so losing one shard only remaps that
  shard's keys (to their second choice) and every other key stays put —
  exactly the property that keeps per-shard plan/autotune caches hot
  through membership churn.
* span wire form — serialized :class:`repro.trace.Span` trees, anchored to
  unix time so a gateway can rebase a shard's spans onto its own timeline
  (perf_counter epochs do not survive a process boundary).
* :data:`CLUSTER_ERROR_KINDS` — the engine's typed failure set extended
  with the failure modes only a distributed deployment has.
"""

from __future__ import annotations

import hashlib
import json
import socket
import struct
from typing import Optional, Sequence

import numpy as np

from ..serve.engine import ERROR_KINDS
from ..trace.core import Span, Tracer

#: Protocol revision; a worker rejects frames from a different revision
#: loudly rather than mis-parsing them.
PROTOCOL_VERSION = 1

#: Hard cap on either frame segment (64 MiB covers a 4096x4096 float32
#: image with headroom); a prefix beyond it means stream corruption.
MAX_FRAME = 64 * 1024 * 1024

_PREFIX = struct.Struct(">II")

#: Every way a *cluster* request is allowed to fail: the engine's typed set
#: plus the distributed-only failure modes. The cluster chaos suite asserts
#: membership for every non-ok response, same invariant as the engine's.
CLUSTER_ERROR_KINDS = ERROR_KINDS + (
    "admission",          # gateway admission control rejected (load shedding)
    "quota",              # per-tenant in-flight quota exhausted
    "shard_unavailable",  # no live shard could serve after failover
    "bad_request",        # malformed frame / unknown image_ref / bad field
)


class ProtocolError(RuntimeError):
    """A frame violated the wire contract (bad prefix, oversize, bad JSON)."""


# ---------------------------------------------------------------------------
# Frames — blocking-socket form
# ---------------------------------------------------------------------------

def pack_frame(header: dict, payload: bytes = b"") -> bytes:
    """Serialize one frame (header JSON + optional binary payload)."""
    raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
    if len(raw) > MAX_FRAME or len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"frame too large (header {len(raw)}, payload {len(payload)})"
        )
    return _PREFIX.pack(len(raw), len(payload)) + raw + payload


def _parse_prefix(prefix: bytes) -> tuple[int, int]:
    header_len, payload_len = _PREFIX.unpack(prefix)
    if header_len > MAX_FRAME or payload_len > MAX_FRAME:
        raise ProtocolError(
            f"frame prefix claims {header_len}+{payload_len} bytes "
            f"(cap {MAX_FRAME}); stream is corrupt"
        )
    return header_len, payload_len


def _decode_header(raw: bytes) -> dict:
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"unparseable frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise ProtocolError(
            f"frame header must be an object, got {type(header).__name__}"
        )
    return header


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ``ConnectionError`` on EOF."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError(
                f"peer closed mid-frame ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, header: dict, payload: bytes = b"") -> None:
    sock.sendall(pack_frame(header, payload))


def recv_frame(sock: socket.socket) -> tuple[dict, bytes]:
    """Blocking read of one frame; raises ``ConnectionError`` on EOF."""
    header_len, payload_len = _parse_prefix(_recv_exactly(sock, _PREFIX.size))
    header = _decode_header(_recv_exactly(sock, header_len))
    payload = _recv_exactly(sock, payload_len) if payload_len else b""
    return header, payload


# ---------------------------------------------------------------------------
# Frames — asyncio form (the gateway side)
# ---------------------------------------------------------------------------

async def send_frame_async(writer, header: dict, payload: bytes = b"") -> None:
    writer.write(pack_frame(header, payload))
    await writer.drain()


async def recv_frame_async(reader) -> tuple[dict, bytes]:
    """Async read of one frame; raises ``ConnectionError`` on EOF."""
    import asyncio

    try:
        prefix = await reader.readexactly(_PREFIX.size)
        header_len, payload_len = _parse_prefix(prefix)
        header = _decode_header(await reader.readexactly(header_len))
        payload = (await reader.readexactly(payload_len)
                   if payload_len else b"")
    except asyncio.IncompleteReadError as exc:
        raise ConnectionError("peer closed mid-frame") from exc
    return header, payload


# ---------------------------------------------------------------------------
# Array payloads
# ---------------------------------------------------------------------------

def encode_array(arr: np.ndarray) -> tuple[dict, bytes]:
    """(metadata, bytes) for a numpy array payload (C-order, explicit dtype)."""
    arr = np.ascontiguousarray(arr)
    meta = {"dtype": arr.dtype.name, "shape": list(arr.shape)}
    return meta, arr.tobytes()


def decode_array(meta: dict, payload: bytes) -> np.ndarray:
    try:
        dtype = np.dtype(meta["dtype"])
        shape = tuple(int(d) for d in meta["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad array metadata {meta!r}") from exc
    expected = int(np.prod(shape)) * dtype.itemsize if shape else dtype.itemsize
    if len(payload) != expected:
        raise ProtocolError(
            f"array payload is {len(payload)} bytes, metadata implies "
            f"{expected} ({dtype.name} x {shape})"
        )
    return np.frombuffer(payload, dtype=dtype).reshape(shape).copy()


def array_digest(arr: np.ndarray) -> str:
    """Content digest of an array's raw bytes — the bit-exactness currency.

    The load generator compares shard responses against locally computed
    reference digests; two float32 images are bit-exact iff digests match.
    """
    arr = np.ascontiguousarray(arr)
    return hashlib.sha256(arr.tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# Rendezvous (highest-random-weight) hashing
# ---------------------------------------------------------------------------

def _weight(key: str, slot: str) -> int:
    digest = hashlib.sha256(f"{key}|{slot}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def rendezvous_order(key: str, slots: Sequence[str]) -> list[str]:
    """Shard slots ordered by preference for ``key`` (pure, stable).

    Highest weight first. Properties the router relies on:

    * removing a slot never reorders the survivors — failover for a dead
      primary is "next in the list", and keys whose primary is alive do
      not move at all;
    * adding a slot steals only the keys it now wins, ~1/n of the space.
    """
    return sorted(slots, key=lambda s: (_weight(key, s), s), reverse=True)


# ---------------------------------------------------------------------------
# Span wire form (cross-process trace propagation)
# ---------------------------------------------------------------------------

def spans_to_wire(spans: Sequence[Span], epoch_unix: float) -> list[dict]:
    """Serialize spans with unix-anchored times.

    ``epoch_unix`` is the recording tracer's epoch; span times are relative
    to it, so shipping ``epoch + rel`` lets any receiver rebase onto its own
    epoch without sharing a perf_counter origin.
    """
    out = []
    for s in spans:
        out.append({
            "name": s.name,
            "span_id": s.span_id,
            "parent_id": s.parent_id,
            "start_unix": epoch_unix + s.start_s,
            "end_unix": (epoch_unix + s.end_s) if s.end_s is not None else None,
            "status": s.status,
            "thread": s.thread,
            "attributes": _json_safe_attrs(s.attributes),
        })
    return out


def spans_from_wire(wire: Sequence[dict], tracer: Tracer) -> list[Span]:
    """Deserialize wire spans onto ``tracer``'s timeline (times rebased to
    its epoch); ids are left as sent — :meth:`Tracer.adopt_spans` namespaces
    them when grafting."""
    spans = []
    for d in wire:
        end_unix = d.get("end_unix")
        spans.append(Span(
            trace_id="",  # assigned on adoption
            span_id=str(d["span_id"]),
            parent_id=d.get("parent_id"),
            name=str(d["name"]),
            start_s=float(d["start_unix"]) - tracer.epoch_unix,
            end_s=(float(end_unix) - tracer.epoch_unix
                   if end_unix is not None else None),
            attributes=dict(d.get("attributes", {})),
            status=str(d.get("status", "ok")),
            thread=str(d.get("thread", "")),
        ))
    return spans


def _json_safe_attrs(attributes: dict) -> dict:
    from ..trace.exporters import _json_safe

    return {str(k): _json_safe(v) for k, v in attributes.items()}
