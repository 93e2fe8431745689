"""Units for the cluster wire protocol, routing, and warm-start store.

Everything here is in-process and socket-free (frames are exercised via
``pack_frame`` + a socketpair) — the cross-process paths live in
``test_cluster_gateway.py`` / ``test_cluster_chaos.py``.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest

from repro.cluster import (
    CLUSTER_ERROR_KINDS,
    ProtocolError,
    RoutingTable,
    Router,
    NoLiveShards,
    WarmStartStore,
    array_digest,
    decode_array,
    encode_array,
    pack_frame,
    recv_frame,
    rendezvous_order,
    send_frame,
    spans_from_wire,
    spans_to_wire,
)
from repro.cluster.protocol import MAX_FRAME, _parse_prefix
from repro.serve.engine import ERROR_KINDS
from repro.trace.core import Span, Tracer


# ---------------------------------------------------------------------------
# Frames
# ---------------------------------------------------------------------------

class TestFrames:
    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(5)
        b.settimeout(5)
        return a, b

    def test_roundtrip_header_and_payload(self):
        a, b = self._pair()
        try:
            send_frame(a, {"op": "run", "n": 3}, b"\x00\x01\x02")
            header, payload = recv_frame(b)
            assert header == {"op": "run", "n": 3}
            assert payload == b"\x00\x01\x02"
        finally:
            a.close()
            b.close()

    def test_empty_payload(self):
        a, b = self._pair()
        try:
            send_frame(a, {"op": "ping"})
            header, payload = recv_frame(b)
            assert header["op"] == "ping"
            assert payload == b""
        finally:
            a.close()
            b.close()

    def test_multiple_frames_in_sequence(self):
        a, b = self._pair()
        try:
            for i in range(5):
                send_frame(a, {"i": i}, bytes([i]))
            for i in range(5):
                header, payload = recv_frame(b)
                assert header["i"] == i
                assert payload == bytes([i])
        finally:
            a.close()
            b.close()

    def test_eof_mid_frame_raises_connection_error(self):
        a, b = self._pair()
        frame = pack_frame({"op": "run"}, b"x" * 100)
        a.sendall(frame[: len(frame) // 2])
        a.close()
        try:
            with pytest.raises(ConnectionError):
                recv_frame(b)
        finally:
            b.close()

    def test_oversize_prefix_rejected(self):
        import struct

        with pytest.raises(ProtocolError, match="corrupt"):
            _parse_prefix(struct.pack(">II", MAX_FRAME + 1, 0))

    def test_oversize_payload_rejected_on_send(self):
        with pytest.raises(ProtocolError, match="too large"):
            pack_frame({}, b"\x00" * (MAX_FRAME + 1))

    def test_non_object_header_rejected(self):
        a, b = self._pair()
        try:
            import struct

            raw = b"[1,2]"
            a.sendall(struct.pack(">II", len(raw), 0) + raw)
            with pytest.raises(ProtocolError, match="must be an object"):
                recv_frame(b)
        finally:
            a.close()
            b.close()


# ---------------------------------------------------------------------------
# Array codec
# ---------------------------------------------------------------------------

class TestArrayCodec:
    def test_roundtrip_is_bit_exact(self):
        arr = np.random.default_rng(0).random((33, 71)).astype(np.float32)
        meta, payload = encode_array(arr)
        back = decode_array(meta, payload)
        assert back.dtype == np.float32
        assert np.array_equal(back, arr)
        assert array_digest(back) == array_digest(arr)

    def test_non_contiguous_input(self):
        arr = np.arange(64, dtype=np.float32).reshape(8, 8)[:, ::2]
        meta, payload = encode_array(arr)
        assert np.array_equal(decode_array(meta, payload), arr)

    def test_length_mismatch_rejected(self):
        meta, payload = encode_array(np.zeros((4, 4), dtype=np.float32))
        with pytest.raises(ProtocolError, match="implies"):
            decode_array(meta, payload[:-1])

    def test_bad_metadata_rejected(self):
        with pytest.raises(ProtocolError):
            decode_array({"dtype": "no-such-dtype", "shape": [2]}, b"\x00" * 8)

    def test_digest_tracks_content(self):
        a = np.zeros((8, 8), dtype=np.float32)
        b = a.copy()
        b[3, 3] = np.float32(1e-30)  # one ULP-scale change flips the digest
        assert array_digest(a) != array_digest(b)


# ---------------------------------------------------------------------------
# Rendezvous hashing
# ---------------------------------------------------------------------------

class TestRendezvous:
    SLOTS = [f"shard-{i}" for i in range(5)]

    def test_deterministic(self):
        for key in ("a", "b", "digest-123"):
            assert rendezvous_order(key, self.SLOTS) == \
                rendezvous_order(key, self.SLOTS)

    def test_is_a_permutation(self):
        order = rendezvous_order("k", self.SLOTS)
        assert sorted(order) == sorted(self.SLOTS)

    def test_removal_preserves_survivor_order(self):
        # The consistent-hashing property: dropping one slot never reorders
        # the remaining preference list for any key.
        for key in (f"key-{i}" for i in range(50)):
            full = rendezvous_order(key, self.SLOTS)
            for removed in self.SLOTS:
                reduced = rendezvous_order(
                    key, [s for s in self.SLOTS if s != removed])
                assert reduced == [s for s in full if s != removed]

    def test_distribution_is_roughly_uniform(self):
        counts = {s: 0 for s in self.SLOTS}
        n = 2000
        for i in range(n):
            counts[rendezvous_order(f"key-{i}", self.SLOTS)[0]] += 1
        for slot, c in counts.items():
            assert 0.5 * n / 5 < c < 1.5 * n / 5, counts


# ---------------------------------------------------------------------------
# Routing table + router
# ---------------------------------------------------------------------------

class TestRouting:
    def _table(self, n=3):
        t = RoutingTable()
        for i in range(n):
            t.set_addr(f"shard-{i}", ("127.0.0.1", 9000 + i))
        return t

    def test_live_slots_tracks_marks(self):
        t = self._table()
        assert t.live_slots() == ["shard-0", "shard-1", "shard-2"]
        t.mark_dead("shard-1")
        assert t.live_slots() == ["shard-0", "shard-2"]
        assert not t.is_live("shard-1")
        t.mark_live("shard-1")
        assert t.is_live("shard-1")

    def test_generation_increments_on_mutation(self):
        t = self._table()
        g = t.generation
        t.mark_dead("shard-0")
        assert t.generation == g + 1
        t.mark_dead("shard-0")  # no-op: already dead
        assert t.generation == g + 1

    def test_respawn_revives_slot(self):
        t = self._table()
        t.mark_dead("shard-2")
        t.set_addr("shard-2", ("127.0.0.1", 9999))
        assert t.is_live("shard-2")
        assert t.addr("shard-2") == ("127.0.0.1", 9999)

    def test_router_routes_by_content_digest(self):
        r = Router(self._table())
        first = r.route("gaussian", "clamp", 64, 64)
        # Deterministic and stable across calls (memoized digest).
        assert r.route("gaussian", "clamp", 64, 64) == first
        assert len(first) == 3

    def test_router_failover_order_skips_dead(self):
        r = Router(self._table())
        order = r.route("gaussian", "clamp", 64, 64)
        r.table.mark_dead(order[0])
        after = r.route("gaussian", "clamp", 64, 64)
        assert after == order[1:]  # survivors keep their relative order

    def test_router_no_live_shards(self):
        r = Router(self._table(1))
        r.table.mark_dead("shard-0")
        with pytest.raises(NoLiveShards):
            r.route("gaussian", "clamp", 64, 64)

    def test_router_digest_is_the_shard_engines_plan_digest(self):
        # Gateway side: ClusterRequest normalizes the constant and the router
        # digests it. Shard side: the constant crosses the wire in a frame
        # header and the worker's engine resolves the plan key from it.
        from repro.cluster import ClusterRequest
        from repro.serve import Request, ServeEngine

        r = Router(self._table())
        image = np.zeros((16, 16), np.float32)
        constants = [0, 0.0, -0.0, float("nan"), np.float32(0.3), 0.3]
        with ServeEngine(workers=1) as engine:
            for c in constants:
                creq = ClusterRequest("gaussian", image=image,
                                      pattern="constant", variant="naive",
                                      constant=c)
                routed = r.digest_for("gaussian", "constant", 16, 16,
                                      creq.constant)
                a, b = socket.socketpair()
                with a, b:
                    send_frame(a, {"constant": creq.constant})
                    header, _ = recv_frame(b)
                resp = engine.run([Request(
                    app="gaussian", image=image, pattern="constant",
                    variant="naive", constant=float(header["constant"]))])[0]
                assert resp.ok, resp.error
                assert routed == resp.plan_key.digest, c

    def test_distinct_workloads_spread(self):
        # 10 kinds over 3 shards: placement must use more than one shard.
        r = Router(self._table())
        apps = ("gaussian", "laplace", "bilateral", "sobel", "night")
        slots = {
            r.route(a, p, 64, 64)[0]
            for a in apps for p in ("clamp", "mirror")
        }
        assert len(slots) >= 2


# ---------------------------------------------------------------------------
# Error kinds
# ---------------------------------------------------------------------------

def test_cluster_error_kinds_extend_engine_kinds():
    assert set(ERROR_KINDS) < set(CLUSTER_ERROR_KINDS)
    for kind in ("admission", "quota", "shard_unavailable", "bad_request"):
        assert kind in CLUSTER_ERROR_KINDS


# ---------------------------------------------------------------------------
# Span wire form
# ---------------------------------------------------------------------------

class TestSpanWire:
    def test_roundtrip_rebases_times(self):
        src = Tracer(sample_rate=1.0)
        root = src.start_trace("request", key="r1", app="gaussian")
        child = src.start_span("execute", root)
        src.finish(child)
        src.finish(root)

        wire = spans_to_wire(src.spans(), src.epoch_unix)
        dst = Tracer(sample_rate=1.0)
        back = spans_from_wire(wire, dst)
        assert [s.name for s in back] == ["execute", "request"]
        for w, s in zip(wire, back):
            # unix-anchored wire time == dst epoch + rebased relative time
            assert abs((dst.epoch_unix + s.start_s) - w["start_unix"]) < 1e-6
        # parent links and attributes survive
        assert back[0].parent_id == back[1].span_id
        assert back[1].attributes["app"] == "gaussian"

    def test_adoption_yields_single_tree(self):
        src = Tracer(sample_rate=1.0)
        r = src.start_trace("request", key="r1")
        c = src.start_span("plan", r)
        src.finish(c)
        src.finish(r)
        wire = spans_to_wire(src.spans(), src.epoch_unix)

        dst = Tracer(sample_rate=1.0)
        root = dst.start_trace("gateway.request", key="g1")
        adopted = dst.adopt_spans(spans_from_wire(wire, dst), parent=root,
                                  prefix="shard-0.")
        dst.finish(root)

        spans = dst.spans()
        ids = {s.span_id for s in spans}
        orphans = [s for s in spans
                   if s.parent_id is not None and s.parent_id not in ids]
        roots = [s for s in spans if s.parent_id is None]
        assert not orphans
        assert len(roots) == 1 and roots[0].name == "gateway.request"
        assert all(s.span_id.startswith("shard-0.") for s in adopted)
        assert all(s.trace_id == roots[0].trace_id for s in spans)


# ---------------------------------------------------------------------------
# Warm-start store
# ---------------------------------------------------------------------------

class TestWarmStartStore:
    def test_paths_are_per_slot(self, tmp_path):
        store = WarmStartStore(tmp_path)
        assert store.path_for("0") != store.path_for("1")
        assert not store.has_snapshot("0")
        assert store.configs("0") == 0

    def test_reads_tuner_save_format(self, tmp_path):
        from repro.serve import AutoTuner

        store = WarmStartStore(tmp_path)
        tuner = AutoTuner(path=store.path_for("0"))
        tuner.save()
        assert store.has_snapshot("0")
        assert store.configs("0") == 0  # empty table, valid file
        assert store.slots() == ["0"]

    def test_corrupt_snapshot_reads_as_none(self, tmp_path):
        store = WarmStartStore(tmp_path)
        store.path_for("0").write_text("{not json")
        assert store.read("0") is None
        assert store.configs("0") == 0


# ---------------------------------------------------------------------------
# run_batch op (in-process ShardServer.handle — no sockets)
# ---------------------------------------------------------------------------

class TestRunBatchOp:
    """One frame, N same-signature requests, one (N, H, W) reply payload."""

    @pytest.fixture(scope="class")
    def shard(self):
        from repro.cluster.worker import ShardServer

        server = ShardServer(slot="t0", engine_kwargs={
            "workers": 1, "batch_size": 8})
        yield server
        server.close()

    def _stack(self, n=4, size=48, seed=5):
        rng = np.random.default_rng(seed)
        return rng.random((n, size, size)).astype(np.float32)

    def test_array_mode_bit_exact(self, shard):
        from repro.serve.plan import build_plan

        stack = self._stack()
        meta, payload = encode_array(stack)
        reply, out_payload = shard.handle({
            "op": "run_batch", "app": "gaussian", "pattern": "mirror",
            "variant": "prepad", "array": meta,
        }, payload)
        assert reply["ok"], reply
        assert reply["count"] == 4
        assert reply["slot"] == "t0"
        assert all(row["ok"] for row in reply["results"])
        assert all(row["variant"] == "prepad" for row in reply["results"])
        outputs = decode_array(reply["array"], out_payload)
        assert outputs.shape == stack.shape
        plan = build_plan("gaussian", "mirror", 48, 48, variant="prepad")
        for i in range(stack.shape[0]):
            assert np.array_equal(outputs[i], plan.execute(stack[i])), i

    def test_digest_mode(self, shard):
        from repro.serve.plan import build_plan

        stack = self._stack(n=3)
        meta, payload = encode_array(stack)
        reply, out_payload = shard.handle({
            "op": "run_batch", "app": "sobel", "variant": "prepad",
            "array": meta, "return": "digest",
        }, payload)
        assert reply["ok"], reply
        assert out_payload == b""
        plan = build_plan("sobel", "clamp", 48, 48, variant="prepad")
        assert reply["digests"] == [
            array_digest(plan.execute(stack[i])) for i in range(3)
        ]

    def test_empty_payload_rejected(self, shard):
        with pytest.raises(ProtocolError, match="inline"):
            shard.handle({"op": "run_batch", "app": "gaussian"}, b"")

    def test_non_batch_shape_rejected(self, shard):
        meta, payload = encode_array(
            np.zeros((8, 8), dtype=np.float32))
        with pytest.raises(ProtocolError, match=r"\(N, H, W\)"):
            shard.handle({"op": "run_batch", "app": "gaussian",
                          "array": meta}, payload)
