"""``repro.cluster`` — sharded multi-process serving over ``repro.serve``.

One :class:`~repro.serve.engine.ServeEngine` is bounded by one process's
cores and one plan cache. The cluster shards the serve stack across worker
processes without giving up any of its guarantees (see docs/cluster.md):

* :mod:`~repro.cluster.protocol` — length-prefixed JSON/binary frames,
  rendezvous hashing, span wire form, the cluster's typed error kinds;
* :mod:`~repro.cluster.worker` — a shard: one full ServeEngine behind a
  TCP port (``python -m repro.cluster.worker``);
* :mod:`~repro.cluster.router` — content-digest routing with a stable
  per-key failover order (same identity the plan caches key on);
* :mod:`~repro.cluster.manager` — :class:`LocalCluster`: spawn, monitor,
  kill, warm-respawn;
* :mod:`~repro.cluster.gateway` — asyncio front door: admission control,
  per-tenant quotas, priority classes, failover, cross-process trace
  stitching, merged Prometheus metrics;
* :mod:`~repro.cluster.warmstart` — per-slot autotune snapshots that seed
  replacement shards;
* :mod:`~repro.cluster.loadgen` / :mod:`~repro.cluster.bench` — the
  digest-verified synthetic load and the 1 -> N scaling curve.
"""

from .bench import format_cluster_report, run_cluster_bench
from .gateway import (
    PRIORITIES,
    ClusterRequest,
    ClusterResponse,
    Gateway,
    SyncGateway,
)
from .loadgen import (
    build_cluster_workload,
    format_load_report,
    reference_digests,
    run_load,
)
from .manager import LocalCluster, ShardProcess
from .protocol import (
    CLUSTER_ERROR_KINDS,
    MAX_FRAME,
    PROTOCOL_VERSION,
    ProtocolError,
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
from .router import NoLiveShards, Router, RoutingTable
from .warmstart import WarmStartStore
from .worker import SelectiveTracer, ShardServer

__all__ = [
    "CLUSTER_ERROR_KINDS",
    "MAX_FRAME",
    "PRIORITIES",
    "PROTOCOL_VERSION",
    "ClusterRequest",
    "ClusterResponse",
    "Gateway",
    "LocalCluster",
    "NoLiveShards",
    "ProtocolError",
    "Router",
    "RoutingTable",
    "SelectiveTracer",
    "ShardProcess",
    "ShardServer",
    "SyncGateway",
    "WarmStartStore",
    "array_digest",
    "build_cluster_workload",
    "decode_array",
    "encode_array",
    "format_cluster_report",
    "format_load_report",
    "pack_frame",
    "recv_frame",
    "reference_digests",
    "rendezvous_order",
    "run_cluster_bench",
    "run_load",
    "send_frame",
    "spans_from_wire",
    "spans_to_wire",
]
