"""repro.cluster — multi-node serving over the repro.net wire protocol.

Three pieces turn N independent ``repro serve`` backends into one
cluster:

* :class:`ClusterMap` (:mod:`repro.cluster.map`) — the epoch-numbered
  shard -> backend assignment both sides agree on;
* :class:`ClusterProxy` (:mod:`repro.cluster.proxy`) — the single-node
  :class:`~repro.net.NetServer` front door over a :class:`RemoteService`
  that consistent-hashes pages to cluster shards, pipelines per-backend
  parts, merges acks, aggregates snapshots, and retries ``overloaded``
  answers;
* :func:`migrate_shard` (:mod:`repro.cluster.migrate`) — live shard
  migration over the :class:`~repro.net.Migrate` /
  :class:`~repro.net.Install` wire messages: quiesce, checkpoint, ship,
  restore, flip the epoch — with zero dropped tickets.

The correctness contract is inherited from the single-node service:
backends replicate the full shard set from identical seeds, so the
cluster's total cost ledger is *exactly* the single-node ledger for the
same workload — migrations included.  ``repro cluster --help`` is the
operational entry point.
"""

from repro.cluster.map import ClusterMap
from repro.cluster.migrate import MIGRATION_MAX_FRAME_BYTES, migrate_shard
from repro.cluster.proxy import ClusterProxy, RemoteService, RoutingTable

__all__ = [
    "ClusterMap",
    "ClusterProxy",
    "RemoteService",
    "RoutingTable",
    "migrate_shard",
    "MIGRATION_MAX_FRAME_BYTES",
]
