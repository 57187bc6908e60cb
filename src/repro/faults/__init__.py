"""Deterministic fault injection and shard checkpoint/recovery.

Quickstart — kill shard 0 mid-run and let the service recover::

    from repro.faults import FaultPlan
    from repro.service import PagingService, ServiceConfig

    config = ServiceConfig.from_policy_name(
        "waterfilling-kernel", inst, n_shards=4,
        fault_plan=FaultPlan.parse("kill:0@10000"),
        checkpoint_interval=4096,
    )
    with PagingService(config) as svc:
        ...  # the supervisor restarts shard 0 from its last checkpoint
             # and replays the suffix; final cost == fault-free cost.

The pieces:

* :class:`FaultPlan` / :class:`FaultSpec` — a seeded, fire-once schedule
  of ``kill`` / ``delay`` / ``drop`` faults pinned to (shard, logical t).
* :class:`ShardCheckpoint` — a consistent deep copy of one shard engine's
  policy + cache + ledger (+ RNG and trace cursor), restorable repeatedly.
* :class:`~repro.errors.InjectedFault` — the exception injected faults
  raise, re-exported here for chaos tests.
"""

from repro.errors import InjectedFault
from repro.faults.checkpoint import ShardCheckpoint
from repro.faults.plan import FAULT_KINDS, FaultPlan, FaultSpec

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "ShardCheckpoint",
]
