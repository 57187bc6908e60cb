"""Service configuration and shard-capacity planning.

A :class:`ServiceConfig` fixes everything needed to reproduce a serving run
bit-for-bit: the instance, the policy factory, the shard count, the batching
and backpressure parameters, and the master seed from which every shard's
generator is derived (:func:`repro.sim.seeding.spawn_seeds`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from repro.algorithms.base import Policy
from repro.core.instance import MultiLevelInstance
from repro.errors import ServiceConfigError
from repro.obs.registry import MetricsRegistry

__all__ = ["ServiceConfig"]


@dataclass(frozen=True)
class ServiceConfig:
    """Immutable configuration of a :class:`~repro.service.server.PagingService`.

    Parameters
    ----------
    instance:
        The *global* instance: its ``cache_size`` is the total capacity
        ``k``, split across shards (see :meth:`shard_capacities`).
    policy_factory:
        Zero-argument callable building a fresh policy per shard.
    n_shards:
        Number of independent shard engines.
    batch_size:
        Micro-batch size used by :class:`~repro.service.ingest.MicroBatcher`
        and the load generator.
    queue_depth:
        Maximum pending batches per shard queue; a submission that would
        exceed it returns :class:`~repro.service.ingest.Overloaded`.
    flush_interval:
        Seconds a partially filled micro-batch may wait before it is
        flushed anyway.
    seed:
        Master seed; shard ``i`` gets the ``i``-th spawned child stream.
    validate:
        Run the simulator's per-request invariant verification inside the
        engines (slower; on by default in tests, off for serving).
    metrics_registry:
        Optional :class:`~repro.obs.MetricsRegistry` the service and its
        shard engines publish exposition metrics into.  ``None`` (the
        default) routes every metrics call to the shared no-op sink.
    checkpoint_interval:
        Requests between per-shard checkpoints; ``0`` (the default)
        disables checkpointing *and* recovery — a dead worker then fails
        its pending tickets and surfaces the error on the next
        submit/drain, the pre-recovery behavior.  Any positive value arms
        the supervisor: dead workers restart from their last checkpoint
        and replay the suffix from the in-memory log.
    max_restarts:
        Per-shard restart budget.  A shard that dies more than this many
        times is marked *failed*: its pending tickets complete with a
        failure result and future submissions touching it return
        :class:`~repro.service.ingest.Failed`.
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan` — the deterministic
        chaos schedule injected into the shard workers.  ``None`` (the
        default) injects nothing; production configs never set this.
        Every spec must name a shard below ``n_shards``.
    backend:
        Shard execution backend, one of ``"inline"``, ``"thread"`` (the
        default) or ``"process"``:

        * ``inline`` — :meth:`~repro.service.server.PagingService.start`
          is a no-op; batches are served on the submitting thread.
          Deterministic, zero queueing — the benchmark/test mode.  There
          is no shard worker to fail or recover, so it takes neither a
          ``fault_plan`` nor a ``checkpoint_interval``.
        * ``thread`` — one worker thread per shard after ``start()``
          (submissions before ``start()`` still serve inline).  Buys
          queueing and backpressure, not CPU parallelism (the serve
          loops are GIL-bound).
        * ``process`` — one spawned worker *process* per shard, fed over
          a pipe.  Requires ``start()`` before any traffic, a picklable
          ``policy_factory`` (registered policy classes are), and — from
          a script — the standard ``if __name__ == "__main__"`` guard
          (the spawn context re-imports the main module).  The only
          backend whose throughput scales with cores.
    """

    instance: MultiLevelInstance
    policy_factory: Callable[[], Policy]
    n_shards: int = 1
    batch_size: int = 512
    queue_depth: int = 64
    flush_interval: float = 0.005
    seed: int = 0
    validate: bool = False
    policy_name: str = field(default="", compare=False)
    metrics_registry: MetricsRegistry | None = field(
        default=None, compare=False, repr=False
    )
    checkpoint_interval: int = 0
    max_restarts: int = 3
    fault_plan: object | None = field(default=None, compare=False, repr=False)
    backend: str = "thread"

    def __post_init__(self) -> None:
        if self.backend not in ("inline", "thread", "process"):
            raise ServiceConfigError(
                f"backend must be one of 'inline', 'thread', 'process'; "
                f"got {self.backend!r}"
            )
        if self.n_shards < 1:
            raise ServiceConfigError(f"n_shards must be >= 1, got {self.n_shards}")
        if self.batch_size < 1:
            raise ServiceConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.queue_depth < 1:
            raise ServiceConfigError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.flush_interval <= 0:
            raise ServiceConfigError(
                f"flush_interval must be > 0, got {self.flush_interval}"
            )
        if self.checkpoint_interval < 0:
            raise ServiceConfigError(
                f"checkpoint_interval must be >= 0, got {self.checkpoint_interval}"
            )
        if self.max_restarts < 0:
            raise ServiceConfigError(
                f"max_restarts must be >= 0, got {self.max_restarts}"
            )
        if self.backend == "inline" and (self.fault_plan is not None
                                         or self.checkpoint_interval > 0):
            raise ServiceConfigError(
                "the inline backend has no shard worker to fail or recover: "
                "fault_plan and checkpoint_interval need backend 'thread' "
                "or 'process'"
            )
        if self.fault_plan is not None:
            shard = max((spec.shard for spec in self.fault_plan.specs),
                        default=-1)
            if shard >= self.n_shards:
                raise ServiceConfigError(
                    f"fault plan names shard {shard}, but the service has "
                    f"{self.n_shards} shard(s)"
                )
        k = self.instance.cache_size
        if self.n_shards > k:
            raise ServiceConfigError(
                f"cannot split capacity k={k} across {self.n_shards} shards: "
                "every shard needs at least one slot"
            )
        # Each shard sees the full page universe (routing restricts which
        # pages actually arrive), so per-shard capacity must respect k < n.
        if max(self.shard_capacities()) >= self.instance.n_pages:
            raise ServiceConfigError(
                f"shard capacity {max(self.shard_capacities())} must stay below "
                f"the page universe size {self.instance.n_pages}"
            )

    @classmethod
    def from_policy_name(cls, name: str, instance: MultiLevelInstance,
                         **kwargs) -> "ServiceConfig":
        """Build a config from a registered policy name (CLI path)."""
        from repro.algorithms import policy_registry

        if name not in policy_registry:
            raise ServiceConfigError(
                f"unknown policy {name!r}; available: "
                f"{', '.join(sorted(policy_registry))}"
            )
        return cls(instance=instance, policy_factory=policy_registry[name],
                   policy_name=name, **kwargs)

    def shard_capacities(self) -> list[int]:
        """Per-shard cache capacities: ``k`` split as evenly as possible.

        The first ``k mod n_shards`` shards get the extra slot, so the
        total always equals the global ``k``.
        """
        k, n = self.instance.cache_size, self.n_shards
        base, extra = divmod(k, n)
        return [base + (1 if i < extra else 0) for i in range(n)]

    def shard_instances(self) -> list[MultiLevelInstance]:
        """One instance per shard: full weight matrix, partitioned capacity."""
        return [
            MultiLevelInstance(
                cap, self.instance.weights,
                name=f"{self.instance.name}/shard{i}",
            )
            for i, cap in enumerate(self.shard_capacities())
        ]
