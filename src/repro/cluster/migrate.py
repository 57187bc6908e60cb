"""Live shard migration: move one shard between backends, losing nothing.

The sequence (coordinated from the proxy, executed over the wire)::

    hold(shard)                       # new submits park at the proxy
      wait_shard_idle(shard)          # admitted submits finish on the owner
        source: Migrate(shard)        #   backend quiesces + checkpoints
        target: Install(shard, ...)   #   backend restores the payload
      reassign(shard, target)         # epoch += 1, routing flips
    release(shard)                    # parked submits route to the target

Why no ticket is dropped and the ledger stays exact:

* The hold + idle-wait pair guarantees *quiescence*: every batch the old
  owner accepted for the shard is fully applied before capture, and no
  new batch can reach it (``admit`` checks holds under the same lock
  that increments the in-flight counts — see
  :class:`~repro.cluster.proxy.RoutingTable`).
* The checkpoint is the same pickled policy->cache->ledger object graph
  the fault-recovery path restores, so the target's engine resumes
  byte-identical to the source's — the per-shard ledger transfers
  exactly, and the cluster total equals a single-node run on the same
  seed.
* Routing flips only *after* a successful install; any failure raises
  :class:`~repro.errors.MigrationError` and leaves the map untouched, so
  parked submits simply resume against the original owner.

Trace marks never ship: they are file positions on the source host.  The
target's trace (if tracing) continues forward from its own clock.
"""

from __future__ import annotations

from repro.errors import MigrationError
from repro.net.client import PagingClient, RemoteError

__all__ = ["migrate_shard", "MIGRATION_MAX_FRAME_BYTES"]

#: Decoder cap for migration clients: checkpoint payloads ride base64 in
#: one frame, so the cap must cover the largest shard state (a few KiB
#: for test instances; this is generous headroom for real ones).
MIGRATION_MAX_FRAME_BYTES = 256 * 1024 * 1024


def migrate_shard(
    table,
    shard: int,
    target: str,
    *,
    timeout: float = 60.0,
    client_factory=PagingClient,
) -> dict:
    """Move ``shard`` to backend ``target`` through ``table``'s gates.

    ``table`` is the proxy's :class:`~repro.cluster.proxy.RoutingTable`.
    Returns ``{"moved", "shard", "source", "target", "epoch", "t",
    "detail"}``; asking for a shard already on ``target`` is a no-op
    (``moved`` False, current epoch).  Raises ``ValueError`` for a bad
    shard index and :class:`~repro.errors.MigrationError` when the move
    could not complete — in which case routing is unchanged.
    """
    with table.migration_lock:
        cmap = table.map
        source = cmap.owner_of(shard)  # validates the index
        target = str(target)
        if not target:
            raise ValueError("target backend address must be non-empty")
        if source == target:
            return {"moved": False, "shard": shard, "source": source,
                    "target": target, "epoch": cmap.epoch, "t": -1,
                    "detail": f"shard {shard} already on {target}"}
        table.hold(shard)
        try:
            if not table.wait_shard_idle(shard, timeout):
                raise MigrationError(
                    f"shard {shard} still had submits in flight after "
                    f"{timeout:g}s")
            try:
                with client_factory(
                    source, timeout=timeout,
                    max_frame_bytes=MIGRATION_MAX_FRAME_BYTES,
                ) as src:
                    t, payload = src.migrate_shard(shard, timeout=timeout)
                with client_factory(
                    target, timeout=timeout,
                    max_frame_bytes=MIGRATION_MAX_FRAME_BYTES,
                ) as dst:
                    if not dst.install_shard(shard, t, payload,
                                             timeout=timeout):
                        raise MigrationError(
                            f"backend {target} refused the install of "
                            f"shard {shard}")
            except (OSError, RemoteError) as exc:
                raise MigrationError(
                    f"migrating shard {shard} {source} -> {target} "
                    f"failed: {exc}") from exc
            new_map = table.reassign(shard, target)
        finally:
            table.release(shard)
    return {"moved": True, "shard": shard, "source": source,
            "target": target, "epoch": new_map.epoch, "t": t,
            "detail": f"shard {shard} moved {source} -> {target} at t={t}"}
