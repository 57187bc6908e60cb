"""Autoscaling: spawn / drain / retire backends behind a live proxy.

The autoscaler closes the *capacity* loop the admission controller
leaves open: when pressure stays high even with tight admission, the
right answer is more serving capacity, not more shedding.  It watches
the same folded pressure scalar through the same
:class:`~repro.control.controller.GovernedLoop` (so its
:class:`~repro.control.controller.HysteresisGovernor` never flaps
either), and acts through live shard migration:

* **scale up** — ask the :class:`Spawner` for a fresh backend, then
  move shards onto it along the deterministic
  :meth:`~repro.cluster.ClusterMap.rebalance_moves` plan for the grown
  pool.  Every move is a full quiesce → checkpoint → ship → restore
  migration, so not a single ticket is dropped and the merged ledger
  stays ``==``-equal to the single-node reference.
* **scale down** — :func:`drain_backend` the most recently added
  backend (move *all* its shards back onto the survivors along the
  shrunk pool's plan), then let the spawner retire the process.

``Spawner`` is deliberately small — ``spawn() -> address`` and
``retire(address)`` — so tests can scale with in-process backends while
the CLI uses :class:`SubprocessSpawner` to launch real
``repro serve --listen`` processes.
"""

from __future__ import annotations

import subprocess
import sys
import threading
from time import monotonic

from repro.cluster.proxy import ClusterProxy
from repro.control.controller import ControllerConfig, GovernedLoop
from repro.errors import ServiceConfigError
from repro.obs.registry import MetricsRegistry, null_registry

__all__ = [
    "Autoscaler",
    "SubprocessSpawner",
    "drain_backend",
]


def drain_backend(proxy: ClusterProxy, address: str) -> list[int]:
    """Live-migrate every shard off ``address``; returns the shards moved.

    The destination of each shard comes from the *shrunk* pool's
    :meth:`~repro.cluster.ClusterMap.rebalance_moves` plan — the same
    deterministic plan ``repro cluster rebalance`` follows — so a drain
    followed by a re-add is reproducible.  The drained backend stays up
    (and in the routing table's history) but owns nothing; retiring the
    process is the caller's business.
    """
    cmap = proxy.table.map
    if address not in cmap.backends:
        raise ServiceConfigError(
            f"backend {address!r} not in cluster "
            f"{list(cmap.backends)}")
    remaining = [b for b in cmap.backends if b != address]
    if not remaining:
        raise ServiceConfigError(
            f"cannot drain {address!r}: it is the last backend")
    moved = []
    for shard, source, target in cmap.rebalance_moves(remaining):
        if source != address:
            continue
        proxy.migrate(shard, target)
        moved.append(shard)
    return moved


class SubprocessSpawner:
    """Spawns real ``repro serve --listen`` backends as subprocesses.

    ``base_args`` is everything after ``repro serve`` *except*
    ``--listen`` (workload, policy, shards, seed...) — it must describe
    the same service configuration as the existing backends, since
    cluster correctness rests on every backend replicating the full
    shard set from identical seeds.
    """

    def __init__(self, base_args: list[str], *, host: str = "127.0.0.1",
                 startup_timeout_s: float = 30.0) -> None:
        self.base_args = list(base_args)
        self.host = host
        self.startup_timeout_s = startup_timeout_s
        self._procs: dict[str, subprocess.Popen] = {}

    def spawn(self) -> str:
        """Launch one backend; blocks until it reports its listen address."""
        cmd = [sys.executable, "-m", "repro.cli", "serve",
               *self.base_args, "--listen", f"{self.host}:0"]
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        deadline = monotonic() + self.startup_timeout_s
        address = None
        assert proc.stdout is not None
        while monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            if "listening on " in line:
                address = line.rsplit("listening on ", 1)[1].strip()
                break
        if address is None:
            proc.kill()
            raise ServiceConfigError(
                "spawned backend never reported a listen address")
        # Keep the pipe from filling up once we stop reading it.
        threading.Thread(target=_drain_pipe, args=(proc.stdout,),
                         daemon=True).start()
        self._procs[address] = proc
        return address

    def retire(self, address: str) -> None:
        """Terminate the backend at ``address`` (idempotent)."""
        proc = self._procs.pop(address, None)
        if proc is None:
            return
        proc.terminate()
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def retire_all(self) -> None:
        for address in list(self._procs):
            self.retire(address)

    def __enter__(self) -> "SubprocessSpawner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.retire_all()


def _drain_pipe(stream) -> None:
    for _ in stream:
        pass


class Autoscaler(GovernedLoop):
    """Pressure-driven backend pool sizing through live migration.

    ``signals`` is normally the same :class:`~repro.obs.SignalReader`
    the admission controller polls, pointed at the federated cluster
    page.  ``spawner`` provides ``spawn() -> address`` /
    ``retire(address)``.

    Scale-ups add one backend and rebalance onto it; scale-downs drain
    the most recent addition and retire it.  Both paths are pure
    sequences of live migrations, so the zero-loss ledger guarantee of
    :func:`~repro.cluster.migrate_shard` carries through every scale
    event.
    """

    def __init__(self, proxy: ClusterProxy, spawner, signals, *,
                 config: ControllerConfig | None = None,
                 min_backends: int = 1, max_backends: int = 8,
                 registry: MetricsRegistry | None = None,
                 clock=monotonic) -> None:
        if not 1 <= min_backends <= max_backends:
            raise ServiceConfigError(
                "need 1 <= min_backends <= max_backends, got "
                f"[{min_backends}, {max_backends}]")
        super().__init__(signals, config if config is not None
                         else ControllerConfig(interval_s=0.25, dwell_s=2.0),
                         clock)
        self.proxy = proxy
        self.spawner = spawner
        self.min_backends = min_backends
        self.max_backends = max_backends
        #: Backends this autoscaler added, most recent last (scale-down
        #: retires in LIFO order and never touches the seed pool).
        self.spawned: list[str] = []
        reg = registry if registry is not None else null_registry()
        self._m_backends = reg.gauge(
            "repro_ctl_backends", "Live backends behind the proxy")
        self._m_events = reg.counter(
            "repro_ctl_scale_events_total",
            "Completed scale events by direction", ("direction",))
        self._m_backends.set(len(self.proxy.table.map.backends))
        self._lock = threading.Lock()

    @property
    def n_backends(self) -> int:
        return len(self.proxy.table.map.backends)

    def _act(self, decision: str) -> str | None:
        """Scale; returns ``"up"`` / ``"down"`` when it did."""
        with self._lock:
            if decision == "tighten":
                return "up" if self._scale_up() else None
            return "down" if self._scale_down() else None

    def _scale_up(self) -> bool:
        cmap = self.proxy.table.map
        if len(cmap.backends) >= self.max_backends:
            return False
        address = self.spawner.spawn()
        pool = list(cmap.backends) + [address]
        for shard, source, target in cmap.rebalance_moves(pool):
            if target != address:
                continue
            self.proxy.migrate(shard, target)
        self.spawned.append(address)
        self._m_backends.set(len(self.proxy.table.map.backends))
        self._m_events.labels("up").inc()
        return True

    def _scale_down(self) -> bool:
        if not self.spawned:
            return False
        if self.n_backends <= self.min_backends:
            return False
        address = self.spawned.pop()
        drain_backend(self.proxy, address)
        self.spawner.retire(address)
        self._m_backends.set(len(self.proxy.table.map.backends))
        self._m_events.labels("down").inc()
        return True
