"""Experience recording and replay: tuning decisions from served traffic.

An :class:`ExperienceRecorder` attached to a live
:class:`~repro.service.server.PagingService`
(:meth:`~repro.service.server.PagingService.attach_recorder`) captures
every admitted shard slice — ``(pages, levels)`` in per-shard arrival
order, which *is* the order the engines serve — plus the run's exact
configuration and final ledger.  :meth:`ExperienceRecorder.save` writes
a compact ``.npz`` (or grep-able ``.jsonl``) experience file;
:class:`ReplayEngine` re-serves it under the recorded or alternative
policies/configurations and diffs cost, latency percentiles and shed
rate.

The determinism contract this module is built on: per-shard request
order fully determines each shard engine's ledger.  Replaying the
recorded per-shard streams through freshly built engines with the same
policy, capacity split and seeds therefore reproduces the live run's
eviction cost ``==``-exactly — the acceptance gate E19 enforces.  An
*alternative* policy or cache size replays the same streams through a
different engine build, making A/B cost comparisons exact rather than
workload-resampled.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis.tables import Table
from repro.core.instance import MultiLevelInstance
from repro.errors import ServiceConfigError
from repro.service.config import ServiceConfig
from repro.service.loadgen import LoadReport, run_load
from repro.service.profiles import RateProfile
from repro.service.server import PagingService

__all__ = [
    "Experience",
    "ExperienceRecorder",
    "ReplayEngine",
    "ReplayResult",
]

EXPERIENCE_VERSION = 1


def _policy_name(config: ServiceConfig) -> str:
    """The name replay resolves: the CLI's, else the factory's registry
    name (a bare callable has none; replay then reports it unknown)."""
    factory = config.policy_factory
    return config.policy_name or getattr(factory, "name", factory.__name__)


def _meta_from_service(service: PagingService) -> dict:
    """The configuration + final-ledger facts replay needs, from a live
    service."""
    config = service.config
    snap = service.snapshot()
    return {
        "version": EXPERIENCE_VERSION,
        "policy": _policy_name(config),
        "cache_size": int(config.instance.cache_size),
        "n_shards": int(config.n_shards),
        "seed": int(config.seed),
        "batch_size": int(config.batch_size),
        "live": {
            "n_requests": int(snap.n_requests),
            "n_hits": int(snap.n_hits),
            "n_misses": int(snap.n_misses),
            "n_evictions": sum(int(s.n_evictions) for s in snap.shards),
            "eviction_cost": float(snap.eviction_cost),
            "cost_by_level": {str(k): float(v)
                              for k, v in snap.cost_by_level().items()},
        },
    }


@dataclass
class Experience:
    """A recorded run: per-shard served streams + config + live ledger."""

    meta: dict
    weights: np.ndarray
    #: ``shards[i]`` is ``(pages, levels)`` in shard ``i``'s serve order.
    shards: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)

    @property
    def n_requests(self) -> int:
        return sum(int(p.size) for p, _ in self.shards)

    def instance(self, cache_size: int | None = None) -> MultiLevelInstance:
        """The recorded instance (optionally with an alternative ``k``)."""
        k = self.meta["cache_size"] if cache_size is None else cache_size
        return MultiLevelInstance(k, self.weights)

    # -- persistence -------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        """Write ``.npz`` (compact, default) or ``.jsonl`` (grep-able)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.suffix == ".jsonl":
            with path.open("w", encoding="utf-8") as fh:
                fh.write(json.dumps(
                    {"meta": self.meta,
                     "weights": self.weights.tolist()}) + "\n")
                for shard, (pages, levels) in enumerate(self.shards):
                    fh.write(json.dumps(
                        {"shard": shard,
                         "pages": pages.tolist(),
                         "levels": levels.tolist()}) + "\n")
            return path
        arrays: dict[str, np.ndarray] = {
            "meta": np.frombuffer(
                json.dumps(self.meta).encode("utf-8"), dtype=np.uint8),
            "weights": self.weights,
        }
        for shard, (pages, levels) in enumerate(self.shards):
            arrays[f"shard_{shard}_pages"] = pages
            arrays[f"shard_{shard}_levels"] = levels
        np.savez_compressed(path, **arrays)
        return path if path.suffix == ".npz" else path.with_name(
            path.name + ".npz")

    @classmethod
    def load(cls, path: str | Path) -> "Experience":
        """Load either on-disk format back into memory."""
        path = Path(path)
        if path.suffix == ".jsonl":
            with path.open("r", encoding="utf-8") as fh:
                header = json.loads(fh.readline())
                meta = header["meta"]
                shards: dict[int, tuple[np.ndarray, np.ndarray]] = {}
                for line in fh:
                    rec = json.loads(line)
                    shards[int(rec["shard"])] = (
                        np.asarray(rec["pages"], dtype=np.int64),
                        np.asarray(rec["levels"], dtype=np.int64))
            n_shards = meta["n_shards"]
            return cls(
                meta=meta,
                weights=np.asarray(header["weights"], dtype=np.float64),
                shards=[shards.get(i, (np.empty(0, np.int64),
                                       np.empty(0, np.int64)))
                        for i in range(n_shards)])
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode("utf-8"))
            weights = np.asarray(data["weights"], dtype=np.float64)
            shards = []
            for i in range(meta["n_shards"]):
                key = f"shard_{i}_pages"
                if key in data:
                    shards.append((
                        np.asarray(data[key], dtype=np.int64),
                        np.asarray(data[f"shard_{i}_levels"],
                                   dtype=np.int64)))
                else:
                    shards.append((np.empty(0, np.int64),
                                   np.empty(0, np.int64)))
        return cls(meta=meta, weights=weights, shards=shards)

    # -- derived views -----------------------------------------------------
    def merged(self) -> tuple[np.ndarray, np.ndarray]:
        """One interleaved stream preserving per-shard order.

        Chunks of ``batch_size`` are dealt round-robin across shards, so
        re-submitting the merged stream through the same router yields
        exactly the recorded per-shard sequences (pages hash back to
        their shard; relative order within a shard is preserved).
        """
        b = max(int(self.meta.get("batch_size", 512)), 1)
        cursors = [0] * len(self.shards)
        pages_out: list[np.ndarray] = []
        levels_out: list[np.ndarray] = []
        remaining = self.n_requests
        while remaining > 0:
            for shard, (pages, levels) in enumerate(self.shards):
                lo = cursors[shard]
                if lo >= pages.size:
                    continue
                hi = min(lo + b, pages.size)
                pages_out.append(pages[lo:hi])
                levels_out.append(levels[lo:hi])
                remaining -= hi - lo
                cursors[shard] = hi
        if not pages_out:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        return np.concatenate(pages_out), np.concatenate(levels_out)

    def stats(self) -> dict:
        """Shape summary of the recorded traffic (for ``replay stats``)."""
        level_counts: dict[int, int] = {}
        per_shard = []
        unique: set[int] = set()
        for pages, levels in self.shards:
            per_shard.append(int(pages.size))
            unique.update(np.unique(pages).tolist())
            for lv, count in zip(*np.unique(levels, return_counts=True)):
                level_counts[int(lv)] = level_counts.get(int(lv), 0) \
                    + int(count)
        return {
            "n_requests": self.n_requests,
            "n_shards": len(self.shards),
            "per_shard": per_shard,
            "unique_pages": len(unique),
            "level_counts": {str(k): v
                             for k, v in sorted(level_counts.items())},
            "meta": self.meta,
        }


class ExperienceRecorder:
    """Accumulates served shard slices from a live service.

    Attach with
    :meth:`~repro.service.server.PagingService.attach_recorder` *before*
    traffic; ``record`` is called from the ingest path (under the
    service lock in queued mode), so appends are cheap — arrays are
    copied once (the caller reuses slice views) and concatenated only at
    :meth:`experience` time.
    """

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ServiceConfigError(
                f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self._pages: list[list[np.ndarray]] = [[] for _ in range(n_shards)]
        self._levels: list[list[np.ndarray]] = [[] for _ in range(n_shards)]
        self._lock = threading.Lock()

    def record(self, shard: int, pages, levels) -> None:
        """Append one admitted slice (called by the service)."""
        with self._lock:
            self._pages[shard].append(np.array(pages, dtype=np.int64))
            self._levels[shard].append(np.array(levels, dtype=np.int64))

    @property
    def n_requests(self) -> int:
        with self._lock:
            return sum(int(a.size) for chunks in self._pages for a in chunks)

    def experience(self, service: PagingService) -> Experience:
        """Freeze the recording into an :class:`Experience`.

        Call after :meth:`~repro.service.server.PagingService.drain` so
        the captured ledger covers every recorded slice.
        """
        with self._lock:
            shards = [
                (np.concatenate(self._pages[i]) if self._pages[i]
                 else np.empty(0, np.int64),
                 np.concatenate(self._levels[i]) if self._levels[i]
                 else np.empty(0, np.int64))
                for i in range(self.n_shards)
            ]
        return Experience(
            meta=_meta_from_service(service),
            weights=np.asarray(service.config.instance.weights,
                               dtype=np.float64),
            shards=shards,
        )

    def save(self, path: str | Path, service: PagingService) -> Path:
        """``experience(service).save(path)`` in one call."""
        return self.experience(service).save(path)


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of one replay run."""

    policy: str
    cache_size: int
    eviction_cost: float
    cost_by_level: dict[str, float]
    n_hits: int
    n_misses: int
    n_evictions: int
    report: LoadReport | None = None


class ReplayEngine:
    """Re-serves a recorded experience under alternative configurations.

    Two modes:

    * **ledger mode** (default) — per-shard streams are fed straight
      into freshly built shard engines; deterministic, fast, and
      ``==``-exact for the recorded configuration.
    * **paced mode** (``rate`` or ``profile`` given) — the merged stream
      is replayed through a full threaded service by the open-loop load
      generator, yielding latency percentiles and shed rates alongside
      the ledger.
    """

    def __init__(self, experience: Experience) -> None:
        self.experience = experience

    def _config(self, *, policy: str | None, cache_size: int | None,
                seed: int | None, queue_depth: int | None = None,
                ) -> ServiceConfig:
        meta = self.experience.meta
        return ServiceConfig.from_policy_name(
            policy or meta["policy"],
            self.experience.instance(cache_size),
            n_shards=meta["n_shards"],
            batch_size=meta["batch_size"],
            seed=meta["seed"] if seed is None else seed,
            **({"queue_depth": queue_depth} if queue_depth else {}),
        )

    def run(self, *, policy: str | None = None,
            cache_size: int | None = None, seed: int | None = None,
            rate: float | None = None,
            profile: RateProfile | None = None,
            on_overload: str = "retry") -> ReplayResult:
        """Replay once; see the class docstring for the two modes."""
        config = self._config(policy=policy, cache_size=cache_size,
                              seed=seed)
        service = PagingService(config)
        report: LoadReport | None = None
        if rate is None and profile is None:
            # Ledger mode: engines consume whole per-shard streams
            # directly (batch boundaries do not affect cost).
            for shard, (pages, levels) in enumerate(self.experience.shards):
                if pages.size:
                    service.engines[shard].process_batch(pages, levels)
        else:
            pages, levels = self.experience.merged()
            with service:
                report = run_load(
                    service, _MergedSequence(pages, levels),
                    rate=rate if rate is not None else 100_000.0,
                    batch_size=config.batch_size,
                    on_overload=on_overload,
                    profile=profile)
        snap = service.snapshot()
        return ReplayResult(
            policy=_policy_name(config),
            cache_size=int(config.instance.cache_size),
            eviction_cost=float(snap.eviction_cost),
            cost_by_level={str(k): float(v)
                           for k, v in snap.cost_by_level().items()},
            n_hits=int(snap.n_hits),
            n_misses=int(snap.n_misses),
            n_evictions=sum(int(s.n_evictions) for s in snap.shards),
            report=report,
        )

    def matches_live(self, result: ReplayResult) -> bool:
        """``==``-exact cost equality between ``result`` and the live run."""
        live = self.experience.meta.get("live", {})
        return (result.eviction_cost == live.get("eviction_cost")
                and result.cost_by_level == live.get("cost_by_level"))

    def compare(self, policies, *, cache_size: int | None = None,
                rate: float | None = None,
                profile: RateProfile | None = None,
                on_overload: str = "retry") -> Table:
        """Replay under each policy and tabulate against the live run."""
        live = self.experience.meta.get("live", {})
        live_cost = float(live.get("eviction_cost", 0.0))
        paced = rate is not None or profile is not None
        columns = ["config", "cost", "vs live", "hits", "misses"]
        if paced:
            columns += ["p50 ms", "p99 ms", "shed %"]
        table = Table(columns, title="experience replay comparison")
        row = [f"live ({self.experience.meta['policy']})", live_cost, "—",
               live.get("n_hits", 0), live.get("n_misses", 0)]
        if paced:
            row += ["—", "—", "—"]
        table.add_row(*row)
        for name in policies:
            result = self.run(policy=name, cache_size=cache_size,
                              rate=rate, profile=profile,
                              on_overload=on_overload)
            delta = ("0 (exact)" if result.eviction_cost == live_cost
                     else f"{result.eviction_cost - live_cost:+.1f}")
            row = [f"{result.policy} (k={result.cache_size})",
                   result.eviction_cost, delta,
                   result.n_hits, result.n_misses]
            if paced:
                rep = result.report
                row += [rep.p50_ms, rep.p99_ms, 100.0 * rep.drop_fraction]
            table.add_row(*row)
        return table


class _MergedSequence:
    """The minimal RequestSequence view ``run_load`` needs."""

    __slots__ = ("pages", "levels")

    def __init__(self, pages: np.ndarray, levels: np.ndarray) -> None:
        self.pages = pages
        self.levels = levels

    def __len__(self) -> int:
        return int(self.pages.size)
