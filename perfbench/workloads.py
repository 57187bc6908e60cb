"""The benchmark's workloads: inputs made from a seed, and the runs that
drive the program with them.

Why these four (each layer does most of its work in one of them and little
in another, so every later optimisation has a workload that shows it and
one where the prediction is "no change"):

* ``replay-rw`` — the paper's motivating problem: a writeback buffer pool
  replayed as RW-paging (l=2) through the Lemma 2.1 reduction, inline, no
  registry, no tracing.  About 65% of requests miss, so the kernel's
  eviction rounds dominate; net, cluster and obs do no work.
* ``observed-ml3`` — a 3-level stream served the way ``repro serve
  --metrics-port --trace-dir --span-dir`` runs it: thread backend on one
  core, live registry, decision and request tracing at 1%.  An active decision
  tracer moves the engine to the per-request loop, so the scalar serve
  path, the tracer call, the ledger charge under a live registry and the
  queue handoff dominate.
* ``wire-hot`` — hit-heavy weighted paging over loopback TCP through a
  cluster proxy and two backends (see ``wire.py``): per-message costs of
  the codec, proxy channels and ingest dominate; the kernel runs its
  hit-run path.
* ``certify-rw`` — certifies an RW-paging stream offline (sparse LP plus
  threshold rounding): the only layer that answers "cost relative to OPT".
"""

from __future__ import annotations

import os
from collections import deque
from time import perf_counter

import numpy as np

from common import OUT, PROBE_EVERY_S, CoreProbe, cpu_seconds, peak_rss_mb

SIZES = {
    "replay-rw": {
        "full": dict(n=4096, k=256, shards=4, batch=512, write_frac=0.3,
                     alpha=0.9, dirty_x=4.0, high=64.0, stream=1 << 19,
                     warmup=64, verify=1 << 17),
        "tiny": dict(n=256, k=32, shards=4, batch=64, write_frac=0.3,
                     alpha=0.9, dirty_x=4.0, high=64.0, stream=1 << 13,
                     warmup=8, verify=1 << 12),
    },
    "observed-ml3": {
        "full": dict(n=1024, k=128, levels=3, alpha=0.9, level_bias=2.0,
                     shards=4, batch=256, queue=64, window=8, sample=0.01,
                     stream=1 << 19, warmup=64, verify=1 << 17),
        "tiny": dict(n=128, k=16, levels=3, alpha=0.9, level_bias=2.0,
                     shards=4, batch=32, queue=64, window=8, sample=0.05,
                     stream=1 << 13, warmup=8, verify=1 << 12),
    },
    "wire-hot": {
        "full": dict(n=512, k=256, alpha=1.1, high=64.0, shards=4, batch=64,
                     rate=10_000.0, window=8, rounds=3, open_frac=0.65,
                     stream=1 << 18, warmup_s=1.5),
        "tiny": dict(n=64, k=16, alpha=1.1, high=64.0, shards=4, batch=16,
                     rate=2_000.0, window=4, rounds=2, open_frac=0.5,
                     stream=1 << 12, warmup_s=0.2),
    },
    "certify-rw": {
        "full": dict(n=512, k=64, length=5_000, write_frac=0.3, alpha=0.9,
                     dirty_x=4.0, high=64.0),
        "tiny": dict(n=32, k=8, length=300, write_frac=0.3, alpha=0.9,
                     dirty_x=4.0, high=64.0),
    },
}

WORKLOADS = tuple(SIZES)
#: Instances a certify-rw run cycles through, made once in set-up.
CERTIFY_INSTANCES = 6


# -- inputs ------------------------------------------------------------------
def rw_instance(p: dict, rng):
    """Writeback pool as RW-paging: the dirty copy costs ``dirty_x`` x clean."""
    from repro.core.instance import WritebackInstance
    from repro.core.reductions import writeback_to_rw_instance
    from repro.workloads.base import sample_weights

    clean = sample_weights(p["n"], rng, high=p["high"])
    return writeback_to_rw_instance(
        WritebackInstance(p["k"], p["dirty_x"] * clean, clean))


def rw_stream(p: dict, rng, length: int):
    """Reads and writes as RW-paging requests (writes -> level 1)."""
    from repro.core.reductions import writeback_to_rw_sequence
    from repro.workloads.writeback import readwrite_stream

    seq = writeback_to_rw_sequence(readwrite_stream(
        p["n"], length, write_fraction=p["write_frac"], alpha=p["alpha"],
        rng=rng))
    return seq.pages, seq.levels


def ml3_instance(p: dict, rng):
    from repro.workloads.multilevel import random_multilevel_instance

    return random_multilevel_instance(p["n"], p["k"], p["levels"], rng=rng)


def ml3_stream(p: dict, rng, length: int):
    from repro.workloads.multilevel import multilevel_stream

    seq = multilevel_stream(p["n"], p["levels"], length, alpha=p["alpha"],
                            level_bias=p["level_bias"], rng=rng)
    return seq.pages, seq.levels


def wire_instance(p: dict, seed: int):
    from repro.core.instance import WeightedPagingInstance
    from repro.workloads.base import sample_weights

    rng = np.random.default_rng([seed, 1])
    return WeightedPagingInstance(p["k"], sample_weights(p["n"], rng,
                                                         high=p["high"]))


def wire_stream(p: dict, seed: int) -> np.ndarray:
    from repro.workloads.base import zipf_probabilities

    rng = np.random.default_rng([seed, 2])
    probs = zipf_probabilities(p["n"], p["alpha"])[rng.permutation(p["n"])]
    return rng.choice(p["n"], size=p["stream"], p=probs).astype(np.int64)


# -- the program's set-up ----------------------------------------------------
def build_service(inst, policy: str, p: dict, seed: int, *,
                  backend: str, registry=None):
    from repro.service import PagingService, ServiceConfig

    config = ServiceConfig.from_policy_name(
        policy, inst, n_shards=p["shards"], batch_size=p["batch"],
        queue_depth=p.get("queue", 64), seed=seed, backend=backend,
        metrics_registry=registry)
    return PagingService(config)


def setup_replay(p: dict, seed: int, rng):
    inst = rw_instance(p, rng)
    return inst, build_service(inst, "waterfilling-kernel", p, seed,
                               backend="inline")


def setup_observed(p: dict, seed: int, rng):
    from repro.obs import MetricsRegistry

    # One core for the producer and the shard threads, so the core-speed
    # probe samples the core all of the work runs on; spread over both
    # cores, scaled throughput ranged 0.22 IQR/median over ten seeds.  Set
    # before any thread starts, so every thread inherits it.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    inst = ml3_instance(p, rng)
    svc = build_service(inst, "waterfilling-kernel", p, seed,
                        backend="thread", registry=MetricsRegistry())
    svc.enable_tracing(OUT / "decisions", sample=p["sample"], seed=seed)
    svc.enable_request_tracing(OUT / "spans", sample=p["sample"], seed=seed)
    svc.start()
    return inst, svc


# -- closed-loop driver -------------------------------------------------------
class Loop:
    """Closed loop over one in-process service: ``window`` tickets of one
    batch each stay outstanding; the stream is replayed cyclically."""

    def __init__(self, svc, pages, levels, batch: int, window: int) -> None:
        self.svc = svc
        self.pages = pages
        self.levels = levels
        self.batch = batch
        self.window = window
        self.n_cycle = len(pages) // batch
        self.submitted = 0          # batches offered, the next batch index
        self.rejected: list[int] = []
        self.failed = 0
        self.ok_requests = 0
        self.latencies: list[float] = []
        self._out: deque = deque()

    def _submit(self) -> None:
        lo = (self.submitted % self.n_cycle) * self.batch
        started = perf_counter()
        result = self.svc.submit_batch(self.pages[lo:lo + self.batch],
                                       self.levels[lo:lo + self.batch])
        if result.accepted:
            self._out.append((started, result))
        else:
            self.rejected.append(self.submitted)
            self.failed += 1
        self.submitted += 1

    def _reap(self) -> None:
        started, ticket = self._out.popleft()
        if ticket.wait(60.0) and ticket.ok:
            self.latencies.append(ticket.completed_at - started)
            self.ok_requests += ticket.n_requests
        else:
            self.failed += 1

    def drain(self) -> None:
        while self._out:
            self._reap()

    def run(self, *, batches: int | None = None, seconds: float | None = None,
            stop_at: int | None = None) -> None:
        """Submit ``batches`` more batches, or until ``seconds`` pass; pause
        at batch index ``stop_at``.  Outstanding tickets are drained."""
        end_batch = self.submitted + batches if batches is not None else None
        deadline = perf_counter() + seconds if seconds is not None else None
        while True:
            if end_batch is not None and self.submitted >= end_batch:
                break
            if deadline is not None and perf_counter() >= deadline:
                break
            if stop_at is not None and self.submitted >= stop_at:
                break
            if len(self._out) >= self.window:
                self._reap()
            self._submit()
        self.drain()


def ledger_summaries(svc) -> list[dict]:
    from checks import ledger_summary

    return [ledger_summary(e) for e in svc.engines]


def routed_counts(router, pages, batch: int, n_batches: int,
                  skip) -> list[int]:
    """Requests routed to each shard by batches ``0..n_batches-1`` of the
    cyclic stream, leaving out the batch indices in ``skip``."""
    n_cycle = len(pages) // batch
    owners = router.shards_of(pages[:n_cycle * batch]).reshape(n_cycle, batch)
    per_batch = np.stack([(owners == s).sum(axis=1)
                          for s in range(router.n_shards)], axis=1)
    full, rest = divmod(n_batches, n_cycle)
    counts = per_batch.sum(axis=0) * full + per_batch[:rest].sum(axis=0)
    for b in skip:
        counts -= per_batch[b % n_cycle]
    return [int(c) for c in counts]


def oracle_ledgers(inst, pages, levels, p: dict, seed: int, n_batches: int,
                   skip) -> list[dict]:
    """The O(k) scan oracle (``waterfilling``) over the same batches and
    shard split, served inline outside the timed phase."""
    svc = build_service(inst, "waterfilling", p, seed, backend="inline")
    batch = p["batch"]
    n_cycle = len(pages) // batch
    skipped = set(skip)
    for b in range(n_batches):
        if b in skipped:
            continue
        lo = (b % n_cycle) * batch
        svc.submit_batch(pages[lo:lo + batch], levels[lo:lo + batch])
    svc.stop()
    return ledger_summaries(svc)


# -- in-process serving workloads ---------------------------------------------
def run_serving(name: str, p: dict, seed: int, seconds: float, store,
                inst, svc, pages, levels) -> dict:
    """Warm up, measure for ``seconds``, then check the run."""
    from checks import ledger_matches, served_once

    loop = Loop(svc, pages, levels, p["batch"], p.get("window", 1))
    verify_batches = p["verify"] // p["batch"]
    loop.run(batches=p["warmup"])
    if store is not None:
        store.clear()
    base = _totals(svc)
    n_lat, ok0, failed0 = len(loop.latencies), loop.ok_requests, loop.failed
    probe = CoreProbe()
    paused = 0.0
    cpu0 = cpu_seconds()
    started = perf_counter()
    deadline = started + seconds
    captured = None
    while perf_counter() < deadline:
        # Pause once, drained, to capture the ledger the oracle checks.
        loop.run(seconds=min(PROBE_EVERY_S, deadline - perf_counter()),
                 stop_at=verify_batches if captured is None else None)
        if captured is None and loop.submitted >= verify_batches:
            captured = (loop.submitted, list(loop.rejected),
                        ledger_summaries(svc))
        # Drained, so the probe has the core to itself.
        paused -= perf_counter()
        probe.sample()
        paused += perf_counter()
    wall = perf_counter() - started - paused
    cpu = cpu_seconds() - cpu0 - probe.cpu_s
    rss = peak_rss_mb()
    end = _totals(svc)
    requests = loop.ok_requests - ok0
    if captured is None:
        captured = (loop.submitted, list(loop.rejected), ledger_summaries(svc))
    layers_in = None
    if store is not None:
        layers_in = {"totals": store.totals(), "spans": store.spans(),
                     "top_cpu": store.top_cpu(),
                     "engine_keys": dict(store.engine_keys)}
    tracer_written = sum(t.n_written for t in getattr(svc, "_tracers", []))
    svc.stop()

    n_batches, skip, got = captured
    errors = ledger_matches(got, oracle_ledgers(inst, pages, levels, p, seed,
                                                n_batches, skip))
    served = [e.n_requests for e in svc.engines]
    errors += served_once(
        served, routed_counts(svc.router, pages, p["batch"], loop.submitted,
                              loop.rejected), loop.ok_requests)
    extra = {}
    if name == "observed-ml3":
        errors += _check_sampling(svc, pages, p, seed, loop, served)
        extra["trace_bytes"] = sum(
            f.stat().st_size for d in ("decisions", "spans")
            for f in (OUT / d).iterdir())
        extra["tracer_written"] = tracer_written
    extra.update(hits=end[0] - base[0], evictions=end[1] - base[1],
                 served=end[2] - base[2], overloaded=len(loop.rejected),
                 verified_requests=sum(s["n_requests"] for s in got))
    return {
        "requests": requests, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
        "speed": probe.speed(), "latency_speed": probe.speed(),
        "latencies_ms": [x * 1000.0 for x in loop.latencies[n_lat:]],
        "attempted": loop.submitted - p["warmup"],
        "failed": loop.failed - failed0,
        "errors": errors, "extra": extra, "layers_in": layers_in,
    }


def _totals(svc) -> tuple[int, int, int]:
    engines = svc.engines
    return (sum(e.ledger.n_hits for e in engines),
            sum(e.ledger.n_evictions for e in engines),
            sum(e.n_requests for e in engines))


def _check_sampling(svc, pages, p: dict, seed: int, loop: Loop,
                    served: list[int]) -> list[str]:
    """Decision-trace and span record counts against the ``(seed, t)``
    samplers' own ``want``."""
    import io

    from checks import counts_match
    from repro.obs.rtrace import RequestSampler
    from repro.obs.tracer import DecisionTracer

    want_decision = DecisionTracer(io.StringIO(), sample=p["sample"],
                                   seed=seed).want
    sampled = [t for t in range(max(served)) if want_decision(t)]
    want, got = {}, {}
    for shard, n in enumerate(served):
        want[f"shard-{shard} req"] = sum(1 for t in sampled if t < n)
        got[f"shard-{shard} req"] = _count_lines(
            OUT / "decisions" / f"shard-{shard}.jsonl", '"ev":"req"')
    sampler = RequestSampler(seed=seed, sample=p["sample"])
    batch = p["batch"]
    n_cycle = len(pages) // batch
    rejected = set(loop.rejected)
    svc_records = 0
    shard_records = [0] * len(served)
    for t in range(loop.submitted):
        if not sampler.want(t):
            continue
        lo = (t % n_cycle) * batch
        shards = np.unique(svc.router.shards_of(pages[lo:lo + batch]))
        svc_records += 2 + len(shards)
        if t not in rejected:
            for s in shards:
                shard_records[int(s)] += 2
    want["svc spans"] = svc_records
    got["svc spans"] = _count_lines(OUT / "spans" / "svc.spans.jsonl", "")
    for shard, n in enumerate(shard_records):
        want[f"shard-{shard} spans"] = n
        got[f"shard-{shard} spans"] = _count_lines(
            OUT / "spans" / f"shard-{shard}.spans.jsonl", "")
    return counts_match("observed-ml3 trace", got, want)


def _count_lines(path, needle: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if needle in line)


# -- certify-rw ----------------------------------------------------------------
def setup_certify(p: dict, seed: int):
    """The instances a certify-rw run cycles through, and the policies."""
    import repro.offline.scale  # noqa: F401  (the solver stack: scipy HiGHS)
    from repro.algorithms import policy_registry
    from repro.core.requests import RequestSequence

    instances = []
    for j in range(CERTIFY_INSTANCES):
        rng = np.random.default_rng([seed, 0, j])
        inst = rw_instance(p, rng)
        instances.append((inst, RequestSequence(*rw_stream(p, rng,
                                                           p["length"]))))
    return instances, policy_registry


def run_certify(seconds: float, store, instances, policy_registry) -> dict:
    """Certify the instances in whole cycles until ``seconds`` pass (LP,
    then rounding), so every run times the same mix of instances."""
    from checks import bounds_hold
    from repro.offline import scale
    from repro.offline.bounds import lp_divisor
    from repro.sim import simulate

    cpu0 = cpu_seconds()
    started = perf_counter()
    runs = []
    if store is not None:
        store.clear()
    while len(runs) % len(instances) or perf_counter() - started < seconds:
        inst, seq = instances[len(runs) % len(instances)]
        t0 = perf_counter()
        solution = scale.solve_sparse_lp(inst, seq)
        t1 = perf_counter()
        rounded = scale.threshold_round(solution)
        t2 = perf_counter()
        runs.append(dict(inst=inst, seq=seq, lp_s=t1 - t0, round_s=t2 - t1,
                         value=solution.value, n_vars=solution.n_variables,
                         n_rows=solution.n_constraints,
                         upper=rounded.cost, threshold=rounded.best.threshold,
                         schedules=len(rounded.schedules)))
    wall = sum(r["lp_s"] + r["round_s"] for r in runs)
    cpu = cpu_seconds() - cpu0
    rss = peak_rss_mb()
    layers_in = None
    if store is not None:
        layers_in = {"totals": store.totals(), "spans": [],
                     "top_cpu": store.top_cpu(), "engine_keys": {}}
    errors = []
    policy_costs = [simulate(inst, seq, policy_registry["waterfilling-kernel"](),
                             validate=False).cost for inst, seq in instances]
    for i, r in enumerate(runs):
        lower = r["value"] / lp_divisor(r["inst"])
        r["policy_cost"] = policy_costs[i % len(instances)]
        r["lower"] = lower
        errors += bounds_hold(lower, r["upper"], r["policy_cost"])
        r["width"] = r["upper"] / lower
        r["ratio"] = r["policy_cost"] / lower
    requests = sum(len(r["seq"]) for r in runs)
    # Per-instance means of what the offline layer reports.
    extra = {name: sum(r[key] for r in runs) / len(runs) for name, key in (
        ("lp_s", "lp_s"), ("round_s", "round_s"), ("lp_vars", "n_vars"),
        ("lp_rows", "n_rows"), ("schedules", "schedules"),
        ("best_threshold", "threshold"), ("sandwich_width", "width"),
        ("cost_ratio", "ratio"))}
    extra.update(certify_s=wall / len(runs), served=requests)
    return {
        "requests": requests, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss,
        # Not scaled: the probe's interpreter loop does not follow the
        # compiled simplex (ten seeds: IQR/median 0.155 scaled, 0.090 not).
        "speed": 1.0, "latency_speed": 1.0,
        "latencies_ms": [(r["lp_s"] + r["round_s"]) * 1000.0 for r in runs],
        "attempted": len(runs), "failed": 0,
        "errors": errors, "extra": extra, "layers_in": layers_in,
    }
