"""``wire-hot``: weighted paging (l=1) over loopback TCP through a cluster.

Two processes.  The *child* (``python3 perfbench/wire.py --serve ...``)
hosts a ``ClusterProxy`` in front of two ``NetServer`` backends, each a
thread-backend ``PagingService`` with a live registry; the four cluster
shards are split two and two.  The *driver* (this module's
:func:`run_wire`, inside the benchmark worker) holds one pipelined
connection with at most two threads: the caller sends, a reader thread
stamps each ack when its bytes arrive.  With two or more usable cores the
driver and the served stack are pinned to one core each, so on a 2-core
host each holds one core and the stack's threads pass the GIL on one core.

Phase 1 is open loop at a fixed offered rate: every batch has a due time,
its latency runs from the due time to its ack's arrival (so a stall also
charges the batches queued behind it), and the generator's lateness is
reported.  Phase 2 is closed loop with a fixed number of batches
outstanding; its completed requests per second stand in for the highest
rate that meets the latency limit.

The driver speaks the wire format itself (5-byte header, JSON payload)
rather than through ``repro.net``, so the load it offers does not change
when the program's codec does.
"""

from __future__ import annotations

import json
import os
import socket
import struct
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter, sleep

from common import (
    PROBE_EVERY_S,
    CoreProbe,
    child_env,
    cpu_seconds,
    emit,
    last_json_line,
    peak_rss_mb,
    percentile,
)

HEADER = struct.Struct(">IB")
#: p99 latency limit for phase 1; each run records whether it was met.
LATENCY_LIMIT_MS = 20.0
#: Time allowed for outstanding acks after a phase ends.
ACK_TIMEOUT_S = 60.0


def frame(obj: dict) -> bytes:
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    return HEADER.pack(len(payload), 1) + payload


class Conn:
    """One pipelined connection; a reader thread stamps acks on arrival."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.settimeout(None)
        #: id -> (arrival perf_counter, status, n_requests)
        self.acks: dict[int, tuple[float, str, int]] = {}
        self.n_acked = 0
        self.cond = threading.Condition()
        self._next_id = 1
        self._reader = threading.Thread(target=self._read, daemon=True,
                                        name="perfbench-acks")
        self._reader.start()

    def new_id(self) -> int:
        rid = self._next_id
        self._next_id += 1
        return rid

    def _read(self) -> None:
        buf = bytearray()
        while True:
            try:
                data = self.sock.recv(1 << 16)
            except OSError:
                data = b""
            now = perf_counter()
            if not data:
                with self.cond:
                    self.cond.notify_all()
                return
            buf += data
            got = []
            while len(buf) >= HEADER.size:
                length, _ = HEADER.unpack_from(buf)
                if len(buf) < HEADER.size + length:
                    break
                msg = json.loads(bytes(buf[HEADER.size:HEADER.size + length]))
                del buf[:HEADER.size + length]
                got.append(msg)
            with self.cond:
                for msg in got:
                    self.acks[msg.get("id", 0)] = (
                        now, msg.get("status", msg.get("type", "")),
                        msg.get("n_requests", 0))
                    self.n_acked += 1
                self.cond.notify_all()

    @property
    def alive(self) -> bool:
        return self._reader.is_alive()

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def wait_for(self, ids, timeout: float) -> bool:
        """Block until every id in ``ids`` is acked; False on timeout."""
        deadline = monotonic() + timeout
        with self.cond:
            for rid in ids:
                while rid not in self.acks:
                    left = deadline - monotonic()
                    if left <= 0 or not self.alive:
                        return rid in self.acks
                    self.cond.wait(min(left, 0.5))
        return True

    def ping(self) -> bool:
        rid = self.new_id()
        self.send(frame({"type": "ping", "id": rid}))
        return self.wait_for([rid], ACK_TIMEOUT_S)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._reader.join(5.0)


class Batches:
    """Submit frames cut from a cyclic page stream, in stream order."""

    def __init__(self, pages, batch: int) -> None:
        self.pages = pages
        self.batch = batch
        self.n_cycle = len(pages) // batch
        self.sent = 0

    def next(self, conn: Conn) -> tuple[int, bytes, int]:
        lo = (self.sent % self.n_cycle) * self.batch
        self.sent += 1
        rid = conn.new_id()
        return rid, frame({"type": "submit", "id": rid,
                           "pages": self.pages[lo:lo + self.batch].tolist()}), \
            self.batch


def open_loop(conn: Conn, batches: Batches, rate_rps: float,
              seconds: float) -> list[list]:
    """Send one batch per ``batch / rate`` seconds, on schedule regardless
    of acks.  Returns ``[id, due, sent, n]`` per batch."""
    interval = batches.batch / rate_rps
    records = []
    start = perf_counter()
    i = 0
    while True:
        due = start + i * interval
        if due - start >= seconds:
            break
        wait = due - perf_counter()
        if wait > 0:
            sleep(wait)
        rid, data, n = batches.next(conn)
        records.append([rid, due, perf_counter(), n])
        conn.send(data)
        i += 1
    return records


def closed_loop(conn: Conn, batches: Batches, window: int,
                seconds: float) -> list[list]:
    """Keep ``window`` batches outstanding for ``seconds``; a batch is due
    when it is sent."""
    records = []
    deadline = perf_counter() + seconds
    base = conn.n_acked
    while perf_counter() < deadline:
        with conn.cond:
            while len(records) - (conn.n_acked - base) >= window:
                if not conn.alive:
                    raise ConnectionError("connection closed with batches outstanding")
                conn.cond.wait(0.5)
        rid, data, n = batches.next(conn)
        sent = perf_counter()
        conn.send(data)
        records.append([rid, sent, sent, n])
    return records


def settle(conn: Conn, records) -> dict:
    """Wait for every ack, then latencies from due time and the counts."""
    conn.wait_for([r[0] for r in records], ACK_TIMEOUT_S)
    lat, late, ok_requests, failed, last = [], [], 0, 0, 0.0
    for rid, due, sent, n in records:
        late.append((sent - due) * 1000.0)
        ack = conn.acks.get(rid)
        if ack is None or ack[1] != "ok":
            failed += 1
            continue
        lat.append((ack[0] - due) * 1000.0)
        ok_requests += n
        last = max(last, ack[0])
    return {"latencies_ms": lat, "late_ms": late, "ok_requests": ok_requests,
            "failed": failed, "last_ack": last}


# -- driver side ---------------------------------------------------------------
class Child:
    """The served stack in its own process, driven over stdin/stdout."""

    def __init__(self, seed: int, size: str, trace: bool, cpu: int | None) -> None:
        self.started = monotonic()
        cmd = [sys.executable, str(Path(__file__).resolve()), "--serve",
               "--seed", str(seed), "--size", size, "--trace", str(int(trace))]
        if cpu is not None:
            cmd += ["--cpu", str(cpu)]
        self.proc = subprocess.Popen(
            cmd,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=child_env())
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "ready":
            self.kill()
            raise RuntimeError(f"wire child failed to start (said {line!r})")
        self.port = int(line[1])

    def command(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        if self.proc.stdout.readline().strip() != "ok":
            raise RuntimeError(f"wire child did not acknowledge {text!r}")

    def stop(self) -> dict:
        self.proc.stdin.write("stop\n")
        self.proc.stdin.flush()
        out, _ = self.proc.communicate(timeout=60)
        if self.proc.returncode != 0:
            raise RuntimeError(f"wire child exited {self.proc.returncode}")
        return last_json_line(out)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def pin_cores() -> int | None:
    """Pin this process to its first usable core; return the core the
    served stack should take (None on a single-core host)."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[-1]


def start_stack(seed: int, size: str, trace: bool, cpu: int | None):
    """Spawn the child and connect; returns (child, conn, setup seconds)."""
    child = Child(seed, size, trace, cpu)
    try:
        conn = Conn(("127.0.0.1", child.port))
        if not conn.ping():
            raise RuntimeError("proxy did not answer the first ping")
    except BaseException:
        child.kill()
        raise
    return child, conn, monotonic() - child.started


def run_wire(p: dict, seed: int, seconds: float, size: str, trace: bool,
             setup_only: bool) -> dict:
    import numpy as np

    from checks import ledger_matches, served_once
    from repro.service.router import ShardRouter
    from workloads import oracle_ledgers, routed_counts, wire_instance, wire_stream

    child, conn, setup_s = start_stack(seed, size, trace, pin_cores())
    if setup_only:
        conn.close()
        child.stop()
        return {"setup_s": setup_s}
    try:
        pages = wire_stream(p, seed)
        batches = Batches(pages, p["batch"])
        # Warm up past the first second, which runs faster than the
        # steady state that follows it.
        warm = settle(conn, closed_loop(conn, batches, p["window"],
                                        p["warmup_s"]))
        child.command("mark begin")
        cpu0 = cpu_seconds()
        # Open- and closed-loop windows alternate, so both see the same
        # host conditions.
        s1 = {"latencies_ms": [], "late_ms": [], "ok_requests": 0, "failed": 0}
        s2 = {"ok_requests": 0, "failed": 0}
        n1 = n2 = 0
        wall2 = 0.0
        span = seconds / p["rounds"]
        verified_batches = 0
        for i in range(p["rounds"]):
            if i == 1:
                # Every batch so far is acked: the ledgers the oracle checks.
                child.command("mark verify")
                verified_batches = batches.sent
            child.command("mark open")
            records = open_loop(conn, batches, p["rate"], span * p["open_frac"])
            got = settle(conn, records)
            child.command("mark closed")
            for key in s1:
                s1[key] += got[key]
            n1 += len(records)
            started = perf_counter()
            records = closed_loop(conn, batches, p["window"],
                                  span * (1.0 - p["open_frac"]))
            got = settle(conn, records)
            wall2 += max(got["last_ack"], started) - started
            s2["ok_requests"] += got["ok_requests"]
            s2["failed"] += got["failed"]
            n2 += len(records)
        child.command("mark end")
        driver_cpu = cpu_seconds() - cpu0
        conn.close()
        served = child.stop()
    except BaseException:
        child.kill()
        raise
    if not verified_batches:
        verified_batches, served["verified"] = batches.sent, served["ledgers"]
    lat1 = s1["latencies_ms"]
    failed = s1["failed"] + s2["failed"]
    errors = list(served["errors"])
    unchecked = None
    if warm["failed"] or failed or served["refusals"]:
        # A refused batch may be partly served, and a part the proxy
        # retried may run after later parts on its shard: per-shard order
        # is no longer the stream's, so the refusals count in failed_frac
        # and exactness is not checked.
        unchecked = (f"{warm['failed'] + failed} batches not acked ok, "
                     f"{served['refusals']:.0f} backend refusals")
    else:
        errors += ledger_matches(served["verified"], oracle_ledgers(
            wire_instance(p, seed), pages, np.ones_like(pages), p, seed,
            verified_batches, ()))
        errors += served_once(
            [s["n_requests"] for s in served["ledgers"]],
            routed_counts(ShardRouter(p["shards"]), pages, p["batch"],
                          batches.sent, ()),
            warm["ok_requests"] + s1["ok_requests"] + s2["ok_requests"])
    late_p99 = percentile(s1["late_ms"], 99.0)
    layers = served.get("layers")
    if layers is not None:
        layers.update({
            "service.failed": failed,
            "driver.late_p99_ms": late_p99,
            "driver.cpu_s": driver_cpu,
            "cluster.added_p50_ms": (percentile(lat1, 50.0)
                                     - layers["net.server_p50_ms"]),
        })
    return {
        "setup_s": setup_s,
        "speed": served["speed"]["closed"],
        "latency_speed": served["speed"]["open"],
        "requests": s2["ok_requests"], "wall_s": wall2,
        "cpu_s": served["facts"]["cpu_s"], "peak_rss_mb": served["peak_rss_mb"],
        "latencies_ms": lat1, "attempted": n1 + n2, "failed": failed,
        "errors": errors, "layers": layers,
        "extra": {
            "limit_ms": LATENCY_LIMIT_MS,
            "limit_met": percentile(lat1, 99.0) <= LATENCY_LIMIT_MS
            and s1["failed"] == 0,
            "phase1_batches": n1,
            "late_p99_ms": late_p99,
            "verified_requests": (0 if unchecked else
                                  sum(s["n_requests"] for s in served["verified"])),
            "unchecked": unchecked,
        },
    }


# -- child side ----------------------------------------------------------------
def _hist(registry, name: str) -> tuple[tuple, list[int]]:
    from repro.obs.registry import DEFAULT_BUCKETS

    for fam in registry.families():
        if fam.name == name:
            for child in fam.children().values():
                return child.buckets, list(child.counts)
    return DEFAULT_BUCKETS, [0] * (len(DEFAULT_BUCKETS) + 1)


def _counter(registry, name: str) -> float:
    values = registry.collect().get(name, {})
    return float(sum(values.values()))


def hist_p50_ms(buckets, counts) -> float:
    """Median from bucket counts, linear within the bucket, in ms."""
    total = sum(counts)
    if not total:
        return 0.0
    half = total / 2.0
    seen = 0
    for i, c in enumerate(counts):
        if seen + c >= half and c:
            lo = buckets[i - 1] if i else 0.0
            hi = buckets[i] if i < len(buckets) else buckets[-1]
            return (lo + (hi - lo) * (half - seen) / c) * 1000.0
        seen += c
    return buckets[-1] * 1000.0


def serve(seed: int, size: str, trace: bool, cpu: int | None) -> None:
    """Child main: build the stack, answer marks, report on ``stop``."""
    if cpu is not None:
        # Before any thread starts, so every thread inherits the core.
        os.sched_setaffinity(0, {cpu})
    store = None
    if trace:
        from spans import SpanStore, install, install_wire

        store = SpanStore()
        install(store)
        install_wire(store)
    from checks import ledger_summary
    from repro.cluster import ClusterMap, ClusterProxy
    from repro.net import NetServer
    from repro.obs import MetricsRegistry
    from workloads import SIZES, build_service, wire_instance

    p = SIZES["wire-hot"][size]
    inst = wire_instance(p, seed)
    backends = []
    for _ in range(2):
        registry = MetricsRegistry()
        svc = build_service(inst, "waterfilling-kernel", p, seed,
                            backend="thread", registry=registry)
        svc.start()
        if store is not None:
            store.label_engines(svc)
        backends.append((svc, NetServer(svc).start(), registry))
    cmap = ClusterMap.balanced([srv.address for _, srv, _ in backends],
                               p["shards"])
    proxy_registry = MetricsRegistry()
    proxy = ClusterProxy(cmap, registry=proxy_registry).start()
    print(f"ready {proxy.port}", flush=True)
    owner = {srv.address: i for i, (_, srv, _) in enumerate(backends)}

    def cluster_ledgers() -> list[dict]:
        """Cluster shard s as served by its owner's engine s."""
        return [ledger_summary(backends[owner[cmap.owner_of(s)]][0].engines[s])
                for s in range(p["shards"])]

    def mark() -> dict:
        hist_counts = None
        buckets = ()
        for _, _, reg in backends:
            buckets, counts = _hist(reg, "repro_net_request_seconds")
            hist_counts = counts if hist_counts is None else [
                a + b for a, b in zip(hist_counts, counts)]
        engines = [e for svc, _, _ in backends for e in svc.engines]
        return {
            "cpu": cpu_seconds(),
            "hist": (buckets, hist_counts or []),
            "bytes": sum(_counter(r, "repro_net_bytes_total") for *_, r in backends),
            "shed": sum(_counter(r, "repro_net_shed_total") for *_, r in backends),
            "deadline": sum(_counter(r, "repro_net_deadline_drops_total")
                            for *_, r in backends),
            "overloaded": sum(_counter(r, "repro_net_overloaded_total")
                              for *_, r in backends),
            "submits": _counter(proxy_registry, "repro_proxy_submits_total"),
            "forwards": _counter(proxy_registry, "repro_proxy_forwards_total"),
            "hits": sum(e.ledger.n_hits for e in engines),
            "evictions": sum(e.ledger.n_evictions for e in engines),
            "served": sum(e.n_requests for e in engines),
        }

    # The whole stack shares one core: a probe thread samples its speed
    # through the timed phase, its CPU time unaffected by the GIL waits,
    # apart for the open-loop windows (latency) and the closed (throughput).
    probes = {"open": CoreProbe(), "closed": CoreProbe()}
    phase = "open"
    stop_probe = threading.Event()

    def sample_core() -> None:
        probes[phase].sample()
        while not stop_probe.wait(PROBE_EVERY_S):
            probes[phase].sample()

    prober = threading.Thread(target=sample_core, daemon=True,
                              name="perfbench-probe")
    marks = {}
    verified = None
    open_hist: list[int] = []
    for line in sys.stdin:
        cmd = line.split()
        if not cmd or cmd[0] == "stop":
            break
        if cmd[0] == "mark":
            if cmd[1] == "end":
                stop_probe.set()
                prober.join()
            marks[cmd[1]] = mark()
            if cmd[1] in probes:
                phase = cmd[1]
            if cmd[1] == "begin":
                if store is not None:
                    store.clear()
                prober.start()
            if cmd[1] == "verify":
                verified = cluster_ledgers()
            if cmd[1] == "closed":
                # Server latency of the open-loop windows only.
                before, after = marks["open"]["hist"][1], marks["closed"]["hist"][1]
                delta = [y - x for x, y in zip(before, after)]
                open_hist = ([a + b for a, b in zip(open_hist, delta)]
                             if open_hist else delta)
            print("ok", flush=True)
    layers_in = None
    if store is not None and "end" in marks:
        layers_in = {"totals": store.totals(), "spans": store.spans(),
                     "top_cpu": store.top_cpu(),
                     "engine_keys": dict(store.engine_keys)}
    rss = peak_rss_mb()
    final = mark()
    # Closing the listener does not wake the proxy's blocked accept(), so
    # a long stop timeout would only be spent waiting for that thread.
    proxy.stop(timeout=0.5)
    for svc, srv, _ in backends:
        srv.stop()
        svc.stop()
    # The other backend's engine for each cluster shard must stay idle.
    errors = [f"backend {i} served shard {shard} it does not own"
              for shard in range(p["shards"])
              for i, (svc, _, _) in enumerate(backends)
              if i != owner[cmap.owner_of(shard)] and svc.engines[shard].n_requests]
    facts = {}
    if "end" in marks:
        b, e = marks["begin"], marks["end"]
        facts = {
            "cpu_s": e["cpu"] - b["cpu"] - sum(p.cpu_s for p in probes.values()),
            "server_p50_ms": hist_p50_ms(b["hist"][0], open_hist),
            "net_bytes": e["bytes"] - b["bytes"],
            "net_shed": e["shed"] - b["shed"],
            "net_deadline": e["deadline"] - b["deadline"],
            "net_overloaded": e["overloaded"] - b["overloaded"],
            "proxy_submits": e["submits"] - b["submits"],
            "proxy_forwards": e["forwards"] - b["forwards"],
            "hits": e["hits"] - b["hits"],
            "evictions": e["evictions"] - b["evictions"],
            "served": e["served"] - b["served"],
            "overloaded": e["overloaded"] - b["overloaded"],
        }
    result = {"ledgers": cluster_ledgers(), "verified": verified,
              "speed": {k: p.speed() for k, p in probes.items() if p.ms},
              "refusals": final["shed"] + final["deadline"] + final["overloaded"],
              "errors": errors, "facts": facts, "peak_rss_mb": rss}
    if layers_in is not None:
        from common import OUT
        from layers import compute

        OUT.mkdir(exist_ok=True)
        store.write(OUT / "wire-hot.spans.jsonl")
        result["layers"] = compute(layers_in, facts)
    emit(result)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--serve", action="store_true", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", type=int, default=None)
    args = parser.parse_args()
    serve(args.seed, args.size, bool(args.trace), args.cpu)
