"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import OUT, SRC  # noqa: E402

sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import wire  # noqa: E402
from layers import METRICS  # noqa: E402
from run import END_TO_END  # noqa: E402
from workloads import CERTIFY_INSTANCES, WORKLOADS  # noqa: E402

HEADER = struct.Struct(">IB")


class StubServer:
    """Acks every submit in order; ``stall_at`` delays one ack, and
    ``pause_reading`` stops reading the socket for a while."""

    def __init__(self, *, stall_at: int | None = None, stall_s: float = 0.0,
                 pause_reading_s: float = 0.0, rcvbuf: int | None = None):
        self.listener = socket.create_server(("127.0.0.1", 0))
        if rcvbuf is not None:
            self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        self.port = self.listener.getsockname()[1]
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.pause_reading_s = pause_reading_s
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        sock, _ = self.listener.accept()
        buf = bytearray()
        paused = False
        with sock:
            while True:
                data = sock.recv(1 << 16)
                if not data:
                    return
                buf += data
                while len(buf) >= HEADER.size:
                    length, _ = HEADER.unpack_from(buf)
                    if len(buf) < HEADER.size + length:
                        break
                    msg = json.loads(bytes(buf[HEADER.size:HEADER.size + length]))
                    del buf[:HEADER.size + length]
                    if msg["type"] == "submit" and msg["id"] == self.stall_at:
                        time.sleep(self.stall_s)
                    reply = {"type": "pong", "id": msg["id"]}
                    if msg["type"] == "submit":
                        reply = {"type": "submit_ack", "id": msg["id"],
                                 "status": "ok", "n_requests": len(msg["pages"])}
                    sock.sendall(wire.frame(reply))
                if self.pause_reading_s and not paused:
                    paused = True
                    time.sleep(self.pause_reading_s)

    def close(self) -> None:
        self.listener.close()
        self.thread.join(5.0)


def _drive(server: StubServer, batch: int, rate: float, seconds: float,
           sndbuf: int | None = None):
    conn = wire.Conn(("127.0.0.1", server.port))
    if sndbuf is not None:
        conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, sndbuf)
    try:
        records = wire.open_loop(conn, wire.Batches(np.arange(batch * 64) % 97,
                                                    batch), rate, seconds)
        return records, wire.settle(conn, records)
    finally:
        conn.close()
        server.close()


class TestOpenLoopDriver:
    def test_stall_counts_from_due_time(self):
        # 100 batches/s; the ack of batch id 10 stalls 300 ms, and every
        # batch due behind it waits too, although each was sent on time.
        server = StubServer(stall_at=10, stall_s=0.3)
        records, settled = _drive(server, batch=8, rate=800.0, seconds=0.5)
        assert settled["failed"] == 0
        lat = settled["latencies_ms"]
        assert len(lat) == len(records) == 50
        stalled = records[9][1]  # due time of id 10 (ids start at 1)
        for (rid, due, sent, n), ms in zip(records, lat):
            assert ms >= (sent - due) * 1000.0
            if stalled <= due <= stalled + 0.2:
                # Acked only after the stall ends: latency from due time
                # covers the rest of the stall.
                assert ms >= (stalled + 0.3 - due) * 1000.0 - 5.0
        assert max(lat) >= 250.0
        # The generator itself kept to schedule, and says so.
        assert len(settled["late_ms"]) == 50
        assert wire.percentile(settled["late_ms"], 50.0) < 50.0

    def test_blocked_generator_reports_lateness(self):
        # The server stops reading after the first bytes with tiny socket
        # buffers, so large frames block the sender: it runs late, and
        # latency still counts from each batch's due time.
        server = StubServer(pause_reading_s=0.4, rcvbuf=4096)
        records, settled = _drive(server, batch=20_000, rate=20 * 20_000.0,
                                  seconds=0.25, sndbuf=4096)
        assert settled["failed"] == 0
        late = settled["late_ms"]
        assert max(late) >= 150.0
        for (_, due, sent, _), ms in zip(records, settled["latencies_ms"]):
            assert ms >= (sent - due) * 1000.0


def _ledger():
    """A real kernel ledger and its scan-oracle twin from a tiny run."""
    import workloads
    from workloads import SIZES

    p = SIZES["replay-rw"]["tiny"]
    rng = np.random.default_rng([3, 0])
    inst = workloads.rw_instance(p, rng)
    pages, levels = workloads.rw_stream(p, np.random.default_rng([3, 1]),
                                        p["stream"])
    svc = workloads.build_service(inst, "waterfilling-kernel", p, 3,
                                  backend="inline")
    loop = workloads.Loop(svc, pages, levels, p["batch"], 1)
    loop.run(batches=40)
    got = workloads.ledger_summaries(svc)
    want = workloads.oracle_ledgers(inst, pages, levels, p, 3, 40, ())
    return got, want


class TestChecksFailOnPerturbation:
    def test_ledger(self):
        got, want = _ledger()
        assert checks.ledger_matches(got, want) == []
        for key, bump in (("eviction_cost", 1e-9), ("n_evictions", 1),
                          ("n_hits", 1), ("n_requests", 1)):
            bad = copy.deepcopy(got)
            bad[1][key] += bump
            assert checks.ledger_matches(bad, want), key
        bad = copy.deepcopy(got)
        level = next(iter(bad[0]["cost_by_level"]))
        bad[0]["cost_by_level"][level] += 1e-9
        assert checks.ledger_matches(bad, want)

    def test_served_once(self):
        assert checks.served_once([3, 4], [3, 4], 7) == []
        assert checks.served_once([3, 5], [3, 4], 8)
        assert checks.served_once([3, 4], [3, 4], 8)

    def test_sampled_counts(self):
        assert checks.counts_match("t", {"a": 2}, {"a": 2}) == []
        assert checks.counts_match("t", {"a": 3}, {"a": 2})
        assert checks.counts_match("t", {}, {"a": 2})

    def test_certify_bounds(self):
        assert checks.bounds_hold(10.0, 18.0, 38.0) == []
        assert checks.bounds_hold(18.5, 18.0, 38.0)
        assert checks.bounds_hold(40.0, 48.0, 38.0)
        assert checks.bounds_hold(0.0, 18.0, 38.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (n, u) for n, u, _ in END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (n, u) for n, u, *_ in METRICS]


def test_fails_without_the_program():
    # A directory holding only BENCHMARK.json and perfbench/.
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "replay-rw",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tiny_smoke_prints_every_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--seed", "1", "--seconds", "1", "--size", "tiny"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = proc.stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"]
    for workload in ("replay-rw", "observed-ml3", "wire-hot", "certify-rw"):
        e2e = result["results"][f"{workload}/e2e"]["metrics"]
        assert {n: e2e[n]["unit"] for n in e2e} == {n: u for n, u, _ in END_TO_END}
        assert all(m["value"] > 0 for m in e2e.values()), workload
        layer = result["results"][f"{workload}/trace"]["metrics"]
        assert {n: layer[n]["unit"] for n in layer} == {n: u for n, u, *_ in METRICS}
    for name, unit, *_ in METRICS + END_TO_END:
        assert f"{name} " in out and f" {unit}" in out, name
    # certify-rw times whole cycles over its set-up's instances.
    assert result["results"]["certify-rw/e2e"]["attempted"] % CERTIFY_INSTANCES == 0


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
