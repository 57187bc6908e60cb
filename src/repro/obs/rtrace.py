"""Distributed request tracing on the deterministic ``(seed, t)`` sampler.

PR 2's :class:`~repro.obs.tracer.DecisionTracer` established the repo's
tracing discipline: sampling is a pure function of ``(seed, t)`` through
the splitmix64 finalizer, so two same-seed runs emit byte-identical
JSONL regardless of threading.  This module lifts that discipline across
*process and machine boundaries*:

* :class:`TraceContext` — a compact causal context (trace id, parent
  span id, sampling bit) small enough to ride in the wire envelope's
  optional ``trace`` field.  Child span ids are derived, not random:
  ``mix64(parent ^ fnv1a64(name) ^ index)``, so the same request through
  the same tiers produces the same ids in every run.
* :class:`RequestSampler` — the head-based sampling decision,
  bit-compatible with ``DecisionTracer``: request ``t`` is sampled iff
  ``mix64((seed << 1 | 1) ^ t) < ceil(sample * 2**64)``, and that same
  value *is* the trace id.
* :class:`SpanExporter` — one JSONL span file per logical writer.  With
  ``wall=False`` (service and shard tiers) records carry no wall-clock
  fields at all, which is what makes the byte-identity guarantee hold
  across inline/thread/process backends; network-facing tiers opt into
  ``wall=True`` for timestamps and durations.
* :class:`FlightRecorder` — a fixed-size ring of the last N span records
  per tier, dumped to disk on shard death, migration failure, or
  SIGUSR1, so postmortems after chaos runs have causal context.
* :func:`read_spans` / :func:`stitch_spans` / :func:`render_waterfall`
  — offline stitching of span files from any number of tiers into
  per-request waterfalls (``repro trace stitch``).
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.core.splitmix import SeedSampler, mix64
from repro.obs.tracer import read_trace

__all__ = [
    "TraceContext",
    "RequestSampler",
    "SpanExporter",
    "FlightRecorder",
    "flight_recorder",
    "set_flight_dump_dir",
    "read_spans",
    "stitch_spans",
    "longest_chain",
    "render_waterfall",
]

_MASK = 0xFFFFFFFFFFFFFFFF
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _name64(name: str) -> int:
    """FNV-1a 64-bit hash of a span name.

    Python's builtin ``hash`` is salted per process, so span ids derived
    from it would differ run to run; the name hash is pinned here instead.
    """
    h = _FNV_OFFSET
    for byte in name.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


@dataclass(frozen=True)
class TraceContext:
    """Causal context carried across tiers: ids plus the sampling bit.

    ``span_id`` is the id of the *current* (parent) span; every tier that
    does work derives a child context via :meth:`child` and reports the
    child id upward in its span record.  The root context has
    ``span_id == trace_id``.
    """

    trace_id: int
    span_id: int
    sampled: bool

    def child(self, name: str, index: int = 0) -> "TraceContext":
        """Deterministic child context for span ``name``.

        ``index`` disambiguates siblings with the same name (e.g. one
        ``queue`` span per shard, one ``forward`` span per backend).
        """
        sid = mix64(self.span_id ^ _name64(name) ^ (index & _MASK))
        return TraceContext(self.trace_id, sid, self.sampled)

    def to_wire(self) -> list:
        """The wire-envelope form: ``[trace_hex, span_hex, sampled]``."""
        return [f"{self.trace_id:016x}", f"{self.span_id:016x}",
                int(self.sampled)]

    @classmethod
    def from_wire(cls, value) -> "TraceContext | None":
        """Parse the wire form; malformed input degrades to untraced."""
        if value is None:
            return None
        try:
            trace_hex, span_hex, sampled = value
            return cls(int(str(trace_hex), 16) & _MASK,
                       int(str(span_hex), 16) & _MASK, bool(sampled))
        except (TypeError, ValueError):
            return None


class RequestSampler(SeedSampler):
    """Head-based request sampling, bit-compatible with ``DecisionTracer``.

    Request ``t`` (a deterministic submit counter, not wall time) maps to
    ``trace_id = mix64((seed << 1 | 1) ^ t)`` and is sampled iff the id
    falls below ``ceil(sample * 2**64)`` — the one rule of
    :class:`~repro.core.splitmix.SeedSampler`, which the decision tracer
    applies too, so a request's decision trace and its request trace are
    sampled in lockstep when they share a seed.
    """

    __slots__ = ()

    def context(self, t: int) -> TraceContext:
        """Root context for logical time ``t`` (``span_id == trace_id``)."""
        tid = self.trace_id(t)
        return TraceContext(tid, tid, tid < self._threshold)


class FlightRecorder:
    """Fixed-size ring of the last N span records per tier.

    Every :class:`SpanExporter` tees its records here (one shared
    process-global instance by default), so when a shard dies or a
    migration fails the dump carries the causal context leading up to the
    failure.  Dumps are no-ops until a dump directory is configured —
    tests and library users who never opt in never touch the filesystem.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rings: dict[str, deque] = {}
        self._lock = threading.Lock()
        self._dump_dir: Path | None = None
        self._n_dumps = 0

    def record(self, tier: str, record: dict) -> None:
        """Append one span record to the tier's ring."""
        with self._lock:
            ring = self._rings.get(tier)
            if ring is None:
                ring = self._rings[tier] = deque(maxlen=self.capacity)
            ring.append(record)

    def snapshot(self) -> dict:
        """Current ring contents, tier -> list (oldest first)."""
        with self._lock:
            return {tier: list(ring) for tier, ring in self._rings.items()}

    def set_dump_dir(self, directory) -> None:
        """Arm :meth:`dump`: dumps land under ``directory`` from now on."""
        with self._lock:
            self._dump_dir = Path(directory) if directory is not None else None

    def clear(self) -> None:
        """Drop all rings (dump directory and counter stay)."""
        with self._lock:
            self._rings.clear()

    def dump(self, reason: str, directory=None) -> Path | None:
        """Write the rings to a JSON postmortem file; returns its path.

        ``directory`` overrides the configured dump dir; with neither set
        this is a no-op returning ``None`` (never litters the cwd).
        """
        with self._lock:
            target = Path(directory) if directory is not None else self._dump_dir
            if target is None:
                return None
            self._n_dumps += 1
            slug = re.sub(r"[^A-Za-z0-9]+", "-", reason).strip("-") or "dump"
            path = target / f"flight-{self._n_dumps:03d}-{slug}.json"
            payload = {
                "reason": reason,
                "capacity": self.capacity,
                "spans": {tier: list(ring)
                          for tier, ring in sorted(self._rings.items())},
            }
        target.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return path


_GLOBAL_RECORDER = FlightRecorder()


def flight_recorder() -> FlightRecorder:
    """The process-global flight recorder all exporters tee into."""
    return _GLOBAL_RECORDER


def set_flight_dump_dir(directory) -> None:
    """Arm the global flight recorder's dump directory."""
    _GLOBAL_RECORDER.set_dump_dir(directory)


class SpanExporter:
    """Appends span records to one JSONL file (single logical writer).

    ``wall=False`` (the default) omits every wall-clock field so the file
    is a pure function of the request stream — the property the
    inline-vs-process byte-identity test pins.  Network-facing tiers pass
    ``wall=True`` to get ``ts`` (epoch seconds) and optional ``dur``.

    Key order is fixed (``ev, trace, span, parent, name, tier, t, attrs,
    ts, dur``) and records are compact-separator JSON, matching the
    decision tracer's emission discipline.
    """

    def __init__(self, path, *, wall: bool = False,
                 recorder: FlightRecorder | None = None) -> None:
        self.path = Path(path)
        self.wall = wall
        self._fh = open(self.path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self._recorder = recorder if recorder is not None else flight_recorder()
        self._closed = False

    def emit(self, ctx: TraceContext, name: str, *, tier: str, t: int = 0,
             index: int = 0, attrs: dict | None = None,
             dur: float | None = None) -> TraceContext:
        """Record one span as a child of ``ctx``; returns the child context.

        Unsampled contexts still derive (and return) the child so
        propagation code is branch-free; nothing is written for them.
        """
        child = ctx.child(name, index)
        if not ctx.sampled:
            return child
        obj: dict = {
            "ev": "span",
            "trace": f"{child.trace_id:016x}",
            "span": f"{child.span_id:016x}",
            "parent": f"{ctx.span_id:016x}",
            "name": name,
            "tier": tier,
            "t": int(t),
        }
        if attrs:
            obj["attrs"] = attrs
        if self.wall:
            obj["ts"] = round(time.time(), 6)
            if dur is not None:
                obj["dur"] = round(dur, 6)
        self._recorder.record(tier, obj)
        line = json.dumps(obj, separators=(",", ":")) + "\n"
        with self._lock:
            if not self._closed:
                self._fh.write(line)
        return child

    def flush(self) -> None:
        """Flush buffered records to disk."""
        with self._lock:
            if not self._closed:
                self._fh.flush()

    def close(self) -> None:
        """Flush and close the file (idempotent; later emits are dropped)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._fh.flush()
            self._fh.close()

    def __enter__(self) -> "SpanExporter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- offline stitching -----------------------------------------------------

def read_spans(*paths) -> list:
    """Parse span JSONL files into a flat record list (file order kept)."""
    records: list = []
    for path in paths:
        records.extend(read_trace(path))
    return records


def stitch_spans(records) -> dict:
    """Group span records by trace id, preserving input order.

    Duplicate ``(trace, span)`` pairs keep only their first occurrence:
    span ids are deterministic functions of the parent chain, so a
    recovery replay (or re-reading overlapping files) re-emits the same
    ids and stitching collapses them instead of double-counting.
    """
    traces: dict[str, list] = {}
    seen: set[tuple[str, str]] = set()
    for rec in records:
        if rec.get("ev") != "span":
            continue
        key = (rec["trace"], rec["span"])
        if key in seen:
            continue
        seen.add(key)
        traces.setdefault(rec["trace"], []).append(rec)
    return traces


def _children_index(records) -> tuple[dict, list]:
    """(parent span id -> children, roots) for one trace's records."""
    ids = {rec["span"] for rec in records}
    children: dict[str, list] = {}
    roots = []
    for rec in records:
        parent = rec.get("parent", "")
        if parent in ids:
            children.setdefault(parent, []).append(rec)
        else:
            roots.append(rec)
    return children, roots


def longest_chain(records) -> list:
    """The longest root-to-leaf causal chain among one trace's spans.

    This is the quantity the acceptance criterion counts ("N
    causally-linked spans"): each element's ``parent`` is the previous
    element's ``span``.
    """
    children, roots = _children_index(records)
    best: list = []

    def walk(rec, acc, seen) -> None:
        nonlocal best
        if len(acc) > len(best):
            best = list(acc)
        for child in children.get(rec["span"], []):
            if child["span"] in seen:  # defensive: malformed cyclic input
                continue
            walk(child, acc + [child], seen | {child["span"]})

    for root in roots:
        walk(root, [root], {root["span"]})
    return best


def render_waterfall(trace_id: str, records) -> str:
    """Render one trace's spans as an indented causal waterfall."""
    children, roots = _children_index(records)
    wall = [rec["ts"] for rec in records if "ts" in rec]
    t0 = min(wall) if wall else None
    lines = [f"trace {trace_id}  ({len(records)} span(s))"]

    def describe(rec) -> str:
        bits = [f"{rec.get('tier', '?')}:{rec.get('name', '?')}",
                f"t={rec.get('t', 0)}"]
        if t0 is not None and "ts" in rec:
            bits.append(f"+{1e3 * (rec['ts'] - t0):.3f}ms")
        if "dur" in rec:
            bits.append(f"dur={1e3 * rec['dur']:.3f}ms")
        attrs = rec.get("attrs") or {}
        bits += [f"{k}={v}" for k, v in attrs.items()]
        return "  ".join(bits)

    def walk(rec, depth, seen) -> None:
        lines.append("  " * depth + describe(rec))
        for child in children.get(rec["span"], []):
            if child["span"] in seen:
                continue
            walk(child, depth + 1, seen | {child["span"]})

    for root in roots:
        walk(root, 1, {root["span"]})
    return "\n".join(lines) + "\n"
