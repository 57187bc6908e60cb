"""Sampled, bounded JSONL decision tracing and trace replay.

The paper's guarantees are statements about *which copy gets evicted when*;
a competitive-ratio anomaly is invisible in aggregate counters.  A
:class:`DecisionTracer` records, per sampled request, the request itself
(hit/miss), every eviction the policy charged while serving it (victim,
level, cost, reason) and — for policies that expose them — the candidate
set with scores at the moment of choice.

Determinism
-----------
Sampling is a pure function of ``(seed, t)`` via the splitmix64 finalizer
(:class:`~repro.core.splitmix.SeedSampler`), so the same seed and workload
produce the *byte-identical* trace in every execution mode (inline,
threaded, re-run) — the property the conformance tests pin down.  Events carry only logical fields (no wall-clock), and
every line is serialized with a fixed key order.

Bounding
--------
``max_events`` caps the number of body events written; past the cap events
are counted as dropped (the ``end`` record reports both), so tracing a
long run can never fill a disk.

Format (one JSON object per line)::

    {"ev":"meta","v":1,"sample":0.1,"seed":0,"source":"shard-0"}
    {"ev":"req","t":17,"page":3,"level":1,"hit":false}
    {"ev":"cand","t":17,"cands":[[5,1,0.25],[9,2,1.5]]}
    {"ev":"evict","t":17,"page":5,"level":1,"cost":2.0,"reason":"capacity"}
    {"ev":"end","n_written":3,"n_dropped":0,"n_requests":1}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.splitmix import SeedSampler

__all__ = [
    "TRACE_VERSION",
    "TRACE_SCHEMA",
    "DecisionTracer",
    "TraceValidation",
    "validate_trace",
    "read_trace",
    "TraceSummary",
    "replay_trace",
]

TRACE_VERSION = 1

#: Required fields (and their JSON types) per event type; the contract the
#: CI smoke step and :func:`validate_trace` check every line against.
TRACE_SCHEMA: dict[str, dict[str, type | tuple[type, ...]]] = {
    "meta": {"v": int, "sample": (int, float), "seed": int, "source": str},
    "req": {"t": int, "page": int, "level": int, "hit": bool},
    "evict": {"t": int, "page": int, "level": int,
              "cost": (int, float), "reason": str},
    "cand": {"t": int, "cands": list},
    "end": {"n_written": int, "n_dropped": int, "n_requests": int},
}


class DecisionTracer(SeedSampler):
    """Writes sampled paging decisions as JSONL; see the module docstring.

    Parameters
    ----------
    sink:
        Path to the output file, or any object with ``write(str)``.
    sample:
        Fraction of requests to record, in [0, 1].  The decision is a pure
        function of ``(seed, t)``; evictions and candidate events attach to
        their request's sampling decision, so a sampled request is recorded
        *with* its consequences.
    seed:
        Sampling seed — vary to sample a different deterministic subset.
    max_events:
        Hard cap on body events written (``meta``/``end`` excluded).
    source:
        Free-form origin tag recorded in the ``meta`` line (e.g. which
        shard produced this trace).
    resume:
        Re-open an *existing* trace file (``r+``) without writing a new
        ``meta`` line.  Used by respawned shard worker processes: the
        previous worker already wrote the meta record, and the caller is
        expected to :meth:`rewind` to a checkpoint mark immediately (which
        also restores the event counters), so the resumed stream stays
        byte-identical to an uninterrupted one.  Requires a path sink.
    """

    __slots__ = ("max_events", "source", "n_written", "n_dropped",
                 "n_requests", "sampled", "_file", "_write", "_owns_file",
                 "_closed")

    def __init__(self, sink, *, sample: float = 1.0, seed: int = 0,
                 max_events: int = 1_000_000, source: str = "",
                 resume: bool = False) -> None:
        super().__init__(seed, sample)
        if max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {max_events}")
        self.max_events = int(max_events)
        self.source = source
        self.n_written = 0
        self.n_dropped = 0
        self.n_requests = 0
        #: Whether the request currently being served is sampled; eviction
        #: and candidate events consult this so they follow their request.
        self.sampled = False
        if isinstance(sink, (str, Path)):
            self._file = open(sink, "r+" if resume else "w", encoding="utf-8")
            self._owns_file = True
            if resume:
                self._file.seek(0, 2)  # append position until the rewind
        elif resume:
            raise ValueError("resume requires a path sink")
        else:
            self._file = sink
            self._owns_file = False
        self._write = self._file.write
        self._closed = False
        if not resume:
            self._emit({"ev": "meta", "v": TRACE_VERSION,
                        "sample": self.sample, "seed": self.seed,
                        "source": self.source}, count=False)

    # -- sampling ------------------------------------------------------------
    @property
    def active(self) -> bool:
        """False when no request can ever be sampled (``sample == 0``).

        Callers use this to leave the tracer out of serving entirely —
        it then neither splits batches nor sees evictions, which keeps
        unsampled tracing within noise of untraced throughput.
        """
        return self._threshold > 0

    # -- event emission ------------------------------------------------------
    def _emit(self, obj: dict, *, count: bool = True) -> None:
        if count:
            if self.n_written >= self.max_events:
                self.n_dropped += 1
                return
            self.n_written += 1
        self._write(json.dumps(obj, separators=(",", ":")) + "\n")

    def request(self, t: int, page: int, level: int, hit: bool) -> None:
        """Record request ``(page, level)`` at time ``t``; sets :attr:`sampled`."""
        self.n_requests += 1
        self.sampled = self.want(t)
        if self.sampled:
            self._emit({"ev": "req", "t": t, "page": page, "level": level,
                        "hit": bool(hit)})

    def skip(self, n: int) -> None:
        """Count ``n`` requests served unsampled; clears :attr:`sampled`."""
        self.n_requests += n
        self.sampled = False

    def eviction(self, t: int, page: int, level: int, cost: float,
                 reason: str = "") -> None:
        """Record an eviction charged while serving the current request."""
        if self.sampled:
            self._emit({"ev": "evict", "t": t, "page": page, "level": level,
                        "cost": cost, "reason": reason})

    def candidates(self, t: int, cands) -> None:
        """Record the eviction candidate set ``[(page, level, score), ...]``."""
        if self.sampled:
            self._emit({"ev": "cand", "t": t,
                        "cands": [[int(p), int(lv), float(s)]
                                  for p, lv, s in cands]})

    # -- checkpoint support --------------------------------------------------
    def mark(self) -> tuple:
        """Snapshot the stream position + counters for a later :meth:`rewind`.

        Flushes pending output first so the returned byte offset reflects
        everything emitted so far.  Non-seekable sinks get a ``None``
        position: rewind then restores counters only (the stream itself
        cannot be truncated — recovery traces stay *append*-consistent
        but not byte-identical; the service only enables recovery tracing
        on regular files, where positions are always available).
        """
        self._file.flush()
        try:
            pos = self._file.tell() if self._file.seekable() else None
        except (OSError, AttributeError):
            pos = None
        return (pos, self.n_written, self.n_dropped, self.n_requests)

    def rewind(self, mark: tuple) -> None:
        """Roll the stream and counters back to a :meth:`mark` snapshot.

        Used by shard recovery: after restoring a checkpoint, the tracer
        truncates its JSONL file back to the marked byte offset, so the
        replayed suffix re-emits the identical lines and the final file is
        byte-for-byte what a fault-free run writes.
        """
        if self._closed:
            raise ValueError("cannot rewind a closed tracer")
        pos, n_written, n_dropped, n_requests = mark
        if pos is not None:
            self._file.flush()
            self._file.seek(pos)
            self._file.truncate()
        self.n_written = n_written
        self.n_dropped = n_dropped
        self.n_requests = n_requests
        self.sampled = False

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Write the ``end`` record and close the sink (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._emit({"ev": "end", "n_written": self.n_written,
                    "n_dropped": self.n_dropped,
                    "n_requests": self.n_requests}, count=False)
        if self._owns_file:
            self._file.close()
        else:
            self._file.flush()

    def __enter__(self) -> "DecisionTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"DecisionTracer(sample={self.sample}, seed={self.seed}, "
            f"written={self.n_written}, dropped={self.n_dropped})"
        )


# -- reading / validation ---------------------------------------------------

def read_trace(path):
    """Yield one event dict per line of a JSONL trace (or span) file.

    A line that is not a JSON object raises :class:`ValueError` naming the
    file and the line.
    """
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path} line {lineno}: invalid JSON ({exc.msg})"
                ) from None
            if not isinstance(obj, dict):
                raise ValueError(f"{path} line {lineno}: not a JSON object")
            yield obj


@dataclass(frozen=True)
class TraceValidation:
    """Outcome of validating a trace file against :data:`TRACE_SCHEMA`."""

    n_lines: int
    n_by_type: dict[str, int]
    errors: list[str]

    @property
    def ok(self) -> bool:
        """True when every line conformed to the schema."""
        return not self.errors

    def render(self) -> str:
        """Human-readable one-paragraph report."""
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.n_by_type.items()))
        head = f"{self.n_lines} lines ({counts}): " + (
            "OK" if self.ok else f"{len(self.errors)} error(s)"
        )
        return "\n".join([head] + [f"  - {e}" for e in self.errors])


def validate_trace(path, *, max_errors: int = 20) -> TraceValidation:
    """Check every line of a JSONL trace against :data:`TRACE_SCHEMA`.

    Structural requirements: the first line is ``meta`` with a known
    version, the last is ``end``, and the ``end`` record's counts match
    the body.  Reports at most ``max_errors`` problems.
    """
    n_lines = 0
    n_by_type: dict[str, int] = {}
    errors: list[str] = []
    last_ev = None
    n_body = 0

    def err(msg: str) -> None:
        if len(errors) < max_errors:
            errors.append(msg)

    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            n_lines += 1
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                err(f"line {lineno}: invalid JSON ({exc.msg})")
                continue
            ev = obj.get("ev")
            if ev not in TRACE_SCHEMA:
                err(f"line {lineno}: unknown event type {ev!r}")
                continue
            n_by_type[ev] = n_by_type.get(ev, 0) + 1
            for fname, ftype in TRACE_SCHEMA[ev].items():
                if fname not in obj:
                    err(f"line {lineno}: {ev} missing field {fname!r}")
                elif not isinstance(obj[fname], ftype) or (
                    # bool is an int subclass; reject it for int-typed fields.
                    ftype is int and isinstance(obj[fname], bool)
                ):
                    err(f"line {lineno}: {ev}.{fname} has type "
                        f"{type(obj[fname]).__name__}")
            if n_lines == 1:
                if ev != "meta":
                    err("line 1: trace must start with a meta record")
                elif obj.get("v") != TRACE_VERSION:
                    err(f"line 1: unsupported trace version {obj.get('v')!r}")
            elif ev == "meta":
                err(f"line {lineno}: duplicate meta record")
            if ev not in ("meta", "end"):
                n_body += 1
            if ev == "end" and isinstance(obj.get("n_written"), int) \
                    and obj["n_written"] != n_body:
                err(f"line {lineno}: end.n_written={obj['n_written']} but "
                    f"{n_body} body events precede it")
            last_ev = ev
    if n_lines == 0:
        err("empty trace file")
    elif last_ev != "end":
        err("trace must finish with an end record (file truncated?)")
    return TraceValidation(n_lines=n_lines, n_by_type=n_by_type, errors=errors)


# -- replay -----------------------------------------------------------------

@dataclass
class _PageStats:
    requests: int = 0
    hits: int = 0
    evictions: int = 0
    cost: float = 0.0


@dataclass(frozen=True)
class TraceSummary:
    """Per-page / per-level aggregation of one decision trace.

    ``repro trace replay`` renders this to debug competitive-ratio
    blow-ups: which pages thrash, which levels absorb the cost, how the
    candidate sets looked when the expensive evictions happened.
    """

    meta: dict
    n_requests: int
    n_hits: int
    n_evictions: int
    total_cost: float
    n_candidate_sets: int
    per_page: dict[int, _PageStats] = field(default_factory=dict)
    requests_by_level: dict[int, int] = field(default_factory=dict)
    evictions_by_level: dict[int, int] = field(default_factory=dict)
    cost_by_level: dict[int, float] = field(default_factory=dict)
    cost_by_reason: dict[str, float] = field(default_factory=dict)

    def level_table(self):
        """Per-level requests / evictions / cost table."""
        from repro.analysis.tables import Table

        table = Table(["level", "requests", "evictions", "evict cost",
                       "cost share"],
                      title="trace replay: per-level")
        levels = sorted(set(self.requests_by_level) | set(self.cost_by_level))
        for lv in levels:
            cost = self.cost_by_level.get(lv, 0.0)
            share = cost / self.total_cost if self.total_cost else 0.0
            table.add_row(lv, self.requests_by_level.get(lv, 0),
                          self.evictions_by_level.get(lv, 0), cost, share)
        return table

    def page_table(self, top: int = 10):
        """The ``top`` pages by eviction cost — the thrash suspects."""
        from repro.analysis.tables import Table

        table = Table(["page", "requests", "hits", "evictions", "evict cost"],
                      title=f"trace replay: top {top} pages by eviction cost")
        ranked = sorted(self.per_page.items(),
                        key=lambda kv: (-kv[1].cost, kv[0]))
        for page, s in ranked[:top]:
            table.add_row(page, s.requests, s.hits, s.evictions, s.cost)
        return table

    def render(self, top: int = 10) -> str:
        """Headline counters plus both tables."""
        hit_rate = self.n_hits / self.n_requests if self.n_requests else 0.0
        head = (
            f"trace: source={self.meta.get('source', '')!r} "
            f"sample={self.meta.get('sample')} seed={self.meta.get('seed')}\n"
            f"sampled requests: {self.n_requests} (hit rate {hit_rate:.3f}), "
            f"evictions: {self.n_evictions}, total cost: {self.total_cost:.3f}, "
            f"candidate sets: {self.n_candidate_sets}\n"
        )
        return (head + "\n" + self.level_table().render() + "\n"
                + self.page_table(top).render())


def replay_trace(path) -> TraceSummary:
    """Re-render a JSONL trace into per-page / per-level summaries."""
    meta: dict = {}
    per_page: dict[int, _PageStats] = {}
    requests_by_level: dict[int, int] = {}
    evictions_by_level: dict[int, int] = {}
    cost_by_level: dict[int, float] = {}
    cost_by_reason: dict[str, float] = {}
    n_requests = n_hits = n_evictions = n_candidate_sets = 0
    total_cost = 0.0
    for obj in read_trace(path):
        ev = obj["ev"]
        if ev == "req":
            n_requests += 1
            page, level = obj["page"], obj["level"]
            stats = per_page.get(page)
            if stats is None:
                stats = per_page[page] = _PageStats()
            stats.requests += 1
            if obj["hit"]:
                stats.hits += 1
                n_hits += 1
            requests_by_level[level] = requests_by_level.get(level, 0) + 1
        elif ev == "evict":
            n_evictions += 1
            page, level, cost = obj["page"], obj["level"], obj["cost"]
            stats = per_page.get(page)
            if stats is None:
                stats = per_page[page] = _PageStats()
            stats.evictions += 1
            stats.cost += cost
            total_cost += cost
            evictions_by_level[level] = evictions_by_level.get(level, 0) + 1
            cost_by_level[level] = cost_by_level.get(level, 0.0) + cost
            reason = obj.get("reason", "")
            if reason:
                cost_by_reason[reason] = cost_by_reason.get(reason, 0.0) + cost
        elif ev == "cand":
            n_candidate_sets += 1
        elif ev == "meta":
            meta = obj
    return TraceSummary(
        meta=meta,
        n_requests=n_requests,
        n_hits=n_hits,
        n_evictions=n_evictions,
        total_cost=total_cost,
        n_candidate_sets=n_candidate_sets,
        per_page=per_page,
        requests_by_level=requests_by_level,
        evictions_by_level=evictions_by_level,
        cost_by_level=cost_by_level,
        cost_by_reason=cost_by_reason,
    )
