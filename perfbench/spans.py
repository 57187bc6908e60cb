"""Timing spans recorded around calls into the program's layers.

The benchmark never edits the program.  A traced run installs wrappers on
the public functions each layer exposes (class attributes, and module
attributes where a function was imported by name) *before* the program
builds its objects, so bound methods cached at construction time are the
wrapped ones.

Every wrapped call measures wall time (``perf_counter``) and the calling
thread's CPU time (``thread_time``).  Calls nest on a per-thread stack, so
a span's *self* time is its duration minus the time of the wrapped calls
it made on the same thread.  Batch-level calls are kept as individual
span records; per-request calls (``serve``, ``DecisionTracer.request``,
``charge_eviction``) are only folded into per-thread totals, which keeps a
multi-million-request run's trace in bounded memory.
"""

from __future__ import annotations

import json
import threading
from itertools import count
from time import perf_counter, thread_time

# Fields of one kept span record.
SPAN_FIELDS = ("id", "name", "thread", "parent", "w0", "w1", "cpu",
               "self_wall", "self_cpu", "items", "tag", "extra")

# Per-name totals: calls, items, wall, cpu, self_wall, self_cpu.
_CALLS, _ITEMS, _WALL, _CPU, _SELF_WALL, _SELF_CPU = range(6)


class _ThreadState:
    __slots__ = ("stack", "totals", "spans", "top_cpu", "name")

    def __init__(self, name: str) -> None:
        self.stack: list[list] = []
        self.totals: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.top_cpu = 0.0
        self.name = name


class SpanStore:
    """In-memory spans of one traced process, written out at the end."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = count(1)
        #: id(engine) -> (id(router), shard); lets queue waits pair the
        #: i-th routed part of a shard with that shard's i-th batch.
        self.engine_keys: dict[int, tuple[int, int]] = {}

    # -- recording ---------------------------------------------------------
    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            with self._lock:
                self._threads.append(state)
            self._local.state = state
            return state

    def wrap(self, fn, name: str, *, keep: bool = True, items=None,
             tag=None, extra=None):
        """Return ``fn`` wrapped to record a ``name`` span per call.

        ``items(args)`` counts the requests a call handles, ``tag(args)``
        identifies the object it ran on, and ``extra(args, result)`` adds
        a small JSON-able detail to kept records.
        """
        store = self

        def timed(*args, **kwargs):
            state = store._state()
            stack = state.stack
            frame = [0.0, 0.0, next(store._ids) if keep else 0]
            stack.append(frame)
            w0 = perf_counter()
            c0 = thread_time()
            result = ok = None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                c1 = thread_time()
                w1 = perf_counter()
                stack.pop()
                dw = w1 - w0
                dc = c1 - c0
                if stack:
                    parent = stack[-1]
                    parent[0] += dw
                    parent[1] += dc
                    parent_id = parent[2]
                else:
                    state.top_cpu += dc
                    parent_id = 0
                n = items(args) if items is not None else 1
                tot = state.totals.get(name)
                if tot is None:
                    tot = state.totals[name] = [0, 0, 0.0, 0.0, 0.0, 0.0]
                tot[_CALLS] += 1
                tot[_ITEMS] += n
                tot[_WALL] += dw
                tot[_CPU] += dc
                tot[_SELF_WALL] += dw - frame[0]
                tot[_SELF_CPU] += dc - frame[1]
                if keep:
                    state.spans.append((
                        frame[2], name, state.name, parent_id, w0, w1, dc,
                        dw - frame[0], dc - frame[1], n,
                        tag(args) if tag is not None else 0,
                        extra(args, result) if extra is not None and ok else None,
                    ))

        timed.__wrapped__ = fn
        return timed

    def patch(self, owner, attr: str, name: str, **kwargs) -> None:
        """Replace ``owner.attr`` (a class or module attribute) with its
        wrapped version for the rest of the process."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **kwargs))

    def label_engines(self, service) -> None:
        """Remember which router feeds each of ``service``'s engines."""
        for engine in service.engines:
            self.engine_keys[id(engine)] = (id(service.router), engine.shard_id)

    def clear(self) -> None:
        """Drop everything recorded so far (the end of a warm-up)."""
        with self._lock:
            for state in self._threads:
                state.totals.clear()
                state.spans.clear()
                state.top_cpu = 0.0

    # -- reading -----------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per-name totals summed over threads."""
        out: dict[str, list] = {}
        with self._lock:
            states = list(self._threads)
        for state in states:
            for name, tot in list(state.totals.items()):
                acc = out.setdefault(name, [0, 0, 0.0, 0.0, 0.0, 0.0])
                for i, v in enumerate(tot):
                    acc[i] += v
        keys = ("calls", "items", "wall", "cpu", "self_wall", "self_cpu")
        return {name: dict(zip(keys, tot)) for name, tot in out.items()}

    def spans(self) -> list[tuple]:
        """Every kept span record (see :data:`SPAN_FIELDS`)."""
        with self._lock:
            states = list(self._threads)
        records: list[tuple] = []
        for state in states:
            records.extend(state.spans)
        return records

    def top_cpu(self) -> float:
        """CPU seconds inside outermost wrapped calls, over all threads."""
        with self._lock:
            return sum(state.top_cpu for state in self._threads)

    def write(self, path) -> None:
        """Write kept spans as JSON lines, then one line of totals."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans():
                fh.write(json.dumps(dict(zip(SPAN_FIELDS, record)),
                                    separators=(",", ":")) + "\n")
            fh.write(json.dumps({"totals": self.totals(),
                                 "top_cpu": self.top_cpu()},
                                separators=(",", ":")) + "\n")


def _size(i: int):
    return lambda args: len(args[i])


def _submit_items(args) -> int:
    msg = args[0]
    if hasattr(msg, "pages"):
        return len(msg.pages)
    return getattr(msg, "n_requests", 0)


def _parts(args, result) -> list[int]:
    return [s for s, (p, _) in enumerate(result) if len(p)]


def _outcome(args, result) -> str:
    return type(result).__name__


def install(store: SpanStore) -> None:
    """Wrap every layer's timed calls; see ``layers.py`` for what each feeds."""
    from repro.algorithms.kernels import KernelWaterFillingPolicy
    from repro.offline import scale
    from repro.obs.rtrace import SpanExporter
    from repro.obs.tracer import DecisionTracer
    from repro.service.engine import ShardEngine
    from repro.service.metrics import ServiceLedger
    from repro.service.router import ShardRouter
    from repro.service.server import PagingService

    store.patch(KernelWaterFillingPolicy, "serve_batch", "kernels.serve_batch",
                items=_size(2))
    store.patch(KernelWaterFillingPolicy, "serve", "kernels.serve", keep=False)
    store.patch(ServiceLedger, "charge_eviction", "ledger.charge", keep=False)
    store.patch(ShardEngine, "process_batch", "engine.process_batch",
                items=_size(1), tag=lambda args: id(args[0]),
                extra=lambda args, result: args[0].n_batches - 1)
    store.patch(PagingService, "submit_batch", "service.submit_batch",
                items=_size(1), extra=_outcome)
    store.patch(ShardRouter, "split", "service.split", items=_size(1),
                tag=lambda args: id(args[0]), extra=_parts)
    store.patch(DecisionTracer, "request", "obs.tracer_request", keep=False)
    store.patch(SpanExporter, "emit", "obs.span_emit", keep=False)
    store.patch(scale, "solve_sparse_lp", "offline.solve_sparse_lp")
    store.patch(scale, "threshold_round", "offline.threshold_round")


def install_wire(store: SpanStore) -> None:
    """Wrap the codec and the proxy's backend channels (wire-hot child)."""
    import repro.cluster.proxy as proxy_mod
    import repro.net.client as client_mod
    import repro.net.server as server_mod
    from repro.net.client import PagingClient
    from repro.net.frame import FrameDecoder

    for module in (server_mod, proxy_mod, client_mod):
        store.patch(module, "encode", "net.encode", items=_submit_items)
    store.patch(FrameDecoder, "feed", "net.decode_feed", items=lambda a: 0)
    store.patch(PagingClient, "submit_nowait", "cluster.submit_nowait",
                items=_size(1))
    store.patch(PagingClient, "collect_any", "cluster.collect_any")
