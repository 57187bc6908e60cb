"""Networked load generation: drive a remote server with N connections.

:func:`run_network_load` is the wire twin of
:func:`repro.service.loadgen.run_load`: it replays the same request
sequence under the same open-loop pacing (batch ``i`` due at ``start +
i·B/rate``, globally — all connections share one clock) and produces the
same :class:`~repro.service.loadgen.LoadReport`, so networked and inline
numbers sit side by side in one table.

Concurrency model: one thread per connection, each owning one
:class:`~repro.net.PagingClient` (clients are not thread-safe; threads
never share one).  Batches are dealt round-robin by global batch index,
which keeps the pacing clock honest — connection ``c`` handles batches
``c, c+C, c+2C, …`` and sleeps until each batch's *global* due time.

``window`` controls per-connection pipelining: 1 means strict
round-trips (submit, wait, next); larger values use
``submit_nowait``/``collect_any`` to keep up to ``window`` submits in
flight, reaping completions only when the window is full or the stream
ends.  Overloaded acks honor ``on_overload`` exactly like the inline
generator: ``"retry"`` resubmits with capped backoff (round-trip mode)
or immediate resubmission (pipelined mode, where the window itself is
the backoff), ``"shed"`` drops and counts.

The pacing schedule, argument checks and report builder are the inline
generator's own (:mod:`repro.service.loadgen`).
"""

from __future__ import annotations

import threading
from pathlib import Path
from time import perf_counter

from repro.core.requests import RequestSequence
from repro.net.client import NetSubmitResult, PagingClient
from repro.obs.rtrace import RequestSampler, SpanExporter
from repro.service.loadgen import (
    LoadReport,
    check_load_args,
    load_schedule,
    sleep_until,
)
from repro.service.profiles import RateProfile

__all__ = ["run_network_load"]


class _ConnStats:
    """Accounting gathered by one connection thread."""

    __slots__ = ("latencies", "n_served", "n_batches", "n_overloaded",
                 "n_dropped", "n_failed", "error")

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.n_served = 0
        self.n_batches = 0
        self.n_overloaded = 0
        self.n_dropped = 0
        self.n_failed = 0
        self.error: BaseException | None = None

    def absorb(self, result: NetSubmitResult) -> None:
        """Fold one final ack into the tallies."""
        self.n_overloaded += result.retries
        if result.ok:
            self.n_batches += 1
            self.n_served += result.n_requests
            self.latencies.append(result.latency_s)
        elif result.status == "failed":
            self.n_batches += 1
            self.n_failed += 1
        else:  # overloaded (retries exhausted), shed, deadline
            if result.status == "overloaded":
                self.n_overloaded += 1
            self.n_dropped += 1


def _drive_connection(
    address: str | tuple[str, int],
    batches: list[tuple[float, int, object, object]],
    stats: _ConnStats,
    *,
    window: int,
    timeout: float,
    max_retries: int,
    retry_backoff: float,
    on_overload: str,
    started: float,
    sampler: RequestSampler | None = None,
    exporter: SpanExporter | None = None,
) -> None:
    """Thread body: replay this connection's slice of the batch stream.

    When ``sampler`` is set, every batch carries a trace context derived
    from its *global* batch index ``t`` (so the sampled set is a pure
    function of ``(trace_seed, t)``, independent of connection count);
    the ``client:submit`` span is exported once the final ack lands,
    with the round-trip latency as its duration.
    """
    try:
        client = PagingClient(address, timeout=timeout, retries=max_retries,
                              retry_backoff=retry_backoff)

        def ctx_for(t):
            return sampler.context(t) if sampler is not None else None

        def export(ctx, t, n, result) -> None:
            if exporter is not None and ctx is not None:
                exporter.emit(
                    ctx, "submit", tier="client", t=t,
                    attrs={"n_requests": n, "status": result.status},
                    dur=result.latency_s)

        with client:
            if window <= 1:
                for due, t, pages, levels in batches:
                    sleep_until(started + due)
                    ctx = ctx_for(t)
                    result = client.submit_batch(
                        pages, levels, on_overload=on_overload,
                        trace=ctx.child("submit") if ctx is not None else None)
                    stats.absorb(result)
                    export(ctx, t, len(pages), result)
                return
            # Pipelined: keep up to ``window`` submits in flight; an
            # overloaded ack is resubmitted immediately (the open window
            # already provides the pushback a sleep would).
            budgets: dict[int, tuple[object, object, int, int, object]] = {}
            it = iter(batches)

            def reap() -> None:
                rid, result = client.collect_any()
                pages, levels, attempts, t, ctx = budgets.pop(rid)
                if (result.retryable and on_overload == "retry"
                        and attempts < max_retries):
                    stats.n_overloaded += 1
                    nrid = client.submit_nowait(
                        pages, levels,
                        trace=ctx.child("submit") if ctx is not None else None)
                    budgets[nrid] = (pages, levels, attempts + 1, t, ctx)
                else:
                    stats.absorb(result)
                    export(ctx, t, len(pages), result)

            for due, t, pages, levels in it:
                sleep_until(started + due)
                while client.inflight >= window:
                    reap()
                ctx = ctx_for(t)
                rid = client.submit_nowait(
                    pages, levels,
                    trace=ctx.child("submit") if ctx is not None else None)
                budgets[rid] = (pages, levels, 0, t, ctx)
            while client.inflight:
                reap()
    except BaseException as exc:  # noqa: BLE001 - reported via the stats
        stats.error = exc


def run_network_load(
    address: str | tuple[str, int],
    seq: RequestSequence,
    *,
    rate: float = 100_000.0,
    batch_size: int = 256,
    connections: int = 1,
    window: int = 1,
    timeout: float = 10.0,
    max_retries: int = 3,
    retry_backoff: float = 0.001,
    on_overload: str = "retry",
    drain_timeout: float | None = 30.0,
    trace_sample: float = 0.0,
    trace_seed: int = 0,
    span_dir: str | Path | None = None,
    profile: RateProfile | None = None,
) -> LoadReport:
    """Replay ``seq`` against a remote server at ``rate`` requests/second.

    Opens ``connections`` sockets, deals batches round-robin across them,
    and reports the merged :class:`LoadReport`.  A connection thread that
    dies (transport failure) re-raises after the others finish — partial
    accounting is never silently reported as a healthy run.  The service
    is drained through the wire before reporting, so a subsequent
    snapshot covers every accepted request.

    ``span_dir`` switches on request tracing: every batch carries a
    trace context keyed by its global batch index, sampled at
    ``trace_sample`` under ``trace_seed`` (the deterministic tracing
    sampler), and ``client.spans.jsonl`` in that directory records one
    ``client:submit`` span per sampled batch.  ``span_dir`` with
    ``trace_sample=0.0`` still *propagates* contexts on the wire without
    recording any.  ``profile`` swaps the flat pacing for a
    :class:`~repro.service.profiles.RateProfile`'s due offsets, exactly
    as in the inline generator — the configuration the trace-overhead benchmark
    measures.
    """
    check_load_args(rate, batch_size, max_retries, on_overload)
    if connections < 1:
        raise ValueError(f"connections must be >= 1, got {connections}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not 0.0 <= trace_sample <= 1.0:
        raise ValueError(
            f"trace_sample must be in [0, 1], got {trace_sample}")
    pages, levels = seq.pages, seq.levels
    n = len(seq)
    offsets, target = load_schedule(n, batch_size, rate, profile)
    # Deal batches round-robin by global index; each keeps its *global*
    # open-loop due offset so C connections still offer ``rate`` req/s,
    # and its global index ``i`` doubles as the tracing sampler's clock.
    slices: list[list[tuple[float, int, object, object]]] = [
        [] for _ in range(connections)
    ]
    for i, (due, lo) in enumerate(zip(offsets, range(0, n, batch_size))):
        slices[i % connections].append(
            (due, i, pages[lo:lo + batch_size], levels[lo:lo + batch_size]))
    sampler: RequestSampler | None = None
    exporter: SpanExporter | None = None
    if span_dir is not None:
        directory = Path(span_dir)
        directory.mkdir(parents=True, exist_ok=True)
        sampler = RequestSampler(seed=trace_seed, sample=trace_sample)
        exporter = SpanExporter(directory / "client.spans.jsonl", wall=True)
    stats = [_ConnStats() for _ in range(connections)]
    started = perf_counter()
    threads = [
        threading.Thread(
            target=_drive_connection,
            args=(address, slices[c], stats[c]),
            kwargs=dict(window=window, timeout=timeout,
                        max_retries=0 if on_overload == "shed" else max_retries,
                        retry_backoff=retry_backoff, on_overload=on_overload,
                        started=started, sampler=sampler, exporter=exporter),
            name=f"repro-netload-{c}",
            daemon=True,
        )
        for c in range(connections)
    ]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        if exporter is not None:
            exporter.close()
    for s in stats:
        if s.error is not None:
            raise s.error
    # Drain over a fresh control connection so the post-run snapshot
    # covers every accepted batch, mirroring the inline generator.
    with PagingClient(address, timeout=max(timeout, drain_timeout or timeout)) as ctl:
        ctl.drain(drain_timeout)
    return LoadReport.from_tallies(
        target_rate=target, n_requests=n,
        duration_s=perf_counter() - started,
        latencies_s=[v for s in stats for v in s.latencies],
        n_served=sum(s.n_served for s in stats),
        n_batches=sum(s.n_batches for s in stats),
        n_overloaded=sum(s.n_overloaded for s in stats),
        n_dropped_batches=sum(s.n_dropped for s in stats),
        n_failed_batches=sum(s.n_failed for s in stats),
    )
