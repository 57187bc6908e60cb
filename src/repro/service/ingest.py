"""Batched ingest primitives: tickets and overload responses.

The service accepts work in micro-batches through
:meth:`~repro.service.server.PagingService.submit_batch`.  A successful
submission returns a :class:`BatchTicket` — a countdown latch completed
once every shard has processed its slice, carrying the end-to-end batch
latency.  A submission the bounded queues cannot absorb returns
:class:`Overloaded` *immediately*: backpressure is an explicit response
the client handles (retry, shed, slow down), never unbounded buffering
inside the service.

Every non-ticket response carries two booleans the client branches on:
``accepted`` (did the service take the batch?) and ``retryable`` (is
resubmitting the same batch ever going to help?).  :class:`Overloaded` is
transient (``retryable``); :class:`Failed` — the owning shard is
permanently down — is terminal.  Clients that retry wait
:func:`retry_delay` between attempts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter

__all__ = ["Overloaded", "Failed", "BatchTicket", "BACKOFF_CAP_S",
           "retry_delay"]

#: Ceiling on one overload-retry delay: a service mid-recovery can reject
#: for ~100 ms, and an uncapped doubling would turn a large retry budget
#: into an astronomically long sleep.
BACKOFF_CAP_S = 0.05


def retry_delay(backoff: float, attempt: int) -> float:
    """Seconds to wait before overload retry ``attempt`` (1-based).

    ``min(backoff * 2**(attempt - 1), BACKOFF_CAP_S)``: the one retry
    schedule of the load generators, :class:`~repro.net.PagingClient` and
    the cluster proxy's backend links.
    """
    return min(backoff * 2 ** (attempt - 1), BACKOFF_CAP_S)


@dataclass(frozen=True)
class Overloaded:
    """Rejection response: shard ``shard``'s queue was at ``queue_depth``."""

    shard: int
    queue_depth: int

    @property
    def accepted(self) -> bool:
        """Always False — lets clients branch on a common field."""
        return False

    @property
    def retryable(self) -> bool:
        """True: backpressure is transient; resubmit the same batch later."""
        return True


@dataclass(frozen=True)
class Failed:
    """Terminal rejection: shard ``shard`` is permanently failed.

    Returned (never raised) by ``submit_batch`` once a shard has exhausted
    its restart budget, and used to complete the pending tickets of an
    unrecoverable shard so no ``wait()`` caller hangs.  ``error`` is the
    exception that killed the shard, for diagnostics.
    """

    shard: int
    error: BaseException | None = None

    @property
    def accepted(self) -> bool:
        """Always False — mirror of :attr:`Overloaded.accepted`."""
        return False

    @property
    def retryable(self) -> bool:
        """False: the shard is gone; retrying the same batch cannot help."""
        return False


class BatchTicket:
    """Completion handle for one accepted batch (a countdown latch).

    The batch is split across up to ``n_parts`` shard queues; each shard
    engine calls :meth:`part_done` after serving its slice — or
    :meth:`part_failed` if the owning shard died unrecoverably.  ``wait``
    blocks until every slice has been *resolved* either way (a failed
    ticket never hangs its waiter); :attr:`ok` distinguishes the outcomes
    and :attr:`latency` is the end-to-end submit-to-resolved time.
    """

    __slots__ = ("n_requests", "submitted_at", "completed_at", "_remaining",
                 "_errors", "_lock", "_event", "_callbacks")

    def __init__(self, n_parts: int, n_requests: int) -> None:
        self.n_requests = n_requests
        self.submitted_at = perf_counter()
        self.completed_at: float | None = None
        self._remaining = n_parts
        self._errors: tuple[BaseException, ...] = ()
        self._lock = threading.Lock()
        self._event = threading.Event()
        self._callbacks: list = []
        if n_parts == 0:
            self.completed_at = self.submitted_at
            self._event.set()

    @property
    def accepted(self) -> bool:
        """Always True — mirror of :attr:`Overloaded.accepted`."""
        return True

    def _resolve(self) -> None:
        """Complete the ticket: stamp, wake waiters, fire callbacks once."""
        self.completed_at = perf_counter()
        with self._lock:
            self._event.set()
            callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)

    def add_done_callback(self, fn) -> None:
        """Run ``fn(ticket)`` once every slice is resolved.

        Fires immediately (on the calling thread) if the ticket is already
        done; otherwise fires on whichever shard worker resolves the last
        slice.  Callbacks must be cheap and must not raise — this is the
        bridge the network frontend uses to complete responses from a
        worker thread into its event loop without a blocking ``wait``.
        """
        with self._lock:
            if not self._event.is_set():
                self._callbacks.append(fn)
                return
        fn(self)

    def part_done(self) -> None:
        """Signal that one shard finished its slice of the batch."""
        with self._lock:
            self._remaining -= 1
            done = self._remaining == 0
        if done:
            self._resolve()

    def part_failed(self, error: BaseException | None = None) -> None:
        """Resolve one slice as *failed*; the ticket still completes.

        Called by the service when the slice's shard died unrecoverably.
        Waiters wake exactly as for success — they check :attr:`ok`.
        """
        with self._lock:
            if error is not None:
                self._errors = self._errors + (error,)
            else:
                self._errors = self._errors + (
                    RuntimeError("shard slice failed"),
                )
            self._remaining -= 1
            done = self._remaining == 0
        if done:
            self._resolve()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until every slice is resolved; False on timeout."""
        return self._event.wait(timeout)

    @property
    def done(self) -> bool:
        """True once every shard slice has been resolved (ok or failed)."""
        return self._event.is_set()

    @property
    def failed(self) -> bool:
        """True when at least one slice was resolved as failed."""
        return bool(self._errors)

    @property
    def errors(self) -> tuple[BaseException, ...]:
        """The failures recorded against this ticket's slices."""
        return self._errors

    @property
    def ok(self) -> bool:
        """True when the batch fully completed with no failed slice."""
        return self._event.is_set() and not self._errors

    @property
    def latency(self) -> float | None:
        """Submit-to-resolved seconds, or None while still in flight."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at
