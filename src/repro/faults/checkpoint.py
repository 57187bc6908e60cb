"""Per-shard checkpoints: a pickled snapshot of the engine's state.

A :class:`ShardCheckpoint` captures everything that determines a shard's
future behavior — the bound policy (with its RNG cursor), the authoritative
cache contents, and the cost ledger with the shard's request and batch
counts — as **one** ``pickle.dumps`` of the policy object graph
(``policy -> cache -> ledger``), so the copy is internally consistent by
construction and, crucially, *process-portable*: the same payload restores
an in-process engine after a thread death or a fresh worker process after
a SIGKILL.

Two kinds of objects are deliberately kept out of the payload:

* **Live observability** — the engine's
  :class:`~repro.service.metrics.ShardMeter` (registry metric children,
  latency window, phase spans) is never pickled, and the decision tracer
  (an open file) is dropped by the ``__getstate__`` hooks of
  :class:`~repro.core.ledger.CostLedger` and
  :class:`~repro.algorithms.base.Policy` and re-attached by the restoring
  engine.  A restore rebases the meter on the restored totals, so
  exposition counters are *at-least-once* under recovery (replayed work
  counts twice), exactly like Prometheus counters across a process
  restart, and identical on every backend; the determinism surface is the
  ledger and the trace stream, both of which roll back.
* The **immutable substrate** (the instance's read-only weight arrays)
  *is* pickled — it is small — but the restoring engine re-points the
  cache and policy at its own instance so memory stays shared across
  repeated restores.

The trace stream rolls back through :meth:`~repro.obs.DecisionTracer.mark`
/ ``rewind``: a checkpoint remembers the tracer's file position, and
restoring truncates the JSONL back to it, so a recovered run's trace is
byte-identical to a fault-free run.

Checkpoints survive repeated restores for free: ``restore`` re-unpickles
the stored bytes each time, so handing state to an engine never aliases
the checkpoint's own payload.
"""

from __future__ import annotations

__all__ = ["ShardCheckpoint"]


class ShardCheckpoint:
    """A restorable snapshot of one shard engine (thread or process backed).

    ``seq`` is the replay-log sequence number of the last batch applied
    before capture: recovery restores the checkpoint and replays exactly
    the log entries with ``entry.seq > checkpoint.seq``.

    The engine contract is two methods: ``capture_state() -> (payload,
    trace_mark, t)`` returning the pickled state bytes, and
    ``restore_from(payload, trace_mark)`` installing them (rewinding the
    tracer when a mark is present).  The process backend forwards both
    over the worker pipe, so the checkpoint itself never touches a pipe
    or a file handle.
    """

    __slots__ = ("seq", "t", "trace_mark", "_payload")

    def __init__(self, seq: int, t: int, trace_mark, payload: bytes) -> None:
        self.seq = seq
        self.t = t
        self.trace_mark = trace_mark
        self._payload = payload

    @classmethod
    def capture(cls, engine, *, seq: int = 0) -> "ShardCheckpoint":
        """Pickle ``engine``'s replayable state (and mark its trace)."""
        payload, mark, t = engine.capture_state()
        return cls(seq=seq, t=t, trace_mark=mark, payload=payload)

    def restore(self, engine) -> None:
        """Load this checkpoint into ``engine`` (reusable: unpickles again)."""
        engine.restore_from(self._payload, self.trace_mark)

    @property
    def payload(self) -> bytes:
        """The pickled state bytes (what the cluster wire protocol ships)."""
        return self._payload

    @classmethod
    def from_wire(cls, t: int, payload: bytes) -> "ShardCheckpoint":
        """Rebuild a checkpoint received from another host.

        Sequence numbers and trace marks are host-local (replay-log
        cursors and open-file positions), so a shipped checkpoint carries
        neither: the receiving service re-sequences it against its own
        log and lets its own trace continue forward.
        """
        return cls(seq=0, t=int(t), trace_mark=None, payload=payload)

    def with_seq(self, seq: int) -> "ShardCheckpoint":
        """This checkpoint re-anchored at a new replay-log sequence number."""
        return ShardCheckpoint(seq=int(seq), t=self.t,
                               trace_mark=self.trace_mark,
                               payload=self._payload)

    def __repr__(self) -> str:
        return (
            f"ShardCheckpoint(seq={self.seq}, t={self.t}, "
            f"bytes={len(self._payload)})"
        )
