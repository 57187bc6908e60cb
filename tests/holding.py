"""Test helpers that fix the order of concurrent events by construction.

A test that counts the outcomes of a burst must not depend on whether a
shard worker happens to finish an early submit while the burst is still
being admitted: :func:`held_shards` keeps every worker from serving until
the test says so.  :func:`wait_until` replaces fixed sleeps with a
bounded poll on an observable condition.
"""

import contextlib
import time


@contextlib.contextmanager
def held_shards(svc):
    """Keep every shard worker of a started ``PagingService`` from serving.

    A worker takes its shard's op lock around every batch it applies (the
    lock a migration capture takes), so holding all of them parks the
    workers before their next batch: submits are still accepted into the
    queues, but no ticket resolves until the block exits.
    """
    locks = [state.op_lock for state in svc._states]
    for lock in locks:
        lock.acquire()
    try:
        yield
    finally:
        for lock in locks:
            lock.release()


def wait_until(predicate, timeout=10.0, what="condition"):
    """Poll ``predicate`` every few ms; fail after ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"{what} not reached within {timeout:g}s")
        time.sleep(0.002)
