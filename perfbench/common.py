"""Small helpers shared by the benchmark's processes."""

from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter, thread_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where runs write traces and span files; listed in .gitignore.
OUT = ROOT / ".perfbench-out"


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``q`` in [0, 100])."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def cpu_seconds() -> float:
    """User + system CPU of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set size of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibrate_ms() -> float:
    """Median of five timings of a fixed pure-Python + numpy loop.

    Timed at the start of every run so a reader can see host-speed drift
    next to each number.
    """
    import numpy as np

    times = []
    for _ in range(5):
        started = perf_counter()
        acc = 0
        for i in range(100_000):
            acc += (i * i) % 7
        arr = np.arange(100_000, dtype=np.float64)
        for _ in range(20):
            arr = np.sqrt(arr + 1.0)
        times.append((perf_counter() - started) * 1000.0)
    return median(times)


#: CPU time the probe slice takes on the reference core, ms.
PROBE_REF_MS = 1.5
#: Seconds of measured work between two probe slices.
PROBE_EVERY_S = 0.25


class CoreProbe:
    """How fast the core running the measured work is, sampled through a run.

    The host's cores each switch between a fast and a slow state (up to
    about 1.8x apart) for seconds to minutes at a time, and the two cores
    do so mostly independently, so one calibration at the start of a run
    does not tell how fast the run's core was.  A sample is the thread CPU
    time of a fixed pure-Python slice, taken on the thread, and so the
    core, that runs the measured work, between its steps; CPU time leaves
    out waits for the GIL and for the core.  :meth:`speed` is the
    reference slice time over the median sample: the gated timings are
    scaled by it to a core on which the slice takes ``PROBE_REF_MS``.
    """

    def __init__(self) -> None:
        self.ms: list[float] = []

    def sample(self) -> None:
        started = thread_time()
        acc = 0
        for i in range(20_000):
            acc += (i * i) % 7
        self.ms.append((thread_time() - started) * 1000.0)

    @property
    def cpu_s(self) -> float:
        """CPU the samples took, to leave out of the program's CPU."""
        return sum(self.ms) / 1000.0

    def speed(self) -> float:
        """Core speed relative to the reference core (above 1: faster)."""
        return PROBE_REF_MS / median(self.ms)


def host_context() -> dict:
    """Core count and interpreter/library versions recorded with a result."""
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def child_env() -> dict:
    """Environment for child processes: the program's source on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def emit(obj: dict) -> None:
    """Print one JSON line (the last line of a process's stdout)."""
    sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def last_json_line(text: str) -> dict:
    """Parse the last non-empty line of a process's stdout."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("process printed no result line")
    return json.loads(lines[-1])
