"""The repo benchmark: one workload per run, every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --describe

Each run starts the workload in fresh worker processes (``worker.py``),
checks the program's outputs, prints a readable report and then, as the
last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` a separate traced worker times every layer's calls and the
metrics are the per-layer ones, plus the tracing overhead against an
untraced worker of the same run.  ``--workload all`` runs every workload
both ways.  The exit code is non-zero when any correctness check fails.

The end-to-end timings are scaled to a reference core by the speed that
``common.CoreProbe`` samples on the run's own core through the run: the
host's cores change speed by up to 1.8x for minutes at a time, which
moved unscaled replay-rw throughput by 0.41 IQR/median over ten seeds.
certify-rw's LP and rounding times are not scaled (see ``workloads``).
Set-up, which mostly imports numpy and scipy, is scaled instead by a
reference process that imports them just before each set-up sample.  The
report prints each timing as measured beside what it is scaled by.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import mean
from time import monotonic

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    SRC,
    calibrate_ms,
    child_env,
    host_context,
    last_json_line,
    median,
    percentile,
)
from layers import METRICS, UNITS  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

#: Seconds one run measures unless ``--seconds`` says otherwise.
RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
#: Set-up samples per run (fresh processes); the median is reported.
SETUP_SAMPLES = 3
#: The reference set-up: a fresh interpreter importing the libraries that
#: take most of every workload's set-up.  Its time followed set-up time
#: (correlation 0.90 over 12 alternating pairs) where the core probe did
#: not, as set-up waits on reading and loading many files.
REFERENCE_SETUP = "import numpy, scipy.sparse, scipy.optimize"
#: The reference set-up's time on the reference host, s.
REFERENCE_SETUP_S = 0.9
#: Wall-clock budget of one run, all of its processes included.
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("throughput_rps", "req/s", "requests in batches completed ok / timed wall "
     "(wire-hot: closed-loop phase 2), on the reference core; certify-rw: "
     "requests certified per LP+rounding second, as measured"),
    ("latency_ms", "ms", "mean latency of one unit of work, on the reference "
     "core: a batch from submit to completion (wire-hot: from its due time to "
     "its ack, open-loop windows); certify-rw: one certification, as measured"),
    ("setup_s", "s", "fresh process start until ready for the first request, "
     f"median of {SETUP_SAMPLES} processes, each scaled to a host where the "
     f"reference set-up takes {REFERENCE_SETUP_S} s"),
    ("peak_rss_mb", "MiB", "peak RSS of the process running the program"),
)


class RunFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, size: str, trace: int,
          deadline: float, setup_only: bool = False) -> dict:
    """One fresh worker process; returns its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)),
           "--size", size, "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=child_env(),
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload} worker exceeded the run budget") from exc
    if proc.returncode != 0:
        raise RunFailed(f"{workload} worker exited {proc.returncode}")
    return last_json_line(proc.stdout)


def reference_setup_s() -> float:
    """Wall time of a fresh process running ``REFERENCE_SETUP``."""
    started = monotonic()
    subprocess.run([sys.executable, "-c", REFERENCE_SETUP], check=True,
                   env=child_env(), timeout=60)
    return monotonic() - started


def end_to_end(result: dict, setup: list[float]) -> dict:
    """The gated metrics, timings scaled by the probed core speed."""
    return {
        "throughput_rps": result["requests"] / result["wall_s"] / result["speed"],
        "latency_ms": mean(result["latencies_ms"]) * result["latency_speed"],
        "setup_s": median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def report(workload: str, seed: int, result: dict, metrics: dict,
           units: dict, host: dict, calib: float, title: str) -> None:
    """Readable lines on stdout ahead of the JSON line."""
    extra = result.get("extra", {})
    print(f"== {workload} seed={seed} {title}")
    print(f"host: nproc={host.get('nproc')} usable_cores={host.get('usable_cores')} "
          f"python={host.get('python')} numpy={host.get('numpy')} "
          f"scipy={host.get('scipy')} host.calib_ms={calib:.3f}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {units[name]}")
    measured = (f"  as measured: {result['requests'] / result['wall_s']:.6g} req/s "
                f"at core speed {result['speed']:.4g}, "
                f"{mean(result['latencies_ms']):.6g} ms at {result['latency_speed']:.4g}")
    if "reference_setup_s" in result:
        measured += (f", set-up {result['setup_s']:.4g} s with the reference "
                     f"set-up taking {result['reference_setup_s']:.4g} s")
    print(measured)
    # Printed, not gated: on a shared 2-vCPU VM the host speed can flip
    # between a fast and a slow state every few seconds, so per-batch
    # latencies are bimodal and their quantiles jump between the modes from
    # run to run, while the mean moves with the share of time in each.
    lat = result["latencies_ms"]
    for q in (50.0, 99.0):
        print(f"  {f'p{q:.0f}_ms':<28} {percentile(lat, q):>16.6g} ms "
              f"({len(lat)} samples, {int(len(lat) * (1 - q / 100))} beyond)")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'failed_frac':<28} {failed / max(attempted, 1):>16.6g} fraction "
          f"({failed} of {attempted} {'certifications' if workload == 'certify-rw' else 'batches'})")
    if workload == "wire-hot":
        print(f"  p99 limit {extra.get('limit_ms')} ms: "
              f"{'met' if extra.get('limit_met') else 'unmet'}; "
              f"generator late p99 {extra.get('late_p99_ms', 0.0):.4g} ms over "
              f"{extra.get('phase1_batches')} open-loop batches")
    if workload == "certify-rw":
        for key, unit in (("certify_s", "s"), ("sandwich_width", "ratio"),
                          ("cost_ratio", "ratio")):
            print(f"  {key:<28} {extra[key]:>16.6g} {unit}")
    elif extra.get("unchecked"):
        print(f"  ledger not checked: {extra['unchecked']}")
    else:
        print(f"  ledger == scan oracle over the first "
              f"{extra.get('verified_requests')} requests")
    errors = result["errors"]
    print("  checks: " + ("all passed" if not errors else f"{len(errors)} FAILED"))
    for err in errors[:20]:
        print(f"    - {err}")


def run_untraced(workload: str, seed: int, seconds: float, size: str,
                 deadline: float) -> tuple[dict, dict]:
    setup = []
    for i in range(SETUP_SAMPLES):
        reference = reference_setup_s()
        result = spawn(workload, seed, seconds, size, 0, deadline,
                       setup_only=i < SETUP_SAMPLES - 1)
        setup.append(result["setup_s"] * REFERENCE_SETUP_S / reference)
    result["reference_setup_s"] = reference
    return result, end_to_end(result, setup)


def run_traced(workload: str, seed: int, seconds: float, size: str,
               deadline: float, calib: float) -> tuple[dict, dict]:
    base = spawn(workload, seed, seconds, size, 0, deadline)
    result = spawn(workload, seed, seconds, size, 1, deadline)
    metrics = {name: 0.0 for name, *_ in METRICS}
    metrics.update((k, v) for k, v in result["layers"].items() if k in metrics)
    e2e_base = end_to_end(base, [base["setup_s"]])
    e2e = end_to_end(result, [result["setup_s"]])
    metrics["host.calib_ms"] = calib
    metrics["trace.throughput_ratio"] = (e2e["throughput_rps"]
                                         / e2e_base["throughput_rps"])
    metrics["trace.latency_ratio"] = e2e["latency_ms"] / e2e_base["latency_ms"]
    result["errors"] = base["errors"] + result["errors"]
    return result, metrics


def run_one(workload: str, seed: int, seconds: float, size: str,
            trace: int) -> dict:
    deadline = monotonic() + RUN_BUDGET_S
    host = host_context()
    calib = calibrate_ms()
    if trace:
        result, metrics = run_traced(workload, seed, seconds, size, deadline,
                                     calib)
        units = UNITS
    else:
        result, metrics = run_untraced(workload, seed, seconds, size, deadline)
        units = {name: unit for name, unit, _ in END_TO_END}
    report(workload, seed, result, metrics, units, host, calib,
           "traced (per-layer)" if trace else "untraced (end-to-end)")
    return {
        "correct": not result["errors"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def describe() -> None:
    print("workloads (sizes: full is measured, tiny is the smoke test):")
    for name in WORKLOADS:
        print(f"  {name}: {json.dumps(SIZES[name]['full'])}")
    print("end-to-end metrics:")
    for name, unit, what in END_TO_END:
        print(f"  {name} [{unit}]: {what}")
    print("per-layer metrics -> the end-to-end metric each should move:")
    for name, unit, what, moves in METRICS:
        print(f"  {name} [{unit}]: {what} -> {moves}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--describe", action="store_true",
                        help="print the workloads and the layer map, then exit")
    args = parser.parse_args()
    if args.describe:
        describe()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"benchmark: program source not found under {SRC}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    outputs = {}
    try:
        for name in names:
            for trace in traces:
                outputs[(name, trace)] = run_one(name, args.seed, args.seconds,
                                                 args.size, trace)
    except RunFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        last = {"correct": all(o["correct"] for o in outputs.values()),
                "results": {f"{n}/{'trace' if t else 'e2e'}": o
                            for (n, t), o in outputs.items()}}
    else:
        last = outputs[(args.workload, args.trace)]
    print(json.dumps(last, separators=(",", ":")))
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
