"""One run of one workload, in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --size full|tiny --trace 0|1 --t0 SPAWN_MONOTONIC [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it spawned this
process, so set-up time covers interpreter start, imports and building the
program's objects.  With ``--setup-only`` the process stops once the
program is ready to serve (``run.py`` uses this to take several set-up
samples per run).
"""

from __future__ import annotations

import argparse
import shutil
import sys
import traceback
from time import monotonic


def build(name: str, p: dict, seed: int, store):
    """The program's set-up: imports plus building its objects."""
    import numpy as np

    import workloads

    rng = np.random.default_rng([seed, 0])
    if name == "replay-rw":
        inst, svc = workloads.setup_replay(p, seed, rng)
    elif name == "observed-ml3":
        inst, svc = workloads.setup_observed(p, seed, rng)
    else:
        return workloads.setup_certify(p, seed), None
    if store is not None:
        store.label_engines(svc)
    return inst, svc


def run(args) -> dict:
    from common import OUT
    from workloads import SIZES

    p = SIZES[args.workload][args.size]
    if args.workload == "wire-hot":
        from wire import run_wire

        return run_wire(p, args.seed, args.seconds, args.size,
                        bool(args.trace), args.setup_only)

    for sub in ("decisions", "spans"):
        shutil.rmtree(OUT / sub, ignore_errors=True)
    store = None
    if args.trace:
        from spans import SpanStore, install

        store = SpanStore()
        install(store)
    built, svc = build(args.workload, p, args.seed, store)
    setup_s = monotonic() - args.t0
    if args.setup_only:
        if svc is not None:
            svc.stop()
        return {"setup_s": setup_s}

    import numpy as np

    import workloads

    if args.workload == "certify-rw":
        instances, registry = built
        result = workloads.run_certify(args.seconds, store, instances,
                                       registry)
    else:
        make = (workloads.rw_stream if args.workload == "replay-rw"
                else workloads.ml3_stream)
        pages, levels = make(p, np.random.default_rng([args.seed, 1]),
                             p["stream"])
        result = workloads.run_serving(args.workload, p, args.seed,
                                       args.seconds, store, built, svc,
                                       pages, levels)
    result["setup_s"] = setup_s
    layers_in = result.pop("layers_in")
    if layers_in is not None:
        from layers import compute

        OUT.mkdir(exist_ok=True)
        store.write(OUT / f"{args.workload}.spans.jsonl")
        facts = dict(result["extra"], cpu_s=result["cpu_s"],
                     failed=result["failed"])
        result["layers"] = compute(layers_in, facts)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="one benchmark run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    from common import emit

    try:
        result = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
