"""Command-line interface: ``python -m repro <command>``.

:func:`_build_parser` is the CLI's one table: every command and
subcommand, its flags, each numeric flag's valid range, how lists and
addresses parse, and the handler that runs the command.
``python -m repro [COMMAND ...] --help`` prints it.

Exit codes: 0 on success, 1 when a command ran and reports a failure (a
violated inequality, a failed sandwich check, a replay mismatch), and 2
when an input is rejected.  A rejected input -- a flag outside its
range, a malformed list or address, a cross-flag conflict, an invalid
instance or service shape, a missing input file -- is reported as one
stderr line that names the flag or the file, never as a traceback.

Examples
--------
::

    python -m repro policies
    python -m repro run --policies lru,landlord-kernel,waterfilling \
        --n-pages 32 --cache-size 8 --requests 5000 --workload zipf --opt
    python -m repro run --policies randomized-multilevel --levels 3 \
        --n-pages 24 --cache-size 6 --workload multilevel --seeds 5
    python -m repro run --policies waterfilling --requests 2000 \
        --trace run.jsonl --trace-sample 0.25
    python -m repro trace replay run.jsonl --top 15
    python -m repro verify --n-pages 5 --cache-size 2 --levels 2
    python -m repro serve --policy waterfilling-kernel --k 64 --shards 4 \
        --metrics-port 9100 --trace-dir traces/
    python -m repro serve --faults kill:0@600 --checkpoint-interval 500
    python -m repro loadgen --rate 100000 --shards 4 --retry 5 \
        --on-overload retry
    python -m repro serve --listen 127.0.0.1:7411 --shards 4
    python -m repro loadgen --connect 127.0.0.1:7411 --connections 4 \
        --window 8 --rate 50000
    python -m repro cluster proxy --listen 127.0.0.1:7500 \
        --backends 127.0.0.1:7411,127.0.0.1:7412
    python -m repro cluster proxy --listen 127.0.0.1:7500 \
        --backends 127.0.0.1:7411,127.0.0.1:7412 --federate-port 9200 \
        --backend-metrics 127.0.0.1:7411=http://127.0.0.1:9101/metrics,\
127.0.0.1:7412=http://127.0.0.1:9102/metrics
    python -m repro top --url http://127.0.0.1:9200/metrics --once
    python -m repro serve --listen 127.0.0.1:7411 --span-dir spans/
    python -m repro loadgen --connect 127.0.0.1:7500 --span-dir spans/ \
        --trace-sample 0.01
    python -m repro trace stitch spans/*.spans.jsonl --limit 3
    python -m repro cluster status --proxy 127.0.0.1:7500
    python -m repro cluster migrate --proxy 127.0.0.1:7500 \
        --shard 2 --to 127.0.0.1:7412
    python -m repro cluster rebalance --proxy 127.0.0.1:7500
    python -m repro cluster drain 127.0.0.1:7412 --proxy 127.0.0.1:7500
    python -m repro serve --listen 127.0.0.1:7411 --controller \
        --metrics-port 9100
    python -m repro loadgen --connect 127.0.0.1:7411 --profile diurnal \
        --profile-period 5 --rate 80000 --on-overload shed
    python -m repro loadgen --record run.npz --rate 50000
    python -m repro replay run run.npz
    python -m repro replay compare run.npz --policies lru,landlord-kernel
    python -m repro opt bound --n-pages 8 --cache-size 3 --requests 400 \
        --check
    python -m repro opt bound run.npz --prefer sparse-lp --cost 1234.5
"""

from __future__ import annotations

import argparse
import math
import sys

from repro.algorithms import policy_registry
from repro.analysis import Table, competitive_ratio
from repro.analysis.potentials import (
    verify_fractional_potential,
    verify_waterfilling_potential,
)
from repro.core.instance import MultiLevelInstance, WeightedPagingInstance
from repro.errors import InvalidInstanceError, ServiceConfigError
from repro.offline import best_opt_bound
from repro.sim import RunSpec, run_sweep
from repro.workloads import (
    geometric_instance,
    multilevel_stream,
    sample_weights,
    scan_stream,
    uniform_stream,
    working_set_stream,
    zipf_stream,
)

__all__ = ["main"]

_WORKLOADS = ("zipf", "uniform", "scan", "working-set", "multilevel")


class _Parser(argparse.ArgumentParser):
    """argparse, except that a rejection is one stderr line, not a usage
    block, and ``--help`` shows each numeric flag's range."""

    def add_argument(self, *args, **kwargs):
        if isinstance(kwargs.get("type"), _Range):
            kwargs["help"] = f"{kwargs.get('help', '')} ({kwargs['type'].spec})"
        return super().add_argument(*args, **kwargs)

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {' '.join(message.split())}\n")


class _Range:
    """``type=`` for a numeric flag: parse as ``kind``, then check the range.

    ``lo``/``hi`` bound the value (``hi=None``: no upper bound) and
    ``open_lo`` excludes ``lo``; a float must also be finite.  The bounds
    stay on the object, so the parser is the one table of flag ranges.
    """

    def __init__(self, kind: type, lo: float, hi: float | None = None, *,
                 open_lo: bool = False) -> None:
        self.kind, self.lo, self.hi, self.open_lo = kind, lo, hi, open_lo
        noun = "an integer" if kind is int else "a finite number"
        self.spec = (f"{noun} {'>' if open_lo else '>='} {lo:g}" if hi is None
                     else f"{noun} in {'(' if open_lo else '['}{lo:g}, {hi:g}]")

    def __call__(self, text: str):
        try:
            value = self.kind(text)
        except ValueError:
            value = math.nan
        if not ((self.kind is int or math.isfinite(value))
                and (value > self.lo if self.open_lo else value >= self.lo)
                and (self.hi is None or value <= self.hi)):
            raise argparse.ArgumentTypeError(
                f"must be {self.spec}, got {text!r}")
        return value


_SIZE = _Range(int, 1)                  # sizes and counts
_NONNEG_INT = _Range(int, 0)            # seeds, budgets, indices; 0 = off
_PORT = _Range(int, 0, 65535)           # 0 picks a free port
_FRACTION = _Range(float, 0.0, 1.0)
_OPEN_FRACTION = _Range(float, 0.0, 1.0, open_lo=True)
_POSITIVE = _Range(float, 0.0, open_lo=True)  # rates, timeouts, periods
_NONNEG = _Range(float, 0.0)            # skews, backoffs, costs
_WEIGHT = _Range(float, 1.0)            # page weights are >= 1


def _policy(name: str) -> str:
    """``type=`` for ``--policy``: a registered policy name."""
    if name not in policy_registry:
        raise argparse.ArgumentTypeError(
            f"unknown policy {name!r}; available: "
            f"{', '.join(sorted(policy_registry))}")
    return name


def _address(text: str) -> str:
    """``type=`` for a ``HOST:PORT`` flag; the text is kept as given."""
    from repro.net import parse_address

    try:
        port = parse_address(text)[1]
    except ValueError:
        port = -1
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(f"must be host:port, got {text!r}")
    return text


def _metrics_target(text: str) -> tuple[str, str]:
    """One ``--backend-metrics`` entry: ``id=url``."""
    backend_id, sep, url = text.partition("=")
    if not sep or not backend_id or not url:
        raise argparse.ArgumentTypeError(f"entries must be id=url, got {text!r}")
    return backend_id, url


def _listed(item, what: str):
    """``type=`` for a comma-separated list of at least one ``item``."""

    def parse(text: str) -> list:
        items = [item(part.strip()) for part in text.split(",") if part.strip()]
        if not items:
            raise argparse.ArgumentTypeError(f"must name at least one {what}")
        return items

    return parse


_policies = _listed(_policy, "policy")
_addresses = _listed(_address, "host:port")
_thresholds = _listed(_OPEN_FRACTION, "threshold in (0, 1]")
_metrics_targets = _listed(_metrics_target, "id=url pair")


def _fault_plan(text: str):
    """``type=`` for ``--faults``/``--net-faults``: a parsed ``FaultPlan``."""
    from repro.faults import FaultPlan

    try:
        return FaultPlan.parse(text)
    except ServiceConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _command(sub, name: str, handler, **kwargs) -> argparse.ArgumentParser:
    """Add the leaf (sub)command ``name``, run by ``handler(args)``."""
    parser = sub.add_parser(name, **kwargs)
    parser.set_defaults(handler=handler, parser=parser)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    """The CLI's one table: every command, flag, range and handler."""
    parser = _Parser(
        prog="repro",
        description="Efficient Online Weighted Multi-Level Paging (SPAA'21) "
        "reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = _command(sub, "run", _cmd_run,
                   help="simulate policies on a workload")
    run.add_argument("--policies", type=_policies,
                     default="lru,landlord-kernel,waterfilling",
                     help="comma-separated policy names (see `policies`)")
    _add_workload_args(run)
    run.add_argument("--seeds", type=_SIZE, default=1,
                     help="independent seeds per policy")
    run.add_argument("--opt", action="store_true",
                     help="also compute an offline OPT bound and ratios")
    run.add_argument("--parallel", action="store_true",
                     help="run the sweep across worker processes")
    run.add_argument("--csv", action="store_true", help="emit CSV")
    run.add_argument("--trace", metavar="PATH",
                     help="write a JSONL decision trace (single policy, "
                          "single seed)")
    run.add_argument("--trace-sample", type=_FRACTION, default=1.0,
                     help="fraction of requests to trace (deterministic "
                          "in the master seed)")

    _command(sub, "policies", _cmd_policies, help="list registered policies")

    verify = _command(
        sub, "verify", _cmd_verify,
        help="check the paper's potential drift inequalities"
    )
    verify.add_argument("--n-pages", type=_SIZE, default=5)
    verify.add_argument("--cache-size", type=_SIZE, default=2)
    verify.add_argument("--levels", type=_SIZE, default=2)
    verify.add_argument("--requests", type=_SIZE, default=80)
    verify.add_argument("--seed", type=_NONNEG_INT, default=0)

    mrc = _command(
        sub, "mrc", _cmd_mrc,
        help="miss-ratio curves (LRU stack distances + Belady MIN)"
    )
    mrc.add_argument("--n-pages", type=_SIZE, default=64)
    mrc.add_argument("--requests", type=_SIZE, default=20000)
    mrc.add_argument("--max-k", type=_SIZE, default=16)
    mrc.add_argument("--workload", choices=("zipf", "loop"), default="zipf")
    mrc.add_argument("--alpha", type=_NONNEG, default=0.9)
    mrc.add_argument("--loop-size", type=_SIZE, default=10)
    mrc.add_argument("--seed", type=_NONNEG_INT, default=0)
    mrc.add_argument("--chart", action="store_true",
                     help="render an ASCII chart of the curves")

    lb = _command(
        sub, "lower-bound", _cmd_lower_bound,
        help="run the Section 3 set-cover reduction"
    )
    lb.add_argument("--elements", type=_SIZE, default=20)
    lb.add_argument("--sets", type=_SIZE, default=8)
    lb.add_argument("--cover-size", type=_SIZE, default=3)
    lb.add_argument("--phases", type=_SIZE, default=3)
    lb.add_argument("--w", type=_WEIGHT, default=5.0)
    lb.add_argument("--repetitions", type=_SIZE, default=4)
    lb.add_argument("--policy", type=_policy, default="landlord-kernel")
    lb.add_argument("--seed", type=_NONNEG_INT, default=0)

    opt = sub.add_parser(
        "opt", help="offline OPT bounds: DP / sparse-LP / rounding sandwich"
    )
    opt_sub = opt.add_subparsers(dest="opt_command", required=True)
    ob = _command(
        opt_sub, "bound", _cmd_opt_bound,
        help="certified lower/upper bounds on the offline optimum",
    )
    ob.add_argument("experience", nargs="?", default=None,
                    help="experience file (.npz/.jsonl recorded with "
                         "serve/loadgen --record); omitted: generate a "
                         "workload from the flags below")
    _add_workload_args(ob)
    ob.add_argument("--prefer", choices=("auto", "dp", "sparse-lp"),
                    default="auto",
                    help="bound method (auto: DP when feasible, else "
                         "sparse LP)")
    ob.add_argument("--max-states", type=_NONNEG_INT, default=20_000,
                    help="exact-DP state budget before the LP takes over")
    ob.add_argument("--thresholds", type=_thresholds, default=None,
                    metavar="T1,T2,...",
                    help="rounding thresholds in (0, 1] (default 0.1..0.9)")
    ob.add_argument("--no-round", action="store_true",
                    help="skip the threshold-rounding upper bound")
    ob.add_argument("--cost", type=_NONNEG, default=None,
                    help="an online cost to report as a competitive "
                         "ratio against the lower bound")
    ob.add_argument("--check", action="store_true",
                    help="exit non-zero unless the computed bounds "
                         "sandwich consistently (DP within divisor of "
                         "the LP bound, rounded cost above both)")
    ob.add_argument("--csv", action="store_true", help="emit CSV")

    report = _command(
        sub, "report", _cmd_report,
        help="consolidate benchmark artifacts into markdown"
    )
    report.add_argument("--results-dir", default="benchmarks/results")

    trace = sub.add_parser(
        "trace", help="replay or validate a JSONL decision trace"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    replay = _command(
        trace_sub, "replay", _cmd_trace_replay,
        help="re-render a trace into per-page/per-level summaries"
    )
    replay.add_argument("path", help="JSONL trace file")
    replay.add_argument("--top", type=_SIZE, default=10,
                        help="pages to show in the cost ranking")
    validate = _command(
        trace_sub, "validate", _cmd_trace_validate,
        help="check a trace file against the trace schema"
    )
    validate.add_argument("path", help="JSONL trace file")
    stitch = _command(
        trace_sub, "stitch", _cmd_trace_stitch,
        help="stitch request-span JSONL files into per-trace waterfalls"
    )
    stitch.add_argument("paths", nargs="+",
                        help="span JSONL files (svc/shard/net/proxy/client)")
    stitch.add_argument("--trace", default=None, metavar="HEX",
                        help="render only this trace id")
    stitch.add_argument("--limit", type=_SIZE, default=10,
                        help="max waterfalls to render")
    stitch.add_argument("--min-spans", type=_SIZE, default=1,
                        help="skip traces with fewer stitched spans")

    serve = _command(
        sub, "serve", _cmd_serve,
        help="run a workload through the sharded paging service"
    )
    _add_service_args(serve)
    serve.add_argument("--snapshot-every", type=_NONNEG_INT, default=0,
                       metavar="N",
                       help="print a metrics snapshot every N batches "
                            "(0 = only the final one)")
    serve.add_argument("--listen", type=_address, default=None,
                       metavar="HOST:PORT",
                       help="serve the repro.net wire protocol instead of "
                            "streaming the workload (port 0 picks a free "
                            "port; runs until SIGINT/SIGTERM)")
    serve.add_argument("--max-connections", type=_SIZE, default=64,
                       metavar="N",
                       help="connection cap before new sockets are refused")
    serve.add_argument("--inflight", type=_SIZE, default=32, metavar="N",
                       help="per-connection in-flight submits before the "
                            "oldest is shed")
    serve.add_argument("--deadline", type=_POSITIVE, default=30.0,
                       metavar="S",
                       help="server-side seconds before an unresolved "
                            "submit is answered 'deadline'")
    serve.add_argument("--net-faults", type=_fault_plan, default=None,
                       metavar="SPEC",
                       help="inject faults at the network boundary "
                            "(kind:conn@req[:delay_s], kinds "
                            "kill/delay/drop; conn = connection index, "
                            "req = per-connection submit index)")
    serve.add_argument("--stop-timeout", type=_POSITIVE, default=10.0,
                       metavar="S",
                       help="single shared deadline for the shutdown drain")
    serve.add_argument("--controller", action="store_true",
                       help="close the admission loop (--listen only): "
                            "live-adjust the in-flight window and the soft "
                            "queue limit from the pressure signals")
    serve.add_argument("--ctl-interval", type=_POSITIVE, default=0.25,
                       metavar="S", help="controller poll interval")
    serve.add_argument("--ctl-high", type=_FRACTION, default=0.75,
                       metavar="FRAC",
                       help="pressure above this tightens admission")
    serve.add_argument("--ctl-low", type=_FRACTION, default=0.30,
                       metavar="FRAC",
                       help="pressure below this relaxes admission")
    serve.add_argument("--ctl-dwell", type=_NONNEG, default=2.0, metavar="S",
                       help="min seconds between direction reversals "
                            "(hysteresis; prevents flapping)")

    loadgen = _command(
        sub, "loadgen", _cmd_loadgen,
        help="rate-paced load generation against the service"
    )
    _add_service_args(loadgen)
    loadgen.add_argument("--rate", type=_POSITIVE, default=100_000.0,
                         help="target request rate (req/s)")
    loadgen.add_argument("--profile",
                         choices=("constant", "diurnal", "burst", "step"),
                         default="constant",
                         help="rate shape over time: constant, a smooth "
                              "diurnal cosine, seeded bursts, or a square "
                              "step wave (--rate is the peak)")
    loadgen.add_argument("--profile-period", type=_POSITIVE, default=10.0,
                         metavar="S", help="profile period in seconds")
    loadgen.add_argument("--profile-low", type=_FRACTION, default=0.1,
                         metavar="FRAC",
                         help="trough rate as a fraction of --rate")
    loadgen.add_argument("--profile-duty", type=_OPEN_FRACTION, default=0.25,
                         metavar="FRAC",
                         help="high-rate fraction of each period "
                              "(burst/step profiles)")
    loadgen.add_argument("--max-retries", "--retry", dest="max_retries",
                         type=_NONNEG_INT, default=3, metavar="N",
                         help="retries before an overloaded batch is dropped")
    loadgen.add_argument("--retry-backoff", type=_NONNEG, default=0.001,
                         metavar="S",
                         help="base backoff seconds (doubles per retry)")
    loadgen.add_argument("--on-overload", choices=("retry", "shed"),
                         default="retry",
                         help="client policy for Overloaded rejections: "
                              "retry with backoff, or shed immediately")
    loadgen.add_argument("--connect", type=_address, default=None,
                         metavar="HOST:PORT",
                         help="drive a remote `serve --listen` server over "
                              "TCP instead of an in-process service")
    loadgen.add_argument("--connections", type=_SIZE, default=1, metavar="N",
                         help="client connections to open (--connect only)")
    loadgen.add_argument("--window", type=_SIZE, default=1, metavar="N",
                         help="pipelined submits per connection "
                              "(--connect only; 1 = strict round-trips)")
    loadgen.add_argument("--timeout", type=_POSITIVE, default=10.0,
                         metavar="S",
                         help="client-side reply timeout (--connect only)")

    cluster = sub.add_parser(
        "cluster", help="multi-node proxy + live shard migration"
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)
    cproxy = _command(
        cluster_sub, "proxy", _cmd_cluster_proxy,
        help="front running `serve --listen` backends behind one "
             "consistent-hash endpoint"
    )
    cproxy.add_argument("--listen", type=_address, default="127.0.0.1:0",
                        metavar="HOST:PORT",
                        help="front address (port 0 picks a free port)")
    cproxy.add_argument("--backends", type=_addresses, required=True,
                        metavar="ADDR,ADDR,...",
                        help="comma-separated backend host:port list; each "
                             "must be a running `repro serve --listen` "
                             "started with the cluster's total --shards")
    cproxy.add_argument("--shards", type=_SIZE, default=None, metavar="N",
                        help="total cluster shard count (default: ask the "
                             "first backend for its shard count)")
    cproxy.add_argument("--window", type=_SIZE, default=16, metavar="N",
                        help="pipelined submits per backend link")
    cproxy.add_argument("--retries", type=_NONNEG_INT, default=8, metavar="N",
                        help="proxy-side retries of Overloaded backend parts")
    cproxy.add_argument("--retry-backoff", type=_NONNEG, default=0.002,
                        metavar="S", help="base backoff seconds per retry")
    cproxy.add_argument("--timeout", type=_POSITIVE, default=30.0,
                        metavar="S", help="backend reply timeout")
    cproxy.add_argument("--hold-timeout", type=_POSITIVE, default=60.0,
                        metavar="S",
                        help="max seconds a submit waits on a held "
                             "(migrating) shard before Overloaded")
    cproxy.add_argument("--migration-timeout", type=_POSITIVE, default=60.0,
                        metavar="S", help="per-migration deadline")
    cproxy.add_argument("--metrics-port", type=_PORT, default=None,
                        metavar="PORT",
                        help="expose proxy /metrics on this port "
                             "(0 picks a free port)")
    cproxy.add_argument("--federate-port", type=_PORT, default=None,
                        metavar="PORT",
                        help="serve the cluster-wide federated /metrics "
                             "(every backend page re-labeled by backend id "
                             "plus the proxy's own counters) on this port "
                             "(0 picks a free port)")
    cproxy.add_argument("--backend-metrics", type=_metrics_targets,
                        default=None, metavar="ID=URL,ID=URL,...",
                        help="backend metrics pages to federate, as "
                             "comma-separated id=url pairs (e.g. "
                             "127.0.0.1:7411=http://127.0.0.1:9101/metrics); "
                             "ids become the federated 'backend' label")
    cproxy.add_argument("--span-dir", default=None, metavar="DIR",
                        help="write proxy-tier request spans "
                             "(proxy.spans.jsonl) here")
    cproxy.add_argument("--flight-dir", default=None, metavar="DIR",
                        help="arm the flight recorder to dump span rings "
                             "here on migration failure / SIGUSR1")
    for name, handler, extra in (
        ("status", _cmd_cluster_status, "print the live cluster map"),
        ("migrate", _cmd_cluster_migrate,
         "live-migrate one shard to a named backend"),
        ("rebalance", _cmd_cluster_rebalance,
         "migrate shards until every backend is within one shard of even"),
        ("drain", _cmd_cluster_drain,
         "live-migrate every shard off one backend so it can be retired"),
    ):
        sub_parser = _command(cluster_sub, name, handler, help=extra)
        sub_parser.add_argument("--proxy", type=_address, required=True,
                                metavar="HOST:PORT",
                                help="a running `repro cluster proxy` front "
                                     "address")
        sub_parser.add_argument("--timeout", type=_POSITIVE, default=60.0,
                                metavar="S", help="reply timeout")
        if name == "migrate":
            sub_parser.add_argument("--shard", type=_NONNEG_INT, required=True)
            sub_parser.add_argument("--to", type=_address, required=True,
                                    metavar="ADDR",
                                    help="target backend host:port (must be "
                                         "in the cluster)")
        if name == "rebalance":
            sub_parser.add_argument("--backends", type=_addresses,
                                    default=None, metavar="ADDR,ADDR,...",
                                    help="plan toward this backend set "
                                         "(default: the backends already in "
                                         "the map)")
        if name == "drain":
            sub_parser.add_argument("backend", type=_address, metavar="ADDR",
                                    help="backend host:port to empty (the "
                                         "shards spread over the remaining "
                                         "backends)")

    replay_cmd = sub.add_parser(
        "replay", help="re-serve a recorded experience file "
                       "(`serve/loadgen --record`) under alternative "
                       "policies or configurations"
    )
    replay_sub = replay_cmd.add_subparsers(dest="replay_command",
                                           required=True)
    rrun = _command(
        replay_sub, "run", _cmd_replay_run,
        help="replay once; with no overrides the cost must "
             "==-match the recorded live run"
    )
    rrun.add_argument("path", help="experience file (.npz or .jsonl)")
    rrun.add_argument("--policy", type=_policy, default=None,
                      help="alternative policy (default: the recorded one)")
    rrun.add_argument("--k", "--cache-size", dest="cache_size", type=_SIZE,
                      default=None, help="alternative total cache capacity")
    rrun.add_argument("--rate", type=_POSITIVE, default=None,
                      help="also pace the replay through a full threaded "
                           "service at this req/s (reports latency/shed)")
    rrun.add_argument("--on-overload", choices=("retry", "shed"),
                      default="retry", help="paced-mode overload policy")
    rcompare = _command(
        replay_sub, "compare", _cmd_replay_compare,
        help="replay under several policies and tabulate against the "
             "live run"
    )
    rcompare.add_argument("path", help="experience file (.npz or .jsonl)")
    rcompare.add_argument("--policies", type=_policies, required=True,
                          metavar="NAME,NAME,...",
                          help="comma-separated policy names to replay")
    rcompare.add_argument("--k", "--cache-size", dest="cache_size",
                          type=_SIZE, default=None,
                          help="alternative total cache capacity")
    rcompare.add_argument("--rate", type=_POSITIVE, default=None,
                          help="pace each replay at this req/s")
    rcompare.add_argument("--on-overload", choices=("retry", "shed"),
                          default="retry", help="paced-mode overload policy")
    rstats = _command(
        replay_sub, "stats", _cmd_replay_stats,
        help="summarize a recorded experience file"
    )
    rstats.add_argument("path", help="experience file (.npz or .jsonl)")

    top = _command(
        sub, "top", _cmd_top,
        help="live cluster status from a (federated) /metrics page"
    )
    top.add_argument("--url", required=True, metavar="URL",
                     help="a /metrics page — the proxy's --federate-port "
                          "endpoint for the cluster view, or any single "
                          "backend's --metrics-port page")
    top.add_argument("--interval", type=_POSITIVE, default=2.0, metavar="S",
                     help="seconds between refreshes")
    top.add_argument("--once", action="store_true",
                     help="print one snapshot (no rate deltas) and exit")
    return parser


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    """The generated-workload flags of ``run`` and ``opt bound``."""
    parser.add_argument("--n-pages", type=_SIZE, default=32)
    parser.add_argument("--cache-size", type=_SIZE, default=8)
    parser.add_argument("--levels", type=_SIZE, default=1)
    parser.add_argument("--requests", type=_SIZE, default=2000)
    parser.add_argument("--workload", choices=_WORKLOADS, default="zipf")
    parser.add_argument("--alpha", type=_NONNEG, default=0.9,
                        help="Zipf skew (zipf/multilevel workloads)")
    parser.add_argument("--weight-high", type=_WEIGHT, default=32.0,
                        help="max page weight (log-uniform in [1, high])")
    parser.add_argument("--master-seed", type=_NONNEG_INT, default=0)


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``serve`` and ``loadgen`` (workload + service shape)."""
    parser.add_argument("--policy", type=_policy, default="waterfilling-kernel",
                        help="registered policy name (see `policies`)")
    parser.add_argument("--k", "--cache-size", dest="cache_size", type=_SIZE,
                        default=64, help="total cache capacity, split across shards")
    parser.add_argument("--shards", type=_SIZE, default=4)
    parser.add_argument("--n-pages", type=_SIZE, default=512)
    parser.add_argument("--levels", type=_SIZE, default=1)
    parser.add_argument("--requests", type=_SIZE, default=100_000)
    parser.add_argument("--workload", choices=_WORKLOADS, default="zipf")
    parser.add_argument("--alpha", type=_NONNEG, default=0.9,
                        help="Zipf skew (zipf/multilevel workloads)")
    parser.add_argument("--weight-high", type=_WEIGHT, default=32.0,
                        help="max page weight (log-uniform in [1, high])")
    parser.add_argument("--seed", dest="master_seed", type=_NONNEG_INT,
                        default=0)
    parser.add_argument("--batch-size", type=_SIZE, default=512)
    parser.add_argument("--backend", choices=("inline", "thread", "process"),
                        default="thread",
                        help="shard execution backend: inline (submitting "
                             "thread), thread (one worker thread per shard), "
                             "or process (one worker process per shard)")
    parser.add_argument("--queue-depth", type=_SIZE, default=64,
                        help="max pending batches per shard before Overloaded")
    parser.add_argument("--validate", action="store_true",
                        help="verify cache invariants after every request")
    parser.add_argument("--metrics-port", type=_PORT, default=None,
                        metavar="PORT",
                        help="expose Prometheus-style /metrics on this port "
                             "(0 picks a free port)")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="write per-shard JSONL decision traces here")
    parser.add_argument("--trace-sample", type=_FRACTION, default=1.0,
                        help="fraction of requests to trace (decision "
                             "traces and request spans alike)")
    parser.add_argument("--span-dir", default=None, metavar="DIR",
                        help="write causal request spans here (svc + "
                             "per-shard JSONL; with --listen also the "
                             "net tier, with --connect the client tier), "
                             "sampled at --trace-sample")
    parser.add_argument("--flight-dir", default=None, metavar="DIR",
                        help="arm the flight recorder to dump its span "
                             "rings here on shard death / SIGUSR1")
    parser.add_argument("--faults", type=_fault_plan, default=None,
                        metavar="SPEC",
                        help="inject faults: comma-separated "
                             "kind:shard@t[:delay_s] with kind in "
                             "kill/delay/drop (e.g. kill:0@1000)")
    parser.add_argument("--checkpoint-interval", type=_NONNEG_INT, default=0,
                        metavar="N",
                        help="checkpoint each shard every N requests and "
                             "recover dead workers (0 disables recovery)")
    parser.add_argument("--max-restarts", type=_NONNEG_INT, default=3,
                        metavar="N",
                        help="per-shard worker restart budget before the "
                             "shard is marked failed")
    parser.add_argument("--record", default=None, metavar="PATH",
                        help="record every served request (per shard, in "
                             "serve order) plus the exact config and final "
                             "ledger to PATH (.npz or .jsonl) for "
                             "`repro replay`")


def _make_workload(args) -> tuple[MultiLevelInstance, object]:
    n, k, l = args.n_pages, args.cache_size, args.levels
    if args.workload == "multilevel" or l > 1:
        inst = geometric_instance(n, k, max(l, 2))
        seq = multilevel_stream(n, inst.n_levels, args.requests,
                                alpha=args.alpha, rng=args.master_seed)
        return inst, seq
    weights = sample_weights(n, rng=args.master_seed, high=args.weight_high)
    inst = WeightedPagingInstance(k, weights)
    if args.workload == "zipf":
        seq = zipf_stream(n, args.requests, alpha=args.alpha, rng=args.master_seed)
    elif args.workload == "uniform":
        seq = uniform_stream(n, args.requests, rng=args.master_seed)
    elif args.workload == "scan":
        seq = scan_stream(min(k + 1, n), args.requests)
    else:  # working-set
        seq = working_set_stream(
            n, args.requests, set_size=max(2, k // 2),
            phase_length=max(50, args.requests // 10), rng=args.master_seed,
        )
    return inst, seq


def _cmd_run(args) -> int:
    names = args.policies
    if args.trace and (len(names) != 1 or args.seeds != 1):
        args.parser.error("--trace records one decision stream: use a "
                          "single policy and --seeds 1")
    inst, seq = _make_workload(args)
    if args.trace:
        return _run_traced(args, names[0], inst, seq)
    opt_value = None
    if args.opt:
        opt = best_opt_bound(inst, seq)
        opt_value = opt.value
        print(f"offline OPT bound ({opt.method}): {opt_value:.2f}\n")
    specs = [
        RunSpec(inst, seq, policy_registry[name], n_seeds=args.seeds,
                master_seed=args.master_seed,
                label=policy_registry[name].name)
        for name in names
    ]
    results = run_sweep(specs, parallel=args.parallel)
    columns = ["policy", "mean cost", "stderr", "hit rate"]
    if opt_value is not None:
        columns.append("ratio vs OPT")
    table = Table(columns, title=f"{inst.name} / {args.workload}")
    for res in results:
        agg = res.aggregate
        row = [res.spec_label, agg.mean_cost, agg.stderr_cost, agg.mean_hit_rate]
        if opt_value is not None:
            row.append(competitive_ratio(agg.mean_cost, opt_value))
        table.add_row(*row)
    print(table.to_csv() if args.csv else table.render())
    return 0


def _run_traced(args, name, inst, seq) -> int:
    """``run --trace``: one traced simulate, summary table + trace file."""
    from repro.obs import DecisionTracer
    from repro.sim import simulate

    with DecisionTracer(args.trace, sample=args.trace_sample,
                        seed=args.master_seed, source=name) as tracer:
        result = simulate(inst, seq, policy_registry[name](),
                          seed=args.master_seed, tracer=tracer)
    table = Table(["policy", "cost", "hit rate", "evictions",
                   "traced reqs", "traced events"],
                  title=f"{inst.name} / {args.workload} (traced)")
    table.add_row(name, result.cost, result.hit_rate, result.n_evictions,
                  tracer.n_requests, tracer.n_written)
    print(table.to_csv() if args.csv else table.render())
    print(f"trace written to {args.trace} "
          f"({tracer.n_written} events, {tracer.n_dropped} dropped, "
          f"sample={args.trace_sample:g})")
    return 0


def _read_trace_file(args, read, *paths):
    """``read(*paths)``; a malformed file is one error line naming it."""
    try:
        return read(*paths)
    except ValueError as exc:
        args.parser.error(f"cannot read {exc}")
    except KeyError as exc:
        args.parser.error(f"cannot read {', '.join(paths)}: missing field {exc}")


def _cmd_trace_replay(args) -> int:
    """``trace replay``: re-render a JSONL decision trace."""
    from repro.obs import replay_trace

    summary = _read_trace_file(args, replay_trace, args.path)
    print(summary.render(top=args.top))
    return 0


def _cmd_trace_validate(args) -> int:
    """``trace validate``: check a trace against the trace schema."""
    from repro.obs import validate_trace

    report = validate_trace(args.path)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_trace_stitch(args) -> int:
    """``trace stitch``: span files -> per-trace causal waterfalls."""
    from repro.obs import read_spans, render_waterfall, stitch_spans

    traces = _read_trace_file(
        args, lambda *paths: stitch_spans(read_spans(*paths)), *args.paths)
    if args.trace is not None:
        records = traces.get(args.trace)
        if records is None:
            print(f"trace {args.trace} not found in "
                  f"{len(args.paths)} file(s)", file=sys.stderr)
            return 1
        print(render_waterfall(args.trace, records))
        return 0
    shown = 0
    for trace_id, records in traces.items():
        if len(records) < args.min_spans:
            continue
        if shown >= args.limit:
            break
        if shown:
            print()
        print(render_waterfall(trace_id, records))
        shown += 1
    n_spans = sum(len(r) for r in traces.values())
    print(f"\n{len(traces)} trace(s), {n_spans} span(s) from "
          f"{len(args.paths)} file(s); rendered {shown}")
    return 0


def _cmd_policies(args) -> int:
    table = Table(["name", "class"], title="registered policies")
    for name in sorted(policy_registry):
        table.add_row(name, policy_registry[name].__name__)
    print(table.render())
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import consolidate_results

    print(consolidate_results(args.results_dir))
    return 0


def _cmd_verify(args) -> int:
    inst = geometric_instance(args.n_pages, args.cache_size, args.levels)
    seq = multilevel_stream(args.n_pages, args.levels, args.requests,
                            rng=args.seed)
    print(f"instance: {inst}; {len(seq)} requests\n")
    ok = True
    for name, verifier in [
        ("Theorem 4.1 (water-filling, c = k)", verify_waterfilling_potential),
        ("Section 4.2 (fractional, c = 4 ln(1 + 1/eta))",
         verify_fractional_potential),
    ]:
        report = verifier(inst, seq)
        status = "HOLDS" if report.holds else "VIOLATED"
        ok &= report.holds
        print(f"{name}: {status}  "
              f"(worst per-request slack {report.worst_slack():+.4f}, "
              f"c = {report.c:.2f})")
    return 0 if ok else 1


def _cmd_mrc(args) -> int:
    from repro.analysis import line_chart
    from repro.sim import lru_miss_curve, opt_miss_curve
    from repro.workloads import loop_stream

    if args.workload == "zipf":
        seq = zipf_stream(args.n_pages, args.requests, alpha=args.alpha,
                          rng=args.seed)
        name = f"zipf({args.alpha:g})"
    else:
        if args.loop_size > args.n_pages:
            args.parser.error(f"--loop-size ({args.loop_size}) must not "
                              f"exceed --n-pages ({args.n_pages})")
        seq = loop_stream(args.n_pages, args.requests,
                          loop_size=args.loop_size, jitter=0.05,
                          rng=args.seed)
        name = f"loop({args.loop_size})"
    lru = lru_miss_curve(seq, args.max_k)
    opt = opt_miss_curve(seq, args.max_k)
    table = Table(["k", "LRU miss %", "MIN miss %", "LRU/MIN"],
                  title=f"miss-ratio curves, {name}, n={args.n_pages}")
    for k in range(1, args.max_k + 1):
        table.add_row(k, 100.0 * lru[k - 1] / len(seq),
                      100.0 * opt[k - 1] / len(seq),
                      lru[k - 1] / max(opt[k - 1], 1))
    print(table.render())
    if args.chart:
        ks = list(range(1, args.max_k + 1))
        print(line_chart(
            ks,
            {"LRU": (100.0 * lru / len(seq)).tolist(),
             "MIN": (100.0 * opt / len(seq)).tolist()},
            title="miss % vs cache size",
        ))
    return 0


def _cmd_lower_bound(args) -> int:
    from repro.setcover import (
        greedy_cover,
        hard_instance_family,
        phase_covers,
        phased_reduction,
    )
    from repro.sim import simulate

    family = hard_instance_family(
        args.elements, args.sets, args.cover_size, rng=args.seed
    )
    phased = phased_reduction(family, args.phases, w=args.w,
                              repetitions=args.repetitions, rng=args.seed)
    print(
        f"set system: {family.system}; planted cover {args.cover_size}; "
        f"{phased.n_phases} phases, {len(phased.sequence)} paging requests, "
        f"k = {phased.instance.cache_size}\n"
    )
    run = simulate(phased.instance, phased.sequence,
                   policy_registry[args.policy](), seed=args.seed,
                   record_events=True)
    covers = phase_covers(phased, run.events)
    table = Table(["phase", "offline cover", "committed |D|", "valid"],
                  title=f"{args.policy} on the Theorem 3.6 stream")
    for i, (elems, cover) in enumerate(zip(phased.phase_elements, covers)):
        offline = len(greedy_cover(family.system, elems))
        table.add_row(i, offline, len(cover),
                      family.system.is_cover(cover, elems))
    print(table.render())
    print(f"total paging cost: {run.cost:.1f}")
    return 0


def _load_experience(args, path: str):
    """A recorded experience file; unreadable or malformed is one error line."""
    from repro.control import Experience

    try:
        return Experience.load(path)
    except (OSError, KeyError, ValueError) as exc:
        args.parser.error(f"cannot load experience {path!r}: {exc}")


def _cmd_opt_bound(args) -> int:
    """``opt bound``: the certified OPT sandwich for a workload/recording."""
    from repro.errors import StateSpaceTooLargeError
    from repro.offline import (
        DEFAULT_THRESHOLDS,
        lp_divisor,
        offline_opt_multilevel,
        solve_sparse_lp,
        threshold_round,
    )

    if args.experience:
        from repro.core.requests import RequestSequence

        exp = _load_experience(args, args.experience)
        inst = exp.instance()
        pages, levels = exp.merged()
        seq = RequestSequence(pages, levels)
        source = args.experience
    else:
        inst, seq = _make_workload(args)
        source = f"{args.workload} workload"
    thresholds = args.thresholds or DEFAULT_THRESHOLDS
    divisor = lp_divisor(inst)

    dp_value = None
    if args.prefer in ("auto", "dp"):
        try:
            dp_value = offline_opt_multilevel(inst, seq,
                                              max_states=args.max_states)
        except StateSpaceTooLargeError as exc:
            if args.prefer == "dp":
                args.parser.error(f"exact DP infeasible: {exc}")
    lp_value = None
    sweep = None
    if args.prefer != "dp":
        solution = solve_sparse_lp(inst, seq)
        lp_value = solution.value
        if not args.no_round:
            sweep = threshold_round(solution, thresholds)

    lower = dp_value if dp_value is not None else lp_value / divisor
    lower_method = "dp" if dp_value is not None else "sparse-lp"
    upper = dp_value if dp_value is not None else (
        sweep.cost if sweep is not None else None)

    table = Table(["quantity", "value", "method"],
                  title=f"OPT bounds: {inst.name} / {source} "
                        f"(T={len(seq)})")
    table.add_row("lower bound", lower, lower_method)
    if dp_value is not None:
        table.add_row("exact OPT (DP)", dp_value, "dp")
    if lp_value is not None:
        table.add_row("LP value", lp_value, "sparse-lp")
        table.add_row("LP divisor", divisor, "-")
        table.add_row("LP lower bound", lp_value / divisor, "sparse-lp")
    if sweep is not None:
        table.add_row("rounded upper bound", sweep.cost,
                      f"threshold {sweep.best.threshold:g}")
    if upper is not None:
        table.add_row("sandwich width", upper / lower if lower > 0 else 1.0,
                      "upper / lower")
    if args.cost is not None:
        table.add_row("competitive ratio", competitive_ratio(args.cost, lower),
                      f"cost {args.cost:g} / lower bound")
    print(table.to_csv() if args.csv else table.render())
    if sweep is not None and not args.csv:
        sweep_table = Table(["threshold", "rounded cost", "evictions"],
                            title="rounding sweep")
        for schedule in sweep.schedules:
            sweep_table.add_row(schedule.threshold, schedule.cost,
                                schedule.n_evictions)
        print()
        print(sweep_table.render())
    if upper is not None:
        print(f"\nsandwich: {lower:.3f} <= OPT <= {upper:.3f}")
    if args.check:
        tol = 1e-6 + 1e-9 * max(lower, 1.0)
        failures = []
        if dp_value is not None and lp_value is not None:
            if lp_value / divisor > dp_value + tol:
                failures.append("LP/divisor exceeds the exact DP")
            if dp_value > lp_value * (1 + 1e-9) + tol:
                failures.append("DP exceeds the raw LP value")
        if sweep is not None:
            if lp_value / divisor > sweep.cost + tol:
                failures.append("rounded cost undercuts the LP bound")
            if dp_value is not None and dp_value > sweep.cost + tol:
                failures.append("rounded cost undercuts the exact DP")
        if failures:
            for failure in failures:
                print(f"sandwich check FAILED: {failure}", file=sys.stderr)
            return 1
        print("sandwich check: OK")
    return 0


def _make_service(args):
    """Build (service, sequence) from the shared serve/loadgen flags.

    ``--metrics-port`` backs the service with a real registry (otherwise
    all metric calls hit the no-op sink); ``--trace-dir`` attaches one
    decision tracer per shard before any traffic.
    """
    from repro.obs import MetricsRegistry
    from repro.service import PagingService, ServiceConfig

    inst, seq = _make_workload(args)
    # --controller needs live signals even without an exposed /metrics
    # port, so it forces a real registry too.
    registry = (MetricsRegistry()
                if (args.metrics_port is not None
                    or getattr(args, "controller", False))
                else None)
    config = ServiceConfig.from_policy_name(
        args.policy, inst,
        n_shards=args.shards,
        batch_size=args.batch_size,
        queue_depth=args.queue_depth,
        seed=args.master_seed,
        validate=args.validate,
        metrics_registry=registry,
        fault_plan=args.faults,
        checkpoint_interval=args.checkpoint_interval,
        max_restarts=args.max_restarts,
        backend=args.backend,
    )
    if args.faults is not None:
        print(f"fault plan: {args.faults} "
              f"(checkpoint_interval={args.checkpoint_interval}, "
              f"max_restarts={args.max_restarts})")
    service = PagingService(config)
    if args.trace_dir is not None:
        paths = service.enable_tracing(args.trace_dir,
                                       sample=args.trace_sample,
                                       seed=args.master_seed)
        print(f"tracing {len(paths)} shard(s) into {args.trace_dir} "
              f"(sample={args.trace_sample:g})")
    if args.span_dir is not None:
        paths = service.enable_request_tracing(args.span_dir,
                                               sample=args.trace_sample,
                                               seed=args.master_seed)
        print(f"request spans: {len(paths)} file(s) into {args.span_dir} "
              f"(sample={args.trace_sample:g})")
    if args.flight_dir is not None:
        from repro.obs import set_flight_dump_dir

        set_flight_dump_dir(args.flight_dir)
        print(f"flight recorder armed: dumps into {args.flight_dir}")
    return service, seq


def _start_metrics_server(args, registry):
    """Start the /metrics HTTP thread when ``--metrics-port`` was given."""
    if args.metrics_port is None:
        return None
    from repro.obs import MetricsServer

    server = MetricsServer(registry, port=args.metrics_port).start()
    print(f"metrics exposed at {server.url}")
    return server


def _make_profile(args):
    """Build the loadgen :class:`~repro.service.RateProfile` (or None)."""
    if getattr(args, "profile", "constant") == "constant":
        return None
    from repro.service import RateProfile

    return RateProfile(kind=args.profile, rate=args.rate,
                       period_s=args.profile_period,
                       low_frac=args.profile_low, duty=args.profile_duty,
                       seed=args.master_seed)


def _attach_recorder(args, service):
    """``--record``: attach an experience recorder before any traffic."""
    if getattr(args, "record", None) is None:
        return None
    from repro.control import ExperienceRecorder

    recorder = ExperienceRecorder(service.config.n_shards)
    service.attach_recorder(recorder)
    print(f"recording served traffic into {args.record}")
    return recorder


def _save_experience(args, recorder, service) -> None:
    """Freeze + write the recording (call after the final drain)."""
    if recorder is None:
        return
    path = recorder.save(args.record, service)
    print(f"experience written to {path} "
          f"({recorder.n_requests} requests, "
          f"{service.config.n_shards} shard(s))")


def _start_controller(config, args, service, net):
    """``serve --listen --controller``: close the admission loop."""
    from repro.control import Actuator, AdmissionController
    from repro.obs import SignalReader

    actuators = [
        Actuator("inflight", lo=max(1, args.inflight // 8),
                 hi=args.inflight, apply=net.set_max_inflight),
        Actuator("queue", lo=max(1, args.queue_depth // 8),
                 hi=args.queue_depth, apply=service.set_queue_limit),
    ]
    controller = AdmissionController(
        SignalReader(service.registry), actuators, config=config,
        registry=service.registry).start()
    print(f"controller: polling every {config.interval_s:g}s, "
          f"band [{config.low_water:g}, {config.high_water:g}], "
          f"dwell {config.dwell_s:g}s, actuators "
          f"{controller.setpoints()}", flush=True)
    return controller


def _install_flight_dump_signal() -> None:
    """SIGUSR1 -> dump the flight recorder's span rings to disk.

    A no-op where the platform lacks SIGUSR1 or we are off the main
    thread; the dump itself is a no-op until ``--flight-dir`` armed a
    dump directory, so installing unconditionally is safe.
    """
    import signal

    if not hasattr(signal, "SIGUSR1"):  # pragma: no cover - non-POSIX
        return
    from repro.obs import flight_recorder

    try:
        signal.signal(signal.SIGUSR1,
                      lambda signum, frame: flight_recorder().dump("sigusr1"))
    except ValueError:  # pragma: no cover - non-main thread
        pass


class _SignalStop:
    """Installs SIGINT/SIGTERM handlers that flip one event.

    Both serve modes share the contract: the first signal requests a
    graceful stop (finish in-flight work, drain within ``--stop-timeout``,
    print the final snapshot, exit 0) instead of dying mid-batch with a
    traceback.  Previous handlers are restored on exit so tests can
    install and tear down repeatedly in one process.
    """

    def __init__(self) -> None:
        import threading

        self.event = threading.Event()
        self._previous: dict[int, object] = {}

    def __enter__(self) -> "_SignalStop":
        import signal

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[sig] = signal.signal(
                    sig, lambda signum, frame: self.event.set())
            except ValueError:  # pragma: no cover - non-main thread
                pass
        return self

    def __exit__(self, *exc_info) -> None:
        import signal

        for sig, handler in self._previous.items():
            signal.signal(sig, handler)

    @property
    def requested(self) -> bool:
        return self.event.is_set()


def _cmd_serve(args) -> int:
    from time import perf_counter

    if args.listen is not None:
        return _cmd_serve_net(args)
    service, seq = _make_service(args)
    metrics_server = _start_metrics_server(args, service.registry)
    recorder = _attach_recorder(args, service)
    b = args.batch_size
    print(f"serving {len(seq)} requests through {service!r}\n")
    started = perf_counter()
    try:
        with _SignalStop() as stop, service:
            n_failed_batches = 0
            for i, lo in enumerate(range(0, len(seq), b)):
                if stop.requested:
                    print("signal received: draining and stopping")
                    break
                result = service.submit_batch(seq.pages[lo:lo + b],
                                              seq.levels[lo:lo + b])
                while (not result.accepted
                       and getattr(result, "retryable", True)
                       and not stop.requested):
                    service.drain(0.01)
                    result = service.submit_batch(seq.pages[lo:lo + b],
                                                  seq.levels[lo:lo + b])
                if not result.accepted and not getattr(result, "retryable", True):
                    # Terminal (Failed): the target shard is gone; keep
                    # serving the rest of the stream and count the loss.
                    # (A retryable Overloaded abandoned because a stop
                    # signal arrived is drained below, not a loss.)
                    n_failed_batches += 1
                if args.snapshot_every and (i + 1) % args.snapshot_every == 0:
                    print(service.snapshot().render())
            service.drain(args.stop_timeout if stop.requested else None)
            elapsed = perf_counter() - started
            snap = service.snapshot()
            _save_experience(args, recorder, service)
    finally:
        if metrics_server is not None:
            metrics_server.stop()
    print(snap.render())
    rate = snap.n_requests / elapsed if elapsed > 0 else 0.0
    print(f"served {snap.n_requests} requests in {elapsed:.3f}s "
          f"({rate:,.0f} req/s), total eviction cost {snap.eviction_cost:.1f}")
    if n_failed_batches:
        print(f"failed batches (shard permanently down): {n_failed_batches}")
    return 0


def _cmd_serve_net(args) -> int:
    """``serve --listen``: expose the service over TCP until signaled.

    Shutdown order is the graceful-drain contract pinned by the tests:
    close the listening socket first (no new connections or requests),
    then stop the service under one shared ``--stop-timeout`` deadline,
    then print the final snapshot and exit 0.
    """
    from repro.control import ControllerConfig
    from repro.net import AdmissionPolicy, NetServer, parse_address

    host, port = parse_address(args.listen)
    admission = AdmissionPolicy(
        max_connections=args.max_connections,
        max_inflight=args.inflight,
        request_deadline_s=args.deadline,
    )
    # Built before the service starts, so a --ctl-low/--ctl-high clash
    # is rejected without binding a port.
    ctl_config = ControllerConfig(
        interval_s=args.ctl_interval, high_water=args.ctl_high,
        low_water=args.ctl_low, dwell_s=args.ctl_dwell,
    ) if args.controller else None
    service, _ = _make_service(args)
    if args.net_faults is not None:
        print(f"net fault plan: {args.net_faults} "
              "(shard = connection index, t = submit index)")
    metrics_server = _start_metrics_server(args, service.registry)
    net_spans = None
    if args.span_dir is not None:
        from pathlib import Path

        from repro.obs import SpanExporter

        net_spans = SpanExporter(Path(args.span_dir) / "net.spans.jsonl",
                                 wall=True)
    net = None
    controller = None
    recorder = _attach_recorder(args, service)
    try:
        with _SignalStop() as stop:
            _install_flight_dump_signal()
            service.start()
            net = NetServer(service, host=host, port=port,
                            admission=admission, fault_plan=args.net_faults,
                            span_exporter=net_spans)
            try:
                net.start()
            except OSError as exc:
                args.parser.error(f"cannot listen on {args.listen}: {exc}")
            print(f"listening on {net.host}:{net.port}", flush=True)
            print(f"admission: {admission.max_connections} connections, "
                  f"{admission.max_inflight} in-flight each, "
                  f"{admission.request_deadline_s:g}s deadline", flush=True)
            if args.controller:
                controller = _start_controller(ctl_config, args, service,
                                               net)
            stop.event.wait()
        print(f"signal received: closing listener, draining service "
              f"(timeout {args.stop_timeout:g}s)")
    finally:
        if controller is not None:
            controller.stop()
        if net is not None:
            net.stop()
        service.stop(args.stop_timeout)
        if net_spans is not None:
            net_spans.close()
        if metrics_server is not None:
            metrics_server.stop()
    if controller is not None:
        print(f"controller: {controller.n_moves} move(s), final setpoints "
              f"{controller.setpoints()}")
    _save_experience(args, recorder, service)
    print(service.snapshot().render())
    return 0


def _cmd_loadgen_net(args) -> int:
    """``loadgen --connect``: drive a remote server over the wire protocol."""
    from repro.net import RemoteError, run_network_load

    _, seq = _make_workload(args)
    profile = _make_profile(args)
    print(f"load: {len(seq)} requests at {args.rate:,.0f} req/s over "
          f"{args.connections} connection(s) to {args.connect} "
          f"(window {args.window}, on_overload={args.on_overload}"
          + (f", profile {profile}" if profile is not None else "") + ")\n")
    if args.span_dir is not None:
        print(f"request spans: client.spans.jsonl into {args.span_dir} "
              f"(sample={args.trace_sample:g})")
    try:
        report = run_network_load(
            args.connect, seq,
            rate=args.rate,
            batch_size=args.batch_size,
            connections=args.connections,
            window=args.window,
            timeout=args.timeout,
            max_retries=args.max_retries,
            retry_backoff=args.retry_backoff,
            on_overload=args.on_overload,
            trace_sample=args.trace_sample if args.span_dir else 0.0,
            trace_seed=args.master_seed,
            span_dir=args.span_dir,
            profile=profile,
        )
    except (OSError, RemoteError) as exc:
        args.parser.error(f"network load failed: {exc}")
    print(report.render())
    return 0 if report.n_served else 1


def _cmd_loadgen(args) -> int:
    from repro.service import run_load

    if args.connect is not None:
        return _cmd_loadgen_net(args)
    service, seq = _make_service(args)
    metrics_server = _start_metrics_server(args, service.registry)
    recorder = _attach_recorder(args, service)
    profile = _make_profile(args)
    print(f"load: {len(seq)} requests at {args.rate:,.0f} req/s "
          f"against {service!r}"
          + (f" (profile {profile})" if profile is not None else "")
          + "\n")
    try:
        with service:
            report = run_load(service, seq, rate=args.rate,
                              batch_size=args.batch_size,
                              max_retries=args.max_retries,
                              retry_backoff=args.retry_backoff,
                              on_overload=args.on_overload,
                              profile=profile)
            snap = service.snapshot()
            _save_experience(args, recorder, service)
    finally:
        if metrics_server is not None:
            metrics_server.stop()
    print(report.render())
    print(snap.render())
    return 0 if report.n_served else 1


def _cmd_cluster_proxy(args) -> int:
    """``cluster proxy``: front the backends until SIGINT/SIGTERM."""
    from repro.cluster import ClusterMap, ClusterProxy
    from repro.net import PagingClient, RemoteError, parse_address

    backends = args.backends
    host, port = parse_address(args.listen)
    federation_targets = dict(args.backend_metrics or ())
    # Checked before any network dial, so a typo fails fast.
    if args.federate_port is None and federation_targets:
        args.parser.error("--backend-metrics requires --federate-port")
    n_shards = args.shards
    if n_shards is None:
        try:
            with PagingClient(backends[0], timeout=args.timeout) as probe:
                n_shards = len(probe.snapshot()["shards"])
        except (OSError, RemoteError) as exc:
            args.parser.error(f"cannot reach backend {backends[0]}: {exc}")
        print(f"shard count from {backends[0]}: {n_shards}")
    cmap = ClusterMap.balanced(backends, n_shards)
    registry = None
    federation_server = None
    if args.metrics_port is not None or args.federate_port is not None:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    span_exporter = None
    if args.span_dir is not None:
        from pathlib import Path

        from repro.obs import SpanExporter

        span_dir = Path(args.span_dir)
        span_dir.mkdir(parents=True, exist_ok=True)
        span_exporter = SpanExporter(span_dir / "proxy.spans.jsonl",
                                     wall=True)
        print(f"proxy request spans into {span_dir / 'proxy.spans.jsonl'}")
    if args.flight_dir is not None:
        from repro.obs import set_flight_dump_dir

        set_flight_dump_dir(args.flight_dir)
        print(f"flight recorder armed: dumps into {args.flight_dir}")
    proxy = ClusterProxy(
        cmap, host=host, port=port,
        window=args.window, retries=args.retries,
        retry_backoff=args.retry_backoff, timeout=args.timeout,
        hold_timeout=args.hold_timeout,
        migration_timeout=args.migration_timeout,
        registry=registry,
        span_exporter=span_exporter,
    )
    metrics_server = None
    try:
        with _SignalStop() as stop:
            _install_flight_dump_signal()
            try:
                proxy.start(check_backends=True)
            except (OSError, RemoteError) as exc:
                args.parser.error(f"cluster proxy failed to start: {exc}")
            metrics_server = _start_metrics_server(args, registry)
            if args.federate_port is not None:
                from repro.obs import Federator, MetricsServer

                federation_server = MetricsServer(
                    Federator(federation_targets, local_registry=registry),
                    port=args.federate_port).start()
                print(f"federated metrics at {federation_server.url} "
                      f"({len(federation_targets)} backend target(s))",
                      flush=True)
            print(f"listening on {proxy.host}:{proxy.port}", flush=True)
            print(f"cluster map: {proxy.table.map!r}", flush=True)
            stop.event.wait()
        print("signal received: closing proxy")
    finally:
        proxy.stop()
        if span_exporter is not None:
            span_exporter.close()
        if metrics_server is not None:
            metrics_server.stop()
        if federation_server is not None:
            federation_server.stop()
    status = proxy.status()
    print(f"final map: {proxy.table.map!r} "
          f"({status['n_migrations']} migration(s))")
    return 0


def _render_cluster_status(status: dict) -> str:
    table = Table(["shard", "backend"],
                  title=f"cluster map @ epoch {status['epoch']} "
                        f"({status['n_migrations']} migration(s))")
    for shard, address in enumerate(status["assignment"]):
        table.add_row(shard, address)
    spread = ", ".join(f"{b}:{n}" for b, n in status["counts"].items())
    return f"{table.render()}\nspread: {spread}"


def _proxy_command(action):
    """A cluster control handler: ``action(args, client)`` over one
    connection to ``--proxy``; a transport failure exits 1."""

    def handler(args) -> int:
        from repro.net import PagingClient, RemoteError

        try:
            with PagingClient(args.proxy, timeout=args.timeout) as client:
                return action(args, client)
        except (OSError, RemoteError) as exc:
            print(f"cluster {args.cluster_command} failed: {exc}",
                  file=sys.stderr)
            return 1

    return handler


def _apply_moves(args, client, moves) -> int:
    """Run planned ``(shard, source, target)`` moves; 1 at the first failure."""
    for shard, _source, target in moves:
        reply = client.move_shard(shard, target, timeout=args.timeout)
        print(reply.detail)
        if not reply.ok:
            return 1
    return 0


@_proxy_command
def _cmd_cluster_status(args, client) -> int:
    print(_render_cluster_status(client.cluster_status()))
    return 0


@_proxy_command
def _cmd_cluster_migrate(args, client) -> int:
    reply = client.move_shard(args.shard, args.to, timeout=args.timeout)
    print(reply.detail)
    if reply.ok:
        print(f"epoch now {reply.epoch}")
    return 0 if reply.ok else 1


@_proxy_command
def _cmd_cluster_drain(args, client) -> int:
    # Same deterministic plan drain_backend() follows: the shrunk pool's
    # rebalance moves, restricted to the drained backend's shards.
    from repro.cluster import ClusterMap

    cmap = ClusterMap.from_dict(client.cluster_status())
    if args.backend not in cmap.backends:
        args.parser.error(f"backend {args.backend!r} not in cluster "
                          f"{list(cmap.backends)}")
    remaining = [b for b in cmap.backends if b != args.backend]
    if not remaining:
        args.parser.error(f"cannot drain {args.backend!r}: it is the last "
                          f"backend")
    moves = [move for move in cmap.rebalance_moves(remaining)
             if move[1] == args.backend]
    if _apply_moves(args, client, moves):
        return 1
    print(f"drained {len(moves)} shard(s) off {args.backend}")
    print(_render_cluster_status(client.cluster_status()))
    return 0


@_proxy_command
def _cmd_cluster_rebalance(args, client) -> int:
    # Plan locally from the live map, apply move by move.
    from repro.cluster import ClusterMap

    cmap = ClusterMap.from_dict(client.cluster_status())
    moves = cmap.rebalance_moves(args.backends)
    if not moves:
        print(f"already balanced: {cmap!r}")
        return 0
    if _apply_moves(args, client, moves):
        return 1
    print(_render_cluster_status(client.cluster_status()))
    return 0


def _cmd_replay_stats(args) -> int:
    """``replay stats``: the shape of a recorded experience file."""
    experience = _load_experience(args, args.path)
    live = experience.meta.get("live", {})
    stats = experience.stats()
    table = Table(["shard", "requests"], title=f"experience: {args.path}")
    for shard, count in enumerate(stats["per_shard"]):
        table.add_row(shard, count)
    print(table.render())
    levels = ", ".join(f"L{lv}:{n}"
                       for lv, n in stats["level_counts"].items())
    print(f"{stats['n_requests']} requests, "
          f"{stats['unique_pages']} unique pages, levels {levels}")
    meta = experience.meta
    print(f"recorded: policy={meta['policy']} k={meta['cache_size']} "
          f"shards={meta['n_shards']} seed={meta['seed']} "
          f"live cost={live.get('eviction_cost', 0.0):.1f}")
    return 0


def _cmd_replay_compare(args) -> int:
    """``replay compare``: several policies against the live run."""
    from repro.control import ReplayEngine

    engine = ReplayEngine(_load_experience(args, args.path))
    print(engine.compare(args.policies, cache_size=args.cache_size,
                         rate=args.rate,
                         on_overload=args.on_overload).render())
    return 0


def _cmd_replay_run(args) -> int:
    """``replay run``: replay once; with no overrides, ``==`` the live cost."""
    from repro.control import ReplayEngine

    experience = _load_experience(args, args.path)
    engine = ReplayEngine(experience)
    live = experience.meta.get("live", {})
    result = engine.run(policy=args.policy, cache_size=args.cache_size,
                        rate=args.rate, on_overload=args.on_overload)
    table = Table(["config", "cost", "hits", "misses", "evictions"],
                  title=f"replay of {args.path}")
    table.add_row(f"live ({experience.meta['policy']})",
                  live.get("eviction_cost", 0.0),
                  live.get("n_hits", 0), live.get("n_misses", 0),
                  live.get("n_evictions", 0))
    table.add_row(f"{result.policy} (k={result.cache_size})",
                  result.eviction_cost, result.n_hits, result.n_misses,
                  result.n_evictions)
    print(table.render())
    if result.report is not None:
        print(result.report.render())
    baseline = args.policy is None and args.cache_size is None
    if baseline:
        if engine.matches_live(result):
            print("replay cost == live cost (exact)")
            return 0
        print("REPLAY MISMATCH: replayed "
              f"{result.eviction_cost!r} != live "
              f"{live.get('eviction_cost')!r}", file=sys.stderr)
        return 1
    delta = result.eviction_cost - float(live.get("eviction_cost", 0.0))
    print(f"cost vs live: {delta:+.1f}")
    return 0


def _cmd_top(args) -> int:
    """``top``: poll a (federated) /metrics page into a live status table."""
    from time import monotonic, sleep

    from repro.obs.federation import parse_exposition, render_top, scrape

    prev: dict | None = None
    prev_at: float | None = None
    try:
        while True:
            try:
                text = scrape(args.url, timeout=5.0)
            except (OSError, ValueError) as exc:
                print(f"top: scrape of {args.url} failed: {exc}",
                      file=sys.stderr)
                return 1
            now = monotonic()
            families = parse_exposition(text)
            dt = None if prev_at is None else now - prev_at
            print(render_top(families, prev, dt), flush=True)
            if args.once:
                return 0
            prev, prev_at = families, now
            sleep(args.interval)
            print()
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    A rejected input exits 2 with one stderr line that names the flag or
    the file: the parser's own errors (ranges, lists, addresses,
    cross-flag rules) and the library's input errors raised while the
    command's handler runs.
    """
    try:
        args = _build_parser().parse_args(argv)
        try:
            return args.handler(args)
        except (InvalidInstanceError, ServiceConfigError,
                FileNotFoundError) as exc:
            args.parser.error(str(exc))
    except SystemExit as exc:  # --help (0) or a rejection, already printed
        return exc.code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
