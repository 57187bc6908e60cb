"""The CLI's input contract, fuzzed from the parser's own table.

Every rejected input exits 2 with exactly one stderr line that names the
flag, before any command handler runs, and never with a traceback.  The
cases are built by walking ``_build_parser()``: every (sub)command and
every flag that declares a range, so a flag added without a range, or a
range the parser stops enforcing, fails here.
"""

import argparse
import contextlib
import io
import string
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli


def _leaves(parser, path=()):
    """``(path, parser)`` for every (sub)command that runs a handler."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaves(sub, (*path, name))
    if parser.get_default("handler") is not None:
        yield path, parser


def _ranged_flags():
    return [(path, action)
            for path, leaf in _leaves(cli._build_parser())
            for action in leaf._actions if isinstance(action.type, cli._Range)]


RANGED = _ranged_flags()
HANDLER_CALLS: list = []


def _stubbed_parser():
    parser = cli._build_parser()
    for _, leaf in _leaves(parser):
        leaf.set_defaults(handler=lambda args: HANDLER_CALLS.append(args) or 0)
    return parser


STUBBED = _stubbed_parser()


def run_stubbed(argv):
    """``main(argv)`` with every handler stubbed: ``(exit code, stderr)``."""
    HANDLER_CALLS.clear()
    err = io.StringIO()
    with mock.patch.object(cli, "_build_parser", lambda: STUBBED), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def assert_rejected(path, action, value):
    flag = "/".join(action.option_strings)
    code, err = run_stubbed([*path, f"{action.option_strings[0]}={value}"])
    assert code == 2, (path, flag, value)
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert f"error: argument {flag}: " in err, err
    assert "Traceback" not in err
    assert not HANDLER_CALLS, (path, flag, value)


def _accepts(rng, text):
    try:
        rng(text)
    except argparse.ArgumentTypeError:
        return False
    return True


def canonical_invalid(rng):
    """Below the minimum, above any maximum, non-finite, junk and empty."""
    step = 1 if rng.kind is int else 0.5
    values = ["", "abc", "nan", "inf", "-inf", "1e999",
              str(rng.lo) if rng.open_lo else str(rng.lo - step)]
    if rng.hi is not None:
        values.append(str(rng.hi + step))
    if rng.kind is int:
        values += ["1.5", "1e3"]
    return values


def invalid_values(rng):
    if rng.kind is int:
        below = st.integers(max_value=rng.lo - 1)
        above = st.integers(min_value=rng.hi + 1) if rng.hi is not None else None
        fractional = st.floats(allow_nan=False, allow_infinity=False).filter(
            lambda v: v != int(v))
        numbers = [below, fractional] + ([above] if above is not None else [])
    else:
        below = st.floats(max_value=rng.lo, exclude_max=not rng.open_lo)
        above = (st.floats(min_value=rng.hi, exclude_min=True)
                 if rng.hi is not None else None)
        numbers = [below] + ([above] if above is not None else [])
    junk = st.text(alphabet=string.printable + "é∞", max_size=8)
    return st.one_of(
        *[n.map(str) for n in numbers],
        st.sampled_from(["", "nan", "NaN", "inf", "-inf", "+Infinity"]),
        junk,
    ).filter(lambda text: not _accepts(rng, text))


def _id(case):
    path, action = case
    return f"{' '.join(path)} {action.option_strings[0]}"


@pytest.mark.parametrize("path,action", RANGED, ids=map(_id, RANGED))
def test_canonical_bad_values_exit_2_with_one_line(path, action):
    for value in canonical_invalid(action.type):
        assert_rejected(path, action, value)


@pytest.mark.parametrize("path,action", RANGED, ids=map(_id, RANGED))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_random_bad_values_exit_2_with_one_line(path, action, data):
    assert_rejected(path, action, data.draw(invalid_values(action.type)))


def test_every_numeric_flag_declares_a_range():
    unranged = [
        _id((path, action))
        for path, leaf in _leaves(cli._build_parser())
        for action in leaf._actions
        if action.type in (int, float)
        or (isinstance(action.default, (int, float))
            and not isinstance(action.default, bool)
            and not isinstance(action.type, cli._Range))
    ]
    assert not unranged, f"numeric flags without a range: {unranged}"
    assert len(RANGED) > 100  # the walk reaches every sub-subcommand


@pytest.mark.parametrize("argv", [
    # Each of these exited 1 with a Python traceback before ranges moved
    # into the parser.
    ["run", "--alpha", "-1"],
    ["run", "--master-seed", "-1"],
    ["verify", "--seed", "-1"],
    ["run", "--weight-high", "nan"],
    ["loadgen", "--rate", "0"],
    ["loadgen", "--connect", "127.0.0.1:1", "--timeout", "-1"],
    ["lower-bound", "--elements", "0"],
    ["mrc", "--workload", "loop", "--loop-size", "0"],
    ["opt", "bound", "--cost", "-5"],
    ["serve", "--trace-dir", "unused", "--trace-sample", "2"],
    ["serve", "--listen", "127.0.0.1:0", "--controller", "--ctl-high", "2"],
    ["cluster", "proxy", "--backends", "127.0.0.1:1", "--shards", "4",
     "--window", "0"],
    # ... and these ran anyway and exited 0.
    ["loadgen", "--rate", "nan"],
    ["opt", "bound", "--cost", "nan"],
    ["serve", "--snapshot-every", "-1"],
    # argparse's own rejection used to print the whole usage block.
    ["run", "--requests", "1e3"],
], ids=" ".join)
def test_former_tracebacks_exit_2_with_one_line(argv):
    code, err = run_stubbed(argv)
    assert code == 2
    assert err.count("\n") == 1 and "argument --" in err, err
    assert not HANDLER_CALLS


@pytest.mark.parametrize("argv,message", [
    # Accepted fault plans that never fire are rejected by ServiceConfig.
    (["serve", "--backend", "inline", "--faults", "kill:0@10",
      "--checkpoint-interval", "100"], "inline backend"),
    (["serve", "--backend", "inline", "--checkpoint-interval", "100"],
     "inline backend"),
    (["serve", "--shards", "2", "--faults", "kill:9@10"], "shard 9"),
    # Library input errors, reported once by main().
    (["run", "--n-pages", "4", "--cache-size", "8"], "cache_size (8)"),
    (["trace", "replay", "no-such-trace.jsonl"], "no-such-trace.jsonl"),
    (["replay", "stats", "no-such-run.npz"], "no-such-run.npz"),
    # Cross-flag rules stay in the handlers, on the same one-line path.
    (["run", "--policies", "lru,fifo", "--trace", "t.jsonl"],
     "single policy"),
    (["serve", "--listen", "127.0.0.1:0", "--controller", "--ctl-low",
      "0.9", "--ctl-high", "0.5"], "low_water"),
    (["cluster", "proxy", "--backends", "127.0.0.1:1",
      "--backend-metrics", "a=http://x/metrics"], "--federate-port"),
    # Lists and addresses parse through the parser too.
    (["opt", "bound", "--thresholds", "0.5,x"], "argument --thresholds"),
    (["cluster", "proxy", "--backends", "127.0.0.1:1",
      "--backend-metrics", "nourl"], "argument --backend-metrics"),
    (["serve", "--faults", "kill:zero@10"], "argument --faults"),
    (["cluster", "migrate", "--proxy", "127.0.0.1:1", "--shard", "0",
      "--to", "nope"], "argument --to"),
    (["replay", "compare", "x.npz", "--policies", "lru,nope"],
     "unknown policy 'nope'"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_input_errors_exit_2_with_one_line(argv, message, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err, err
    assert err.startswith("repro ")


def test_help_returns_0(capsys):
    assert cli.main(["run", "--help"]) == 0
    assert "--n-pages" in capsys.readouterr().out


def test_unreadable_experience_file_exits_2_with_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    for command in (["replay", "stats"], ["replay", "run"], ["opt", "bound"]):
        assert cli.main([*command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cannot load experience" in err, err
