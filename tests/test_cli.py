"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestPoliciesCommand:
    def test_lists_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        for name in ["lru", "landlord-kernel", "waterfilling",
                     "randomized-multilevel"]:
            assert name in out


class TestRunCommand:
    def test_basic_run(self, capsys):
        # ``landlord`` is an alias; the report names the canonical policy.
        rc = main([
            "run", "--policies", "lru,landlord", "--n-pages", "10",
            "--cache-size", "3", "--requests", "200",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lru" in out and "landlord-kernel" in out

    def test_with_opt_bound(self, capsys):
        rc = main([
            "run", "--policies", "lru", "--n-pages", "6", "--cache-size", "2",
            "--requests", "80", "--opt",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "offline OPT bound" in out
        assert "ratio vs OPT" in out

    def test_multilevel_workload(self, capsys):
        rc = main([
            "run", "--policies", "waterfilling", "--workload", "multilevel",
            "--levels", "3", "--n-pages", "12", "--cache-size", "3",
            "--requests", "150",
        ])
        assert rc == 0
        assert "waterfilling" in capsys.readouterr().out

    @pytest.mark.parametrize("workload", ["uniform", "scan", "working-set"])
    def test_other_workloads(self, workload, capsys):
        rc = main([
            "run", "--policies", "lru", "--workload", workload,
            "--n-pages", "10", "--cache-size", "3", "--requests", "100",
        ])
        assert rc == 0

    def test_csv_output(self, capsys):
        rc = main([
            "run", "--policies", "lru", "--n-pages", "8", "--cache-size", "2",
            "--requests", "50", "--csv",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "policy,mean cost" in out

    def test_unknown_policy_rejected(self, capsys):
        rc = main(["run", "--policies", "nonsense"])
        assert rc == 2
        assert "unknown policy 'nonsense'" in capsys.readouterr().err

    def test_multiple_seeds(self, capsys):
        rc = main([
            "run", "--policies", "randomized-weighted", "--n-pages", "8",
            "--cache-size", "2", "--requests", "100", "--seeds", "3",
        ])
        assert rc == 0


class TestVerifyCommand:
    def test_drift_inequalities_hold(self, capsys):
        rc = main([
            "verify", "--n-pages", "5", "--cache-size", "2", "--levels", "2",
            "--requests", "40",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("HOLDS") == 2


_BAD_CACHE = "error: cache_size (8) must be smaller than the number of pages (4)"


def _size_error(command, flag, value):
    return (f"repro {command}: error: argument {flag}: must be an integer "
            f">= 1, got '{value}'")


@pytest.mark.parametrize("argv,message", [
    pytest.param(["run", "--n-pages", "4", "--cache-size", "8"],
                 f"repro run: {_BAD_CACHE}", id="run"),
    pytest.param(["verify", "--n-pages", "4", "--cache-size", "8"],
                 f"repro verify: {_BAD_CACHE}", id="verify"),
    pytest.param(["serve", "--n-pages", "4", "--k", "8"],
                 f"repro serve: {_BAD_CACHE}", id="serve"),
    pytest.param(["loadgen", "--n-pages", "4", "--k", "0"],
                 _size_error("loadgen", "--k/--cache-size", 0), id="loadgen"),
    pytest.param(["opt", "bound", "--n-pages", "4", "--cache-size", "8"],
                 f"repro opt bound: {_BAD_CACHE}", id="opt-bound"),
    # Size flags are checked by the parser: one line naming the flag.
    pytest.param(["run", "--n-pages", "-1"],
                 _size_error("run", "--n-pages", -1), id="run-n-pages"),
    pytest.param(["run", "--requests", "-5"],
                 _size_error("run", "--requests", -5), id="run-requests"),
    pytest.param(["run", "--levels", "0"],
                 _size_error("run", "--levels", 0), id="run-levels"),
    pytest.param(["verify", "--levels", "0"],
                 _size_error("verify", "--levels", 0), id="verify-levels"),
    pytest.param(["verify", "--requests", "-1"],
                 _size_error("verify", "--requests", -1),
                 id="verify-requests"),
    pytest.param(["mrc", "--n-pages", "0"],
                 _size_error("mrc", "--n-pages", 0), id="mrc-n-pages"),
    pytest.param(["mrc", "--max-k", "0"],
                 _size_error("mrc", "--max-k", 0), id="mrc-max-k"),
    pytest.param(["opt", "bound", "--requests", "-5"],
                 _size_error("opt bound", "--requests", -5),
                 id="opt-bound-requests"),
    pytest.param(["serve", "--requests", "-5"],
                 _size_error("serve", "--requests", -5), id="serve-requests"),
])
def test_invalid_instance_shape_exits_2_with_one_line(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert err.count("\n") == 1  # one line, no traceback


class TestMRCCommand:
    def test_zipf_curve(self, capsys):
        rc = main(["mrc", "--n-pages", "16", "--requests", "500",
                   "--max-k", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "miss-ratio curves" in out
        assert "LRU/MIN" in out

    def test_loop_with_chart(self, capsys):
        rc = main(["mrc", "--workload", "loop", "--n-pages", "16",
                   "--requests", "500", "--max-k", "4", "--chart"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "o LRU" in out and "x MIN" in out


class TestLowerBoundCommand:
    def test_runs_phases(self, capsys):
        rc = main(["lower-bound", "--elements", "12", "--sets", "5",
                   "--cover-size", "2", "--phases", "2",
                   "--repetitions", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Theorem 3.6" in out
        assert "total paging cost" in out

    def test_unknown_policy_rejected(self, capsys):
        rc = main(["lower-bound", "--policy", "nope"])
        assert rc == 2


class TestReportCommand:
    def test_consolidates_when_artifacts_exist(self, capsys):
        import pathlib

        results = pathlib.Path("benchmarks/results")
        if not results.is_dir() or not list(results.glob("*.txt")):
            import pytest

            pytest.skip("no artifacts")
        rc = main(["report"])
        assert rc == 0
        assert "# Benchmark results" in capsys.readouterr().out

    def test_missing_dir_fails(self, capsys):
        rc = main(["report", "--results-dir", "/nonexistent/dir"])
        assert rc == 2


class TestServeCommand:
    def test_serve_round_trip(self, capsys):
        rc = main([
            "serve", "--policy", "waterfilling", "--k", "16", "--shards", "4",
            "--n-pages", "64", "--requests", "2000", "--batch-size", "128",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "service snapshot" in out
        assert "req/s" in out
        assert "total eviction cost" in out

    def test_serve_periodic_snapshots(self, capsys):
        rc = main([
            "serve", "--k", "8", "--shards", "2", "--n-pages", "32",
            "--requests", "1000", "--batch-size", "100",
            "--snapshot-every", "5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("service snapshot") >= 2

    def test_serve_validate_mode(self, capsys):
        rc = main([
            "serve", "--k", "8", "--shards", "2", "--n-pages", "32",
            "--requests", "500", "--validate",
        ])
        assert rc == 0

    def test_serve_multilevel(self, capsys):
        rc = main([
            "serve", "--policy", "waterfilling", "--workload", "multilevel",
            "--levels", "3", "--k", "8", "--n-pages", "32",
            "--requests", "500", "--shards", "2",
        ])
        assert rc == 0

    def test_serve_unknown_policy_rejected(self, capsys):
        rc = main(["serve", "--policy", "nonsense"])
        assert rc == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_serve_bad_sharding_rejected(self, capsys):
        rc = main(["serve", "--k", "2", "--shards", "4"])
        assert rc == 2


class TestLoadgenCommand:
    def test_loadgen_round_trip(self, capsys):
        rc = main([
            "loadgen", "--rate", "50000", "--k", "16", "--shards", "4",
            "--n-pages", "64", "--requests", "3000", "--batch-size", "256",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "load generator report" in out
        assert "service snapshot" in out

    def test_loadgen_unknown_policy_rejected(self, capsys):
        rc = main(["loadgen", "--policy", "nonsense"])
        assert rc == 2


class TestTraceCommands:
    def _write_trace(self, path, capsys):
        rc = main([
            "run", "--policies", "waterfilling", "--n-pages", "16",
            "--cache-size", "4", "--requests", "400", "--trace", str(path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "traced" in out
        assert "trace written to" in out
        return path

    def test_run_trace_then_validate_and_replay(self, tmp_path, capsys):
        path = self._write_trace(tmp_path / "run.jsonl", capsys)
        assert main(["trace", "validate", str(path)]) == 0
        assert "OK" in capsys.readouterr().out
        assert main(["trace", "replay", str(path), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "per-level" in out
        assert "top 3 pages" in out

    def test_run_trace_sampled(self, tmp_path, capsys):
        rc = main([
            "run", "--policies", "lru", "--n-pages", "16", "--cache-size", "4",
            "--requests", "400", "--trace", str(tmp_path / "s.jsonl"),
            "--trace-sample", "0.25",
        ])
        assert rc == 0
        assert main(["trace", "validate", str(tmp_path / "s.jsonl")]) == 0

    def test_run_trace_requires_single_policy_and_seed(self, tmp_path, capsys):
        rc = main([
            "run", "--policies", "lru,landlord-kernel", "--requests", "100",
            "--trace", str(tmp_path / "t.jsonl"),
        ])
        assert rc == 2
        assert "single policy" in capsys.readouterr().err
        rc = main([
            "run", "--policies", "lru", "--seeds", "3", "--requests", "100",
            "--trace", str(tmp_path / "t.jsonl"),
        ])
        assert rc == 2

    def test_validate_flags_corrupt_trace(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ev":"req","t":0}\n')
        assert main(["trace", "validate", str(path)]) == 1
        assert "error" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["trace", "replay", str(tmp_path / "nope.jsonl")]) == 2


class TestServeObservability:
    def test_serve_with_metrics_port_and_trace_dir(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        rc = main([
            "serve", "--k", "8", "--shards", "2", "--n-pages", "32",
            "--requests", "1000", "--batch-size", "128",
            "--metrics-port", "0", "--trace-dir", str(trace_dir),
            "--trace-sample", "0.5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "metrics exposed at http://127.0.0.1:" in out
        assert "tracing 2 shard(s)" in out
        assert "phase spans" in out
        files = sorted(trace_dir.glob("shard-*.jsonl"))
        assert len(files) == 2
        for f in files:
            assert main(["trace", "validate", str(f)]) == 0
            capsys.readouterr()

    def test_loadgen_with_metrics_port(self, capsys):
        rc = main([
            "loadgen", "--rate", "50000", "--k", "8", "--shards", "2",
            "--n-pages", "32", "--requests", "1000", "--batch-size", "128",
            "--metrics-port", "0",
        ])
        assert rc == 0
        assert "metrics exposed at" in capsys.readouterr().out


class TestOptBoundCommand:
    def test_sandwich_on_dp_feasible_instance(self, capsys):
        rc = main([
            "opt", "bound", "--n-pages", "6", "--cache-size", "2",
            "--requests", "120", "--check",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lower bound" in out
        assert "exact OPT (DP)" in out
        assert "rounding sweep" in out
        assert "sandwich check: OK" in out

    def test_sparse_lp_preference_skips_dp(self, capsys):
        rc = main([
            "opt", "bound", "--n-pages", "20", "--cache-size", "5",
            "--requests", "200", "--prefer", "sparse-lp", "--check",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sparse-lp" in out
        assert "exact OPT (DP)" not in out
        assert "sandwich check: OK" in out

    def test_competitive_ratio_row(self, capsys):
        rc = main([
            "opt", "bound", "--n-pages", "6", "--cache-size", "2",
            "--requests", "100", "--cost", "500", "--no-round",
        ])
        assert rc == 0
        assert "competitive ratio" in capsys.readouterr().out

    def test_multilevel_sandwich(self, capsys):
        rc = main([
            "opt", "bound", "--workload", "multilevel", "--levels", "2",
            "--n-pages", "5", "--cache-size", "2", "--requests", "100",
            "--check",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "LP divisor" in out
        assert "sandwich check: OK" in out

    def test_experience_file_input(self, tmp_path, capsys):
        import numpy as np

        from repro.control.experience import Experience

        exp = Experience(
            meta={"cache_size": 2, "batch_size": 4, "n_shards": 1},
            weights=np.array([[3.0], [1.0], [2.0], [5.0]]),
            shards=[(np.array([0, 1, 2, 3, 0, 1, 3, 2], dtype=np.int64),
                     np.ones(8, dtype=np.int64))],
        )
        path = exp.save(tmp_path / "run.npz")
        rc = main(["opt", "bound", str(path), "--check"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "run.npz" in out
        assert "sandwich check: OK" in out

    def test_dp_preference_infeasible_exits_2(self, capsys):
        rc = main([
            "opt", "bound", "--n-pages", "40", "--cache-size", "8",
            "--requests", "100", "--prefer", "dp", "--max-states", "10",
        ])
        assert rc == 2
        assert "infeasible" in capsys.readouterr().err
