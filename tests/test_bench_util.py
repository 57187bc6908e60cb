"""The benchmark harness's summary folding and below-floor surfacing.

``benchmarks/_util.py`` is not a package (benches import it as a sibling
module), so it is loaded here straight from its file path.  Pinned:

* the ``<prefix>_floor`` naming convention finds metrics below their
  declared floor,
* a below-floor run prints a visible ``GATE BELOW FLOOR (unenforced)``
  line and records ``below_floor`` in its summary entry — a skipped gate
  can no longer hide a miss silently (E17's ``propagate_vs_baseline``
  sat below its 0.95 floor with nothing in stdout),
* the existing stale-entry protection (an unenforced rerun never
  clobbers an enforced headline) still holds with ``below_floor`` riding
  along.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_UTIL_PATH = Path(__file__).parent.parent / "benchmarks" / "_util.py"


@pytest.fixture()
def bench_util(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_util", _UTIL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "SUMMARY_PATH", tmp_path / "SUMMARY.json")
    monkeypatch.setattr(module, "RESULTS_DIR", tmp_path / "results")
    return module


class TestBelowFloorLines:
    def test_matches_prefix_convention(self, bench_util):
        lines = bench_util.below_floor_lines({
            "propagate_floor": 0.95,
            "propagate_vs_baseline": 0.924,
            "sampled_floor": 0.9,
            "sampled_vs_baseline": 0.925,
        })
        assert lines == ["propagate_vs_baseline=0.924 < floor 0.95"]

    def test_ignores_gates_floors_and_non_numerics(self, bench_util):
        assert bench_util.below_floor_lines({
            "speedup_floor": 3.0,
            "speedup_gate_enforced": False,   # not a metric
            "speedup_note": "informational",  # not numeric
            "speedup_floor_2": 9.0,           # another floor, not a metric
            "speedup": 3.1,                   # above floor
        }) == []

    def test_boolean_floor_values_are_not_floors(self, bench_util):
        assert bench_util.below_floor_lines({"x_floor": True, "x_y": 0.0}) == []

    def test_multiple_violations_all_reported(self, bench_util):
        lines = bench_util.below_floor_lines({
            "ratio_floor": 1.0,
            "ratio_a": 0.5,
            "ratio_b": 0.25,
        })
        assert lines == ["ratio_a=0.5 < floor 1", "ratio_b=0.25 < floor 1"]


class TestUpdateSummarySurfacing:
    def _payload(self, **metrics):
        return {"name": "e99_demo", "title": "demo", "columns": [],
                "rows": [], **metrics}

    def test_below_floor_printed_and_recorded(self, bench_util, capsys):
        bench_util.update_summary("e99_demo", self._payload(
            propagate_floor=0.95, propagate_vs_baseline=0.924,
            overhead_gate_enforced=False))
        out = capsys.readouterr().out
        assert ("[e99_demo] GATE BELOW FLOOR (unenforced): "
                "propagate_vs_baseline=0.924 < floor 0.95") in out
        summary = json.loads(bench_util.SUMMARY_PATH.read_text())
        assert summary["e99_demo"]["below_floor"] == [
            "propagate_vs_baseline=0.924 < floor 0.95"]

    def test_no_line_when_floors_met(self, bench_util, capsys):
        bench_util.update_summary("e99_demo", self._payload(
            propagate_floor=0.95, propagate_vs_baseline=0.99))
        assert "BELOW FLOOR" not in capsys.readouterr().out
        summary = json.loads(bench_util.SUMMARY_PATH.read_text())
        assert "below_floor" not in summary["e99_demo"]

    def test_stale_protection_keeps_enforced_headline(self, bench_util,
                                                      capsys):
        # An enforced run lands as the headline ...
        bench_util.update_summary("e99_demo", self._payload(
            speedup_floor=2.0, speedup=2.5, speedup_gate_enforced=True))
        # ... and a later unenforced below-floor rerun must not clobber
        # it, while still shouting about the miss.
        bench_util.update_summary("e99_demo", self._payload(
            speedup_floor=2.0, speedup=1.1, speedup_gate_enforced=False))
        out = capsys.readouterr().out
        assert "[e99_demo] GATE BELOW FLOOR (unenforced): " \
               "speedup=1.1 < floor 2" in out
        summary = json.loads(bench_util.SUMMARY_PATH.read_text())
        assert summary["e99_demo"]["speedup"] == 2.5
        assert "below_floor" not in summary["e99_demo"]
        assert summary["e99_demo.stale"]["speedup"] == 1.1
        assert summary["e99_demo.stale"]["below_floor"] == [
            "speedup=1.1 < floor 2"]


class TestPairedGate:
    """E16's gate: interleaved ABBA pairs, median ratio, IQR verdict."""

    @staticmethod
    def _runners(a_values, b_values, log):
        a_iter, b_iter = iter(a_values), iter(b_values)

        def run_a():
            log.append("A")
            return {"x": next(a_iter)}

        def run_b():
            log.append("B")
            return {"x": next(b_iter)}

        return run_a, run_b

    def test_runs_pairs_in_abba_order(self, bench_util):
        log = []
        run_a, run_b = self._runners([1.0] * 5, [0.8] * 5, log)
        gate = bench_util.paired_gate(run_a, run_b, metric="x", floor=0.5)
        assert "".join(log) == "ABBAABBAAB"
        assert gate["ratios"] == [0.8] * 5
        assert gate["usable_cores"] >= 1

    @pytest.mark.parametrize("b_values, verdict", [
        ([0.6, 0.7, 0.8, 0.9, 1.0], "pass"),         # q1 0.7 clears 0.5
        ([0.1, 0.2, 0.3, 0.4, 0.45], "below_floor"),  # q3 0.4 under 0.5
        ([0.3, 0.4, 0.55, 0.6, 0.7], "unresolved"),   # IQR 0.4-0.6
    ])
    def test_verdict_reads_the_iqr(self, bench_util, b_values, verdict):
        run_a, run_b = self._runners([1.0] * 5, b_values, [])
        gate = bench_util.paired_gate(run_a, run_b, metric="x", floor=0.5)
        assert gate["verdict"] == verdict
        assert gate["median"] == pytest.approx(sorted(b_values)[2])

    def test_fewer_than_five_pairs_rejected(self, bench_util):
        with pytest.raises(ValueError):
            bench_util.paired_gate(dict, dict, metric="x", floor=0.5,
                                   pairs=4)
