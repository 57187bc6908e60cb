"""Shared helpers for the benchmark harness.

Every experiment bench:

* builds its workloads with fixed seeds (bit-reproducible tables),
* produces a :class:`repro.analysis.Table` with the paper-style rows,
* prints the table and writes it under ``benchmarks/results/`` — both the
  human-readable ``<name>.txt`` and a machine-readable ``<name>.json``
  (columns, rows, and any experiment-specific ``extra`` payload) so CI can
  archive and diff the artifacts,
* asserts the *shape* claims (who wins, growth class, bounds hold) —
  absolute values are machine-dependent and never asserted.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.analysis import Table

RESULTS_DIR = Path(__file__).parent / "results"
SUMMARY_PATH = Path(__file__).parent.parent / "BENCH_SUMMARY.json"


def usable_cores() -> int:
    """Cores this process may run on (recorded next to throughput numbers)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def emit(table: Table, name: str, extra: dict | None = None) -> Table:
    """Print a table and persist it under ``benchmarks/results/``.

    Writes ``<name>.txt`` (rendered table) and ``<name>.json`` holding the
    table's columns and formatted rows plus any keys from ``extra`` —
    machine-readable metrics a consumer shouldn't have to re-parse from
    the text rendering (throughput, percentiles, span totals, ...).

    Also folds the bench's headline numbers into the consolidated
    ``BENCH_SUMMARY.json`` at the repo root (see :func:`update_summary`),
    so one file answers "what did the last bench run measure" across all
    experiments.
    """
    text = table.render()
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text, encoding="utf-8")
    payload = {
        "name": name,
        "title": table.title,
        "columns": table.columns,
        "rows": table.rows,
    }
    if extra:
        payload.update(extra)
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )
    update_summary(name, payload)
    return table


def opt_bound_payload(bound) -> dict:
    """JSON-able summary of a :class:`repro.offline.bounds.OptBound`.

    Every E-series bench that reports ``competitive_ratio`` columns also
    records *what it divided by* — the bound's value, the method that
    produced it (``dp`` / ``sparse-lp``), and the raw LP
    value / rounded upper bound when an LP was involved — so a ratio in
    an artifact is auditable without re-running the solver.
    """
    payload = {"value": bound.value, "method": bound.method,
               "exact": bound.exact}
    if bound.lp_value is not None:
        payload["lp_value"] = bound.lp_value
    if bound.upper is not None:
        payload["upper"] = bound.upper
    return payload


def _headline(payload: dict) -> dict:
    """Per-bench headline: the title plus every scalar top-level metric.

    Nested run dictionaries stay in the per-bench ``results/*.json``; the
    consolidated summary keeps only what fits on one line per experiment.
    """
    headline: dict = {"title": payload.get("title", ""),
                      "n_rows": len(payload.get("rows", []))}
    for key, value in payload.items():
        if key in ("name", "title", "columns", "rows"):
            continue
        if isinstance(value, (int, float, str, bool)):
            headline[key] = value
    return headline


def _gate_keys(headline: dict) -> list[str]:
    """The ``*_gate_enforced`` flags a bench self-describes its rigor with."""
    return [k for k in headline if k.endswith("_gate_enforced")]


def below_floor_lines(headline: dict) -> list[str]:
    """``metric < floor`` violations, matched by naming convention.

    A bench that publishes ``<prefix>_floor`` alongside numeric metrics
    named ``<prefix>*`` declares a quality floor even on runs where the
    enforcement gate is skipped (e.g. a scaling gate on a 1-core box).
    Returns one ``"key=value < floor f"`` line per metric sitting below
    its floor, so a skipped gate can never hide a miss silently.
    """
    lines: list[str] = []
    for key, floor in sorted(headline.items()):
        if not key.endswith("_floor"):
            continue
        if isinstance(floor, bool) or not isinstance(floor, (int, float)):
            continue
        prefix = key[: -len("_floor")]
        for mkey, value in sorted(headline.items()):
            if (mkey == key or mkey.endswith("_floor")
                    or mkey.endswith("_gate_enforced")
                    or not mkey.startswith(prefix)):
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if value < floor:
                lines.append(f"{mkey}={value:.6g} < floor {floor:g}")
    return lines


def update_summary(name: str, payload: dict) -> None:
    """Merge one bench's headline into the repo-root ``BENCH_SUMMARY.json``.

    The file maps bench name -> headline and is rewritten whole on every
    merge (read-modify-write; benches run sequentially under pytest, so no
    cross-process locking is needed).

    A run that *skipped* its own gates (any ``*_gate_enforced`` flag
    false — e.g. a scaling bench on a 1-core box) must not overwrite a
    prior entry whose gates were enforced: the enforced numbers are the
    meaningful ones, and clobbering them with an unenforced rerun would
    silently degrade the summary.  The unenforced run is still recorded
    — under ``<name>.stale`` with a ``stale_reason`` — so the summary
    shows both that the bench ran and why its headline was not replaced.
    """
    summary: dict = {}
    if SUMMARY_PATH.exists():
        try:
            summary = json.loads(SUMMARY_PATH.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            summary = {}
    if not isinstance(summary, dict):
        summary = {}
    headline = _headline(payload)
    below = below_floor_lines(headline)
    if below:
        # A declared floor was missed on a run whose gate did not enforce
        # it (an enforced gate would have failed the bench before emit);
        # make that loudly visible in stdout and in the summary entry.
        headline["below_floor"] = below
        for line in below:
            print(f"[{name}] GATE BELOW FLOOR (unenforced): {line}")
    gates = _gate_keys(headline)
    skipped = [k for k in gates if headline.get(k) is False]
    previous = summary.get(name)
    if skipped and isinstance(previous, dict) and all(
            previous.get(k) is not False for k in _gate_keys(previous)):
        headline["stale_reason"] = (
            f"gates skipped ({', '.join(sorted(skipped))}); kept the prior "
            "enforced entry as the headline")
        summary[f"{name}.stale"] = headline
    else:
        if skipped:
            headline["stale_reason"] = (
                f"gates skipped ({', '.join(sorted(skipped))}); no prior "
                "enforced entry to preserve")
        summary.pop(f"{name}.stale", None)
        summary[name] = headline
    SUMMARY_PATH.write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
