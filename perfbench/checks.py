"""Correctness checks applied to every benchmark run.

Each check returns a list of failure messages; an empty list passes.  The
checks take plain data (ledger summaries, counts, bounds), so the
benchmark's tests can hand them perturbed inputs and see them fail.
"""

from __future__ import annotations

LEDGER_KEYS = ("n_requests", "n_hits", "n_misses", "n_evictions",
               "eviction_cost", "cost_by_level", "evictions_by_level")


def ledger_summary(engine) -> dict:
    """The exact per-shard ledger values a run is checked on."""
    ledger = engine.ledger
    return {
        "n_requests": int(engine.n_requests),
        "n_hits": int(ledger.n_hits),
        "n_misses": int(ledger.n_misses),
        "n_evictions": int(ledger.n_evictions),
        "eviction_cost": float(ledger.eviction_cost),
        "cost_by_level": {str(k): float(v)
                          for k, v in sorted(ledger.cost_by_level.items())},
        "evictions_by_level": {str(k): int(v) for k, v
                               in sorted(ledger.evictions_by_level.items())},
    }


def merged(shards: list[dict]) -> dict:
    """Fold per-shard summaries, in shard order, into one ledger."""
    out = {"n_requests": 0, "n_hits": 0, "n_misses": 0, "n_evictions": 0,
           "eviction_cost": 0.0, "cost_by_level": {},
           "evictions_by_level": {}}
    for shard in shards:
        for key in ("n_requests", "n_hits", "n_misses", "n_evictions",
                    "eviction_cost"):
            out[key] += shard[key]
        for key in ("cost_by_level", "evictions_by_level"):
            for level, value in shard[key].items():
                out[key][level] = out[key].get(level, 0) + value
    return out


def ledger_matches(got: list[dict], want: list[dict]) -> list[str]:
    """Per-shard and merged ledgers must be ``==`` to the oracle's."""
    if len(got) != len(want):
        return [f"ledger has {len(got)} shards, oracle {len(want)}"]
    errors = []
    for shard, (g, w) in enumerate(zip(got, want)):
        for key in LEDGER_KEYS:
            if g[key] != w[key]:
                errors.append(f"shard {shard} {key}: {g[key]!r} != oracle {w[key]!r}")
    g, w = merged(got), merged(want)
    for key in LEDGER_KEYS:
        if g[key] != w[key]:
            errors.append(f"merged {key}: {g[key]!r} != oracle {w[key]!r}")
    return errors


def served_once(served: list[int], routed: list[int], acked: int) -> list[str]:
    """Each shard served exactly the requests routed to it, and the acks
    account for every one of them."""
    errors = [f"shard {s} served {a} requests, {b} were routed to it"
              for s, (a, b) in enumerate(zip(served, routed)) if a != b]
    if len(served) != len(routed):
        errors.append(f"{len(served)} shards served, {len(routed)} routed")
    if sum(served) != acked:
        errors.append(f"shards served {sum(served)} requests, acks cover {acked}")
    return errors


def counts_match(label: str, got: dict, want: dict) -> list[str]:
    """Record counts written must equal the sampler's prediction."""
    return [f"{label} {key}: {got.get(key)} records, sampler predicts {want[key]}"
            for key in sorted(set(want) | set(got))
            if got.get(key) != want.get(key)]


def bounds_hold(lower: float, upper: float, policy_cost: float) -> list[str]:
    """``lower <= rounded upper`` and ``lower <= policy cost``, lower > 0."""
    errors = []
    if not lower > 0.0:
        errors.append(f"lower bound {lower!r} is not positive")
    if not lower <= upper:
        errors.append(f"lower bound {lower!r} exceeds rounded upper bound {upper!r}")
    if not lower <= policy_cost:
        errors.append(f"lower bound {lower!r} exceeds policy cost {policy_cost!r}")
    return errors
