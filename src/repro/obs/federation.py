"""Metrics federation: one cluster-wide exposition page from N backends.

The proxy (or any aggregator) scrapes each backend's ``/metrics`` page,
re-labels every sample with ``backend="<id>"``, and serves the merged
view on a single Prometheus port.  On top of the per-backend samples the
page carries synthetic aggregate series:

* ``backend="all"`` — the sum across backends, for every family.
  Counters and histogram ``_bucket``/``_sum``/``_count`` samples sum
  exactly (histogram merge is associative: bucket counts with equal
  ``le`` add), so a consumer reading only the ``all`` rows sees the same
  totals it would get by summing the individual scrapes itself — the
  property the CI smoke job asserts.
* ``backend="max"`` — additionally for gauges, where a sum (e.g. of
  epochs) can be meaningless but the max is not.

Liveness of each scrape target is reported as
``repro_federation_up{backend="<id>"}``; an unreachable backend simply
drops out of the merged families for that scrape rather than failing
the whole page.

Everything is stdlib: :mod:`urllib.request` for scraping, and
:class:`~repro.obs.http.MetricsServer` serves a :class:`Federator` like
any other ``render()`` source.

:func:`select` is the one reader of a parsed page: ``SignalReader``'s
page mode, ``repro top`` (:func:`render_top`, :func:`histogram_quantile`)
and CI's smoke checks all read through it, so which rows of a federated
page are real is decided here only.
"""

from __future__ import annotations

import re
import urllib.request
from dataclasses import dataclass, field

from repro.obs.registry import MetricsRegistry, _fmt_value

__all__ = [
    "ExpositionFamily",
    "parse_exposition",
    "select",
    "histogram_quantile",
    "render_top",
    "federate",
    "scrape",
    "Federator",
]

#: The aggregate rows :func:`federate` adds; no backend served them.
_SYNTHETIC_BACKENDS = ("all", "max")

_HELP_RE = re.compile(r"^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) ?(.*)$")
_TYPE_RE = re.compile(r"^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (\w+)$")
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


@dataclass
class ExpositionFamily:
    """One metric family parsed from a text exposition page.

    ``samples`` holds ``(sample_name, labels, value)`` triples where
    ``labels`` is a tuple of ``(name, value)`` pairs in page order —
    ``sample_name`` may differ from the family name for histogram
    ``_bucket``/``_sum``/``_count`` series.
    """

    name: str
    help: str = ""
    type: str = "untyped"
    samples: list = field(default_factory=list)


def _family_of(sample_name: str, known: dict) -> str:
    """Map a sample name back to its family (histogram suffix stripping)."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in known:
                return base
    return sample_name


def parse_exposition(text: str) -> dict:
    """Parse a Prometheus text page into ``{family name: ExpositionFamily}``.

    Tolerant of anything :meth:`MetricsRegistry.render` emits; unknown
    or malformed lines are skipped rather than raised on, since a
    federating proxy must not die on one odd backend.
    """
    families: dict[str, ExpositionFamily] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            m = _HELP_RE.match(line)
            if m:
                fam = families.setdefault(m.group(1),
                                          ExpositionFamily(m.group(1)))
                fam.help = m.group(2)
                continue
            m = _TYPE_RE.match(line)
            if m:
                fam = families.setdefault(m.group(1),
                                          ExpositionFamily(m.group(1)))
                fam.type = m.group(2)
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            continue
        sample_name, raw_labels, raw_value = m.groups()
        try:
            value = float(raw_value)
        except ValueError:
            continue
        labels = tuple(
            (lm.group(1), lm.group(2))
            for lm in _LABEL_RE.finditer(raw_labels or "")
        )
        fam_name = _family_of(sample_name, families)
        fam = families.setdefault(fam_name, ExpositionFamily(fam_name))
        fam.samples.append((sample_name, labels, value))
    return families


def select(families: dict, name: str, **labels) -> list[tuple[dict, float]]:
    """``(labels, value)`` of each ``name`` sample whose labels include
    ``labels``, from a parsed page.

    ``name`` is a sample name: a family's own, or one of a histogram's
    ``_bucket``/``_sum``/``_count`` series.  The synthetic
    ``backend="all"``/``"max"`` rows are skipped unless ``labels`` names
    a backend, so an unlabeled read sees every real row once.
    """
    fam = families.get(_family_of(name, families))
    if fam is None:
        return []
    real_only = "backend" not in labels
    out = []
    for sample_name, sample_labels, value in fam.samples:
        have = dict(sample_labels)
        if sample_name != name or (
                real_only and have.get("backend") in _SYNTHETIC_BACKENDS):
            continue
        if labels.items() <= have.items():
            out.append((have, value))
    return out


def _fmt_sample(sample_name: str, labels, value) -> str:
    if labels:
        body = ",".join(f'{k}="{v}"' for k, v in labels)
        return f"{sample_name}{{{body}}} {_fmt_value(value)}"
    return f"{sample_name} {_fmt_value(value)}"


def federate(pages: dict, *, up: dict | None = None) -> str:
    """Merge per-backend exposition pages into one cluster-wide page.

    ``pages`` maps backend id -> exposition text.  Every sample is
    re-emitted with a leading ``backend="<id>"`` label, followed by
    synthetic ``backend="all"`` sums (and ``backend="max"`` rows for
    gauges).  ``up`` optionally maps backend id -> bool and becomes the
    ``repro_federation_up`` gauge (ids missing from ``pages`` — failed
    scrapes — contribute only there).
    """
    parsed = {bid: parse_exposition(text)
              for bid, text in sorted(pages.items())}
    names: list[str] = []
    for fams in parsed.values():
        for name in fams:
            if name not in names:
                names.append(name)
    out: list[str] = []
    for name in sorted(names):
        help_text, type_text = "", "untyped"
        for fams in parsed.values():
            fam = fams.get(name)
            if fam is None:
                continue
            if fam.help and not help_text:
                help_text = fam.help
            if fam.type != "untyped":
                type_text = fam.type
        out.append(f"# HELP {name} {help_text}")
        out.append(f"# TYPE {name} {type_text}")
        # (sample_name, labels) -> [sum, max]; insertion order = first seen.
        aggregates: dict = {}
        for bid, fams in parsed.items():
            fam = fams.get(name)
            if fam is None:
                continue
            for sample_name, labels, value in fam.samples:
                out.append(_fmt_sample(
                    sample_name, (("backend", bid),) + labels, value))
                cell = aggregates.get((sample_name, labels))
                if cell is None:
                    aggregates[(sample_name, labels)] = [value, value]
                else:
                    cell[0] += value
                    cell[1] = max(cell[1], value)
        for (sample_name, labels), (total, peak) in aggregates.items():
            out.append(_fmt_sample(
                sample_name, (("backend", "all"),) + labels, total))
            if type_text == "gauge":
                out.append(_fmt_sample(
                    sample_name, (("backend", "max"),) + labels, peak))
    if up is not None:
        out.append("# HELP repro_federation_up "
                   "Whether the last scrape of this backend succeeded")
        out.append("# TYPE repro_federation_up gauge")
        for bid in sorted(up):
            out.append(_fmt_sample("repro_federation_up",
                                   (("backend", bid),), 1 if up[bid] else 0))
    return "\n".join(out) + "\n" if out else ""


def scrape(url: str, *, timeout: float = 2.0) -> str:
    """Fetch one exposition page over HTTP."""
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read().decode("utf-8")


class Federator:
    """Scrapes a set of backend ``/metrics`` URLs and merges the pages.

    ``targets`` maps backend id -> scrape URL.  A local registry (the
    proxy's own forwarding/migration counters) joins the merge under
    ``local_id`` without an HTTP round trip.  Scrape failures mark the
    backend down in ``repro_federation_up`` and skip its samples.
    """

    def __init__(self, targets: dict, *,
                 local_registry: MetricsRegistry | None = None,
                 local_id: str = "proxy", timeout: float = 2.0) -> None:
        self.targets = dict(targets)
        self.local_registry = local_registry
        self.local_id = local_id
        self.timeout = timeout

    def render(self) -> str:
        """One fresh scrape of every target, merged into a single page."""
        pages: dict = {}
        up: dict = {}
        for bid, url in self.targets.items():
            try:
                pages[bid] = scrape(url, timeout=self.timeout)
                up[bid] = True
            except (OSError, ValueError):
                up[bid] = False
        if self.local_registry is not None:
            pages[self.local_id] = self.local_registry.render()
        return federate(pages, up=up)


# -- repro top: frames read off a (federated) page ------------------------


def _total(families: dict, name: str, **labels) -> float:
    return sum(value for _labels, value in select(families, name, **labels))


def histogram_quantile(families: dict, family: str, q: float,
                       **labels) -> float:
    """``q``-quantile (ms) from cumulative ``<family>_bucket`` samples.

    Linear interpolation within the winning bucket, the standard
    Prometheus ``histogram_quantile`` estimate; +Inf-bucket hits clamp
    to the largest finite edge.
    """
    buckets: dict[float, float] = {}
    for sample_labels, value in select(families, f"{family}_bucket",
                                       **labels):
        le = sample_labels.get("le")
        if le is None:
            continue
        edge = float(le)  # float() reads "+Inf" as inf
        buckets[edge] = buckets.get(edge, 0.0) + value
    if not buckets:
        return 0.0
    edges = sorted(buckets)
    total = buckets[edges[-1]]
    if total <= 0:
        return 0.0
    rank = q * total
    prev_edge, prev_count = 0.0, 0.0
    for edge in edges:
        count = buckets[edge]
        if count >= rank:
            if edge == float("inf"):
                finite = [e for e in edges if e != float("inf")]
                return 1e3 * (finite[-1] if finite else 0.0)
            if count == prev_count:
                return 1e3 * edge
            frac = (rank - prev_count) / (count - prev_count)
            return 1e3 * (prev_edge + frac * (edge - prev_edge))
        prev_edge, prev_count = edge, count
    return 1e3 * edges[-1]


def _top_backends(families: dict) -> list[str]:
    """Backend ids on the page, the proxy's own row excluded; ``[""]``
    for a plain (un-federated) page, which has no backend label."""
    for family in ("repro_federation_up", "repro_requests_total"):
        ids: list[str] = []
        for labels, _value in select(families, family):
            backend = labels.get("backend")
            if backend not in (None, "proxy") and backend not in ids:
                ids.append(backend)
        if ids:
            return ids
    return [""]


def render_top(families: dict, prev: dict | None, dt: float | None) -> str:
    """One ``repro top`` frame from a parsed (federated) metrics page.

    ``prev`` is the page parsed ``dt`` seconds earlier, for the req/s
    column (``None`` on the first frame).
    """
    from repro.analysis.tables import Table

    table = Table(
        ["backend", "req/s", "requests", "p50 ms", "p99 ms", "queue", "up"],
        title="cluster top",
    )
    for backend in _top_backends(families):
        labels = {"backend": backend} if backend else {}
        requests = _total(families, "repro_requests_total", **labels)
        rate = "-"
        if prev is not None and dt:
            done = requests - _total(prev, "repro_requests_total", **labels)
            rate = f"{done / dt:,.0f}"
        up = "-"
        if backend and "repro_federation_up" in families:
            up = ("yes" if _total(families, "repro_federation_up", **labels)
                  else "DOWN")
        table.add_row(
            backend or "(local)",
            rate,
            int(requests),
            histogram_quantile(
                families, "repro_batch_latency_seconds", 0.50, **labels),
            histogram_quantile(
                families, "repro_batch_latency_seconds", 0.99, **labels),
            int(_total(families, "repro_queue_depth", **labels)),
            up,
        )
    # Only the proxy carries these; its row is the one real row on a
    # federated page and the unlabeled one on its own page.
    epoch = _total(families, "repro_proxy_epoch")
    migrations = _total(families, "repro_proxy_migrations_total")
    inflight = _total(families, "repro_proxy_migrations_inflight")
    footer = (f"epoch {int(epoch)}, {int(migrations)} migration(s) done, "
              f"{int(inflight)} in flight")
    return f"{table.render()}\n{footer}"
