"""``repro top`` frames rendered from fixed exposition pages.

Every expected number below is computed by hand from the pages, so a
change to how ``top`` reads a federated page shows up as a wrong cell.
"""

import pytest

from repro.cli import _render_top, _top_histogram_quantile
from repro.obs import parse_exposition

# Backend a:1 served 60 + 40 requests, b:2 served 30 and is down.  Shard 0
# of a:1 has 10 batches: 2 under 1 ms, 4 more under 10 ms, 4 above.
FEDERATED = """\
# TYPE repro_requests_total counter
repro_requests_total{backend="a:1",shard="0"} 60
repro_requests_total{backend="a:1",shard="1"} 40
repro_requests_total{backend="b:2",shard="0"} 30
repro_requests_total{backend="all",shard="0"} 90
repro_requests_total{backend="all",shard="1"} 40
# TYPE repro_federation_up gauge
repro_federation_up{backend="a:1"} 1
repro_federation_up{backend="b:2"} 0
# TYPE repro_queue_depth gauge
repro_queue_depth{backend="a:1",shard="0"} 3
repro_queue_depth{backend="a:1",shard="1"} 2
# TYPE repro_batch_latency_seconds histogram
repro_batch_latency_seconds_bucket{backend="a:1",shard="0",le="0.001"} 2
repro_batch_latency_seconds_bucket{backend="a:1",shard="0",le="0.01"} 6
repro_batch_latency_seconds_bucket{backend="a:1",shard="0",le="+Inf"} 10
# TYPE repro_proxy_epoch gauge
repro_proxy_epoch{backend="proxy"} 2
# TYPE repro_proxy_migrations_total counter
repro_proxy_migrations_total{backend="proxy"} 1
# TYPE repro_proxy_migrations_inflight gauge
repro_proxy_migrations_inflight{backend="proxy"} 0
"""

# Two seconds later: a:1 has served 50 more requests, b:2 none.
LATER = (FEDERATED
         .replace('backend="a:1",shard="0"} 60', 'backend="a:1",shard="0"} 90')
         .replace('backend="a:1",shard="1"} 40', 'backend="a:1",shard="1"} 60'))

# One backend's own /metrics page: no backend label anywhere.
LOCAL = """\
# TYPE repro_requests_total counter
repro_requests_total{shard="0"} 7
repro_requests_total{shard="1"} 5
# TYPE repro_queue_depth gauge
repro_queue_depth{shard="0"} 1
"""


def rows(frame: str) -> dict[str, list[str]]:
    """Table cells keyed by backend (the first column)."""
    table = frame.split("\n\n")[0].splitlines()
    return {cells[0]: cells[1:] for cells in map(str.split, table[3:])}


class TestRenderTop:
    def test_per_backend_rows(self):
        frame = _render_top(parse_exposition(FEDERATED), None, None)
        table = rows(frame)
        # req/s, requests, p50 ms, p99 ms, queue, up
        assert table["a:1"] == ["-", "100", "7.750", "10.000", "5", "yes"]
        assert table["b:2"] == ["-", "30", "0", "0", "0", "DOWN"]
        assert "all" not in table and "proxy" not in table
        assert frame.splitlines()[-1] == (
            "epoch 2, 1 migration(s) done, 0 in flight")

    def test_rate_is_the_delta_between_two_frames(self):
        frame = _render_top(parse_exposition(LATER),
                            parse_exposition(FEDERATED), 2.0)
        table = rows(frame)
        assert table["a:1"][:2] == ["25", "150"]  # (150 - 100) / 2 s
        assert table["b:2"][:2] == ["0", "30"]

    def test_page_without_federation_labels_is_local(self):
        frame = _render_top(parse_exposition(LOCAL), None, None)
        assert rows(frame) == {"(local)": ["-", "12", "0", "0", "1", "-"]}
        assert frame.splitlines()[-1] == (
            "epoch 0, 0 migration(s) done, 0 in flight")


class TestHistogramQuantile:
    @pytest.mark.parametrize("q,expected_ms", [
        # rank 5 of 10 falls in (1 ms, 10 ms] holding ranks 3..6.
        (0.50, 1.0 + (5 - 2) / (6 - 2) * 9.0),
        # rank 1 falls in the first bucket, interpolated up from 0.
        (0.10, 0.5),
        # rank 9.9 lands in +Inf: clamped to the largest finite edge.
        (0.99, 10.0),
    ])
    def test_interpolation_and_inf_clamp(self, q, expected_ms):
        families = parse_exposition(FEDERATED)
        assert _top_histogram_quantile(
            families, "repro_batch_latency_seconds", q,
            backend="a:1") == pytest.approx(expected_ms)

    def test_missing_family_or_labels_read_zero(self):
        families = parse_exposition(FEDERATED)
        assert _top_histogram_quantile(families, "repro_nope", 0.5) == 0.0
        assert _top_histogram_quantile(
            families, "repro_batch_latency_seconds", 0.5,
            backend="b:2") == 0.0
