"""Federation: exposition parsing, exact cross-backend sums, histogram
merge associativity under re-labeling, and a Federator served over HTTP."""

import urllib.error
import urllib.request

import pytest

from repro.obs import (
    Federator,
    MetricsRegistry,
    MetricsServer,
    federate,
    parse_exposition,
    select,
)


def _registry(shard_requests: dict, latencies=(), epoch: int = 0):
    reg = MetricsRegistry()
    fam = reg.counter("repro_requests_total", "Requests served", ("shard",))
    for shard, n in shard_requests.items():
        fam.labels(shard).inc(n)
    hist = reg.histogram("repro_batch_latency_seconds", "Batch latency",
                         buckets=(0.1, 1.0)).labels()
    for v in latencies:
        hist.observe(v)
    reg.gauge("repro_proxy_epoch", "Epoch").labels().set(epoch)
    return reg


def _value(families, name, sample_name=None, **labels):
    """Sum of samples matching name + label subset (parsed page form)."""
    fam = families[name]
    want = set(labels.items())
    target = sample_name or name
    return sum(v for n, ls, v in fam.samples
               if n == target and want <= set(ls))


class TestParseExposition:
    def test_round_trips_registry_render(self):
        reg = _registry({"0": 7, "1": 5}, latencies=(0.05, 0.5), epoch=3)
        fams = parse_exposition(reg.render())
        assert fams["repro_requests_total"].type == "counter"
        assert fams["repro_requests_total"].help == "Requests served"
        assert _value(fams, "repro_requests_total", shard="0") == 7
        assert _value(fams, "repro_requests_total") == 12
        assert fams["repro_proxy_epoch"].type == "gauge"
        assert _value(fams, "repro_proxy_epoch") == 3

    def test_histogram_series_fold_into_one_family(self):
        reg = _registry({}, latencies=(0.05, 0.5, 5.0))
        fams = parse_exposition(reg.render())
        fam = fams["repro_batch_latency_seconds"]
        assert fam.type == "histogram"
        names = {n for n, _, _ in fam.samples}
        assert names == {"repro_batch_latency_seconds_bucket",
                         "repro_batch_latency_seconds_sum",
                         "repro_batch_latency_seconds_count"}
        assert _value(fams, "repro_batch_latency_seconds",
                      sample_name="repro_batch_latency_seconds_count") == 3

    def test_malformed_lines_skipped(self):
        page = ("# HELP repro_x_total ok\n"
                "# TYPE repro_x_total counter\n"
                "repro_x_total 4\n"
                "this is not a sample\n"
                "repro_y_total notanumber\n")
        fams = parse_exposition(page)
        assert _value(fams, "repro_x_total") == 4
        assert "repro_y_total" not in fams or \
               not fams["repro_y_total"].samples

    def test_empty_page(self):
        assert parse_exposition("") == {}


class TestFederate:
    def test_counter_sums_are_exact(self):
        """The CI-smoke acceptance property: backend="all" rows equal the
        sum a consumer would compute from the individual scrapes."""
        a = _registry({"0": 3, "1": 11})
        b = _registry({"0": 5, "1": 7})
        fams = parse_exposition(federate({"a": a.render(),
                                          "b": b.render()}))
        assert _value(fams, "repro_requests_total",
                      backend="a", shard="0") == 3
        assert _value(fams, "repro_requests_total",
                      backend="b", shard="0") == 5
        assert _value(fams, "repro_requests_total",
                      backend="all", shard="0") == 8
        assert _value(fams, "repro_requests_total",
                      backend="all", shard="1") == 18

    def test_gauges_get_max_rows(self):
        a = _registry({}, epoch=2)
        b = _registry({}, epoch=5)
        fams = parse_exposition(federate({"a": a.render(),
                                          "b": b.render()}))
        assert _value(fams, "repro_proxy_epoch", backend="all") == 7
        assert _value(fams, "repro_proxy_epoch", backend="max") == 5

    def test_counters_get_no_max_rows(self):
        a = _registry({"0": 3})
        fams = parse_exposition(federate({"a": a.render()}))
        assert not any(("backend", "max") in ls
                       for _, ls, _ in fams["repro_requests_total"].samples)

    def test_up_gauge_reports_failed_scrapes(self):
        page = federate({"a": _registry({"0": 1}).render()},
                        up={"a": True, "b": False})
        fams = parse_exposition(page)
        assert _value(fams, "repro_federation_up", backend="a") == 1
        assert _value(fams, "repro_federation_up", backend="b") == 0
        # The down backend contributes no samples anywhere else.
        assert not any(("backend", "b") in ls
                       for _, ls, _ in fams["repro_requests_total"].samples)

    def test_empty_input_renders_empty(self):
        assert federate({}) == ""

    def test_federated_page_reparses(self):
        page = federate({"a": _registry({"0": 2}, latencies=(0.5,)).render()})
        fams = parse_exposition(page)
        assert _value(fams, "repro_requests_total", backend="all") == 2


class TestHistogramMergeAssociativity:
    """Histogram merge must be associative and order-independent: bucket
    counts with equal ``le`` add, so any grouping of backends yields the
    same cluster totals — including after federation re-labels samples."""

    LATENCIES = {
        "a": (0.01, 0.05, 0.5),
        "b": (0.2, 2.0),
        "c": (0.08, 0.9, 3.0, 7.0),
    }

    def _pages(self, ids):
        return {bid: _registry({}, latencies=self.LATENCIES[bid]).render()
                for bid in ids}

    def _all_rows(self, page):
        """backend="all" histogram samples: {(sample_name, le): value}."""
        fams = parse_exposition(page)
        out = {}
        for n, ls, v in fams["repro_batch_latency_seconds"].samples:
            labels = dict(ls)
            if labels.get("backend") != "all":
                continue
            out[(n, labels.get("le"))] = v
        return out

    def test_all_rows_equal_single_merged_registry(self):
        page = federate(self._pages("abc"))
        merged = _registry({}, latencies=sum(self.LATENCIES.values(), ()))
        direct = parse_exposition(merged.render())
        rows = self._all_rows(page)
        for n, ls, v in direct["repro_batch_latency_seconds"].samples:
            assert rows[(n, dict(ls).get("le"))] == pytest.approx(v)

    def test_page_order_is_irrelevant(self):
        assert self._all_rows(federate(self._pages("abc"))) == \
               self._all_rows(federate(self._pages("cba")))

    def test_regrouping_backends_is_associative(self):
        """((a+b)+c) == (a+(b+c)): federate a sub-group, re-label its
        "all" rows as one synthetic backend, federate with the rest."""
        def regroup(first_pair, rest):
            inner = parse_exposition(federate(self._pages(first_pair)))
            lines = ["# TYPE repro_batch_latency_seconds histogram"]
            for n, ls, v in inner["repro_batch_latency_seconds"].samples:
                labels = dict(ls)
                if labels.pop("backend", None) != "all":
                    continue
                body = ",".join(f'{k}="{v2}"' for k, v2 in labels.items())
                lines.append(f"{n}{{{body}}} {v:g}" if body else f"{n} {v:g}")
            pages = self._pages(rest)
            pages["group"] = "\n".join(lines) + "\n"
            return self._all_rows(federate(pages))

        assert regroup("ab", "c") == regroup("bc", "a")


class TestSelect:
    def test_aggregate_rows_only_when_a_backend_is_named(self):
        a = _registry({"0": 3}, latencies=(0.05,), epoch=2)
        b = _registry({"0": 5}, epoch=5)
        fams = parse_exposition(federate({"a": a.render(),
                                          "b": b.render()}))
        def total(name, **labels):
            return sum(v for _, v in select(fams, name, **labels))
        assert total("repro_requests_total") == 8        # a + b, once
        assert total("repro_proxy_epoch") == 7           # no all/max rows
        assert total("repro_proxy_epoch", backend="max") == 5
        assert total("repro_requests_total", backend="all") == 8
        assert total("repro_batch_latency_seconds_count") == 1
        assert select(fams, "repro_nope") == []
        assert select(fams, "repro_requests_total", backend="b") == [
            ({"backend": "b", "shard": "0"}, 5.0)]


class TestFederatorHTTP:
    def test_scrapes_real_servers_and_marks_down_targets(self):
        a = _registry({"0": 4})
        b = _registry({"0": 6})
        local = MetricsRegistry()
        local.counter("repro_proxy_forwards_total").labels().inc(10)
        with MetricsServer(a) as srv_a, MetricsServer(b) as srv_b:
            fed = Federator(
                {"a": srv_a.url, "b": srv_b.url,
                 "dead": "http://127.0.0.1:9/metrics"},
                local_registry=local, timeout=2.0)
            with MetricsServer(fed) as fsrv:
                with urllib.request.urlopen(fsrv.url, timeout=5) as resp:
                    assert resp.status == 200
                    page = resp.read().decode()
                health = urllib.request.urlopen(
                    fsrv.url.replace("/metrics", "/healthz"), timeout=5)
                assert health.read() == b"ok\n"
        fams = parse_exposition(page)
        assert _value(fams, "repro_requests_total", backend="all") == 10
        assert _value(fams, "repro_federation_up", backend="a") == 1
        assert _value(fams, "repro_federation_up", backend="dead") == 0
        # The proxy's own registry federates without an HTTP hop.
        assert _value(fams, "repro_proxy_forwards_total",
                      backend="proxy") == 10

    def test_unknown_path_is_404(self):
        fed = Federator({})
        with MetricsServer(fed) as fsrv:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    fsrv.url.replace("/metrics", "/nope"), timeout=5)
            assert err.value.code == 404


class TestLabelCardinality:
    """Registry-side cardinality edges the federation path leans on."""

    def test_children_are_canonical_per_label_set(self):
        reg = MetricsRegistry()
        fam = reg.counter("repro_x_total", "", ("shard", "level"))
        assert fam.labels("0", "1") is fam.labels("0", "1")
        assert fam.labels("0", "1") is not fam.labels("1", "0")

    def test_high_cardinality_children_all_render_once(self):
        reg = MetricsRegistry()
        fam = reg.counter("repro_x_total", "", ("shard",))
        for i in range(64):
            fam.labels(str(i)).inc(i)
        fams = parse_exposition(reg.render())
        samples = [s for s in fams["repro_x_total"].samples
                   if s[0] == "repro_x_total"]
        assert len(samples) == 64
        label_sets = [ls for _, ls, _ in samples]
        assert len(set(label_sets)) == 64
        assert _value(fams, "repro_x_total") == sum(range(64))

    def test_federation_preserves_distinct_children(self):
        reg = MetricsRegistry()
        fam = reg.counter("repro_x_total", "", ("shard",))
        for i in range(8):
            fam.labels(str(i)).inc(1)
        fams = parse_exposition(federate({"a": reg.render()}))
        for i in range(8):
            assert _value(fams, "repro_x_total",
                          backend="all", shard=str(i)) == 1
