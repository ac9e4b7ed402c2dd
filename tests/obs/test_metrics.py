"""Unit tests for the metrics registry and Prometheus exposition."""

import math

import pytest

from repro.obs import (
    DEFAULT_MAX_LABEL_SETS,
    OVERFLOW_LABEL,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
)


class TestCounter:
    def test_inc_accumulates(self):
        counter = Counter("hits_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_inc_rejected(self):
        counter = Counter("hits_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_set_function_reads_live_value(self):
        state = {"n": 0}
        counter = Counter("hits_total")
        counter.set_function(lambda: state["n"])
        state["n"] = 41
        assert counter.value == 41.0

    def test_labelled_counter_requires_labels(self):
        counter = Counter("hits_total", labelnames=("route",))
        with pytest.raises(ValueError):
            counter.inc()
        counter.labels(route="a").inc()
        counter.labels(route="b").inc(4)
        assert counter.labels(route="b").value == 4.0

    def test_wrong_label_schema_rejected(self):
        counter = Counter("hits_total", labelnames=("route",))
        with pytest.raises(ValueError):
            counter.labels(path="a")

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Counter("bad name")
        with pytest.raises(ValueError):
            Counter("ok_total", labelnames=("bad-label",))


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("depth")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(4)
        assert gauge.value == 3.0


class TestHistogram:
    def test_buckets_cumulative(self):
        hist = Histogram("latency_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            hist.observe(value)
        child = hist.labels()
        assert child.count == 4
        assert child.sum == pytest.approx(6.05)
        assert child.cumulative() == [(0.1, 1), (1.0, 3), (math.inf, 4)]

    def test_boundary_value_counts_in_bucket(self):
        hist = Histogram("latency_seconds", buckets=(0.1, 1.0))
        hist.observe(0.1)  # le="0.1" is inclusive
        assert hist.labels().cumulative()[0] == (0.1, 1)

    def test_le_label_reserved(self):
        with pytest.raises(ValueError):
            Histogram("latency_seconds", labelnames=("le",))

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("latency_seconds", buckets=())


class TestCardinalityCap:
    def test_overflow_folds_into_single_child(self):
        counter = Counter("per_ip_total", labelnames=("ip",),
                          max_label_sets=3)
        for index in range(10):
            counter.labels(ip=f"10.0.0.{index}").inc()
        # 3 real children + 1 overflow child.
        keys = [key for key, _ in counter.collect()]
        assert len(keys) == 4
        assert (OVERFLOW_LABEL,) in keys
        assert counter.labels(ip=OVERFLOW_LABEL).value == 7.0
        assert counter.dropped_label_sets == 7

    def test_existing_label_sets_unaffected_by_cap(self):
        counter = Counter("per_ip_total", labelnames=("ip",),
                          max_label_sets=2)
        counter.labels(ip="a").inc()
        counter.labels(ip="b").inc()
        counter.labels(ip="c").inc()  # folds
        counter.labels(ip="a").inc()  # still routes to the real child
        assert counter.labels(ip="a").value == 2.0

    def test_default_cap(self):
        assert Counter("x_total").max_label_sets == DEFAULT_MAX_LABEL_SETS


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("hits_total", "help")
        second = registry.counter("hits_total")
        assert first is second

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("hits_total")
        with pytest.raises(ValueError):
            registry.gauge("hits_total")

    def test_label_schema_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("hits_total", labelnames=("route",))
        with pytest.raises(ValueError):
            registry.counter("hits_total", labelnames=("verb",))

    def test_duplicate_register_rejected(self):
        registry = MetricsRegistry()
        registry.register(Counter("hits_total"))
        with pytest.raises(ValueError):
            registry.register(Counter("hits_total"))


class TestPrometheusExposition:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("vids_packets_total", "Packets seen").inc(12)
        gauge = registry.gauge("vids_backlog_seconds", "Backlog",
                               labelnames=("device",))
        gauge.labels(device="vids-host").set(0.25)
        hist = registry.histogram("vids_stage_seconds", "Stage latency",
                                  labelnames=("stage",), buckets=(0.001, 0.01))
        hist.labels(stage="classify").observe(0.0005)
        hist.labels(stage="classify").observe(0.5)
        return registry

    def test_text_format_shape(self):
        text = self._registry().to_prometheus()
        assert "# HELP vids_packets_total Packets seen" in text
        assert "# TYPE vids_stage_seconds histogram" in text
        assert 'vids_backlog_seconds{device="vids-host"} 0.25' in text
        assert 'vids_stage_seconds_bucket{stage="classify",le="+Inf"} 2' \
            in text
        assert 'vids_stage_seconds_count{stage="classify"} 2' in text

    def test_round_trip(self):
        registry = self._registry()
        samples = parse_prometheus(registry.to_prometheus())
        by_name = {}
        for sample in samples:
            by_name.setdefault(sample.name, []).append(sample)
        assert by_name["vids_packets_total"][0].value == 12.0
        (backlog,) = by_name["vids_backlog_seconds"]
        assert backlog.labels == {"device": "vids-host"}
        buckets = {s.labels["le"]: s.value
                   for s in by_name["vids_stage_seconds_bucket"]}
        assert buckets["0.001"] == 1.0
        assert buckets["+Inf"] == 2.0
        (total,) = by_name["vids_stage_seconds_sum"]
        assert total.value == pytest.approx(0.5005)

    def test_label_value_escaping_round_trips(self):
        registry = MetricsRegistry()
        nasty = 'quote " slash \\ newline \n end'
        registry.counter("x_total", labelnames=("v",)).labels(v=nasty).inc()
        (sample,) = parse_prometheus(registry.to_prometheus())
        assert sample.labels == {"v": nasty}

    def test_parse_rejects_malformed_sample(self):
        with pytest.raises(ValueError):
            parse_prometheus("what even is this line\n")

    def test_parse_rejects_malformed_labels(self):
        with pytest.raises(ValueError):
            parse_prometheus('x_total{v=unquoted} 1\n')

    def test_parse_special_values(self):
        samples = parse_prometheus("a 1\nb +Inf\nc -Inf\nd NaN\n")
        assert samples[1].value == math.inf
        assert samples[2].value == -math.inf
        assert math.isnan(samples[3].value)
