"""Instrument semantics, registry behaviour, exposition validity, concurrency."""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import (
    CONTENT_TYPE,
    MetricsRegistry,
    exponential_buckets,
    validate_exposition,
)


class TestCounter:
    def test_counts_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total", "help text")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labeled_children_and_per_label(self):
        registry = MetricsRegistry()
        counter = registry.counter("req_total", "requests", labelnames=("endpoint",))
        counter.labels(endpoint="query").inc(3)
        counter.labels(endpoint="batch").inc()
        assert counter.per_label() == {"query": 3, "batch": 1}
        with pytest.raises(ValueError):
            counter.labels(wrong="x")


class TestGauge:
    def test_inc_dec_set_and_peak(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("inflight")
        gauge.inc(3)
        gauge.dec()
        assert gauge.value == 2
        assert gauge.peak == 3
        gauge.set(10)
        assert gauge.peak == 10
        gauge.set(1)
        assert gauge.value == 1
        assert gauge.peak == 10


class TestHistogram:
    def test_bucket_cumulative_counts(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.01, 0.1, 1.0))
        for value in (0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        samples = {
            (name, labels.get("le")): value for name, labels, value in hist.samples()
        }
        assert samples[("lat_seconds_bucket", "0.01")] == 1
        assert samples[("lat_seconds_bucket", "0.1")] == 2
        assert samples[("lat_seconds_bucket", "1")] == 3
        assert samples[("lat_seconds_bucket", "+Inf")] == 4
        assert samples[("lat_seconds_count", None)] == 4
        assert samples[("lat_seconds_sum", None)] == pytest.approx(5.555)

    def test_exponential_buckets(self):
        assert exponential_buckets(1.0, 2.0, 3) == (1.0, 2.0, 4.0)
        with pytest.raises(ValueError):
            exponential_buckets(0.0, 2.0, 3)

    def test_labeled_histogram_per_label(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h_seconds", labelnames=("endpoint",))
        hist.labels(endpoint="query").observe(0.25)
        hist.labels(endpoint="query").observe(0.75)
        child = hist.per_label()["query"]
        assert child.count == 2
        assert child.sum == pytest.approx(1.0)


class TestRegistry:
    def test_redeclare_same_kind_returns_existing(self):
        registry = MetricsRegistry()
        a = registry.counter("x_total")
        b = registry.counter("x_total")
        assert a is b

    def test_redeclare_other_kind_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("bad name")
        with pytest.raises(ValueError):
            registry.counter("ok_total", labelnames=("bad-label",))

    def test_callbacks_evaluate_only_at_scrape(self):
        registry = MetricsRegistry()
        calls = []

        def collect():
            calls.append(1)
            return 7

        registry.register_callback("derived", "derived value", collect)
        assert calls == []  # nothing evaluated yet
        text = registry.render()
        assert calls == [1]
        assert "derived 7" in text

    def test_callback_shapes(self):
        registry = MetricsRegistry()
        registry.register_callback("skipped", "", lambda: None)
        registry.register_callback("plain", "", lambda: 2.5)
        registry.register_callback(
            "labeled", "", lambda: [({"cache": "results"}, 3.0)]
        )
        registry.register_callback("broken", "", lambda: 1 / 0)
        text = registry.render()
        assert "plain 2.5" in text
        assert 'labeled{cache="results"} 3' in text
        assert "skipped " not in text.replace("# TYPE skipped", "")
        validate_exposition(text)

    def test_render_is_valid_exposition(self):
        registry = MetricsRegistry()
        registry.counter("a_total", "with help").inc()
        registry.gauge("b", "gauge").set(1.5)
        registry.histogram("c_seconds", "hist").observe(0.01)
        text = registry.render()
        n = validate_exposition(text)
        assert n >= 3
        assert "# HELP a_total with help" in text
        assert "# TYPE c_seconds histogram" in text
        assert CONTENT_TYPE.startswith("text/plain")

    def test_snapshot_is_flat_and_diffable(self):
        registry = MetricsRegistry()
        counter = registry.counter("d_total", labelnames=("endpoint",))
        before = registry.snapshot()
        counter.labels(endpoint="query").inc(3)
        after = registry.snapshot()
        assert after['d_total{endpoint="query"}'] == 3
        assert before.get('d_total{endpoint="query"}', 0) == 0

    def test_labeled_gauges_and_non_finite_values_render(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g", "labeled", labelnames=("pool",))
        gauge.labels(pool="a").set(2)
        for name, value in (("nan", float("nan")), ("up", float("inf")), ("down", -float("inf"))):
            registry.gauge(name, "").set(value)
        text = registry.render()
        assert 'g{pool="a"} 2' in text
        assert "nan NaN" in text and "up +Inf" in text and "down -Inf" in text
        validate_exposition(text)

    def test_declarations_refuse_what_cannot_render(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="at least one bucket"):
            registry.histogram("h_seconds", "", buckets=[])
        with pytest.raises(ValueError, match="gauge or counter, not 'histogram'"):
            registry.register_callback("cb", "", lambda: 1, kind="histogram")
        registry.counter("taken_total")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.register_callback("taken_total", "", lambda: 1)

    def test_validator_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="line 2: malformed comment"):
            validate_exposition("\n#bad\nok 1\n")
        with pytest.raises(ValueError):
            validate_exposition("not a metric line at all!\n")
        with pytest.raises(ValueError):
            validate_exposition("")  # no samples


class TestConcurrency:
    def test_parallel_updates_lose_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("n_total", labelnames=("worker",))
        gauge = registry.gauge("g")
        hist = registry.histogram("h_seconds", buckets=(0.5, 1.0))
        n_threads, per_thread = 8, 2000

        def work(index: int) -> None:
            child = counter.labels(worker=str(index % 2))
            for _ in range(per_thread):
                child.inc()
                gauge.inc()
                gauge.dec()
                hist.observe(0.25)

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total = n_threads * per_thread
        assert sum(counter.per_label().values()) == total
        assert gauge.value == 0
        assert hist.count == total
        validate_exposition(registry.render())
