"""Tests for the unified metrics registry (repro.obs.registry).

Includes the percentile regression: a banker's-``round`` nearest rank
under-reports upper percentiles for some window sizes; the ceil-based
rank is exact and monotonic.
"""

import math
import threading

import pytest

from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    percentile,
)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.95) == 0.0

    def test_exact_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        assert percentile(values, 0.50) == 50
        assert percentile(values, 0.95) == 95
        assert percentile(values, 0.99) == 99
        assert percentile(values, 1.0) == 100
        assert percentile(values, 0.0) == 1

    def test_bankers_round_regression(self):
        """p95 of 31 values: old round-based rank gave 29, true rank is 30."""
        values = list(range(1, 32))  # 1..31
        # Old implementation: values[round(0.95 * 30)] = values[28] = 29.
        assert round(0.95 * 30) == 28  # the banker's-rounding trap
        assert percentile(values, 0.95) == 30  # ceil(0.95 * 31) = 30

    def test_monotonic_in_q_for_all_window_sizes(self):
        qs = [i / 100 for i in range(101)]
        for n in range(1, 64):
            values = list(range(n))
            results = [percentile(values, q) for q in qs]
            assert results == sorted(results), f"non-monotonic at n={n}"

    def test_never_below_true_nearest_rank(self):
        for n in range(1, 64):
            values = list(range(1, n + 1))
            for q in (0.5, 0.9, 0.95, 0.99):
                true_rank = min(max(math.ceil(q * n), 1), n)
                assert percentile(values, q) == values[true_rank - 1]


class TestCounterGauge:
    def test_counter_accumulates_and_rejects_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("widgets_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)
        assert counter.value == 5

    def test_counter_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        registry.counter("hits_total").inc()
        registry.counter("hits_total").inc()
        assert registry.counter("hits_total").value == 2

    def test_labelled_counters_are_distinct(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", labels={"kind": "a"}).inc()
        registry.counter("ops_total", labels={"kind": "b"}).inc(2)
        assert registry.counter("ops_total", labels={"kind": "a"}).value == 1
        assert registry.counter("ops_total", labels={"kind": "b"}).value == 2

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labels={"a": "1", "b": "2"}).inc()
        assert registry.counter("x_total", labels={"b": "2", "a": "1"}).value == 1

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")
        with pytest.raises(ValueError):
            registry.histogram("thing")

    def test_counter_thread_safety(self):
        registry = MetricsRegistry()
        counter = registry.counter("racy_total")

        def hammer():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestHistogram:
    def test_bucket_edges_are_inclusive(self):
        """Prometheus le semantics: an observation equal to a bound lands
        in that bound's bucket, not the next one."""
        h = Histogram("lat", buckets=(0.1, 1.0, 10.0))
        h.observe(0.1)   # exactly the first edge
        h.observe(1.0)   # exactly the second edge
        h.observe(0.05)  # below first
        h.observe(5.0)   # between 1 and 10
        h.observe(99.0)  # overflow
        cumulative = dict(h.cumulative_counts())
        assert cumulative[0.1] == 2    # 0.05 and 0.1
        assert cumulative[1.0] == 3    # + 1.0
        assert cumulative[10.0] == 4   # + 5.0
        assert cumulative[math.inf] == 5

    def test_count_sum_and_extremes(self):
        h = Histogram("lat", buckets=(1.0,))
        for v in (0.5, 2.0, 4.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == pytest.approx(6.5)
        snap = h.snapshot()
        assert snap["min"] == 0.5 and snap["max"] == 4.0
        assert snap["mean"] == pytest.approx(6.5 / 3)

    def test_quantiles_answer_at_bucket_resolution(self):
        h = Histogram("lat", buckets=(0.01, 0.1, 1.0))
        for _ in range(95):
            h.observe(0.005)
        for _ in range(5):
            h.observe(0.5)
        assert h.quantile(0.50) == 0.01   # upper bound of the p50 bucket
        assert h.quantile(0.95) == 0.01   # rank 95 still in first bucket
        assert h.quantile(0.99) == 1.0    # rank 99 in the (0.1, 1.0] bucket

    def test_overflow_quantile_reports_observed_max(self):
        h = Histogram("lat", buckets=(1.0,))
        h.observe(42.0)
        assert h.quantile(0.99) == 42.0

    def test_empty_quantile_is_zero(self):
        h = Histogram("lat", buckets=(1.0,))
        assert h.quantile(0.95) == 0.0

    def test_rejects_empty_or_duplicate_buckets(self):
        with pytest.raises(ValueError):
            Histogram("bad", buckets=())
        with pytest.raises(ValueError):
            Histogram("bad", buckets=(1.0, 1.0))

    def test_default_buckets_cover_latency_range(self):
        assert DEFAULT_LATENCY_BUCKETS[0] <= 0.001
        assert DEFAULT_LATENCY_BUCKETS[-1] >= 60.0
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestRegistrySnapshots:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("a_total").inc(2)
        registry.gauge("b").set(7)
        registry.histogram("c_seconds", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"]["a_total"] == 2
        assert snap["gauges"]["b"] == 7
        assert snap["histograms"]["c_seconds"]["count"] == 1

    def test_counter_values_excludes_labelled(self):
        registry = MetricsRegistry()
        registry.counter("plain_total").inc()
        registry.counter("labelled_total", labels={"k": "v"}).inc()
        values = registry.counter_values()
        assert values == {"plain_total": 1}

    def test_collect_is_sorted_and_grouped(self):
        registry = MetricsRegistry()
        registry.counter("z_total", labels={"k": "2"})
        registry.counter("z_total", labels={"k": "1"})
        registry.gauge("a")
        families = registry.collect()
        assert [f[0] for f in families] == ["a", "z_total"]
        z_metrics = families[1][3]
        assert [m.labels for m in z_metrics] == [(("k", "1"),), (("k", "2"),)]
