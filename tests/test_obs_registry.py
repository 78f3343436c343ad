"""Typed metrics registry: counters, gauges, histograms, serialization."""

import json

import pytest

from repro.obs.registry import (
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    pow2_bucket,
)


def test_counter_accumulates_and_rejects_negatives():
    registry = MetricsRegistry()
    counter = registry.counter("core.committed", help="committed ops")
    counter.inc()
    counter.inc(41)
    assert counter.value == 42
    with pytest.raises(ValueError):
        counter.inc(-1)
    # Same name returns the same instance, not a fresh zero.
    assert registry.counter("core.committed") is counter


def test_gauge_overwrites():
    registry = MetricsRegistry()
    gauge = registry.gauge("core.ipc")
    gauge.set(1.5)
    gauge.set(0.75)
    assert gauge.value == 0.75


def test_kind_mismatch_is_an_error():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ValueError):
        registry.gauge("x")
    with pytest.raises(ValueError):
        registry.histogram("x")


def test_pow2_bucketing():
    assert pow2_bucket(0) == "0"
    assert pow2_bucket(1) == "1"
    assert pow2_bucket(2) == "2"
    assert pow2_bucket(3) == "4"
    assert pow2_bucket(5) == "8"
    assert pow2_bucket(8) == "8"
    assert pow2_bucket(9) == "16"


def test_histogram_observe_and_bucket_merge():
    registry = MetricsRegistry()
    hist = registry.histogram("lat")
    for value in (1, 2, 3, 9):
        hist.observe(value)
    assert hist.count == 4
    assert hist.sum == 15
    assert hist.max == 9
    data = hist.to_dict()
    assert data["buckets"] == {"1": 1, "2": 1, "4": 1, "16": 1}
    # record_bucket merges pre-bucketed counts (no per-sample values) into
    # the count but cannot contribute to sum/min/max.
    hist.record_bucket("4", 3)
    assert hist.count == 7
    assert hist.sum == 15


def test_histogram_buckets_sorted_numerically():
    registry = MetricsRegistry()
    hist = registry.histogram("h")
    for value in (16, 2, 256, 1):
        hist.observe(value)
    assert list(hist.to_dict()["buckets"]) == ["1", "2", "16", "256"]


def test_collect_shape_and_write(tmp_path):
    registry = MetricsRegistry()
    registry.set_counter("b.count", 3)
    registry.set_gauge("a.rate", 0.5)
    registry.histogram("c.hist").observe(4)
    doc = registry.collect()
    assert doc["schema"] == METRICS_SCHEMA_VERSION
    # Name-sorted for stable diffs.
    assert list(doc["metrics"]) == ["a.rate", "b.count", "c.hist"]
    assert doc["metrics"]["b.count"] == {"type": "counter", "value": 3}
    assert doc["metrics"]["a.rate"] == {"type": "gauge", "value": 0.5}
    assert doc["metrics"]["c.hist"]["type"] == "histogram"
    path = registry.write(tmp_path / "metrics.json")
    assert json.loads(path.read_text(encoding="utf-8")) == doc


def test_registry_container_protocol():
    registry = MetricsRegistry()
    registry.set_counter("one", 1)
    registry.set_gauge("two", 2.0)
    assert "one" in registry
    assert "missing" not in registry
    assert len(registry) == 2
    assert {metric.name for metric in registry} == {"one", "two"}
    assert registry.get("missing") is None
    assert registry.get("one").value == 1
