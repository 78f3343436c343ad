"""Typed metrics registry: counters, gauges, and histograms.

One :class:`MetricsRegistry` is the single export surface for every layer
that produces numbers — :class:`~repro.core.stats.CoreStats` (including
the recovery subsystem's per-cause counters) registers its end-of-run
aggregates, :func:`~repro.experiments.runner.run_sweep` registers its
execution telemetry, and the report layer registers its per-configuration
aggregates — so ``run``/``sweep``/``report`` all serve one
``--metrics-out`` path with one schema instead of each inventing its own
ad-hoc JSON shape.

Metric types follow the conventional trio:

* :class:`Counter` — a monotonically accumulated total (``inc``).
* :class:`Gauge` — a point-in-time value (``set``), e.g. IPC or a rate.
* :class:`Histogram` — bucketed counts plus exact ``sum``/``count``.
  ``observe`` buckets values by power of two (the same bucketing the
  recovery subsystem uses for rollback distances), and
  :meth:`Histogram.record_bucket` merges pre-bucketed counts verbatim.

The registry is *typed*: re-registering a name as a different metric kind
raises instead of silently clobbering, and every name maps to exactly one
metric object, so two subsystems registering the same name share (and
therefore must agree on) its meaning.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterator

#: Serialization version for ``--metrics-out`` payloads.
METRICS_SCHEMA_VERSION = 1


class Counter:
    """Monotonic total; negative increments are rejected."""

    __slots__ = ("name", "help", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"type": self.kind, "value": self.value}
        if self.help:
            data["help"] = self.help
        return data


class Gauge:
    """Point-in-time value; ``set`` overwrites."""

    __slots__ = ("name", "help", "value")
    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: int | float | None = None

    def set(self, value: int | float | None) -> None:
        self.value = value

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"type": self.kind, "value": self.value}
        if self.help:
            data["help"] = self.help
        return data


def pow2_bucket(value: int | float) -> str:
    """Bucket label for ``value``: ``"0"`` or the next power of two ≥ it.

    Matches the rollback-distance bucketing in
    :meth:`~repro.core.recovery.RecoveryManager._fault_stall_cycles`, so
    histograms built by ``observe`` and histograms merged from
    ``rollback_distance_hist`` use identical bucket labels.
    """
    value = int(value)
    if value <= 0:
        return "0"
    return str(1 << (value - 1).bit_length())


class Histogram:
    """Power-of-two-bucketed counts with exact sum/count/max."""

    __slots__ = ("name", "help", "buckets", "sum", "count", "max")
    kind = "histogram"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.buckets: dict[str, int] = {}
        self.sum: int | float = 0
        self.count: int = 0
        self.max: int | float = 0

    def observe(self, value: int | float) -> None:
        label = pow2_bucket(value)
        self.buckets[label] = self.buckets.get(label, 0) + 1
        self.sum += value
        self.count += 1
        if value > self.max:
            self.max = value

    def record_bucket(self, label: str, count: int) -> None:
        """Merge ``count`` pre-bucketed observations under ``label``.

        ``sum`` cannot be reconstructed from a bucket label, so merged
        buckets contribute to ``count`` only; callers with exact sums
        (e.g. ``rollback_distance_sum``) should register them as counters
        alongside.
        """
        if count < 0:
            raise ValueError(f"histogram {self.name!r} bucket count cannot be negative")
        self.buckets[str(label)] = self.buckets.get(str(label), 0) + count
        self.count += count

    def to_dict(self) -> dict[str, Any]:
        def _bucket_key(item: tuple[str, int]) -> tuple[int, str]:
            try:
                return (int(item[0]), "")
            except ValueError:
                return (1 << 62, item[0])

        data: dict[str, Any] = {
            "type": self.kind,
            "buckets": dict(sorted(self.buckets.items(), key=_bucket_key)),
            "sum": self.sum,
            "count": self.count,
            "max": self.max,
        }
        if self.help:
            data["help"] = self.help
        return data


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """Name → typed metric map with get-or-create registration."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}

    def _get_or_create(self, name: str, cls: type, help: str) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create(name, Histogram, help)

    def set_counter(self, name: str, value: int | float, help: str = "") -> Counter:
        """Register-and-accumulate shorthand for end-of-run totals."""
        metric = self.counter(name, help)
        metric.inc(value)
        return metric

    def set_gauge(self, name: str, value: int | float | None, help: str = "") -> Gauge:
        metric = self.gauge(name, help)
        metric.set(value)
        return metric

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Metric]:
        return iter(self._metrics.values())

    def get(self, name: str) -> Metric | None:
        return self._metrics.get(name)

    def collect(self) -> dict[str, Any]:
        """The full registry as a JSON-serializable payload (name-sorted)."""
        return {
            "schema": METRICS_SCHEMA_VERSION,
            "metrics": {
                name: self._metrics[name].to_dict() for name in sorted(self._metrics)
            },
        }

    def write(self, path: str | Path) -> Path:
        """Serialize :meth:`collect` to ``path`` (parents created)."""
        path = Path(path)
        if path.parent != Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.collect(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path
