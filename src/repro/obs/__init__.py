"""Observability: pipeline tracing, interval telemetry, metrics, spans.

The package is organized around one rule: **the disabled path is the
absence of the objects**, not no-op objects.  A core without a tracer
holds ``None``, and a run without telemetry passes its loop no per-cycle
hook; only when the CLI builds an :class:`ObsSession` do hooks exist.
The core imports nothing from this package: telemetry observes it from
outside, running it with a ``stop`` hook that only reads its state.  The
golden-equivalence suite, the committed sweep store, and the throughput
floor all pin that the disabled path is bit-for-bit and throughput-for-
throughput unchanged.

Pieces (each importable directly from ``repro.obs``):

* :class:`PipelineTracer` — per-op lifecycle rows + Chrome ``trace_event``
  timeline export (:mod:`repro.obs.tracer`);
* :class:`IntervalTelemetry` — runs a core and samples a delta time
  series reconciling exactly with the final
  :class:`~repro.core.stats.CoreStats` (:mod:`repro.obs.telemetry`);
* :class:`MetricsRegistry` — typed counter/gauge/histogram registry with
  one ``--metrics-out`` schema for run/sweep/report
  (:mod:`repro.obs.registry`);
* :class:`SpanCollector` — per-point wall-clock spans from ``run_sweep``
  in the same trace format (:mod:`repro.obs.spans`);
* :func:`validate_schema` — the dependency-free JSON-schema-subset
  validator behind ``python -m repro.obs.validate``
  (:mod:`repro.obs.schema`).

:class:`ObsSession` bundles the output plumbing for one CLI invocation:
it hands tracers and telemetry samplers to cores, and writes every
requested artifact (merging multi-core traces into one timeline).
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.obs.registry import (
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    pow2_bucket,
)
from repro.obs.schema import validate as validate_schema
from repro.obs.spans import SpanCollector
from repro.obs.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    IntervalTelemetry,
    render_table,
)
from repro.obs.tracer import (
    OP_TRACE_SCHEMA_VERSION,
    PipelineTracer,
    write_trace_event_json,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.core import SuperscalarCore

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "IntervalTelemetry",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "OP_TRACE_SCHEMA_VERSION",
    "ObsSession",
    "PipelineTracer",
    "SpanCollector",
    "TELEMETRY_SCHEMA_VERSION",
    "pow2_bucket",
    "render_table",
    "validate_schema",
    "write_trace_event_json",
]


def _suffixed(path: Path, label: str, multi: bool) -> Path:
    """``trace.jsonl`` → ``trace.checked.jsonl`` when several cores write."""
    if not multi:
        return path
    return path.with_name(f"{path.stem}.{label}{path.suffix}")


class ObsSession:
    """Output plumbing for one observed CLI invocation.

    The CLI builds one per command, cores get tracers via
    :meth:`tracer_for` and run through the sampler :meth:`telemetry_for`
    hands out, and :meth:`finish` writes every requested artifact.  All
    parameters default to "off"; with none set the session hands out no
    tracers or samplers and writes nothing.

    Raises:
        ValueError: if ``telemetry_interval`` is negative.
    """

    def __init__(
        self,
        trace_out: str | Path | None = None,
        op_trace_out: str | Path | None = None,
        telemetry_interval: int = 0,
        telemetry_out: str | Path | None = None,
        metrics_out: str | Path | None = None,
        trace_ops: tuple[int, int] | None = None,
    ):
        self.trace_out = Path(trace_out) if trace_out else None
        self.op_trace_out = Path(op_trace_out) if op_trace_out else None
        if telemetry_interval < 0:
            raise ValueError(
                f"telemetry_interval must be >= 0, got {telemetry_interval}"
            )
        #: Cycles between telemetry samples; 0 hands out no sampler.
        self.telemetry_interval = telemetry_interval
        self.telemetry_out = Path(telemetry_out) if telemetry_out else None
        self.metrics_out = Path(metrics_out) if metrics_out else None
        #: Half-open seq window every handed-out tracer filters by
        #: (``--trace-ops``); None traces every op.
        self.trace_ops = trace_ops
        self.registry = MetricsRegistry()
        self.tracers: list[PipelineTracer] = []
        self.telemetries: list[tuple[str, IntervalTelemetry]] = []
        self.spans: SpanCollector | None = None
        #: Paths written by :meth:`finish` (reported by the CLI).
        self.written: list[Path] = []

    # ------------------------------------------------------------- collection

    @property
    def wants_tracing(self) -> bool:
        """True when any per-op trace output was requested."""
        return self.trace_out is not None or self.op_trace_out is not None

    def tracer_for(self, label: str) -> PipelineTracer | None:
        """A tracer for the core ``label``, or None when tracing is off."""
        if not self.wants_tracing:
            return None
        tracer = PipelineTracer(label, seq_range=self.trace_ops)
        self.tracers.append(tracer)
        return tracer

    def telemetry_for(
        self, label: str, core: "SuperscalarCore"
    ) -> IntervalTelemetry | None:
        """A sampler for the core ``label`` (run the core through its
        :meth:`~IntervalTelemetry.run`), kept for output; None when
        telemetry is off."""
        if not self.telemetry_interval:
            return None
        telemetry = IntervalTelemetry(self.telemetry_interval, core)
        self.telemetries.append((label, telemetry))
        return telemetry

    def span_collector(self, label: str = "sweep") -> SpanCollector | None:
        """A span collector when a trace output is requested (sweeps)."""
        if self.trace_out is None:
            return None
        self.spans = SpanCollector(label)
        return self.spans

    # ---------------------------------------------------------------- outputs

    def finish(self, metadata: dict[str, Any] | None = None) -> list[Path]:
        """Write every requested artifact; returns the paths written."""
        multi = len(self.tracers) > 1
        if self.trace_out is not None:
            events: list[dict[str, Any]] = []
            telemetry_by_label = dict(self.telemetries)
            for pid, tracer in enumerate(self.tracers, start=1):
                events.extend(tracer.trace_events(pid=pid))
                telemetry = telemetry_by_label.get(tracer.label)
                if telemetry is not None:
                    events.extend(telemetry.counter_events(pid=pid))
            if not self.tracers:
                # Telemetry-only runs still get counter tracks.
                for pid, (_, telemetry) in enumerate(self.telemetries, start=1):
                    events.extend(telemetry.counter_events(pid=pid))
            if self.spans is not None:
                events.extend(self.spans.trace_events())
            self.written.append(
                write_trace_event_json(events, self.trace_out, metadata)
            )
        if self.op_trace_out is not None:
            for tracer in self.tracers:
                self.written.append(
                    tracer.write_op_jsonl(
                        _suffixed(self.op_trace_out, tracer.label, multi)
                    )
                )
        if self.telemetry_out is not None:
            multi_telem = len(self.telemetries) > 1
            for label, telemetry in self.telemetries:
                self.written.append(
                    telemetry.write_jsonl(
                        _suffixed(self.telemetry_out, label, multi_telem), label
                    )
                )
        if self.metrics_out is not None:
            self.written.append(self.registry.write(self.metrics_out))
        return self.written
