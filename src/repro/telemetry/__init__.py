"""Telemetry: tracing, metrics, and fleet observability.

Four pillars (see DESIGN.md "Observability"):

* :mod:`repro.telemetry.trace` — trace/span propagation over the
  virtual clock, with causal-tree reconstruction per transfer;
* :mod:`repro.telemetry.metrics` — counters, gauges, and fixed-bucket
  histograms with Prometheus-style text exposition and optional
  trace-id exemplars per bucket;
* :mod:`repro.telemetry.flightrecorder` — the bounded per-job black
  box: causal records assembled from scheduler/recovery/transfer
  events, keyed by trace id;
* :mod:`repro.telemetry.slo` — declarative objectives with
  multi-window burn-rate alerting over virtual time.

Every :class:`~repro.sim.world.World` owns the first two as
``world.tracer`` and ``world.metrics``; the last two attach on demand
via ``world.enable_observability()``.  A span's virtual duration is
``span.duration_s``, so the slowest operations are a query over
``world.tracer.spans``.
"""

from repro.telemetry.flightrecorder import FlightEvent, FlightRecord, FlightRecorder
from repro.telemetry.metrics import (
    Counter,
    Exemplar,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    Sample,
)
from repro.telemetry.slo import (
    BurnWindow,
    ServiceObjective,
    SLOEngine,
    default_slos,
    wire_slos,
)
from repro.telemetry.trace import Span, Trace, TraceContext, Tracer, TimelineNode

__all__ = [
    "BurnWindow",
    "Counter",
    "Exemplar",
    "FlightEvent",
    "FlightRecord",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "SLOEngine",
    "Sample",
    "ServiceObjective",
    "Span",
    "TimelineNode",
    "Trace",
    "TraceContext",
    "Tracer",
    "default_slos",
    "wire_slos",
]
