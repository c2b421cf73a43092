"""Cross-layer observability: span tracing and latency attribution.

The paper's Section 3.3 budget argument — interaction latency must stay
under ~100 ms end to end — is only checkable if the simulator can say
*where* each pose update's milliseconds went.  This package provides:

* :mod:`repro.obs.span` — ``Span``/``SpanContext``/``SpanTracer``, the
  sim-clock-stamped tracing core with a zero-allocation no-op path;
* :mod:`repro.obs.report` — per-stage motion-to-photon attribution over
  finished traces, budget-violation flagging, fault-window correlation;
* :mod:`repro.obs.export` — JSON, Prometheus-text, and Chrome
  ``trace_event`` emitters over the same data;
* :mod:`repro.obs.harness` — an instrumented probe pipeline wiring a
  tracker, links, an edge hop, the sync server, and a render pipeline
  into complete capture-to-photon traces;
* :mod:`repro.obs.signals` — windowed views (sample cursors, counter
  rates) over the accumulate-only metrics layer, the raw material for
  closed-loop controllers like :mod:`repro.cloud.autoscaler`;
* :mod:`repro.obs.slo` — declarative SLOs judged continuously with
  multi-window burn-rate alerting (healthy/warning/breach + hysteresis);
* :mod:`repro.obs.flight` — a bounded flight recorder that dumps
  schema-validated ``INCIDENT_<id>.json`` (+ Perfetto trace) on breach;
* :mod:`repro.obs.scoreboard` — per-client rolling QoE performance and
  fuzzy cybersickness gauges, the adaptation loop's single surface.

Nothing here reads the wall clock.  Where a server tick's real time goes
is measured from outside the library: the benchmarks wrap the data
plane's entry points in spans of a ``SpanTracer`` built on a wall clock.
"""

from repro.obs.export import (
    chrome_trace,
    metrics_json,
    prometheus_text,
    report_json,
    write_json,
)
from repro.obs.flight import (
    INCIDENT_SCHEMA_VERSION,
    FlightRecorder,
    validate_incident,
)
from repro.obs.harness import MotionToPhotonHarness, MtpProbeConfig
from repro.obs.scoreboard import ClientScore, QoeScoreboard
from repro.obs.slo import (
    BREACH,
    HEALTHY,
    STATE_CODES,
    WARNING,
    SloEngine,
    SloSpec,
    SloTransition,
    SloVerdict,
)
from repro.obs.report import (
    LATENCY_BUDGET_S,
    MotionToPhotonReport,
    TraceSummary,
)
from repro.obs.signals import CounterRate, SampleWindow, percentile
from repro.obs.span import (
    MTP_STAGES,
    NOOP_CONTEXT,
    NOOP_SPAN,
    NOOP_TRACER,
    NoopTracer,
    Span,
    SpanContext,
    SpanTracer,
    stage_durations,
)

__all__ = [
    "BREACH",
    "CounterRate",
    "HEALTHY",
    "INCIDENT_SCHEMA_VERSION",
    "SampleWindow",
    "STATE_CODES",
    "WARNING",
    "percentile",
    "MTP_STAGES",
    "NOOP_CONTEXT",
    "NOOP_SPAN",
    "NOOP_TRACER",
    "LATENCY_BUDGET_S",
    "ClientScore",
    "FlightRecorder",
    "MotionToPhotonHarness",
    "MotionToPhotonReport",
    "MtpProbeConfig",
    "NoopTracer",
    "QoeScoreboard",
    "SloEngine",
    "SloSpec",
    "SloTransition",
    "SloVerdict",
    "Span",
    "SpanContext",
    "SpanTracer",
    "TraceSummary",
    "chrome_trace",
    "metrics_json",
    "prometheus_text",
    "report_json",
    "stage_durations",
    "validate_incident",
    "write_json",
]
