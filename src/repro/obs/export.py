"""Snapshot exporters: JSON, Prometheus text, and Chrome ``trace_event``.

Three read-only views over the same run:

* :func:`report_json` — machine-readable snapshots for the benchmark
  result files (``BENCH_<id>.json``);
* :func:`prometheus_text` — the Prometheus text exposition format
  (``# TYPE`` headers, cumulative ``_bucket{le=...}`` histograms), so a
  scrape of a long-running deployment drops straight into Grafana;
* :func:`chrome_trace` — Chrome ``trace_event`` JSON (complete ``"X"``
  events, microsecond timestamps) that opens directly in Perfetto or
  ``chrome://tracing``, one row per trace id.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.metrics.collector import MetricsRegistry
from repro.metrics.histogram import Histogram, label_string
from repro.obs.span import Span

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitize a metric name into the Prometheus charset."""
    name = _NAME_RE.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _prom_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _histogram_lines(metric: str, histogram: Histogram,
                     labels: str = "") -> List[str]:
    """``_bucket``/``_sum``/``_count`` series for one histogram child."""
    trimmed = labels[1:-1] if labels else ""
    lines = []
    for bound, cumulative in histogram.bucket_counts():
        le = f'le="{_prom_value(bound)}"'
        inner = f"{trimmed},{le}" if trimmed else le
        lines.append(f"{metric}_bucket{{{inner}}} {cumulative}")
    lines.append(f"{metric}_sum{labels} {_prom_value(histogram.sum)}")
    lines.append(f"{metric}_count{labels} {histogram.count}")
    return lines


def _escape_help(text: str) -> str:
    """Escape ``# HELP`` text per the exposition format (``\\`` and LF)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def prometheus_text(registry: MetricsRegistry,
                    prefix: str = "repro") -> str:
    """Render the registry in the Prometheus text exposition format.

    Counters and gauges become single samples; trackers become
    ``{quantile=...}``-labeled summaries; histograms (plain and labeled
    families) become cumulative ``_bucket`` series ending at ``+Inf``.
    Metrics described via ``registry.describe`` (or families built with
    ``help_text=``) get a ``# HELP`` line ahead of their ``# TYPE``.
    """

    lines: List[str] = []
    counters, gauges = registry.counters, registry.gauges
    trackers, histograms = registry.trackers, registry.histograms
    help_texts = registry.help_texts

    def full(name: str) -> str:
        return _prom_name(f"{prefix}_{name}" if prefix else name)

    def header(name: str, metric: str, kind: str) -> None:
        text = help_texts.get(name, "")
        if text:
            lines.append(f"# HELP {metric} {_escape_help(text)}")
        lines.append(f"# TYPE {metric} {kind}")

    for name in sorted(counters):
        metric = full(name)
        header(name, metric, "counter")
        lines.append(f"{metric} {_prom_value(counters[name])}")
    for name in sorted(gauges):
        metric = full(name)
        header(name, metric, "gauge")
        lines.append(f"{metric} {_prom_value(gauges[name])}")
    for name in sorted(trackers):
        tracker = trackers[name]
        metric = full(name)
        header(name, metric, "summary")
        if len(tracker):
            summary = tracker.summary()
            for quantile, value in (("0.5", summary.p50), ("0.95", summary.p95),
                                    ("0.99", summary.p99)):
                lines.append(
                    f'{metric}{{quantile="{quantile}"}} {_prom_value(value)}')
            lines.append(f"{metric}_sum {_prom_value(sum(tracker.samples))}")
        lines.append(f"{metric}_count {len(tracker)}")
    for name in sorted(histograms):
        metric = full(name)
        header(name, metric, "histogram")
        lines.extend(_histogram_lines(metric, histograms[name]))
    for name, family in sorted(registry.families.items()):
        metric = full(name)
        header(name, metric, family.kind)
        for label_values, child in family.items():
            labels = label_string(family.label_names, label_values)
            if family.kind == "histogram":
                lines.extend(_histogram_lines(metric, child, labels))
            else:
                lines.append(f"{metric}{labels} {_prom_value(child.value)}")
    return "\n".join(lines) + "\n"


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    return repr(value)


def chrome_trace(spans: Iterable[Span],
                 time_unit_us: float = 1e6,
                 process_name: str = "repro pipeline") -> Dict[str, Any]:
    """Spans as a Chrome ``trace_event`` document (Perfetto-loadable).

    Each finished span becomes one complete (``"ph": "X"``) event with
    microsecond ``ts``/``dur``; the trace id becomes the ``tid`` so every
    causal chain renders as one horizontal row, and stage is the ``cat``
    for colour grouping.  Open spans are skipped.  Metadata (``"M"``)
    events name the process (``process_name``) and each trace row, so
    Perfetto's track labels read as more than bare integers.
    """
    events: List[Dict[str, Any]] = []
    tids = set()
    for span in spans:
        if span.end is None:
            continue
        tid = span.context.trace_id
        tids.add(tid)
        events.append({
            "name": span.name,
            "cat": span.stage,
            "ph": "X",
            "ts": span.start * time_unit_us,
            "dur": span.duration * time_unit_us,
            "pid": 1,
            "tid": tid,
            "args": {key: _json_safe(value)
                     for key, value in span.attrs.items()},
        })
    events.append({
        "name": "process_name", "ph": "M", "pid": 1,
        "args": {"name": process_name},
    })
    for tid in sorted(tids):
        events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": f"trace {tid}"},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def report_json(  # replint: ignore[ARCH003] -- pinned by tests/golden/mtp_report.json
        report) -> Dict[str, Any]:
    """A :class:`~repro.obs.report.MotionToPhotonReport` as plain JSON."""
    stages = {}
    for stage in report.stages:
        summary = report.stage_tracker(stage).summary_ms()
        stages[stage] = {
            "mean_ms": summary.mean, "p50_ms": summary.p50,
            "p95_ms": summary.p95, "p99_ms": summary.p99,
        }
    payload: Dict[str, Any] = {
        "traces": report.n_traces,
        "incomplete": report.incomplete,
        "coverage": report.mean_coverage(),
        "threshold_ms": report.threshold_s * 1e3,
        "violations": len(report.violations()),
        "violation_fraction": report.violation_fraction(),
        "stages": stages,
    }
    if report.n_traces:
        e2e = report.end_to_end.summary_ms()
        payload["end_to_end_ms"] = {
            "mean": e2e.mean, "p50": e2e.p50, "p95": e2e.p95, "p99": e2e.p99,
            "max": e2e.maximum,
        }
        faulted = {t.trace_id: t.faults for t in report.traces if t.faults}
        if faulted:
            payload["fault_overlapped"] = faulted
    return payload


def write_json(path: Union[str, Path], payload: Any) -> Path:
    """Serialize ``payload`` to ``path`` (parents created), return the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
