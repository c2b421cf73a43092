"""Exporter formats: Prometheus text, Chrome trace_event, JSON."""

import json

import pytest

from repro.metrics.collector import MetricsRegistry
from repro.obs.export import (
    chrome_trace,
    prometheus_text,
    report_json,
    write_json,
)
from repro.obs.report import MotionToPhotonReport
from repro.obs.span import SpanTracer

pytestmark = pytest.mark.obs


def test_prometheus_counters_gauges_and_summaries():
    registry = MetricsRegistry()
    registry.incr("packets", 3)
    registry.set_gauge("occupancy", 0.5)
    registry.tracker("rtt").record(0.02)
    registry.tracker("rtt").record(0.04)
    registry.tracker("idle")  # empty: count only, no quantiles
    text = prometheus_text(registry)
    assert "# TYPE repro_packets counter\nrepro_packets 3.0" in text
    assert "# TYPE repro_occupancy gauge\nrepro_occupancy 0.5" in text
    assert '# TYPE repro_rtt summary' in text
    assert 'repro_rtt{quantile="0.5"}' in text
    assert "repro_rtt_count 2" in text
    assert "repro_idle_count 0" in text
    assert 'repro_idle{quantile' not in text
    assert text.endswith("\n")


def test_prometheus_histogram_buckets_are_cumulative():
    registry = MetricsRegistry()
    histogram = registry.histogram("lat", buckets=(0.01, 0.1))
    for value in (0.005, 0.05, 0.5):
        histogram.observe(value)
    text = prometheus_text(registry)
    assert 'repro_lat_bucket{le="0.01"} 1' in text
    assert 'repro_lat_bucket{le="0.1"} 2' in text
    assert 'repro_lat_bucket{le="+Inf"} 3' in text
    assert "repro_lat_count 3" in text


def test_prometheus_labeled_family_and_name_sanitizing():
    registry = MetricsRegistry()
    family = registry.counter_family("link.drops", ("link",))
    family.labels(link="wan:hk").inc(2)
    family.labels(link="uplink").inc(1)
    text = prometheus_text(registry)
    assert "# TYPE repro_link_drops counter" in text  # dot sanitized
    assert 'repro_link_drops{link="wan:hk"} 2.0' in text
    assert 'repro_link_drops{link="uplink"} 1.0' in text


def test_chrome_trace_rows_per_trace_and_skips_open_spans():
    tracer = SpanTracer(clock=lambda: 0.0)
    root = tracer.start_trace("mtp", "capture", start=0.0)
    tracer.record_span("link:up", "uplink", 0.0, 0.010, parent=root,
                       size=88, kind="pose")
    open_span = tracer.start_span("render", "render", root)  # never finished
    root.finish(0.020)
    document = chrome_trace(tracer.spans())
    events = document["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {e["name"] for e in complete} == {"link:up", "mtp"}
    assert all(e["tid"] == root.trace_id for e in complete)
    (uplink,) = [e for e in complete if e["name"] == "link:up"]
    assert uplink["ts"] == 0.0 and uplink["dur"] == pytest.approx(10_000.0)
    assert uplink["cat"] == "uplink"
    assert uplink["args"] == {"size": 88, "kind": "pose"}
    assert meta[0]["name"] == "process_name"
    thread_meta = [e for e in meta if e["name"] == "thread_name"]
    assert thread_meta[0]["args"]["name"] == f"trace {root.trace_id}"
    json.dumps(document)  # round-trips
    del open_span


def test_report_json_and_write_json(tmp_path):
    tracer = SpanTracer(clock=lambda: 0.0)
    root = tracer.start_trace("mtp", start=0.0)
    tracer.record_span("wan", "wan", 0.0, 0.150, parent=root)
    root.finish(0.150)
    report = MotionToPhotonReport.from_tracer(tracer)
    payload = report_json(report)
    assert payload["traces"] == 1
    assert payload["violations"] == 1
    assert payload["stages"]["wan"]["mean_ms"] == pytest.approx(150.0)
    assert payload["end_to_end_ms"]["max"] == pytest.approx(150.0)
    path = write_json(tmp_path / "deep" / "report.json", payload)
    assert json.loads(path.read_text())["traces"] == 1
