"""Machine-readable benchmark results: ``BENCH_<id>.json`` and traces.

Every ``bench_*.py`` main writes one JSON result file through
:func:`write_bench_json` so CI (and the paper's tables) consume a uniform
schema instead of scraping stdout::

    {
      "schema": 1,
      "bench": "c3b",
      "metric": "p95_rtt_ms",
      "value": 78.3,
      "unit": "ms",
      "params": {"population": 1500, "k": 4},
      "stages": {"wan": 50.4, "tick_wait": 25.9}   # only when traced
    }

``stages`` is the per-stage latency breakdown (milliseconds) of traced
runs; untraced runs omit it.  The module doubles as a validator CLI::

    python benchmarks/_emit.py --check benchmarks/results/BENCH_*.json
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

SCHEMA_VERSION = 1

#: Where result files land unless the caller overrides ``out_dir``.
RESULTS_DIR = Path(__file__).resolve().parent / "results"

_REQUIRED = {
    "schema": int,
    "bench": str,
    "metric": str,
    "value": (int, float),
    "unit": str,
    "params": dict,
}


def bench_result(
    bench: str,
    metric: str,
    value: float,
    unit: str,
    params: Optional[Dict[str, Any]] = None,
    stages: Optional[Dict[str, float]] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble one schema-conforming result payload."""
    payload: Dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "bench": bench,
        "metric": metric,
        "value": float(value),
        "unit": unit,
        "params": dict(params or {}),
    }
    if stages is not None:
        payload["stages"] = {
            stage: float(seconds) for stage, seconds in stages.items()
        }
    if extra:
        payload.update(extra)
    return payload


def validate_result(payload: Any) -> List[str]:
    """Schema violations in ``payload`` (empty list when valid)."""
    errors: List[str] = []
    if not isinstance(payload, dict):
        return [f"payload must be an object, got {type(payload).__name__}"]
    for key, expected in _REQUIRED.items():
        if key not in payload:
            errors.append(f"missing required key {key!r}")
        elif not isinstance(payload[key], expected) or isinstance(
                payload[key], bool):
            errors.append(
                f"key {key!r} has type {type(payload[key]).__name__}")
    if isinstance(payload.get("schema"), int) and \
            payload["schema"] != SCHEMA_VERSION:
        errors.append(
            f"schema version {payload['schema']} != {SCHEMA_VERSION}")
    value = payload.get("value")
    if isinstance(value, (int, float)) and not isinstance(value, bool) \
            and not math.isfinite(value):
        errors.append(f"value must be finite, got {value}")
    stages = payload.get("stages")
    if stages is not None:
        if not isinstance(stages, dict):
            errors.append("stages must be an object")
        else:
            for stage, stage_value in stages.items():
                if isinstance(stage_value, bool) or not isinstance(
                        stage_value, (int, float)):
                    errors.append(f"stage {stage!r} value is not numeric")
    return errors


def write_bench_json(
    bench: str,
    metric: str,
    value: float,
    unit: str,
    params: Optional[Dict[str, Any]] = None,
    stages: Optional[Dict[str, float]] = None,
    extra: Optional[Dict[str, Any]] = None,
    out_dir: Union[str, Path, None] = None,
) -> Path:
    """Validate and write ``BENCH_<id>.json``; returns the written path."""
    payload = bench_result(bench, metric, value, unit,
                           params=params, stages=stages, extra=extra)
    errors = validate_result(payload)
    if errors:
        raise ValueError(
            f"invalid bench result for {bench!r}: " + "; ".join(errors))
    directory = Path(out_dir) if out_dir is not None else RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{bench}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# -- tracing helpers ----------------------------------------------------------

def wall_tracer(limit: int = 100_000):
    """A wall-clock span tracer for analytic (non-simulated) benchmarks."""
    from repro.obs.span import SpanTracer

    # DET001 suppressed: this *is* the declared wall-clock shim
    # benchmarks use for real-time phase spans.
    return SpanTracer(clock=time.perf_counter, limit=limit)  # replint: ignore[DET001]


def wall_phase(tracer, name: str, parent=None):
    """Context manager spanning one wall-clock benchmark phase; a no-op
    without a ``tracer``."""
    if tracer is None:
        return contextlib.nullcontext()

    @contextlib.contextmanager
    def _phase():
        span = tracer.start_span(name, "phase", parent)
        try:
            yield span
        finally:
            span.finish()

    return _phase()


def incidents_identical(incidents, dir_a, dir_b) -> bool:
    """True when every named incident dump (and its ``_trace`` companion)
    exists in both directories with the same bytes, and there is at
    least one incident."""
    identical = bool(incidents)
    for incident in incidents:
        for suffix in ("", "_trace"):
            a = Path(dir_a) / f"INCIDENT_{incident}{suffix}.json"
            b = Path(dir_b) / f"INCIDENT_{incident}{suffix}.json"
            if a.exists() != b.exists():
                identical = False
            elif a.exists() and a.read_bytes() != b.read_bytes():
                identical = False
    return identical


def export_trace(spans, bench: str,
                 out_dir: Union[str, Path, None] = None) -> Path:
    """Write spans as Chrome ``trace_event`` JSON next to the results."""
    from repro.obs.export import chrome_trace

    directory = Path(out_dir) if out_dir is not None else RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"TRACE_{bench}.json"
    path.write_text(
        json.dumps(chrome_trace(spans), indent=2, sort_keys=True) + "\n")
    return path


def write_artifact(name: str, text: str,
                   out_dir: Union[str, Path, None] = None) -> Path:
    """Write a free-form text artifact (decision logs, …) to results.

    Benchmarks must not write files directly (replint ARCH002): routing
    every artifact through here keeps the output directory layout — and
    what CI uploads — in one place.
    """
    directory = Path(out_dir) if out_dir is not None else RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / name
    path.write_text(text)
    return path


def export_prometheus(registry, bench: str,
                      out_dir: Union[str, Path, None] = None) -> Path:
    """Write a registry in the Prometheus text exposition format."""
    from repro.obs.export import prometheus_text

    directory = Path(out_dir) if out_dir is not None else RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"METRICS_{bench}.prom"
    path.write_text(prometheus_text(registry))
    return path


def phase_breakdown_ms(tracer) -> Dict[str, float]:
    """Total milliseconds per span name (wall-clock phase summaries)."""
    totals: Dict[str, float] = {}
    for span in tracer.spans():
        totals[span.name] = totals.get(span.name, 0.0) + span.duration * 1e3
    return totals


# -- validator CLI ------------------------------------------------------------

def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="Validate BENCH_<id>.json result files")
    parser.add_argument("--check", nargs="+", metavar="FILE", required=True,
                        help="result files to validate")
    args = parser.parse_args(argv)
    failures = 0
    for name in args.check:
        path = Path(name)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: unreadable ({exc})")
            failures += 1
            continue
        errors = validate_result(payload)
        if errors:
            failures += 1
            print(f"{path}: INVALID")
            for error in errors:
                print(f"  - {error}")
        else:
            print(f"{path}: ok "
                  f"({payload['metric']} = {payload['value']} "
                  f"{payload['unit']})")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
