"""Motion-to-photon budget attribution over finished traces.

Turns a bag of finished spans into the paper's Section-3.3 argument in
table form: where each pose update's milliseconds went (per-stage p50/p95
breakdown), which traces blew the 100 ms interaction budget, how much of
the measured end-to-end latency the stage decomposition accounts for, and
which traces overlapped an injected fault window (so the PR-2 fault
harness and this observability layer close the loop).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.metrics.latency import LatencyTracker, StageBudget
from repro.obs.span import MTP_STAGES, Span, stage_durations

#: The paper's interaction budget: above this, latency is noticeable.
LATENCY_BUDGET_S = 0.100


@dataclass
class TraceSummary:
    """One finished trace, decomposed by stage."""

    trace_id: int
    start: float
    end: float
    stages: Dict[str, float] = field(default_factory=dict)
    attrs: Dict[str, Any] = field(default_factory=dict)
    faults: List[str] = field(default_factory=list)

    @property
    def end_to_end(self) -> float:
        return self.end - self.start

    @property
    def accounted(self) -> float:
        """Seconds covered by stage spans."""
        return sum(self.stages.values())

    @property
    def coverage(self) -> float:
        """Fraction of end-to-end latency the stages account for."""
        e2e = self.end_to_end
        return self.accounted / e2e if e2e > 0 else 1.0

    def over_budget(self, threshold_s: float = LATENCY_BUDGET_S) -> bool:
        return self.end_to_end > threshold_s


def _fault_windows(fault_log) -> List[Tuple[float, float, str]]:
    """Closed fault windows from a :class:`~repro.net.faults.FaultLog`.

    ``link_down``/``link_up`` and ``server_crash``/``server_restart``
    transitions pair up per target; a fault never cleared extends to
    +inf.  Instantaneous events (unknown kinds) become zero-width windows.
    """
    opens: Dict[Tuple[str, str], float] = {}
    windows: List[Tuple[float, float, str]] = []
    closers = {"link_up": "link_down", "server_restart": "server_crash"}
    for event in fault_log:
        if event.kind in ("link_down", "server_crash"):
            opens.setdefault((event.kind, event.target), event.time)
        elif event.kind in closers:
            start = opens.pop((closers[event.kind], event.target), None)
            if start is not None:
                label = f"{closers[event.kind]}:{event.target}"
                windows.append((start, event.time, label))
        else:
            windows.append((event.time, event.time,
                            f"{event.kind}:{event.target}"))
    for (kind, target), start in opens.items():
        windows.append((start, float("inf"), f"{kind}:{target}"))
    windows.sort(key=lambda w: w[0])
    return windows


class MotionToPhotonReport:
    """Aggregated per-stage budget over every complete trace.

    A trace is *complete* when its root span (``root_name``) is finished;
    traces whose root never closed (packet lost, entity filtered out) are
    counted in :attr:`incomplete` and excluded from the breakdown.
    """

    def __init__(
        self,
        spans: Iterable[Span],
        root_name: str = "mtp",
        threshold_s: float = LATENCY_BUDGET_S,
        stage_order: Sequence[str] = MTP_STAGES,
    ):
        self.root_name = root_name
        self.threshold_s = threshold_s
        self.stage_order = tuple(stage_order)
        self.traces: List[TraceSummary] = []
        self.incomplete = 0
        self._budget = StageBudget()
        self._e2e = LatencyTracker("end_to_end")

        taxonomy = set(self.stage_order)
        by_trace: Dict[int, List[Span]] = {}
        for span in spans:
            by_trace.setdefault(span.context.trace_id, []).append(span)
        for trace_id, trace_spans in by_trace.items():
            root = next(
                (s for s in trace_spans
                 if s.context.parent_id is None and s.name == root_name),
                None,
            )
            if root is None or root.end is None:
                # A trace never photoned (packet lost, frame filtered out)
                # is incomplete — but only if it entered the pipeline at
                # all; unrelated trace groups (per-tick server spans, ad
                # hoc instrumentation) are not failed MTP traces.
                if any(s.stage in taxonomy or s.name == root_name
                       for s in trace_spans):
                    self.incomplete += 1
                continue
            # Spans starting at or after photon are not part of this budget.
            stages = stage_durations(
                s for s in trace_spans if s is not root and s.start < root.end)
            summary = TraceSummary(
                trace_id=trace_id, start=root.start, end=root.end,
                stages=stages, attrs=dict(root.attrs),
            )
            self.traces.append(summary)
            self._e2e.record(summary.end_to_end)
            for stage, seconds in stages.items():
                self._budget.record(stage, seconds)

    @classmethod
    def from_tracer(cls, tracer, **kwargs) -> "MotionToPhotonReport":
        return cls(tracer.spans(), **kwargs)

    # -- aggregates ----------------------------------------------------------

    @property
    def n_traces(self) -> int:
        return len(self.traces)

    @property
    def stages(self) -> List[str]:
        """Observed stages: taxonomy order first, extras appended."""
        observed = self._budget.stages
        ordered = [s for s in self.stage_order if s in observed]
        ordered.extend(s for s in observed if s not in ordered)
        return ordered

    def stage_tracker(self, stage: str) -> LatencyTracker:
        return self._budget.tracker(stage)

    @property
    def end_to_end(self) -> LatencyTracker:
        return self._e2e

    def mean_coverage(self) -> float:
        """Mean fraction of end-to-end latency the stages account for."""
        if not self.traces:
            return 0.0
        return sum(t.coverage for t in self.traces) / len(self.traces)

    def violations(self, threshold_s: Optional[float] = None) -> List[TraceSummary]:
        """Traces whose end-to-end latency exceeds the budget."""
        limit = self.threshold_s if threshold_s is None else threshold_s
        return [t for t in self.traces if t.over_budget(limit)]

    def violation_fraction(self) -> float:
        if not self.traces:
            return 0.0
        return len(self.violations()) / len(self.traces)

    # -- fault correlation -----------------------------------------------------

    def correlate_faults(self, fault_log) -> Dict[int, List[str]]:  # replint: ignore[ARCH003] -- pinned by tests/golden/mtp_report.json
        """Tag traces overlapping injected-fault windows.

        Mutates each overlapping :class:`TraceSummary`'s ``faults`` list
        and returns ``{trace_id: [fault labels]}`` for the tagged traces.
        """
        windows = _fault_windows(fault_log)
        tagged: Dict[int, List[str]] = {}
        if not windows:
            return tagged
        for trace in self.traces:
            labels = [
                label for start, end, label in windows
                if trace.start <= end and trace.end >= start
            ]
            if labels:
                trace.faults = labels
                tagged[trace.trace_id] = labels
        return tagged

    def to_registry(self, registry=None):
        """Mirror the attribution into a :class:`MetricsRegistry`.

        Gives the Prometheus exporter something to chew on: per-stage and
        end-to-end latency trackers plus histograms, and counters for
        trace accounting.
        """
        from repro.metrics.collector import MetricsRegistry

        if registry is None:
            registry = MetricsRegistry()
        registry.incr("mtp_traces_total", self.n_traces)
        registry.incr("mtp_traces_incomplete", self.incomplete)
        registry.incr("mtp_budget_violations", len(self.violations()))
        registry.set_gauge("mtp_coverage", self.mean_coverage())
        e2e_hist = registry.histogram("mtp_end_to_end_seconds")
        for trace in self.traces:
            registry.tracker("mtp_end_to_end").record(trace.end_to_end)
            e2e_hist.observe(trace.end_to_end)
            for stage, seconds in trace.stages.items():
                registry.tracker(f"mtp_stage_{stage}").record(seconds)
        return registry

    # -- presentation ----------------------------------------------------------

    def breakdown_ms(self) -> Dict[str, float]:
        """Mean per-stage milliseconds, in pipeline order."""
        means = self._budget.mean_breakdown_ms()
        return {stage: means[stage] for stage in self.stages}

    def table(self) -> str:
        """The motion-to-photon budget table benchmarks print."""
        if not self.traces:
            return "(no complete traces)"
        e2e = self._e2e.summary_ms()
        lines = [
            f"{'stage':<16} {'mean ms':>9} {'p50 ms':>9} {'p95 ms':>9} "
            f"{'p99 ms':>9} {'share':>7}"
        ]
        for stage in self.stages:
            summary = self.stage_tracker(stage).summary_ms()
            # A stage missing from some traces still averages over the
            # traces it appears in; the share divides by mean end-to-end.
            share = summary.mean / e2e.mean if e2e.mean > 0 else 0.0
            lines.append(
                f"{stage:<16} {summary.mean:>9.3f} {summary.p50:>9.3f} "
                f"{summary.p95:>9.3f} {summary.p99:>9.3f} {share:>7.1%}")
        lines.append(
            f"{'END-TO-END':<16} {e2e.mean:>9.3f} {e2e.p50:>9.3f} "
            f"{e2e.p95:>9.3f} {e2e.p99:>9.3f} {'100.0%':>7}")
        violations = self.violations()
        faulted = sum(1 for t in self.traces if t.faults)
        lines.append(
            f"traces={self.n_traces} incomplete={self.incomplete} "
            f"coverage={self.mean_coverage():.1%} "
            f">{self.threshold_s * 1e3:.0f}ms={len(violations)} "
            f"({self.violation_fraction():.1%})"
            + (f" fault-overlapped={faulted}" if faulted else ""))
        return "\n".join(lines)
