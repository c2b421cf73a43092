"""Outside-in per-layer tracing for the benchmark.

A :class:`LayerTracer` wraps public entry points of each layer at class
level for the duration of a traced run and restores the original
attributes afterwards; no source file changes.  Each wrapped call is
timed with a parent stack, so a layer's *self* time excludes the
wrapped calls made beneath it, and counted.  Spans (name, start, end,
parent) are kept in a bounded in-memory ring and written out as Chrome
``trace_event`` JSON when the run ends.

Known limit: on the simulated workloads the kernel's ``Simulator.step``
is the outermost wrapped call, so its self time also absorbs the
process bodies it resumes that no other hook covers (for example the
server tick's serialize step, which runs inside the tick process, not
through ``SyncServer.tick_once``).  Splitting that needs spans inside
the program.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The benchmark's only wall clock.  Every timing the benchmark takes
#: reads it; no reading ever feeds simulated state or a fingerprint.
now = time.perf_counter  # replint: ignore[DET001]


def _count(name: str, amount: Callable[[Tuple, Any], float]):
    """An observer adding ``amount(args, result)`` to counter ``name``."""
    def observe(tracer: "LayerTracer", args: Tuple, result: Any) -> None:
        tracer.counts[name] = tracer.counts.get(name, 0) + amount(args, result)
    return observe


def _note_link(tracer: "LayerTracer", args: Tuple, result: Any) -> None:
    tracer.links[args[0]] = None


#: ``(module, class, attribute, span, observer)``: the wrapped entry
#: points.  Several entry points may share one span name.
HOOKS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.sync.interest", "InterestManager", "relevant_indices_batch",
     "sync.interest",
     _count("sync.interest.pairs", lambda a, r: a[0].last_pairs_scanned)),
    ("repro.sync.delta", "BatchDeltaEncoder", "encode_batch",
     "sync.delta.encode", None),
    ("repro.sync.delta", "WorldState", "apply_many", "sync.delta.apply",
     _count("sync.delta.states", lambda a, r: len(a[1]))),
    ("repro.sync.server", "SyncServer", "tick_once", "sync.server.tick", None),
    ("repro.sync.federation", "ShardRelay", "fire", "sync.federation.relay",
     _count("sync.federation.relay_useful", lambda a, r: r is not None)),
    ("repro.sync.federation", "ShardedSyncService", "route_update",
     "sync.federation.route", None),
    ("repro.sync.federation", "ShardedSyncService", "home_subscriber_digest",
     "sync.federation.digest", None),
    ("repro.sync.federation", "ShardedSyncService", "add_client",
     "sync.federation.membership", None),
    ("repro.sync.federation", "ShardedSyncService", "add_site",
     "sync.federation.membership", None),
    ("repro.sync.federation", "ShardedSyncService", "move_user",
     "sync.federation.membership", None),
    ("repro.sync.client", "SyncClient", "publish_once",
     "sync.client.publish", None),
    ("repro.sync.client", "SyncClient", "on_snapshot",
     "sync.client.on_snapshot", None),
    # Pose sampling is input generation: its own span keeps it out of
    # sync.client's self time.
    ("repro.workload.traces", "SeatedMotion", "__call__", "workload.pose", None),
    ("repro.simkit.engine", "Simulator", "step", "simkit.step", None),
    ("repro.net.link", "Link", "send", "net.link.send", _note_link),
    ("repro.obs.scoreboard", "QoeScoreboard", "poll", "obs.qoe.poll", None),
    ("repro.obs.slo", "SloEngine", "evaluate", "obs.slo.poll", None),
    ("repro.obs.flight", "FlightRecorder", "poll", "obs.flight.poll", None),
    ("repro.adapt.controller", "AdaptationController", "poll", "adapt.poll",
     _count("adapt.decisions", lambda a, r: len(r))),
    ("repro.cloud.autoscaler", "ShardAutoscaler", "poll_once",
     "cloud.autoscaler.poll", None),
    ("repro.cloud.autoscaler", "AutoscalePlanner", "decide",
     "cloud.autoscaler.decide",
     _count("cloud.autoscaler.decisions", lambda a, r: len(r))),
)

#: Per-layer metric -> unit, in report order.  Counts and self times
#: are per workload repetition.
LAYER_UNITS: Dict[str, str] = {
    "sync.interest.calls": "count",
    "sync.interest.self_s": "s",
    "sync.interest.us_per_call": "us",
    "sync.interest.pairs_scanned": "count",
    "sync.delta.encode_calls": "count",
    "sync.delta.encode_self_s": "s",
    "sync.delta.apply_self_s": "s",
    "sync.delta.states_applied": "count",
    "sync.server.ticks": "count",
    "sync.server.tick_self_s": "s",
    "sync.server.snapshots_sent": "count",
    "sync.server.snapshot_bytes": "B",
    "sync.federation.relay_fires": "count",
    "sync.federation.relay_self_s": "s",
    "sync.federation.relay_useful_ratio": "ratio",
    "sync.federation.route_self_s": "s",
    "sync.federation.digest_self_s": "s",
    "sync.federation.membership_calls": "count",
    "sync.federation.membership_self_s": "s",
    "sync.client.publishes": "count",
    "sync.client.publish_self_s": "s",
    "sync.client.snapshots": "count",
    "sync.client.on_snapshot_self_s": "s",
    "workload.pose_self_s": "s",
    "simkit.events": "count",
    "simkit.step_self_s": "s",
    "simkit.us_per_event": "us",
    "net.link.sends": "count",
    "net.link.send_self_s": "s",
    "net.link.delivered_ratio": "ratio",
    "net.link.queue_wait_ms_mean": "ms",
    "obs.qoe.poll_self_s": "s",
    "obs.slo.poll_self_s": "s",
    "obs.flight.poll_self_s": "s",
    "adapt.poll_self_s": "s",
    "adapt.decisions": "count",
    "cloud.autoscaler.poll_self_s": "s",
    "cloud.autoscaler.decide_self_s": "s",
    "cloud.autoscaler.decisions": "count",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "trace.overhead_pct": "%",
    "trace.unattributed_s": "s",
}

#: Spans kept for the Chrome trace; older ones are overwritten.
SPAN_RING = 16384


class LayerTracer:
    """Install with ``with LayerTracer() as tracer:``; calls are recorded
    only while :attr:`active` is set (the harness sets it around each
    timed operation), so set-up and checks stay out of the numbers."""

    def __init__(self) -> None:
        self.active = False
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, float] = {}
        #: Links sent on while active (a dict keeps them in first-use order).
        self.links: Dict[Any, None] = {}
        #: Wall time inside outermost wrapped calls.
        self.attributed_s = 0.0
        self.spans: deque = deque(maxlen=SPAN_RING)
        self._stack: List[list] = []
        self._saved: List[Tuple[type, str, Any]] = []

    def __enter__(self) -> "LayerTracer":
        for module, cls_name, attr, span, observe in HOOKS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = vars(cls)[attr]  # KeyError: the hook must be defined on cls
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(span, original, observe))
            self.calls.setdefault(span, 0)
            self.self_s.setdefault(span, 0.0)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._saved:
            cls, attr, original = self._saved.pop()
            setattr(cls, attr, original)

    def _wrap(self, span: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = [0.0, span]  # [child time, name]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                duration = end - start
                tracer.calls[span] += 1
                tracer.self_s[span] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.attributed_s += duration
                tracer.spans.append((span, start, end, parent))
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def metrics(self, reps: int, timed_s: float,
                snapshots: Tuple[float, float]) -> Dict[str, float]:
        """Per-layer metrics per repetition.  ``timed_s`` is the wall time
        of every timed operation; ``snapshots`` the servers' registry
        ``(snapshots_sent, snapshot_bytes)`` deltas over them.  The
        ``setup.*`` and ``trace.overhead_pct`` entries are the harness's
        and are left out here."""
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def per_rep(value: float) -> float:
            return value / reps

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        stats = [link.stats for link in self.links]
        offered = sum(s.offered for s in stats)
        accepted = offered - sum(s.dropped_queue + s.dropped_down for s in stats)
        return {
            "sync.interest.calls": per_rep(calls["sync.interest"]),
            "sync.interest.self_s": per_rep(self_s["sync.interest"]),
            "sync.interest.us_per_call": 1e6 * ratio(
                self_s["sync.interest"], calls["sync.interest"]),
            "sync.interest.pairs_scanned": per_rep(
                counts.get("sync.interest.pairs", 0)),
            "sync.delta.encode_calls": per_rep(calls["sync.delta.encode"]),
            "sync.delta.encode_self_s": per_rep(self_s["sync.delta.encode"]),
            "sync.delta.apply_self_s": per_rep(self_s["sync.delta.apply"]),
            "sync.delta.states_applied": per_rep(
                counts.get("sync.delta.states", 0)),
            "sync.server.ticks": per_rep(calls["sync.server.tick"]),
            "sync.server.tick_self_s": per_rep(self_s["sync.server.tick"]),
            "sync.server.snapshots_sent": per_rep(snapshots[0]),
            "sync.server.snapshot_bytes": per_rep(snapshots[1]),
            "sync.federation.relay_fires": per_rep(calls["sync.federation.relay"]),
            "sync.federation.relay_self_s": per_rep(
                self_s["sync.federation.relay"]),
            "sync.federation.relay_useful_ratio": ratio(
                counts.get("sync.federation.relay_useful", 0),
                calls["sync.federation.relay"]),
            "sync.federation.route_self_s": per_rep(
                self_s["sync.federation.route"]),
            "sync.federation.digest_self_s": per_rep(
                self_s["sync.federation.digest"]),
            "sync.federation.membership_calls": per_rep(
                calls["sync.federation.membership"]),
            "sync.federation.membership_self_s": per_rep(
                self_s["sync.federation.membership"]),
            "sync.client.publishes": per_rep(calls["sync.client.publish"]),
            "sync.client.publish_self_s": per_rep(self_s["sync.client.publish"]),
            "sync.client.snapshots": per_rep(calls["sync.client.on_snapshot"]),
            "sync.client.on_snapshot_self_s": per_rep(
                self_s["sync.client.on_snapshot"]),
            "workload.pose_self_s": per_rep(self_s["workload.pose"]),
            "simkit.events": per_rep(calls["simkit.step"]),
            "simkit.step_self_s": per_rep(self_s["simkit.step"]),
            "simkit.us_per_event": 1e6 * ratio(
                self_s["simkit.step"], calls["simkit.step"]),
            "net.link.sends": per_rep(calls["net.link.send"]),
            "net.link.send_self_s": per_rep(self_s["net.link.send"]),
            "net.link.delivered_ratio": ratio(
                sum(s.delivered for s in stats), offered),
            "net.link.queue_wait_ms_mean": 1e3 * ratio(
                sum(s.queue_delay_total for s in stats), accepted),
            "obs.qoe.poll_self_s": per_rep(self_s["obs.qoe.poll"]),
            "obs.slo.poll_self_s": per_rep(self_s["obs.slo.poll"]),
            "obs.flight.poll_self_s": per_rep(self_s["obs.flight.poll"]),
            "adapt.poll_self_s": per_rep(self_s["adapt.poll"]),
            "adapt.decisions": per_rep(counts.get("adapt.decisions", 0)),
            "cloud.autoscaler.poll_self_s": per_rep(
                self_s["cloud.autoscaler.poll"]),
            "cloud.autoscaler.decide_self_s": per_rep(
                self_s["cloud.autoscaler.decide"]),
            "cloud.autoscaler.decisions": per_rep(
                counts.get("cloud.autoscaler.decisions", 0)),
            "trace.unattributed_s": per_rep(timed_s - self.attributed_s),
        }

    def write_chrome_trace(self, path: Path) -> Path:
        """The span ring as Chrome ``trace_event`` JSON (microseconds)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [
            {"name": name, "cat": name.split(".")[0], "ph": "X",
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "pid": 1, "tid": 1, "args": {"parent": parent}}
            for name, start, end, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events,
                                    "displayTimeUnit": "ms"}))
        return path
