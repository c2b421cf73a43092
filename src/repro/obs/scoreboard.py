"""Per-client QoE scoreboard: latency → performance + cybersickness gauges.

The adaptation controller ROADMAP item 5 sketches needs one surface that
answers, per student, "how is the experience *right now*?"  The models
already exist — :class:`~repro.metrics.qoe.InteractionQoeModel` maps
interaction latency to task performance, and the :mod:`repro.sickness`
package integrates sensory conflict into SSQ-gradable sickness state
scaled by a fuzzy per-user susceptibility multiplier — but nothing kept
them *rolling* against live per-client latency streams.  This module is
that bridge:

* each client registers a growing latency sample list (seconds, the unit
  every tracker in the repo records) plus optional
  :class:`~repro.sickness.susceptibility.UserTraits`;
* ``poll(now)`` drains fresh samples through
  :class:`~repro.obs.signals.SampleWindow` cursors, keeps a
  ``window_s``-bounded deque, and recomputes the windowed latency
  percentile, the QoE performance score, and — accumulating *whole owed
  seconds* so sub-second poll cadences still integrate (the conflict
  model steps in 1 s increments) — the cybersickness state under an
  exposure whose motion-to-photon term is the client's live latency;
* :meth:`to_registry` exports everything as ``client``-labeled gauge
  families, the same surface the SLO engine uses.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.metrics.qoe import InteractionQoeModel
from repro.obs.signals import SampleWindow, percentile
from repro.sickness.conflict import ExposureConfig, SensoryConflictModel
from repro.sickness.susceptibility import (UserTraits, susceptibility_of,
                                           susceptibility_system)

__all__ = ["ClientScore", "QoeScoreboard"]


class ClientScore:
    """One client's rolling state (read-only view for callers)."""

    __slots__ = ("client", "susceptibility", "_window", "_points",
                 "_sickness", "_owed_s", "latency_p_s", "performance",
                 "sickness", "samples_seen")

    def __init__(self, client: str, susceptibility: float,
                 window: SampleWindow, recovery_rate: float):
        self.client = client
        self.susceptibility = susceptibility
        self._window = window
        #: (t, latency_s) points inside the rolling window.
        self._points: deque = deque()
        self._sickness = SensoryConflictModel(
            susceptibility=susceptibility, recovery_rate=recovery_rate)
        self._owed_s = 0.0
        self.latency_p_s = 0.0
        self.performance = 1.0
        self.sickness = 0.0
        self.samples_seen = 0


class QoeScoreboard:
    """Rolling per-client QoE + cybersickness, exportable as obs gauges.

    ``exposure`` supplies the non-latency terms of the sensory-conflict
    signal (FOV, frame rate, locomotion); its ``motion_to_photon_ms`` is
    overridden each integration step by the client's current windowed
    latency percentile, so a latency regression shows up in *both*
    scores, on the physiological timescale for sickness and immediately
    for performance.
    """

    def __init__(
        self,
        model: Optional[InteractionQoeModel] = None,
        exposure: Optional[ExposureConfig] = None,
        window_s: float = 5.0,
        latency_percentile: float = 95.0,
        recovery_rate: float = 0.002,
    ):
        if window_s <= 0:
            raise ValueError("window must be positive")
        if not 0.0 <= latency_percentile <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        self.model = model if model is not None else InteractionQoeModel()
        self.exposure = exposure if exposure is not None else ExposureConfig()
        self.window_s = window_s
        self.latency_percentile = latency_percentile
        self.recovery_rate = recovery_rate
        self._clients: Dict[str, ClientScore] = {}
        # One fuzzy system shared across clients: rule evaluation is pure,
        # and building it per client would redo the universe discretization.
        self._fuzzy = None

    # -- registration ------------------------------------------------------

    def _susceptibility(self, traits: Optional[UserTraits],
                        susceptibility: Optional[float]) -> float:
        if susceptibility is not None:
            if susceptibility <= 0:
                raise ValueError("susceptibility must be positive")
            return float(susceptibility)
        if traits is None:
            return 1.0
        if self._fuzzy is None:
            self._fuzzy = susceptibility_system()
        return susceptibility_of(traits, self._fuzzy)

    def add_client(
        self,
        client: str,
        latency_samples: Callable[[], Sequence[float]],
        traits: Optional[UserTraits] = None,
        susceptibility: Optional[float] = None,
    ) -> ClientScore:
        """Track ``client``; samples are latency **seconds** (repo-wide unit).

        Susceptibility comes from ``traits`` via the fuzzy inference
        system, or an explicit multiplier, or defaults to the population
        baseline 1.0.
        """
        if client in self._clients:
            raise ValueError(f"duplicate client {client!r}")
        score = ClientScore(
            client, self._susceptibility(traits, susceptibility),
            SampleWindow(latency_samples), self.recovery_rate)
        self._clients[client] = score
        return score

    def __len__(self) -> int:
        return len(self._clients)

    def __contains__(self, client: str) -> bool:
        return client in self._clients

    # -- evaluation --------------------------------------------------------

    def poll(self, now: float, dt_s: Optional[float] = None) -> None:
        """Drain samples, refresh scores, integrate ``dt_s`` of exposure.

        ``dt_s`` defaults to the gap since the previous poll is *not*
        assumed — pass it explicitly (the caller owns the clock); omit it
        to refresh scores without accruing exposure time.
        """
        cutoff = now - self.window_s
        for score in self._clients.values():
            points = score._points
            for value in score._window.poll():
                points.append((now, float(value)))
                score.samples_seen += 1
            while points and points[0][0] < cutoff:
                points.popleft()
            score.latency_p_s = percentile(
                [latency for _, latency in points],
                self.latency_percentile, default=score.latency_p_s)
            score.performance = self.model.performance(
                score.latency_p_s * 1e3)
            if dt_s:
                if dt_s < 0:
                    raise ValueError("dt must be >= 0")
                # The conflict model integrates in whole seconds; bank
                # fractional poll intervals until a full second is owed.
                score._owed_s += dt_s
                whole = int(score._owed_s)
                if whole:
                    score._owed_s -= whole
                    config = ExposureConfig(
                        motion_to_photon_ms=score.latency_p_s * 1e3,
                        fov_deg=self.exposure.fov_deg,
                        frame_rate_hz=self.exposure.frame_rate_hz,
                        navigation_speed_m_s=(
                            self.exposure.navigation_speed_m_s),
                        uses_smooth_locomotion=(
                            self.exposure.uses_smooth_locomotion),
                    )
                    score._sickness.expose(config, float(whole))
            score.sickness = score._sickness.state

    # -- queries -----------------------------------------------------------

    @property
    def clients(self) -> Dict[str, ClientScore]:
        return dict(self._clients)

    def score(self, client: str) -> ClientScore:
        return self._clients[client]

    def worst(self, k: int = 5) -> List[ClientScore]:
        """The ``k`` clients with the lowest QoE performance, worst first.

        Ties break by sickness (sicker first) then name, so the ranking
        is deterministic — the adaptation loop acts on a stable order.
        """
        ranked = sorted(
            self._clients.values(),
            key=lambda s: (s.performance, -s.sickness, s.client))
        return ranked[:k]

    def noticeable(self) -> List[str]:
        """Clients whose windowed latency crosses the notice threshold."""
        return sorted(
            score.client for score in self._clients.values()
            if self.model.is_noticeable(score.latency_p_s * 1e3))

    def fingerprint(self) -> str:
        """Replay witness: per-client scores, byte-stable across runs."""
        return "\n".join(
            f"{name} perf={score.performance:.6f} "
            f"lat={score.latency_p_s:.6f} sick={score.sickness:.6f}"
            for name, score in sorted(self._clients.items()))

    # -- export ------------------------------------------------------------

    def to_registry(self, registry, prefix: str = "qoe") -> None:
        """Per-client gauges in ``registry`` (families labeled ``client``)."""
        performance = registry.gauge_family(
            f"{prefix}_performance", ("client",))
        latency = registry.gauge_family(
            f"{prefix}_latency_p_s", ("client",))
        sickness = registry.gauge_family(
            f"{prefix}_sickness_state", ("client",))
        susceptibility = registry.gauge_family(
            f"{prefix}_susceptibility", ("client",))
        registry.describe(
            f"{prefix}_performance",
            "Windowed interaction QoE performance in [0, 1]")
        registry.describe(
            f"{prefix}_latency_p_s",
            "Windowed per-client latency percentile (seconds)")
        registry.describe(
            f"{prefix}_sickness_state",
            "Accumulated sensory-conflict cybersickness state")
        registry.describe(
            f"{prefix}_susceptibility",
            "Fuzzy per-user cybersickness susceptibility multiplier")
        for name, score in sorted(self._clients.items()):
            performance.labels(client=name).set(score.performance)
            latency.labels(client=name).set(score.latency_p_s)
            sickness.labels(client=name).set(score.sickness)
            susceptibility.labels(client=name).set(score.susceptibility)
