"""The per-client adaptation controller: scoreboard in, knob turns out.

One :class:`AdaptationController` closes ROADMAP item 5's loop.  Every
control interval the driver calls :meth:`AdaptationController.poll`; the
controller reads each client's windowed latency percentile off the
:class:`~repro.obs.scoreboard.QoeScoreboard` (plus an optional loss
probe and the SLO engine's breach verdicts), and walks that client along
the degradation ladder:

* **degrade** one rung after ``degrade_polls`` consecutive pressured
  intervals — acting at ``degrade_latency_s`` (default 90 ms), *before*
  the paper's 100 ms noticeable line;
* **restore** one rung after ``restore_polls`` consecutive clean
  intervals, but never within ``hold_time_s`` of the last step — the
  hysteresis that stops rung oscillation when the system sits near a
  pressure boundary;
* readings between the two thresholds reset both streaks (a dead band).

Everything is deterministic: clients are visited in sorted order, all
signals come from the seeded simulation, and every transition appends an
:class:`AdaptDecision` whose ``repr`` is byte-stable — the decision log
is the replay witness, and the flight recorder accepts it directly as a
``decisions`` source (each decision exposes ``t``/``action``/``site``/
``detail``), so incident dumps capture what the controller did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.adapt.ladder import (DEFAULT_LADDER, DegradationRung,
                                rung_mitigations, validate_ladder)
from repro.obs import slo as slo_states
from repro.obs.scoreboard import QoeScoreboard
from repro.sickness.conflict import ExposureConfig
from repro.sickness.mitigation import apply_all_with_costs

__all__ = [
    "AdaptConfig",
    "AdaptDecision",
    "AdaptationController",
    "ClientKnobs",
    "federation_knobs",
]


@dataclass(frozen=True)
class AdaptConfig:
    """Controller tuning: thresholds, streaks, and the hold-time guard."""

    #: Degrade when the windowed latency percentile exceeds this (s).
    degrade_latency_s: float = 0.090
    #: Restore only when it is back under this (s); the gap to
    #: ``degrade_latency_s`` is the dead band.
    restore_latency_s: float = 0.060
    #: Loss fraction that reads as pressure / is clean again.
    degrade_loss: float = 0.05
    restore_loss: float = 0.02
    #: Consecutive pressured / clean polls before a step.
    degrade_polls: int = 2
    restore_polls: int = 4
    #: Minimum dwell after *any* step before a restore may fire.
    hold_time_s: float = 2.0

    def __post_init__(self) -> None:
        if not 0 < self.restore_latency_s < self.degrade_latency_s:
            raise ValueError(
                "need 0 < restore_latency_s < degrade_latency_s")
        if not 0 <= self.restore_loss <= self.degrade_loss <= 1:
            raise ValueError("need 0 <= restore_loss <= degrade_loss <= 1")
        if self.degrade_polls < 1 or self.restore_polls < 1:
            raise ValueError("poll streaks must be >= 1")
        if self.hold_time_s < 0:
            raise ValueError("hold time must be >= 0")


@dataclass(frozen=True)
class AdaptDecision:
    """One controller transition (flight-recorder compatible)."""

    t: float
    client: str
    action: str          # "degrade" | "restore"
    from_rung: str
    to_rung: str
    reason: str
    detail: str = ""

    @property
    def site(self) -> str:
        """Flight-recorder field: where the decision acted."""
        return self.client

    def line(self) -> str:
        """One byte-stable log line (the replay fingerprint unit)."""
        return (f"t={self.t:.6f} client={self.client} {self.action} "
                f"{self.from_rung}->{self.to_rung} reason={self.reason} "
                f"{self.detail}")


@dataclass
class ClientKnobs:
    """The actuation surface for one client; every hook is optional.

    Both hooks normally point at
    :class:`~repro.sync.federation.ShardedSyncService` (see
    :func:`federation_knobs`).  The rung's foveation, FEC, bitrate-cap
    and mitigation fields drive no hook; they are reported on each
    decision's ``detail`` line.
    """

    set_lod_cap: Optional[Callable[[str], None]] = None
    set_decimation: Optional[Callable[[int], None]] = None


def federation_knobs(service: Any, user_id: str) -> ClientKnobs:
    """Wire a :class:`ClientKnobs` to a sharded sync service."""
    return ClientKnobs(
        set_lod_cap=lambda level: service.set_lod_hint(user_id, level),
        set_decimation=lambda f: service.set_snapshot_decimation(user_id, f),
    )


class _ClientControl:
    """Per-client controller state."""

    __slots__ = ("knobs", "loss_probe", "rung", "pressure_streak",
                 "clean_streak", "last_step_t", "mitigation_costs",
                 "exposure")

    def __init__(self, knobs: ClientKnobs,
                 loss_probe: Optional[Callable[[], float]],
                 rung: int) -> None:
        self.knobs = knobs
        self.loss_probe = loss_probe
        self.rung = rung
        self.pressure_streak = 0
        self.clean_streak = 0
        #: Time of the last rung change; restores must wait out the hold
        #: time from here (degrades are gated by streaks only — under
        #: real pressure the controller must keep walking down).
        self.last_step_t = float("-inf")
        self.mitigation_costs: Tuple[float, ...] = ()
        self.exposure: Optional[ExposureConfig] = None


class AdaptationController:
    """Walks each client along the ladder; every transition is logged."""

    def __init__(
        self,
        scoreboard: QoeScoreboard,
        ladder: Sequence[DegradationRung] = DEFAULT_LADDER,
        config: AdaptConfig = AdaptConfig(),
        slo_engine: Any = None,
        slo_names: Sequence[str] = (),
    ) -> None:
        validate_ladder(ladder)
        self.scoreboard = scoreboard
        self.ladder = tuple(ladder)
        self.config = config
        self.slo_engine = slo_engine
        self.slo_names = tuple(slo_names)
        self._clients: Dict[str, _ClientControl] = {}
        self.decisions: List[AdaptDecision] = []
        self.polls = 0

    # -- registration ------------------------------------------------------

    def add_client(
        self,
        client: str,
        knobs: Optional[ClientKnobs] = None,
        loss_probe: Optional[Callable[[], float]] = None,
        start_rung: int = 0,
    ) -> None:
        """Manage ``client`` (which must already be on the scoreboard).

        ``loss_probe`` returns the client's recent downlink loss fraction
        (e.g. from its FEC decoder or link stats); without one, loss
        never contributes pressure for this client.
        """
        if client in self._clients:
            raise ValueError(f"duplicate client {client!r}")
        if client not in self.scoreboard:
            raise KeyError(
                f"client {client!r} is not on the scoreboard; "
                "add_client() it there first")
        if not 0 <= start_rung < len(self.ladder):
            raise ValueError(f"start rung {start_rung} outside the ladder")
        control = _ClientControl(
            knobs if knobs is not None else ClientKnobs(),
            loss_probe, start_rung)
        self._clients[client] = control
        self._actuate(client, control)

    def __contains__(self, client: str) -> bool:
        return client in self._clients

    # -- queries -----------------------------------------------------------

    @property
    def clients(self) -> Tuple[str, ...]:
        """Registered client ids, in the controller's poll order."""
        return tuple(sorted(self._clients))

    def rung(self, client: str) -> int:
        return self._clients[client].rung

    def rung_name(self, client: str) -> str:
        return self.ladder[self._clients[client].rung].name

    def exposure_for(self, client: str) -> ExposureConfig:  # replint: ignore[ARCH003] -- test observer of a client's mitigated exposure
        """The client's exposure after its rung's mitigations."""
        control = self._clients[client]
        if control.exposure is None:
            return self.scoreboard.exposure
        return control.exposure

    def mitigation_costs(self, client: str) -> Tuple[float, ...]:
        """Costs of the active mitigations (native scales, see ladder)."""
        return self._clients[client].mitigation_costs

    def fingerprint(self) -> str:
        """The decision log as one byte-stable string (replay witness)."""
        return "\n".join(d.line() for d in self.decisions)

    # -- control loop ------------------------------------------------------

    def _slo_pressure(self) -> bool:
        if self.slo_engine is None:
            return False
        names = self.slo_names or tuple(self.slo_engine.verdicts())
        return any(
            self.slo_engine.state(name) == slo_states.BREACH
            for name in names
        )

    def poll(self, now: float) -> List[AdaptDecision]:
        """One control interval; returns the transitions it produced."""
        cfg = self.config
        breach = self._slo_pressure()
        made: List[AdaptDecision] = []
        for client in sorted(self._clients):
            control = self._clients[client]
            score = self.scoreboard.score(client)
            latency = score.latency_p_s
            loss = float(control.loss_probe()) \
                if control.loss_probe is not None else 0.0
            pressured = (latency > cfg.degrade_latency_s
                         or loss > cfg.degrade_loss or breach)
            clean = (latency < cfg.restore_latency_s
                     and loss <= cfg.restore_loss and not breach)
            if pressured:
                control.clean_streak = 0
                control.pressure_streak += 1
                if control.pressure_streak >= cfg.degrade_polls \
                        and control.rung < len(self.ladder) - 1:
                    made.append(self._step(
                        client, control, now, control.rung + 1, "degrade",
                        self._reason(latency, loss, breach, cfg)))
            elif clean:
                control.pressure_streak = 0
                control.clean_streak += 1
                if control.clean_streak >= cfg.restore_polls \
                        and control.rung > 0 \
                        and now - control.last_step_t >= cfg.hold_time_s:
                    made.append(self._step(
                        client, control, now, control.rung - 1, "restore",
                        "recovered"))
            else:
                # Dead band: neither pressured nor provably clean.
                control.pressure_streak = 0
                control.clean_streak = 0
        self.polls += 1
        return made

    @staticmethod
    def _reason(latency: float, loss: float, breach: bool,
                cfg: AdaptConfig) -> str:
        reasons = []
        if latency > cfg.degrade_latency_s:
            reasons.append(f"latency={latency * 1e3:.1f}ms")
        if loss > cfg.degrade_loss:
            reasons.append(f"loss={loss:.3f}")
        if breach:
            reasons.append("slo_breach")
        return "+".join(reasons)

    def _step(self, client: str, control: _ClientControl, now: float,
              to_rung: int, action: str, reason: str) -> AdaptDecision:
        from_name = self.ladder[control.rung].name
        control.rung = to_rung
        control.pressure_streak = 0
        control.clean_streak = 0
        control.last_step_t = now
        detail = self._actuate(client, control)
        decision = AdaptDecision(
            t=now, client=client, action=action,
            from_rung=from_name, to_rung=self.ladder[to_rung].name,
            reason=reason, detail=detail)
        self.decisions.append(decision)
        return decision

    def _actuate(self, client: str, control: _ClientControl) -> str:
        """Push the client's rung into every wired knob; returns the
        byte-stable actuation summary recorded on the decision."""
        rung = self.ladder[control.rung]
        knobs = control.knobs
        if knobs.set_lod_cap is not None:
            knobs.set_lod_cap(rung.lod_cap)
        if knobs.set_decimation is not None:
            knobs.set_decimation(rung.snapshot_decimation)
        # Costs are computed against the *pre-mitigation* exposure in one
        # atomic pass (apply_with_cost) — see sickness.mitigation on why
        # the order is load-bearing.
        control.exposure, costs = apply_all_with_costs(
            rung_mitigations(rung), self.scoreboard.exposure)
        control.mitigation_costs = tuple(costs)
        parts = [
            f"lod={rung.lod_cap}",
            f"fovea={rung.fovea_radius_deg:.1f}",
            f"decim={rung.snapshot_decimation}",
            f"fec=r{rung.fec_repair}",
            f"abr={rung.abr_cap_bps / 1e3:.0f}k",
        ]
        if costs:
            parts.append(
                "mitigation_costs=" + ",".join(f"{c:.4f}" for c in costs))
        return " ".join(parts)

    # -- export ------------------------------------------------------------

    def to_registry(self, registry: Any, prefix: str = "adapt") -> None:
        """Per-client rung gauges + decision counters (obs surface)."""
        rung_gauge = registry.gauge_family(f"{prefix}_rung", ("client",))
        registry.describe(
            f"{prefix}_rung",
            "Current degradation-ladder rung index (0 = full fidelity)")
        for client in sorted(self._clients):
            rung_gauge.labels(client=client).set(self._clients[client].rung)
        registry.incr(f"{prefix}_decisions_total",
                      len(self.decisions) - registry.counter(
                          f"{prefix}_decisions_total"))
