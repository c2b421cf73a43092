"""Interactive presentations in the Metaverse (platform feature (ii)).

Section 3.1's second feature: "interaction with presentations in the
Metaverse".  A deck mixes plain slides, audience polls, and inspectable 3D
artifacts; running it through a deployment's media channels measures slide
propagation latency and audience participation (which depends on the input
modality's activation cost and the audience's attention).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.hci.input import INPUT_MODALITIES, InputModality
from repro.metrics.latency import LatencyTracker
from repro.simkit.engine import Simulator


class SlideKind(enum.Enum):
    PLAIN = "plain"
    POLL = "poll"
    ARTIFACT_3D = "artifact_3d"


@dataclass(frozen=True)
class PresentationSlide:
    """One deck entry."""

    index: int
    kind: SlideKind
    dwell_s: float = 60.0       # how long the presenter stays on it
    size_bytes: int = 200_000   # 3D artifacts are bigger

    def __post_init__(self):
        if self.dwell_s <= 0:
            raise ValueError("dwell must be positive")
        if self.size_bytes <= 0:
            raise ValueError("size must be positive")


def standard_deck(  # replint: ignore[ARCH003] -- test-only, queued for deletion
        n_slides: int = 12, poll_every: int = 4,
        artifact_every: int = 6) -> List[PresentationSlide]:
    """A deck with periodic polls and 3D artifacts."""
    if n_slides < 1:
        raise ValueError("need at least one slide")
    deck = []
    for i in range(n_slides):
        if poll_every and (i + 1) % poll_every == 0:
            kind, size = SlideKind.POLL, 50_000
        elif artifact_every and (i + 1) % artifact_every == 0:
            kind, size = SlideKind.ARTIFACT_3D, 2_000_000
        else:
            kind, size = SlideKind.PLAIN, 200_000
        deck.append(PresentationSlide(index=i, kind=kind, size_bytes=size))
    return deck


@dataclass
class PollOutcome:
    slide_index: int
    invited: int
    responded: int

    @property
    def participation(self) -> float:
        return self.responded / self.invited if self.invited else 0.0


class InteractivePresentation:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """Runs a deck over a send channel with an audience model.

    ``send(size_bytes, on_done)`` carries slide content (wire it to a
    reliable channel or a topology path); poll participation is simulated
    per audience member: a member responds if attentive *and* their input
    act (activation + a couple of words) fits in the poll window.
    """

    def __init__(
        self,
        sim: Simulator,
        send,
        deck: List[PresentationSlide],
        audience_attention: Dict[str, float],
        input_modality: InputModality = INPUT_MODALITIES["vr_controller"],
        poll_window_s: float = 30.0,
    ):
        if not deck:
            raise ValueError("empty deck")
        if not audience_attention:
            raise ValueError("no audience")
        if poll_window_s <= 0:
            raise ValueError("poll window must be positive")
        self.sim = sim
        self.send = send
        self.deck = list(deck)
        self.audience_attention = dict(audience_attention)
        self.input_modality = input_modality
        self.poll_window_s = float(poll_window_s)
        self._rng = sim.rng.stream("presentation")
        self.slide_latency = LatencyTracker("slide_latency")
        self.polls: List[PollOutcome] = []
        self.slides_shown = 0

    def _run_poll(self, slide: PresentationSlide) -> None:
        responded = 0
        for member, attention in self.audience_attention.items():
            if self._rng.random() >= attention:
                continue  # distracted: never saw the poll
            # Response act: activation + ~3 words of answer.
            act_time = self.input_modality.time_for_words(3)
            act_time *= float(self._rng.uniform(0.7, 1.6))
            if act_time <= self.poll_window_s:
                responded += 1
        self.polls.append(
            PollOutcome(slide.index, len(self.audience_attention), responded)
        )

    def run(self):
        """The presenter's process: flip, dwell, poll where applicable."""

        def body():
            for slide in self.deck:
                flipped_at = self.sim.now
                done = self.sim.event()
                self.send(slide.size_bytes, lambda d=done: d.succeed())
                yield done
                self.slide_latency.record(self.sim.now - flipped_at)
                self.slides_shown += 1
                if slide.kind is SlideKind.POLL:
                    self._run_poll(slide)
                    yield self.sim.timeout(self.poll_window_s)
                yield self.sim.timeout(slide.dwell_s)

        return self.sim.process(body())

    def mean_participation(self) -> float:
        if not self.polls:
            raise RuntimeError("no polls ran")
        return float(np.mean([poll.participation for poll in self.polls]))
