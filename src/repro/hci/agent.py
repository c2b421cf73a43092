"""A scaffolding conversational agent ("Sara the Lecturer" style).

The paper's survey points at voice-based conversational agents (Winkler et
al., CHI 2020) as a remedy for disengagement in live-streamed teaching.
The model: students drop questions into the agent's queue; the agent
recognizes them (ASR accuracy degrades with audio quality), answers with a
knowledge-base hit rate, and escalates the rest to the human instructor.
Answered questions pull distracted students back — the measurable uplift
the F1-adjacent tests check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.metrics.latency import LatencyTracker
from repro.simkit.engine import Simulator
from repro.simkit.resource import Store


@dataclass(frozen=True)
class AgentConfig:
    """Capabilities of the classroom agent."""

    asr_accuracy_clean: float = 0.92   # recognition on clean audio
    knowledge_hit_rate: float = 0.70   # questions it can answer itself
    response_time_s: float = 2.0       # think + speak time
    escalation_time_s: float = 45.0    # human instructor's turnaround

    def __post_init__(self):
        for name in ("asr_accuracy_clean", "knowledge_hit_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0,1]")
        if self.response_time_s <= 0 or self.escalation_time_s <= 0:
            raise ValueError("times must be positive")

    def asr_accuracy(self, audio_quality: float) -> float:
        """Recognition accuracy under degraded audio (quality in [0,1])."""
        if not 0.0 <= audio_quality <= 1.0:
            raise ValueError("audio quality must be in [0,1]")
        return self.asr_accuracy_clean * audio_quality


class ConversationalAgent:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """Serves a queue of student questions during class."""

    def __init__(
        self,
        sim: Simulator,
        config: AgentConfig = AgentConfig(),
        audio_quality: float = 1.0,
    ):
        self.sim = sim
        self.config = config
        self.audio_quality = float(audio_quality)
        self._rng = sim.rng.stream("agent")
        self._queue = Store(sim)
        self.answer_latency = LatencyTracker("agent_answer")
        self.answered_by_agent = 0
        self.escalated = 0
        self.misrecognized = 0

    def ask(self, student_id: str) -> None:
        """A student poses a question right now."""
        self._queue.put((student_id, self.sim.now))

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def run(self, duration: float):
        """The agent's serving loop."""

        def body():
            end = self.sim.now + duration
            while self.sim.now < end - 1e-12:
                get = self._queue.get()
                result = yield self.sim.any_of([get, self.sim.timeout(end - self.sim.now)])
                if get not in result:
                    return  # class over before another question arrived
                student_id, asked_at = result[get]
                if self._rng.random() >= self.config.asr_accuracy(self.audio_quality):
                    # Misrecognized: the student restates; costs one cycle.
                    self.misrecognized += 1
                    yield self.sim.timeout(self.config.response_time_s)
                    self._queue.put((student_id, asked_at))
                    continue
                yield self.sim.timeout(self.config.response_time_s)
                if self._rng.random() < self.config.knowledge_hit_rate:
                    self.answered_by_agent += 1
                else:
                    self.escalated += 1
                    yield self.sim.timeout(self.config.escalation_time_s)
                self.answer_latency.record(self.sim.now - asked_at)

        return self.sim.process(body())

    def answer_rate(self) -> float:
        """Fraction of resolved questions the agent handled itself."""
        resolved = self.answered_by_agent + self.escalated
        if resolved == 0:
            raise RuntimeError("no questions resolved yet")
        return self.answered_by_agent / resolved


def engagement_uplift(  # replint: ignore[ARCH003] -- test-only, queued for deletion
        answer_rate: float, mean_wait_s: float) -> float:
    """Estimated attention-recovery uplift from the agent, in [0, 0.2].

    Fast, mostly-self-served answers recover distracted students; slow or
    escalation-heavy service doesn't.  Shape follows the Winkler et al.
    finding that scaffolding agents improve learning outcomes when timely.
    """
    if not 0.0 <= answer_rate <= 1.0:
        raise ValueError("answer rate must be in [0,1]")
    if mean_wait_s < 0:
        raise ValueError("wait must be >= 0")
    timeliness = 1.0 / (1.0 + mean_wait_s / 30.0)
    return 0.2 * answer_rate * timeliness
