"""Section 3.1's classroom interaction scenarios, runnable.

* :class:`GamifiedBreakout` — "designing digital 'breakouts' for teams of
  students"; teams race through puzzles, with solve speed driven by team
  synergy and the communication quality the platform delivers.
* :class:`StoryAuthoring` — "'choose your own adventure'-style stories"
  whose nodes become :class:`~repro.content.objects.ContentObject`
  contributions (and ledger mints, if wired).
* :class:`RestrictedLabSession` — "real-time access to the lab resource
  (e.g., a virtual lab as the digital twin) as well as other
  limited/restricted resources (e.g., testing Uranium in the Metaverse)":
  a capacity-limited virtual instrument shared by the whole class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.content.objects import ContentLibrary, ContentObject
from repro.metrics.latency import LatencyTracker
from repro.metrics.qoe import InteractionQoeModel
from repro.simkit.engine import Simulator
from repro.simkit.resource import Resource


def form_teams(  # replint: ignore[ARCH003] -- test-only, queued for deletion
        participant_ids: List[str], team_size: int,
        rng: np.random.Generator) -> List[List[str]]:
    """Random balanced teams (last team may be short)."""
    if team_size < 1:
        raise ValueError("team size must be >= 1")
    if not participant_ids:
        raise ValueError("no participants to team up")
    shuffled = list(participant_ids)
    rng.shuffle(shuffled)
    return [
        shuffled[i:i + team_size] for i in range(0, len(shuffled), team_size)
    ]


@dataclass
class BreakoutResult:
    """Outcome of one team's breakout run."""

    team: List[str]
    puzzles_solved: int
    finish_time_s: Optional[float]   # None if the team timed out

    @property
    def finished(self) -> bool:
        return self.finish_time_s is not None


class GamifiedBreakout:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """A timed team puzzle hunt inside the Metaverse classroom.

    Each puzzle's base solve time is lognormal; effective time divides by
    team synergy (sqrt of team size — diminishing returns) and by the
    *communication quality*, itself the latency-dependent interaction
    performance of the platform.  This makes the activity a measurable
    consumer of the system's latency budget: the same class on a worse
    network solves fewer puzzles.
    """

    def __init__(
        self,
        sim: Simulator,
        n_puzzles: int = 6,
        base_solve_s: float = 180.0,
        time_limit_s: float = 1800.0,
        platform_rtt_ms: float = 50.0,
        qoe: InteractionQoeModel = InteractionQoeModel(),
    ):
        if n_puzzles < 1:
            raise ValueError("need at least one puzzle")
        if base_solve_s <= 0 or time_limit_s <= 0:
            raise ValueError("times must be positive")
        self.sim = sim
        self.n_puzzles = n_puzzles
        self.base_solve_s = base_solve_s
        self.time_limit_s = time_limit_s
        self.communication_quality = qoe.performance(platform_rtt_ms)
        self._rng = sim.rng.stream("breakout")
        self.results: List[BreakoutResult] = []

    def run_team(self, team: List[str]):
        """A simkit process solving puzzles until done or out of time."""
        if not team:
            raise ValueError("empty team")

        def body():
            start = self.sim.now
            deadline = start + self.time_limit_s
            solved = 0
            synergy = float(np.sqrt(len(team)))
            for _puzzle in range(self.n_puzzles):
                base = float(self._rng.lognormal(
                    np.log(self.base_solve_s), 0.35
                ))
                solve_time = base / (synergy * max(0.05, self.communication_quality))
                if self.sim.now + solve_time > deadline:
                    # Ran out of time mid-puzzle.
                    yield self.sim.timeout(max(0.0, deadline - self.sim.now))
                    self.results.append(BreakoutResult(team, solved, None))
                    return
                yield self.sim.timeout(solve_time)
                solved += 1
            self.results.append(
                BreakoutResult(team, solved, self.sim.now - start)
            )

        return self.sim.process(body())

    def completion_rate(self) -> float:
        if not self.results:
            raise RuntimeError("no teams have run")
        return sum(1 for r in self.results if r.finished) / len(self.results)

    def mean_puzzles_solved(self) -> float:
        if not self.results:
            raise RuntimeError("no teams have run")
        return float(np.mean([r.puzzles_solved for r in self.results]))


class StoryAuthoring:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """Learner-driven branching stories as content contributions."""

    def __init__(self, library: ContentLibrary, rng: np.random.Generator):
        self.library = library
        self.rng = rng
        self._counter = 0

    def author_story(self, author: str, n_nodes: int,
                     tags: frozenset = frozenset()) -> List[ContentObject]:
        """Create a story of ``n_nodes`` branching nodes by ``author``."""
        if n_nodes < 1:
            raise ValueError("a story needs at least one node")
        nodes = []
        for i in range(n_nodes):
            self._counter += 1
            node = ContentObject(
                content_id=f"story-{self._counter:05d}",
                author=author,
                kind="adventure_story",
                title=f"{author}'s story, node {i + 1}",
                size_bytes=int(self.rng.integers(5_000, 60_000)),
                tags=tags | frozenset({"story"}),
            )
            self.library.add(node)
            nodes.append(node)
        return nodes

    def playthrough_length(self, nodes: List[ContentObject]) -> int:
        """How many nodes one reader traverses (random branch depth)."""
        if not nodes:
            raise ValueError("empty story")
        return int(self.rng.integers(1, len(nodes) + 1))


class RestrictedLabSession:  # replint: ignore[ARCH003] -- test-only, queued for deletion
    """A capacity-limited virtual instrument the whole class shares.

    The physical analogue has ``capacity`` stations and students queue; in
    the Metaverse the *digital twin* can be cloned, but licensed or
    safety-supervised instruments ("testing Uranium") often stay limited —
    so access is still a queued resource and the fairness/wait metrics
    matter.
    """

    def __init__(self, sim: Simulator, capacity: int = 2):
        self.sim = sim
        self.instrument = Resource(sim, capacity=capacity)
        self.wait_times = LatencyTracker("lab_wait")
        self.sessions_completed = 0
        self._busy_seconds = 0.0

    def student_session(self, experiment_s: float):
        """One student's visit: queue, run the experiment, leave."""
        if experiment_s <= 0:
            raise ValueError("experiment time must be positive")

        def body():
            arrived = self.sim.now
            request = self.instrument.request()
            yield request
            self.wait_times.record(self.sim.now - arrived)
            try:
                yield self.sim.timeout(experiment_s)
                self.sessions_completed += 1
                self._busy_seconds += experiment_s
            finally:
                self.instrument.release(request)

        return self.sim.process(body())

    def utilization(self, horizon: float) -> float:
        """Mean instrument occupancy over the horizon (0..1)."""
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        return min(1.0, self._busy_seconds / (self.instrument.capacity * horizon))
