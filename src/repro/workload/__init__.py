"""Synthetic workloads: motion, behavior, populations, activities.

Real classroom traces are unavailable (the paper deployed nothing), so
experiments drive the system with parametric motion models, Markov
behavioral dynamics, worldwide population samplers and activity scripts for
the class formats the paper names (lecture, tutorial, seminar, group
project, gamified breakout).
"""

from repro.workload.arrival import (
    BurstyArrivals,
    ClassScheduleForecast,
    DiurnalClassLoad,
)
from repro.workload.behavior import BehaviorModel, BehaviorState
from repro.workload.lecture import ActivityPhase, ActivityScript, standard_script
from repro.workload.population import RemotePopulation, sample_worldwide
from repro.workload.traces import MotionTrace, SeatedMotion, WalkingMotion

__all__ = [
    "ActivityPhase",
    "ActivityScript",
    "BehaviorModel",
    "BehaviorState",
    "BurstyArrivals",
    "ClassScheduleForecast",
    "DiurnalClassLoad",
    "MotionTrace",
    "RemotePopulation",
    "SeatedMotion",
    "WalkingMotion",
    "sample_worldwide",
    "standard_script",
]
