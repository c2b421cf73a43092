"""Virtual-physical blended Metaverse classroom — full-system simulation.

A reproduction of the ICDCS 2022 blueprint "Re-shaping Post-COVID-19
Teaching and Learning: A Blueprint of Virtual-Physical Blended Classrooms
in the Metaverse Era" (Wang, Lee, Braud, Hui) as a working system:
discrete-event simulation of two MR campuses plus a cloud VR classroom,
with the sensing, networking, synchronization, rendering, HCI, and
cybersickness substrates the architecture depends on.

Quick start::

    from repro import Simulator, build_unit_case

    sim = Simulator(seed=42)
    deployment = build_unit_case(sim, students_per_campus=6, remote_per_city=2)
    deployment.run(duration=10.0)
    report = deployment.report()
    print(report.cross_campus_visibility())   # 1.0 — everyone replicated
"""

import importlib

# The root stays lazy (PEP 562): importing any ``repro`` subpackage runs
# this file, so it names its exports here and imports their modules only
# when one is first read.
_EXPORTS = {
    "ClassSession": "repro.core",
    "DeploymentReport": "repro.core",
    "MetaverseClassroom": "repro.core",
    "Participant": "repro.core",
    "PhysicalClassroom": "repro.core",
    "Role": "repro.core",
    "SessionReport": "repro.core",
    "Simulator": "repro.simkit",
    "build_unit_case": "repro.core",
}


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value


__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]
