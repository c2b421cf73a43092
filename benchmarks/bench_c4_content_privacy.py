"""Experiment C4 (Section 3.3): content democratization and privacy.

Ledger mint/transfer throughput with end-of-run integrity verification,
tamper detection, and the overlay privacy policy's violation recall and
decision overhead on a mixed workload.
"""

import sys
from pathlib import Path

if __package__ in (None, ""):  # direct `python benchmarks/bench_*.py` run
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


import numpy as np

from benchmarks.conftest import emit, header
from repro.content.ledger import ContentLedger
from repro.content.privacy import OverlayRequest, PrivacyDecision, PrivacyPolicy

N_MINTS = 2000
N_OVERLAYS = 5000
#: Timed ledger passes; one pass is ~25 ms, so the headline is their median.
LEDGER_PASSES = 7


def run_ledger():
    ledger = ContentLedger()
    tokens = [
        ledger.mint(float(i), f"digest-{i}", f"author-{i % 50}")
        for i in range(N_MINTS)
    ]
    for i, token in enumerate(tokens[: N_MINTS // 2]):
        ledger.transfer(1e6 + i, token, f"author-{i % 50}", "school")
    assert ledger.verify()
    return ledger


def build_overlays(rng):
    overlays = []
    for i in range(N_OVERLAYS):
        roll = rng.random()
        if roll < 0.1:
            request = OverlayRequest(f"r{i}", "a", zone="private_desk")
        elif roll < 0.2:
            request = OverlayRequest(f"r{i}", "a", zone="seating", licensed=False)
        elif roll < 0.3:
            request = OverlayRequest(
                f"r{i}", "a", zone="seating",
                captured_subjects=frozenset({"x"}),
            )
        elif roll < 0.45:
            request = OverlayRequest(
                f"r{i}", "a", zone="seating", contains_personal_data=True,
            )
        else:
            request = OverlayRequest(f"r{i}", "a", zone="stage")
        overlays.append(request)
    return overlays


def test_c4_ledger_throughput(benchmark):
    ledger = benchmark(run_ledger)
    header("C4 — Attribution ledger")
    emit(f"{N_MINTS} mints + {N_MINTS // 2} transfers, chain verified: "
         f"{ledger.verify()}")
    ledger.tamper(5, new_owner="mallory")
    emit(f"after tampering record 5:       chain verified: {ledger.verify()}")
    assert not ledger.verify()


def test_c4_privacy_filtering(benchmark):
    rng = np.random.default_rng(4)
    overlays = build_overlays(rng)

    def run():
        policy = PrivacyPolicy()
        decisions = policy.evaluate_batch(overlays)
        return policy, decisions

    policy, decisions = benchmark(run)
    counts = {}
    for decision in decisions.values():
        counts[decision] = counts.get(decision, 0) + 1
    emit()
    emit(f"C4 — Overlay privacy over {N_OVERLAYS} mixed requests:")
    for decision in PrivacyDecision:
        emit(f"  {decision.value:<7} {counts.get(decision, 0):5d}")
    recall = PrivacyPolicy().violation_recall(overlays)
    emit(f"  violation recall: {recall:.1%}")
    assert recall == 1.0
    assert counts[PrivacyDecision.DENY] > 0.2 * N_OVERLAYS
    assert counts[PrivacyDecision.REDACT] > 0


def main(argv=None):
    import argparse
    import statistics
    import time

    from benchmarks._emit import (
        phase_breakdown_ms,
        wall_phase,
        wall_tracer,
        write_bench_json,
    )

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode (this bench is already quick)")
    parser.add_argument("--trace", action="store_true",
                        help="record wall-clock spans for ledger/privacy phases")
    args = parser.parse_args(argv)
    tracer = wall_tracer() if args.trace else None

    pass_ops_s = []
    with wall_phase(tracer, "ledger"):
        for _ in range(LEDGER_PASSES):
            started = time.perf_counter()
            run_ledger()
            pass_ops_s.append(
                (N_MINTS + N_MINTS // 2) / (time.perf_counter() - started))
    ledger_ops_s = statistics.median(pass_ops_s)

    overlays = build_overlays(np.random.default_rng(4))
    policy = PrivacyPolicy()
    with wall_phase(tracer, "privacy"):
        decisions = policy.evaluate_batch(overlays)
    recall = PrivacyPolicy().violation_recall(overlays)
    counts = {}
    for decision in decisions.values():
        counts[decision.value] = counts.get(decision.value, 0) + 1
    stages = phase_breakdown_ms(tracer) if tracer is not None else None
    path = write_bench_json(
        "c4", "ledger_ops_per_s", ledger_ops_s, "ops/s",
        params={"mints": N_MINTS, "overlays": N_OVERLAYS,
                "ledger_passes": LEDGER_PASSES,
                "violation_recall": recall, "decisions": counts},
        stages=stages)
    print(f"ledger {ledger_ops_s:,.0f} ops/s, privacy recall {recall:.0%}; "
          f"wrote {path}")
    return ledger_ops_s, recall


if __name__ == "__main__":
    main()
