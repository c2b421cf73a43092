"""Schema of the committed perf trajectory, ``BENCH_perf.json``.

Each change appends one record: its parent commit, the host, the
command, the five workloads' end-to-end medians and operation counts,
and the replay fingerprints at seeds 42 and 7.  Records from
``RAW_WALL_FROM_PR`` on also carry each workload's median unscaled
repetition time, ``raw_wall_s``, next to the scaled medians.  A record's
fingerprints equal the previous record's unless it says why they moved in
a non-empty ``fingerprints_changed`` string.  A malformed or out-of-order
append fails here rather than when a later change tries to read the trend.
"""

import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

WORKLOADS = ("hall-stream", "hall-still", "world-seminar",
             "faulty-classroom", "class-rush")
METRICS = ("setup_s", "wall_s", "op_ms_p50", "op_ms_p90", "peak_rss_mb")
FIELDS = ("pr", "parent", "host", "command", "units", "ops", "fingerprints",
          "medians")
#: The ``pr`` of the first record that must carry ``raw_wall_s``.
RAW_WALL_FROM_PR = 24


def _records():
    return json.loads((ROOT / "BENCH_perf.json").read_text())["records"]


def test_every_record_has_every_field_workload_and_metric():
    records = _records()
    assert records
    for record in records:
        tag = record.get("pr")
        assert all(field in record for field in FIELDS), tag
        assert set(record["units"]) == set(METRICS), tag
        for seed in ("42", "7"):
            fingerprints = record["fingerprints"][seed]
            assert set(fingerprints) == set(WORKLOADS), (tag, seed)
            assert all(isinstance(value, str) and value
                       for value in fingerprints.values()), (tag, seed)
        for workload in WORKLOADS:
            medians = record["medians"][workload]
            assert set(medians) == set(METRICS), (tag, workload)
            assert all(isinstance(value, (int, float)) and math.isfinite(value)
                       and value > 0 for value in medians.values()), \
                (tag, workload)
            ops = record["ops"][workload]
            assert 0 <= ops["failed"] <= ops["attempted"], (tag, workload)


def test_records_are_appended_in_change_order():
    prs = [record["pr"] for record in _records()]
    assert all(isinstance(pr, int) for pr in prs)
    assert all(a < b for a, b in zip(prs, prs[1:])), prs


def test_records_carry_raw_wall_time():
    """Scaled times move with the speed probe; the unscaled repetition
    time beside them shows whether the program itself moved."""
    for record in _records():
        if record["pr"] < RAW_WALL_FROM_PR:
            continue
        raw = record["raw_wall_s"]
        assert set(raw) == set(WORKLOADS), record["pr"]
        assert all(isinstance(value, (int, float)) and math.isfinite(value)
                   and value > 0 for value in raw.values()), record["pr"]


def test_fingerprints_replay_unless_the_record_says_why():
    """A change that keeps the simulated outputs keeps every workload's
    fingerprint at both seeds; one that moves them records why."""
    records = _records()
    for previous, record in zip(records, records[1:]):
        reason = record.get("fingerprints_changed")
        if reason is not None:
            assert isinstance(reason, str) and reason.strip(), record["pr"]
            continue
        assert record["fingerprints"] == previous["fingerprints"], \
            record["pr"]
