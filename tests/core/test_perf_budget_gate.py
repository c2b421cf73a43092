"""The CI perf-budget gate must degrade gracefully on sweep-shape drift.

`benchmarks/perf_budget.py check` used to assume the committed baseline
and the fresh results agreed on their N-sweep points; a bench sweep
change then surfaced in CI as an unhelpful ``KeyError``.  The gate now
names the missing/extra N points and gates only on the intersection.
"""

import json

import pytest

from benchmarks import perf_budget


def _write_results(path, scale, quick=True):
    path.write_text(json.dumps({
        "schema": 1, "bench": "c3a", "metric": "wall_ms_per_tick",
        "value": 1.0, "unit": "ms",
        "params": {"quick": quick, "scale": scale},
    }))
    return path


def _write_baseline(monkeypatch, tmp_path, tracked, budget=2.0):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({
        "max_regression": budget, "wall_ms_per_tick": tracked,
    }))
    monkeypatch.setattr(perf_budget, "BASELINE_PATH", baseline)
    return baseline


def test_check_passes_on_matching_sweep(tmp_path, monkeypatch, capsys):
    _write_baseline(monkeypatch, tmp_path, {"n1000": 10.0, "n5000": 50.0})
    results = _write_results(tmp_path / "r.json", {
        "n1000": {"wall_ms_per_tick": 12.0},
        "n5000": {"wall_ms_per_tick": 55.0},
    })
    assert perf_budget.check(results) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_check_fails_on_regression(tmp_path, monkeypatch, capsys):
    _write_baseline(monkeypatch, tmp_path, {"n1000": 10.0})
    results = _write_results(tmp_path / "r.json", {
        "n1000": {"wall_ms_per_tick": 25.0},
    })
    assert perf_budget.check(results) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_gates_on_intersection_and_names_drift(
        tmp_path, monkeypatch, capsys):
    """Shape drift is a warning naming the points, not a KeyError."""
    _write_baseline(monkeypatch, tmp_path,
                    {"n1000": 10.0, "n5000": 50.0, "n9000": 90.0})
    results = _write_results(tmp_path / "r.json", {
        "n1000": {"wall_ms_per_tick": 11.0},
        "n2000": {"wall_ms_per_tick": 20.0},  # new sweep point
    })
    assert perf_budget.check(results) == 0
    captured = capsys.readouterr()
    assert "n5000" in captured.err and "n9000" in captured.err
    assert "n2000" in captured.err
    assert "intersection" in captured.err
    # Only the shared point was gated.
    assert "n1000" in captured.out
    assert "n2000" not in captured.out


def test_check_disjoint_sweeps_exit_with_message(tmp_path, monkeypatch):
    _write_baseline(monkeypatch, tmp_path, {"n1000": 10.0})
    results = _write_results(tmp_path / "r.json", {
        "n64": {"wall_ms_per_tick": 1.0},
    })
    with pytest.raises(SystemExit) as excinfo:
        perf_budget.check(results)
    assert "no common N points" in str(excinfo.value)


def test_check_malformed_row_exits_with_message(tmp_path, monkeypatch):
    _write_baseline(monkeypatch, tmp_path, {"n1000": 10.0})
    results = _write_results(tmp_path / "r.json", {"n1000": {"oops": 1.0}})
    with pytest.raises(SystemExit) as excinfo:
        perf_budget.check(results)
    assert "wall_ms_per_tick" in str(excinfo.value)


def test_committed_baseline_matches_current_sweep_shape():
    """The repo's own baseline must track the bench's quick-mode N points.

    This is the early-warning version of the CI note: when someone
    reshapes ``QUICK_SCALE_SIZES`` they must re-record
    ``perf_budget_baseline.json`` in the same change.
    """
    from benchmarks.bench_c3_scale_sync import QUICK_SCALE_SIZES

    expected = {f"vec_{n}" for n in QUICK_SCALE_SIZES}
    baseline = json.loads(perf_budget.BASELINE_PATH.read_text())
    assert set(baseline["wall_ms_per_tick"]) == expected


def test_outside_in_tick_profile_partitions_tick_and_changes_nothing(
        monkeypatch):
    """C3a's phase spans wrap the server from outside: the tick's outputs
    are unchanged, and the phases partition the ``tick`` spans."""
    from benchmarks import bench_c3_scale_sync as c3a
    from benchmarks._emit import wall_tracer

    plain = c3a.run_scale_one(300, ticks=2)
    traced = c3a.run_scale_one(300, ticks=2, tracer=wall_tracer())
    assert traced["tick_cost_model_ms"] == plain["tick_cost_model_ms"]

    tracer = wall_tracer()
    monkeypatch.setattr(c3a, "wall_tracer", lambda: tracer)
    profile = c3a.run_profile(300, ticks=2)
    phases = profile["phases"]
    assert set(phases) == {"apply", "interest", "delta", "tick_other"}
    assert all(ms >= 0 for ms in phases.values())
    ticks = [span for span in tracer.spans() if span.name == "tick"]
    assert len(ticks) == 2
    tick_total_ms = sum(span.duration for span in ticks) * 1e3
    assert sum(phases.values()) == pytest.approx(tick_total_ms)
    c3a.check_profile(profile)
