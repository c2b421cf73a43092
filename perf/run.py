"""The repository benchmark: five classroom workloads, one command.

Each measured run of a workload happens in its own fresh interpreter
(``perf/harness.py``), one process at a time.  Every metric is printed
as ``workload metric value unit (n=samples)``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Run from the repository root::

    python3 perf/run.py --workload hall-stream --seed 7 --seconds 10 --trace 0
    python3 perf/run.py --repeat 3 --out bench.json      # all workloads
    python3 perf/run.py --workload world-seminar --trace  # per-layer table

Untraced (``--trace 0``, the default) runs report the end-to-end
metrics; a traced run (``--trace`` or ``--trace 1``) runs each workload
untraced and then traced, and reports the per-layer metrics.  Set-up
time is the median over two set-up-only probes plus each measured run.
A run fails (exit 1) if any operation raises or fails its check, or any
two runs of one seed disagree on the fingerprint of their simulated
outputs; it still prints the result line, with ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from harness import MIN_OPS, percentile
from tracing import LAYER_UNITS, now

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("hall-stream", "hall-still", "world-seminar",
             "faulty-classroom", "class-rush")

#: End-to-end metric -> unit, in report order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

#: Set-up-only probes per measured run; with the run's own set-up they
#: give an odd sample count for the set-up median.
SETUP_PROBES = 2
#: One (workload, repeat) unit must finish within this many seconds.
UNIT_DEADLINE_S = 170.0


class RunFailed(Exception):
    """A child process crashed, timed out or printed no result."""


def child(workload: str, args, hash_seed: int, deadline: float, *,
          trace: bool = False, setup_only: bool = False) -> Dict:
    """One fresh-interpreter run of ``perf/harness.py``; returns its JSON.

    Each child gets its own ``PYTHONHASHSEED``, so agreeing fingerprints
    across children also show the run replays across hash seeds.
    """
    cmd = [sys.executable, str(HERE / "harness.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--size", args.size]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    # One BLAS/OpenMP thread: a run is single-threaded, so it neither
    # competes with itself for the cores nor varies with their count.
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - now()))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload}: run timed out after {exc.timeout:.0f} s")
    if proc.returncode != 0:
        raise RunFailed(f"{workload}: run exited {proc.returncode}\n"
                        f"{proc.stderr[-4000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RunFailed(f"{workload}: run printed no result\n{proc.stderr[-4000:]}")


def run_workload(workload: str, args) -> Dict:
    """Every run of one workload, summarized."""
    untraced: List[Dict] = []
    traced: List[Dict] = []
    setups: List[float] = []
    hash_seed = 1 + (args.seed * 7919) % 1_000_000
    for _ in range(args.repeat):
        deadline = now() + UNIT_DEADLINE_S
        if not args.trace:
            for _ in range(SETUP_PROBES):
                hash_seed += 1
                setups.append(child(workload, args, hash_seed, deadline,
                                    setup_only=True)["setup_s"])
        hash_seed += 1
        untraced.append(child(workload, args, hash_seed, deadline))
        setups.append(untraced[-1]["setup_s"])
        if args.trace:
            hash_seed += 1
            traced.append(child(workload, args, hash_seed, deadline, trace=True))
    return summarize(untraced, traced, setups)


def summarize(untraced: List[Dict], traced: List[Dict],
              setups: List[float]) -> Dict:
    """Pool the runs of one workload into its reported metrics.

    ``metrics`` maps each end-to-end metric to ``(value, unit, n)``: the
    median wall time over repetitions, operation-time percentiles over
    every operation of every repetition (``n`` counts them), the median
    set-up time and the median peak RSS of the measured runs.
    ``layers`` (traced runs only) maps each per-layer metric to
    ``(value, unit, n)`` with the median over traced runs.
    """
    reps = [rep for run in untraced for rep in run["reps"]]
    rss = [run["peak_rss_mb"] for run in untraced]
    op_s = [t for rep in reps for t in rep["op_s"]]
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "wall_s": (statistics.median(r["wall_s"] for r in reps), len(reps)),
        "op_ms_p50": (percentile(op_s, 50) * 1e3, len(op_s)),
        "op_ms_p90": (percentile(op_s, 90) * 1e3, len(op_s)),
        "peak_rss_mb": (statistics.median(rss), len(rss)),
    }
    runs = untraced + traced
    fingerprint = runs[0]["fingerprint"]
    errors = [e for run in runs for e in run["errors"]]
    failed = 0
    for run in runs:
        if run["fingerprint"] != fingerprint:
            # A run that disagrees with another of its seed fails whole.
            errors.append(f"fingerprint {run['fingerprint']} != {fingerprint} "
                          f"(another run of the same seed)")
            failed += run["ops"]
        else:
            failed += run["ops_failed"]
    summary = {
        "metrics": {name: (metrics[name][0], unit, metrics[name][1])
                    for name, unit in END_TO_END_UNITS.items()},
        "outcomes": runs[0]["outcomes"],
        "fingerprint": fingerprint,
        "attempted": sum(run["ops"] for run in runs),
        "failed": failed,
        "errors": errors,
    }
    if traced:
        layers = {name: statistics.median(run["layers"][name] for run in traced)
                  for name in LAYER_UNITS if name != "trace.overhead_pct"}
        traced_wall = statistics.median(
            rep["wall_s"] for run in traced for rep in run["reps"])
        layers["trace.overhead_pct"] = \
            100.0 * (traced_wall / metrics["wall_s"][0] - 1)
        summary["layers"] = {name: (layers[name], unit, len(traced))
                             for name, unit in LAYER_UNITS.items()}
        summary["trace_files"] = [run["trace_file"] for run in traced
                                  if "trace_file" in run]
    return summary


def report(workload: str, summary: Dict, trace: bool) -> None:
    """The human-readable lines for one workload."""
    table = summary["layers"] if trace else summary["metrics"]
    for name, (value, unit, n) in table.items():
        print(f"{workload} {name} {value:.6g} {unit} (n={n})")
    for name, (value, unit, n) in summary["outcomes"].items():
        print(f"{workload} {name} {value:.6g} {unit} (n={n}, simulated)")
    print(f"{workload} fingerprint {summary['fingerprint']}")
    print(f"{workload} ops {summary['attempted']} ops_failed {summary['failed']}")
    for error in summary["errors"]:
        print(f"{workload} FAILED {error}")
    for path in summary.get("trace_files", []):
        print(f"{workload} trace {path}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[2:]))
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42,
                        help="workload input seed (default 42)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed seconds per measured run (default 10)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or bare --trace): report per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="measured runs per workload (default 1)")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write every result to this JSON file")
    parser.add_argument("--size", choices=sorted(MIN_OPS), default="full",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.seconds < 0:
        parser.error("--repeat must be >= 1 and --seconds >= 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'} is missing: run the benchmark from "
              "a repository checkout", file=sys.stderr)
        return 2

    summaries = {}
    try:
        for workload in args.workloads:
            summaries[workload] = run_workload(workload, args)
            report(workload, summaries[workload], bool(args.trace))
    except RunFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    single = len(args.workloads) == 1
    metrics = {}
    for workload, summary in summaries.items():
        table = summary["layers"] if args.trace else summary["metrics"]
        for name, (value, unit, _n) in table.items():
            metrics[name if single else f"{workload}.{name}"] = {
                "value": value, "unit": unit}
    failed = sum(s["failed"] for s in summaries.values())
    correct = failed == 0 and not any(s["errors"] for s in summaries.values())
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "size": args.size,
             "trace": bool(args.trace), "workloads": summaries},
            indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
