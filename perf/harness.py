"""Measure one workload inside this process and print raw results as JSON.

``perf/run.py`` starts this script once per measured run, each time in a
fresh interpreter, so imports, memory and hash seeds never carry over
from one run to the next::

    python perf/harness.py --workload hall-stream --seed 42 --seconds 10

The run imports ``repro`` (timed), builds a repetition of the workload
(timed), then times each operation the repetition yields.  Repetitions
are rebuilt and run until ``--seconds`` of operations have been timed
and there are at least three.  Each repetition reports its wall time
and its operation times; the caller takes the median wall time over
repetitions and percentiles over the pooled operations.  Every
repetition of a seed must produce the same fingerprint.

Times are reported at the machine's nominal speed.  On a shared host
the same code runs up to ~1.5x slower for stretches of seconds to
minutes (neighbours contend for the cores, caches and memory), which no
median within one run can remove.  Right before each operation, and
around the set-up, :func:`unmarshal_s` times a fixed reference job, and
the measured time is multiplied by the job's nominal over its measured
duration.  The unscaled times are reported too (``raw_*``).
"""

from __future__ import annotations

import argparse
import gc
import json
import marshal
import math
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

from tracing import LayerTracer, now

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS_DIR = HERE / "results"

#: Fewest timed operations per run, by size: with 100 samples the
#: nearest-rank p90 has exactly ten samples beyond it.
MIN_OPS = {"full": 100, "tiny": 1}
MIN_REPS = 3
#: The speed probe's reference job: unmarshalling the code of this
#: module of 400 small functions.
PROBE_SOURCE = "\n".join(
    f"def f{i}(a, b=({i}, 'x{i}', {i}.5)):\n    c = [a, b, '{i}']\n"
    f"    return c[0] + b[0] * {i}\n" for i in range(400))
#: The probe's reference durations on the 2-core box the bounds were
#: calibrated on: the fastest of five unmarshals in a fresh interpreter
#: (set-up), and the lower quartile of one unmarshal between operations
#: over every workload's operations.  Scaled times read as times at
#: the speed these durations stand for.
SETUP_PROBE_NOMINAL_S = 0.53e-3
OP_PROBE_NOMINAL_S = 1.01e-3


def unmarshal_s(blob: bytes, tries: int) -> float:
    """The fastest of ``tries`` unmarshals of ``blob``, the marshalled
    code of :data:`PROBE_SOURCE`, with the collector paused.

    Unmarshalling allocates and fills many small objects, as an import
    and the program's own Python code do, so its slowdowns under
    neighbours' load track theirs.  On the calibration box it explained
    most of the import's run-to-run variation, where integer-arithmetic
    and small-dict loops explained half, and it left the operation
    times of the five workloads steadier than those loops did (worst
    spread over eight processes per workload 0.10 against 0.14).  It
    never calls into the program under test.
    """
    collecting = gc.isenabled()
    gc.disable()
    fastest = math.inf
    for _ in range(tries):
        start = now()
        marshal.loads(blob)
        fastest = min(fastest, now() - start)
    if collecting:
        gc.enable()
    return fastest


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it.  With ``n`` samples, exactly
    ``n - ceil(q n / 100)`` samples lie beyond it.

    The definition is ``repro.obs.signals.percentile``'s; the benchmark
    keeps its own copy so that no change to the program can change how
    the program is measured, and so that ``run.py`` never imports it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1]


def measure(workload: str, seed: int, seconds: float, size: str = "full",
            trace: bool = False, setup_only: bool = False,
            results_dir: Optional[Path] = RESULTS_DIR) -> Dict:
    """One measured run; returns the raw samples and checks.

    ``setup_only`` stops after the first build (a set-up probe).  With
    ``trace`` the layer hooks are installed for the run, per-layer
    metrics are added and the span ring is written under
    ``results_dir`` (skipped when it is None).
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    probe = marshal.dumps(compile(PROBE_SOURCE, "<speed probe>", "exec"))
    probe_before = unmarshal_s(probe, 5)
    start = now()
    import workloads  # pulls in repro: the import share of set-up
    import_s = now() - start
    make = workloads.WORKLOADS[workload]
    tracer = LayerTracer() if trace else None
    reps: List[Dict] = []
    build_s: List[float] = []
    fingerprints: List[str] = []
    errors: List[str] = []
    outcomes: Dict = {}
    failed = 0
    sent = [0.0, 0.0]
    with tracer if tracer is not None else nullcontext():
        while True:
            start = now()
            rep = make(seed, size)
            build_s.append(now() - start)
            if len(build_s) == 1:
                setup_scale = SETUP_PROBE_NOMINAL_S / math.sqrt(
                    probe_before * unmarshal_s(probe, 5))
            if setup_only:
                break
            before = _snapshot_counters(rep)
            gc.collect()  # every repetition starts from a collected heap
            samples: List[float] = []
            raw_wall = 0.0
            raised: Optional[BaseException] = None
            for op in rep.ops():
                scale = OP_PROBE_NOMINAL_S / unmarshal_s(probe, 1)
                if tracer is not None:
                    tracer.active = True
                start = now()
                try:
                    op()
                except Exception as exc:  # the operation fails; the run reports it
                    raised = exc
                elapsed = now() - start
                if tracer is not None:
                    tracer.active = False
                raw_wall += elapsed
                samples.append(elapsed * scale)
                if raised is not None:
                    break
            reps.append({"wall_s": sum(samples), "op_s": samples,
                         "raw_wall_s": raw_wall})
            if raised is not None:
                # The repetition's state is unknown after a raise, so it
                # is neither checked nor fingerprinted, and every one of
                # its operations fails.  Every repetition of a seed does
                # the same work, so the run stops here.
                errors.extend(rep.errors)
                errors.append(f"repetition {len(reps)} operation {len(samples)} "
                              f"raised {type(raised).__name__}: {raised}")
                failed += len(samples)
                break
            after = _snapshot_counters(rep)
            sent = [sent[i] + after[i] - before[i] for i in range(2)]
            op_errors = len(rep.errors)
            fingerprint, rep_outcomes = rep.finish()
            # An end-of-run check or a replay mismatch fails every
            # operation of the repetition; a per-operation check only its
            # own operation.
            whole_rep_failed = len(rep.errors) > op_errors
            if fingerprints and fingerprint != fingerprints[0]:
                whole_rep_failed = True
                rep.errors.append(f"repetition {len(fingerprints)} fingerprint "
                                  f"{fingerprint} != {fingerprints[0]}")
            errors.extend(rep.errors)
            failed += len(samples) if whole_rep_failed else rep.failed_ops
            fingerprints.append(fingerprint)
            outcomes = outcomes or rep_outcomes
            if len(reps) >= MIN_REPS and \
                    sum(r["raw_wall_s"] for r in reps) >= seconds:
                break
    result = {
        "workload": workload,
        "seed": seed,
        "import_s": import_s * setup_scale,
        "build_s": build_s[0] * setup_scale,
        "setup_s": (import_s + build_s[0]) * setup_scale,
        "raw_setup_s": import_s + build_s[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if setup_only:
        return result
    ops = sum(len(r["op_s"]) for r in reps)
    if ops < MIN_OPS[size] and not errors:
        raise ValueError(f"{workload} yielded {ops} operations, "
                         f"fewer than {MIN_OPS[size]}")
    result.update(
        reps=reps, ops=ops, ops_failed=failed, errors=errors,
        fingerprint=fingerprints[0] if fingerprints else None,
        outcomes=outcomes)
    if tracer is not None:
        layers = tracer.metrics(len(reps), sum(r["raw_wall_s"] for r in reps),
                                tuple(sent))
        layers["setup.import_s"] = result["import_s"]
        layers["setup.build_s"] = result["build_s"]
        result["layers"] = layers
        if results_dir is not None:
            result["trace_file"] = str(tracer.write_chrome_trace(
                results_dir / f"TRACE_{workload}_seed{seed}.json"))
    return result


def _snapshot_counters(rep) -> List[float]:
    """``[snapshots_sent, snapshot_bytes]`` summed over the live servers."""
    servers = rep.servers()
    return [sum(s.metrics.counter(name) for s in servers)
            for name in ("snapshots_sent", "snapshot_bytes")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=sorted(MIN_OPS), default="full")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, args.size,
                     args.trace, args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
