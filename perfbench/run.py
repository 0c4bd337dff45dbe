"""Benchmark entry point: one run of one workload, in fresh worker processes.

    python3 perfbench/run.py --workload count-queries --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload verify-suite --seed 0 --trace 1

With `--trace 0` the run measures the end-to-end metrics: the time to import
`confhom.cli` in a fresh interpreter (median of several), then one worker
that drives `confhom.cli.main` in a closed loop for `--seconds`.  With
`--trace 1` it runs the first three rounds of the workload twice, untraced
and traced, each in a fresh worker, and reports the per-layer metrics and
the tracing overhead; a fixed set of operations makes every count repeat
exactly for a given seed.  Every operation's answer is checked either way.
End-to-end times are scaled to a reference host speed, measured next to
each timing with the calibration kernel of `speed.py`; the `# ` line
before the result gives the wall-clock figures too.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Exit status: 0 when every operation
passed, 1 when some failed (the result is still printed), 2 when the run
could not start (no `src/confhom` in this checkout, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from worker import spans_path  # noqa: E402
from workloads import STRATA, TAIL_PERCENTILE, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 11
TRACE_ROUNDS = STRATA
TIME_LIMIT_S = 170.0
IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); sys.path.append(sys.argv[2]); "
    "import speed; before = speed.kernel_seconds(); "
    "t = time.perf_counter(); import confhom.cli; wall = time.perf_counter() - t; "
    "print(wall, speed.scale(before, speed.kernel_seconds()))"
)


class RunError(Exception):
    """The run could not be carried out; no result is printed."""


def _remaining(deadline: float) -> float:
    left = deadline - perf_counter()
    if left <= 0:
        raise RunError("time limit reached")
    return left


def setup_seconds(deadline: float) -> tuple[float, float]:
    """Median time to import confhom.cli in a fresh interpreter, scaled to
    the reference speed (`speed.py`), and the median wall time.

    One untimed import first, so that compiling bytecode in a fresh
    checkout is not counted.
    """
    scaled, wall = [], []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER, str(SRC), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=_remaining(deadline),
        )
        if proc.returncode != 0:
            raise RunError(f"importing confhom.cli failed:\n{proc.stderr}")
        if i:
            seconds, factor = map(float, proc.stdout.split()[-2:])
            wall.append(seconds)
            scaled.append(seconds * factor)
    return statistics.median(scaled), statistics.median(wall)


def run_worker(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=_remaining(deadline))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunError(f"worker {' '.join(args)} exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_latency(latencies: list[float], percentile: int) -> tuple[float, int]:
    """The workload's tail percentile by nearest rank, or, when fewer than
    ten operations lie beyond it, the highest whole percentile that has ten
    beyond it; with ten or fewer operations, the maximum (p100)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100
    q = min(percentile, 100 * (n - 10) // n)
    rank = -(-q * n // 100)
    return ordered[rank - 1], q


def end_to_end(args, deadline: float) -> tuple[dict, dict, dict]:
    setup, setup_wall = setup_seconds(deadline)
    report = run_worker(["--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds)], deadline)
    lat = report["latencies"]
    if not lat:
        raise RunError("no operation completed")
    tail, q = tail_latency(lat, TAIL_PERCENTILE[args.workload])
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "ops/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (tail, "s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
        "setup_s": (setup, "s"),
    }
    wall = report["wall_latencies"]
    details = {"tail_percentile": q, "samples": len(lat),
               "kernel_s": report["kernel_s"], "wall_ops_per_s": len(wall) / sum(wall),
               "wall_latency_p50_s": statistics.median(wall), "wall_setup_s": setup_wall}
    return metrics, report, details


def per_layer(args, deadline: float) -> tuple[dict, dict, dict]:
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--rounds", str(TRACE_ROUNDS)]
    plain = run_worker(common, deadline)
    traced = run_worker(common + ["--traced"], deadline)
    if plain["ops_digest"] != traced["ops_digest"]:
        raise RunError("traced and untraced runs executed different operations")
    metrics = {}
    for name, value in traced["layers"].items():
        unit = ("s" if name.endswith("_s") else "ratio" if name.endswith("_ratio")
                else "B" if name.endswith("_bytes") else "count")
        metrics[name] = (value, unit)
    overhead = sum(plain["latencies"]) / sum(traced["latencies"])
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    report = dict(traced)
    report["attempted"] = plain["attempted"] + traced["attempted"]
    report["failed"] = plain["failed"] + traced["failed"]
    report["failures"] = plain["failures"] + traced["failures"]
    if traced["op_balance_s"] > 1e-6:
        report["failed"] += 1
        report["failures"].append(
            f"layer self times miss the traced latency by {traced['op_balance_s']:.3g} s")
    spans = spans_path(args.workload, args.seed).relative_to(ROOT)
    details = {"spans": traced["spans"], "spans_file": str(spans),
               "op_balance_s": traced["op_balance_s"]}
    return metrics, report, details


def main() -> int:
    ap = argparse.ArgumentParser(description="confhom benchmark: one run of one workload")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "confhom" / "__init__.py").is_file():
        print(f"error: no confhom package under {SRC}", file=sys.stderr)
        return 2
    deadline = perf_counter() + TIME_LIMIT_S
    try:
        metrics, report, details = (per_layer if args.trace else end_to_end)(args, deadline)
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for failure in report["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    details.update({
        "workload": args.workload, "seed": args.seed, "rounds": report["rounds"],
        "ops_digest": report["ops_digest"], "stdout_bytes": report["stdout_bytes"],
        "reference_checked": report["reference_checked"],
        "ops_failed_ratio": report["failed"] / report["attempted"],
    })
    print("# " + json.dumps(details))
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
