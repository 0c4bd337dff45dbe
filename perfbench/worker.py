"""One benchmark process: run a workload's operations through `confhom.cli.main`.

Started by `run.py` as a fresh interpreter, so imports, `lru_cache`s and
peak memory start cold.  One closed-loop client: the next operation starts
when the previous one has returned.  Latency covers `cli.main` from call
to return, rendering included; the answer check that follows each
operation is not timed.  Before each operation the worker collects
garbage and freezes what survives, so that the cyclic collector inside an
operation scans only that operation's objects, as in a fresh `confhom`
process, and not the caches and leftovers of earlier operations.  Each
operation is bracketed by timings of the calibration kernel (`speed.py`),
one after each operation, which also serves as the next one's start;
`latencies` are scaled to the reference speed, `wall_latencies` are not.
The last line of stdout is a JSON report.

    python3 perfbench/worker.py --workload count-queries --seed 0 --seconds 30
    python3 perfbench/worker.py --workload verify-suite --seed 0 --rounds 1 --traced
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SPANS_DIR = ROOT / ".perfbench_out"
MAX_REPORTED_FAILURES = 10


def import_cli():
    """Import `confhom.cli` from this checkout's source tree, and nowhere else."""
    if not (SRC / "confhom" / "__init__.py").is_file():
        raise SystemExit(f"no confhom package under {SRC}")
    sys.path.insert(0, str(SRC))
    import confhom.cli

    if Path(confhom.cli.__file__).resolve().parent != SRC / "confhom":
        raise SystemExit(f"confhom imported from {confhom.cli.__file__}, not {SRC}")
    return confhom.cli


def spans_path(workload: str, seed: int) -> Path:
    """Where a traced run writes its spans."""
    return SPANS_DIR / f"{workload}-seed{seed}-spans.npz"


def load_reference(workload: str, seed: int) -> list:
    """Seed-commit answer digests, recorded for the reference seed only."""
    ref = json.loads(REFERENCE.read_text())
    return ref["workloads"][workload] if seed == ref["seed"] else []


def run_operation(main, argv, tracer=None, op_id=0):
    """Run one command; returns (exit status, stdout, stderr, latency)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        idx = tracer.begin_op(op_id) if tracer else None
        started = perf_counter()
        try:
            status = main(list(argv))
        except SystemExit as exc:
            status = exc.code
        except Exception:  # noqa: BLE001 - the operation fails, the run goes on
            status = None
            traceback.print_exc()
        finally:
            latency = tracer.end_op(idx) if tracer else perf_counter() - started
    return status, out.getvalue(), err.getvalue(), latency


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    stop = ap.add_mutually_exclusive_group(required=True)
    stop.add_argument("--seconds", type=float, help="closed loop for this many seconds")
    stop.add_argument("--rounds", type=int, help="exactly this many whole rounds")
    ap.add_argument("--traced", action="store_true", help="record per-layer spans")
    args = ap.parse_args()

    cli = import_cli()
    ops = workloads.operations(args.workload, args.seed)
    reference = load_reference(args.workload, args.seed)
    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    latencies: list[float] = []
    wall_latencies: list[float] = []
    kernel_times: list[float] = []
    executed = []
    failures: list[str] = []
    failed = 0
    stdout_bytes = 0
    started = perf_counter()
    after = speed.kernel_seconds()
    for op in ops:
        if args.rounds is not None and op.round >= args.rounds:
            break
        if args.seconds is not None and perf_counter() - started >= args.seconds:
            break
        gc.collect()
        gc.freeze()
        before = after
        status, out, err, latency = run_operation(cli.main, op.argv, tracer, op.index)
        after = speed.kernel_seconds()
        kernel_times.append(after)
        size = len(out.encode())
        stdout_bytes += size
        if tracer:
            tracer.count("stdout_bytes", size)
        problems, digest = checks.check(op.argv, status, out, err)
        if op.index < len(reference):
            ref_text, ref_digest = reference[op.index]
            if ref_text != op.text():
                problems.append(f"reference lists {ref_text!r} at this position")
            elif digest != ref_digest:
                problems.append("answer differs from the seed-commit reference")
        if problems:
            failed += 1
            if len(failures) < MAX_REPORTED_FAILURES:
                failures.append(f"{op.text()}: {'; '.join(problems)}")
        latencies.append(latency * speed.scale(before, after))
        wall_latencies.append(latency)
        executed.append(op)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": len(latencies),
        "failed": failed,
        "failures": failures,
        "latencies": latencies,
        "wall_latencies": wall_latencies,
        "kernel_s": statistics.median(kernel_times) if kernel_times else None,
        "rounds": executed[-1].round + 1 if executed else 0,
        "ops_digest": workloads.ops_digest(executed),
        "stdout_bytes": stdout_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reference_checked": min(len(reference), len(executed)),
    }
    if tracer:
        tracer.uninstall()
        report["layers"] = tracer.layer_metrics()
        report["op_balance_s"] = tracer.op_balance()
        report["spans"] = len(tracer.start)
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(spans_path(args.workload, args.seed))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
