"""Run the benchmark repeatedly with different seeds and report its spread.

    python3 perfbench/steadiness.py --seeds 1-10
    python3 perfbench/steadiness.py --workloads verify-suite --seeds 1-5 --out runs.json

For each workload, runs `run.py --trace 0` once per seed (sequentially,
with `run_seconds` from BENCHMARK.json) and prints, per end-to-end metric,
the median, the quartiles (`statistics.quantiles(values, n=4)`), and the
spread: the distance between the quartiles as a share of the median.  A
spread above a third of the metric's bound is flagged.  The same summary
of the unscaled wall-clock figures follows, for comparison.  It then makes
one traced run (`--trace 1`, seed 0) per workload for the per-layer
numbers, unless `--no-traced` is given.
`--out` writes every run's metrics and operation-list digest, the
summary and the traced numbers as JSON.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WALL = ("wall_ops_per_s", "wall_latency_p50_s", "wall_setup_s")


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    result["details"] = json.loads(lines[-2].removeprefix("# "))
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def host() -> dict:
    import numpy

    nproc = subprocess.run(["nproc"], capture_output=True, text=True).stdout.strip()
    return {"nproc": int(nproc) if nproc else None, "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--no-traced", action="store_true", help="skip the traced seed-0 runs")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    doc = {"host": host(), "run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            r = one_run(workload, seed, bench["run_seconds"], 0)
            if not r["correct"]:
                raise SystemExit(f"{workload} seed {seed}: {r['failed']} operations failed")
            runs.append({"seed": seed, **{k: v["value"] for k, v in r["metrics"].items()},
                         **r["details"]})
            print(f"{workload} seed={seed} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()), flush=True)
        summary = {name: summarize([run[name] for run in runs]) for name in bounds}
        wall = {name: summarize([run[name] for run in runs]) for name in WALL}
        doc["workloads"][workload] = {"summary": summary, "wall_summary": wall, "runs": runs}
        if not args.no_traced:
            traced = one_run(workload, 0, bench["run_seconds"], 1)
            if not traced["correct"]:
                raise SystemExit(f"{workload} traced run: {traced['failed']} operations failed")
            doc["workloads"][workload]["traced_seed0"] = {
                "details": traced["details"],
                **{k: v["value"] for k, v in traced["metrics"].items()}}
        for name, s in summary.items():
            flag = "  <-- above bound/3" if name != "setup_s" and s["spread"] > bounds[name] / 3 else ""
            print(f"  {workload:15s} {name:15s} median={s['median']:.4g} "
                  f"q1={s['q1']:.4g} q3={s['q3']:.4g} spread={s['spread']:.3f} "
                  f"bound={bounds[name]}{flag}", flush=True)
        for name, s in wall.items():
            print(f"  {workload:15s} {name:18s} median={s['median']:.4g} "
                  f"spread={s['spread']:.3f} (wall clock, unscaled)", flush=True)
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
