"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that:

- every name in the tracer's layer map exists in `confhom`, every public
  function of a layer module is in the map, and installing the tracer
  rebinds each wrapped name at every import site (so a rename fails here
  instead of silently emptying a layer's metrics);
- the answer checks reject wrong answers, failed verifications, non-zero
  exits and tracebacks, and the series reproduce known dimensions;
- a seed always gives the same operations, and two seeds give, at each
  point of the stream, the same command on the same or a neighbouring
  value of its range (the free choice `--q` or `--max-q` aside);
- a short run of every workload, untraced and traced, passes every answer
  check and prints the result line the benchmark contract asks for;
- in a directory holding only BENCHMARK.json and `perfbench/`, the
  benchmark exits non-zero without printing a result.

Exit status 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import importlib
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import series
import tracer as tracing
import workloads
from worker import ROOT, import_cli, run_operation

HERE = Path(__file__).resolve().parent
BARE_DIR = ROOT / ".perfbench_out" / "selftest"


class SelfTestError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def check_layer_map() -> None:
    import_cli()
    expect(set(tracing.LAYER_MAP) == set(tracing.LAYERS), "layer map and layer list differ")
    for layer, names in tracing.LAYER_MAP.items():
        module = importlib.import_module(f"confhom.{layer}")
        for name in names:
            owner, _, attr = name.rpartition(".")
            target = getattr(module, owner, None) if owner else module
            expect(target is not None and attr in vars(target),
                   f"confhom.{layer}.{name} does not exist")
        mapped = {n for n in names if "." not in n}
        missing = set(tracing.public_functions(module)) - mapped
        expect(not missing, f"public functions of confhom.{layer} not traced: {sorted(missing)}")

    originals = {}
    for layer, names in tracing.LAYER_MAP.items():
        module = importlib.import_module(f"confhom.{layer}")
        for name in names:
            if "." not in name:
                originals[f"{layer}.{name}"] = getattr(module, name)
    t = tracing.Tracer()
    t.install()
    try:
        for qualified, orig in originals.items():
            for mod in tracing.confhom_modules():
                stale = [a for a, v in vars(mod).items() if v is orig]
                expect(not stale, f"{mod.__name__}.{stale} still holds the untraced {qualified}")
            expect(f"confhom.{qualified}" in t.import_sites[qualified],
                   f"{qualified} was not rebound in its own module")
        from confhom import algebra, bv, cli, linalg, verify

        for holder, name in ((verify, "monomial_basis"), (bv, "delta_matrix"),
                             (cli, "sign_rep_homology"), (cli, "main")):
            expect(hasattr(getattr(holder, name), "__wrapped__"),
                   f"{holder.__name__}.{name} is not traced")
        for cls, name in ((algebra.Monomial, "__init__"), (linalg.FpMatrix, "rref")):
            expect(hasattr(vars(cls)[name], "__wrapped__"), f"{cls.__name__}.{name} is not traced")
    finally:
        t.uninstall()
    for qualified, orig in originals.items():
        layer, name = qualified.split(".", 1)
        expect(getattr(importlib.import_module(f"confhom.{layer}"), name) is orig,
               f"uninstall did not restore {qualified}")


def check_answer_checks() -> None:
    expect(sum(series.plane_dims(3, 9).values()) == 6, "plane series: total_dim(9, 3) != 6")
    expect(series.plane_dims(2, 4) == {0: 1, 1: 1, 2: 1, 3: 1}, "plane series wrong at p=2, n=4")
    main = import_cli().main

    def outcome(argv, edit=lambda s: s, status=None):
        code, out, err, _ = run_operation(main, argv)
        return checks.check(tuple(argv), code if status is None else status, edit(out), err)[0]

    good = [
        ["poincare", "--p", "3", "--n", "20"],
        ["basis", "--p", "2", "--n", "12", "--format", "table"],
        ["delta", "--p", "3", "--n", "14", "--format", "csv"],
        ["equivariant", "--group", "S1", "--p", "3", "--n", "11"],
        ["sign", "--p", "5", "--n", "30", "--q", "1"],
        ["verify", "bijection", "--p", "3", "--max-q", "2"],
    ]
    for argv in good:
        expect(outcome(argv) == [], f"check rejects a right answer: {' '.join(argv)}")
    wrong = [
        (good[0], lambda s: s.replace('"total": ', '"total": 1')),
        (good[1], lambda s: s.rsplit("\n", 2)[0] + "\n"),
        (good[2], lambda s: s.replace("\n", "\n9,", 1)),
        (good[3], lambda s: s.replace('"coker_delta"', '"tensor_bs1"')),
        (good[5], lambda s: s.replace('"passed": true', '"passed": false', 1)),
    ]
    for argv, edit in wrong:
        expect(outcome(argv, edit) != [], f"check accepts a wrong answer: {' '.join(argv)}")
    expect(outcome(good[0], status=1) != [], "check accepts a non-zero exit status")
    problems = checks.check(tuple(good[0]), 0, "{}", "Traceback (most recent call last):")[0]
    expect(problems != [], "check accepts a traceback")


FREE_CHOICES = ("--q", "--max-q")


def check_seed_streams() -> None:
    for workload in workloads.WORKLOADS:
        a, b, again = (list(itertools.islice(workloads.operations(workload, seed), 300))
                       for seed in (1, 2, 1))
        expect(a == again, f"{workload}: seed 1 gave two different streams")
        expect(a != b, f"{workload}: seeds 1 and 2 gave the same stream")
        cells = workloads.cells_of(workload)
        for x, y in zip(a, b):
            changed = [i for i, (s, t) in enumerate(zip(x.argv, y.argv))
                       if s != t and x.argv[i - 1] not in FREE_CHOICES]
            expect(len(x.argv) == len(y.argv) and len(changed) <= 1,
                   f"{workload}: {x.text()!r} and {y.text()!r} are not the same command")
            values = cells[x.index % len(cells)].values
            for i in changed:
                step = values.index(int(x.argv[i])) - values.index(int(y.argv[i]))
                expect(abs(step) <= 1, f"{workload}: {x.text()!r} and {y.text()!r} "
                                       "are not neighbouring inputs")


def run_py(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_smoke_runs() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}
    for workload in workloads.WORKLOADS:
        code, lines = run_py(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"])
        expect(code == 0 and lines, f"{workload}: untraced run exited with {code}")
        result = json.loads(lines[-1])
        expect(set(result) == {"correct", "attempted", "failed", "metrics"},
               f"{workload}: result keys {sorted(result)}")
        expect(result["correct"] and result["failed"] == 0, f"{workload}: operations failed")
        expect(set(result["metrics"]) == e2e, f"{workload}: end-to-end metrics differ")

        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "1",
             "--rounds", "1", "--traced"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        expect(report["failed"] == 0, f"{workload}: traced operations failed: {report['failures']}")
        expect(report["op_balance_s"] < 1e-6, f"{workload}: self times do not add up")
        got = set(report["layers"]) | {"trace.overhead_ratio"}
        expect(got == layers, f"{workload}: per-layer metrics differ: {sorted(got ^ layers)}")
        for layer in tracing.LAYERS:
            expect(f"{layer}.calls" in got and f"{layer}.self_s" in got,
                   f"{workload}: no calls or self time for {layer}")


def check_bare_directory() -> None:
    if BARE_DIR.exists():
        shutil.rmtree(BARE_DIR)
    BARE_DIR.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", BARE_DIR)
    shutil.copytree(HERE, BARE_DIR / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        code, lines = run_py(["--workload", "count-queries", "--seed", "1", "--seconds", "1",
                              "--trace", "0"], cwd=BARE_DIR)
    finally:
        shutil.rmtree(BARE_DIR)
    expect(code != 0, "the benchmark ran without the program")
    expect(not any(line.startswith("{") for line in lines), "a result was printed without the program")


def main() -> int:
    for check in (check_layer_map, check_answer_checks, check_seed_streams, check_smoke_runs,
                  check_bare_directory):
        try:
            check()
        except SelfTestError as exc:
            print(f"FAIL {check.__name__}: {exc}")
            return 1
        print(f"ok   {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
