"""Answer checks for one operation, against `series` and nothing in `confhom`.

`check` returns the list of reasons an operation failed (empty when it
passed) and a digest of its answer.  An operation fails on a non-zero exit
status, a traceback, or a wrong answer:

- verify commands must report every check as passed;
- every other command must print per-degree dimensions (directly, as
  basis rows, or as delta source and target sizes) equal to the
  Hilbert-series expansion in `series`, and delta ranks equal to the
  closed-form count there.

The digest covers the whole stdout, except for verify commands, where it
covers only check names and pass flags, so that later work counters in a
report's details do not change it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re

import series


def _params(argv: tuple[str, ...]) -> dict[str, str]:
    out = {}
    for i, a in enumerate(argv):
        if a.startswith("--") and i + 1 < len(argv):
            out[a[2:]] = argv[i + 1]
    return out


def _rows(stdout: str, fmt: str) -> list[list[str]]:
    """Data rows of a table or csv rendering (header removed)."""
    lines = stdout.rstrip("\n").split("\n")
    if fmt == "csv":
        return list(csv.reader(lines[1:]))
    # Columns are padded and joined by two spaces; monomial text has single spaces.
    return [re.split(r" {2,}", line.strip()) for line in lines[2:]]


def _pairs(dims: dict[int, int]) -> list[list[int]]:
    return [[d, dims[d]] for d in sorted(dims) if dims[d]]


def _count_by(values) -> dict[int, int]:
    out: dict[int, int] = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return out


def _expect_equal(failures: list[str], what: str, got, want) -> None:
    if got != want:
        failures.append(f"{what}: got {str(got)[:200]}, expected {str(want)[:200]}")


def _check_dims_command(argv, stdout, fmt, failures) -> None:
    cmd, prm = argv[0], _params(argv)
    p, n = int(prm["p"]), int(prm["n"])
    dmax = series.default_degree_bound(n)
    payload = json.loads(stdout) if fmt == "json" else None
    result = payload["result"] if payload else None
    if payload is not None:
        _expect_equal(failures, "status", payload["status"], "ok")

    if cmd == "poincare":
        want = series.plane_dims(p, n)
        _expect_equal(failures, "dims", result["dims"], _pairs(want))
        _expect_equal(failures, "total", result["total"], sum(want.values()))
    elif cmd == "sign":
        want = series.times_geometric(series.sign_dims(p, n), 2, dmax)
        _expect_equal(failures, "dims", result["dims"], _pairs(want))
        _expect_equal(failures, "degree_bound", result["degree_bound"], dmax)
    elif cmd == "equivariant" and prm["group"] == "Zp":
        want = series.times_geometric(series.plane_dims(p, n), 1, dmax)
        _expect_equal(failures, "dims", result["dims"], _pairs(want))
    elif cmd == "equivariant":
        tensor = n % p in (0, 1)
        if tensor:
            want = series.times_geometric(series.plane_dims(p, n), 2, dmax)
        else:
            want = series.u_free_dims(p, n)
        if fmt == "json":
            _expect_equal(failures, "regime", result["regime"],
                          "tensor_bs1" if tensor else "coker_delta")
            _expect_equal(failures, "dims", result["dims"], _pairs(want))
            _expect_equal(failures, "basis size", len(result["basis"]), sum(want.values()))
        else:
            got = [[int(d), int(c)] for d, c in _rows(stdout, fmt)]
            _expect_equal(failures, "dims", got, _pairs(want))
    elif cmd == "basis":
        want = series.plane_dims(p, n)
        if fmt == "json":
            rows = [(r["degree"], r["weight"]) for r in result["rows"]]
        else:
            rows = [(int(r[1]), int(r[2])) for r in _rows(stdout, fmt)]
        _expect_equal(failures, "dims", _count_by(d for d, _ in rows), want)
        _expect_equal(failures, "weights", {w for _, w in rows}, {n} if rows else set())
    elif cmd == "delta":
        dims, ranks = series.plane_dims(p, n), series.delta_ranks(p, n)
        want = [[d, dims[d], dims.get(d + 1, 0), ranks.get(d, 0)] for d in sorted(dims)]
        if fmt == "json":
            got = [[m["degree"], len(m["source"]), len(m["target"]), m["rank"]]
                   for m in result["maps"]]
            shapes = [[len(m["matrix"]), len(m["matrix"][0]) if m["matrix"] else 0]
                      for m in result["maps"]]
            want_shapes = [[t, s if t else 0] for _, s, t, _ in want]
            _expect_equal(failures, "matrix shapes", shapes, want_shapes)
        else:
            got = [[int(c) for c in r] for r in _rows(stdout, fmt)]
        _expect_equal(failures, "degree/source/target/rank", got, want)
    else:
        failures.append(f"no answer check for {' '.join(argv)}")


def check(argv: tuple[str, ...], status, stdout: str, stderr: str) -> tuple[list[str], str]:
    """Failure reasons for one finished operation, and its answer digest."""
    failures: list[str] = []
    if status != 0:
        failures.append(f"exit status {status}")
    if "Traceback" in stderr:
        failures.append("traceback on stderr")
    fmt = _params(argv).get("format", "json")
    answer = stdout
    if not failures:
        try:
            if argv[0] == "verify":
                checks = json.loads(stdout)["result"]["checks"]
                failed = [c["name"] for c in checks if not c["passed"]]
                if failed:
                    failures.append(f"verify checks failed: {failed[:5]}")
                if not checks:
                    failures.append("verify ran no checks")
                answer = json.dumps([[c["name"], c["passed"]] for c in checks])
            else:
                _check_dims_command(argv, stdout, fmt, failures)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            failures.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return failures, hashlib.sha256(answer.encode()).hexdigest()[:16]
