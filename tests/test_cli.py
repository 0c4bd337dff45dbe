"""CLI surface: grammar, formats, exit codes, and byte-stable output."""

import json
import subprocess
import sys
import time

import pytest

from confhom import FpMatrix
from confhom.catalog import MAX_BASIS
from confhom.cli import main
from confhom.enumeration import _plane_totals


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_basis_table_golden(capsys):
    code, out = run_cli(capsys, "basis", "--p", "3", "--n", "9", "--format", "table")
    assert code == 0
    assert out == (
        "monomial  degree  weight\n"
        "--------  ------  ------\n"
        "i^9       0       9\n"
        "i^7 u     1       9\n"
        "i^3 b1    4       9\n"
        "i u b1    5       9\n"
        "i^3 a1    5       9\n"
        "i u a1    6       9\n"
    )


def test_basis_json_schema(capsys):
    code, out = run_cli(capsys, "basis", "--p", "3", "--n", "6")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["command", "params", "result", "status"]
    assert payload["command"] == "basis"
    assert payload["params"] == {"n": 6, "p": 3}
    assert payload["status"] == "ok"
    rows = payload["result"]["rows"]
    assert [r["degree"] for r in rows] == [0, 1, 4, 5]
    assert all(r["weight"] == 6 for r in rows)
    # round-trip through the documented schema
    assert json.loads(json.dumps(payload)) == payload


def test_output_bytes_stable(capsys):
    _, first = run_cli(capsys, "poincare", "--p", "3", "--n", "9")
    _, second = run_cli(capsys, "poincare", "--p", "3", "--n", "9")
    assert first == second
    payload = json.loads(first)
    assert payload["result"] == {"dims": [[0, 1], [1, 1], [4, 1], [5, 2], [6, 1]], "total": 6}


def test_delta_command(capsys):
    code, out = run_cli(capsys, "delta", "--p", "3", "--n", "2", "--degree", "0")
    assert code == 0
    maps = json.loads(out)["result"]["maps"]
    assert maps == [
        {
            "degree": 0,
            "source": ["i^2"],
            "target": ["u"],
            "matrix": [[2]],
            "rank": 1,
            "images": [{"monomial": "i^2", "image": "2*u"}],
        }
    ]


def test_equivariant_s1_json(capsys):
    code, out = run_cli(capsys, "equivariant", "--group", "S1", "--p", "3", "--n", "2", "--dmax", "4")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["regime"] == "coker_delta"
    assert result["dims"] == [[0, 1]]
    assert result["basis"] == [{"monomial": "i^2"}]


def test_equivariant_zp_unsupported_exits_2(capsys):
    code, out = run_cli(capsys, "equivariant", "--group", "Zp", "--p", "3", "--n", "5")
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "unsupported"
    assert "n = 0, 1 mod p" in payload["result"]["error"]


def test_sign_zero_answer(capsys):
    code, out = run_cli(capsys, "sign", "--p", "3", "--n", "2", "--q", "0")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["dims"] == [] and result["total_through_bound"] == 0


def test_gravity_degree_csv(capsys):
    code, out = run_cli(capsys, "gravity-degree", "--op-degree", "4", "--arity", "3",
                        "--input", "0", "--parity", "even", "--format", "csv")
    assert code == 0
    assert out == "degree\n5\n"


def test_gravity_degree_parity_mismatch_exits_2(capsys):
    code, _ = run_cli(capsys, "gravity-degree", "--op-degree", "0", "--arity", "2",
                      "--input", "1", "--parity", "even")
    assert code == 2


def test_verify_subcommand_ok(capsys):
    code, out = run_cli(capsys, "verify", "bijection", "--p", "3", "--max-q", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok" and payload["result"]["passed"]
    assert len(payload["result"]["checks"]) == 3


def test_verify_all_default_bounds_exits_0(capsys):
    code, out = run_cli(capsys, "verify", "all", "--p", "3", "--max-n", "24", "--max-q", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "ok"
    assert payload["result"]["passed"]
    assert len(payload["result"]["checks"]) > 10


def test_verify_csv_format(capsys):
    code, out = run_cli(capsys, "verify", "dimension-identity", "--p", "2",
                        "--max-n", "8", "--max-q", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "check,status"
    assert all(line.endswith(",pass") for line in lines[1:])


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["basis", "--p", "3"])  # missing --n
    assert err.value.code == 2


def test_composite_p_exits_2(capsys):
    assert main(["basis", "--p", "4", "--n", "2"]) == 2
    assert capsys.readouterr().out == ""


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "confhom", "poincare", "--p", "3", "--n", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["result"] == {"dims": [[0, 1], [1, 1]], "total": 2}
    # timing goes to the diagnostics channel, never the payload
    assert "elapsed_ms" in proc.stderr
    assert "elapsed_ms" not in proc.stdout


@pytest.mark.parametrize("argv", [
    ["delta", "--p", "9223372036854775837", "--n", "5"],
    ["verify", "cross-route", "--p", "9223372036854775837", "--max-n", "6"],
])
def test_primes_beyond_int64_products_answer(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["status"] == "ok"
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("target", ["delta2", "dimension-identity", "bijection", "classify",
                                    "stability", "cross-route", "all"])
@pytest.mark.parametrize("bound", [["--max-n", "-3"], ["--max-q", "-1"]])
def test_verify_negative_bounds_exit_2(capsys, target, bound):
    assert main(["verify", target, "--p", "3", *bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("p", [2, 3, 5])
def test_delta_rank_matches_printed_matrix(capsys, p):
    for n in range(31):
        assert main(["delta", "--p", str(p), "--n", str(n)]) == 0
        for mp in json.loads(capsys.readouterr().out)["result"]["maps"]:
            matrix = FpMatrix(mp["matrix"], p, shape=(len(mp["target"]), len(mp["source"])))
            assert mp["rank"] == matrix.rank()


@pytest.mark.parametrize("target", ["bijection", "dimension-identity"])
def test_verify_at_large_prime_answers(capsys, target):
    # the weight-20014 totals come from the one-variable series, not a table
    assert main(["verify", target, "--p", "10007", "--max-q", "1"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["result"]["passed"] is True
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("p", ["1000000007", "9223372036854775837"])
@pytest.mark.parametrize("target, max_q", [("bijection", "0"), ("dimension-identity", "1")])
def test_verify_totals_beyond_weight_limit_exit_2(capsys, p, target, max_q):
    # the totals of weight p or p + 1 would need a list of p Python ints
    assert main(["verify", target, "--p", p, "--max-q", max_q]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["basis", "--p", "2", "--n", "400"],
    ["delta", "--p", "2", "--n", "400"],
    ["equivariant", "--group", "S1", "--p", "2", "--n", "400"],
])
def test_oversized_basis_refused_up_front(capsys, argv):
    started = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "7389572" in captured.err
    assert "Traceback" not in captured.err
    # the bound leaves the largest bases the benchmark and the roadmap ask for
    assert _plane_totals(400, 2)[400] == 7389572 > MAX_BASIS
    assert _plane_totals(200, 2)[200] == 205658 <= MAX_BASIS
