"""CLI surface: grammar, formats, exit codes, and byte-stable output."""

import contextlib
import csv
import io
import itertools
import json
import pathlib
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from confhom import FpMatrix, bv, catalog, cli, enumeration, identities, verify
from confhom.algebra import Element, Monomial, as_prime
from confhom.catalog import MAX_BASIS, plane_config_generators
from confhom.cli import _render_json, build_parser, main
from confhom.enumeration import GradedDims, _plane_totals, monomial_basis, poincare
from confhom.signhom import shifted_weight_slice, sign_rep_homology

from oracles import group_by_degree

ROOT = pathlib.Path(__file__).resolve().parents[1]


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


@pytest.mark.parametrize(("p", "n", "dmax", "listing"), [
    (2, 4, 5, [("i^4", 0), ("i^2 Qi1", 0), ("Qi1^2", 0), ("i^4", 2), ("Qi2", 0),
               ("i^2 Qi1", 2), ("Qi1^2", 2), ("i^4", 4), ("Qi2", 2), ("i^2 Qi1", 4)]),
    (3, 6, 6, [("i^6", 0), ("i^4 u", 0), ("i^6", 2), ("i^4 u", 2), ("b1", 0),
               ("i^6", 4), ("a1", 0), ("i^4 u", 4), ("b1", 2), ("i^6", 6)]),
])
def test_equivariant_s1_tensor_listing_order(capsys, p, n, dmax, listing):
    # (monomial, circle degree) pairs by total degree, then by monomial text
    code, out = run_cli(capsys, "equivariant", "--group", "S1", "--p", str(p), "--n", str(n),
                        "--dmax", str(dmax))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["regime"] == "tensor_bs1"
    assert [(b["monomial"], b["circle_degree"]) for b in result["basis"]] == listing
    assert len(listing) == sum(dim for _, dim in result["dims"])


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


@pytest.mark.parametrize("argv", [
    ["poincare", "--p", "1000000007", "--n", "100000"],
    # Zp is defined only for n = 0, 1 mod p, so its large case takes n = p
    ["equivariant", "--group", "Zp", "--p", "100003", "--n", "100003"],
])
def test_large_prime_counts_match_enumeration(capsys, argv):
    # the series rows are as wide as the answer, not n x dmax cells
    assert main(argv) == 0
    dims = json.loads(capsys.readouterr().out)["result"]["dims"]
    p, n = int(argv[-3]), int(argv[-1])
    enumerated = poincare(plane_config_generators(p, n), n, p)
    if argv[0] == "poincare":
        assert dims == enumerated.to_pairs() == [[0, 1], [1, 1]]
    else:
        dmax = bv.default_degree_bound(n)
        assert dims == enumerated.convolve_geometric(1, dmax).to_pairs()
        assert dims[:3] == [[0, 1], [1, 2], [2, 2]] and dims[-1] == [dmax, 2]


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


@pytest.mark.parametrize("p", [2, 3, 5])
def test_delta_command_applies_delta_once_per_source(monkeypatch, p):
    calls = []
    real = bv.delta

    def counted(m, prime):
        calls.append(m)
        return real(m, prime)

    monkeypatch.setattr(cli, "delta", counted)
    monkeypatch.setattr(bv, "delta", counted)
    for n in range(0, 25, 4):
        calls.clear()
        code, out, _ = _capture(["delta", "--p", str(p), "--n", str(n)])
        assert code == 0
        maps = json.loads(out)["result"]["maps"]
        assert [m.text() for m in calls] == [s for mp in maps for s in mp["source"]]
        for mp in maps:
            assert mp["matrix"] == bv.delta_matrix(n, p, mp["degree"]).a


@pytest.mark.parametrize("fmt", ["json", "table", "csv"])
def test_delta_command_builds_no_dense_matrix(monkeypatch, fmt):
    def refused(self, *args, **kwargs):
        raise AssertionError("the delta command prints int rows, not an FpMatrix")

    monkeypatch.setattr(FpMatrix, "__init__", refused)
    for p in (2, 3, 5):
        for n in (0, 2, 5, 9):
            for degree in ([], ["--degree", "1"]):
                code, out, _ = _capture(["delta", "--p", str(p), "--n", str(n),
                                         "--format", fmt, *degree])
                assert code == 0 and out


_TABLE_ONLY_LISTINGS = [
    ["delta", "--p", "2", "--n", "6"],
    ["delta", "--p", "3", "--n", "9"],
    ["delta", "--p", "5", "--n", "12", "--degree", "1"],
    ["equivariant", "--group", "S1", "--p", "3", "--n", "9"],
    ["equivariant", "--group", "S1", "--p", "3", "--n", "8"],
    ["equivariant", "--group", "S1", "--p", "2", "--n", "7", "--dmax", "5"],
]


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_table_formats_build_only_what_they_print(monkeypatch, fmt):
    # delta and S1 tables print dimensions and ranks: no matrix rows, no
    # monomial text and so no (monomial, circle degree) pairs
    argvs = [argv + ["--format", fmt] for argv in _TABLE_ONLY_LISTINGS]
    expected = [_capture(argv)[:2] for argv in argvs]

    def refused(*args, **kwargs):
        raise AssertionError("a table or csv listing built what only JSON prints")

    monkeypatch.setattr(bv, "_image_rows", refused)
    monkeypatch.setattr(Monomial, "text", refused)
    for argv, (code, out) in zip(argvs, expected):
        assert code == 0 and out
        assert _capture(argv)[:2] == (0, out)


def _table_cells(out: str) -> tuple[list, list]:
    """The header and rows of a `--format table` listing, each line cut at
    the columns its dash line marks."""
    lines = out.rstrip("\n").split("\n")
    starts = [m.start() for m in re.finditer("-+", lines[1])]
    spans = list(zip(starts, starts[1:] + [None]))
    header, *rows = [[line[a:b].strip() for a, b in spans] for line in lines[:1] + lines[2:]]
    return header, rows


def _listing_rows(command, result) -> list[list]:
    """What a table or csv listing prints, read from the JSON result."""
    if command == "basis":
        return [[r["monomial"], r["degree"], r["weight"]] for r in result["rows"]]
    if command == "delta":
        return [[mp["degree"], len(mp["source"]), len(mp["target"]), mp["rank"]]
                for mp in result["maps"]]
    return result["dims"]


# Each listing's command words and its bounds: none, then -3, 0 and 5.
_BOUNDS = ("-3", "0", "5")
_LISTINGS = {
    "basis": (["basis"], [[]]),
    "delta": (["delta"], [[]] + [["--degree", b] for b in _BOUNDS]),
    "S1": (["equivariant", "--group", "S1"], [[]] + [["--dmax", b] for b in _BOUNDS]),
}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("command", list(_LISTINGS))
def test_table_and_csv_rows_are_the_json_fields(p, command):
    words, bounds = _LISTINGS[command]
    for n in range(21):
        for bound in bounds:
            argv_n = words + ["--p", str(p), "--n", str(n), *bound]
            code, out, _ = _capture(argv_n)
            assert code == 0
            result = json.loads(out)["result"]
            want = [[str(c) for c in row] for row in _listing_rows(words[0], result)]
            code, out, _ = _capture(argv_n + ["--format", "table"])
            assert code == 0
            header, rows = _table_cells(out)
            code, out, _ = _capture(argv_n + ["--format", "csv"])
            assert code == 0
            assert rows == want and list(csv.reader(io.StringIO(out))) == [header, *want]
            if command == "S1" and result["regime"] == "tensor_bs1":
                dmax = result["degree_bound"]
                # the listing as a sort of every (total degree, text, circle degree) triple
                pairs = sorted((m.degree + c, m.text(), c)
                               for m in bv.equivariant_s1(n, p, dmax).basis
                               for c in range(0, dmax - m.degree + 1, 2))
                assert result["basis"] == [{"monomial": text, "circle_degree": c}
                                           for _, text, c in pairs]


def _ljust_table(table, header) -> str:
    """A table padded one cell at a time."""
    rows = [header] + [[str(c) for c in row] for row in table]
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


_CELLS = st.one_of(st.integers(-(10**6), 10**6), st.text(" a%s-^\t", max_size=6))


@given(st.integers(1, 4).flatmap(
    lambda k: st.tuples(st.lists(st.text("ab %", min_size=1, max_size=5), min_size=k, max_size=k),
                        st.lists(st.lists(_CELLS, min_size=k, max_size=k), max_size=6))))
def test_table_template_pads_as_each_cell_padded_alone(header_table):
    header, table = header_table
    assert cli._render_table(table, header) == _ljust_table(table, header)


def test_verify_bijection_reports_an_invariant_violation(monkeypatch):
    def broken(m, source, prime, q):
        raise identities.InvariantViolation(f"substitution image of {m.text()} is wrong")

    monkeypatch.setattr(identities, "bijection_image", broken)
    code, out, err = _capture(["verify", "bijection", "--p", "3", "--max-q", "1"])
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "failed"
    for check in payload["result"]["checks"]:
        assert check["passed"] is False
        assert check["details"]["failures"]
    assert "Traceback" not in err


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
    ["verify", "classify", "--p", "2", "--max-n", "300"],
    ["verify", "bijection", "--p", "2", "--max-q", "200"],
])
def test_verify_refuses_an_oversized_basis_before_the_work(argv):
    proc = subprocess.run([sys.executable, "-m", "confhom", *argv],
                          capture_output=True, text=True, timeout=5)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: weight-278 basis of 1053030 monomials exceeds the limit of 1048576\n"


def test_verify_size_check_stops_at_the_first_refused_weight(monkeypatch):
    # 2^20 weights are asked for; plane totals never decrease with weight, so
    # the totals are built only until one passes MAX_BASIS (weight 278 at p = 2)
    argv = ["verify", "classify", "--p", "2", "--max-n", str(MAX_BASIS)]
    proc = subprocess.run([sys.executable, "-m", "confhom", *argv],
                          capture_output=True, text=True, timeout=2)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: weight-278 basis of 1053030 monomials exceeds the limit of 1048576\n"
    built = []
    real = catalog._plane_totals
    monkeypatch.setattr(catalog, "_plane_totals", lambda n, p: built.append(n) or real(n, p))
    with pytest.raises(ValueError, match="weight-278 basis"):
        catalog._refuse_large_bases([range(MAX_BASIS + 1)], 2)
    assert max(built) < 2 * 278


@pytest.mark.parametrize("argv, weight", [
    (["bijection", "--p", "1009", "--max-q", "1039", "--max-n", "0"], 1049360),
    # the sources include bases over MAX_BASIS, and the target weight is named first
    (["bijection", "--p", "2", "--max-q", "600000"], 1200002),
    (["all", "--p", "2", "--max-n", "300", "--max-q", "10000000"], 20000002),
])
def test_verify_refuses_a_bijection_target_before_any_totals(capsys, monkeypatch, argv, weight):
    built = []
    for module in (catalog, verify, enumeration):
        real = module._plane_totals
        monkeypatch.setattr(module, "_plane_totals",
                            lambda n, p, real=real: built.append(n) or real(n, p))
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and built == []
    assert captured.err == f"error: weight must be in 0..1048576, got {weight}\n"


def test_verify_stability_refuses_more_weight_q_pairs_than_the_limit():
    # 13 weights times 100001 values of q; the bound lets max_q reach 80658
    argv = ["verify", "stability", "--p", "3", "--max-q", "100000"]
    proc = subprocess.run([sys.executable, "-m", "confhom", *argv],
                          capture_output=True, text=True, timeout=5)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        "error: q-stability of 1300013 (weight, q) pairs exceeds the limit of 1048576\n"
    )


@pytest.mark.parametrize("n", ["16777215", "100000000"])
def test_sign_over_exterior_generators_answers_at_any_weight(n):
    # below p the one shifted generator is exterior of weight 1, so the series
    # stops at weight 1 and the weight-n answer is empty
    argv = ["sign", "--p", "1000000007", "--n", n, "--q", "0", "--dmax", "10"]
    proc = subprocess.run([sys.executable, "-m", "confhom", *argv],
                          capture_output=True, text=True, timeout=5)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["dims"] == []


def test_verify_reading_only_totals_answers_beyond_the_basis_limit(capsys):
    assert main(["verify", "dimension-identity", "--p", "2", "--max-n", "300"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "ok"
    assert payload["result"]["checks"][1]["name"] == "fixed-points p=2 n<=300"


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


@pytest.mark.parametrize("argv", [
    ["equivariant", "--group", "S1", "--p", "3", "--n", "9", "--dmax", "20000000"],
    ["sign", "--p", "3", "--n", "9", "--q", "0", "--dmax", "20000000"],
    ["equivariant", "--group", "Zp", "--p", "3", "--n", "9", "--dmax", "3000000"],
])
def test_oversized_degree_bound_refused_up_front(capsys, argv):
    started = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: degree bound") and str(MAX_BASIS) in captured.err
    assert "Traceback" not in captured.err


def test_oversized_tensor_basis_refused(capsys):
    # a bound at the limit, with 3145722 (monomial, circle degree) pairs below it
    assert main(["equivariant", "--group", "S1", "--p", "3", "--n", "9", "--dmax", str(MAX_BASIS)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: tensor basis of 3145722 pairs")


def test_tensor_basis_refused_before_its_series_is_built(capsys, monkeypatch):
    def unreachable(self, step, dmax):
        raise AssertionError("the refusal must come from the pair count")

    monkeypatch.setattr(GradedDims, "convolve_geometric", unreachable)
    assert main(["equivariant", "--group", "S1", "--p", "3", "--n", "9", "--dmax", str(MAX_BASIS)]) == 2
    assert capsys.readouterr().err.startswith("error: tensor basis of 3145722 pairs")


def _unexpandable(self, step, dmax):
    raise AssertionError("the JSON writes a circle answer from its numerator")


# (argv, the public function behind it, the expansion from the series slice)
_CIRCLE_COMMANDS = [
    (["sign", "--p", "5", "--n", "40", "--q", "2"], lambda: sign_rep_homology(40, 5, 2),
     lambda: shifted_weight_slice(40, 5, 5).convolve_geometric(2, 96)),
    (["sign", "--p", "3", "--n", "25", "--q", "1", "--dmax", "9"],
     lambda: sign_rep_homology(25, 3, 1, 9),
     lambda: shifted_weight_slice(25, 3, 3).convolve_geometric(2, 9)),
    (["equivariant", "--group", "Zp", "--p", "5", "--n", "41"], lambda: bv.equivariant_zp(41, 5),
     lambda: poincare(plane_config_generators(5, 41), 41, 5).convolve_geometric(1, 98)),
]


@pytest.mark.parametrize("argv, public, expansion", _CIRCLE_COMMANDS,
                         ids=[" ".join(c[0]) for c in _CIRCLE_COMMANDS])
def test_circle_answers_expand_only_outside_the_json(monkeypatch, argv, public, expansion):
    header = ["degree", "dim"]
    want = expansion()
    code, out, _ = _capture(argv)
    assert code == 0 and json.loads(out)["result"]["dims"] == want.to_pairs() != []
    calls = []
    real = GradedDims.convolve_geometric
    monkeypatch.setattr(GradedDims, "convolve_geometric",
                        lambda self, step, dmax: calls.append(step) or real(self, step, dmax))
    pairs = want.to_pairs()
    for fmt, text in (("table", cli._render_table(pairs, header)),
                      ("csv", cli._render_csv([header, *pairs]))):
        assert _capture(argv + ["--format", fmt])[:2] == (0, text + "\n")
    got = public()
    assert type(got) is GradedDims and got == want
    # one expansion for each format and for the public function
    assert calls == [1 if "Zp" in argv else 2] * 3
    monkeypatch.setattr(GradedDims, "convolve_geometric", _unexpandable)
    assert _capture(argv)[:2] == (0, out)


# (argv, the public call, the exception and its message): the first refusal wins, in
# every format unless argv names one; the S1 basis and pair limits are the JSON listing's
_S1 = ["equivariant", "--group", "S1"]
_CIRCLE_REFUSALS = [
    (["sign", "--p", "3", "--n", "-1", "--q", "-1", "--dmax", str(MAX_BASIS + 1)],
     lambda: sign_rep_homology(-1, 3, -1, MAX_BASIS + 1), ValueError, "n and q must be >= 0"),
    (["sign", "--p", "3", "--n", "4", "--q", "-1", "--dmax", str(MAX_BASIS + 1)],
     lambda: sign_rep_homology(4, 3, -1, MAX_BASIS + 1), ValueError, "n and q must be >= 0"),
    (["sign", "--p", "2", "--n", "100000", "--q", "0", "--dmax", str(MAX_BASIS + 1)],
     lambda: sign_rep_homology(100000, 2, 0, MAX_BASIS + 1), ValueError,
     f"degree bound {MAX_BASIS + 1} exceeds the limit of {MAX_BASIS}"),
    (["sign", "--p", "2", "--n", "100000", "--q", "0", "--dmax", "100000"],
     lambda: sign_rep_homology(100000, 2, 0, 100000), ValueError, "series table of at least"),
    (["equivariant", "--group", "Zp", "--p", "3", "--n", "-1", "--dmax", str(MAX_BASIS + 1)],
     lambda: bv.equivariant_zp(-1, 3, MAX_BASIS + 1), ValueError, "n must be >= 0, got -1"),
    (["equivariant", "--group", "Zp", "--p", "3", "--n", "5", "--dmax", str(MAX_BASIS + 1)],
     lambda: bv.equivariant_zp(5, 3, MAX_BASIS + 1), catalog.UnsupportedCaseError,
     "rotation-equivariant homology is computed only for n = 0, 1 mod p (got n=5, p=3)"),
    (["equivariant", "--group", "Zp", "--p", "3", "--n", "100000", "--dmax", str(MAX_BASIS + 1)],
     lambda: bv.equivariant_zp(100000, 3, MAX_BASIS + 1), ValueError,
     f"degree bound {MAX_BASIS + 1} exceeds the limit of {MAX_BASIS}"),
    (["equivariant", "--group", "Zp", "--p", "3", "--n", "100000", "--dmax", "100000"],
     lambda: bv.equivariant_zp(100000, 3, 100000), ValueError, "series table of at least"),
    ([*_S1, "--p", "2", "--n", "-1", "--dmax", str(MAX_BASIS + 1)],
     lambda: bv.equivariant_s1(-1, 2, MAX_BASIS + 1), ValueError, "n must be >= 0, got -1"),
    ([*_S1, "--p", "2", "--n", "400", "--dmax", str(MAX_BASIS + 1), "--format", "json"],
     lambda: bv.equivariant_s1(400, 2, MAX_BASIS + 1), ValueError,
     f"weight-400 basis of 7389572 monomials exceeds the limit of {MAX_BASIS}"),
    ([*_S1, "--p", "2", "--n", "400", "--dmax", str(MAX_BASIS + 1), "--format", "table"],
     lambda: bv._equivariant_s1_dims([400], 2, MAX_BASIS + 1), ValueError,
     f"degree bound {MAX_BASIS + 1} exceeds the limit of {MAX_BASIS}"),
    ([*_S1, "--p", "3", "--n", "9", "--dmax", str(MAX_BASIS + 1)],
     lambda: bv.equivariant_s1(9, 3, MAX_BASIS + 1), ValueError,
     f"degree bound {MAX_BASIS + 1} exceeds the limit of {MAX_BASIS}"),
    ([*_S1, "--p", "3", "--n", "9", "--dmax", str(MAX_BASIS), "--format", "json"],
     lambda: bv.equivariant_s1(9, 3, MAX_BASIS), ValueError, "tensor basis of 3145722 pairs"),
]


@pytest.mark.parametrize("argv, call, error, message", _CIRCLE_REFUSALS,
                         ids=[" ".join(c[0]) for c in _CIRCLE_REFUSALS])
def test_circle_answers_refuse_in_order_before_expanding(monkeypatch, argv, call, error, message):
    monkeypatch.setattr(GradedDims, "convolve_geometric", _unexpandable)
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value).startswith(message)
    fixed = "--format" in argv
    for full in [argv] if fixed else [argv + ["--format", fmt] for fmt in ("json", "table", "csv")]:
        code, out, err = _capture(full)
        assert code == 2 and "Traceback" not in err
        if error is ValueError:
            assert out == "" and err.startswith("error: " + message)
        else:
            assert json.loads(out)["result"] == {"error": str(exc.value)}
            assert err == f"unsupported: {exc.value}\n"


_NUMERATORS = st.one_of(
    st.dictionaries(st.integers(0, 60), st.integers(1, 10**12), max_size=12),
    # one live parity, and gaps of two or more degrees
    st.dictionaries(st.integers(0, 20).map(lambda d: 2 * d + 1), st.integers(1, 9), max_size=6),
    st.dictionaries(st.integers(0, 12).map(lambda d: 3 * d), st.integers(1, 9), max_size=6),
)
_BOUNDS = st.one_of(st.integers(-3, 70), st.integers(100, 3000))


@settings(max_examples=400, deadline=None)
@given(_NUMERATORS, st.sampled_from([1, 2]), _BOUNDS)
@example({}, 2, -3)
@example({}, 1, 40)
@example({5: 1}, 2, 4)
@example({0: 1}, 2, 0)
@example({0: 1, 2: 3}, 2, 1)
@example({1: 2, 7: 1}, 1, 7)
def test_circle_answer_json_is_its_expansion(cells, step, bound):
    answer = bv._CircleAnswer(GradedDims(cells), step, bound)
    expanded = answer.numerator.convolve_geometric(step, bound)
    assert _render_json(answer) == _render_json(expanded)
    assert _render_json({"dims": [answer]}) == _render_json({"dims": [expanded]})
    assert answer.total() == expanded.total()


@settings(max_examples=300, deadline=None)
@given(_NUMERATORS, _NUMERATORS, st.sampled_from([1, 2]), _BOUNDS)
def test_circle_answers_are_equal_exactly_when_their_expansions_are(a, b, step, bound):
    left, right = (bv._CircleAnswer(GradedDims(c), step, bound) for c in (a, {**a, **b}))
    assert (left == right) == (left.expand() == right.expand())
    assert left == bv._CircleAnswer(GradedDims({**a, bound + 1: 1}), step, bound)


def test_degree_bound_is_unused_in_the_cokernel_regime(capsys):
    # n = 8 is 2 mod 3: the answer is finite and no truncated array is built
    argv = ["equivariant", "--group", "S1", "--p", "3", "--n", "8"]
    assert main(argv + ["--dmax", "20000000"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["regime"] == "coker_delta"
    for fmt in ("table", "csv"):
        assert main(argv + ["--format", fmt]) == 0
        unbounded = capsys.readouterr()
        assert main(argv + ["--dmax", "20000000", "--format", fmt]) == 0
        assert capsys.readouterr().out == unbounded.out != ""


_LISTING_TEXT = st.text(st.sampled_from(list(',"\r\n% ab^1\t\u00e9\u2028\u4e2d')), max_size=5)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(-2, 40), st.lists(_LISTING_TEXT, max_size=4)), max_size=5),
       st.one_of(st.integers(-3, 300), st.integers(10**6, 10**9)))
def test_basis_listing_renders_as_its_rows(groups, weight):
    # any degree groups, empty ones and texts csv.writer quotes included
    listing = cli._BasisRows(groups, weight)
    header = ["monomial", "degree", "weight"]
    rows = [(t, d, weight) for d, texts in groups for t in texts]
    table, csv_text = io.StringIO(), io.StringIO()
    listing.write_table(table.write, header)
    listing.write_csv(csv_text.write, header)
    assert table.getvalue() == _ljust_table(rows, header)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    assert csv_text.getvalue() == buf.getvalue().rstrip("\n")
    dicts = [{"monomial": t, "degree": d, "weight": w} for t, d, w in rows]
    assert _render_json({"rows": listing}) == json.dumps({"rows": dicts}, indent=2)
    assert _render_json([listing, 1]) == json.dumps([dicts, 1], indent=2)
    # the S1 cokernel rows share the writer, with the monomial alone
    cokernel = [{"monomial": t} for t, _, _ in rows]
    assert _render_json([cli._CokernelRows(groups)]) == json.dumps([cokernel], indent=2)


@pytest.mark.parametrize("odd", ['"', "\\", "\t", "\n", "\x7f", "\u00e9", "\u2028"])
@pytest.mark.parametrize("keys", [("degree", "weight"), ()])
def test_monomial_rows_quote_plain_groups_and_encode_the_rest(monkeypatch, odd, keys):
    # a group of printable ASCII without '"' or '\\' is quoted as it stands
    groups = [([0, 5], ["i^5", "Qi1 i^3", " ~!#[]"]), ([1, 5], []),
              ([2, 5], ["a" + odd + "b", "u"]), ([3, 5], ["Qi2 i"])]
    encoded = []
    monkeypatch.setattr(cli, "_encode_str", lambda t: encoded.append(t) or json.dumps(t))
    out = []
    cli._write_monomial_rows(keys, [(tuple(v[:len(keys)]), ts) for v, ts in groups],
                             out.append, "\n")
    rows = [{"monomial": t, **dict(zip(keys, v))} for v, ts in groups for t in ts]
    assert "".join(out) == json.dumps(rows, indent=2)
    # only the group holding the odd character went text by text
    assert encoded == ["a" + odd + "b", "u"]


class _TextMonomial:
    """A stand-in monomial: the text and degree the pair builder reads."""

    def __init__(self, text: str, degree: int):
        self._text, self.degree = text, degree

    def text(self) -> str:
        return self._text


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_LISTING_TEXT, st.integers(0, 12), max_size=12), st.integers(-1, 16))
def test_tensor_pairs_render_as_the_old_pair_builder(degrees, dmax):
    # distinct texts, as a basis's are, sorted by (degree, text) as a basis is
    mons = sorted((_TextMonomial(t, d) for t, d in degrees.items()),
                  key=lambda m: (m.degree, m.text()))
    groups = [(d, [m.text() for m in mons if m.degree == d])
              for d in sorted(set(degrees.values()))]
    old = _tensor_pairs_oracle(mons, dmax)
    pairs = cli._TensorPairs(groups, dmax)
    assert _render_json({"basis": pairs}) == json.dumps({"basis": old}, indent=2)


@st.composite
def _delta_maps(draw):
    """Maps (degree, source, target, images, rank) over stand-in monomials:
    empty sources and targets, escaped texts, distinct texts within a target
    as a basis's are, and images of any number of terms in the target."""
    maps = []
    for d in draw(st.lists(st.integers(-1, 40), max_size=4)):
        source = [_TextMonomial(t, d) for t in draw(st.lists(_LISTING_TEXT, max_size=4))]
        target = [_TextMonomial(t, d + 1)
                  for t in draw(st.lists(_LISTING_TEXT, max_size=4, unique=True))]
        terms = st.lists(st.sampled_from(target), max_size=3, unique_by=id) if target else st.just([])
        images = [Element._trusted({m: draw(st.integers(1, 6)) for m in draw(terms)}, as_prime(7))
                  for _ in source]
        maps.append((d, source, target, images, draw(st.integers(0, 5))))
    return maps


@settings(max_examples=300, deadline=None)
@given(_delta_maps())
def test_delta_maps_render_as_the_dict_maps(maps):
    listing = cli._DeltaMaps(maps)
    dicts = _delta_map_dicts(maps)
    assert _render_json({"maps": listing}) == json.dumps({"maps": dicts}, indent=2)
    assert _render_json([listing, 1]) == json.dumps([dicts, 1], indent=2)


def test_delta_json_builds_no_dense_rows(monkeypatch):
    # the listing writes its matrix rows from the images' texts
    argvs = [["delta", "--p", p, "--n", n, *degree]
             for p, n in (("2", "9"), ("3", "8"), ("5", "12"), ("7", "16"))
             for degree in ([], ["--degree", "4"])]
    expected = [_capture(argv)[:2] for argv in argvs]

    def refused(*args, **kwargs):
        raise AssertionError("the delta JSON built the dense int rows")

    monkeypatch.setattr(bv, "_image_rows", refused)
    assert all(code == 0 and '"matrix": [' in out for code, out in expected)
    assert [_capture(argv)[:2] for argv in argvs] == expected


@pytest.mark.parametrize("p, n", [("2", "0"), ("2", "23"), ("3", "1"), ("3", "31"),
                                  ("5", "2"), ("5", "40")])
def test_basis_listing_builds_no_monomial(monkeypatch, p, n):
    # the listing prints the walk's texts: no Monomial is built for any row
    argvs = [["basis", "--p", p, "--n", n, "--format", fmt] for fmt in ("json", "table", "csv")]
    expected = [_capture(argv)[:2] for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("the basis listing built a Monomial")

    monkeypatch.setattr(Monomial, "_canonical", staticmethod(refuse))
    monkeypatch.setattr(Monomial, "__init__", refuse)
    assert all(code == 0 and out for code, out in expected)
    assert [_capture(argv)[:2] for argv in argvs] == expected


@pytest.mark.parametrize("p, n", [("2", "0"), ("2", "23"), ("3", "9"), ("3", "17"),
                                  ("5", "10"), ("5", "33")])
def test_s1_json_listing_builds_no_monomial(monkeypatch, p, n):
    # the tensor pairs and the cokernel rows print the walk's texts
    argvs = [["equivariant", "--group", "S1", "--p", p, "--n", n, *bound]
             for bound in ([], ["--dmax", "5"])]
    expected = [_capture(argv)[:2] for argv in argvs]

    def refuse(*args, **kwargs):
        raise AssertionError("the S1 listing built a Monomial")

    monkeypatch.setattr(Monomial, "_canonical", staticmethod(refuse))
    monkeypatch.setattr(Monomial, "__init__", refuse)
    assert all(code == 0 and '"basis": [' in out for code, out in expected)
    assert [_capture(argv)[:2] for argv in argvs] == expected


def _capture(argv) -> tuple[int, str, str]:
    """Run `main` with stdout and stderr captured; a usage error gives its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_RENDERED_COMMANDS = [
    ["basis", "--p", "3", "--n", "9"],
    ["basis", "--p", "2", "--n", "0"],
    ["basis", "--p", "3", "--n", "0"],
    ["basis", "--p", "2", "--n", "1"],
    ["basis", "--p", "2", "--n", "11"],
    ["basis", "--p", "3", "--n", "17"],
    ["poincare", "--p", "5", "--n", "12"],
    ["delta", "--p", "3", "--n", "6"],
    ["delta", "--p", "3", "--n", "6", "--degree", "2"],
    # no source monomial in degree 3: the matrix has a row and no columns
    ["delta", "--p", "3", "--n", "6", "--degree", "3"],
    ["delta", "--p", "3", "--n", "6", "--degree", "40"],
    # the cokernel regime: nonzero entries, and a degree with no target
    ["delta", "--p", "3", "--n", "8"],
    ["delta", "--p", "5", "--n", "12"],
    ["equivariant", "--group", "S1", "--p", "3", "--n", "6", "--dmax", "12"],
    ["equivariant", "--group", "S1", "--p", "3", "--n", "8"],
    ["equivariant", "--group", "S1", "--p", "3", "--n", "9"],
    ["equivariant", "--group", "S1", "--p", "3", "--n", "9", "--dmax", "0"],
    ["equivariant", "--group", "S1", "--p", "2", "--n", "7", "--dmax", "3"],
    ["equivariant", "--group", "S1", "--p", "2", "--n", "7", "--dmax", "-1"],
    ["equivariant", "--group", "Zp", "--p", "3", "--n", "9", "--dmax", "12"],
    ["equivariant", "--group", "Zp", "--p", "3", "--n", "5"],
    ["sign", "--p", "3", "--n", "3", "--q", "0"],
    ["sign", "--p", "3", "--n", "2", "--q", "0"],
    ["gravity-degree", "--op-degree", "4", "--arity", "3", "--input", "0", "--parity", "even"],
    *(["verify", t, "--p", "3", "--max-n", "8", "--max-q", "1"]
      for t in ("delta2", "dimension-identity", "bijection", "classify", "stability",
                "cross-route", "all")),
    ["verify", "all", "--p", "2", "--max-n", "8", "--max-q", "1"],
]


def _rendered_payloads(monkeypatch, argv) -> tuple[list, str]:
    seen = []
    real = cli._write_json
    # the writer recurses through the module, and only the payload closes at "\n"
    monkeypatch.setattr(cli, "_write_json", lambda payload, write, nl="\n", head="":
                        (nl == "\n" and seen.append(payload)) or real(payload, write, nl, head))
    _, out, _ = _capture(argv)
    return seen, out


def _plain_rows(listing) -> list:
    """`json.dumps` default: a `basis`, S1 or `delta` listing as its rows, a
    GradedDims or a circle answer's expansion as its pairs."""
    if type(listing) is bv._CircleAnswer:
        listing = listing.expand()
    if type(listing) is GradedDims:
        return listing.to_pairs()
    if type(listing) is cli._BasisRows:
        return [{"monomial": t, "degree": d, "weight": listing.weight}
                for d, texts in listing.groups for t in texts]
    if type(listing) is cli._TensorPairs:
        pairs = sorted((d + c, t, c) for d, texts in listing.groups for t in texts
                       for c in range(0, listing.dmax - d + 1, 2))
        return [{"monomial": t, "circle_degree": c} for _, t, c in pairs]
    if type(listing) is cli._CokernelRows:
        return [{"monomial": t} for _, texts in listing.groups for t in texts]
    if type(listing) is cli._DeltaMaps:
        return _delta_map_dicts(listing.maps)
    raise TypeError(f"{type(listing).__name__} is not a listing")


def _delta_map_dicts(maps) -> list[dict]:
    """The `delta` maps (degree, source, target, images, rank) as dicts, the
    matrix from `bv._image_rows` and each image written by `Element.text`."""
    return [{"degree": d,
             "source": [m.text() for m in source],
             "target": [m.text() for m in target],
             "matrix": bv._image_rows(images, target),
             "rank": rank,
             "images": [{"monomial": m.text(), "image": im.text()}
                        for m, im in zip(source, images)]}
            for d, source, target, images, rank in maps]


def _basis_rows_oracle(n: int, p: int) -> list[dict]:
    """The `basis` JSON rows, one dict per monomial of the weight-n basis."""
    gens = plane_config_generators(p, max(n, 1))
    return [{"monomial": m.text(), "degree": m.degree, "weight": m.weight}
            for m in monomial_basis(gens, n, p)]


def _tensor_pairs_oracle(mons: list, dmax: int) -> list[dict]:
    """Each monomial of `mons`, sorted by (degree, text), times the even circle
    degrees through dmax, by total degree D and then text: the monomials of
    degree <= D and D's parity, each degree merged in as a sorted run."""
    by_deg = group_by_degree(mons)
    runs: tuple[list, list] = ([], [])
    pairs = []
    for total in range(dmax + 1):
        run = runs[total % 2]
        if total in by_deg:
            run += [(m.text(), m.degree) for m in by_deg[total]]
            run.sort()
        pairs += [{"monomial": text, "circle_degree": total - d} for text, d in run]
    return pairs


def _delta_maps_oracle(n: int, p: int, degree: int | None) -> list[dict]:
    """The `delta` JSON maps, rebuilt from the weight-n basis, `bv.delta` and
    `bv._delta_rank`, one dict per map and per image."""
    by_deg = catalog._plane_basis(n, p)
    maps = []
    for d in [degree] if degree is not None else by_deg:
        source = by_deg.get(d, [])
        images = [bv.delta(m, p) for m in source]
        maps.append((d, source, by_deg.get(d + 1, []), images, bv._delta_rank(images)))
    return _delta_map_dicts(maps)


def _oracle_payload(payload: dict) -> dict:
    """`payload` with a `basis`, S1 or `delta` listing rebuilt, one dict per
    row, by the row builders above, and its dims (a circle answer's
    expansion) as their pairs; any other payload as it is."""
    result, params = dict(payload["result"]), payload["params"]
    if type(result.get("dims")) is bv._CircleAnswer:
        result["dims"] = result["dims"].expand()
    if type(result.get("dims")) is GradedDims:
        result["dims"] = result["dims"].to_pairs()
    if payload["command"] == "basis" and payload["status"] == "ok":
        result["rows"] = _basis_rows_oracle(params["n"], params["p"])
    elif payload["command"] == "delta" and payload["status"] == "ok":
        result["maps"] = _delta_maps_oracle(params["n"], params["p"], params.get("degree"))
    elif result.get("regime") == bv.REGIME_TENSOR_BS1:
        dmax = result["degree_bound"]
        basis = bv.equivariant_s1(params["n"], params["p"], dmax).basis
        result["basis"] = _tensor_pairs_oracle(basis, dmax)
    elif result.get("regime") == bv.REGIME_COKER_DELTA:
        basis = bv.equivariant_s1(params["n"], params["p"]).basis
        result["basis"] = [{"monomial": m.text()} for m in basis]
    return {**payload, "result": result}


@pytest.mark.parametrize("argv", _RENDERED_COMMANDS, ids=" ".join)
def test_renderer_matches_json_dumps_on_command_payloads(monkeypatch, argv):
    # a `basis`, S1 or `delta` payload holds its listing, which json.dumps
    # reads as its rows; every other payload is plain JSON
    seen, out = _rendered_payloads(monkeypatch, argv)
    assert len(seen) == 1
    expected = json.dumps(seen[0], indent=2, default=_plain_rows)
    assert _render_json(seen[0]) == expected
    assert out == expected + "\n"
    assert json.dumps(_oracle_payload(seen[0]), indent=2) == expected


class _RowsListing:
    """A listing the CLI does not know: lists [text, int], one chunk per row."""

    def __init__(self, rows: list):
        self.rows = rows

    def write_json(self, write, nl: str) -> None:
        inner = nl + "  "
        sep = "["
        for row in self.rows:
            write(sep + inner + json.dumps(row, indent=2).replace("\n", inner))
            sep = ","
        write(nl + "]" if self.rows else "[]")

    def write_table(self, write, header: list[str]) -> None:
        write(cli._render_table(self.rows, header))

    def write_csv(self, write, header: list[str]) -> None:
        write(cli._render_csv([header, *self.rows]))


@pytest.mark.parametrize("rows", [[], [["a^2", 3]], [["x,y", -1], ['"q"', 10**20], ["", 0]]])
def test_a_listing_renders_through_main_by_its_writers(monkeypatch, rows):
    # any value with the three writers is a listing, with no registration
    header = ["monomial", "degree"]
    handler = lambda args: ({"rows": _RowsListing(rows)}, _RowsListing(rows), header)
    monkeypatch.setitem(cli._COMMANDS, "basis", (handler, *cli._COMMANDS["basis"][1:]))
    argv = ["basis", "--p", "2", "--n", "3"]
    payload = {"command": "basis", "params": {"n": 3, "p": 2}, "result": {"rows": rows},
               "status": "ok"}
    assert _capture(argv)[:2] == (0, json.dumps(payload, indent=2) + "\n")
    assert _capture(argv + ["--format", "table"])[:2] == (0, cli._render_table(rows, header) + "\n")
    assert _capture(argv + ["--format", "csv"])[:2] == (0, cli._render_csv([header, *rows]) + "\n")


def test_renderer_matches_json_dumps_on_a_failed_verify(monkeypatch):
    real_rank = bv._delta_rank
    monkeypatch.setattr(bv, "_delta_rank", lambda images: real_rank(images) + 1)
    seen, out = _rendered_payloads(monkeypatch, ["verify", "cross-route", "--p", "3", "--max-n", "8"])
    assert seen[0]["status"] == "failed"
    expected = json.dumps(seen[0], indent=2)
    assert _render_json(seen[0]) == expected
    assert out == expected + "\n"


class _Int(int):
    pass


class _Str(str):
    pass


_TEXT = st.text(
    alphabet=st.one_of(st.characters(), st.sampled_from('"\\%\n\t\x00\x1f\x7f\u00e9\u2028')),
    max_size=6,
)
_BIG_INTS = st.integers(min_value=-(2**80), max_value=2**80)
_SCALARS = st.one_of(
    _TEXT,
    _BIG_INTS,
    st.booleans(),
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.builds(_Int, st.integers(-9, 9)),
    st.builds(_Str, _TEXT),
)
_KEYS = st.one_of(st.sampled_from(["a", "b", "%s", "\u00e9"]), _TEXT, st.integers(-3, 3))


@st.composite
def _int_row_lists(draw):
    """Lists of int rows of one width, as dims pairs and matrix rows are,
    sometimes with one cell or one row's width changed."""
    width = draw(st.integers(0, 3))
    rows = draw(st.lists(st.lists(_BIG_INTS, min_size=width, max_size=width),
                         min_size=1, max_size=4))
    odd = draw(st.sampled_from(["none", "cell", "width"]))
    if odd == "cell" and width:
        rows[-1][-1] = draw(_SCALARS)
    elif odd == "width":
        rows[-1] = rows[-1][1:] if width else [draw(_BIG_INTS)]
    return rows


@st.composite
def _dict_row_lists(draw):
    """Lists of flat dicts sharing one key tuple and one type per column,
    sometimes with one row changed."""
    keys = draw(st.lists(st.sampled_from(["a", "b", "%s", "%%", "\u00e9", '"q"', 0]),
                         min_size=1, max_size=3, unique=True))
    row = st.fixed_dictionaries(
        {k: draw(st.sampled_from([_TEXT, _BIG_INTS])) for k in keys})
    rows = draw(st.lists(row, min_size=1, max_size=4))
    last = rows[-1]
    odd = draw(st.sampled_from(["none", "value", "order", "extra key", "missing key", "empty"]))
    if odd == "value":
        last[keys[-1]] = draw(_SCALARS)
    elif odd == "order":
        rows[-1] = dict(reversed(last.items()))
    elif odd == "extra key":
        last[draw(_KEYS)] = draw(_SCALARS)
    elif odd == "missing key":
        del last[keys[0]]
    elif odd == "empty":
        rows[-1] = {}
    return rows


def _nested(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(_KEYS, children, max_size=4),
        _int_row_lists(),
        _dict_row_lists(),
    )


@settings(max_examples=250, deadline=None)
@given(st.recursive(_SCALARS, _nested, max_leaves=40))
def test_renderer_matches_json_dumps_on_nested_payloads(payload):
    assert _render_json(payload) == json.dumps(payload, indent=2)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(-50, 10**7),
                       st.one_of(st.integers(1, 10**6), st.integers(2**63, 2**90)), max_size=30),
       st.integers(0, 2))
@example({}, 0)
@example({}, 2)
@example({3: 2**63, 0: 1, 1: 2**64 + 1}, 1)
def test_dims_render_as_their_pairs(cells, depth):
    # a GradedDims in a payload is written as its [degree, dim] pairs
    dims = GradedDims(cells)
    payload, plain = dims, dims.to_pairs()
    for _ in range(depth):
        payload, plain = {"dims": payload, "total": 1}, {"dims": plain, "total": 1}
    assert _render_json(payload) == json.dumps(plain, indent=2)
    assert _render_json([payload, 1]) == json.dumps([plain, 1], indent=2)


@pytest.mark.parametrize("argv", [
    ["poincare", "--p", "3", "--n", "40"],
    ["poincare", "--p", "2", "--n", "0"],
    ["sign", "--p", "5", "--n", "31", "--q", "1"],
    ["sign", "--p", "2", "--n", "12", "--q", "0", "--dmax", "3"],
    ["equivariant", "--group", "Zp", "--p", "3", "--n", "28"],
    ["equivariant", "--group", "S1", "--p", "3", "--n", "27"],
    ["equivariant", "--group", "S1", "--p", "3", "--n", "29"],
], ids=" ".join)
def test_answer_dims_hold_python_ints(monkeypatch, argv):
    # the renderer writes a GradedDims, or a circle answer's numerator, with
    # %d and checks no cell: every degree and dim the package puts in one is
    # a Python int
    seen, _ = _rendered_payloads(monkeypatch, argv)
    dims = seen[0]["result"]["dims"]
    if type(dims) is bv._CircleAnswer:
        assert type(dims.step) is type(dims.bound) is int
        dims = dims.numerator
    assert type(dims) is GradedDims and dims.dims
    assert {type(k) for k in dims.dims} == {type(v) for v in dims.dims.values()} == {int}


def test_main_reuses_one_parser_without_leaking_options(capsys):
    assert build_parser() is not build_parser()
    assert main(["delta", "--p", "3", "--n", "6", "--degree", "2"]) == 0
    with pytest.raises(SystemExit):
        main(["basis", "--p", "3"])
    capsys.readouterr()
    assert main(["delta", "--p", "3", "--n", "6"]) == 0
    out = capsys.readouterr().out
    fresh = subprocess.run(
        [sys.executable, "-m", "confhom", "delta", "--p", "3", "--n", "6"],
        capture_output=True,
        text=True,
    )
    assert fresh.returncode == 0
    assert out == fresh.stdout
    assert "degree" not in json.loads(out)["params"]
    # the `=` forms go through the reused argparse parser
    assert main(["delta", "--p=3", "--n=6", "--degree=2"]) == 0
    capsys.readouterr()
    assert main(["delta", "--p=3", "--n=6"]) == 0
    assert capsys.readouterr().out == out


_FUZZ_P = st.sampled_from(["-3", "0", "1", "2", "3", "4", "5", "7", "9"])
_FUZZ_N = st.integers(-3, 12).map(str)
_FUZZ_FORMAT = st.sampled_from([[], ["--format", "json"], ["--format", "table"], ["--format", "csv"]])
_FUZZ_COMMANDS = st.one_of(
    st.tuples(st.just(["basis"]), _FUZZ_P, _FUZZ_N).map(
        lambda a: a[0] + ["--p", a[1], "--n", a[2]]),
    st.tuples(st.just(["poincare"]), _FUZZ_P, _FUZZ_N).map(
        lambda a: a[0] + ["--p", a[1], "--n", a[2]]),
    st.tuples(_FUZZ_P, _FUZZ_N, st.sampled_from([[], ["--degree", "-1"], ["--degree", "0"],
                                                 ["--degree", "3"], ["--degree", "50"]])).map(
        lambda a: ["delta", "--p", a[0], "--n", a[1], *a[2]]),
    st.tuples(st.sampled_from(["S1", "Zp"]), _FUZZ_P, _FUZZ_N, st.integers(-3, 30)).map(
        lambda a: ["equivariant", "--group", a[0], "--p", a[1], "--n", a[2], "--dmax", str(a[3])]),
    st.tuples(_FUZZ_P, _FUZZ_N, st.integers(-2, 3), st.integers(-3, 30)).map(
        lambda a: ["sign", "--p", a[0], "--n", a[1], "--q", str(a[2]), "--dmax", str(a[3])]),
    st.tuples(st.integers(-2, 6), st.integers(-1, 4), st.integers(-1, 6),
              st.sampled_from(["even", "odd"])).map(
        lambda a: ["gravity-degree", "--op-degree", str(a[0]), "--arity", str(a[1]),
                   "--input", str(a[2]), "--parity", a[3]]),
    st.tuples(st.sampled_from(["delta2", "dimension-identity", "bijection", "classify",
                               "stability", "cross-route", "all"]),
              _FUZZ_P, st.integers(-1, 6), st.integers(-1, 2)).map(
        lambda a: ["verify", a[0], "--p", a[1], "--max-n", str(a[2]), "--max-q", str(a[3])]),
    # token soup: missing, repeated and unknown options
    st.lists(st.sampled_from(["basis", "delta", "verify", "all", "--p", "--n", "3", "-1",
                              "--degree", "--format", "xml", "--help-me"]), max_size=6),
)


@settings(max_examples=150, deadline=None)
@given(_FUZZ_COMMANDS, _FUZZ_FORMAT)
@example(["basis", "--p", "2", "--n", "278"], [])  # first weight above MAX_BASIS at p = 2
@example(["poincare", "--p", "2", "--n", "20000"], [])  # series table above MAX_SERIES_BITS
@example(["equivariant", "--group", "S1", "--p", "3", "--n", "9", "--dmax", str(MAX_BASIS)], [])
@example(["equivariant", "--group", "S1", "--p", "3", "--n", "9", "--dmax", str(MAX_BASIS + 1)], [])
@example(["equivariant", "--group", "Zp", "--p", "3", "--n", "9", "--dmax", str(MAX_BASIS + 1)], [])
@example(["sign", "--p", "3", "--n", "9", "--q", "0", "--dmax", str(MAX_BASIS + 1)], [])
def test_cli_fuzz_exits_cleanly(argv, fmt):
    code, out, err = _capture(argv + fmt)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code in (0, 1) and fmt[1:] in ([], ["json"]):
        assert json.loads(out)["status"] == ("ok" if code == 0 else "failed")


def _parsed(argv) -> dict | None:
    """vars() of the namespace main's argparse parser reads from argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parser().parse_args(argv))
        except SystemExit:
            return None


# Each command's options, and values for each: in and out of range, and
# int forms argparse reads (with `int`) or takes for an option.
_ARGV_OPTIONS = {
    "basis": ["--p", "--n"],
    "poincare": ["--p", "--n"],
    "delta": ["--p", "--n", "--degree"],
    "equivariant": ["--group", "--p", "--n", "--dmax"],
    "sign": ["--p", "--n", "--q", "--dmax"],
    "gravity-degree": ["--op-degree", "--arity", "--input", "--parity"],
    "verify": ["--p", "--max-n", "--max-q"],
}
_ARGV_CHOICES = {"--format": ["json", "table", "csv", "xml"], "--group": ["S1", "Zp", "S2"],
                 "--parity": ["even", "odd", "Even"]}
_ODD_VALUES = ["-0", "+3", " 4", "-3 ", "-3\t", "1_0", "-1_0", "\u0663", "-\u0663", "007",
               "2**70", "", "-", "-x", "-3\n", "--p", "-h"]


def _argv_values(flag):
    if flag in _ARGV_CHOICES:
        return st.one_of(st.sampled_from(_ARGV_CHOICES[flag]), st.sampled_from(_ODD_VALUES))
    return st.one_of(st.integers(-3, 12).map(str), st.sampled_from(_ODD_VALUES))


@st.composite
def _structured_argvs(draw):
    """A command with each option kept, dropped, repeated, abbreviated or
    joined to its value by "=", the options maybe shuffled, verify's target
    maybe after an option, and maybe one more token or one fewer."""
    command = draw(st.sampled_from(list(_ARGV_OPTIONS)))
    pairs = []
    for flag in ["--format", *_ARGV_OPTIONS[command]]:
        form = draw(st.sampled_from(["keep"] * 4 + ["drop", "repeat", "abbreviate", "join"]))
        value = draw(_argv_values(flag))
        if form == "abbreviate":
            flag = flag[:draw(st.integers(2, len(flag) - 1))]
        if form == "join":
            pairs.append([f"{flag}={value}"])
        elif form != "drop":
            pairs.append([flag, value])
        if form == "repeat":
            pairs.append([flag, draw(_argv_values(flag))])
    if draw(st.booleans()):
        pairs = draw(st.permutations(pairs))
    if command == "verify":
        target = draw(st.sampled_from([*verify.VERIFY_TARGETS, "nope"]))
        pairs.insert(draw(st.one_of(st.just(0), st.integers(0, len(pairs)))), [target])
    argv = [command, *itertools.chain.from_iterable(pairs)]
    tail = draw(st.sampled_from([None] * 6 + ["-h", "--help", "--", "extra", "--zz", "drop"]))
    return argv[:-1] if tail == "drop" else argv + [tail] * (tail is not None)


@settings(max_examples=600, deadline=None)
@given(st.one_of(_FUZZ_COMMANDS, _structured_argvs()))
@example(["verify", "all", "--p", "3", "--max-n", "-0", "--format", "csv"])
@example(["sign", "--q", "-1", "--n", "007", "--p", " 4", "--dmax", "1_0"])
@example(["equivariant", "--p", "3", "--n", "9", "--group", "Zp", "--dmax", "-\u0663"])
@example(["sign", "--p", "3", "--n", "9", "--q", "-1_0"])
@example(["basis", "--p", "3", "--n", "-3\t"])
@example(["gravity-degree", "--op-degree", "+3", "--arity", "2", "--input", "0",
          "--parity", "even", "--format", "table"])
def test_reader_gives_the_argparse_namespace_or_none(argv):
    # anything argparse refuses, the reader leaves to it
    read = cli._read_argv(argv)
    assert read is None or vars(read) == _parsed(argv)


@pytest.mark.parametrize("argv", [
    ["basis", "--p", 3, "--n", "3"],
    [b"basis", "--p", "3", "--n", "3"],
    ["verify", None, "--p", "3"],
    [],
])
def test_reader_leaves_non_str_tokens_to_argparse(argv):
    assert cli._read_argv(argv) is None


def _workflow_commands() -> list[tuple[str, list[str]]]:
    """(step name, argv) of each `python -m confhom` line of the CI workflow."""
    step, commands = None, []
    for line in (ROOT / ".github" / "workflows" / "tests.yml").read_text().splitlines():
        if line.strip().startswith("- name:"):
            step = line.split(":", 1)[1].strip()
        elif "python -m confhom" in line:
            tokens = shlex.split(line.split("python -m confhom", 1)[1])
            argv = itertools.takewhile(lambda t: not t.startswith((">", "2>", "|")), tokens)
            commands.append((step, list(argv)))
    return commands


def _untimed(err: str) -> str:
    return re.sub(r"^elapsed_ms=.*\n", "", err, flags=re.M)


def test_benchmark_readme_and_ci_commands_skip_argparse(monkeypatch):
    # the first round of every benchmark stream and the README examples run
    # with no argparse parser at all, byte for byte as through argparse; the
    # CI commands, too heavy to run here, read to argparse's namespace, and
    # the usage smoke step's forms are left to argparse
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    commands = [list(op.argv) for name in workloads.WORKLOADS
                for op in itertools.takewhile(lambda op: op.round < 1,
                                              workloads.operations(name, 0))]
    readme = (ROOT / "README.md").read_text()
    commands += [line.split()[1:] for line in re.findall(r"^confhom .*$", readme, flags=re.M)]
    ci = _workflow_commands()
    usage = [argv for step, argv in ci if step == "Usage smoke"]
    assert len(usage) >= 5 and all(cli._read_argv(argv) is None for argv in usage)
    for _, argv in ci:
        if argv not in usage:
            assert (read := cli._read_argv(argv)) is not None and vars(read) == _parsed(argv)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_read_argv", lambda argv: None)
        expected = [_capture(argv) for argv in commands]

    def no_parser():
        raise AssertionError("argparse parser built")

    monkeypatch.setattr(cli, "_parser", no_parser)
    for argv, (code, out, err) in zip(commands, expected):
        got_code, got_out, got_err = _capture(argv)
        assert (got_code, got_out, _untimed(got_err)) == (code, out, _untimed(err)), argv
    assert len(commands) == 9 + 18 + 21 + 8


@pytest.mark.parametrize("argv", [
    ["--help"],
    ["verify", "--help"],
    ["basis", "--p", "3"],  # missing --n
    ["verify", "--p", "2", "dimension-identity"],  # the target after an option
], ids=" ".join)
def test_module_entry_point_leaves_other_forms_to_argparse(monkeypatch, argv):
    # compared with the parser in process: the help text differs across Python versions
    monkeypatch.setenv("COLUMNS", "80")
    assert cli._read_argv(argv) is None
    proc = subprocess.run([sys.executable, "-m", "confhom", *argv],
                          capture_output=True, text=True, timeout=60)
    code, out, err = _capture(argv)
    assert (proc.returncode, proc.stdout, _untimed(proc.stderr)) == (code, out, _untimed(err))
    assert code == (2 if argv[-1] == "3" else 0) and out + err


class _CountingSink:
    """A stdout that counts the characters written to it and keeps none."""

    def __init__(self):
        self.size = 0

    def write(self, text: str) -> int:
        self.size += len(text)
        return len(text)

    def flush(self) -> None:
        pass


def test_listing_memory_stays_near_the_walk():
    # written as it is formatted, a listing holds one degree group's text
    # beside the walk's texts, in every format, and no whole-payload string
    tracemalloc.start()
    try:
        catalog._plane_basis(200, 2, texts=True)
        walk = tracemalloc.get_traced_memory()[1]
        peaks, sizes = {}, {}
        for fmt in ("json", "table", "csv"):
            tracemalloc.reset_peak()
            sink = _CountingSink()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
                assert main(["basis", "--p", "2", "--n", "200", "--format", fmt]) == 0
            peaks[fmt], sizes[fmt] = tracemalloc.get_traced_memory()[1], sink.size
    finally:
        tracemalloc.stop()
    assert sizes == {"json": 23154476, "table": 10694326, "csv": 7318708}
    assert all(peak <= 1.5 * walk for peak in peaks.values()), (walk, peaks)


@pytest.mark.parametrize("argv, code", [
    (["basis", "--p", "2", "--n", "278"], 2),
    (["basis", "--p", "2", "--n", "278", "--format", "csv"], 2),
    (["basis", "--p", "4", "--n", "3"], 2),
    (["delta", "--p", "2", "--n", "400"], 2),
    (["equivariant", "--group", "S1", "--p", "3", "--n", "9", "--dmax", str(MAX_BASIS)], 2),
    (["equivariant", "--group", "S1", "--p", "2", "--n", "270"], 2),
    (["sign", "--p", "3", "--n", "9", "--q", "0", "--dmax", str(MAX_BASIS + 1)], 2),
    (["poincare", "--p", "2", "--n", "20000"], 2),
    (["equivariant", "--group", "Zp", "--p", "3", "--n", "5"], 2),
    (["equivariant", "--group", "Zp", "--p", "3", "--n", "5", "--format", "table"], 2),
    (["basis", "--p", "3", "--n", "30"], 0),
    (["basis", "--p", "3", "--n", "30", "--format", "table"], 0),
    (["equivariant", "--group", "S1", "--p", "3", "--n", "27"], 0),
    (["delta", "--p", "3", "--n", "12"], 0),
], ids=lambda a: " ".join(a) if isinstance(a, list) else str(a))
def test_the_handler_finishes_before_the_first_write(monkeypatch, argv, code):
    # a refusal writes nothing to stdout, or only the unsupported payload
    events = []
    handler, *spec = cli._COMMANDS[argv[0]]

    def spied(args):
        try:
            return handler(args)
        finally:
            events.append(None)

    monkeypatch.setitem(cli._COMMANDS, argv[0], (spied, *spec))
    sink = types.SimpleNamespace(write=events.append, flush=lambda: None)
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == code
    assert events[0] is None and None not in events[1:]
    out = "".join(events[1:])
    if code == 0:
        assert out.endswith("\n")
    elif "Zp" in argv:
        payload = json.loads(out)
        assert payload["status"] == "unsupported"
        assert out == json.dumps(payload, indent=2) + "\n"
    else:
        assert out == ""


@pytest.mark.parametrize("fmt", ["json", "table", "csv"])
def test_a_reader_that_closes_early_ends_the_listing_quietly(fmt):
    # the listing is larger than a pipe's buffer, so a write meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "confhom", "basis", "--p", "2", "--n", "120", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == ""
