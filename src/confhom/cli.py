"""Command-line interface with deterministic, machine-readable output.

Every payload is byte-identical across runs for identical arguments: the
JSON schema is {"command", "params", "result", "status"} with stable key
order, and timing goes to stderr only.  Exit codes: 0 on success, 1 when a
verification fails, 2 on usage errors or mathematically unsupported cases,
141 (128 + SIGPIPE, with no traceback) when the reader closes stdout early.

The handler finishes, refusals included, before the first byte is written,
so a refused command writes nothing but its unsupported payload.  Only a
JSON listing enumerates a basis, and only it meets the basis and pair
limits; a count table or csv reads the Hilbert series.  JSON is written as
it is formatted, byte-identical to `json.dumps(payload, indent=2)` with
each listing (any value with a `write_json`, and a `write_table` and
`write_csv` if those formats print it) as its rows.  Dims, a `GradedDims`
or a circle answer, are their (degree, dim) rows in every format, from one
row writer that reads a circle answer's numerator.  A well-formed argv is
read against `_COMMANDS` without argparse, which is imported only for
help, usage errors and other forms.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str
from operator import add, sub
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .algebra import as_prime
from .bv import (
    REGIME_TENSOR_BS1,
    _CircleAnswer,
    _delta_counts,
    _delta_rank,
    _equivariant_s1,
    _equivariant_s1_dims,
    _equivariant_zp,
    default_degree_bound,
    delta,
    gravity_op_degree,
)
from .catalog import UnsupportedCaseError, _plane_basis, plane_config_generators
from .enumeration import GradedDims, series_coefficient
# `sign_rep_homology` is not called here: perfbench's self-test checks `cli` binds it
from .signhom import _sign_answer, sign_rep_homology  # noqa: F401
from .verify import VERIFY_TARGETS, run_verifications

if TYPE_CHECKING:
    import argparse  # imported by `build_parser`, for the forms `_read_argv` leaves to it


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="confhom",
        description="Mod-p homology of planar configuration spaces and braid quotients",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, targets, options) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        if targets is not None:
            sp.add_argument("target", choices=targets)
        for flag, (dest, kind, required, default) in options.items():
            typed = {"type": int} if kind is int else {"choices": kind}
            sp.add_argument(flag, dest=dest, required=required, default=default, **typed)
    return parser


def _read_argv(argv: list) -> SimpleNamespace | None:
    """The namespace `build_parser().parse_args(argv)` returns, for the one
    form read here: the command, verify's target, then each of its options
    at most once, each followed by its value, a value starting with "-"
    only as "-" and ASCII digits, every required option given.  None for
    anything else, which `main` hands to argparse: help, usage errors and
    the other forms it accepts (`--opt=value`, abbreviations, repeats)."""
    if not argv or set(map(type, argv)) != {str} or argv[0] not in _COMMANDS:
        return None
    command = argv[0]
    _, _, targets, options = _COMMANDS[command]
    values = {dest: default for dest, _, _, default in options.values()}
    values["command"], start = command, 1
    if targets is not None:
        if len(argv) < 2 or argv[1] not in targets:
            return None
        values["target"], start = argv[1], 2
    flags, given = argv[start::2], argv[start + 1::2]
    if len(flags) != len(given) or len(set(flags)) != len(flags):
        return None
    for flag, value in zip(flags, given):
        if flag not in options:
            return None
        dest, kind, _, _ = options[flag]
        if value[:1] == "-" and not (value[1:].isdigit() and value[1:].isascii()):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif value not in kind:
            return None
        values[dest] = value
    if not all(flag in flags for flag, spec in options.items() if spec[2]):
        return None
    return SimpleNamespace(**values)


# The JSON result, the table (rows, dims or a listing) and header; a listing leaves None what it omits.
_Answer = tuple[dict | None, object, list[str]]


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses: built on the first call, not at import."""
    return build_parser()


def _cmd_basis(args) -> _Answer:
    rows = _BasisRows(list(_plane_basis(args.n, args.p, texts=True).items()), args.n)
    return {"rows": rows}, rows, ["monomial", "degree", "weight"]


@dataclass(frozen=True)
class _BasisRows:
    """The rows (monomial, degree, weight) of a weight-n basis, held as each
    degree's monomial texts in listing order.  Every format is rendered with
    one join per degree, since a degree's rows differ only in their text."""

    groups: list[tuple[int, list[str]]]
    weight: int

    def write_json(self, write, nl: str) -> None:
        groups = [((d, self.weight), texts) for d, texts in self.groups]
        _write_monomial_rows(("degree", "weight"), groups, write, nl)

    def write_table(self, write, header: list[str]) -> None:
        """`_render_table` of the rows, one chunk per degree."""
        groups = [(str(d), texts) for d, texts in self.groups if texts]
        weight = str(self.weight)
        widths = (
            max([len(header[0])] + [max(map(len, texts)) for _, texts in groups]),
            max([len(header[1])] + [len(d) for d, _ in groups]),
            max([len(header[2])] + [len(weight)] * bool(groups)),
        )
        write(_table_head(header, widths))
        for d, texts in groups:
            # the last column is not padded: `_render_table` strips it
            tail = "  " + d.ljust(widths[1]) + "  " + weight
            write("\n" + (tail + "\n").join([t.ljust(widths[0]) for t in texts]) + tail)

    def write_csv(self, write, header: list[str]) -> None:
        """`_render_csv` of the header and rows, one chunk per degree: a degree
        whose texts need no quoting is joined, any other goes through
        `csv.writer`."""
        write(_render_csv([header]))
        for d, texts in self.groups:
            if not texts:
                continue
            blob = "".join(texts)
            if "," in blob or '"' in blob or "\r" in blob or "\n" in blob:
                rows = zip(texts, itertools.repeat(d), itertools.repeat(self.weight))
                write("\n" + _render_csv(rows))
            else:
                tail = f",{d},{self.weight}"
                write("\n" + (tail + "\n").join(texts) + tail)


def _cmd_poincare(args) -> _Answer:
    prime = as_prime(args.p)
    gens = plane_config_generators(prime, max(args.n, 1))
    dims = series_coefficient(gens, args.n, None, prime)
    return {"dims": dims, "total": dims.total()}, dims, ["degree", "dim"]


def _cmd_delta(args) -> _Answer:
    header = ["degree", "source_dim", "target_dim", "rank"]
    if args.format != "json":
        return None, _delta_counts(args.n, args.p, args.degree), header
    prime = as_prime(args.p)
    by_deg = _plane_basis(args.n, prime)
    degrees = [args.degree] if args.degree is not None else by_deg
    maps = []
    for d in degrees:
        source = by_deg.get(d, [])
        images = [delta(m, prime) for m in source]
        maps.append((d, source, by_deg.get(d + 1, []), images, _delta_rank(images)))
    return {"maps": _DeltaMaps(maps)}, None, header


@dataclass(frozen=True)
class _DeltaMaps:
    """The operator's maps, one (degree, source, target, images, rank) per
    degree: the walk's monomials of the degree and the next, the image of
    each source and the rank, listed as JSON by `write_json`."""

    maps: list[tuple[int, list, list, list, int]]

    def write_json(self, write, nl: str) -> None:
        """The maps as `_write_json` writes a list of dicts {"degree",
        "source", "target", "matrix", "rank", "images"} closing at `nl`, one
        chunk per degree in one pass over the monomials' texts: the matrix
        rows with no nonzero entry are one string per degree, a row with
        entries is a copy of the zero cells with those set, and a target's
        row is found by its text, which is distinct within a weight."""
        inner = nl + "  "
        cell = inner + "  "
        item = cell + "  "
        entry = item + "  "
        head = "{" + entry + '"monomial": '
        middle = "," + entry + '"image": '
        close = item + "}"
        sep = "[" + inner
        for d, source, target, images, rank in self.maps:
            sources = [_encode_str(m.text()) for m in source]
            targets = [m.text() for m in target]
            index = {t: i for i, t in enumerate(targets)}
            zero = ["0"] * len(sources)
            filled: dict[int, list[str]] = {}
            image_rows = []
            for j, (s, image) in enumerate(zip(sources, images)):
                for m, c in image.terms.items():
                    i = index[m.text()]
                    if i not in filled:
                        filled[i] = zero.copy()
                    filled[i][j] = int.__repr__(c)
                image_rows.append(head + s + middle + _encode_str(image.text()) + close)
            rows = [_joined(zero, entry, item)] * len(targets)
            for i, cells in filled.items():
                rows[i] = _joined(cells, entry, item)
            write(
                f"{sep}{{{cell}\"degree\": {d},"
                f"{cell}\"source\": {_joined(sources, item, cell)},"
                f"{cell}\"target\": {_joined(list(map(_encode_str, targets)), item, cell)},"
                f"{cell}\"matrix\": {_joined(rows, item, cell)},"
                f"{cell}\"rank\": {rank},"
                f"{cell}\"images\": {_joined(image_rows, item, cell)}{inner}}}"
            )
            sep = "," + inner
        write("[]" if sep == "[" + inner else nl + "]")


def _joined(items: list[str], indent: str, nl: str) -> str:
    """A JSON list of the encoded `items`, each on a line at `indent`, closing at `nl`."""
    return "[" + indent + ("," + indent).join(items) + nl + "]" if items else "[]"


def _cmd_equivariant(args) -> _Answer:
    prime = as_prime(args.p)
    dmax = args.dmax if args.dmax is not None else default_degree_bound(args.n)
    if args.group == "Zp":
        dims = _equivariant_zp(args.n, prime, dmax)
        return {"group": "Zp", "dims": dims, "degree_bound": dmax}, dims, ["degree", "dim"]
    if args.format != "json":
        return None, _equivariant_s1_dims([args.n], prime, dmax)[args.n], ["degree", "dim"]
    regime, dims, groups = _equivariant_s1(args.n, prime, dmax, texts=True)
    if regime == REGIME_TENSOR_BS1:
        basis = _TensorPairs(list(groups.items()), dmax)
    else:
        basis = _CokernelRows(list(groups.items()))
    result = {
        "group": "S1",
        "regime": regime,
        "dims": dims,
        "basis": basis,
        "degree_bound": dmax,
    }
    return result, None, ["degree", "dim"]


@dataclass(frozen=True)
class _TensorPairs:
    """The tensor regime's (monomial, circle degree) pairs: each monomial of
    `groups` (degree, texts) times the even circle degrees through dmax, by
    total degree D and then text, listed as JSON by `write_json`."""

    groups: list[tuple[int, list[str]]]
    dmax: int

    def write_json(self, write, nl: str) -> None:
        """The pairs as `_write_json` writes a list of flat dicts closing at
        `nl`: each monomial's row up to its circle degree is encoded once,
        and the rows of total D, one chunk, are those of degree <= D and D's
        parity, each degree merged in as a sorted run, whose heads and
        degrees stay fixed until the next merge."""
        inner = nl + "  "
        cell = inner + "  "
        opener, middle = "{" + cell + '"monomial": ', "," + cell + '"circle_degree": '
        joint = inner + "}," + inner
        by_deg = dict(self.groups)
        strs = list(map(str, range(self.dmax + 1)))
        runs: tuple[list, list] = ([], [])
        columns = [((), ()), ((), ())]
        sep = "[" + inner
        for total in range(self.dmax + 1):
            run = runs[total % 2]
            if total in by_deg:
                run += [(t, opener + _encode_str(t) + middle, total) for t in by_deg[total]]
                run.sort()
                columns[total % 2] = tuple(zip(*run))[1:]
            if run:
                heads, degrees = columns[total % 2]
                circle = map(strs.__getitem__, map(sub, itertools.repeat(total), degrees))
                write(sep)
                write(joint.join(map(add, heads, circle)))
                sep = joint
        write("[]" if sep == "[" + inner else inner + "}" + nl + "]")


@dataclass(frozen=True)
class _CokernelRows:
    """The cokernel regime's rows {"monomial"}: the texts of `groups`
    (degree, texts) in turn, listed as JSON by `write_json`."""

    groups: list[tuple[int, list[str]]]

    def write_json(self, write, nl: str) -> None:
        texts = list(itertools.chain.from_iterable(group for _, group in self.groups))
        _write_monomial_rows((), [((), texts)], write, nl)


_JSON_ESCAPED = bytes(range(0x20)) + b'"\\\x7f'  # the ASCII `_encode_str` escapes


def _write_monomial_rows(keys: tuple, groups: list, write, nl: str) -> None:
    """The rows {"monomial": text, then each of `keys`: its int value} of
    `groups` (values, texts) as `_write_json` writes a list of flat dicts
    closing at `nl`, one chunk per group, whose rows differ only in their text:
    quoted in one join if `_encode_str` would escape none of them."""
    inner = nl + "  "
    cell = inner + "  "
    opener = "{" + cell + '"monomial": '
    fields = "".join(f',{cell}"{k}": %d' for k in keys) + inner + "}"
    sep, close = "[" + inner + opener, ""
    for values, texts in groups:
        if texts:
            close = fields % values
            joint = close + "," + inner + opener
            write(sep)
            blob = "".join(texts)
            if blob.isascii() and len(blob.encode().translate(None, _JSON_ESCAPED)) == len(blob):
                write('"' + ('"' + joint + '"').join(texts) + '"')
            else:
                write(joint.join(map(_encode_str, texts)))
            sep = joint
    write(close + nl + "]" if close else "[]")


def _cmd_sign(args) -> _Answer:
    prime = as_prime(args.p)
    dmax = args.dmax if args.dmax is not None else default_degree_bound(args.n)
    dims = _sign_answer(args.n, prime, args.q, dmax)
    result = {"dims": dims, "total_through_bound": dims.total(), "degree_bound": dmax}
    return result, dims, ["degree", "dim"]


def _cmd_gravity(args) -> _Answer:
    out = gravity_op_degree(args.op_degree, args.arity, args.input, args.parity)
    return {"degree": out}, [[out]], ["degree"]


def _cmd_verify(args) -> _Answer:
    reports = run_verifications(args.target, args.p, args.max_n, args.max_q)
    result = {
        "checks": [r.to_payload() for r in reports],
        "passed": all(r.passed for r in reports),
    }
    table = [[r.name, "pass" if r.passed else "FAIL"] for r in reports]
    return result, table, ["check", "status"]


# Each command: its handler, its help, verify's target choices, and its options
# in argparse's order, each flag -> (dest, int or its choices, required, default).
_FORMAT = {"--format": ("format", ("json", "table", "csv"), False, "json")}
_P, _N = ("p", int, True, None), ("n", int, True, None)
_COMMANDS = {
    "basis": (_cmd_basis, "weight-n monomial basis", None, {**_FORMAT, "--p": _P, "--n": _N}),
    "poincare": (_cmd_poincare, "degree-indexed dimensions", None,
                 {**_FORMAT, "--p": _P, "--n": _N}),
    "delta": (_cmd_delta, "matrix of the BV operator", None,
              {**_FORMAT, "--p": _P, "--n": _N, "--degree": ("degree", int, False, None)}),
    "equivariant": (_cmd_equivariant, "equivariant homology", None,
                    {**_FORMAT, "--group": ("group", ("S1", "Zp"), True, None),
                     "--p": _P, "--n": _N, "--dmax": ("dmax", int, False, None)}),
    "sign": (_cmd_sign, "sign-coefficient braid quotient homology", None,
             {**_FORMAT, "--p": _P, "--n": _N, "--q": ("q", int, True, None),
              "--dmax": ("dmax", int, False, None)}),
    "gravity-degree": (_cmd_gravity, "degree of an induced operation", None,
                       {**_FORMAT, "--op-degree": ("op_degree", int, True, None),
                        "--arity": ("arity", int, True, None),
                        "--input": ("input", int, True, None),
                        "--parity": ("parity", ("even", "odd"), True, None)}),
    "verify": (_cmd_verify, "run consistency checks", VERIFY_TARGETS,
               {**_FORMAT, "--p": _P, "--max-n": ("max_n", int, False, 24),
                "--max-q": ("max_q", int, False, 4)}),
}


def _params_of(args) -> dict:
    skip = {"command", "format"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def _render_json(payload) -> str:
    """`json.dumps(payload, indent=2)`, byte for byte: `_write_json`'s chunks, joined."""
    chunks: list[str] = []
    _write_json(payload, chunks.append)
    return "".join(chunks)


def _write_json(x, write, nl: str = "\n", head: str = "") -> None:
    """Hand `head` and then `json.dumps(x, indent=2)` closing at `nl` to
    `write` as it is formatted: a leaf that `_render` formats as one chunk, a
    listing as its own chunks, a dict or list item by item, each key prefix
    or separator carried into the item's first chunk."""
    text = _render(x, nl)
    t = type(x)
    if text is not None:
        write(head + text)
    elif t is dict or t is list:
        inner = nl + "  "
        keys = [_encode_str(k) + ": " for k in x] if t is dict else itertools.repeat("")
        head += ("{" if t is dict else "[") + inner
        for key, v in zip(keys, x.values() if t is dict else x):
            _write_json(v, write, inner, head + key)
            head = "," + inner
        write(nl + ("}" if t is dict else "]"))
    else:
        write(head)
        x.write_json(write, nl)


def _render(x, nl: str) -> str | None:
    """The JSON text of a leaf: a scalar, a `GradedDims` or `_CircleAnswer`,
    an empty container, a list of strs or of ints; None for a listing, a
    dict with str keys or any other list, which `_write_json` writes item
    by item."""
    # `nl` is a newline and the indent of the line that closes x.
    t = type(x)
    if t is str:
        return _encode_str(x)
    if t is int:
        return int.__repr__(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if (t is list or t is dict) and not x:
        return "[]" if t is list else "{}"
    inner = nl + "  "
    if t is GradedDims or t is _CircleAnswer:
        body = _dim_rows(_dim_cells(x), f"[{inner}  %d,{inner}  %d{inner}]", "," + inner)
        return "[" + inner + body + nl + "]" if body else "[]"
    if t is list:
        kinds = set(map(type, x))
        if kinds != {str} and kinds != {int}:
            return None
        body = ("," + inner).join(map(_encode_str if kinds == {str} else int.__repr__, x))
        return "[" + inner + body + nl + "]"
    if t is dict and all(type(k) is str for k in x):
        return None
    if hasattr(x, "write_json"):
        return None
    # Encoded JSON holds no raw newline, so re-indenting the stdlib's output is exact.
    return json.dumps(x, indent=2).replace("\n", nl)


def _dim_cells(x) -> tuple[list, list, range]:
    """The (degree, dim) rows of a `GradedDims`, or of a circle answer's
    expansion from its numerator: the flat cells of the rows through the top
    degree, the last running sum of the class of each of the degrees top + 1
    .. top + step, and the degrees above the top, whose rows repeat those."""
    if type(x) is GradedDims:
        return list(itertools.chain.from_iterable(sorted(x.dims.items()))), [], range(0)
    cells, step, bound = x.numerator.dims, x.step, x.bound
    lo = min(cells, default=bound + 1)
    top = min(max(cells, default=lo), bound)
    acc = x.numerator._running_sums(lo, step, top)
    pairs = zip(range(lo, top + 1), acc)
    pairs = [pair for pair in pairs if pair[1]] if 0 in acc else pairs
    head = list(itertools.chain.from_iterable(pairs))
    return head, ([0] * step + acc)[-step:], range(top + 1, bound + 1)


def _dim_rows(cells: tuple[list, list, range], row: str, joint: str) -> str:
    """The rows of `_dim_cells`, each `row` % (degree, dim), joined by
    `joint`: one template per row through the top degree, then the rows
    above it from one template per residue class, its last "%d" the sum."""
    head, sums, above = cells
    front, _, back = row.rpartition("%d")
    rows = [row] * (len(head) // 2)
    tails = itertools.cycle([front + int.__repr__(s) + back for s in sums])
    rows += itertools.compress(itertools.islice(tails, len(above)), itertools.cycle(sums))
    degrees = itertools.compress(above, itertools.cycle(sums))
    return joint.join(rows) % (*head, *degrees)


def _dims_text(x, fmt: str, header: list[str]) -> str:
    """`_render_table` or `_render_csv` of the pairs of `x`: the degree column
    as wide as the first or the last degree written, the dim column as the
    widest dim through the top degree, as each sum above it is one of those."""
    cells = head, sums, above = _dim_cells(x)
    if fmt == "csv":
        return _render_csv([header]) + _dim_rows(cells, "\n%d,%d", "")
    live = [d for d in above[-len(sums):] if sums[(d - above.start) % len(sums)]]
    columns = (header[0], *head[:1], *head[-2:-1], *live), (header[1], *head[1::2])
    widths = [max(map(len, map(str, column))) for column in columns]
    return _table_head(header, widths) + _dim_rows(cells, f"\n%-{widths[0]}d  %d", "")


def _table_head(header: list[str], widths) -> str:
    """A table's header line and its rule, for columns of these widths."""
    return ("  ".join(map(str.ljust, header, widths)).rstrip() + "\n"
            + "  ".join("-" * w for w in widths))


def _render_table(table: list, header: list[str]) -> str:
    columns = [list(map(str, col)) for col in zip(*table)] or [[] for _ in header]
    widths = [max(map(len, [h, *col])) for h, col in zip(header, columns)]
    template = "  ".join(f"%-{w}s" for w in widths)
    lines = [line.rstrip() for line in map(template.__mod__, zip(*columns))]
    return "\n".join([_table_head(header, widths), *lines])


def _render_csv(rows) -> str:
    """`rows` as `csv.writer` writes them, one per line, with no final newline."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue().rstrip("\n")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv) or _parser().parse_args(argv)
    started = time.perf_counter()
    fmt = args.format
    try:
        result, table, header = _COMMANDS[args.command][0](args)
        status = "failed" if args.command == "verify" and not result["passed"] else "ok"
    except UnsupportedCaseError as exc:
        result, table, fmt, status = {"error": str(exc)}, None, "json", "unsupported"
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write = sys.stdout.write
    try:
        if fmt == "json":
            payload = {"command": args.command, "params": _params_of(args),
                       "result": result, "status": status}
            _write_json(payload, write)
        elif (writer := getattr(table, "write_" + fmt, None)) is not None:
            writer(write, header)
        elif type(table) is GradedDims or type(table) is _CircleAnswer:
            write(_dims_text(table, fmt, header))
        else:
            write(_render_table(table, header) if fmt == "table" else _render_csv([header, *table]))
        write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed early: what is left, and the flush at exit, go to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    if status == "unsupported":
        print(f"unsupported: {result['error']}", file=sys.stderr)
        return 2
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(f"elapsed_ms={elapsed_ms:.1f}", file=sys.stderr)
    return 0 if status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
