"""Per-layer tracing of `confhom`, installed from outside the package.

Every public function of every layer module (and `FpMatrix.rref` and
`Monomial.__init__`) is replaced by a wrapper that records a span: name,
start, end, parent span and operation id.  A wrapped name is rebound in
every `confhom` module that holds it, so calls through imported names
(`verify.monomial_basis`, `bv.delta_matrix`, `cli.sign_rep_homology`, ...)
are traced too.  Spans live in flat arrays until the run ends.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over the spans of its functions.
Time the program spends in unwrapped helpers (private functions, methods
such as `Monomial.text`) counts toward the enclosing wrapped function, so
`cli` self time covers argument parsing, rendering and printing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = (
    "cli",
    "verify",
    "signhom",
    "identities",
    "bv",
    "linalg",
    "enumeration",
    "catalog",
    "brackets",
    "algebra",
)

# The public functions of each layer.  `selftest.py` fails when a name here
# is missing from `confhom` or a public function there is missing here.
LAYER_MAP = {
    "cli": ("build_parser", "main"),
    "verify": (
        "verify_delta_squared",
        "verify_regime_dichotomy",
        "verify_serre_agreement",
        "verify_series_agreement",
        "verify_classify_total",
        "verify_fixed_points",
        "verify_p2_routes",
        "run_verifications",
    ),
    "signhom": (
        "shifted_weight_slice",
        "sign_rep_homology",
        "trivial_rep_homology_p2",
        "verify_q_stability",
    ),
    "identities": (
        "bijection_image",
        "verify_bijection",
        "classify_monomial",
        "verify_dimension_identity",
    ),
    "bv": (
        "default_degree_bound",
        "delta",
        "delta_element",
        "delta_matrix",
        "equivariant_s1",
        "equivariant_zp",
        "serre_e3",
        "collapse_total_degree",
        "gravity_op_degree",
    ),
    "linalg": ("rank_kernel_image", "FpMatrix.rref"),
    "enumeration": (
        "monomial_basis",
        "poincare",
        "total_dim",
        "series_table",
        "series_coefficient",
    ),
    "catalog": (
        "plane_config_generators",
        "sphere_labelled_generators",
        "punctured_plane_basis",
        "fixed_point_total_dim",
        "generators_for",
    ),
    "brackets": (
        "leaf",
        "bracket_of",
        "bracket_sort_key",
        "is_hall",
        "is_basic",
        "enumerate_basic_brackets",
        "bracket_as_generator",
        "cohen_generators",
    ),
    "algebra": (
        "as_prime",
        "iota",
        "u_class",
        "beta_gen",
        "alpha_gen",
        "q_iota",
        "sphere_q",
        "sphere_bq",
        "bracket_generator",
        "tower_generator",
        "monomial_mul",
        "Monomial.__init__",
    ),
}

HARNESS = "harness.op"
NO_PARENT = -1


def public_functions(module) -> list[str]:
    """Module-level public functions defined in `module` itself."""
    return sorted(
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    )


def confhom_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "confhom" or name.startswith("confhom."))]


class Tracer:
    """Span recorder; `install` wraps the layer map, `uninstall` restores it."""

    def __init__(self) -> None:
        self.names: list[str] = [HARNESS]
        self.layer_of: list[str] = ["harness"]
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack: list[int] = [NO_PARENT]
        self.op_id = -1
        self.counters: dict[str, float] = {}
        self.basis_keys: set = set()
        self.import_sites: dict[str, list[str]] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.raised.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def begin_op(self, op_id: int) -> int:
        """Open the root span of one operation; returns its index."""
        self.op_id = op_id
        self.basis_keys = set()
        return self._open(0)

    def end_op(self, idx: int) -> float:
        """Close a root span; returns the operation's traced latency."""
        self._close(idx)
        return self.end[idx] - self.start[idx]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- installation ----------------------------------------------------

    def _wrap(self, fn, name: str, layer: str, counter):
        self.names.append(name)
        self.layer_of.append(layer)
        name_id = len(self.names) - 1
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[idx] = 1
                raise
            finally:
                tracer._close(idx)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every name in LAYER_MAP and rebind it at every import site."""
        modules = confhom_modules()
        for layer, names in LAYER_MAP.items():
            module = importlib.import_module(f"confhom.{layer}")
            for name in names:
                qualified = f"{layer}.{name}"
                counter = COUNTERS.get(qualified)
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(module, cls_name)
                    orig = vars(cls)[attr]
                    self._set(cls, attr, self._wrap(orig, qualified, layer, counter))
                    self.import_sites[qualified] = [f"{module.__name__}.{name}"]
                    continue
                orig = getattr(module, name)
                wrapped = self._wrap(orig, qualified, layer, counter)
                sites = []
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, attr, wrapped)
                            sites.append(f"{mod.__name__}.{attr}")
                self.import_sites[qualified] = sites

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- analysis --------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "raised": np.frombuffer(self.raised, dtype=np.int8),
        }

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        return dur - covered

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, self time and errors, plus the layer counters."""
        a = self.arrays()
        self_s = self.self_times()
        layer_ids = {layer: i for i, layer in enumerate(("harness",) + LAYERS)}
        layer_of_name = np.array([layer_ids[l] for l in self.layer_of], dtype=np.int64)
        span_layer = layer_of_name[a["name_id"]]
        nl = len(layer_ids)
        calls = np.bincount(span_layer, minlength=nl)
        busy = np.bincount(span_layer, weights=self_s, minlength=nl)
        errors = np.bincount(span_layer, weights=a["raised"], minlength=nl)
        out: dict[str, float] = {"harness.self_s": float(busy[0])}
        for layer in LAYERS:
            i = layer_ids[layer]
            out[f"{layer}.calls"] = int(calls[i])
            out[f"{layer}.self_s"] = float(busy[i])
            out[f"{layer}.errors"] = int(errors[i])
        c = self.counters
        name_calls = dict(zip(self.names, np.bincount(a["name_id"], minlength=len(self.names)).tolist()))
        basis_calls = name_calls["enumeration.monomial_basis"]
        monomials_built = name_calls["algebra.Monomial.__init__"]
        out.update({
            "enumeration.basis_calls": basis_calls,
            "enumeration.monomials_out": int(c.get("monomials_out", 0)),
            "enumeration.repeat_ratio": c.get("basis_repeats", 0) / basis_calls if basis_calls else 0.0,
            "enumeration.series_calls": name_calls["enumeration.series_table"],
            "enumeration.series_cells": int(c.get("series_cells", 0)),
            "algebra.monomials_built": monomials_built,
            "algebra.useful_ratio": c.get("monomials_out", 0) / monomials_built if monomials_built else 0.0,
            "bv.delta_matrix_calls": name_calls["bv.delta_matrix"],
            "bv.matrix_cells": int(c.get("matrix_cells", 0)),
            "linalg.rref_calls": name_calls["linalg.FpMatrix.rref"],
            "linalg.rref_cells": int(c.get("rref_cells", 0)),
            "catalog.generators_out": int(c.get("generators_out", 0)),
            "brackets.brackets_out": int(c.get("brackets_out", 0)),
            "verify.checks": int(c.get("checks", 0)),
            "cli.stdout_bytes": int(c.get("stdout_bytes", 0)),
        })
        return out

    def op_balance(self) -> float:
        """Largest gap, over operations, between the traced latency and the
        sum of all self times (layers plus harness) inside the operation."""
        a = self.arrays()
        self_s = self.self_times()
        roots = np.nonzero(a["parent"] < 0)[0]
        per_op = np.bincount(a["op"][a["op"] >= 0], weights=self_s[a["op"] >= 0])
        gaps = [abs(per_op[a["op"][r]] - (a["end"][r] - a["start"][r])) for r in roots]
        return max(gaps, default=0.0)

    def write(self, path) -> None:
        """Write all spans as compressed numpy columns, with the name table."""
        np.savez_compressed(path, names=np.array(self.names), layers=np.array(self.layer_of),
                            **self.arrays())


# -- counters, run after a wrapped call returns --------------------------


def _count_basis(tracer, args, kwargs, result):
    gens, n, p = args[:3]
    key = (tuple(g.rank for g in gens), n, int(p))
    if key in tracer.basis_keys:
        tracer.count("basis_repeats")
    tracer.basis_keys.add(key)
    tracer.count("monomials_out", len(result))


def _count_series(tracer, args, kwargs, result):
    _, max_weight, dmax = args[:3]
    tracer.count("series_cells", (max_weight + 1) * (dmax + 1))


def _count_matrix(key):
    def count(tracer, args, kwargs, result):
        tracer.count(key, result.rows * result.cols)
    return count


def _count_rref(tracer, args, kwargs, result):
    matrix = args[0]
    tracer.count("rref_cells", matrix.rows * matrix.cols)


def _count_len(key):
    def count(tracer, args, kwargs, result):
        tracer.count(key, len(result))
    return count


COUNTERS = {
    "enumeration.monomial_basis": _count_basis,
    "enumeration.series_table": _count_series,
    "bv.delta_matrix": _count_matrix("matrix_cells"),
    "linalg.FpMatrix.rref": _count_rref,
    "catalog.plane_config_generators": _count_len("generators_out"),
    "catalog.sphere_labelled_generators": _count_len("generators_out"),
    "brackets.enumerate_basic_brackets": _count_len("brackets_out"),
    "verify.run_verifications": _count_len("checks"),
}
