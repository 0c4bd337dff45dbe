"""Exact F_p linear algebra: rank, kernel, image."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confhom import FpMatrix, rank_kernel_image


def _apply(m, v):
    """The matrix times a column vector, mod p."""
    return [sum(a * b for a, b in zip(row, v)) % m.p.p for row in m.a]


def test_zero_matrix():
    m = FpMatrix([[0] * 3 for _ in range(3)], 3)
    rank, kernel, image = rank_kernel_image(m)
    assert rank == 0 and m.is_zero()
    assert kernel == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert image == []


def test_identity_matrix():
    for n in (1, 2, 5):
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        m = FpMatrix(eye, 7)
        rank, kernel, image = rank_kernel_image(m)
        assert rank == n and not m.is_zero()
        assert kernel == []
        assert image == eye


def test_rank_one_by_hand():
    # second row is twice the first, so row reduction leaves a single pivot
    m = FpMatrix([[1, 2], [2, 4]], 5)
    assert m.rank() == 1
    kernel = rank_kernel_image(m)[1]
    assert kernel == [[3, 1]]
    assert not any(_apply(m, kernel[0]))


def test_empty_shapes():
    no_rows = FpMatrix([], 3, (0, 4))
    assert (no_rows.rows, no_rows.cols, no_rows.rank()) == (0, 4, 0)
    assert rank_kernel_image(no_rows)[1] == [[int(i == j) for j in range(4)] for i in range(4)]
    no_cols = FpMatrix([[] for _ in range(4)], 3)
    assert (no_cols.rows, no_cols.cols, no_cols.rank()) == (4, 0, 0)
    assert rank_kernel_image(no_cols)[1] == [] and rank_kernel_image(no_cols)[2] == []
    assert FpMatrix([], 3).cols == 0
    with pytest.raises(ValueError, match="shape"):
        FpMatrix([[1, 2]], 3, (1, 3))
    with pytest.raises(ValueError, match="unequal"):
        FpMatrix([[1, 2], [1]], 3)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_nullity_on_random_matrices(p):
    rng = np.random.default_rng(12345 + p)
    for _ in range(1000):
        rows = int(rng.integers(0, 8))
        cols = int(rng.integers(0, 8))
        # a matrix with no rows takes its column count from `shape`
        m = FpMatrix(rng.integers(0, p, size=(rows, cols)), p, (rows, cols))
        rank, kernel, image = rank_kernel_image(m)
        assert rank + len(kernel) == cols
        assert len(image) == rank
        assert all(len(v) == cols for v in kernel) and all(len(v) == rows for v in image)
        for v in kernel:
            assert not any(_apply(m, v))


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    rows=st.integers(min_value=1, max_value=6),
    cols=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_image_spans_column_space(p, rows, cols, seed):
    rng = np.random.default_rng(seed)
    m = FpMatrix(rng.integers(0, p, size=(rows, cols)), p)
    rank = m.rank()
    image = rank_kernel_image(m)[2]
    # the image rows are independent and adjoining all columns adds nothing
    assert FpMatrix(image, p).rank() == rank
    stacked = image + [list(column) for column in zip(*m.a)]
    assert FpMatrix(stacked, p).rank() == rank


def test_rank_kernel_image_reduces_once(monkeypatch):
    calls = []
    rref = FpMatrix.rref
    monkeypatch.setattr(FpMatrix, "rref", lambda self: calls.append(self) or rref(self))
    m = FpMatrix([[1, 2, 0], [2, 4, 1]], 5)
    assert rank_kernel_image(m) == (2, [[3, 1, 0]], [[1, 2], [0, 1]])
    assert calls == [m]
    assert not hasattr(FpMatrix, "kernel_basis") and not hasattr(FpMatrix, "image_basis")


def test_rref_is_reduced():
    m = FpMatrix([[2, 1, 1], [1, 2, 1], [0, 3, 4]], 5)
    r, pivots = m.rref()
    for i, c in enumerate(pivots):
        assert r[i][c] == 1
        column = [row[c] for row in r]
        column[i] = 0
        assert not any(column)


def test_rank_exact_when_residue_products_overflow_int64():
    p = 4294967311
    x = p - 2
    assert FpMatrix([[1, x], [x, x * x % p]], p).rank() == 1


@pytest.mark.parametrize("p", [4294967311, 18446744073709551629, 3037000493, 3037000507])
def test_rank_at_large_primes_matches_sympy(p):
    domain = pytest.importorskip("sympy.polys.matrices")
    field = pytest.importorskip("sympy").GF(p)
    rng = random.Random(p)
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        inner = rng.randint(1, min(rows, cols))
        # a product through `inner` dimensions usually has rank below full
        left = [[rng.randrange(p) for _ in range(inner)] for _ in range(rows)]
        right = [[rng.randrange(p) for _ in range(cols)] for _ in range(inner)]
        entries = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)]
                   for row in left]
        expected = domain.DomainMatrix(
            [[field(v) for v in row] for row in entries], (rows, cols), field
        ).rank()
        m = FpMatrix(entries, p)
        assert m.rank() == expected
        for v in rank_kernel_image(m)[1]:
            assert not any(_apply(m, v))


@pytest.mark.parametrize("p", [2, 3, 4294967311])
@pytest.mark.parametrize("wrap", [
    lambda rows: rows,
    lambda rows: np.array(rows, dtype=np.int64),
    lambda rows: [[np.int64(v) for v in row] for row in rows],
], ids=["int-lists", "int64-array", "int64-scalars-in-lists"])
def test_entries_and_results_are_python_ints(p, wrap):
    x = p - 2
    rows = [[1, x, 0], [x, x * x % p, 0], [3, 1, p - 1]]
    m = FpMatrix(wrap(rows), p)
    results = [m.a, m.rref()[0], rank_kernel_image(m)[1], rank_kernel_image(m)[2]]
    for result in results:
        assert all(type(v) is int for row in result for v in row)
    assert m.a == [[v % p for v in row] for row in rows]
    assert m.rank() == FpMatrix(rows, p).rank()
    for v in rank_kernel_image(m)[1]:
        assert not any(_apply(m, v))
