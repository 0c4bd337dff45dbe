"""Exact F_p linear algebra: rank, kernel, image."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confhom import FpMatrix, rank_kernel_image


def test_zero_matrix():
    m = FpMatrix.zeros(3, 3, 3)
    rank, kernel, image = rank_kernel_image(m)
    assert rank == 0
    assert kernel.shape == (3, 3)
    assert image.shape == (0, 3)


def test_identity_matrix():
    for n in (1, 2, 5):
        m = FpMatrix(np.eye(n, dtype=int), 7)
        rank, kernel, image = rank_kernel_image(m)
        assert rank == n
        assert kernel.shape == (0, n)
        assert image.shape == (n, n)


def test_rank_one_by_hand():
    # second row is twice the first, so row reduction leaves a single pivot
    m = FpMatrix([[1, 2], [2, 4]], 5)
    assert m.rank() == 1
    kernel = m.kernel_basis()
    assert kernel.shape == (1, 2)
    assert not m.apply(kernel[0]).any()


def test_empty_shapes():
    assert FpMatrix.zeros(0, 4, 3).rank() == 0
    assert FpMatrix.zeros(0, 4, 3).kernel_basis().shape == (4, 4)
    assert FpMatrix.zeros(4, 0, 3).rank() == 0
    assert FpMatrix.zeros(4, 0, 3).kernel_basis().shape == (0, 0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_nullity_on_random_matrices(p):
    rng = np.random.default_rng(12345 + p)
    for _ in range(1000):
        rows = int(rng.integers(0, 8))
        cols = int(rng.integers(0, 8))
        m = FpMatrix(rng.integers(0, p, size=(rows, cols)), p)
        rank, kernel, image = rank_kernel_image(m)
        assert rank + kernel.shape[0] == cols
        assert image.shape[0] == rank
        for v in kernel:
            assert not m.apply(v).any()


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
    image = m.image_basis()
    # the image rows are independent and adjoining all columns adds nothing
    assert FpMatrix(image, p).rank() == rank
    stacked = np.vstack([image, m.a.T]) if image.size else m.a.T
    assert FpMatrix(stacked, p).rank() == rank


def test_rref_is_reduced():
    m = FpMatrix([[2, 1, 1], [1, 2, 1], [0, 3, 4]], 5)
    r, pivots = m.rref()
    for i, c in enumerate(pivots):
        assert r[i, c] == 1
        column = r[:, c].copy()
        column[i] = 0
        assert not column.any()


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
        for v in m.kernel_basis():
            assert not m.apply(v).any()


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
    results = [m.a, m.rref()[0], m.kernel_basis(), m.image_basis(), m.apply(wrap([[1, 2, 3]])[0])]
    for result in results:
        assert all(type(v) is int for v in np.ravel(result))
    assert m.rank() == FpMatrix(rows, p).rank()
