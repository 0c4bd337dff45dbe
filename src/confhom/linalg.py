"""Dense exact linear algebra over F_p.

Gauss-Jordan elimination on numpy integer arrays with all arithmetic
reduced mod p; no floating point anywhere.  Matrices at the scales this
package meets stay well under a thousand columns, so dense is fine.

Entries are int64 while the product of two residues fits, (p-1)^2 < 2^63,
and Python ints (object dtype) above that, so every prime `Prime` accepts
is exact.
"""

from __future__ import annotations

import numpy as np

from .algebra import as_prime


class FpMatrix:
    """A dense matrix over F_p with rank / kernel / image queries.

    Entries are stored in [0, p), as int64 or as Python ints (see
    `_dtype`).  Zero-row and zero-column matrices are allowed; they come up
    constantly as boundary cases of graded maps.
    """

    def __init__(self, entries, p, shape: tuple[int, int] | None = None):
        self.p = as_prime(p)
        a = _as_array(entries, _dtype(self.p.p))
        if a.size == 0:
            if shape is None:
                a = a.reshape(a.shape if a.ndim == 2 else (0, 0))
            else:
                a = a.reshape(shape)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {a.shape}")
        self.a = np.mod(a, self.p.p)

    @classmethod
    def zeros(cls, rows: int, cols: int, p) -> "FpMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), p)

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    def is_zero(self) -> bool:
        return not self.a.any()

    def rref(self) -> tuple[np.ndarray, list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        p = self.p.p
        r = self.a.copy()
        pivots: list[int] = []
        row = 0
        for col in range(self.cols):
            if row == self.rows:
                break
            nz = np.nonzero(r[row:, col])[0]
            if nz.size == 0:
                continue
            lead = row + int(nz[0])
            if lead != row:
                r[[row, lead]] = r[[lead, row]]
            inv = pow(int(r[row, col]), p - 2, p)
            r[row] = (r[row] * inv) % p
            others = np.nonzero(r[:, col])[0]
            others = others[others != row]
            if others.size:
                r[others] = (r[others] - np.outer(r[others, col], r[row])) % p
            pivots.append(col)
            row += 1
        return r, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> np.ndarray:
        """Basis of the null space, one vector per row; shape (nullity, cols)."""
        p = self.p.p
        r, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = np.zeros((len(free), self.cols), dtype=self.a.dtype)
        for k, f in enumerate(free):
            basis[k, f] = 1
            for i, c in enumerate(pivots):
                basis[k, c] = (-int(r[i, f])) % p
        return basis

    def image_basis(self) -> np.ndarray:
        """Basis of the column space: the pivot columns, one vector per row."""
        _, pivots = self.rref()
        return self.a[:, pivots].T.copy()

    def apply(self, vec) -> np.ndarray:
        # The product sums `cols` products of residues; int64 only if that fits.
        dtype = _dtype(self.p.p, max(self.cols, 1))
        v = np.mod(_as_array(vec, dtype), self.p.p)
        return np.mod(self.a.astype(dtype) @ v, self.p.p)

    def __repr__(self) -> str:
        return f"FpMatrix({self.rows}x{self.cols} mod {self.p})"


def _dtype(p: int, terms: int = 1):
    """int64 when a sum of `terms` products of two residues mod p fits in
    it, otherwise object (exact Python ints)."""
    return np.int64 if terms * (p - 1) ** 2 < 2**63 else object


def _as_array(entries, dtype) -> np.ndarray:
    if dtype is object:
        # Python ints throughout: numpy integer scalars in the input would
        # otherwise overflow in the elimination.
        ints = np.frompyfunc(int, 1, 1)(np.array(entries, dtype=object))
        return np.asarray(ints, dtype=object)
    return np.array(entries, dtype=dtype)


def rank_kernel_image(m: FpMatrix) -> tuple[int, np.ndarray, np.ndarray]:
    """Rank, kernel basis and image basis of a matrix over F_p.

    rank + len(kernel) == cols and the image rows span the column space.
    """
    image = m.image_basis()
    return len(image), m.kernel_basis(), image
