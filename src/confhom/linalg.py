"""Dense exact linear algebra over F_p.

Gauss-Jordan elimination on numpy object arrays of Python ints with all
arithmetic reduced mod p; no floating point anywhere.  Python ints do not
overflow, so one representation is exact at every prime `Prime` accepts and
no integer width is chosen.  The matrices are the rank oracle of `verify`
and the tests and stay small, so dense object arithmetic is fine.
"""

from __future__ import annotations

import numpy as np

from .algebra import as_prime

# Python ints from any integer entries: numpy integer scalars held in a list
# survive `np.array(..., dtype=object)` and would wrap in the elimination.
_to_int = np.frompyfunc(int, 1, 1)


class FpMatrix:
    """A dense matrix over F_p with rank / kernel / image queries.

    Entries are Python ints in [0, p), stored in a numpy object array.
    Zero-row and zero-column matrices are allowed; they come up constantly
    as boundary cases of graded maps.
    """

    def __init__(self, entries, p, shape: tuple[int, int] | None = None):
        self.p = as_prime(p)
        a = np.array(entries, dtype=object)
        if a.size == 0:
            if shape is None:
                a = a.reshape(a.shape if a.ndim == 2 else (0, 0))
            else:
                a = a.reshape(shape)
        if a.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {a.shape}")
        _to_int(a, out=a)
        self.a = np.mod(a, self.p.p, out=a)

    @classmethod
    def zeros(cls, rows: int, cols: int, p) -> "FpMatrix":
        return cls(np.zeros((rows, cols), dtype=object), p)

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
            inv = pow(r[row, col], p - 2, p)
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
        basis = np.zeros((len(free), self.cols), dtype=object)
        for k, f in enumerate(free):
            basis[k, f] = 1
            for i, c in enumerate(pivots):
                basis[k, c] = -r[i, f] % p
        return basis

    def image_basis(self) -> np.ndarray:
        """Basis of the column space: the pivot columns, one vector per row."""
        _, pivots = self.rref()
        return self.a[:, pivots].T.copy()

    def apply(self, vec) -> np.ndarray:
        v = _to_int(np.array(vec, dtype=object))
        return np.mod(self.a @ v, self.p.p)

    def __repr__(self) -> str:
        return f"FpMatrix({self.rows}x{self.cols} mod {self.p})"


def rank_kernel_image(m: FpMatrix) -> tuple[int, np.ndarray, np.ndarray]:
    """Rank, kernel basis and image basis of a matrix over F_p.

    rank + len(kernel) == cols and the image rows span the column space.
    """
    image = m.image_basis()
    return len(image), m.kernel_basis(), image
