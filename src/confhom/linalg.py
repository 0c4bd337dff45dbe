"""Dense exact linear algebra over F_p: the rank oracle.

Gauss-Jordan elimination on lists of Python-int rows with all arithmetic
reduced mod p; no floating point anywhere.  Python ints do not overflow, so
one representation is exact at every prime `Prime` accepts and no integer
width is chosen.  `FpMatrix.rank` is the rank oracle of `verify` and the
tests; `rank_kernel_image` reads kernel and image off the same elimination
for the tests.  The matrices stay small, so dense list arithmetic is fine.

The constructor reads any entries through `int` and reduces them mod p;
`FpMatrix._trusted` wraps rows that are already Python ints in [0, p), of
equal length, over a verified Prime, and checks nothing: the BV operator's
matrices (`bv.delta_matrix`).
"""

from __future__ import annotations

from .algebra import Prime, as_prime


class FpMatrix:
    """A dense matrix over F_p with a rank query.

    `a` is the list of rows, each a list of Python ints in [0, p); entries
    may be anything `int` reads exactly, such as another library's integer
    scalars.  Zero-row and zero-column matrices are allowed, `shape` giving
    the column count of a matrix with no rows; they come up constantly as
    boundary cases of graded maps.
    """

    def __init__(self, entries, p, shape: tuple[int, int] | None = None):
        self.p = as_prime(p)
        q = self.p.p
        self.a = [[int(v) % q for v in row] for row in entries]
        if self.a:
            self.cols = len(self.a[0])
        else:
            self.cols = shape[1] if shape is not None else 0
        if any(len(row) != self.cols for row in self.a):
            raise ValueError("rows of unequal length")
        if shape is not None and tuple(shape) != (self.rows, self.cols):
            raise ValueError(f"expected shape {tuple(shape)}, got {(self.rows, self.cols)}")

    @classmethod
    def _trusted(cls, rows: list[list[int]], prime: Prime, cols: int) -> "FpMatrix":
        """Wrap `rows`, each `cols` Python ints in [0, p), unchecked and
        uncopied."""
        m = object.__new__(cls)
        m.p, m.a, m.cols = prime, rows, cols
        return m

    @property
    def rows(self) -> int:
        return len(self.a)

    def is_zero(self) -> bool:
        return not any(map(any, self.a))

    def rref(self) -> tuple[list[list[int]], list[int]]:
        """Reduced row echelon form and the list of pivot columns."""
        p = self.p.p
        r = [row[:] for row in self.a]
        pivots: list[int] = []
        row = 0
        for col in range(self.cols):
            if row == self.rows:
                break
            lead = next((i for i in range(row, self.rows) if r[i][col]), None)
            if lead is None:
                continue
            r[row], r[lead] = r[lead], r[row]
            inv = pow(r[row][col], p - 2, p)
            top = r[row] = [v * inv % p for v in r[row]]
            for i, other in enumerate(r):
                f = other[col]
                if f and i != row:
                    r[i] = [(v - f * t) % p for v, t in zip(other, top)]
            pivots.append(col)
            row += 1
        return r, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def __repr__(self) -> str:
        return f"FpMatrix({self.rows}x{self.cols} mod {self.p})"


def rank_kernel_image(m: FpMatrix) -> tuple[int, list[list[int]], list[list[int]]]:
    """Rank, kernel basis and image basis of a matrix over F_p, from one `rref`.

    The kernel has one vector of length `cols` per free column; the image is
    the pivot columns of `m`, one vector of length `rows` each.
    """
    p = m.p.p
    r, pivots = m.rref()
    kernel = []
    for f in sorted(set(range(m.cols)) - set(pivots)):
        v = [0] * m.cols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = -r[i][f] % p
        kernel.append(v)
    return len(pivots), kernel, [[row[c] for row in m.a] for c in pivots]
