"""Basic brackets over a set of labelled homology classes.

A basic bracket is an admissible binary bracket expression whose leaves
are label classes.  Admissibility is Hall's condition: in [a, b] the
arguments are basic, a < b in the bracket order, and when b = [c, d] also
c <= a.  For odd p the self-brackets [w, w] of even-degree admissible
brackets are included as well; these squares are terminal and never occur
inside a larger bracket (their iterates vanish by the graded Jacobi
relation, so keeping them as leaves of the construction is what yields a
basis).

From a list of basic brackets, `cohen_generators` produces the free
graded-commutative algebra generators of the labelled configuration-space
homology: the whole degree-raising tower over every bracket at p = 2, and
at odd p the even-degree brackets together with the tower and its
Bockstein over the odd-degree ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .algebra import Generator, Prime, as_prime, bracket_generator, tower_generator


@dataclass(frozen=True)
class LabelClass:
    """A reduced homology class of the label space; weight 1 for a primitive class."""

    name: str
    degree: int
    weight: int = 1


@dataclass(frozen=True)
class BasicBracket:
    """A bracket expression: either a label leaf or a pair of sub-brackets.

    degree([a, b]) = degree(a) + degree(b) + 1; weight adds.
    """

    label: Optional[LabelClass]
    left: Optional["BasicBracket"]
    right: Optional["BasicBracket"]
    weight: int
    degree: int

    def is_leaf(self) -> bool:
        return self.label is not None

    def text(self) -> str:
        if self.is_leaf():
            return self.label.name
        return f"[{self.left.text()},{self.right.text()}]"

    def __str__(self) -> str:
        return self.text()


def leaf(label: LabelClass) -> BasicBracket:
    return BasicBracket(label, None, None, label.weight, label.degree)


def bracket_of(x: BasicBracket, y: BasicBracket) -> BasicBracket:
    return BasicBracket(None, x, y, x.weight + y.weight, x.degree + y.degree + 1)


@lru_cache(maxsize=None)
def _enc(b: BasicBracket) -> tuple:
    """Flattened structural encoding; lexicographic on it is a total order."""
    if b.is_leaf():
        return (0, b.label.degree, b.label.name)
    return (1,) + _enc(b.left) + _enc(b.right)


def bracket_sort_key(b: BasicBracket) -> tuple:
    """Total order on brackets: weight, then degree, then structure."""
    return (b.weight, b.degree, _enc(b))


def _hall_pair(x: BasicBracket, y: BasicBracket) -> bool:
    """Hall's condition on [x, y] given admissible x and y: x < y, and
    c <= x when y = [c, d]."""
    key_x = bracket_sort_key(x)
    return key_x < bracket_sort_key(y) and (y.is_leaf() or bracket_sort_key(y.left) <= key_x)


def is_hall(b: BasicBracket) -> bool:
    """Hall admissibility with the strict a < b condition (no self-brackets)."""
    if b.is_leaf():
        return True
    return is_hall(b.left) and is_hall(b.right) and _hall_pair(b.left, b.right)


def is_basic(b: BasicBracket, p) -> bool:
    """Admissibility including the terminal even squares [w, w] at odd p."""
    if is_hall(b):
        return True
    prime = as_prime(p)
    return (
        prime.p != 2
        and not b.is_leaf()
        and b.left == b.right
        and b.left.degree % 2 == 0
        and is_hall(b.left)
    )


def enumerate_basic_brackets(labels, max_weight: int, p) -> list[BasicBracket]:
    """All basic brackets of weight <= max_weight over the given labels.

    The result is sorted by `bracket_sort_key`, which is compatible with
    weight.  Self-brackets of odd-degree elements are never produced (they
    vanish by graded antisymmetry at odd p and are not admissible at p = 2).
    """
    if max_weight < 1:
        raise ValueError(f"max_weight must be >= 1, got {max_weight}")
    labels = list(labels)
    if not labels:
        raise ValueError("label list must be nonempty")
    if len({l.name for l in labels}) != len(labels):
        raise ValueError("label names must be distinct")
    prime = as_prime(p)

    by_weight: dict[int, list[BasicBracket]] = {}
    for l in labels:
        by_weight.setdefault(l.weight, []).append(leaf(l))
    for group in by_weight.values():
        group.sort(key=bracket_sort_key)
    for k in range(2, max_weight + 1):
        found = by_weight.setdefault(k, [])
        for i in range(1, k):
            for x in by_weight.get(i, ()):
                for y in by_weight.get(k - i, ()):
                    if _hall_pair(x, y):
                        found.append(bracket_of(x, y))
        found.sort(key=bracket_sort_key)

    result = [b for k in sorted(by_weight) if k <= max_weight for b in by_weight[k]]
    if prime.p != 2:
        squares = [
            bracket_of(w, w)
            for k in sorted(by_weight)
            for w in by_weight[k]
            if w.degree % 2 == 0 and 2 * w.weight <= max_weight
        ]
        result.extend(squares)
    result.sort(key=bracket_sort_key)
    return result


def bracket_as_generator(br: BasicBracket, p) -> Generator:
    """Wrap a bracket expression as an unexpanded algebra generator."""
    return bracket_generator(br.text(), br.weight, br.degree, _enc(br), p)


def _tower_gen(br: BasicBracket, i: int, bockstein: bool, weight: int, degree: int, p: Prime) -> Generator:
    if i == 0 and not bockstein:
        return bracket_generator(br.text(), weight, degree, _enc(br), p)
    name = ("b" if bockstein else "") + f"Q{i}" + br.text()
    return tower_generator(name, weight, degree, _enc(br), i, bockstein, p)


def cohen_generators(brackets, p, weight_bound: int) -> list[Generator]:
    """Free graded-commutative algebra generators built from basic brackets:
    the tower Q^i(x), i >= 0, over each bracket x, where Q multiplies the
    weight by p and sends degree d to p*d + p - 1 (2d + 1 at p = 2).  At odd
    p an even-degree bracket is a plain generator with no tower, and an
    odd-degree one's tower comes with its Bockstein (degree one lower) for
    i >= 1.  Emission stops at `weight_bound`.
    """
    if weight_bound < 1:
        raise ValueError(f"weight_bound must be >= 1, got {weight_bound}")
    prime = as_prime(p)
    out: list[Generator] = []
    for br in brackets:
        w, d, i = br.weight, br.degree, 0
        while w <= weight_bound:
            out.append(_tower_gen(br, i, False, w, d, prime))
            if prime.p != 2:
                if br.degree % 2 == 0:
                    break
                if i >= 1:
                    out.append(_tower_gen(br, i, True, w, d - 1, prime))
            i, d, w = i + 1, prime.p * d + prime.p - 1, prime.p * w
    return sorted(out, key=lambda g: g.rank)
