#!/usr/bin/env python3
"""The BV operator and circle-equivariant homology of plane configurations.

Rotating configurations gives a circle action, hence a degree +1 operator
on homology.  On a monomial i^k u^eps x (x in the weight-2p^i letters) the
operator sends i^k x to k(k-1) i^(k-2) u x and kills anything containing u.
Whether it vanishes identically depends only on n mod p, and that
dichotomy drives the equivariant answer.
Run me: python3 demos/02_bv_and_equivariant.py
"""

from confhom import (
    Monomial,
    collapse_total_degree,
    delta,
    delta_matrix,
    equivariant_s1,
    equivariant_zp,
    iota,
    monomial_basis,
    plane_config_generators,
    serre_e3,
)

P = 3

print("The operator on small powers of the point class (p = 3):")
for k in range(1, 7):
    m = Monomial([(iota(), k)])
    print(f"  i^{k} -> {delta(m, P).text()}")

# Weight 5 is the interesting regime at p = 3 (5 is neither 0 nor 1 mod 3).
n = 5
gens = plane_config_generators(P, n)
print(f"\nWeight {n} basis and the operator's matrices, degree by degree:")
for m in monomial_basis(gens, n, P):
    print(f"  {m.text():<8} degree {m.degree} -> {delta(m, P).text()}")
for d in (0, 1):
    mat = delta_matrix(n, P, d)
    print(f"  degree {d} -> {d + 1}: matrix {mat.a}, rank {mat.rank()}")

ans = equivariant_s1(n, P)
print(f"\nCircle-equivariant answer at weight {n}: regime {ans.regime}")
print(f"  dims {ans.dims.to_pairs()}, basis {[m.text() for m in ans.basis]}")

# Weight 6 is divisible by 3: the operator vanishes and the answer is the
# plane homology tensored with the circle classifying space.
ans6 = equivariant_s1(6, P, dmax=8)
print(f"\nWeight 6: regime {ans6.regime}, dims through degree 8: {ans6.dims.to_pairs()}")
print(f"  basis {[m.text() for m in ans6.basis]}, each with every even circle degree c, deg + c <= 8")

# The spectral sequence of the circle fibration is an independent route:
# its third page, collapsed along total degree, must match the dispatcher.
for n in (5, 6):
    page = serre_e3(n, P, 10)
    assert collapse_total_degree(page) == equivariant_s1(n, P, 10).dims
    cells = sorted(page.dims)
    print(f"\nThird page at weight {n}: nonzero cells (fiber degree, base column):")
    print(f"  {cells}")

# The rotation subgroup of order p gives a polynomial factor instead.
print(f"\nOrder-3 rotation equivariant homology at weight 3, through degree 6:")
print(f"  {equivariant_zp(3, P, 6).to_pairs()}")
