"""Public functions refuse arguments outside their domain with ValueError."""

import pytest

from confhom import (
    ONE,
    SOURCE_WEIGHT_PQ,
    Element,
    Generator,
    Monomial,
    SpaceSpec,
    alpha_gen,
    beta_gen,
    bijection_image,
    cohen_generators,
    equivariant_s1,
    equivariant_zp,
    fixed_point_total_dim,
    gravity_op_degree,
    iota,
    monomial_basis,
    punctured_plane_basis,
    q_iota,
    series_coefficient,
    series_table,
    shifted_weight_slice,
    sphere_bq,
    sphere_labelled_generators,
    sphere_q,
    trivial_rep_homology_p2,
    u_class,
    verify_dimension_identity,
    verify_q_stability,
)


def _weighted(weight):
    """A polynomial generator of the given weight and degree 2."""
    return Generator("tower", 0, "g", weight, 2, False, (9, 0))


# (id, the refused call, the start of its message)
_REFUSALS = [
    ("u_class-even-p", lambda: u_class(2), "the weight-2 odd generator exists only for odd p"),
    ("beta_gen-index-0", lambda: beta_gen(0, 3), "beta generators require odd p"),
    ("alpha_gen-even-p", lambda: alpha_gen(1, 2), "alpha generators require odd p"),
    ("q_iota-index-0", lambda: q_iota(0), "q_iota index must be >= 1"),
    ("sphere_q-dim-0", lambda: sphere_q(0, 0, 3), "sphere_q requires i >= 0 and m >= 1"),
    ("sphere_bq-even-p", lambda: sphere_bq(1, 1, 2), "sphere_bq requires odd p"),
    ("negative-exponent", lambda: Monomial([(iota(), -1)]), "negative exponent for i"),
    ("mixed-primes", lambda: Element.zero(3).add(Element.zero(5)), "mixed primes"),
    ("equivariant_zp-negative-n", lambda: equivariant_zp(-1, 3), "n must be >= 0, got -1"),
    ("sphere-dim-0", lambda: SpaceSpec("sphere_labelled", 0).validate(3),
     "sphere dimension m >= 1 required"),
    ("punctured-negative-q", lambda: punctured_plane_basis(-1, 3), "q must be >= 0, got -1"),
    ("fixed-points-negative-n", lambda: fixed_point_total_dim(-1, 3), "n must be >= 0, got -1"),
    ("cohen-bound-0", lambda: cohen_generators([], 3, 0), "weight_bound must be >= 1, got 0"),
    ("duplicate-generators", lambda: monomial_basis([iota(), iota()], 2, 3),
     "duplicate generators"),
    ("monomial_basis-weight-0", lambda: monomial_basis([_weighted(0)], 4, 3),
     "generator g needs weight >= 1, got 0"),
    ("monomial_basis-negative-weight", lambda: monomial_basis([iota(), _weighted(-1)], 0, 3),
     "generator g needs weight >= 1, got -1"),
    ("series_coefficient-weight-0", lambda: series_coefficient([_weighted(0)], 4, None, 3),
     "series generators need weight >= 1 and degree >= 0"),
    ("series_table-weight-0", lambda: series_table([_weighted(0)], 4, 4, 3),
     "series generators need weight >= 1 and degree >= 0"),
    ("series_table-negative-weight", lambda: series_table([iota()], -1, 0, 3),
     "bounds must be >= 0"),
    ("series_coefficient-negative-weight", lambda: series_coefficient([iota()], -1, None, 3),
     "weight must be >= 0, got -1"),
    ("shifted-slice-negative-weight", lambda: shifted_weight_slice(-1, 3, 1),
     "weight must be >= 0, got -1"),
    ("bijection-negative-q", lambda: bijection_image(ONE, SOURCE_WEIGHT_PQ, 3, -1),
     "q must be >= 0, got -1"),
    ("dimension-identity-negative-q", lambda: verify_dimension_identity(3, -1),
     "q_max must be >= 0, got -1"),
    ("q-stability-no-q", lambda: verify_q_stability(0, 3, []), "q_list must be nonempty"),
    ("q-stability-negative-q", lambda: verify_q_stability(0, 3, [-1]), "n and q must be >= 0"),
    ("mod-2-route-negative-n", lambda: trivial_rep_homology_p2(-1, 1), "n must be >= 0, got -1"),
    ("equivariant_s1-negative-n", lambda: equivariant_s1(-1, 3), "n must be >= 0, got -1"),
    ("gravity-bogus-parity", lambda: gravity_op_degree(0, 1, 0, "bogus"),
     "parity must be 'even' or 'odd'"),
    ("sphere-generators-bound-0", lambda: sphere_labelled_generators(3, 1, 0),
     "weight_bound must be >= 1, got 0"),
]


@pytest.mark.parametrize("call, message", [c[1:] for c in _REFUSALS], ids=[c[0] for c in _REFUSALS])
def test_out_of_domain_arguments_raise_value_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value).startswith(message)
