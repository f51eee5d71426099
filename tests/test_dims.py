import random
from fractions import Fraction

import pytest

from qdensity.dims import (
    LAGRANGIAN_DENSITY_EXPONENT,
    Dim,
    TermSpec,
    UnknownSymbolError,
    check_density_requirement_A,
    infer_field_dimension,
    term_dimension,
)

PSI_DIMS = {"psi": Dim(Fraction(-3, 2)), "psibar": Dim(Fraction(-3, 2))}
PHI_DIMS = {"phi": Dim(-1), "phi_star": Dim(-1)}


def test_dirac_kinetic_term_has_lagrangian_dimension():
    term = TermSpec(field_powers={"psibar": 1, "psi": 1}, derivative_count=1)
    assert term_dimension(term, PSI_DIMS).exponent == LAGRANGIAN_DENSITY_EXPONENT


def test_single_dimensionless_field_is_identity_case():
    term = TermSpec(field_powers={"phi": 1})
    assert term_dimension(term, {"phi": Dim(0)}).exponent == 0


def test_kg_mass_term_has_lagrangian_dimension():
    # m^2 phi* phi: the operator carries the two mass factors
    term = TermSpec(
        field_powers={"phi_star": 1, "phi": 1}, operator_dim=Dim(-2)
    )
    assert term_dimension(term, PHI_DIMS).exponent == -4


def test_unknown_field_symbol_rejected():
    term = TermSpec(field_powers={"chi": 2})
    with pytest.raises(UnknownSymbolError):
        term_dimension(term, PHI_DIMS)


@pytest.mark.parametrize(
    "operator_exponent, expected",
    [(-1, Fraction(-3, 2)), (-2, Fraction(-1)), (-4, Fraction(0))],
)
def test_infer_field_dimension(operator_exponent, expected):
    assert infer_field_dimension(Dim(operator_exponent)).exponent == expected


def test_requirement_A_examples():
    spinor_density = TermSpec(field_powers={"psi": 2})
    assert check_density_requirement_A(spinor_density, PSI_DIMS)

    bare_modulus = TermSpec(field_powers={"phi_star": 1, "phi": 1})
    assert not check_density_requirement_A(bare_modulus, PHI_DIMS)

    current_density = TermSpec(
        field_powers={"phi_star": 1, "phi": 1}, derivative_count=1
    )
    assert check_density_requirement_A(current_density, PHI_DIMS)


def test_nonrelativistic_limit_clash():
    # a second-order operator forces -1, never the -3/2 a Schroedinger-style
    # probability density would need
    assert infer_field_dimension(Dim(-2)).exponent != Fraction(-3, 2)


def test_inferred_dimension_round_trips_to_lagrangian_density():
    rng = random.Random(7)
    for _ in range(100):
        operator = Dim(Fraction(rng.randint(-12, 12), rng.randint(1, 6)))
        inferred = infer_field_dimension(operator)
        term = TermSpec(field_powers={"phi": 2}, operator_dim=operator)
        total = term_dimension(term, {"phi": inferred})
        assert total.exponent == LAGRANGIAN_DENSITY_EXPONENT


def test_term_spec_validation():
    with pytest.raises(ValueError):
        TermSpec(field_powers={"phi": -1})
    with pytest.raises(ValueError):
        TermSpec(field_powers={}, derivative_count=1)
    with pytest.raises(ValueError):
        TermSpec(field_powers={"phi": 1}, derivative_count=-2)
