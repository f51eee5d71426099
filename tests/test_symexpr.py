import random
from fractions import Fraction
from pathlib import Path

import pytest

from qdensity.symexpr import (
    D,
    FieldExpr,
    I,
    TermSymmetry,
    UnsupportedStructureError,
    canonical_text,
    classify_time_symmetry,
    constant,
    dirac_charge_density,
    dirac_current_component,
    dirac_field_equation,
    dirac_lagrangian,
    euler_lagrange,
    evaluate,
    field,
    kg_charge_density,
    kg_current_component,
    kg_field_equation,
    kg_hamiltonian_density,
    kg_lagrangian,
    legendre_transform,
    partial_derivative,
    potential,
    set_charge_zero,
    substitute_real,
    swap_fields,
    total_derivative,
)

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_DERIVATIONS = {
    "el_dirac.txt": lambda: euler_lagrange(dirac_lagrangian(), "psibar"),
    "el_kg.txt": lambda: euler_lagrange(kg_lagrangian(), "phi_star"),
    "legendre_dirac.txt": lambda: legendre_transform(
        dirac_lagrangian(), ["psi", "psibar"]
    ),
    "legendre_kg.txt": lambda: legendre_transform(
        kg_lagrangian(), ["phi", "phi_star"]
    ),
}


def catalog_expressions():
    yield from (
        dirac_lagrangian(),
        dirac_field_equation(),
        dirac_charge_density(),
        kg_lagrangian(),
        kg_field_equation(),
        kg_hamiltonian_density(),
        kg_charge_density(),
    )
    yield from (dirac_current_component(mu) for mu in range(4))
    yield from (kg_current_component(k) for k in (1, 2, 3))


def random_env(seed: int):
    """Assign an independent random complex value to every atomic factor."""
    rng = random.Random(seed)
    cache = {}

    def lookup(factor):
        if factor not in cache:
            cache[factor] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return cache[factor]

    return lookup


def assert_structurally_and_numerically_equal(a: FieldExpr, b: FieldExpr):
    assert a == b
    env = random_env(99)
    assert abs(evaluate(a, env) - evaluate(b, env)) < 1e-12


# ----- engine basics ------------------------------------------------------------


def test_canonicalization_is_idempotent():
    # every result satisfies the canonical-form contract: sorted monomial
    # keys, sorted derivative multi-indices and no zero coefficients
    derived = [build() for build in GOLDEN_DERIVATIONS.values()]
    for expr in [*catalog_expressions(), *derived]:
        assert not expr.is_zero
        for mono, coeff in expr.terms.items():
            assert isinstance(mono, tuple)
            assert mono == tuple(sorted(mono))
            assert all(derivs == tuple(sorted(derivs)) for _n, derivs in mono)
            assert not coeff.is_zero


def test_product_is_commutative_in_canonical_form():
    a = field("phi") * D("phi_star", 0) * constant("e")
    b = constant("e") * D("phi_star", 0) * field("phi")
    assert a == b
    assert canonical_text(a) == canonical_text(b)


def test_evaluate_respects_ring_operations():
    x = field("phi") + 2 * D("phi", 1)
    y = constant("m") * field("phi_star") - I * potential("V")
    env = random_env(3)
    assert abs(evaluate(x * y, env) - evaluate(x, env) * evaluate(y, env)) < 1e-12
    assert abs(evaluate(x + y, env) - (evaluate(x, env) + evaluate(y, env))) < 1e-12


def test_total_derivative_product_rule():
    expr = field("phi") * field("phi_star")
    expected = D("phi", 0) * field("phi_star") + field("phi") * D("phi_star", 0)
    assert total_derivative(expr, 0) == expected
    # constants are transparent
    assert total_derivative(constant("m") * field("phi"), 2) == constant("m") * D(
        "phi", 2
    )


def test_partial_derivative_counts_multiplicity():
    expr = field("phi") * field("phi") * constant("e")
    assert partial_derivative(expr, ("phi", ())) == 2 * constant("e") * field("phi")
    assert partial_derivative(expr, ("phi", (0,))).is_zero


# ----- Euler-Lagrange ------------------------------------------------------------


def test_free_scalar_field_equation():
    # L = d0 phi* d0 phi - sum_k dk phi* dk phi - m^2 phi* phi
    lag = set_charge_zero(kg_lagrangian())
    result = euler_lagrange(lag, "phi_star")
    m, phi = constant("m"), field("phi")
    expected = D("phi", 0, 0) + m * m * phi
    for k in (1, 2, 3):
        expected = expected - D("phi", k, k)
    assert_structurally_and_numerically_equal(result, expected)


def test_mass_only_lagrangian():
    lag = -(constant("m") * constant("m") * field("phi_star") * field("phi"))
    result = euler_lagrange(lag, "phi_star")
    assert result == constant("m") * constant("m") * field("phi")


def test_interacting_scalar_field_equation_matches_hand_derivation():
    result = euler_lagrange(kg_lagrangian(), "phi_star")
    assert_structurally_and_numerically_equal(result, kg_field_equation())


def test_interacting_scalar_field_equation_matches_covariant_composition():
    # independent route: apply the covariant derivatives as engine operators
    e, V, m, phi = constant("e"), potential("V"), constant("m"), field("phi")

    def cov0(x):
        return total_derivative(x, 0) + I * e * V * x

    def covk(x, k):
        return total_derivative(x, k) - I * e * potential(f"A{k}") * x

    composed = cov0(cov0(phi)) + m * m * phi
    for k in (1, 2, 3):
        composed = composed - covk(covk(phi, k), k)
    assert euler_lagrange(kg_lagrangian(), "phi_star") == composed


def test_spinor_field_equation_matches_hand_derivation():
    result = euler_lagrange(dirac_lagrangian(), "psibar")
    assert_structurally_and_numerically_equal(result, dirac_field_equation())


def test_euler_lagrange_is_linear():
    rng = random.Random(11)
    pool = [
        field("phi") * field("phi_star"),
        D("phi", 0) * D("phi_star", 0),
        D("phi", 2) * field("phi_star") * potential("V"),
        constant("m") * field("phi") * field("phi"),
        D("phi_star", 1) * D("phi", 1) * constant("e"),
    ]
    for _ in range(20):
        l1 = sum(
            (Fraction(rng.randint(-3, 3)) * term for term in pool),
            FieldExpr.zero(),
        )
        l2 = sum(
            (Fraction(rng.randint(-3, 3)) * term for term in pool),
            FieldExpr.zero(),
        )
        a, b = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
        lhs = euler_lagrange(a * l1 + b * l2, "phi")
        rhs = a * euler_lagrange(l1, "phi") + b * euler_lagrange(l2, "phi")
        assert lhs == rhs


def test_scaling_preserves_field_equation_zero_set():
    scaled = euler_lagrange(3 * kg_lagrangian(), "phi_star")
    assert scaled == 3 * kg_field_equation()


def test_second_derivatives_rejected():
    bad = D("phi", 0, 0) * field("phi_star")
    with pytest.raises(UnsupportedStructureError):
        euler_lagrange(bad, "phi_star")
    with pytest.raises(UnsupportedStructureError):
        legendre_transform(bad, ["phi"])
    with pytest.raises(ValueError):
        euler_lagrange(kg_lagrangian(), "V")


# ----- Legendre transform ---------------------------------------------------------


def test_legendre_of_static_lagrangian_is_negation():
    static = constant("m") * field("phi_star") * field("phi") + D(
        "phi", 1
    ) * D("phi_star", 1)
    assert legendre_transform(static, ["phi", "phi_star"]) == -static


def test_legendre_of_free_scalar_matches_quoted_energy_density():
    lag = set_charge_zero(kg_lagrangian())
    ham = legendre_transform(lag, ["phi", "phi_star"])
    assert ham == set_charge_zero(kg_hamiltonian_density())


def test_interacting_legendre_differs_by_potential_energy_term():
    # The quoted sum-of-squares energy density is not the canonical Legendre
    # transform once e*V != 0: the offset is exactly e*V times the charge
    # density, i.e. the potential energy of the charge distribution.
    ham = legendre_transform(kg_lagrangian(), ["phi", "phi_star"])
    quoted = kg_hamiltonian_density()
    offset = constant("e") * potential("V") * kg_charge_density()
    assert quoted != ham
    assert_structurally_and_numerically_equal(quoted, ham - offset)


def test_spinor_legendre_transform_has_no_time_derivative():
    ham = legendre_transform(dirac_lagrangian(), ["psi", "psibar"])
    assert all(
        0 not in derivs for mono in ham.terms for (_name, derivs) in mono
    )


# ----- classification --------------------------------------------------------------


def test_classification_of_catalog_expressions():
    assert classify_time_symmetry(kg_hamiltonian_density()) is TermSymmetry.SYMMETRIC
    assert classify_time_symmetry(kg_charge_density()) is TermSymmetry.ANTISYMMETRIC
    assert (
        classify_time_symmetry(dirac_charge_density())
        is TermSymmetry.NO_TIME_DERIVATIVE
    )


def test_classification_of_mixed_expression():
    lopsided = field("phi_star") * D("phi", 0) + 2 * D("phi_star", 0) * field("phi")
    assert classify_time_symmetry(lopsided) is TermSymmetry.MIXED


def test_classification_only_looks_at_top_time_derivative_terms():
    # adding derivative-free asymmetry must not change the classification
    expr = kg_hamiltonian_density() + potential("V") * field("phi") * field("phi")
    assert classify_time_symmetry(expr) is TermSymmetry.SYMMETRIC


def test_classification_invariant_under_canonicalization():
    # rebuilding from single-monomial pieces in reverse order changes the
    # insertion order but not the canonical form or the classification
    for expr in (kg_hamiltonian_density(), kg_charge_density()):
        pieces = [FieldExpr({mono: c}) for mono, c in expr.terms.items()]
        rebuilt = sum(reversed(pieces), FieldExpr.zero())
        assert list(rebuilt.terms) != list(expr.terms)
        assert rebuilt == expr
        assert classify_time_symmetry(rebuilt) is classify_time_symmetry(expr)


# ----- real-field substitution ------------------------------------------------------


def test_real_substitution_annihilates_density_when_uncharged():
    assert substitute_real(kg_charge_density(), charge_to_zero=True).is_zero


def test_real_substitution_leaves_coupling_term():
    reduced = substitute_real(kg_charge_density())
    expected = -2 * constant("e") * potential("V") * field("phi") * field("phi")
    assert reduced == expected


def test_real_substitution_fixed_point():
    expr = D("phi", 1) * field("phi") * constant("m")
    assert substitute_real(expr) == expr


def test_real_substitution_kills_every_antisymmetric_pair():
    rng = random.Random(5)
    derivs_pool = [(), (0,), (1,), (2,), (0, 3)]
    for _ in range(40):
        mono = field("phi")
        for _ in range(rng.randint(0, 2)):
            mono = mono * D("phi", *rng.choice(derivs_pool))
        mono = mono * D("phi_star", *rng.choice(derivs_pool))
        pair_diff = mono - swap_fields(mono, ("phi", "phi_star"))
        assert substitute_real(pair_diff).is_zero


def test_real_substitution_rejects_spinor_expressions():
    with pytest.raises(UnsupportedStructureError):
        substitute_real(dirac_charge_density())


# ----- serialization ----------------------------------------------------------------


@pytest.mark.parametrize("name, builder", GOLDEN_DERIVATIONS.items())
def test_golden_canonical_forms(name, builder):
    expected = (GOLDEN / name).read_text().rstrip("\n")
    assert canonical_text(builder()) == expected


def test_canonical_text_deterministic_and_zero():
    assert canonical_text(FieldExpr.zero()) == "0"
    a = kg_charge_density()
    assert canonical_text(a) == canonical_text(kg_charge_density())


def test_current_component_catalog_entries():
    assert not kg_current_component(1).is_zero
    assert not dirac_current_component(2).is_zero
    with pytest.raises(ValueError):
        kg_current_component(0)
    with pytest.raises(ValueError):
        dirac_current_component(7)
