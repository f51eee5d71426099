import operator
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from qdensity.symexpr import (
    D,
    ONE,
    ExactComplex,
    FieldExpr,
    I,
    TermSymmetry,
    UnsupportedStructureError,
    canonical_text,
    classify_time_symmetry,
    constant,
    dirac_charge_density,
    dirac_field_equation,
    dirac_lagrangian,
    euler_lagrange,
    field,
    kg_charge_density,
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


def evaluate(expr: FieldExpr, lookup) -> complex:
    """Numeric value with every atomic factor assigned independently.

    ``lookup`` maps factors ``(name, derivs)`` to complex values.  Two
    expressions agreeing on random assignments are (with probability one)
    the same polynomial, which makes this a structural-identity oracle.
    """
    total = 0j
    for mono, coeff in expr.terms.items():
        value = complex(coeff.re) + 1j * complex(coeff.im)
        for fac in mono:
            value *= lookup(fac)
        total += value
    return total


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


def test_integral_coefficient_parts_are_stored_as_int():
    # int arithmetic is what keeps the all-integer catalog cheap
    derived = [build() for build in GOLDEN_DERIVATIONS.values()]
    for expr in [*catalog_expressions(), *derived]:
        for coeff in expr.terms.values():
            assert type(coeff.re) is int and type(coeff.im) is int
    assert type(ExactComplex.of(Fraction(4, 2)).re) is int
    assert type(ExactComplex.of(Fraction(1, 2)).re) is Fraction


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


def test_rational_coefficients_multiply_and_collect_exactly():
    # (1/2 phi - 2/3 i phi*) (2 phi - 3 phi*), expanded by hand:
    # phi^2 - 3/2 phi phi* - 4/3 i phi* phi + 2 i phi*^2
    half, m23 = Fraction(1, 2), Fraction(-2, 3)
    phi, phis = field("phi"), field("phi_star")
    a = half * phi + m23 * I * phis
    b = 2 * phi - 3 * phis
    product = a * b
    pp = (("phi", ()), ("phi", ()))
    ps = (("phi", ()), ("phi_star", ()))
    ss = (("phi_star", ()), ("phi_star", ()))
    assert product.terms == {
        pp: ExactComplex(1, 0),
        ps: ExactComplex(Fraction(-3, 2), Fraction(-4, 3)),
        ss: ExactComplex(0, 2),
    }
    assert canonical_text(product).splitlines() == [
        "1 * phi phi", "(-3/2-4/3i) * phi phi_star", "2i * phi_star phi_star"
    ]
    # sums that collect back to an integer, or to nothing
    assert half * phi + half * phi == phi
    assert (m23 * phi + Fraction(2, 3) * phi).is_zero
    assert (m23 * I * phis) * (Fraction(3, 2) * I * phis) == field("phi_star") * phis
    assert_structurally_and_numerically_equal(
        product, a * (2 * phi) - a * (3 * phis)
    )


@pytest.mark.parametrize("value", [0.1, True, 1j, "1/2"], ids=repr)
def test_inexact_or_foreign_coefficients_are_rejected(value):
    name = type(value).__name__
    for multiply in (
        lambda: ExactComplex.of(value),
        lambda: ONE * value,
        lambda: value * I,
        lambda: field("phi") * value,
        lambda: value * field("phi"),
    ):
        with pytest.raises(TypeError, match=rf"\b{name}\b"):
            multiply()


@pytest.mark.parametrize(
    "symbol, combine, scalar",
    [
        ("+", operator.add, 1),
        ("-", operator.sub, 1),
        ("+", operator.add, Fraction(1, 2)),
        ("-", operator.sub, 0.5),
    ],
    ids=["+1", "-1", "+Fraction(1,2)", "-0.5"],
)
def test_adding_a_scalar_is_refused_naming_both_types(symbol, combine, scalar):
    # no caller adds a scalar, so none is lifted; Python names both operands
    both = rf"for {re.escape(symbol)}: 'FieldExpr' and '{type(scalar).__name__}'"
    with pytest.raises(TypeError, match=both):
        combine(field("phi"), scalar)


def test_total_derivative_product_rule():
    expr = field("phi") * field("phi_star")
    expected = D("phi", 0) * field("phi_star") + field("phi") * D("phi_star", 0)
    assert total_derivative(expr, 0) == expected
    # constants are transparent
    assert total_derivative(constant("m") * field("phi"), 2) == constant("m") * D(
        "phi", 2
    )


def test_the_empty_expression_is_zero():
    assert FieldExpr().is_zero
    assert FieldExpr().terms == {}
    assert FieldExpr() == field("phi") - field("phi")
    assert FieldExpr() + field("phi") == field("phi")


def test_symbols_outside_the_three_classes_are_refused():
    with pytest.raises(ValueError, match="unknown symbol 'chi'"):
        FieldExpr.atom("chi")
    with pytest.raises(ValueError, match="unknown symbol 'chi'"):
        D("chi", 0)
    # a hand-built monomial bypasses atom; differentiating it still refuses
    rogue = FieldExpr({(("chi", ()), ("phi", ())): ONE})
    with pytest.raises(ValueError, match="unknown symbol 'chi'"):
        total_derivative(rogue, 1)


@pytest.mark.parametrize("name", ["e", "m", "omega", "gamma0", "gamma3"])
def test_constants_carry_no_derivatives(name):
    with pytest.raises(ValueError, match=f"constant {name!r} cannot carry derivatives"):
        D(name, 0)
    assert FieldExpr.atom(name) == constant(name)


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
            FieldExpr(),
        )
        l2 = sum(
            (Fraction(rng.randint(-3, 3)) * term for term in pool),
            FieldExpr(),
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


def test_interacting_legendre_offset_matches_sympy_derivation():
    # Independent oracle: the canonical Hamiltonian of the minimally coupled
    # scalar Lagrangian, derived by sympy with the fields and their first
    # derivatives as plain symbols, is the quoted form plus e*V*rho.
    sp = pytest.importorskip("sympy")
    e, m, V = sp.symbols("e m V")
    A = sp.symbols("A1:4")
    phi, phis = sp.symbols("phi phi_star")
    d0, d0s = sp.symbols("d0phi d0phi_star")
    dk = sp.symbols("d1phi:4")
    dks = sp.symbols("d1phi_star:4")
    i = sp.I
    cov0, cov0s = d0 + i * e * V * phi, d0s - i * e * V * phis
    covk = [dk[k] - i * e * A[k] * phi for k in range(3)]
    covks = [dks[k] + i * e * A[k] * phis for k in range(3)]
    spatial = sum(covks[k] * covk[k] for k in range(3))
    lagrangian = cov0s * cov0 - spatial - m**2 * phis * phi
    hamiltonian = (
        d0 * sp.diff(lagrangian, d0) + d0s * sp.diff(lagrangian, d0s) - lagrangian
    )
    quoted = cov0s * cov0 + spatial + m**2 * phis * phi
    rho = i * (phis * d0 - d0s * phi) - 2 * e * V * phis * phi
    assert sp.expand(hamiltonian - quoted - e * V * rho) == 0
    assert sp.expand(hamiltonian - quoted) != 0


# fields and potentials are functions of x^0..x^3 once a total derivative is
# taken; every other symbol (e, m, the gamma tags) is a commuting constant
SPACETIME_FUNCTIONS = ("phi", "phi_star", "psi", "psibar", "V", "A1", "A2", "A3")


def sympy_oracle(sp):
    """The four golden derivations redone by sympy, and the atom translator.

    Each Lagrangian is written with the fields and their first derivatives
    as plain symbols, so the partial derivatives are sympy's own.  The
    results are then lifted to functions of x^0..x^3, where sympy's chain
    rule supplies the total derivatives of the Euler-Lagrange equations.
    """
    x = sp.symbols("x0:4")

    def atom(name, derivs=()):
        if name not in SPACETIME_FUNCTIONS:
            return sp.Symbol(name)
        value = sp.Function(name)(*x)
        return sp.diff(value, *(x[mu] for mu in derivs)) if derivs else value

    e, m, V = sp.symbols("e m V")
    A = sp.symbols("A1:4")
    gamma = sp.symbols("gamma0:4")
    fields = {name: sp.Symbol(name) for name in ("psi", "psibar", "phi", "phi_star")}
    grads = {name: sp.symbols(f"d0:4{name}") for name in fields}
    lift = {V: atom("V"), **{A[k]: atom(f"A{k + 1}") for k in range(3)}}
    for name, symbol in fields.items():
        lift[symbol] = atom(name)
        lift.update({grads[name][mu]: atom(name, (mu,)) for mu in range(4)})

    psi, psibar = fields["psi"], fields["psibar"]
    gamma_a = V * gamma[0] - sum(A[k] * gamma[k + 1] for k in range(3))
    dirac = (
        sum(sp.I * gamma[mu] * psibar * grads["psi"][mu] for mu in range(4))
        - e * gamma_a * psibar * psi
        - m * psibar * psi
    )
    phi, phis = fields["phi"], fields["phi_star"]
    d_phi, d_phis = grads["phi"], grads["phi_star"]
    kg = (d_phis[0] - sp.I * e * V * phis) * (d_phi[0] + sp.I * e * V * phi)
    for k in (1, 2, 3):
        cov = d_phi[k] - sp.I * e * A[k - 1] * phi
        cov_star = d_phis[k] + sp.I * e * A[k - 1] * phis
        kg -= cov_star * cov
    kg -= m**2 * phis * phi

    def euler_lagrange(lagrangian, name):
        result = -sp.diff(lagrangian, fields[name]).xreplace(lift)
        for mu in range(4):
            momentum = sp.diff(lagrangian, grads[name][mu]).xreplace(lift)
            result += sp.diff(momentum, x[mu])
        return result

    def legendre(lagrangian, names):
        velocities = [grads[name][0] for name in names]
        ham = sum(v * sp.diff(lagrangian, v) for v in velocities) - lagrangian
        return ham.xreplace(lift)

    derivations = {
        "el_dirac.txt": euler_lagrange(dirac, "psibar"),
        "el_kg.txt": euler_lagrange(kg, "phi_star"),
        "legendre_dirac.txt": legendre(dirac, ["psi", "psibar"]),
        "legendre_kg.txt": legendre(kg, ["phi", "phi_star"]),
    }
    return derivations, atom


def sympy_from_text(sp, text, atom):
    """Parse a golden file: one ``coefficient * factor factor ...`` per line."""
    total = 0
    for line in text.splitlines():
        coeff_text, _, factors = line.partition(" * ")
        parts = re.fullmatch(r"\(?(-?)(\d+(?:/\d+)?)?\)?(i?)", coeff_text)
        assert parts, f"unsupported coefficient {coeff_text!r}"
        term = sp.Rational(parts[2] or 1) * (sp.I if parts[3] else 1)
        term = -term if parts[1] else term
        for factor in factors.split():
            derived = re.fullmatch(r"d(\d+)\((\w+)\)", factor)
            if derived:
                term *= atom(derived[2], tuple(int(mu) for mu in derived[1]))
            else:
                term *= atom(factor)
        total += term
    return total


def sympy_from_expr(sp, expr: FieldExpr, atom):
    total = 0
    for mono, coeff in expr.terms.items():
        term = sp.Rational(coeff.re) + sp.I * sp.Rational(coeff.im)
        for name, derivs in mono:
            term *= atom(name, derivs)
        total += term
    return total


@pytest.mark.parametrize("name", GOLDEN_DERIVATIONS)
def test_golden_derivations_match_sympy_rederivation(name):
    # the golden text and the live engine output both equal sympy's result
    sp = pytest.importorskip("sympy")
    derivations, atom = sympy_oracle(sp)
    expected = derivations[name]
    golden = sympy_from_text(sp, (GOLDEN / name).read_text(), atom)
    live = sympy_from_expr(sp, GOLDEN_DERIVATIONS[name](), atom)
    assert expected != 0
    assert sp.expand(golden - expected) == 0
    assert sp.expand(live - expected) == 0


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
        rebuilt = sum(reversed(pieces), FieldExpr())
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
    assert canonical_text(FieldExpr()) == "0"
    a = kg_charge_density()
    assert canonical_text(a) == canonical_text(kg_charge_density())
