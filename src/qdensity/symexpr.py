"""Minimal expression trees for field Lagrangians and densities.

Expressions are kept permanently in canonical form: a sum of monomials,
each monomial a sorted tuple of factors with an exact nonzero
complex-rational coefficient.  Canonical form is established in
``_collect`` alone.  A factor is a symbol (field, potential or constant)
together with the sorted multi-index of partial derivatives applied to it, so
``d0(phi)`` and ``d00(phi)`` are distinct atoms.  This is just enough
structure to differentiate Lagrangians, form Euler-Lagrange equations and
Legendre transforms, classify the highest time-derivative terms, and decide
equality structurally.  No general computer algebra is attempted.

Coefficient parts are ``int`` where integral, as every catalog coefficient
is, and ``Fraction`` otherwise: ``int`` arithmetic is far cheaper, the two
mix exactly, and ``2 == Fraction(2)`` with equal hashes, so equality and
hashing of expressions cannot tell them apart.

Gamma matrices enter only as opaque constant tags ``gamma0..gamma3``; their
numeric realization lives in :mod:`qdensity.fieldops`.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

Factor = Tuple[str, Tuple[int, ...]]
Monomial = Tuple[Factor, ...]
ScalarLike = Union[int, Fraction, "ExactComplex"]

FIELD_SYMBOLS = frozenset({"phi", "phi_star", "psi", "psibar"})
POTENTIAL_SYMBOLS = frozenset({"V", "A1", "A2", "A3"})
CONSTANT_SYMBOLS = frozenset(
    {"e", "m", "omega", "gamma0", "gamma1", "gamma2", "gamma3"}
)
_SYMBOLS = FIELD_SYMBOLS | POTENTIAL_SYMBOLS | CONSTANT_SYMBOLS


class UnsupportedStructureError(ValueError):
    """The expression violates a structural precondition of an operation."""


@dataclass(frozen=True)
class ExactComplex:
    """Complex number with exact rational parts, each an int where integral."""

    re: int | Fraction
    im: int | Fraction

    @staticmethod
    def of(value: ScalarLike) -> "ExactComplex":
        if isinstance(value, ExactComplex):
            return value
        # a float is not the decimal it was written as, and a bool no number
        if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            return ExactComplex(int(value) if value.denominator == 1 else value, 0)
        raise TypeError(f"{type(value).__name__} is not an exact coefficient")

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        if not isinstance(other, ExactComplex):
            return NotImplemented
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __mul__(self, other: object) -> "ExactComplex":
        if isinstance(other, FieldExpr):
            return NotImplemented  # FieldExpr.__rmul__ forms the product
        other = ExactComplex.of(other)
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __rmul__(self, other: object) -> "ExactComplex":
        return self.__mul__(other)

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            if self.im.denominator == 1:
                return f"{self.im}i"
            return f"({self.im})i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}i"
        return f"({self.re}{sign}{imag})"


ONE = ExactComplex(1, 0)
I = ExactComplex(0, 1)


class FieldExpr:
    """Canonical sum of monomials over field, potential and constant symbols.

    Treat instances as immutable values; all operations return new objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, ExactComplex] | None = None):
        self.terms: Dict[Monomial, ExactComplex] = {
            mono: coeff for mono, coeff in (terms or {}).items() if not coeff.is_zero
        }

    # ----- construction helpers ------------------------------------------

    @staticmethod
    def scalar(value: ScalarLike) -> "FieldExpr":
        return FieldExpr({(): ExactComplex.of(value)})

    @staticmethod
    def atom(name: str, derivs: Sequence[int] = ()) -> "FieldExpr":
        if name not in _SYMBOLS:
            raise ValueError(f"unknown symbol {name!r}")
        if derivs and name in CONSTANT_SYMBOLS:
            raise ValueError(f"constant {name!r} cannot carry derivatives")
        for mu in derivs:
            if mu not in (0, 1, 2, 3):
                raise ValueError(f"derivative index {mu} out of range")
        factor: Factor = (name, tuple(sorted(derivs)))
        return FieldExpr({(factor,): ONE})

    # ----- ring operations -------------------------------------------------

    def __add__(self, other: "FieldExpr") -> "FieldExpr":
        if not isinstance(other, FieldExpr):
            return NotImplemented  # scalars are not lifted: no caller adds one
        return _collect(other.terms.items(), dict(self.terms))

    def __sub__(self, other: "FieldExpr") -> "FieldExpr":
        if not isinstance(other, FieldExpr):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "FieldExpr":
        return FieldExpr({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: Union["FieldExpr", ScalarLike]) -> "FieldExpr":
        if not isinstance(other, FieldExpr):
            other = FieldExpr.scalar(other)
        return _collect(
            (tuple(sorted(mono_a + mono_b)), ca * cb)
            for mono_a, ca in self.terms.items()
            for mono_b, cb in other.terms.items()
        )

    def __rmul__(self, other: ScalarLike) -> "FieldExpr":
        return self * other

    # ----- comparisons ------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldExpr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    # ----- inspection -------------------------------------------------------

    def symbols(self) -> frozenset[str]:
        return frozenset(
            name for mono in self.terms for (name, _derivs) in mono
        )

    def max_field_derivative_order(self) -> int:
        order = 0
        for mono in self.terms:
            for name, derivs in mono:
                if name in FIELD_SYMBOLS:
                    order = max(order, len(derivs))
        return order

    def __repr__(self) -> str:
        return f"FieldExpr({canonical_text(self)!r})"


def _collect(
    pairs: Iterable[Tuple[Monomial, ExactComplex]],
    start: Dict[Monomial, ExactComplex] | None = None,
) -> FieldExpr:
    """Sum the coefficients of equal monomials into a canonical expression.

    Every monomial in ``pairs`` must already be a sorted tuple.  ``start``
    seeds the sum and is consumed; zero coefficients are dropped at the end.
    """
    terms = {} if start is None else start
    for mono, coeff in pairs:
        acc = terms.get(mono)
        terms[mono] = coeff if acc is None else acc + coeff
    return FieldExpr(terms)


def _without(mono: Monomial, factor: Factor) -> Monomial:
    """The sorted monomial with one occurrence of ``factor`` removed."""
    at = mono.index(factor)
    return mono[:at] + mono[at + 1 :]


# ----- atom shorthands -------------------------------------------------------


def field(name: str) -> FieldExpr:
    if name not in FIELD_SYMBOLS:
        raise ValueError(f"unknown field symbol {name!r}")
    return FieldExpr.atom(name)


def potential(name: str) -> FieldExpr:
    if name not in POTENTIAL_SYMBOLS:
        raise ValueError(f"unknown potential symbol {name!r}")
    return FieldExpr.atom(name)


def constant(name: str) -> FieldExpr:
    if name not in CONSTANT_SYMBOLS:
        raise ValueError(f"unknown constant symbol {name!r}")
    return FieldExpr.atom(name)


def D(name: str, *mus: int) -> FieldExpr:
    """Atom for the symbol ``name`` differentiated along the given indices."""
    return FieldExpr.atom(name, mus)


# ----- calculus ---------------------------------------------------------------


def partial_derivative(expr: FieldExpr, factor: Factor) -> FieldExpr:
    """Partial derivative treating the exact factor as an independent variable."""
    name, derivs = factor
    key: Factor = (name, tuple(sorted(derivs)))
    return _collect(
        (_without(mono, key), coeff * mono.count(key))
        for mono, coeff in expr.terms.items()
        if key in mono
    )


def total_derivative(expr: FieldExpr, mu: int) -> FieldExpr:
    """Space-time derivative d/dx^mu applied with the product rule."""
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"derivative index {mu} out of range")

    def pairs():
        for mono, coeff in expr.terms.items():
            for fac in dict.fromkeys(mono):  # each distinct factor once
                name, derivs = fac
                if name not in _SYMBOLS:
                    raise ValueError(f"unknown symbol {name!r}")
                if name in CONSTANT_SYMBOLS:
                    continue
                bumped: Factor = (name, tuple(sorted(derivs + (mu,))))
                new_mono = tuple(sorted(_without(mono, fac) + (bumped,)))
                yield new_mono, coeff * mono.count(fac)

    return _collect(pairs())


def euler_lagrange(lagrangian: FieldExpr, vary: str) -> FieldExpr:
    """d_mu (dL/d(psi_{,mu})) - dL/dpsi for the chosen field symbol.

    The zero set of the returned expression is the field equation; an
    overall numeric factor is irrelevant to it.
    """
    if vary not in FIELD_SYMBOLS:
        raise ValueError(f"cannot vary non-field symbol {vary!r}")
    if lagrangian.max_field_derivative_order() > 1:
        raise UnsupportedStructureError(
            "Lagrangian density must contain first field derivatives only"
        )
    result = FieldExpr()
    for mu in range(4):
        momentum = partial_derivative(lagrangian, (vary, (mu,)))
        result = result + total_derivative(momentum, mu)
    result = result - partial_derivative(lagrangian, (vary, ()))
    return result


def legendre_transform(lagrangian: FieldExpr, fields: Sequence[str]) -> FieldExpr:
    """Hamiltonian density: sum over fields of (d0 psi) dL/d(d0 psi), minus L."""
    if lagrangian.max_field_derivative_order() > 1:
        raise UnsupportedStructureError(
            "Lagrangian density must contain first field derivatives only"
        )
    result = -lagrangian
    for name in fields:
        if name not in FIELD_SYMBOLS:
            raise ValueError(f"cannot transform non-field symbol {name!r}")
        momentum = partial_derivative(lagrangian, (name, (0,)))
        result = result + D(name, 0) * momentum
    return result


# ----- structure analysis -----------------------------------------------------


class TermSymmetry(enum.Enum):
    SYMMETRIC = "symmetric"
    ANTISYMMETRIC = "antisymmetric"
    NO_TIME_DERIVATIVE = "no-time-derivative"
    MIXED = "mixed"


def _time_weight(mono: Monomial) -> int:
    return sum(derivs.count(0) for (_name, derivs) in mono)


def _rewrite(
    expr: FieldExpr, rename: Mapping[str, str], drop: str | None = None
) -> FieldExpr:
    """Rename symbols by ``rename`` after dropping monomials containing ``drop``."""
    return _collect(
        (tuple(sorted((rename.get(n, n), d) for n, d in mono)), coeff)
        for mono, coeff in expr.terms.items()
        if drop is None or all(name != drop for name, _d in mono)
    )


def swap_fields(expr: FieldExpr, pair: Tuple[str, str]) -> FieldExpr:
    """Exchange the two field symbols everywhere (derivatives preserved)."""
    a, b = pair
    return _rewrite(expr, {a: b, b: a})


def classify_time_symmetry(expr: FieldExpr) -> TermSymmetry:
    """Behaviour of the highest time-derivative terms under phi <-> phi_star."""
    if expr.is_zero:
        return TermSymmetry.NO_TIME_DERIVATIVE
    top_weight = max(_time_weight(m) for m in expr.terms)
    if top_weight == 0:
        return TermSymmetry.NO_TIME_DERIVATIVE
    top = FieldExpr(
        {m: c for m, c in expr.terms.items() if _time_weight(m) == top_weight}
    )
    swapped = swap_fields(top, ("phi", "phi_star"))
    if swapped == top:
        return TermSymmetry.SYMMETRIC
    if swapped == -top:
        return TermSymmetry.ANTISYMMETRIC
    return TermSymmetry.MIXED


def substitute_real(expr: FieldExpr, charge_to_zero: bool = False) -> FieldExpr:
    """Impose a real scalar field: phi_star -> phi, optionally also e -> 0."""
    if not (expr.symbols() & FIELD_SYMBOLS) <= {"phi", "phi_star"}:
        raise UnsupportedStructureError(
            "real substitution applies to the scalar pair only"
        )
    return _rewrite(expr, {"phi_star": "phi"}, "e" if charge_to_zero else None)


def set_charge_zero(expr: FieldExpr) -> FieldExpr:
    """Drop every monomial containing the coupling constant e."""
    return _rewrite(expr, {}, "e")


# ----- serialization ----------------------------------------------------------


def _factor_text(factor: Factor) -> str:
    name, derivs = factor
    if not derivs:
        return name
    return f"d{''.join(str(mu) for mu in derivs)}({name})"


def canonical_text(expr: FieldExpr) -> str:
    """Deterministic one-monomial-per-line rendering used for golden files."""
    if expr.is_zero:
        return "0"
    lines = []
    for mono in sorted(expr.terms):
        coeff = expr.terms[mono]
        if mono:
            lines.append(f"{coeff} * " + " ".join(_factor_text(f) for f in mono))
        else:
            lines.append(str(coeff))
    return "\n".join(lines)


# ----- catalog of standard expressions ----------------------------------------
#
# Conventions: metric (+,-,-,-); A1..A3 are the physical vector-potential
# components, V the scalar potential, so gamma^mu A_mu = V*gamma0 - sum_k
# A_k*gamma_k; the scalar covariant derivatives are d0 + ieV and dk - ieA_k.


def dirac_lagrangian() -> FieldExpr:
    """psibar [gamma^mu (i d_mu - e A_mu) - m] psi with symbolic gamma tags."""
    psi, psibar = field("psi"), field("psibar")
    e, m = constant("e"), constant("m")
    expr = FieldExpr()
    for mu in range(4):
        gamma = constant(f"gamma{mu}")
        expr = expr + I * gamma * psibar * D("psi", mu)
    expr = expr - e * potential("V") * constant("gamma0") * psibar * psi
    for k in (1, 2, 3):
        expr = expr + e * potential(f"A{k}") * constant(f"gamma{k}") * psibar * psi
    expr = expr - m * psibar * psi
    return expr


def dirac_field_equation() -> FieldExpr:
    """Hand-derived Euler-Lagrange output of the spinor Lagrangian (vary psibar).

    Equals -[gamma^mu (i d_mu - e A_mu) - m] psi; the overall sign is the
    one produced by d_mu dL/d(psibar_{,mu}) - dL/dpsibar.
    """
    psi = field("psi")
    e, m = constant("e"), constant("m")
    expr = FieldExpr()
    for mu in range(4):
        expr = expr - I * constant(f"gamma{mu}") * D("psi", mu)
    expr = expr + e * potential("V") * constant("gamma0") * psi
    for k in (1, 2, 3):
        expr = expr - e * potential(f"A{k}") * constant(f"gamma{k}") * psi
    expr = expr + m * psi
    return expr


def dirac_charge_density() -> FieldExpr:
    """psibar gamma^0 psi, i.e. psi^dagger psi: no derivatives at all."""
    return constant("gamma0") * field("psibar") * field("psi")


def _scalar_cov0(which: str) -> FieldExpr:
    """(d0 + ieV) phi, or its conjugate-field counterpart (d0 - ieV) phi*."""
    sign = 1 if which == "phi" else -1
    return D(which, 0) + sign * I * constant("e") * potential("V") * field(which)


def _scalar_covk(which: str, k: int) -> FieldExpr:
    """(dk - ieA_k) phi, or (dk + ieA_k) phi*."""
    sign = -1 if which == "phi" else 1
    return D(which, k) + sign * I * constant("e") * potential(f"A{k}") * field(which)


def kg_lagrangian() -> FieldExpr:
    """Charged scalar Lagrangian density with minimal coupling to (V, A)."""
    m = constant("m")
    expr = _scalar_cov0("phi_star") * _scalar_cov0("phi")
    for k in (1, 2, 3):
        expr = expr - _scalar_covk("phi_star", k) * _scalar_covk("phi", k)
    expr = expr - m * m * field("phi_star") * field("phi")
    return expr


def kg_hamiltonian_density() -> FieldExpr:
    """Sum-of-squared-moduli energy density of the charged scalar field.

    This is the commonly quoted manifestly nonnegative form.  It is not the
    canonical Legendre transform of the Lagrangian: Legendre transform =
    this + e*V*rho, with rho = ``kg_charge_density()`` (the potential-energy
    term), as acceptance criterion 2 asserts.
    """
    m = constant("m")
    expr = _scalar_cov0("phi_star") * _scalar_cov0("phi")
    for k in (1, 2, 3):
        expr = expr + _scalar_covk("phi_star", k) * _scalar_covk("phi", k)
    expr = expr + m * m * field("phi_star") * field("phi")
    return expr


def kg_charge_density() -> FieldExpr:
    """i(phi* d0 phi - d0 phi* phi) - 2 e V phi* phi."""
    phi, phis = field("phi"), field("phi_star")
    return (
        I * (phis * D("phi", 0) - D("phi_star", 0) * phi)
        - 2 * constant("e") * potential("V") * phis * phi
    )


def kg_field_equation() -> FieldExpr:
    """Hand-derived Euler-Lagrange output of the scalar Lagrangian (vary phi*).

    Expanded form of (D0^2 - sum_k Dk^2 + m^2) phi with D0 = d0 + ieV and
    Dk = dk - ieA_k.
    """
    phi = field("phi")
    e, m = constant("e"), constant("m")
    V = potential("V")
    expr = D("phi", 0, 0)
    expr = expr + 2 * I * e * V * D("phi", 0)
    expr = expr + I * e * D("V", 0) * phi
    expr = expr - e * e * V * V * phi
    for k in (1, 2, 3):
        A = potential(f"A{k}")
        expr = expr - D("phi", k, k)
        expr = expr + 2 * I * e * A * D("phi", k)
        expr = expr + I * e * D(f"A{k}", k) * phi
        expr = expr + e * e * A * A * phi
    expr = expr + m * m * phi
    return expr
