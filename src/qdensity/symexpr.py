"""Minimal expression trees for field Lagrangians and densities.

Expressions are kept permanently in canonical form: a sum of monomials,
each monomial a sorted tuple of factors with a nonzero Gaussian-integer
coefficient.  ``_collect`` establishes it for every sum,
product, derivative and renaming, the only operations whose coefficients
can cancel to zero, and for the public ``FieldExpr(terms)`` constructor.
Negation and scaling by a nonzero exact scalar build their results
directly: they keep every monomial and cannot make a coefficient zero, so
they need no collection.  A factor is a symbol (field, potential or
constant) together with the sorted multi-index of partial derivatives
applied to it, so ``d0(phi)`` and ``d00(phi)`` are distinct atoms.  This
is just enough structure to differentiate Lagrangians, form Euler-Lagrange
equations and Legendre transforms, classify the highest time-derivative
terms, and decide equality structurally.  No general computer algebra is
attempted.

Gamma matrices enter only as opaque constant tags ``gamma0..gamma3``; their
numeric realization lives in :mod:`qdensity.fieldops`.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

Factor = Tuple[str, Tuple[int, ...]]
Monomial = Tuple[Factor, ...]
ScalarLike = Union[int, "ExactComplex"]

FIELD_SYMBOLS = frozenset({"phi", "phi_star", "psi", "psibar"})
POTENTIAL_SYMBOLS = frozenset({"V", "A1", "A2", "A3"})
CONSTANT_SYMBOLS = frozenset(
    {"e", "m", "omega", "gamma0", "gamma1", "gamma2", "gamma3"}
)
_SYMBOLS = FIELD_SYMBOLS | POTENTIAL_SYMBOLS | CONSTANT_SYMBOLS


class UnsupportedStructureError(ValueError):
    """The expression violates a structural precondition of an operation."""


@dataclass(unsafe_hash=True, slots=True)
class ExactComplex:
    """Gaussian integer: the algebra never divides, so int parts suffice.

    Immutable by convention, like :class:`FieldExpr`: not frozen, because a
    frozen dataclass builds at more than twice the cost and algebra builds
    many; ``unsafe_hash`` keeps the hash that :class:`FieldExpr` needs.
    """

    re: int
    im: int

    @staticmethod
    def of(value: ScalarLike) -> "ExactComplex":
        if isinstance(value, ExactComplex):
            # the generated __init__ checks nothing: the parts are checked here
            for part in (value.re, value.im):
                if not isinstance(part, int) or isinstance(part, bool):
                    raise TypeError(
                        f"{type(part).__name__} is not an integer coefficient part"
                    )
            return value
        # a float is not the decimal it was written as, and a bool no number
        if isinstance(value, int) and not isinstance(value, bool):
            return ExactComplex(value, 0)
        raise TypeError(f"{type(value).__name__} is not an integer coefficient")

    def __add__(self, other: "ExactComplex") -> "ExactComplex":
        if other.__class__ is not ExactComplex:
            return NotImplemented
        return ExactComplex(self.re + other.re, self.im + other.im)

    def __mul__(self, other: object) -> "ExactComplex":
        if other.__class__ is not ExactComplex:
            if isinstance(other, FieldExpr):
                return NotImplemented  # FieldExpr.__rmul__ forms the product
            other = ExactComplex.of(other)
        return ExactComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "ExactComplex":
        return ExactComplex(-self.re, -self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}i"
        sign = "+" if self.im > 0 else "-"
        if self.re == 0:
            return imag if sign == "+" else sign + imag
        return f"({self.re}{sign}{imag})"


ONE = ExactComplex(1, 0)
I = ExactComplex(0, 1)


@dataclass(init=False, repr=False, slots=True)
class FieldExpr:
    """Canonical sum of monomials over field, potential and constant symbols.

    Treat instances as immutable values; all operations return new objects.
    """

    terms: Dict[Monomial, ExactComplex]

    def __init__(self, terms: Mapping[Monomial, ScalarLike] | None = None):
        """Canonical form of ``terms``: factors and multi-indices sorted, equal
        monomials summed, coefficients made exact by :meth:`ExactComplex.of`,
        zeros dropped.  Symbol names are not checked."""
        self.terms = _collect(
            (tuple(sorted((n, tuple(sorted(d))) for n, d in mono)), ExactComplex.of(c))
            for mono, c in (terms or {}).items()
        ).terms

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
        return _build({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: Union["FieldExpr", ScalarLike]) -> "FieldExpr":
        if not isinstance(other, FieldExpr):
            k = ExactComplex.of(other)
            if not (k.re or k.im):
                return FieldExpr()
            # a nonzero exact factor keeps every monomial and makes no zero
            return _build({m: c * k for m, c in self.terms.items()})
        return _collect(
            (tuple(sorted(mono_a + mono_b)), ca * cb)
            for mono_a, ca in self.terms.items()
            for mono_b, cb in other.terms.items()
        )

    def __rmul__(self, other: ScalarLike) -> "FieldExpr":
        return self * other

    # ----- comparisons ------------------------------------------------------

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

    def __repr__(self) -> str:
        return f"FieldExpr({canonical_text(self)!r})"


def _build(terms: Dict[Monomial, ExactComplex]) -> FieldExpr:
    """Wrap ``terms``, already canonical, without copying or checking them."""
    expr = object.__new__(FieldExpr)
    expr.terms = terms
    return expr


def _collect(
    pairs: Iterable[Tuple[Monomial, ExactComplex]],
    start: Dict[Monomial, ExactComplex] | None = None,
) -> FieldExpr:
    """Sum the coefficients of equal monomials into a canonical expression.

    Every monomial in ``pairs`` must already be a sorted tuple.  ``start``
    seeds the sum and is consumed.  A sum can cancel only here, so a monomial
    leaves as soon as its sum is zero, and the result is built directly.
    """
    terms = {} if start is None else start
    for mono, coeff in pairs:
        acc = terms.get(mono)
        total = coeff if acc is None else acc + coeff
        if total.re or total.im:
            terms[mono] = total
        else:
            terms.pop(mono, None)
    return _build(terms)


def _without(mono: Monomial, factor: Factor) -> Monomial:
    """The sorted monomial with one occurrence of ``factor`` removed."""
    at = mono.index(factor)
    return mono[:at] + mono[at + 1 :]


# ----- atoms -------------------------------------------------------------------


def D(name: str, *mus: int) -> FieldExpr:
    """Atom for ``name`` differentiated along ``mus``: the one atom builder."""
    if name not in _SYMBOLS:
        raise ValueError(f"unknown symbol {name!r}")
    if mus and name in CONSTANT_SYMBOLS:
        raise ValueError(f"constant {name!r} cannot carry derivatives")
    for mu in mus:
        _require_index(mu)
    return _build({((name, tuple(sorted(mus))),): ONE})


def _require_index(mu: int) -> None:
    """Refuse all but an int in 0..3: an equal float or bool prints otherwise."""
    if type(mu) is not int:
        raise TypeError(f"derivative index must be an int, got {type(mu).__name__}")
    if not 0 <= mu <= 3:
        raise ValueError(f"derivative index {mu} out of range")


def field(name: str) -> FieldExpr:
    if name not in FIELD_SYMBOLS:
        raise ValueError(f"unknown field symbol {name!r}")
    return D(name)


def potential(name: str) -> FieldExpr:
    if name not in POTENTIAL_SYMBOLS:
        raise ValueError(f"unknown potential symbol {name!r}")
    return D(name)


def constant(name: str) -> FieldExpr:
    if name not in CONSTANT_SYMBOLS:
        raise ValueError(f"unknown constant symbol {name!r}")
    return D(name)


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
    _require_index(mu)

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


def _require_first_order(lagrangian: FieldExpr) -> None:
    """Refuse a Lagrangian density with a second or higher field derivative."""
    if any(name in FIELD_SYMBOLS and len(derivs) > 1
           for mono in lagrangian.terms for name, derivs in mono):
        raise UnsupportedStructureError(
            "Lagrangian density must contain first field derivatives only"
        )


def euler_lagrange(lagrangian: FieldExpr, vary: str) -> FieldExpr:
    """d_mu (dL/d(psi_{,mu})) - dL/dpsi for the chosen field symbol.

    The zero set of the returned expression is the field equation; an
    overall numeric factor is irrelevant to it.
    """
    if vary not in FIELD_SYMBOLS:
        raise ValueError(f"cannot vary non-field symbol {vary!r}")
    _require_first_order(lagrangian)
    result = FieldExpr()
    for mu in range(4):
        momentum = partial_derivative(lagrangian, (vary, (mu,)))
        result = result + total_derivative(momentum, mu)
    result = result - partial_derivative(lagrangian, (vary, ()))
    return result


def legendre_transform(lagrangian: FieldExpr, fields: Sequence[str]) -> FieldExpr:
    """Hamiltonian density: sum over fields of (d0 psi) dL/d(d0 psi), minus L."""
    _require_first_order(lagrangian)
    if len(set(fields)) != len(fields):
        raise ValueError(f"each field is transformed once, got {list(fields)}")
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
    top_weight = max((_time_weight(m) for m in expr.terms), default=0)
    if top_weight == 0:
        return TermSymmetry.NO_TIME_DERIVATIVE
    top = _build(
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
