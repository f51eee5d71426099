"""Exact length-dimension bookkeeping for field-theory densities.

With hbar = c = 1 a single unit survives, so every quantity carries a pure
length dimension L**n with rational n.  Products add exponents, each
space-time derivative contributes -1, and the action being dimensionless
pins the Lagrangian density at L**-4.  All arithmetic is done on
``fractions.Fraction`` so -3/2 is exact, never 1.4999....
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Union

RationalLike = Union[int, Fraction]

#: dimension of any Lagrangian density (dimensionless action over d4x)
LAGRANGIAN_DENSITY_EXPONENT = Fraction(-4)

#: dimension a particle density must carry (requirement on the 0-component)
DENSITY_EXPONENT = Fraction(-3)


class UnknownSymbolError(ValueError):
    """A term references a field symbol with no assigned dimension."""


@dataclass(frozen=True)
class Dim:
    """Length dimension L**exponent with exact rational exponent."""

    exponent: Fraction

    def __init__(self, exponent: RationalLike) -> None:
        object.__setattr__(self, "exponent", Fraction(exponent))

    def __mul__(self, other: "Dim") -> "Dim":
        return Dim(self.exponent + other.exponent)

    def __truediv__(self, other: "Dim") -> "Dim":
        return Dim(self.exponent - other.exponent)

    def __pow__(self, power: int) -> "Dim":
        return Dim(self.exponent * power)

    def derived(self, order: int = 1) -> "Dim":
        """Dimension after applying ``order`` space-time derivatives."""
        return Dim(self.exponent - order)

    def __str__(self) -> str:
        return f"[L^{self.exponent}]"


DIMENSIONLESS = Dim(0)
LAGRANGIAN_DENSITY = Dim(LAGRANGIAN_DENSITY_EXPONENT)
DENSITY = Dim(DENSITY_EXPONENT)


@dataclass(frozen=True)
class TermSpec:
    """One monomial of a density or Lagrangian density.

    ``field_powers`` counts how often each field symbol occurs,
    ``derivative_count`` how many space-time derivatives act inside the
    term, and ``operator_dim`` collects the dimension of every constant
    factor (mass powers, coupling-operator pieces).
    """

    field_powers: Mapping[str, int]
    derivative_count: int = 0
    operator_dim: Dim = field(default_factory=lambda: Dim(0))

    def __post_init__(self) -> None:
        if self.derivative_count < 0:
            raise ValueError("derivative_count must be nonnegative")
        for name, power in self.field_powers.items():
            if power < 0:
                raise ValueError(f"negative power for field {name!r}")
        if not any(p > 0 for p in self.field_powers.values()):
            raise ValueError("a matter term needs at least one field factor")

    def __mul__(self, other: "TermSpec") -> "TermSpec":
        powers = dict(self.field_powers)
        for name, power in other.field_powers.items():
            powers[name] = powers.get(name, 0) + power
        return TermSpec(
            field_powers=powers,
            derivative_count=self.derivative_count + other.derivative_count,
            operator_dim=self.operator_dim * other.operator_dim,
        )


def term_dimension(term: TermSpec, field_dims: Mapping[str, Dim]) -> Dim:
    """Total dimension of ``term`` given the dimension of each field."""
    exponent = term.operator_dim.exponent - term.derivative_count
    for name, power in term.field_powers.items():
        if name not in field_dims:
            raise UnknownSymbolError(f"no dimension assigned to field {name!r}")
        exponent += power * field_dims[name].exponent
    return Dim(exponent)


def infer_field_dimension(operator_dim: Dim) -> Dim:
    """Solve 2*d + operator = -4 for the field dimension d.

    The Lagrangian density has dimension L**-4 and is bilinear in the
    field, so the operator dimension fixes the field dimension: a first
    order operator (L**-1) forces d = -3/2, a second order one (L**-2)
    forces d = -1.
    """
    return Dim((LAGRANGIAN_DENSITY_EXPONENT - operator_dim.exponent) / 2)


def check_density_requirement_A(
    density_term: TermSpec, field_dims: Mapping[str, Dim]
) -> bool:
    """True iff the term carries the L**-3 dimension a density must have."""
    return term_dimension(density_term, field_dims).exponent == DENSITY_EXPONENT
