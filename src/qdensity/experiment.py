"""Orthogonality of scalar well states under an off-axis external charge.

Two stationary states of a charged scalar particle confined to a spherical
well, with angular parts Y_00 and Y_10, have a vanishing cross inner
product when the external potential is zero: the angular integral kills it.
A point charge sitting on the +z axis at distance d > R breaks the
up-down symmetry of the potential inside the well, and the -2eV term of
the scalar density then contributes a nonzero amount U to the inner
product.  This module computes U over a sweep of charge distances, with
error bars from one grid refinement.

The moving external charge is modelled quasi-statically: a sweep of static
snapshots over d, with the vector potential of the motion neglected.
"""
from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, fields, replace
from typing import ClassVar, Optional, Tuple

import numpy as np

from .numerics import BallGrid, RadialMode, _ylm_theta_part, integrate_ball
from .numerics import solve_well_mode, spherical_harmonic

__all__ = [
    "KGState",
    "ExternalCharge",
    "external_potential",
    "well_state",
    "normalize_kg_state",
    "potential_term",
    "ExperimentConfig",
    "ExperimentReport",
    "run_orthogonality_experiment",
]

SIGN_CONVENTION = (
    "states carry exp(+i omega t) phases (sigma=+1); "
    "the first slot of the inner product is conjugated; snapshot time t=0; "
    "with e>0 and the external charge q>0 on the +z axis, U is real and "
    "negative at t=0"
)

#: every nonzero magnitude among R, mass, e, q and the distances d must lie in
#: this range; outside it the quadrature over- or underflows
MIN_MAGNITUDE = 1e-30
MAX_MAGNITUDE = 1e30
#: larger grids exhaust memory: resolution 362, 4,193,408 fine nodes, peaks near 370 MB
MAX_GRID_SIZE = 512
MAX_GRID_POINTS = 2**22


@dataclass(frozen=True)
class KGState:
    """Stationary scalar state norm * f(r) * Y_lm(theta, phi) * e^{i sigma omega t}."""

    sigma: ClassVar[int] = 1  # the sign convention, not a field
    m: int
    radial: RadialMode
    norm: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        if abs(self.m) > self.l:
            raise ValueError(f"|m|={abs(self.m)} exceeds l={self.l}")

    @property
    def l(self) -> int:
        return self.radial.l

    @property
    def omega(self) -> float:
        return self.radial.omega

    def spatial(self, grid: BallGrid) -> np.ndarray:
        """Time-independent part sampled on the grid, shape (n_r, n_theta, n_phi)."""
        f = self.radial.sample(grid.r)
        ylm = spherical_harmonic(
            self.l, self.m, grid.theta[:, None], grid.phi[None, :]
        )
        return self.norm * f[:, None, None] * ylm[None, :, :]


@dataclass(frozen=True)
class ExternalCharge:
    """Point charge q > 0 on the +z axis at distance d from the origin."""

    q: float
    d: float

    def __post_init__(self) -> None:
        if self.q <= 0:
            raise ValueError(f"external charge must be positive, got {self.q}")
        if self.d <= 0:
            raise ValueError(f"charge distance must be positive, got {self.d}")


def external_potential(charge: ExternalCharge, grid: BallGrid) -> np.ndarray:
    """Coulomb potential q / |x - d z_hat| sampled on the grid.

    Returned with shape (n_r, n_theta, 1), broadcasting over the azimuth.
    Requires d > R so the potential is smooth everywhere inside the ball.
    """
    if charge.d <= grid.R:
        raise ValueError(
            f"charge distance d={charge.d} must exceed the well radius R={grid.R}"
        )
    r = grid.r[:, None]
    c = grid.cos_theta[None, :]
    v = charge.q / np.sqrt(r**2 + charge.d**2 - 2.0 * r * charge.d * c)
    return v[:, :, None]


def well_state(l: int, m: int, grid: BallGrid, mass: float) -> KGState:
    """Unnormalized lowest well state with angular indices (l, m), sigma = +1."""
    return KGState(m=m, radial=solve_well_mode(l, grid.R, mass))


def normalize_kg_state(state: KGState, grid: BallGrid) -> KGState:
    """Scale the constant so the V=0 self inner product has modulus 1.

    For a stationary state the zero-potential density is -2 sigma omega
    |phi|^2, so the target is 2 omega * integral |phi|^2 = 1.
    """
    current = integrate_ball(np.abs(state.spatial(grid)) ** 2, grid).real
    if current <= 0.0:
        raise ValueError("degenerate state: radial profile integrates to zero")
    scale = 1.0 / math.sqrt(2.0 * state.omega * current)
    return replace(state, norm=state.norm * scale)


def potential_term(
    a: KGState, b: KGState, grid: BallGrid, potential: np.ndarray, e: float
) -> complex:
    """The -2eV contribution U to the inner product at t = 0, isolated."""
    overlap = np.conj(a.spatial(grid)) * b.spatial(grid)
    return -2.0 * e * integrate_ball(potential * overlap, grid)


# ----- the experiment ----------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Physics and base grid; the fine grid doubles n_panels and n_theta.  Every
    integrand has m = 0, so both grids use one azimuth node; n_phi is only reported."""

    R: float = 1.0
    mass: float = 1.0
    e: float = 1.0
    q: float = 1.0
    d_values: Tuple[float, ...] = (1.5, 2.0, 4.0)
    n_panels: int = 16
    order: int = 8
    n_theta: int = 16
    n_phi: int = 16

    def __post_init__(self) -> None:
        """Reject values the experiment cannot run on, before any grid is built."""
        for name in ("R", "mass", "e", "q"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.R <= 0 or self.mass < 0 or self.q <= 0:
            raise ValueError(
                f"need R > 0, mass >= 0 and q > 0, got R={self.R}, "
                f"mass={self.mass}, q={self.q}"
            )
        if not self.d_values or not all(
            math.isfinite(d) and d > self.R for d in self.d_values
        ):
            raise ValueError(
                "every sweep distance must be finite and exceed the well "
                f"radius R={self.R}, got d={list(self.d_values)}"
            )
        for x in (self.R, self.mass, self.e, self.q, *self.d_values):
            if x != 0 and not MIN_MAGNITUDE <= abs(x) <= MAX_MAGNITUDE:
                raise ValueError(
                    "nonzero R, mass, e, q and d need magnitudes in "
                    f"[{MIN_MAGNITUDE:g}, {MAX_MAGNITUDE:g}], got {x}"
                )
        if len(set(self.d_values)) != len(self.d_values):
            raise ValueError(
                f"sweep distances must be distinct, got d={list(self.d_values)}"
            )
        names = ("n_panels", "order", "n_theta", "n_phi")
        for name in names:
            size = getattr(self, name)
            if isinstance(size, bool) or not isinstance(size, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {type(size).__name__}")
            # a numpy integer would reach the JSON report as a string
            object.__setattr__(self, name, operator.index(size))
        sizes = tuple(getattr(self, name) for name in names)
        if min(sizes) < 1:
            raise ValueError(
                "grid sizes (n_panels, order, n_theta, n_phi) must be >= 1, "
                f"got {sizes}"
            )
        if max(sizes) > MAX_GRID_SIZE or 4 * math.prod(sizes[:3]) > MAX_GRID_POINTS:
            raise ValueError(
                f"grid sizes must be <= {MAX_GRID_SIZE} and the fine grid's "
                f"4*n_panels*order*n_theta nodes <= {MAX_GRID_POINTS}, got {sizes}"
            )


@dataclass(frozen=True)
class SweepEntry:
    d: float
    u: complex
    u_raw: complex
    error: float


@dataclass(frozen=True)
class ExperimentReport:
    """All computed values of one run, each with a refinement error bar."""

    parameters: dict
    sign_convention: str
    omega0: float
    omega1: float
    norm0: float
    norm1: float
    i01: complex
    i01_error: float
    sweep: Tuple[SweepEntry, ...]
    u_monotone_decreasing_in_d: Optional[bool]

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["parameters"] = dict(self.parameters)
        out["i01"] = {"re": self.i01.real, "im": self.i01.imag}
        out["sweep"] = [
            {
                "d": entry.d,
                "u_re": entry.u.real,
                "u_im": entry.u.imag,
                "u_raw_re": entry.u_raw.real,
                "u_raw_im": entry.u_raw.imag,
                "error": entry.error,
            }
            for entry in self.sweep
        ]
        return out


def _sweep_on_grid(
    config: ExperimentConfig, grid: BallGrid, raw: Tuple[KGState, KGState]
) -> Tuple[complex, list, float, float]:
    """I01, U(d) for every d, and the two norms on one grid; the norms
    found here replace the raw states' unit ``norm``.

    Every integrand is real and, but for the potential, a radial times a
    polar factor (m = 0 for both states), so each raw state is sampled once
    as f_l(r) and Y_l0(cos theta), and each norm and I01 is a product of 1D
    sums over :meth:`BallGrid.axis_weights`.  Each d then costs five real
    passes over (n_r, n_theta): two for |x - d z|^2, its root, the division
    of the separable weights by it, and their sum."""
    radial, polar, azimuth = grid.axis_weights()
    c = grid.cos_theta
    sin_theta = np.sqrt(1.0 - c**2)
    f = [state.radial.sample(grid.r) for state in raw]
    y = [_ylm_theta_part(state.l, state.m, c, sin_theta) for state in raw]
    phi_sum = azimuth.sum()
    # 2 omega * integral |phi|^2 = 1 fixes each norm (see normalize_kg_state)
    squares = [
        2.0 * state.omega * (radial * fi**2).sum() * (polar * yi**2).sum() * phi_sum
        for state, fi, yi in zip(raw, f, y)
    ]
    if min(squares) == 0.0:
        # one polar node lies on the equator, where Y10 vanishes: this grid
        # cannot normalize the p state, so its values bound nothing
        unbounded = complex(math.inf)
        return unbounded, [unbounded] * len(config.d_values), math.inf, math.inf
    norm0, norm1 = (1.0 / math.sqrt(square) for square in squares)
    a = radial * f[0] * f[1]
    b = polar * y[0] * y[1] * phi_sum
    # the zero-potential density at t = 0 is the (omega0 + omega1)-weighted overlap
    i01 = -(raw[0].omega + raw[1].omega) * norm0 * norm1 * a.sum() * b.sum()
    r = grid.r[:, None]
    r2, rc = r**2, r * c
    ab = a[:, None] * b
    dist = np.empty_like(rc)
    scale = -2.0 * config.e * config.q * norm0 * norm1
    values = []
    for d in config.d_values:
        # |x - d z| = sqrt(r^2 + d^2 - 2 d r cos(theta)); V = q / |x - d z|
        np.multiply(rc, -2.0 * d, out=dist)
        dist += r2 + d * d
        np.sqrt(dist, out=dist)
        np.divide(ab, dist, out=dist)
        values.append(complex(scale * dist.sum()))
    return complex(i01), values, norm0, norm1


def run_orthogonality_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Compute I01(V=0) and the sweep U(d), with refinement error bars.

    Every reported value is the fine-grid result; its error estimate is the
    difference against the base grid.  Monotone decay of |U| with growing d
    is evaluated whenever the coupling e*q is nonzero and the sweep has at
    least two distances; otherwise it is None.
    """
    # Y00, Y10 and the on-axis V have m = 0, so one azimuth node is exact
    coarse = BallGrid.build(config.R, config.n_panels, config.order, config.n_theta, 1)
    fine = BallGrid.build(
        config.R, 2 * config.n_panels, config.order, 2 * config.n_theta, 1
    )
    # the well modes depend on R and the mass only: solve each once
    raw = (well_state(0, 0, coarse, config.mass), well_state(1, 0, coarse, config.mass))
    i01_c, u_c, _, _ = _sweep_on_grid(config, coarse, raw)
    i01_f, u_f, norm0, norm1 = _sweep_on_grid(config, fine, raw)

    entries = [
        SweepEntry(d=d, u=uf, u_raw=uf / (norm0 * norm1), error=abs(uf - uc))
        for d, uc, uf in zip(config.d_values, u_c, u_f)
    ]

    monotone: Optional[bool] = None
    if config.e * config.q != 0.0 and len(entries) > 1:
        by_d = sorted(entries, key=lambda entry: entry.d)
        monotone = all(abs(a.u) > abs(b.u) for a, b in zip(by_d[:-1], by_d[1:]))

    parameters = {
        **{f.name: getattr(config, f.name) for f in fields(config)},
        "n_phi_effective": 1,
        "d_values": list(config.d_values),
        "t": 0.0,
        "sigma": KGState.sigma,
        "model": "quasi-static snapshots of the approaching charge, A=0",
    }
    return ExperimentReport(
        parameters=parameters,
        sign_convention=SIGN_CONVENTION,
        omega0=raw[0].omega,
        omega1=raw[1].omega,
        norm0=norm0,
        norm1=norm1,
        i01=i01_f,
        i01_error=abs(i01_f - i01_c),
        sweep=tuple(entries),
        u_monotone_decreasing_in_d=monotone,
    )
