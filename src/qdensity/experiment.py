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
from dataclasses import asdict, dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .numerics import BallGrid, RadialMode, solve_well_mode, spherical_harmonic, integrate_ball

__all__ = [
    "KGState",
    "ExternalCharge",
    "external_potential",
    "well_state",
    "normalize_kg_state",
    "inner_product",
    "potential_term",
    "ExperimentConfig",
    "ExperimentReport",
    "run_orthogonality_experiment",
]

SIGN_CONVENTION = (
    "states carry exp(+i omega t) phases (sigma=+1 by default); "
    "the first slot of the inner product is conjugated; snapshot time t=0; "
    "with e>0 and the external charge q>0 on the +z axis, U is real and "
    "negative at t=0"
)

#: every nonzero magnitude among R, mass, e, q and the distances d must lie in
#: this range; outside it the quadrature over- or underflows
MIN_MAGNITUDE = 1e-30
MAX_MAGNITUDE = 1e30


@dataclass(frozen=True)
class KGState:
    """Stationary scalar state norm * f(r) * Y_lm(theta, phi) * e^{i sigma omega t}."""

    sigma: int
    omega: float
    l: int
    m: int
    radial: RadialMode
    norm: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        if self.sigma not in (-1, 1):
            raise ValueError(f"sigma must be +-1, got {self.sigma}")
        if abs(self.m) > self.l:
            raise ValueError(f"|m|={abs(self.m)} exceeds l={self.l}")

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
    mode = solve_well_mode(l, grid.R, mass)
    return KGState(sigma=1, omega=mode.omega, l=l, m=m, radial=mode)


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


def inner_product(a: KGState, b: KGState, grid: BallGrid) -> complex:
    """Zero-potential scalar-density inner product at the snapshot t = 0.

    Integrates i(phi_a* d0 phi_b - d0 phi_a* phi_b) over the ball: the
    (omega_a + omega_b)-weighted overlap, which vanishes for distinct
    angular indices.  The -2eV part of the density is :func:`potential_term`.
    """
    overlap = np.conj(a.spatial(grid)) * b.spatial(grid)
    weight = -(a.sigma * a.omega + b.sigma * b.omega)
    return weight * integrate_ball(overlap, grid)


def potential_term(
    a: KGState, b: KGState, grid: BallGrid, potential: np.ndarray, e: float
) -> complex:
    """The -2eV contribution U to the inner product at t = 0, isolated."""
    overlap = np.conj(a.spatial(grid)) * b.spatial(grid)
    return -2.0 * e * integrate_ball(potential * overlap, grid)


# ----- the experiment ----------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
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
        sizes = (self.n_panels, self.order, self.n_theta, self.n_phi)
        if min(sizes) < 1:
            raise ValueError(
                "grid sizes (n_panels, order, n_theta, n_phi) must be >= 1, "
                f"got {sizes}"
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
        return {
            "parameters": dict(self.parameters),
            "sign_convention": self.sign_convention,
            "omega0": self.omega0,
            "omega1": self.omega1,
            "norm0": self.norm0,
            "norm1": self.norm1,
            "i01": {"re": self.i01.real, "im": self.i01.imag},
            "i01_error": self.i01_error,
            "sweep": [
                {
                    "d": entry.d,
                    "u_re": entry.u.real,
                    "u_im": entry.u.imag,
                    "u_raw_re": entry.u_raw.real,
                    "u_raw_im": entry.u_raw.imag,
                    "error": entry.error,
                }
                for entry in self.sweep
            ],
            "u_monotone_decreasing_in_d": self.u_monotone_decreasing_in_d,
        }

    def to_csv_rows(self) -> list:
        rows = [["d", "re_u", "im_u", "error"]]
        for entry in self.sweep:
            values = (entry.d, entry.u.real, entry.u.imag, entry.error)
            rows.append([repr(float(x)) for x in values])
        return rows


def _sweep_on_grid(
    config: ExperimentConfig, grid: BallGrid
) -> Tuple[complex, list, KGState, KGState]:
    state0 = normalize_kg_state(well_state(0, 0, grid, config.mass), grid)
    state1 = normalize_kg_state(well_state(1, 0, grid, config.mass), grid)
    i01 = inner_product(state0, state1, grid)
    values = []
    for d in config.d_values:
        v = external_potential(ExternalCharge(q=config.q, d=d), grid)
        values.append(potential_term(state0, state1, grid, v, config.e))
    return i01, values, state0, state1


def run_orthogonality_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Compute I01(V=0) and the sweep U(d), with refinement error bars.

    Every reported value is the fine-grid result; its error estimate is the
    difference against the base grid.  Monotone decay of |U| with growing d
    is evaluated whenever the coupling e*q is nonzero and the sweep has at
    least two distances; otherwise it is None.
    """
    coarse = BallGrid.build(
        config.R, config.n_panels, config.order, config.n_theta, config.n_phi
    )
    fine = coarse.refined(2)
    i01_c, u_c, _s0, _s1 = _sweep_on_grid(config, coarse)
    i01_f, u_f, state0, state1 = _sweep_on_grid(config, fine)
    norm0, norm1 = abs(state0.norm), abs(state1.norm)

    entries = []
    for d, uc, uf in zip(config.d_values, u_c, u_f):
        raw = uf / (norm0 * norm1)
        entries.append(
            SweepEntry(d=d, u=uf, u_raw=raw, error=abs(uf - uc))
        )

    monotone: Optional[bool] = None
    if config.e * config.q != 0.0 and len(entries) > 1:
        by_d = sorted(entries, key=lambda entry: entry.d)
        monotone = all(
            abs(a.u) > abs(b.u) for a, b in zip(by_d[:-1], by_d[1:])
        )

    parameters = {
        **asdict(config),
        "d_values": list(config.d_values),
        "t": 0.0,
        "sigma": 1,
        "model": "quasi-static snapshots of the approaching charge, A=0",
    }
    return ExperimentReport(
        parameters=parameters,
        sign_convention=SIGN_CONVENTION,
        omega0=state0.omega,
        omega1=state1.omega,
        norm0=norm0,
        norm1=norm1,
        i01=i01_f,
        i01_error=abs(i01_f - i01_c),
        sweep=tuple(entries),
        u_monotone_decreasing_in_d=monotone,
    )
