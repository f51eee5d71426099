"""Quadrature, spherical harmonics, well modes and divergence residuals.

Numerical substrate for the ball-integral experiment and the continuity
checks: composite Gauss-Legendre quadrature over a solid sphere, explicit
orthonormal spherical harmonics up to l = 2, the lowest nodeless radial
modes of the infinite spherical well, and a second-order finite-difference
residual of the continuity equation d0 rho + div j = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np

__all__ = [
    "gauss_legendre",
    "composite_gauss_legendre",
    "BallGrid",
    "spherical_harmonic",
    "spherical_bessel_j",
    "bisect_root",
    "RadialMode",
    "solve_well_mode",
    "integrate_ball",
    "divergence_residual",
]


def gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], exact for polynomials of degree 2n-1."""
    if n < 1:
        raise ValueError(f"quadrature order must be >= 1, got {n}")
    nodes, weights = np.polynomial.legendre.leggauss(n)
    return nodes, weights


def composite_gauss_legendre(
    a: float, b: float, panels: int, order: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule applied on ``panels`` equal subintervals of [a, b]."""
    if panels < 1:
        raise ValueError(f"panel count must be >= 1, got {panels}")
    base_x, base_w = gauss_legendre(order)
    edges = np.linspace(a, b, panels + 1)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(half * base_x + 0.5 * (hi + lo))
        weights.append(half * base_w)
    return np.concatenate(nodes), np.concatenate(weights)


@dataclass(frozen=True)
class BallGrid:
    """Product quadrature grid over the solid sphere r <= R.

    Radial nodes come from composite Gauss-Legendre panels on (0, R) with
    plain dr weights (the r^2 factor is applied by :func:`integrate_ball`),
    polar nodes are Gauss-Legendre in cos(theta), and the azimuth is a
    uniform periodic grid whose trapezoid weights 2 pi / n_phi are spectrally
    accurate for periodic integrands.
    """

    R: float
    r: np.ndarray
    w_r: np.ndarray
    cos_theta: np.ndarray
    w_theta: np.ndarray
    phi: np.ndarray
    w_phi: np.ndarray
    n_panels: int
    order: int

    @classmethod
    def build(
        cls,
        R: float,
        n_panels: int = 16,
        order: int = 8,
        n_theta: int = 16,
        n_phi: int = 16,
    ) -> "BallGrid":
        if R <= 0:
            raise ValueError(f"well radius must be positive, got {R}")
        if n_theta < 1 or n_phi < 1:
            raise ValueError("angular grid sizes must be >= 1")
        r, w_r = composite_gauss_legendre(0.0, R, n_panels, order)
        cos_theta, w_theta = gauss_legendre(n_theta)
        phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
        w_phi = np.full(n_phi, 2.0 * np.pi / n_phi)
        return cls(R, r, w_r, cos_theta, w_theta, phi, w_phi, n_panels, order)

    @property
    def theta(self) -> np.ndarray:
        return np.arccos(self.cos_theta)

    @property
    def shape(self) -> Tuple[int, int, int]:
        return len(self.r), len(self.cos_theta), len(self.phi)

    def volume_weights(self) -> np.ndarray:
        """Full measure r^2 dr dcos(theta) dphi, shape (n_r, n_theta, n_phi)."""
        radial = self.w_r * self.r**2
        return (
            radial[:, None, None]
            * self.w_theta[None, :, None]
            * self.w_phi[None, None, :]
        )

    def refined(self, factor: int = 2) -> "BallGrid":
        """Grid with all resolution parameters scaled by ``factor``."""
        return BallGrid.build(
            self.R,
            n_panels=self.n_panels * factor,
            order=self.order,
            n_theta=len(self.cos_theta) * factor,
            n_phi=len(self.phi) * factor,
        )


def integrate_ball(f: np.ndarray, grid: BallGrid) -> complex:
    """Weighted sum of samples over the ball; linear in the samples.

    ``f`` must be broadcastable to the grid shape (n_r, n_theta, n_phi),
    which admits axisymmetric integrands sampled as (n_r, n_theta, 1).
    """
    f = np.asarray(f)
    try:
        fits = np.broadcast_shapes(f.shape, grid.shape) == grid.shape
    except ValueError:
        fits = False
    if not fits:
        raise ValueError(f"samples of shape {f.shape} do not fit grid {grid.shape}")
    total = np.sum(f * grid.volume_weights())
    return complex(total)


# ----- spherical harmonics ----------------------------------------------------

_SQRT_PI = math.sqrt(math.pi)


def _ylm_theta_part(l: int, m: int, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Real theta-dependent factor of Y_lm for m >= 0 (Condon-Shortley phase)."""
    if l == 0:
        return np.full_like(c, 0.5 / _SQRT_PI)
    if l == 1:
        return {
            0: math.sqrt(3.0 / (4.0 * math.pi)) * c,
            1: -math.sqrt(3.0 / (8.0 * math.pi)) * s,
        }[m]
    return {
        0: math.sqrt(5.0 / (16.0 * math.pi)) * (3.0 * c**2 - 1.0),
        1: -math.sqrt(15.0 / (8.0 * math.pi)) * s * c,
        2: math.sqrt(15.0 / (32.0 * math.pi)) * s**2,
    }[m]


def spherical_harmonic(l: int, m: int, theta, phi) -> np.ndarray:
    """Orthonormal Y_lm(theta, phi) for l <= 2, any |m| <= l.

    Normalization: the angular integral of Y*_l'm' Y_lm over the sphere is
    the Kronecker delta in both indices.
    """
    if not isinstance(l, int) or not isinstance(m, int):
        raise ValueError("l and m must be integers")
    if l < 0 or l > 2:
        raise ValueError(f"l={l} outside the implemented range 0..2")
    if abs(m) > l:
        raise ValueError(f"|m|={abs(m)} exceeds l={l}")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    c = np.cos(theta)
    s = np.sin(theta)
    m_abs = abs(m)
    base = _ylm_theta_part(l, m_abs, c, s) * np.exp(1j * m_abs * phi)
    if m >= 0:
        return base
    return (-1.0) ** m_abs * np.conj(base)


# ----- spherical Bessel functions and well modes --------------------------------


def spherical_bessel_j(l: int, x) -> np.ndarray:
    """j_0 or j_1, switching to small-argument series where the closed
    forms lose digits to cancellation (thresholds grow with l)."""
    x = np.asarray(x, dtype=float)
    if l == 0:
        small = np.abs(x) < 1e-6
        safe = np.where(small, 1.0, x)
        out = np.where(small, 1.0 - x**2 / 6.0, np.sin(safe) / safe)
    elif l == 1:
        small = np.abs(x) < 1e-3
        safe = np.where(small, 1.0, x)
        out = np.where(
            small,
            x / 3.0 - x**3 / 30.0 + x**5 / 840.0,
            np.sin(safe) / safe**2 - np.cos(safe) / safe,
        )
    else:
        raise ValueError(f"only l in {{0, 1}} is supported, got l={l}")
    return out


def bisect_root(
    fn: Callable[[float], float], lo: float, hi: float, tol: float = 1e-12
) -> float:
    """Bisection to absolute tolerance ``tol`` on a sign-changing bracket."""
    f_lo, f_hi = fn(lo), fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if f_lo * f_hi > 0:
        raise ValueError(f"no sign change on bracket [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


# brackets isolating the first positive zero of j_l
_FIRST_ZERO_BRACKET = {0: (2.5, 4.0), 1: (3.5, 6.0)}


@dataclass(frozen=True)
class RadialMode:
    """Lowest nodeless radial mode of the infinite spherical well."""

    l: int
    R: float
    k: float
    omega: float

    def sample(self, r) -> np.ndarray:
        """Radial profile j_l(k r) at arbitrary radii."""
        return spherical_bessel_j(self.l, self.k * np.asarray(r, dtype=float))


def solve_well_mode(l: int, R: float, mass: float) -> RadialMode:
    """Lowest mode with angular momentum l in an infinite well of radius R.

    The profile is j_l(k r) with k R the first positive zero of j_l, located
    by bisection to 1e-12; the frequency follows from omega^2 = k^2 + m^2.
    Only s and p modes (l = 0, 1) are provided.
    """
    if l not in (0, 1):
        raise ValueError(f"only l in {{0, 1}} is supported, got l={l}")
    if R <= 0:
        raise ValueError(f"well radius must be positive, got {R}")
    if mass < 0:
        raise ValueError(f"mass must be nonnegative, got {mass}")
    lo, hi = _FIRST_ZERO_BRACKET[l]
    x_zero = bisect_root(lambda x: float(spherical_bessel_j(l, x)), lo, hi)
    k = x_zero / R
    return RadialMode(l=l, R=R, k=k, omega=math.hypot(k, mass))


# ----- continuity residual -----------------------------------------------------


def divergence_residual(
    rho: np.ndarray, j: np.ndarray, spacings: Sequence[float]
) -> float:
    """Max-norm of d0 rho + div j over interior points of a (t,x,y,z) stencil.

    Second-order central differences in all four directions (the interior
    of ``np.gradient``); the residual decays as O(h^2) on smooth exactly
    conserved currents.
    """
    rho = np.asarray(rho)
    j = np.asarray(j)
    if rho.ndim != 4:
        raise ValueError(f"rho must be sampled on a 4D stencil, got {rho.ndim}D")
    if j.shape != (3,) + rho.shape:
        raise ValueError(f"j of shape {j.shape} does not match rho {rho.shape}")
    if len(spacings) != 4:
        raise ValueError("spacings must give (dt, dx, dy, dz)")
    if any(n < 3 for n in rho.shape):
        raise ValueError(f"stencil {rho.shape} too small for central differences")
    total = np.gradient(rho, spacings[0], axis=0)
    for axis in (1, 2, 3):
        total = total + np.gradient(j[axis - 1], spacings[axis], axis=axis)
    return float(np.max(np.abs(total[1:-1, 1:-1, 1:-1, 1:-1])))
