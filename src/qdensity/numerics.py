"""Quadrature, spherical harmonics, well modes and divergence residuals.

Numerical substrate for the ball-integral experiment and the continuity
checks: composite Gauss-Legendre quadrature over a solid sphere, explicit
orthonormal spherical harmonics up to l = 2, the lowest nodeless radial
modes of the infinite spherical well from the tabulated zeros of j_0 and
j_1, and a second-order finite-difference residual of d0 rho + div j = 0,
formed one time slice at a time.

Each Gauss-Legendre rule is built from one symmetric eigenvalue solve
(Golub & Welsch, Math. Comp. 23 (1969) 221) and one pass of the three-term
recurrence, not by numpy's ``leggauss``, whose Python-level polish of the
same eigenvalues cost more than the solve and gave less accurate weights.
"""
from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = [
    "gauss_legendre",
    "composite_gauss_legendre",
    "BallGrid",
    "spherical_harmonic",
    "spherical_bessel_j",
    "RadialMode",
    "solve_well_mode",
    "integrate_ball",
    "divergence_residual_of_slices",
]


def gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1], exact for polynomials of degree 2n-1.

    The nodes are the eigenvalues of the symmetric Jacobi matrix of the
    Legendre polynomials, whose off-diagonal is k / sqrt(4k^2 - 1) (Golub &
    Welsch, Math. Comp. 23 (1969) 221).  One pass of the three-term
    recurrence gives P_n and P_{n-1} at every node, hence
    P_n' = n (P_{n-1} - x P_n) / (1 - x^2) and one Newton step.  Legendre's
    equation (1 - x^2) P_n'' = 2x P_n' - n(n+1) P_n carries P_n' to the
    polished node to first order, so the weights 2 / ((1 - x^2) P_n'^2)
    need no second pass.  numpy's ``leggauss`` takes the same eigenvalues
    but polishes them with three Clenshaw sums of Legendre series and a
    series derivative: that polish was most of the cost of the orthogonality
    experiment's two grid builds, and its weights are less accurate (1e-10
    relative at order 512, against 1e-12 here).  Each order is built once per
    process; both arrays are shared and read-only.
    """
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise TypeError(f"quadrature order must be an integer, got {type(n).__name__}")
    if n < 1:
        raise ValueError(f"quadrature order must be >= 1, got {n}")
    # checked before the lookup, whose keys compare by ==: True == 1, 8.0 == 8
    return _gauss_legendre(operator.index(n))


@functools.cache
def _gauss_legendre(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The rule of order ``n``, built once per process and read-only."""
    k = np.arange(1.0, n)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    p0, p1 = np.ones_like(x), x  # P_{m-1} and P_m at the nodes, from m = 1
    for m in range(2, n + 1):
        # m P_m = (2m - 1) x P_{m-1} - (m - 1) P_{m-2}, in four array operations
        xp = x * p1
        p0, p1 = p1, xp + (m - 1) / m * (xp - p0)
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    dp = n * (p0 - x * p1) / one_minus_x2
    step = p1 / dp
    dp -= step * (2.0 * x * dp - n * (n + 1) * p1) / one_minus_x2
    x = x - step
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp**2)
    # x is odd and w even in exact arithmetic: make them so bit for bit
    x, w = (x - x[::-1]) / 2.0, (w + w[::-1]) / 2.0
    x.flags.writeable = w.flags.writeable = False
    return x, w


def composite_gauss_legendre(
    a: float, b: float, panels: int, order: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule applied on ``panels`` equal subintervals of [a, b]."""
    if panels < 1:
        raise ValueError(f"panel count must be >= 1, got {panels}")
    base_x, base_w = gauss_legendre(order)
    edges = np.linspace(a, b, panels + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    return (half * base_x + 0.5 * (hi + lo)).ravel(), (half * base_w).ravel()


@dataclass(frozen=True)
class BallGrid:
    """Product quadrature grid over the solid sphere r <= R.

    Radial nodes come from composite Gauss-Legendre panels on (0, R) with
    plain dr weights (the r^2 factor is applied by :meth:`axis_weights`),
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
        if n_phi < 1:
            raise ValueError(f"azimuth grid size must be >= 1, got {n_phi}")
        r, w_r = composite_gauss_legendre(0.0, R, n_panels, order)
        cos_theta, w_theta = gauss_legendre(n_theta)
        phi = np.arange(n_phi) * (2.0 * np.pi / n_phi)
        w_phi = np.full(n_phi, 2.0 * np.pi / n_phi)
        return cls(R, r, w_r, cos_theta, w_theta, phi, w_phi)

    @property
    def theta(self) -> np.ndarray:
        return np.arccos(self.cos_theta)

    @property
    def shape(self) -> Tuple[int, int, int]:
        return len(self.r), len(self.cos_theta), len(self.phi)

    def axis_weights(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The measure r^2 dr dcos(theta) dphi as one factor per axis:
        (r^2 w_r, w_theta, w_phi).  A separable integrand needs no more."""
        return self.w_r * self.r**2, self.w_theta, self.w_phi

    def volume_weights(self) -> np.ndarray:
        """Full measure, the outer product of :meth:`axis_weights`, shape
        (n_r, n_theta, n_phi)."""
        radial, polar, azimuth = self.axis_weights()
        return radial[:, None, None] * polar[:, None] * azimuth


def integrate_ball(f: np.ndarray, grid: BallGrid) -> complex:
    """Weighted sum of samples over the ball; linear in the samples.

    ``f`` must be broadcastable to the grid shape (n_r, n_theta, n_phi),
    which admits axisymmetric integrands sampled as (n_r, n_theta, 1).
    The weights are :meth:`BallGrid.volume_weights`.
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


# j_1(x) / x = sum_n c_n x^(2n), c_n = (-1/2)^n / (n! (2n+3)!!) correctly
# rounded; through x^21 the series is within 2 ulp of j_1 on |x| < 1, where
# the closed form cancels (235 ulp off at x = 0.1)
_J1_SERIES = tuple(
    (-1) ** n / (2**n * math.factorial(n) * math.prod(range(3, 2 * n + 4, 2)))
    for n in range(11)
)


def spherical_bessel_j(l: int, x) -> np.ndarray:
    """j_0 or j_1, switching to small-argument series where the closed
    forms lose digits to cancellation: below 1e-6 for j_0, below 1 for j_1."""
    x = np.asarray(x, dtype=float)
    if l == 0:
        small = np.abs(x) < 1e-6
        safe = np.where(small, 1.0, x)
        out = np.where(small, 1.0 - x**2 / 6.0, np.sin(safe) / safe)
    elif l == 1:
        small = np.abs(x) < 1.0
        safe = np.where(small, 1.0, x)
        x2 = np.where(small, x, 0.0) ** 2  # 0 where unused, so it cannot overflow
        series = 0.0
        for c in reversed(_J1_SERIES):
            series = series * x2 + c
        out = np.where(small, x * series, np.sin(safe) / safe**2 - np.cos(safe) / safe)
    else:
        raise ValueError(f"only l in {{0, 1}} is supported, got l={l}")
    return out


# First positive zeros of j_0 and j_1: pi, and the first root of tan x = x
# (Abramowitz & Stegun, Table 10.6; DLMF 10.21), correctly rounded.
_FIRST_ZERO = {0: math.pi, 1: 4.493409457909064}


@dataclass(frozen=True)
class RadialMode:
    """Lowest nodeless radial mode of the infinite spherical well."""

    l: int
    k: float
    omega: float

    def sample(self, r) -> np.ndarray:
        """Radial profile j_l(k r) at arbitrary radii."""
        return spherical_bessel_j(self.l, self.k * np.asarray(r, dtype=float))


def solve_well_mode(l: int, R: float, mass: float) -> RadialMode:
    """Lowest mode with angular momentum l in an infinite well of radius R.

    The profile is j_l(k r) with k R the tabulated first positive zero of
    j_l; the frequency follows from omega^2 = k^2 + m^2.
    Only s and p modes (l = 0, 1) are provided.
    """
    if l not in (0, 1):
        raise ValueError(f"only l in {{0, 1}} is supported, got l={l}")
    if R <= 0:
        raise ValueError(f"well radius must be positive, got {R}")
    if mass < 0:
        raise ValueError(f"mass must be nonnegative, got {mass}")
    k = _FIRST_ZERO[l] / R
    return RadialMode(l=l, k=k, omega=math.hypot(k, mass))


# ----- continuity residual -----------------------------------------------------


def divergence_residual_of_slices(
    slices: Iterable[Tuple[np.ndarray, np.ndarray]], spacings: Sequence[float]
) -> float:
    """Max-norm of d0 rho + div j over the interior of a (t,x,y,z) stencil,
    formed one time slice (rho_t of shape (nx, ny, nz), j_t) at a time from a
    window of three, by second-order central differences: O(h^2) on smooth
    conserved currents.  Samples are read as float64, a complex one is refused,
    and each difference is the interior of ``np.gradient`` bit for bit."""
    if len(spacings) != 4:
        raise ValueError("spacings must give (dt, dx, dy, dz)")
    inner = (slice(1, -1),) * 3
    window, peaks = [], []
    for rho_t, j_t in slices:
        for part in (rho_t, j_t):
            if np.iscomplexobj(part):  # the cast would drop the imaginary part
                dtype = np.asarray(part).dtype
                raise TypeError(f"current slices must be real, got {dtype}")
        rho_t, j_t = np.asarray(rho_t, dtype=float), np.asarray(j_t, dtype=float)
        shape = window[0][0].shape if window else rho_t.shape
        if rho_t.shape != shape or j_t.shape != (3,) + shape:
            raise ValueError(f"slice {rho_t.shape}, {j_t.shape} does not match {shape}")
        if len(shape) != 3 or min(shape) < 3:
            raise ValueError(f"slice {shape} too small for central differences")
        window = window[-2:] + [(rho_t, j_t)]
        if len(window) < 3:
            continue
        (before, _), (_, flux), (after, _) = window
        total = after[inner] - before[inner]
        total /= 2.0 * spacings[0]
        for axis in range(3):
            upper = inner[:axis] + (slice(2, None),) + inner[axis + 1 :]
            lower = inner[:axis] + (slice(None, -2),) + inner[axis + 1 :]
            diff = flux[axis][upper] - flux[axis][lower]
            diff /= 2.0 * spacings[axis + 1]
            total += diff
        peaks.append(np.max(np.abs(total)))
    if not peaks:
        raise ValueError("central differences in time need at least 3 slices")
    return float(np.max(peaks))
