"""Numeric spinor and scalar field operations.

Implements both 4-currents and both energy densities pointwise on sampled
fields: the spinor current psibar gamma^mu psi (positive definite density,
blind to external potentials), the spinor Hamiltonian alpha.(-i grad)
+ eV + beta m, and the scalar current/energy density of the minimally
coupled complex scalar field.  Dirac representation, metric (+,-,-,-),
natural units, spinor normalization ubar u = 2m.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import numerics

__all__ = [
    "GAMMAS",
    "BETA",
    "ALPHAS",
    "SpinorPlaneWave",
    "KGPlaneWave",
    "FourCurrent",
    "dirac_current",
    "dirac_hamiltonian_apply",
    "kg_current",
    "kg_hamiltonian_density",
]

_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)
_EYE2 = np.eye(2, dtype=np.complex128)
_ZERO2 = np.zeros((2, 2), dtype=np.complex128)

#: gamma^0..gamma^3 in the Dirac representation
GAMMAS = (
    np.block([[_EYE2, _ZERO2], [_ZERO2, -_EYE2]]),
    *(np.block([[_ZERO2, sigma], [-sigma, _ZERO2]]) for sigma in _PAULI),
)
BETA = GAMMAS[0]
#: alpha_k = gamma^0 gamma^k for k = 1, 2, 3, the velocity matrices, written
#: out block by block: a matrix product here would start BLAS at import
ALPHAS = tuple(np.block([[_ZERO2, sigma], [sigma, _ZERO2]]) for sigma in _PAULI)


@dataclass(frozen=True)
class SpinorPlaneWave:
    """Positive-energy plane-wave spinor u(p, s) e^{i(p.x - E t)}.

    Normalized covariantly: ubar u = 2m, so the density u^dag u equals 2E.
    """

    p: np.ndarray
    mass: float
    s: int
    energy: float
    u: np.ndarray

    @classmethod
    def build(cls, p: Sequence[float], mass: float, s: int = 1) -> "SpinorPlaneWave":
        if s not in (1, 2):
            raise ValueError(f"spin index must be 1 or 2, got {s}")
        if mass <= 0:
            raise ValueError("plane-wave spinors need a positive mass")
        p = np.asarray(p, dtype=float)
        if p.shape != (3,):
            raise ValueError("momentum must be a 3-vector")
        energy = math.sqrt(float(p @ p) + mass**2)
        chi = np.zeros(2, dtype=np.complex128)
        chi[s - 1] = 1.0
        sigma_p = sum(p[k] * _PAULI[k] for k in range(3))
        scale = math.sqrt(energy + mass)
        u = np.concatenate([scale * chi, (sigma_p @ chi) / scale])
        return cls(p=p, mass=mass, s=s, energy=energy, u=u)

    def sample(self, x: Sequence[np.ndarray], t) -> np.ndarray:
        """Spinor field samples, shape (4,) + broadcast shape of x and t."""
        phase = -self.energy * np.asarray(t)
        for k in range(3):
            phase = phase + self.p[k] * np.asarray(x[k])
        wave = np.exp(1j * phase)
        return self.u.reshape((4,) + (1,) * wave.ndim) * wave


@dataclass(frozen=True)
class KGPlaneWave:
    """Scalar plane wave N e^{i(k.x + sigma omega t)}.

    ``sigma`` records the sign convention of the time phase; sigma = -1 is
    the usual positive-frequency wave e^{-i omega t}.
    """

    N: complex
    omega: float
    k: np.ndarray
    sigma: int

    @classmethod
    def free(
        cls, N: complex, k: Sequence[float], mass: float, sigma: int = -1
    ) -> "KGPlaneWave":
        if sigma not in (-1, 1):
            raise ValueError(f"sigma must be +-1, got {sigma}")
        k = np.asarray(k, dtype=float)
        if k.shape != (3,):
            raise ValueError("wave vector must be a 3-vector")
        omega = math.sqrt(float(k @ k) + mass**2)
        return cls(N=complex(N), omega=omega, k=k, sigma=sigma)

    def sample(self, x: Sequence[np.ndarray], t) -> np.ndarray:
        phase = self.sigma * self.omega * np.asarray(t)
        for j in range(3):
            phase = phase + self.k[j] * np.asarray(x[j])
        return self.N * np.exp(1j * phase)

    def time_derivative(self, x: Sequence[np.ndarray], t) -> np.ndarray:
        return 1j * self.sigma * self.omega * self.sample(x, t)

    def gradient(self, x: Sequence[np.ndarray], t) -> np.ndarray:
        base = self.sample(x, t)
        return np.stack([1j * self.k[j] * base for j in range(3)])


@dataclass(frozen=True)
class FourCurrent:
    """Sampled (rho, j) pair with its provenance ("dirac" or "kg").

    A spinor-derived density is positive definite; this is checked at
    construction time.  The scalar density is not, which is the whole point.
    """

    rho: np.ndarray
    j: np.ndarray
    provenance: str
    spacings: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.provenance not in ("dirac", "kg"):
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if self.j.shape != (3,) + self.rho.shape:
            raise ValueError(
                f"j of shape {self.j.shape} does not match rho {self.rho.shape}"
            )
        if self.provenance == "dirac" and np.any(self.rho < 0):
            raise ValueError("spinor density must be nonnegative everywhere")

    def divergence_residual(self) -> float:
        if self.spacings is None:
            raise ValueError("no grid spacings available for the residual")
        return numerics.divergence_residual(self.rho, self.j, self.spacings)


def dirac_current(
    psi: np.ndarray, spacings: Optional[Tuple[float, ...]] = None
) -> FourCurrent:
    """Conserved spinor current: rho = psi^dag psi, j^k = psi^dag alpha_k psi.

    The current depends on the spinor alone, whatever external field it
    moves in, so it takes no potential.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.ndim < 1 or psi.shape[0] != 4:
        raise ValueError("spinor samples must have 4 components on axis 0")
    rho = np.sum(np.abs(psi) ** 2, axis=0)
    j = np.empty((3,) + psi.shape[1:], dtype=float)
    for k, alpha in enumerate(ALPHAS):
        j[k] = np.real(
            np.einsum("a...,ab,b...->...", np.conj(psi), alpha, psi)
        )
    return FourCurrent(rho=rho, j=j, provenance="dirac", spacings=spacings)


def _roll_derivative(f: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Second-order central difference on a periodic axis."""
    return (np.roll(f, -1, axis=axis) - np.roll(f, 1, axis=axis)) / (2.0 * h)


def dirac_hamiltonian_apply(
    psi: np.ndarray,
    spacings: Sequence[float],
    mass: float,
    e: float = 0.0,
    V: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Apply H = alpha.(-i grad) + e V + beta m on a periodic 3D grid.

    The operator contains no time derivative: it maps one spatial snapshot
    of the spinor to another.  Spatial derivatives use second-order central
    differences with periodic wrap, so exact plane waves commensurate with
    the box show O(h^2) residuals against i d/dt.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.ndim != 4 or psi.shape[0] != 4:
        raise ValueError("spinor samples must be shaped (4, nx, ny, nz)")
    if len(spacings) != 3:
        raise ValueError("spacings must give (dx, dy, dz)")
    if any(n < 3 for n in psi.shape[1:]):
        raise ValueError(f"grid {psi.shape[1:]} too coarse for the stencil")
    out = np.zeros_like(psi)
    for k, alpha in enumerate(ALPHAS):
        kinetic = -1j * _roll_derivative(psi, axis=k + 1, h=spacings[k])
        out += np.einsum("ab,b...->a...", alpha, kinetic)
    out += np.einsum("ab,b...->a...", mass * BETA, psi)
    if V is not None:
        out += e * np.asarray(V) * psi
    return out


def kg_current(
    phi: np.ndarray,
    phi_t: np.ndarray,
    grad_phi: np.ndarray,
    V: Optional[np.ndarray] = None,
    e: float = 0.0,
    spacings: Optional[Tuple[float, ...]] = None,
) -> FourCurrent:
    """Scalar 4-current:

        rho = i(phi* d0 phi - d0 phi* phi) - 2 e V phi* phi
        j_k = i(dk phi* phi - phi* dk phi)

    The time derivative and the gradient (stacked over k on axis 0) are
    supplied by the caller, analytically for the exact solutions sampled here.
    """
    phi = np.asarray(phi, dtype=np.complex128)
    phi_t = np.asarray(phi_t, dtype=np.complex128)
    if phi_t.shape != phi.shape:
        raise ValueError("phi and its time derivative must share a shape")
    grad_phi = np.asarray(grad_phi)
    rho = np.real(1j * (np.conj(phi) * phi_t - np.conj(phi_t) * phi))
    if V is not None:
        rho = rho - 2.0 * e * np.asarray(V) * np.abs(phi) ** 2
    j = np.empty((3,) + phi.shape, dtype=float)
    for k in range(3):
        j[k] = np.real(
            1j * (np.conj(grad_phi[k]) * phi - np.conj(phi) * grad_phi[k])
        )
    return FourCurrent(rho=rho, j=j, provenance="kg", spacings=spacings)


def kg_hamiltonian_density(
    phi: np.ndarray,
    phi_t: np.ndarray,
    grad_phi: np.ndarray,
    mass: float,
    V: Optional[np.ndarray] = None,
    A: Optional[Sequence[np.ndarray]] = None,
    e: float = 0.0,
) -> np.ndarray:
    """Scalar energy density |d0 phi + ieV phi|^2 + sum_k |dk phi - ieA_k phi|^2
    + m^2 |phi|^2: a sum of squared moduli, nonnegative by construction."""
    phi = np.asarray(phi, dtype=np.complex128)
    phi_t = np.asarray(phi_t, dtype=np.complex128)
    grad_phi = np.asarray(grad_phi)
    cov_t = phi_t + (1j * e * np.asarray(V) * phi if V is not None else 0.0)
    out = np.abs(cov_t) ** 2
    for k in range(3):
        cov_k = grad_phi[k] - (
            1j * e * np.asarray(A[k]) * phi if A is not None else 0.0
        )
        out = out + np.abs(cov_k) ** 2
    out = out + mass**2 * np.abs(phi) ** 2
    return out
