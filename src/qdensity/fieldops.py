"""Numeric spinor and scalar field operations.

Implements both 4-currents and both energy densities pointwise on sampled
fields: the spinor current psibar gamma^mu psi (positive definite density,
blind to external potentials), the spinor Hamiltonian alpha.(-i grad)
+ eV + beta m, and the scalar current/energy density of the minimally
coupled complex scalar field.  Dirac representation, metric (+,-,-,-),
natural units, spinor normalization ubar u = 2m.  The Dirac matrices act
as Pauli matrices on the upper and lower 2-spinor blocks, never as 4x4s.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import numerics

__all__ = [
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


def _plane_wave(omega: float, k: np.ndarray, x: Sequence[np.ndarray], t) -> np.ndarray:
    """e^{i(k.x - omega t)} as a product of per-axis factors, 1D exps on open grids.
    np.multiply fixes the operand order, which `*` may swap into a temporary."""
    wave = np.exp(-1j * (omega * np.asarray(t)))
    for j in range(3):
        wave = np.multiply(wave, np.exp(1j * (k[j] * np.asarray(x[j]))))
    return wave


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
        wave = _plane_wave(self.energy, self.p, x, t)
        return self.u.reshape((4,) + (1,) * wave.ndim) * wave


@dataclass(frozen=True)
class KGPlaneWave:
    """Positive-frequency scalar plane wave N e^{i(k.x - omega t)}."""

    N: complex
    omega: float
    k: np.ndarray

    @classmethod
    def free(cls, N: complex, k: Sequence[float], mass: float) -> "KGPlaneWave":
        k = np.asarray(k, dtype=float)
        if k.shape != (3,):
            raise ValueError("wave vector must be a 3-vector")
        omega = math.sqrt(float(k @ k) + mass**2)
        return cls(N=complex(N), omega=omega, k=k)

    def sample(self, x: Sequence[np.ndarray], t) -> np.ndarray:
        # N first at any size: `*` would swap it behind a large temporary
        return np.multiply(self.N, _plane_wave(self.omega, self.k, x, t))

    def time_derivative(self, x: Sequence[np.ndarray], t) -> np.ndarray:
        return -1j * self.omega * self.sample(x, t)

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
        """Max-norm of d0 rho + div j inside the 4D stencil of the spacings,
        by ``numerics.divergence_residual``."""
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
    # rho = sum_c Re(psi_c)^2 + Im(psi_c)^2 in place: np.abs is a hypot,
    # whose root the square would only undo
    rho = np.zeros(psi.shape[1:])
    part = np.empty_like(rho)
    for c in range(4):
        rho += np.square(psi[c].real, out=part)
        rho += np.square(psi[c].imag, out=part)
    # psi^dag alpha_k psi = 2 Re(up^dag sigma_k lo) on the 2-spinor blocks,
    # one product at a time: Re and Im of a sum are the sums of the parts.
    # The products stay `*`, so a single spinor's 0-d components keep
    # numpy's scalar arithmetic, which rounds differently from array loops.
    lo = psi[2:]
    j = np.empty((3,) + psi.shape[1:])
    up = np.conj(psi[0])
    term = up * lo[1]
    j[0], j[1] = term.real, term.imag
    term = up * lo[0]
    j[2] = term.real
    up = np.conj(psi[1])
    term = up * lo[0]
    j[0] += term.real
    j[1] -= term.imag
    term = up * lo[1]
    j[2] -= term.real
    j *= 2.0
    return FourCurrent(rho=rho, j=j, provenance="dirac", spacings=spacings)


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
    kinetic, term = np.empty_like(psi), np.empty_like(psi[0])
    for k, sigma in enumerate(_PAULI):
        # -i d_k psi by the second-order central difference, periodic: the
        # interior from shifted slices, the wrap from the two edge layers
        field, diff = np.moveaxis(psi, k + 1, 0), np.moveaxis(kinetic, k + 1, 0)
        np.subtract(field[2:], field[:-2], out=diff[1:-1])
        np.subtract(field[1], field[-1], out=diff[0])
        np.subtract(field[0], field[-2], out=diff[-1])
        kinetic /= 2.0 * spacings[k]
        kinetic *= -1j
        # alpha_k: each block gets sigma_k (1, -1 or +-i per row) times the other
        for row, col in np.argwhere(sigma):
            out[row] += np.multiply(sigma[row, col], kinetic[2 + col], out=term)
            out[2 + row] += np.multiply(sigma[row, col], kinetic[col], out=term)
    # beta is +1 on the upper block and -1 on the lower one
    np.multiply(mass, psi, out=kinetic)
    out[:2] += kinetic[:2]
    out[2:] -= kinetic[2:]
    if V is not None:
        out += np.multiply(e * np.asarray(V), psi, out=kinetic)
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
            = -2 Im(phi* d0 phi) - 2 e V |phi|^2
        j_k = i(dk phi* phi - phi* dk phi) = 2 Im(phi* dk phi)

    since i(conj(z) - z) = 2 Im z: one complex product per term.  The time
    derivative and the gradient (stacked over k on axis 0) are supplied by
    the caller, analytically for the exact solutions sampled here.
    """
    phi = np.asarray(phi, dtype=np.complex128)
    phi_t = np.asarray(phi_t, dtype=np.complex128)
    if phi_t.shape != phi.shape:
        raise ValueError("phi and its time derivative must share a shape")
    grad_phi = np.asarray(grad_phi)
    phi_star = np.conj(phi)
    j = np.empty((3,) + phi.shape, dtype=float)
    for k in range(3):
        j[k] = 2.0 * (phi_star * grad_phi[k]).imag
    rho = -2.0 * (phi_star * phi_t).imag
    if V is not None:
        modulus = np.square(phi.real)
        modulus += np.square(phi.imag)
        modulus *= 2.0 * e * np.asarray(V)
        rho -= modulus
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
