"""Independent multipole oracle for the orthogonality experiment.

For a point charge q on the +z axis at distance d > R,

    1/|x - d z| = sum_L r^L / d^(L+1) P_L(cos theta)

(Jackson, *Classical Electrodynamics*, sec. 3.6).  Between the Y_00 and Y_10
well states only the L = 1 term survives the angular integral, so the
potential term is exactly U(d) = C / d^2 with

    C = -(2 e q n0 n1 / sqrt(3)) * integral_0^R r^3 j0(k0 r) j1(k1 r) dr,

where n_l normalizes each state to 2 omega_l n_l^2 int_0^R r^2 j_l^2 dr = 1
and omega_l^2 = k_l^2 + mass^2.  This module uses numpy only and never
imports qdensity, so it stays an independent reference for any change to
the program's quadrature.
"""
from __future__ import annotations

import math

import numpy as np

# first positive zeros of j0 and j1
KR0 = math.pi
KR1 = 4.493409457909064

# U * d^2 at R = mass = e = q = 1, from a 128-node rule
REFERENCE_C = -0.0785563543475798

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(128)


def _j0(x: np.ndarray) -> np.ndarray:
    return np.sin(x) / x


def _j1(x: np.ndarray) -> np.ndarray:
    return np.sin(x) / x**2 - np.cos(x) / x


def dipole_constant(R: float, mass: float, e: float, q: float) -> float:
    """C such that U(d) = C / d^2 for every d > R."""
    r = 0.5 * R * (_NODES + 1.0)
    w = 0.5 * R * _WEIGHTS
    k0, k1 = KR0 / R, KR1 / R
    f0, f1 = _j0(k0 * r), _j1(k1 * r)
    n0 = 1.0 / math.sqrt(2.0 * math.hypot(k0, mass) * np.sum(w * r**2 * f0**2))
    n1 = 1.0 / math.sqrt(2.0 * math.hypot(k1, mass) * np.sum(w * r**2 * f1**2))
    radial = np.sum(w * r**3 * f0 * f1)
    return float(-(2.0 * e * q * n0 * n1 / math.sqrt(3.0)) * radial)


def self_test() -> None:
    """Raise if the oracle no longer reproduces the reference constant."""
    c = dipole_constant(1.0, 1.0, 1.0, 1.0)
    if abs(c - REFERENCE_C) > 1e-12:
        raise RuntimeError(
            f"multipole oracle gives C = {c!r}, expected {REFERENCE_C!r} to 1e-12"
        )
