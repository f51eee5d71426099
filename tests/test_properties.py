"""Property tests: linearity of the ball quadrature and of the potential term U,
and the time independence of |U| for stationary states."""
import functools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qdensity.experiment import (  # noqa: E402
    ExternalCharge,
    external_potential,
    normalize_kg_state,
    potential_term,
    well_state,
)
from qdensity.numerics import BallGrid, integrate_ball  # noqa: E402

GRID = BallGrid.build(1.0, n_panels=4, order=4, n_theta=6, n_phi=4)
V_UNIT = external_potential(ExternalCharge(q=1.0, d=2.0), GRID)

coefficients = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
seeds = st.integers(0, 2**32 - 1)


@functools.lru_cache(maxsize=None)
def _states(sigma0: int, sigma1: int):
    s0 = normalize_kg_state(well_state(0, 0, GRID, 1.0, sigma0), GRID)
    s1 = normalize_kg_state(well_state(1, 0, GRID, 1.0, sigma1), GRID)
    return s0, s1


def _close(lhs: complex, rhs: complex, scale: float) -> bool:
    return abs(lhs - rhs) <= 1e-12 * scale + 1e-300


@settings(deadline=None)
@given(seeds, coefficients, coefficients)
def test_integrate_ball_is_linear(seed, a, b):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(GRID.shape) + 1j * rng.standard_normal(GRID.shape)
    g = rng.standard_normal(GRID.shape) + 1j * rng.standard_normal(GRID.shape)
    lhs = integrate_ball(a * f + b * g, GRID)
    rhs = a * integrate_ball(f, GRID) + b * integrate_ball(g, GRID)
    scale = integrate_ball(np.abs(a * f) + np.abs(b * g), GRID).real
    assert _close(lhs, rhs, scale)


@settings(deadline=None)
@given(coefficients, st.floats(1e-3, 1e3))
def test_potential_term_is_linear_in_e_and_q(e, q):
    s0, s1 = _states(1, 1)
    v = external_potential(ExternalCharge(q=q, d=2.0), GRID)
    expected = e * q * potential_term(s0, s1, GRID, V_UNIT, 1.0)
    assert _close(potential_term(s0, s1, GRID, v, e), expected, abs(expected))


@settings(deadline=None)
@given(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from([-1, 1]),
    st.sampled_from([-1, 1]),
)
def test_potential_term_modulus_is_independent_of_t(t, sigma0, sigma1):
    s0, s1 = _states(sigma0, sigma1)
    at_zero = abs(potential_term(s0, s1, GRID, V_UNIT, 1.0, t=0.0))
    at_t = abs(potential_term(s0, s1, GRID, V_UNIT, 1.0, t=t))
    assert at_zero > 0.0
    assert _close(at_t, at_zero, at_zero)
