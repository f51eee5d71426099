"""Property tests: linearity of the ball quadrature and of the potential term U,
the exact 1/d^2 decay of U, finite reports at the corners of the accepted
input range, and the ring laws and canonical form of FieldExpr."""
import functools
import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qdensity.cli import parse_args, run  # noqa: E402
from qdensity.experiment import (  # noqa: E402
    MAX_MAGNITUDE,
    MIN_MAGNITUDE,
    ExternalCharge,
    external_potential,
    normalize_kg_state,
    potential_term,
    well_state,
)
from qdensity.numerics import BallGrid, integrate_ball  # noqa: E402
from qdensity.symexpr import (  # noqa: E402
    D,
    ExactComplex,
    FieldExpr,
    I,
    _collect,
    dirac_lagrangian,
    kg_charge_density,
    kg_hamiltonian_density,
    kg_lagrangian,
)

GRID = BallGrid.build(1.0, n_panels=4, order=4, n_theta=6, n_phi=4)
V_UNIT = external_potential(ExternalCharge(q=1.0, d=2.0), GRID)

coefficients = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
seeds = st.integers(0, 2**32 - 1)


@functools.lru_cache(maxsize=None)
def _states():
    s0 = normalize_kg_state(well_state(0, 0, GRID, 1.0), GRID)
    s1 = normalize_kg_state(well_state(1, 0, GRID, 1.0), GRID)
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
    s0, s1 = _states()
    v = external_potential(ExternalCharge(q=q, d=2.0), GRID)
    expected = e * q * potential_term(s0, s1, GRID, V_UNIT, 1.0)
    assert _close(potential_term(s0, s1, GRID, v, e), expected, abs(expected))


@functools.lru_cache(maxsize=None)
def _default_grid_dipole():
    """States, grid and the U * d^2 reference at d = 2 on the default grid."""
    grid = BallGrid.build(1.0)
    s0 = normalize_kg_state(well_state(0, 0, grid, 1.0), grid)
    s1 = normalize_kg_state(well_state(1, 0, grid, 1.0), grid)
    return s0, s1, grid, _u_times_d_squared(s0, s1, grid, 2.0)


def _u_times_d_squared(s0, s1, grid, d):
    v = external_potential(ExternalCharge(q=1.0, d=d), grid)
    return potential_term(s0, s1, grid, v, 1.0) * d**2


@settings(deadline=None)
@given(st.floats(2.0, 100.0))
def test_potential_term_times_d_squared_is_constant(d):
    # for d > R only the dipole term of 1/|x - d z| couples Y00 to Y10
    s0, s1, grid, reference = _default_grid_dipole()
    scaled = _u_times_d_squared(s0, s1, grid, d)
    assert abs(scaled - reference) <= 1e-11 * abs(reference)


def _floats(payload):
    if isinstance(payload, dict):
        payload = list(payload.values())
    if isinstance(payload, list):
        return [x for item in payload for x in _floats(item)]
    return [payload] if isinstance(payload, float) else []


@settings(deadline=None)
@given(
    st.sampled_from([MIN_MAGNITUDE, MAX_MAGNITUDE / 2]),
    st.sampled_from([0.0, MIN_MAGNITUDE, MAX_MAGNITUDE]),
    st.sampled_from([-MAX_MAGNITUDE, -MIN_MAGNITUDE, MIN_MAGNITUDE, MAX_MAGNITUDE]),
    st.sampled_from([MIN_MAGNITUDE, MAX_MAGNITUDE]),
)
def test_reports_stay_finite_at_the_corners_of_the_input_range(
    tmp_path_factory, R, mass, e, q
):
    # a near and the farthest accepted distance; an overflow anywhere fails
    # the run through filterwarnings = error, a NaN fails the final check
    folder = tmp_path_factory.mktemp("corner")
    config, out = folder / "run.cfg", folder / "report.json"
    config.write_text(
        f"R = {R!r}\nmass = {mass!r}\ne = {e!r}\nq = {q!r}\n"
        f"d = {1.5 * R!r},{MAX_MAGNITUDE!r}\n"
    )
    argv = ["orthogonality", "--resolution", "2", "--config", str(config),
            "--out", str(out)]
    assert run(parse_args(argv)) in (0, 1)
    values = _floats(json.loads(out.read_text()))
    assert values and all(math.isfinite(x) for x in values)


CATALOG_FACTORS = sorted(
    {
        factor
        for expr in (
            dirac_lagrangian(),
            kg_lagrangian(),
            kg_hamiltonian_density(),
            kg_charge_density(),
        )
        for mono in expr.terms
        for factor in mono
    }
)
small = st.integers(-3, 3)
leaves = st.one_of(
    st.sampled_from(CATALOG_FACTORS).map(lambda f: D(f[0], *f[1])),
    st.builds(
        lambda re, im: FieldExpr({(): ExactComplex.of(re) + ExactComplex.of(im) * I}),
        small,
        small,
    ),
)
expressions = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.builds(lambda a, b: a + b, inner, inner),
        st.builds(lambda a, b: a * b, inner, inner),
        st.builds(lambda k, a: k * a, small, inner),
        st.builds(lambda a, k: a * k, inner, small),
        st.builds(lambda a: -a, inner),
        st.builds(lambda a, b: a - b, inner, inner),
    ),
    max_leaves=6,
)


def _assert_canonical(expr):
    # the contract of test_canonicalization_is_idempotent, plus int parts
    for mono, coeff in expr.terms.items():
        assert isinstance(mono, tuple) and mono == tuple(sorted(mono))
        assert all(derivs == tuple(sorted(derivs)) for _n, derivs in mono)
        assert coeff.re or coeff.im
        assert type(coeff.re) is int and type(coeff.im) is int


def _scaled_by_collection(a, k):
    """The product as the general path forms it: k lifted, then collected."""
    lifted = FieldExpr({(): k})
    return _collect(
        (tuple(sorted(mono_a + mono_b)), ca * cb)
        for mono_a, ca in a.terms.items()
        for mono_b, cb in lifted.terms.items()
    )


@settings(deadline=None)
@given(expressions, expressions, expressions)
def test_field_expr_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero


@settings(deadline=None)
@given(expressions, expressions)
def test_every_result_is_canonical(a, b):
    for expr in (a, b, a + b, a * b, a - b, -a):
        _assert_canonical(expr)


@settings(deadline=None)
@given(expressions, small)
@example(D("phi"), 0)
@example(D("phi") + FieldExpr({(): -3}), 2)
def test_scalar_products_equal_the_general_product(a, k):
    expected = _scaled_by_collection(a, k)
    for product in (k * a, a * k, ExactComplex.of(k) * a, a * ExactComplex.of(k)):
        _assert_canonical(product)
        assert product == expected
    assert (k * a).is_zero == (k == 0 or a.is_zero)


@settings(deadline=None)
@given(small, small)
def test_exact_complex_equality_and_hash_follow_both_parts(re, im):
    exact = ExactComplex(re, im)
    same = ExactComplex.of(re) + ExactComplex(0, im)
    assert exact == same and hash(exact) == hash(same)
    assert exact != ExactComplex(re, im + 1) and exact != ExactComplex(re + 1, im)


def test_exact_complex_keeps_the_dataclass_repr_and_equality():
    assert repr(ExactComplex(2, 0)) == "ExactComplex(re=2, im=0)"
    assert repr(ExactComplex(-1, 3)) == "ExactComplex(re=-1, im=3)"
    assert ExactComplex(1, 0) != (1, 0)  # only another ExactComplex is equal
