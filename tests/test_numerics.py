import math

import numpy as np
import pytest

from qdensity.numerics import (
    BallGrid,
    bisect_root,
    composite_gauss_legendre,
    divergence_residual,
    gauss_legendre,
    integrate_ball,
    solve_well_mode,
    spherical_bessel_j,
    spherical_harmonic,
)


@pytest.fixture(scope="module")
def grid():
    return BallGrid.build(1.0)


# ----- Gauss-Legendre -------------------------------------------------------------


def test_order_one_is_midpoint_rule():
    nodes, weights = gauss_legendre(1)
    assert nodes == pytest.approx([0.0])
    assert weights == pytest.approx([2.0])


def test_order_two_closed_form():
    nodes, weights = gauss_legendre(2)
    assert sorted(nodes) == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)])
    assert weights == pytest.approx([1.0, 1.0])
    # degree-3 exactness: integral of x^3 + 2x^2 over [-1, 1] is 4/3
    value = np.sum(weights * (nodes**3 + 2 * nodes**2))
    assert value == pytest.approx(4.0 / 3.0, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_weights_sum_to_interval_length(n):
    _nodes, weights = gauss_legendre(n)
    assert np.sum(weights) == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_polynomial_exactness_up_to_degree(n):
    nodes, weights = gauss_legendre(n)
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert np.sum(weights * nodes**k) == pytest.approx(exact, abs=1e-13)


def test_invalid_order_rejected():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        composite_gauss_legendre(0.0, 1.0, panels=0, order=4)


def test_composite_rule_covers_interval():
    nodes, weights = composite_gauss_legendre(0.0, 2.0, panels=4, order=3)
    assert np.sum(weights) == pytest.approx(2.0, abs=1e-14)
    assert np.all((nodes > 0.0) & (nodes < 2.0))


# ----- ball grid and integration ----------------------------------------------------


def test_ball_weights_sum_to_volume(grid):
    volume = 4.0 / 3.0 * math.pi * grid.R**3
    total = grid.volume_weights().sum()
    assert abs(total - volume) / volume < 1e-12


def test_grid_nodes_inside_open_ranges(grid):
    assert np.all((grid.r > 0.0) & (grid.r < grid.R))
    assert np.all((grid.cos_theta > -1.0) & (grid.cos_theta < 1.0))


def test_integrate_constant_gives_volume(grid):
    volume = 4.0 / 3.0 * math.pi
    value = integrate_ball(np.ones(grid.shape), grid)
    assert abs(value - volume) / volume < 1e-12


def test_integrate_separable_normalized_product(grid):
    # |Y10|^2 times g(r) with integral of g r^2 dr equal to one
    theta = grid.theta
    y10 = spherical_harmonic(1, 0, theta[:, None], grid.phi[None, :])
    g = 5.0 * grid.r**2  # for R = 1
    f = np.abs(y10[None, :, :]) ** 2 * g[:, None, None]
    assert integrate_ball(f, grid).real == pytest.approx(1.0, abs=1e-10)


def test_integrate_orthogonal_harmonic_pair_vanishes(grid):
    theta = grid.theta
    y00 = spherical_harmonic(0, 0, theta[:, None], grid.phi[None, :])
    y10 = spherical_harmonic(1, 0, theta[:, None], grid.phi[None, :])
    g = np.exp(-grid.r)
    f = np.conj(y00)[None] * y10[None] * g[:, None, None]
    scale = integrate_ball(np.abs(f), grid).real
    assert abs(integrate_ball(f, grid)) <= 1e-12 * max(scale, 1.0)


def test_integrate_shape_mismatch_rejected(grid):
    with pytest.raises(ValueError):
        integrate_ball(np.ones((3, 3, 3)), grid)


def test_quadrature_polynomial_integrand_is_exact(grid):
    # r^2 cos^2(theta) is a polynomial in r and cos(theta): Gauss-Legendre
    # integrates it to rounding at any resolution
    f = grid.r[:, None, None] ** 2 * grid.cos_theta[None, :, None] ** 2
    exact = 4.0 * math.pi / 15.0  # (R^5/5) * (2 pi) * (2/3) with R = 1
    assert abs(integrate_ball(f, grid).real - exact) / exact < 1e-12


def test_quadrature_error_drops_fast_when_panels_double():
    # a non-polynomial radial factor probed with low-order panels
    exact_radial = (
        math.sin(3.0) / 3.0 + 2.0 * math.cos(3.0) / 9.0 - 2.0 * math.sin(3.0) / 27.0
    )
    exact = exact_radial * 4.0 * math.pi / 3.0

    def value(panels):
        g = BallGrid.build(1.0, n_panels=panels, order=2, n_theta=4, n_phi=4)
        f = np.cos(3.0 * g.r)[:, None, None] * g.cos_theta[None, :, None] ** 2
        return integrate_ball(f, g).real

    err2 = abs(value(2) - exact)
    err4 = abs(value(4) - exact)
    assert err2 >= 4.0 * err4


# ----- spherical harmonics -----------------------------------------------------------


def test_y00_is_constant():
    theta = np.linspace(0.1, 3.0, 7)
    values = spherical_harmonic(0, 0, theta, np.zeros_like(theta))
    assert values == pytest.approx(np.full(7, 0.5 / math.sqrt(math.pi)))


def test_y10_closed_form():
    theta = np.linspace(0.0, math.pi, 9)
    expected = math.sqrt(3.0 / (4.0 * math.pi)) * np.cos(theta)
    assert spherical_harmonic(1, 0, theta, np.zeros_like(theta)) == pytest.approx(
        expected
    )


def test_y10_normalization_by_quadrature(grid):
    y10 = spherical_harmonic(1, 0, grid.theta[:, None], grid.phi[None, :])
    norm = np.sum(
        np.abs(y10) ** 2 * grid.w_theta[:, None] * grid.w_phi[None, :]
    )
    assert norm == pytest.approx(1.0, abs=1e-13)


def test_y00_y10_angular_cross_term_vanishes(grid):
    y00 = spherical_harmonic(0, 0, grid.theta[:, None], grid.phi[None, :])
    y10 = spherical_harmonic(1, 0, grid.theta[:, None], grid.phi[None, :])
    cross = np.sum(
        np.conj(y00) * y10 * grid.w_theta[:, None] * grid.w_phi[None, :]
    )
    assert abs(cross) <= 1e-13


def test_gram_matrix_is_identity(grid):
    pairs = [(l, m) for l in range(3) for m in range(-l, l + 1)]
    harmonics = [
        spherical_harmonic(l, m, grid.theta[:, None], grid.phi[None, :])
        for l, m in pairs
    ]
    weights = grid.w_theta[:, None] * grid.w_phi[None, :]
    gram = np.array(
        [[np.sum(np.conj(a) * b * weights) for b in harmonics] for a in harmonics]
    )
    assert np.max(np.abs(gram - np.eye(len(pairs)))) < 1e-12


def test_negative_m_follows_conjugation_rule():
    theta, phi = 0.7, 1.3
    y_plus = spherical_harmonic(2, 1, theta, phi)
    y_minus = spherical_harmonic(2, -1, theta, phi)
    assert y_minus == pytest.approx(-np.conj(y_plus))


def test_harmonic_argument_validation():
    with pytest.raises(ValueError):
        spherical_harmonic(3, 0, 0.0, 0.0)
    with pytest.raises(ValueError):
        spherical_harmonic(2, 3, 0.0, 0.0)


# ----- spherical Bessel functions and the well ---------------------------------------


def test_bessel_closed_forms():
    x = np.array([0.3, 1.7, 4.0])
    assert spherical_bessel_j(0, x) == pytest.approx(np.sin(x) / x)
    assert spherical_bessel_j(1, x) == pytest.approx(
        np.sin(x) / x**2 - np.cos(x) / x
    )


def test_bessel_small_argument_stability():
    # leading series behaviour below the branch switchover
    x1 = np.array([1e-6, 1e-5, 1e-4])
    assert spherical_bessel_j(1, x1) == pytest.approx(x1 / 3.0, rel=1e-9)
    with pytest.raises(ValueError):
        spherical_bessel_j(2, 1.0)


def test_bisection_finds_cosine_root():
    root = bisect_root(math.cos, 1.0, 2.0)
    assert root == pytest.approx(math.pi / 2.0, abs=1e-12)
    with pytest.raises(ValueError):
        bisect_root(math.cos, 0.2, 1.0)


def test_s_mode_wavenumber_is_pi_over_R():
    for R in (1.0, 2.5):
        mode = solve_well_mode(0, R, mass=1.0)
        assert mode.k == pytest.approx(math.pi / R, abs=1e-11)


def test_p_mode_wavenumber_matches_tangent_oracle():
    # the first zero of j1 solves tan x = x; bracket it away from the
    # tangent pole and bisect the reformulation x*cos(x) - sin(x)
    oracle = bisect_root(lambda x: x * math.cos(x) - math.sin(x), 4.0, 5.5)
    mode = solve_well_mode(1, 1.0, mass=1.0)
    assert mode.k == pytest.approx(oracle, abs=1e-10)
    assert mode.k == pytest.approx(4.493409457909064, abs=1e-9)


def test_dispersion_relation():
    massless = solve_well_mode(0, 1.0, mass=0.0)
    assert massless.omega == pytest.approx(math.pi, abs=1e-11)
    massive = solve_well_mode(1, 1.0, mass=1.5)
    assert massive.omega == pytest.approx(math.hypot(massive.k, 1.5), abs=1e-12)


def test_modes_are_nodeless_and_vanish_at_wall():
    r = np.linspace(0.0, 1.0, 1001)[1:-1]
    for l in (0, 1):
        mode = solve_well_mode(l, 1.0, mass=1.0)
        assert np.all(mode.sample(r) > 0.0)
        assert abs(mode.sample(1.0)) < 1e-11


@pytest.mark.parametrize("l, bracket", [(0, (3.0, 3.5)), (1, (4.0, 5.0))])
@pytest.mark.parametrize("R, mass", [(1.0, 1.0), (0.37, 0.0), (2.9, 4.2)])
def test_well_mode_matches_scipy_bessel_oracle(l, bracket, R, mass):
    scipy_special = pytest.importorskip("scipy.special")
    scipy_optimize = pytest.importorskip("scipy.optimize")
    spherical_jn = scipy_special.spherical_jn
    zero = scipy_optimize.brentq(lambda x: spherical_jn(l, x), *bracket, xtol=1e-14)
    mode = solve_well_mode(l, R, mass)
    assert abs(mode.k * R - zero) <= 1e-11
    r = R * np.concatenate([[1e-9, 1e-6, 1e-3], np.linspace(0.0, 1.0, 2001)[1:]])
    assert np.max(np.abs(mode.sample(r) - spherical_jn(l, mode.k * r))) <= 1e-12


def test_mode_satisfies_radial_equation():
    # substitute into f'' + (2/r) f' + (k^2 - l(l+1)/r^2) f = 0 using
    # fourth-order central differences on a fine auxiliary grid
    h = 1e-3
    r = np.linspace(0.1, 0.9, 801)
    for l in (0, 1):
        mode = solve_well_mode(l, 1.0, mass=1.0)
        stencil = [mode.sample(r + s * h) for s in (-2, -1, 0, 1, 2)]
        f_m2, f_m1, f_0, f_p1, f_p2 = stencil
        d1 = (f_m2 - 8 * f_m1 + 8 * f_p1 - f_p2) / (12 * h)
        d2 = (-f_m2 + 16 * f_m1 - 30 * f_0 + 16 * f_p1 - f_p2) / (12 * h**2)
        residual = d2 + 2.0 / r * d1 + (mode.k**2 - l * (l + 1) / r**2) * f_0
        assert np.max(np.abs(residual)) < 1e-8


def test_well_mode_argument_validation():
    with pytest.raises(ValueError):
        solve_well_mode(2, 1.0, mass=1.0)
    with pytest.raises(ValueError):
        solve_well_mode(0, -1.0, mass=1.0)
    with pytest.raises(ValueError):
        solve_well_mode(0, 1.0, mass=-0.5)


# ----- divergence residual ------------------------------------------------------------


def test_static_uniform_current_has_zero_residual():
    rho = np.ones((4, 4, 4, 4))
    j = np.zeros((3, 4, 4, 4, 4))
    assert divergence_residual(rho, j, (0.1, 0.1, 0.1, 0.1)) == 0.0


def test_linear_conserved_current_is_exact_for_central_differences():
    # rho = t, j = (-x, 0, 0): d0 rho + div j = 1 - 1 = 0, and central
    # differences are exact on affine data
    t = np.arange(5) * 0.3
    x = np.arange(6) * 0.2
    tt, xx, _yy, _zz = np.meshgrid(t, x, x, x, indexing="ij")
    rho = tt
    j = np.zeros((3,) + rho.shape)
    j[0] = -xx
    residual = divergence_residual(rho, j, (0.3, 0.2, 0.2, 0.2))
    assert residual < 1e-13


def _hand_stencil_residual(rho, j, spacings):
    """The explicit central-difference stencil, trimmed to the interior."""

    def central(f, axis, h):
        upper = np.take(f, range(2, f.shape[axis]), axis=axis)
        lower = np.take(f, range(0, f.shape[axis] - 2), axis=axis)
        return (upper - lower) / (2.0 * h)

    def crop(f, axis):
        # central() already trimmed `axis`; trim the other three
        slices = [slice(1, -1)] * 4
        slices[axis] = slice(None)
        return f[tuple(slices)]

    total = crop(central(rho, 0, spacings[0]), 0)
    for axis in (1, 2, 3):
        total = total + crop(central(j[axis - 1], axis, spacings[axis]), axis)
    return float(np.max(np.abs(total)))


def test_divergence_residual_equals_hand_stencil_bit_for_bit():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        shape = tuple(rng.integers(3, 8, size=4))
        rho = rng.standard_normal(shape)
        j = rng.standard_normal((3,) + shape)
        spacings = tuple(rng.uniform(0.01, 1.0, size=4))
        expected = _hand_stencil_residual(rho, j, spacings)
        assert divergence_residual(rho, j, spacings) == expected


def test_divergence_residual_validation():
    rho = np.ones((2, 4, 4, 4))
    j = np.zeros((3, 2, 4, 4, 4))
    with pytest.raises(ValueError):
        divergence_residual(rho, j, (0.1, 0.1, 0.1, 0.1))
    with pytest.raises(ValueError):
        divergence_residual(np.ones((4, 4, 4, 4)), j, (0.1,) * 4)
    with pytest.raises(ValueError):
        divergence_residual(np.ones((4, 4, 4, 4)), np.zeros((3, 4, 4, 4, 4)), (0.1,))
