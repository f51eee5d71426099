import math
from fractions import Fraction

import numpy as np
import pytest

from qdensity import numerics
from qdensity.fieldops import FourCurrent
from qdensity.numerics import (
    BallGrid,
    composite_gauss_legendre,
    divergence_residual_of_slices,
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


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16, 32, 64, 128, 512, 1024])
def test_weights_sum_to_interval_length(n):
    _nodes, weights = gauss_legendre(n)
    assert np.sum(weights) == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_polynomial_exactness_up_to_degree(n):
    nodes, weights = gauss_legendre(n)
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert np.sum(weights * nodes**k) == pytest.approx(exact, abs=1e-13)


@pytest.mark.parametrize("n", [True, False, 2.0, 8.5, "8", None, 8.0])
def test_non_integer_order_rejected_with_its_type(n):
    # also when an equal order is cached: True == np.int64(1) and
    # 8.0 == np.int64(8) with equal hashes, so the checks precede the lookup
    for order in (1, 8, np.int64(1), np.int64(8)):
        gauss_legendre(order)
    with pytest.raises(TypeError, match=f"got {type(n).__name__}$"):
        gauss_legendre(n)


def test_numpy_integer_order_accepted():
    # and served from the same cache entry: each order is built once
    for got, want in zip(gauss_legendre(np.int64(8)), gauss_legendre(8)):
        assert got is want


def test_the_shared_rule_is_read_only():
    nodes, weights = gauss_legendre(8)
    for array in (nodes, weights, BallGrid.build(1.0).cos_theta):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


@pytest.mark.parametrize("n", [1, 8, 32, 1024])
def test_the_cached_rule_equals_a_fresh_build(n):
    fresh = numerics._gauss_legendre.__wrapped__(n)
    for got, want in zip(gauss_legendre(n), fresh):
        assert got is not want
        assert got.tobytes() == want.tobytes()


def _max_errors(rule, nodes, weights):
    """Largest absolute node error and relative weight error of a double
    rule against exact rationals for its first len(nodes) nodes."""
    x, w = rule
    node_error = max(abs(Fraction(float(a)) - b) for a, b in zip(x, nodes))
    weight_error = max(abs(Fraction(float(a)) - b) / b for a, b in zip(w, weights))
    return float(node_error), float(weight_error)


def _mpmath_reference(n):
    """Nodes and weights of order n to 30 digits, as exact rationals: Newton
    on the three-term recurrence from cos(pi (i - 1/4) / (n + 1/2))."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        nodes, weights = [], []
        for i in range(n, 0, -1):  # ascending
            x = mpmath.cos(mpmath.pi * (i - 0.25) / (n + 0.5))
            for _ in range(60):
                p0, p1 = mpmath.mpf(1), x
                for m in range(2, n + 1):
                    p0, p1 = p1, ((2 * m - 1) * x * p1 - (m - 1) * p0) / m
                dp = n * (p0 - x * p1) / (1 - x * x)
                step = p1 / dp
                x -= step
                if abs(step) < mpmath.mpf(10) ** -29:
                    break
            nodes.append(Fraction(mpmath.nstr(x, 30)))
            weights.append(Fraction(mpmath.nstr(2 / ((1 - x * x) * dp * dp), 30)))
    return nodes, weights


# fixed point with 120 binary digits after the point, in Python integers
_FIX = 120


def _fixed_point_pair(x, n):
    """P_{n-1} and P_n at fixed-point nodes (an object array of ints)."""
    p0, p1 = np.full(len(x), 1 << _FIX, dtype=object), x
    for m in range(2, n + 1):
        p0, p1 = p1, ((2 * m - 1) * (x * p1 >> _FIX) - (m - 1) * p0) // m
    return p0, p1


def _extended_reference(n):
    """The lower half of the nodes and weights of order n, as exact rationals:
    scipy's nodes, which are within a few 1e-16 but whose weights are off by
    up to 2e-9 at order 1,024, polished by two Newton steps in 120-bit fixed
    point, so that both are good to about 1e-30."""
    roots_legendre = pytest.importorskip("scipy.special").roots_legendre
    one = 1 << _FIX
    x = np.array(
        [int(Fraction(v) * one) for v in roots_legendre(n)[0][: (n + 1) // 2]],
        dtype=object,
    )
    for newton in (True, True, False):
        p0, p1 = _fixed_point_pair(x, n)
        one_minus_x2 = one - (x * x >> _FIX)
        dp = (n * (p0 - (x * p1 >> _FIX)) << _FIX) // one_minus_x2
        if newton:
            x = x - (p1 << _FIX) // dp
    nodes = [Fraction(int(v), one) for v in x]
    weights = [
        Fraction(2 * one**3, int(s) * int(d) ** 2) for s, d in zip(one_minus_x2, dp)
    ]
    return nodes, weights


def _assert_matches_reference(n, nodes, weights):
    """Nodes within 1e-16 and weights no less accurate than numpy's leggauss,
    which calibrates the bound, or within 1e-15 relative."""
    node_error, weight_error = _max_errors(gauss_legendre(n), nodes, weights)
    _, leggauss_error = _max_errors(np.polynomial.legendre.leggauss(n), nodes, weights)
    assert node_error <= 1e-16
    assert weight_error <= max(leggauss_error, 1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 16, 21, 32, 64])
def test_rule_matches_mpmath_reference(n):
    _assert_matches_reference(n, *_mpmath_reference(n))


@pytest.mark.parametrize("n", [128, 512, 1024])
def test_high_order_rule_matches_extended_precision_reference(n):
    _assert_matches_reference(n, *_extended_reference(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 15, 16, 32, 33, 128, 512, 1024])
def test_rule_is_exactly_symmetric_and_ascending(n):
    nodes, weights = gauss_legendre(n)
    assert nodes.shape == weights.shape == (n,)
    assert nodes.dtype == weights.dtype == np.float64
    assert np.array_equal(nodes, -nodes[::-1])
    assert np.array_equal(weights, weights[::-1])
    assert np.all(np.diff(nodes) > 0.0)
    assert np.all((-1.0 < nodes) & (nodes < 1.0)) and np.all(weights > 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 16, 31, 64])
def test_legendre_polynomials_are_orthogonal_under_the_rule(n):
    # sum w P_i P_j = 2/(2i+1) delta_ij whenever P_i P_j has degree <= 2n - 1
    nodes, weights = gauss_legendre(n)
    vander = np.polynomial.legendre.legvander(nodes, 2 * n - 1)
    gram = (vander.T * weights) @ vander
    i, j = np.indices(gram.shape)
    exact = np.where(i == j, 2.0 / (2 * i + 1), 0.0)
    assert np.abs(gram - exact)[i + j <= 2 * n - 1].max() <= 1e-14


def test_invalid_order_rejected():
    # gauss_legendre makes the order check; the grid builder relies on it
    with pytest.raises(ValueError, match="order must be >= 1, got 0"):
        gauss_legendre(0)
    with pytest.raises(ValueError, match="got -3"):
        gauss_legendre(-3)
    with pytest.raises(ValueError):
        BallGrid.build(1.0, n_theta=0)
    with pytest.raises(ValueError):
        BallGrid.build(1.0, order=0)
    with pytest.raises(ValueError):
        composite_gauss_legendre(0.0, 1.0, panels=0, order=4)
    with pytest.raises(ValueError, match="azimuth"):
        BallGrid.build(1.0, n_phi=0)
    with pytest.raises(ValueError, match="^well radius must be positive, got 0.0$"):
        BallGrid.build(0.0)


def test_composite_rule_covers_interval():
    nodes, weights = composite_gauss_legendre(0.0, 2.0, panels=4, order=3)
    assert np.sum(weights) == pytest.approx(2.0, abs=1e-14)
    assert np.all((nodes > 0.0) & (nodes < 2.0))


def _composite_rule_panel_by_panel(a, b, panels, order):
    """The composite rule formed one panel at a time: the loop form that the
    broadcast must match bit for bit."""
    base_x, base_w = gauss_legendre(order)
    edges = np.linspace(a, b, panels + 1)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half = 0.5 * (hi - lo)
        nodes.append(half * base_x + 0.5 * (hi + lo))
        weights.append(half * base_w)
    return np.concatenate(nodes), np.concatenate(weights)


@pytest.mark.parametrize("order", [1, 3, 8])
@pytest.mark.parametrize("panels", [1, 2, 16, 32])
@pytest.mark.parametrize(
    "a, b", [(0, 1), (0, 0.5123), (0, 1.9999), (-1, 3), (2.5, 7.25)]
)
def test_composite_rule_equals_panel_by_panel_form_bit_for_bit(a, b, panels, order):
    got = composite_gauss_legendre(a, b, panels, order)
    want = _composite_rule_panel_by_panel(a, b, panels, order)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (panels * order,)
        assert g.tobytes() == w.tobytes()


# ----- ball grid and integration ----------------------------------------------------


def test_ball_weights_sum_to_volume(grid):
    volume = 4.0 / 3.0 * math.pi * grid.R**3
    total = grid.volume_weights().sum()
    assert abs(total - volume) / volume < 1e-12


def test_volume_weights_are_the_outer_product_of_the_axis_weights():
    grid = BallGrid.build(1.0, n_panels=2, order=2, n_theta=3, n_phi=2)
    radial = grid.w_r * grid.r**2
    product = (
        radial[:, None, None] * grid.w_theta[None, :, None] * grid.w_phi[None, None, :]
    )
    assert np.array_equal(grid.volume_weights(), product)


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
    with pytest.raises(ValueError, match="^l and m must be integers$"):
        spherical_harmonic(1.0, 0, 0.0, 0.0)


# ----- spherical Bessel functions and the well ---------------------------------------


def test_bessel_closed_forms():
    x = np.array([0.3, 1.7, 4.0])
    assert spherical_bessel_j(0, x) == pytest.approx(np.sin(x) / x)
    assert spherical_bessel_j(1, x) == pytest.approx(
        np.sin(x) / x**2 - np.cos(x) / x
    )


def _exact_bessel_j(l, x, terms=8):
    """j_l(x) = x^l sum_n (-x^2/2)^n / (n! (2n+2l+1)!!) in exact rationals,
    rounded once to a double; for x <= 1e-3 the terms left out lie far
    below 1 ulp, and with 30 terms they do for x <= 3."""
    x = Fraction(x)
    total, term = Fraction(0), x**l / math.prod(range(1, 2 * l + 2, 2))
    for n in range(terms):
        total += term
        term *= -(x**2) / (2 * (n + 1) * (2 * n + 2 * l + 3))
    return float(total)


def test_bessel_small_argument_stability():
    # leading series behaviour below the branch switchover
    x1 = np.array([1e-6, 1e-5, 1e-4])
    assert spherical_bessel_j(1, x1) == pytest.approx(x1 / 3.0, rel=1e-9)
    # just below each switch the series must be correct to the last ulp:
    # a wrong x^2 coefficient in j_0 or a dropped x^5 term in j_1 shows here
    for l, x in [(0, 9.99e-7), (0, 5e-7), (1, 9.99e-4), (1, 5e-4)]:
        exact = _exact_bessel_j(l, x)
        assert abs(float(spherical_bessel_j(l, x)) - exact) <= math.ulp(exact)
    # j_1's closed form sin/x^2 - cos/x cancels: 1.4e6 ulp off at 1.001e-3,
    # 2.5e4 ulp at 2.79e-3 (the fine grid's smallest kr at the defaults)
    # and 235 ulp at 0.1; within 4 ulp on both sides of the switch at 1
    below_one = math.nextafter(1.0, 0.0)
    for x in [1.001e-3, 2.79e-3, 0.1, 0.55, 0.75, below_one, 1.0, 2.0, 3.0]:
        exact = _exact_bessel_j(1, x, terms=30)
        assert abs(float(spherical_bessel_j(1, x)) - exact) <= 4 * math.ulp(exact)
    with pytest.raises(ValueError):
        spherical_bessel_j(2, 1.0)


def test_s_mode_wavenumber_is_pi_over_R():
    for R in (1.0, 2.5):
        mode = solve_well_mode(0, R, mass=1.0)
        assert mode.k == pytest.approx(math.pi / R, abs=1e-11)


def test_p_mode_wavenumber_matches_tangent_oracle():
    # the first zero of j1 solves tan x = x; bracket it away from the
    # tangent pole and bisect the reformulation x*cos(x) - sin(x)
    lo, hi = 4.0, 5.5
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        below = mid * math.cos(mid) - math.sin(mid) < 0
        lo, hi = (mid, hi) if below else (lo, mid)
    mode = solve_well_mode(1, 1.0, mass=1.0)
    assert mode.k == pytest.approx(0.5 * (lo + hi), abs=1e-12)
    assert mode.k == pytest.approx(4.493409457909064, abs=1e-9)


def test_tabulated_zeros_are_the_correctly_rounded_roots():
    assert numerics._FIRST_ZERO[0] == math.pi
    scipy_special = pytest.importorskip("scipy.special")
    scipy_optimize = pytest.importorskip("scipy.optimize")
    root = scipy_optimize.brentq(
        lambda x: scipy_special.spherical_jn(1, x), 3.5, 6.0, xtol=1e-15
    )
    assert numerics._FIRST_ZERO[1] == root


@pytest.mark.parametrize("R", [1.0, 0.37, 2.0, 2.9, 1e-20, 1e20])
@pytest.mark.parametrize("l", [0, 1])
def test_well_wavenumber_is_the_tabulated_zero_over_R(l, R):
    assert solve_well_mode(l, R, mass=1.0).k == numerics._FIRST_ZERO[l] / R


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


def divergence_residual(rho, j, spacings):
    """The 4D residual through its one path: a scalar current, whose density
    may take either sign, fed to the slice kernel by FourCurrent."""
    return FourCurrent(rho, j, "kg", spacings).divergence_residual()


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


def gradient_residual(rho, j, spacings):
    """Oracle: the former residual, np.gradient over the whole stencil and
    then the interior."""
    total = np.gradient(np.asarray(rho), spacings[0], axis=0)
    for axis in (1, 2, 3):
        total = total + np.gradient(np.asarray(j)[axis - 1], spacings[axis], axis=axis)
    return float(np.max(np.abs(total[1:-1, 1:-1, 1:-1, 1:-1])))


def _stencil_samples(kind, rng, shape):
    rho, j = rng.standard_normal(shape), rng.standard_normal((3,) + shape)
    if kind == "int64":
        # an in-place /= on an integer difference would raise
        return (1000 * rho).astype(np.int64), (1000 * j).astype(np.int64)
    if kind == "float32":
        return rho.astype(np.float32), j.astype(np.float32)
    if kind == "float32-rho":
        return rho.astype(np.float32), j
    if kind == "float32-j":
        return rho, j.astype(np.float32)
    if kind == "reversed":
        return rho[::-1, :, ::-1], j[:, ::-1]
    return rho, j


@pytest.mark.parametrize(
    "kind", ["float64", "int64", "float32", "float32-rho", "float32-j", "reversed"]
)
@pytest.mark.parametrize(
    "spacings",
    [(0.1, 0.2, 0.2, 0.2), (1, 2, 1, 3), tuple(np.float32(h) for h in (0.1, 0.3, 0.2, 0.7))],
    ids=["float", "int", "float32"],
)
def test_divergence_residual_equals_gradient_form_on_any_samples(kind, spacings):
    rng = np.random.default_rng(17)
    rho, j = _stencil_samples(kind, rng, (5, 6, 4, 7))
    got = divergence_residual(rho, j, spacings)
    if kind.startswith("float32"):  # slices are read as float64
        rho, j = rho.astype(np.float64), j.astype(np.float64)
    assert got == gradient_residual(rho, j, spacings)


def test_divergence_residual_validation():
    # FourCurrent checks the rank and the flux shape, without which zip would
    # drop time slices; the spacings and sizes are the slice kernel's checks
    rho = np.ones((2, 4, 4, 4))
    j = np.zeros((3, 2, 4, 4, 4))
    with pytest.raises(ValueError, match="no grid spacings"):
        divergence_residual(np.ones((4, 4, 4, 4)), np.zeros((3, 4, 4, 4, 4)), None)
    with pytest.raises(ValueError, match="at least 3 slices"):
        divergence_residual(rho, j, (0.1, 0.1, 0.1, 0.1))
    with pytest.raises(ValueError, match="does not match"):
        divergence_residual(np.ones((4, 4, 4, 4)), j, (0.1,) * 4)
    with pytest.raises(ValueError, match="4D"):
        divergence_residual(np.ones((4, 4, 4)), np.zeros((3, 4, 4, 4)), (0.1,) * 4)
    with pytest.raises(ValueError, match=r"spacings must give \(dt, dx, dy, dz\)"):
        divergence_residual(np.ones((4, 4, 4, 4)), np.zeros((3, 4, 4, 4, 4)), (0.1,))
    for spatial in ((2, 4, 4), (4, 2, 4), (4, 4, 2)):
        with pytest.raises(ValueError, match="too small for central differences"):
            divergence_residual(
                np.ones((4,) + spatial), np.zeros((3, 4) + spatial), (0.1,) * 4
            )


def _slices(nt, shape=(4, 4, 4), j_shape=None, at=1):
    """nt (rho_t, j_t) slices of a static uniform current; slice ``at`` gets
    a flux of shape ``j_shape``."""
    slices = [(np.ones(shape), np.zeros((3,) + shape)) for _ in range(nt)]
    if j_shape is not None:
        slices[at] = (slices[at][0], np.zeros(j_shape))
    return slices


def test_slice_residual_of_a_static_uniform_current_is_zero():
    assert divergence_residual_of_slices(iter(_slices(3)), (0.1,) * 4) == 0.0


@pytest.mark.parametrize("nt", [0, 1, 2])
def test_slice_residual_needs_three_slices(nt):
    with pytest.raises(ValueError, match="at least 3 slices"):
        divergence_residual_of_slices(iter(_slices(nt)), (0.1,) * 4)


@pytest.mark.parametrize(
    "shape", [(2, 4, 4), (4, 2, 4), (4, 4, 2), (4, 4), (4, 4, 4, 4)]
)
def test_slice_residual_needs_a_3d_slice_of_three_points_per_axis(shape):
    with pytest.raises(ValueError, match="too small"):
        divergence_residual_of_slices(iter(_slices(3, shape)), (0.1,) * 4)


@pytest.mark.parametrize("at", [0, 1, 2])
@pytest.mark.parametrize(
    "j_shape", [(3, 4, 4, 5), (2, 4, 4, 4), (4, 4, 4), (3, 1, 4, 4, 4)]
)
def test_slice_residual_rejects_a_flux_of_another_shape(j_shape, at):
    slices = _slices(3, j_shape=j_shape, at=at)
    with pytest.raises(ValueError, match="does not match"):
        divergence_residual_of_slices(iter(slices), (0.1,) * 4)


@pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
@pytest.mark.parametrize("part", ["rho", "j"])
def test_slice_residual_refuses_a_complex_slice(part, dtype):
    # the float64 cast would drop the imaginary part
    slices = _slices(3)
    rho, j = slices[1]
    slices[1] = (rho.astype(dtype), j) if part == "rho" else (rho, j.astype(dtype))
    with pytest.raises(TypeError, match=f"must be real, got {np.dtype(dtype)}$"):
        divergence_residual_of_slices(iter(slices), (0.1,) * 4)


def test_slice_residual_rejects_slices_of_differing_shapes():
    slices = _slices(3) + _slices(1, (4, 4, 5))
    with pytest.raises(ValueError, match="does not match"):
        divergence_residual_of_slices(iter(slices), (0.1,) * 4)
    with pytest.raises(ValueError, match="spacings"):
        divergence_residual_of_slices(iter(_slices(3)), (0.1,) * 3)


@pytest.mark.parametrize("t0", range(5))
@pytest.mark.parametrize("field", ["rho", "j_x", "j_y", "j_z"])
def test_slice_residual_sees_an_impulse_in_every_slice(field, t0):
    # a unit impulse at the centre of slice t0 of a 5-slice, 5^3 stencil: in
    # rho it shows at t0 - 1 and t0 + 1 as 1/(2 dt), in j_k at t0 itself as
    # 1/(2 h_k), where those slices are interior
    spacings = (0.25, 0.5, 0.125, 0.0625)
    rho, j = np.zeros((5, 5, 5, 5)), np.zeros((3, 5, 5, 5, 5))
    axis = ["rho", "j_x", "j_y", "j_z"].index(field)
    (rho if axis == 0 else j[axis - 1])[t0, 2, 2, 2] = 1.0
    seen = axis == 0 or 1 <= t0 <= 3
    expected = 1.0 / (2.0 * spacings[axis]) if seen else 0.0
    assert divergence_residual(rho, j, spacings) == expected
