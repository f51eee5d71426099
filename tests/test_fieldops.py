import math

import numpy as np
import pytest

from qdensity.fieldops import (
    FourCurrent,
    KGPlaneWave,
    SpinorPlaneWave,
    dirac_current,
    dirac_hamiltonian_apply,
    kg_current,
    kg_hamiltonian_density,
)

MASS = 1.0
METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

# Oracle: the 4x4 Dirac matrices, Dirac representation, written out here
# from Pauli matrices of their own so that they share nothing with the
# 2-spinor block kernels under test.
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)
EYE2 = np.eye(2, dtype=np.complex128)
ZERO2 = np.zeros((2, 2), dtype=np.complex128)
#: gamma^0..gamma^3
GAMMAS = (
    np.block([[EYE2, ZERO2], [ZERO2, -EYE2]]),
    *(np.block([[ZERO2, sigma], [-sigma, ZERO2]]) for sigma in PAULI),
)
BETA = GAMMAS[0]
#: alpha_k = gamma^0 gamma^k for k = 1, 2, 3
ALPHAS = tuple(np.block([[ZERO2, sigma], [sigma, ZERO2]]) for sigma in PAULI)


def spatial_axes(n, h):
    axes = [np.arange(n) * h] * 3
    return np.meshgrid(*axes, indexing="ij")


def field_equation_residual(wave):
    """Max-norm of (gamma^mu p_mu - m) u, zero for a valid spinor."""
    slash = wave.energy * GAMMAS[0] - sum(
        wave.p[k - 1] * GAMMAS[k] for k in (1, 2, 3)
    )
    return float(np.max(np.abs(slash @ wave.u - wave.mass * wave.u)))


def dispersion_residual(wave, mass):
    return abs(wave.omega**2 - (float(wave.k @ wave.k) + mass**2))


def four_axes(nt, dt, n, h, sparse=False):
    t = np.arange(nt) * dt
    x = np.arange(n) * h
    tt, xx, yy, zz = np.meshgrid(t, x, x, x, indexing="ij", sparse=sparse)
    return tt, (xx, yy, zz)


def summed_phase_sample(wave, x, t):
    """Oracle: the former sampling, one complex exp of the summed phase
    k.x - omega t at every point, and the wave's amplitude."""
    spinor = isinstance(wave, SpinorPlaneWave)
    omega, k = (wave.energy, wave.p) if spinor else (wave.omega, wave.k)
    phase = -omega * np.asarray(t)
    for j in range(3):
        phase = phase + k[j] * np.asarray(x[j])
    plane = np.exp(1j * phase)
    if spinor:
        return wave.u.reshape((4,) + (1,) * plane.ndim) * plane, np.max(np.abs(wave.u))
    return wave.N * plane, abs(wave.N)


def stacked_dirac_current(psi):
    """Oracle: the former spinor current, rho from np.sum and j stacked from
    the complex block products, each with its own conj."""
    psi = np.asarray(psi, dtype=np.complex128)
    rho = np.sum(np.abs(psi) ** 2, axis=0)
    up, lo = np.conj(psi[:2]), psi[2:]
    a, b, c = up[0] * lo[1], up[1] * lo[0], up[0] * lo[0] - up[1] * lo[1]
    return rho, 2.0 * np.stack([(a + b).real, (a - b).imag, c.real])


def out_of_place_kg_current(phi, phi_t, grad_phi, V=None, e=0.0):
    """Oracle: the former scalar current, every bracket a fresh array."""
    phi = np.asarray(phi, dtype=np.complex128)
    phi_t = np.asarray(phi_t, dtype=np.complex128)
    grad_phi = np.asarray(grad_phi)
    rho = np.real(1j * (np.conj(phi) * phi_t - np.conj(phi_t) * phi))
    if V is not None:
        rho = rho - 2.0 * e * np.asarray(V) * np.abs(phi) ** 2
    j = np.empty((3,) + phi.shape, dtype=float)
    for k in range(3):
        j[k] = np.real(
            1j * (np.conj(grad_phi[k]) * phi - np.conj(phi) * grad_phi[k])
        )
    return rho, j


def squared_parts_dirac_current(psi):
    """Oracle: the spinor current in the kernel's order, out of place: rho the
    left-to-right sum over components of Re^2 + Im^2, j the stacked form."""
    psi = np.asarray(psi, dtype=np.complex128)
    rho = 0.0
    for component in psi:
        rho = rho + component.real**2 + component.imag**2
    return rho, stacked_dirac_current(psi)[1]


def imaginary_part_kg_current(phi, phi_t, grad_phi, V=None, e=0.0):
    """Oracle: the scalar current as one complex product per term, out of
    place: rho = -2 Im(phi* d0 phi) - (Re^2 + Im^2) 2eV, j_k = 2 Im(phi* dk phi)."""
    phi = np.asarray(phi, dtype=np.complex128)
    phi_t = np.asarray(phi_t, dtype=np.complex128)
    grad_phi = np.asarray(grad_phi)
    rho = -2.0 * (np.conj(phi) * phi_t).imag
    if V is not None:
        rho = rho - (phi.real**2 + phi.imag**2) * (2.0 * e * np.asarray(V))
    j = np.empty((3,) + phi.shape, dtype=float)
    for k in range(3):
        j[k] = 2.0 * (np.conj(phi) * grad_phi[k]).imag
    return rho, j


def same_bits(actual, expected):
    """Equal shape, dtype and bytes: stricter than ==, it sees signed zeros."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    return (
        actual.shape == expected.shape
        and actual.dtype == expected.dtype
        and actual.tobytes() == expected.tobytes()
    )


def einsum_current_j(psi):
    """Oracle: the former spinor current, psi^dag alpha_k psi by einsum."""
    return np.stack([
        np.real(np.einsum("a...,ab,b...->...", np.conj(psi), alpha, psi))
        for alpha in ALPHAS
    ])


def einsum_hamiltonian_apply(psi, spacings, mass, e=0.0, V=None):
    """Oracle: H with each 4x4 matrix applied by einsum, in the kernel's
    order of summation (x, y, z, mass, then eV)."""
    out = np.zeros_like(psi)
    for k, alpha in enumerate(ALPHAS):
        shifted = np.roll(psi, -1, axis=k + 1) - np.roll(psi, 1, axis=k + 1)
        kinetic = -1j * (shifted / (2.0 * spacings[k]))
        out += np.einsum("ab,b...->a...", alpha, kinetic)
    out += np.einsum("ab,b...->a...", mass * BETA, psi)
    if V is not None:
        out += e * np.asarray(V) * psi
    return out


# ----- gamma matrices --------------------------------------------------------------


def test_anticommutation_relations_exact():
    for mu in range(4):
        for nu in range(4):
            anti = GAMMAS[mu] @ GAMMAS[nu] + GAMMAS[nu] @ GAMMAS[mu]
            expected = 2.0 * METRIC[mu, nu] * np.eye(4)
            assert np.array_equal(anti, expected)


def test_hermiticity_structure():
    assert np.array_equal(GAMMAS[0].conj().T, GAMMAS[0])
    for k in (1, 2, 3):
        assert np.array_equal(GAMMAS[k].conj().T, -GAMMAS[k])
        alpha = ALPHAS[k - 1]
        assert np.array_equal(alpha, GAMMAS[0] @ GAMMAS[k])
        assert np.array_equal(alpha.conj().T, alpha)


# ----- plane-wave spinors ------------------------------------------------------------


@pytest.mark.parametrize("p", [(0.0, 0.0, 0.0), (0.4, -0.7, 1.1)])
@pytest.mark.parametrize("s", [1, 2])
def test_spinor_normalization_and_field_equation(p, s):
    wave = SpinorPlaneWave.build(p, MASS, s)
    ubar_u = np.conj(wave.u) @ GAMMAS[0] @ wave.u
    assert ubar_u.real == pytest.approx(2.0 * MASS, abs=1e-12)
    assert abs(ubar_u.imag) < 1e-14
    u_dag_u = np.vdot(wave.u, wave.u).real
    assert u_dag_u == pytest.approx(2.0 * wave.energy, abs=1e-12)
    assert field_equation_residual(wave) < 1e-12


def test_spinor_argument_validation():
    with pytest.raises(ValueError):
        SpinorPlaneWave.build((0, 0, 0), MASS, s=3)
    with pytest.raises(ValueError):
        SpinorPlaneWave.build((0, 0), MASS)
    with pytest.raises(ValueError):
        SpinorPlaneWave.build((0, 0, 0), 0.0)


def test_rest_frame_current_by_direct_multiplication():
    wave = SpinorPlaneWave.build((0.0, 0.0, 0.0), MASS)
    psi = wave.u.reshape(4, 1, 1, 1, 1)
    current = dirac_current(psi)
    # oracle: explicit matrix products, no einsum
    rho_direct = float((np.conj(wave.u) @ wave.u).real)
    assert current.rho.flat[0] == pytest.approx(rho_direct, abs=1e-14)
    assert current.rho.flat[0] == pytest.approx(2.0 * MASS, abs=1e-12)
    for k in (1, 2, 3):
        j_direct = (np.conj(wave.u) @ ALPHAS[k - 1] @ wave.u).real
        assert j_direct == pytest.approx(0.0, abs=1e-14)
        assert current.j[k - 1].flat[0] == pytest.approx(0.0, abs=1e-14)


def test_boosted_current_is_twice_four_momentum():
    p = np.array([0.6, -0.2, 0.9])
    wave = SpinorPlaneWave.build(p, MASS)
    tt, xyz = four_axes(3, 0.1, 3, 0.2)
    current = dirac_current(wave.sample(xyz, tt))
    assert np.max(np.abs(current.rho - 2.0 * wave.energy)) < 1e-12
    for k in range(3):
        assert np.max(np.abs(current.j[k] - 2.0 * p[k])) < 1e-12


SAMPLED_WAVES = {
    "spinor-s1": SpinorPlaneWave.build((0.7, -0.3, 0.4), MASS),
    "spinor-s2": SpinorPlaneWave.build((-0.4, 1.1, 0.6), MASS, s=2),
    "kg-single": KGPlaneWave.free(0.8 + 0.3j, (0.6, 0.2, -0.5), MASS),
    "kg-pair": KGPlaneWave.free(0.5 - 0.2j, (-0.3, 0.9, 1.0), MASS),
}


@pytest.mark.parametrize("name", sorted(SAMPLED_WAVES))
@pytest.mark.parametrize("nt, dt, n, h", [(6, 0.1, 8, 0.2), (13, 0.1, 21, 0.1)])
def test_separable_sample_matches_summed_phase(name, nt, dt, n, h):
    wave = SAMPLED_WAVES[name]
    tt, xyz = four_axes(nt, dt, n, h, sparse=True)
    sample = wave.sample(xyz, tt)
    dense_tt, dense_xyz = four_axes(nt, dt, n, h)
    assert np.array_equal(sample, wave.sample(dense_xyz, dense_tt))
    oracle, amplitude = summed_phase_sample(wave, dense_xyz, dense_tt)
    assert sample.shape == oracle.shape
    assert np.max(np.abs(sample - oracle)) <= 1e-15 * amplitude


@pytest.mark.parametrize("name", sorted(SAMPLED_WAVES))
def test_separable_sample_at_one_time(name):
    wave = SAMPLED_WAVES[name]
    h = 2.0 * math.pi / 16
    axes = [np.arange(16) * h] * 3
    sample = wave.sample(np.meshgrid(*axes, indexing="ij", sparse=True), 0.0)
    dense = spatial_axes(16, h)
    assert np.array_equal(sample, wave.sample(dense, 0.0))
    oracle, amplitude = summed_phase_sample(wave, dense, 0.0)
    # phases reach ~14 on this box, and the oracle's summed phase rounds
    # in proportion to its size
    k = wave.p if isinstance(wave, SpinorPlaneWave) else wave.k
    max_phase = 2.0 * math.pi * float(np.sum(np.abs(k)))
    assert np.max(np.abs(sample - oracle)) <= 1e-15 * amplitude * max_phase


@pytest.mark.parametrize("shape", [(4,), (4, 5), (4, 3, 4, 5, 6)])
def test_pauli_block_current_matches_einsum(shape):
    rng = np.random.default_rng(len(shape))
    psi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    current = dirac_current(psi)
    assert current.j.shape == (3,) + shape[1:]
    assert current.j.dtype == np.float64
    bound = 1e-15 * np.max(np.abs(psi) ** 2)
    assert np.max(np.abs(current.j - einsum_current_j(psi))) <= bound


CURRENT_SHAPES = [(), (5,), (3, 4, 5, 6)]
MAGNITUDES = [1e-20, 1e-7, 1.0, 1e7, 1e20]


def random_complex(rng, shape, scale):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


#: how far the kernels may sit from their former forms, in units of eps
#: times the size of the terms; the largest seen over these shapes and
#: magnitudes and 200,000 more samples was 4.1 (Dirac rho), 2.0 (KG j) and
#: 3.8 (KG rho): np.abs rounds the root that its square then doubles, and the
#: former KG form rounded two complex products where one is taken now
FORMER_FORM_ULPS = 8


@pytest.mark.parametrize("shape", CURRENT_SHAPES)
@pytest.mark.parametrize("scale", MAGNITUDES)
def test_dirac_current_is_the_stacked_form_bit_for_bit(shape, scale):
    rng = np.random.default_rng(len(shape))
    psi = random_complex(rng, (4,) + shape, scale)
    for spinor in (psi, psi[..., ::-1]):
        current = dirac_current(spinor)
        rho, j = squared_parts_dirac_current(spinor)
        assert np.array_equal(current.rho, rho) and same_bits(current.rho, rho)
        assert np.array_equal(current.j, j) and same_bits(current.j, j)
        former_rho = stacked_dirac_current(spinor)[0]
        bound = FORMER_FORM_ULPS * np.finfo(float).eps * former_rho
        assert np.all(np.abs(current.rho - former_rho) <= bound)


@pytest.mark.parametrize("shape", CURRENT_SHAPES)
@pytest.mark.parametrize("scale", MAGNITUDES)
@pytest.mark.parametrize("with_potential", [False, True])
def test_kg_current_is_the_out_of_place_form_bit_for_bit(shape, scale, with_potential):
    rng = np.random.default_rng(len(shape))
    phi, phi_t = random_complex(rng, shape, scale), random_complex(rng, shape, scale)
    grad = random_complex(rng, (3,) + shape, scale)
    potential = {"V": rng.standard_normal(shape), "e": 0.7} if with_potential else {}
    # real samples too: conj(phi) * grad must promote to complex
    for samples in ((phi, phi_t, grad), (phi.real, phi_t.real, grad.real)):
        current = kg_current(*samples, **potential)
        rho, j = imaginary_part_kg_current(*samples, **potential)
        assert np.array_equal(current.rho, rho) and same_bits(current.rho, rho)
        assert np.array_equal(current.j, j) and same_bits(current.j, j)
        former_rho, former_j = out_of_place_kg_current(*samples, **potential)
        size = np.abs(samples[0]) * np.abs(samples[1])
        if with_potential:
            coupling = 2.0 * potential["e"] * potential["V"]
            size = size + np.abs(coupling) * np.abs(samples[0]) ** 2
        ulp = FORMER_FORM_ULPS * np.finfo(float).eps
        assert np.all(np.abs(current.rho - former_rho) <= ulp * size)
        size = np.abs(samples[0]) * np.abs(samples[2])
        assert np.all(np.abs(current.j - former_j) <= ulp * size)


def test_kernels_leave_their_inputs_unchanged():
    # complex128 and float64 arrays pass through np.asarray without a copy,
    # so an in-place step on an input would reach the caller's array
    rng = np.random.default_rng(9)
    shape = (5, 6, 7)
    psi = random_complex(rng, (4,) + shape, 1.0)
    phi, phi_t = random_complex(rng, shape, 1.0), random_complex(rng, shape, 1.0)
    grad = random_complex(rng, (3,) + shape, 1.0)
    v_field = rng.standard_normal(shape)
    rho, j = rng.standard_normal((4,) + shape), rng.standard_normal((3, 4) + shape)
    inputs = (psi, phi, phi_t, grad, v_field, rho, j)
    before = [x.copy() for x in inputs]
    dirac_current(psi)
    kg_current(phi, phi_t, grad_phi=grad, V=v_field, e=0.7)
    dirac_hamiltonian_apply(psi, (0.3, 0.25, 0.2), MASS, e=1.3, V=v_field)
    FourCurrent(rho, j, "kg", (0.1, 0.2, 0.3, 0.4)).divergence_residual()
    for array, copy in zip(inputs, before):
        assert same_bits(array, copy)


def test_dirac_density_nonnegative_on_random_fields():
    rng = np.random.default_rng(2024)
    psi = rng.standard_normal((4, 10_000)) + 1j * rng.standard_normal((4, 10_000))
    current = dirac_current(psi)
    assert current.rho.shape == (10_000,)
    assert np.all(current.rho >= 0.0)


def test_zero_spinor_gives_zero_current():
    current = dirac_current(np.zeros((4, 5)))
    assert not np.any(current.rho)
    assert not np.any(current.j)


def test_dirac_current_needs_four_spinor_components():
    with pytest.raises(ValueError, match="4 components on axis 0"):
        dirac_current(np.zeros((3, 5)))


def test_four_current_validation():
    with pytest.raises(ValueError):
        FourCurrent(
            rho=np.array([-1.0]), j=np.zeros((3, 1)), provenance="dirac"
        )
    with pytest.raises(ValueError):
        FourCurrent(rho=np.ones(4), j=np.zeros((3, 5)), provenance="kg")
    with pytest.raises(ValueError):
        FourCurrent(rho=np.ones(4), j=np.zeros((3, 4)), provenance="maxwell")
    with pytest.raises(ValueError):
        FourCurrent(
            rho=np.ones((4, 4, 4, 4)), j=np.zeros((3, 4, 4, 4, 4)), provenance="kg"
        ).divergence_residual()


# ----- spinor Hamiltonian -------------------------------------------------------------


def test_free_plane_wave_is_approximate_eigenvector():
    wave = SpinorPlaneWave.build((1.0, 0.0, 1.0), MASS)
    n = 32
    h = 2.0 * math.pi / n
    psi = wave.sample(spatial_axes(n, h), 0.0)
    h_psi = dirac_hamiltonian_apply(psi, (h, h, h), MASS)
    residual = np.max(np.abs(h_psi - wave.energy * psi))
    # second-order stencil: the error is (ph)^2/6 per momentum component
    bound = sum(abs(p) ** 3 for p in wave.p) * h**2 / 6.0 * np.max(np.abs(wave.u))
    assert residual <= 3.0 * bound


def test_hamiltonian_matches_time_derivative_at_second_order():
    wave = SpinorPlaneWave.build((1.0, 1.0, 0.0), MASS)

    def residual(n):
        h = 2.0 * math.pi / n
        psi = wave.sample(spatial_axes(n, h), 0.0)
        h_psi = dirac_hamiltonian_apply(psi, (h, h, h), MASS)
        # i d/dt on the exact plane wave is E psi
        return float(np.max(np.abs(h_psi - wave.energy * psi)))

    coarse, fine = residual(16), residual(32)
    order = math.log2(coarse / fine)
    assert order >= 1.9
    assert fine <= coarse / 3.5


def test_constant_potential_shifts_eigenvalue_exactly():
    wave = SpinorPlaneWave.build((1.0, 0.0, 0.0), MASS)
    n, e, v0 = 12, 2.0, 0.7
    h = 2.0 * math.pi / n
    psi = wave.sample(spatial_axes(n, h), 0.0)
    v_field = np.full(psi.shape[1:], v0)
    h_free = dirac_hamiltonian_apply(psi, (h, h, h), MASS)
    h_pot = dirac_hamiltonian_apply(psi, (h, h, h), MASS, e=e, V=v_field)
    assert np.max(np.abs(h_pot - h_free - e * v0 * psi)) < 1e-10


def test_rest_spinor_with_constant_potential_is_exact_eigenvector():
    # no spatial variation: the finite-difference gradient vanishes exactly
    wave = SpinorPlaneWave.build((0.0, 0.0, 0.0), MASS)
    psi = np.broadcast_to(wave.u.reshape(4, 1, 1, 1), (4, 4, 4, 4)).copy()
    v_field = np.full((4, 4, 4), 0.3)
    h_psi = dirac_hamiltonian_apply(psi, (0.5, 0.5, 0.5), MASS, e=1.0, V=v_field)
    assert np.max(np.abs(h_psi - (MASS + 0.3) * psi)) < 1e-14


HAMILTONIAN_CASES = {
    "free": ((5, 6, 7), (0.3, 0.25, 0.2), 0.8, False),
    "potential": ((5, 6, 7), (0.3, 0.25, 0.2), 0.8, True),
    "massless": ((5, 6, 7), (0.3, 0.25, 0.2), 0.0, True),
    # on an axis of 3 points both neighbours of every point wrap
    "three-point-axis": ((3, 6, 5), (0.7, 0.25, 0.2), 1.1, True),
    # the full 16^3 cube of acceptance criterion 5, and the (n, n, 3) grids on
    # which the dirac-consistency suite samples its z-constant wave
    "cli-grid": ((16, 16, 16), (2.0 * math.pi / 16,) * 3, 1.0, False),
    "cli-grid-potential": ((16, 16, 16), (2.0 * math.pi / 16,) * 3, 1.0, True),
    "cli-grid-16x16x3": ((16, 16, 3), (2.0 * math.pi / 16,) * 3, 1.0, False),
    "cli-grid-16x16x3-potential": ((16, 16, 3), (2.0 * math.pi / 16,) * 3, 1.0, True),
    "cli-grid-32x32x3": ((32, 32, 3), (2.0 * math.pi / 32,) * 3, 1.0, False),
    "cli-grid-32x32x3-potential": ((32, 32, 3), (2.0 * math.pi / 32,) * 3, 1.0, True),
}


@pytest.mark.parametrize("case", sorted(HAMILTONIAN_CASES))
def test_pauli_block_hamiltonian_equals_einsum(case):
    shape, spacings, mass, with_potential = HAMILTONIAN_CASES[case]
    rng = np.random.default_rng(7)
    psi = rng.standard_normal((4,) + shape) + 1j * rng.standard_normal((4,) + shape)
    potential = {"e": 1.3, "V": rng.standard_normal(shape)} if with_potential else {}
    assert np.array_equal(
        dirac_hamiltonian_apply(psi, spacings, mass, **potential),
        einsum_hamiltonian_apply(psi, spacings, mass, **potential),
    )


def test_hamiltonian_grid_validation():
    with pytest.raises(ValueError):
        dirac_hamiltonian_apply(np.zeros((4, 2, 4, 4)), (0.1, 0.1, 0.1), MASS)
    with pytest.raises(ValueError):
        dirac_hamiltonian_apply(np.zeros((4, 4, 4)), (0.1, 0.1, 0.1), MASS)
    with pytest.raises(ValueError):
        dirac_hamiltonian_apply(np.zeros((4, 4, 4, 4)), (0.1, 0.1), MASS)


# ----- scalar field -------------------------------------------------------------------


def test_kg_plane_wave_dispersion():
    wave = KGPlaneWave.free(1.0, (0.3, 0.4, 0.0), MASS)
    assert dispersion_residual(wave, MASS) < 1e-12
    with pytest.raises(ValueError):
        KGPlaneWave.free(1.0, (0, 0), MASS)


def test_free_plane_wave_density_is_uniform():
    wave = KGPlaneWave.free(0.8 + 0.3j, (0.6, 0.2, -0.5), MASS)
    tt, xyz = four_axes(4, 0.13, 5, 0.21)
    phi = wave.sample(xyz, tt)
    current = kg_current(
        phi, wave.time_derivative(xyz, tt), grad_phi=wave.gradient(xyz, tt)
    )
    expected_rho = 2.0 * wave.omega * abs(wave.N) ** 2
    assert np.max(np.abs(current.rho - expected_rho)) < 1e-12
    for k in range(3):
        expected_j = 2.0 * wave.k[k] * abs(wave.N) ** 2
        assert np.max(np.abs(current.j[k] - expected_j)) < 1e-12


def test_real_uncharged_field_has_identically_zero_density():
    # standing wave cos(k.x) cos(omega t) is real, and e = 0
    k = np.array([0.5, 0.0, 0.2])
    omega = math.hypot(np.linalg.norm(k), MASS)
    tt, xyz = four_axes(5, 0.11, 5, 0.17)
    arg = sum(k[i] * xyz[i] for i in range(3))
    phi = np.cos(arg) * np.cos(omega * tt)
    phi_t = -omega * np.cos(arg) * np.sin(omega * tt)
    grad = np.stack([-k[i] * np.sin(arg) * np.cos(omega * tt) for i in range(3)])
    current = kg_current(phi, phi_t, grad_phi=grad)
    assert np.max(np.abs(current.rho)) == 0.0


def test_constant_potential_shifts_density():
    # stationary uniform state: rho picks up the -2eV|phi|^2 shift
    wave = KGPlaneWave.free(1.3, (0.0, 0.0, 0.0), MASS)
    tt, xyz = four_axes(3, 0.1, 3, 0.1)
    phi = wave.sample(xyz, tt)
    e, v0 = 0.7, 0.4
    v_field = np.full(phi.shape, v0)
    current = kg_current(
        phi,
        wave.time_derivative(xyz, tt),
        grad_phi=wave.gradient(xyz, tt),
        V=v_field,
        e=e,
    )
    expected = (2.0 * wave.omega - 2.0 * e * v0) * abs(wave.N) ** 2
    assert np.max(np.abs(current.rho - expected)) < 1e-12


def test_kg_density_takes_both_signs_on_random_samples():
    rng = np.random.default_rng(5)
    n = 10_000
    phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    phi_t = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    grad = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    current = kg_current(phi, phi_t, grad_phi=grad)
    assert np.any(current.rho > 0.0)
    assert np.any(current.rho < 0.0)


def test_kg_current_requires_gradient_information():
    phi = np.zeros((3, 3, 3, 3), dtype=complex)
    with pytest.raises(ValueError):
        kg_current(phi, np.zeros((2, 2, 2, 2), dtype=complex), grad_phi=np.zeros((3,) + phi.shape))


def test_hamiltonian_density_values_and_positivity():
    assert np.all(
        kg_hamiltonian_density(
            np.zeros(3, complex), np.zeros(3, complex), np.zeros((3, 3), complex), MASS
        )
        == 0.0
    )
    wave = KGPlaneWave.free(0.9 - 0.1j, (0.7, -0.2, 0.1), MASS)
    tt, xyz = four_axes(3, 0.1, 4, 0.2)
    phi = wave.sample(xyz, tt)
    density = kg_hamiltonian_density(
        phi,
        wave.time_derivative(xyz, tt),
        wave.gradient(xyz, tt),
        MASS,
    )
    k_sq = float(wave.k @ wave.k)
    expected = (wave.omega**2 + k_sq + MASS**2) * abs(wave.N) ** 2
    assert np.max(np.abs(density - expected)) < 1e-12

    rng = np.random.default_rng(11)
    n = 10_000
    phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    phi_t = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    grad = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    v = rng.standard_normal(n)
    a = rng.standard_normal((3, n))
    density = kg_hamiltonian_density(phi, phi_t, grad, MASS, V=v, A=a, e=1.3)
    assert np.all(density >= 0.0)


# ----- continuity of exact solutions --------------------------------------------------


def test_plane_wave_currents_satisfy_continuity_to_rounding():
    dirac_wave = SpinorPlaneWave.build((0.7, -0.3, 0.4), MASS)
    tt, xyz = four_axes(6, 0.1, 8, 0.2)
    d_current = dirac_current(dirac_wave.sample(xyz, tt), spacings=(0.1, 0.2, 0.2, 0.2))
    assert d_current.divergence_residual() <= 1e-10

    kg_wave = KGPlaneWave.free(0.8 + 0.3j, (0.6, 0.2, -0.5), MASS)
    phi = kg_wave.sample(xyz, tt)
    k_current = kg_current(
        phi,
        kg_wave.time_derivative(xyz, tt),
        grad_phi=kg_wave.gradient(xyz, tt),
        spacings=(0.1, 0.2, 0.2, 0.2),
    )
    assert k_current.divergence_residual() <= 1e-10


def test_superposition_residual_converges_at_second_order():
    waves_d = [
        SpinorPlaneWave.build((0.9, 0.0, 0.2), MASS, s=1),
        SpinorPlaneWave.build((-0.4, 1.1, 0.6), MASS, s=2),
    ]
    waves_k = [
        KGPlaneWave.free(1.0, (1.2, 0.0, 0.4), MASS),
        KGPlaneWave.free(0.5 - 0.2j, (-0.3, 0.9, 1.0), MASS),
    ]

    def dirac_residual(nt, dt, n, h):
        tt, xyz = four_axes(nt, dt, n, h)
        psi = sum(w.sample(xyz, tt) for w in waves_d)
        return dirac_current(psi, spacings=(dt, h, h, h)).divergence_residual()

    def kg_residual(nt, dt, n, h):
        tt, xyz = four_axes(nt, dt, n, h)
        phi = sum(w.sample(xyz, tt) for w in waves_k)
        phi_t = sum(w.time_derivative(xyz, tt) for w in waves_k)
        grad = sum(w.gradient(xyz, tt) for w in waves_k)
        return kg_current(
            phi, phi_t, grad_phi=grad, spacings=(dt, h, h, h)
        ).divergence_residual()

    for residual in (dirac_residual, kg_residual):
        coarse = residual(7, 0.2, 11, 0.2)
        fine = residual(13, 0.1, 21, 0.1)
        assert math.log2(coarse / fine) >= 1.9
