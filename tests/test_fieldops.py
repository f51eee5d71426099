import math

import numpy as np
import pytest

from qdensity.fieldops import (
    ALPHAS,
    GAMMAS,
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


def four_axes(nt, dt, n, h):
    t = np.arange(nt) * dt
    x = np.arange(n) * h
    tt, xx, yy, zz = np.meshgrid(t, x, x, x, indexing="ij")
    return tt, (xx, yy, zz)


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
        KGPlaneWave.free(1.0, (0, 0, 0), MASS, sigma=2)
    with pytest.raises(ValueError):
        KGPlaneWave.free(1.0, (0, 0), MASS)


def test_free_plane_wave_density_is_uniform():
    wave = KGPlaneWave.free(0.8 + 0.3j, (0.6, 0.2, -0.5), MASS, sigma=-1)
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
    wave = KGPlaneWave.free(1.3, (0.0, 0.0, 0.0), MASS, sigma=-1)
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
