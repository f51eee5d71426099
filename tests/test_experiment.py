import math

import numpy as np
import pytest

from qdensity.experiment import (
    ExperimentConfig,
    ExternalCharge,
    KGState,
    external_potential,
    inner_product,
    normalize_kg_state,
    potential_term,
    run_orthogonality_experiment,
    well_state,
)
from qdensity.numerics import (
    BallGrid,
    RadialMode,
    bisect_root,
)

# frozen from the independent high-resolution oracle below (d = 2, default
# parameters R = m = e = q = 1); the oracle recomputes it at test time
EXPECTED_U_D2 = -0.0196390885868

P_WAVE_ZERO = 4.493409457909064


@pytest.fixture(scope="module")
def grid():
    return BallGrid.build(1.0)


@pytest.fixture(scope="module")
def states(grid):
    s0 = normalize_kg_state(well_state(0, 0, grid, mass=1.0), grid)
    s1 = normalize_kg_state(well_state(1, 0, grid, mass=1.0), grid)
    return s0, s1


# ----- independent oracle ---------------------------------------------------------


def _simpson_weights(n):
    if n % 2 == 0:
        raise ValueError("Simpson rule needs an odd point count")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def u_oracle(d, R=1.0, mass=1.0, e=1.0, q=1.0, n_r=4001, n_c=4001):
    """Brute-force U via composite Simpson in r and cos(theta).

    Everything is written out explicitly: closed-form radial profiles with
    the frozen p-wave zero, explicit harmonics, and no package quadrature.
    """
    k0 = math.pi / R
    k1 = P_WAVE_ZERO / R
    r = np.linspace(0.0, R, n_r)
    wr = _simpson_weights(n_r) * (r[1] - r[0])
    with np.errstate(invalid="ignore", divide="ignore"):
        f0 = np.where(r > 0, np.sin(k0 * r) / (k0 * r), 1.0)
        f1 = np.where(
            r > 0,
            np.sin(k1 * r) / (k1 * r) ** 2 - np.cos(k1 * r) / (k1 * r),
            0.0,
        )
    omega0 = math.hypot(k0, mass)
    omega1 = math.hypot(k1, mass)
    n0 = 1.0 / math.sqrt(2.0 * omega0 * float(np.sum(wr * f0**2 * r**2)))
    n1 = 1.0 / math.sqrt(2.0 * omega1 * float(np.sum(wr * f1**2 * r**2)))
    c = np.linspace(-1.0, 1.0, n_c)
    wc = _simpson_weights(n_c) * (c[1] - c[0])
    y00 = 1.0 / math.sqrt(4.0 * math.pi)
    y10 = math.sqrt(3.0 / (4.0 * math.pi)) * c
    v = q / np.sqrt(r[:, None] ** 2 + d**2 - 2.0 * r[:, None] * d * c[None, :])
    radial = wr * f0 * f1 * r**2
    angular = wc * y00 * y10
    return -2.0 * e * n0 * n1 * 2.0 * math.pi * float(radial @ v @ angular)


# ----- external potential ---------------------------------------------------------


def test_potential_at_center_is_q_over_d(grid):
    v = external_potential(ExternalCharge(q=2.0, d=3.0), grid)
    # sample the innermost radial node: V -> q/d as r -> 0
    assert v[0, :, 0] == pytest.approx(np.full(len(grid.cos_theta), 2.0 / 3.0), rel=1e-2)


def test_potential_on_axis_closed_form():
    # r = R/2 on the +z axis, d = 2R: separation d - r = 3R/2
    charge = ExternalCharge(q=1.0, d=2.0)
    r, c = 0.5, 1.0
    value = charge.q / math.sqrt(r**2 + charge.d**2 - 2 * r * charge.d * c)
    assert value == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_potential_on_equator_is_mirror_symmetric():
    # an odd polar order puts a node exactly on cos(theta) = 0
    odd = BallGrid.build(1.0, n_panels=4, order=4, n_theta=5, n_phi=4)
    v = external_potential(ExternalCharge(q=1.0, d=2.0), odd)[:, :, 0]
    equator = np.argmin(np.abs(odd.cos_theta))
    assert odd.cos_theta[equator] == pytest.approx(0.0, abs=1e-15)
    expected = 1.0 / np.sqrt(odd.r**2 + 4.0)
    assert v[:, equator] == pytest.approx(expected, rel=1e-14)


def test_potential_equator_mirror_symmetry(grid):
    v = external_potential(ExternalCharge(q=1.0, d=2.0), grid)[:, :, 0]
    flipped = v[:, ::-1]  # Gauss-Legendre nodes are symmetric about zero
    north = grid.cos_theta > 0
    assert np.all(v[:, north] > flipped[:, north])


def test_potential_monotone_toward_charge(grid):
    v = external_potential(ExternalCharge(q=1.0, d=1.5), grid)[:, :, 0]
    order = np.argsort(grid.cos_theta)
    assert np.all(np.diff(v[:, order], axis=1) > 0.0)


def test_potential_requires_external_charge(grid):
    with pytest.raises(ValueError):
        external_potential(ExternalCharge(q=1.0, d=0.99), grid)
    with pytest.raises(ValueError):
        ExternalCharge(q=-1.0, d=2.0)
    with pytest.raises(ValueError):
        ExternalCharge(q=1.0, d=0.0)


# ----- states and normalization ----------------------------------------------------


def test_normalized_self_product_has_unit_modulus(grid, states):
    for state in states:
        value = inner_product(state, state, grid)
        assert abs(abs(value) - 1.0) < 1e-10


def test_normalize_is_idempotent(grid, states):
    s0, _ = states
    again = normalize_kg_state(s0, grid)
    assert abs(again.norm - s0.norm) < 1e-12


def test_normalization_constant_halves_for_doubled_profile(grid):
    class DoubledMode(RadialMode):
        def sample(self, r):
            return 2.0 * super().sample(r)

    base = well_state(0, 0, grid, mass=1.0)
    doubled_mode = DoubledMode(
        l=base.radial.l,
        R=base.radial.R,
        k=base.radial.k,
        omega=base.radial.omega,
    )
    doubled = KGState(
        sigma=base.sigma, omega=base.omega, l=base.l, m=base.m, radial=doubled_mode
    )
    n_base = abs(normalize_kg_state(base, grid).norm)
    n_doubled = abs(normalize_kg_state(doubled, grid).norm)
    assert n_doubled == pytest.approx(n_base / 2.0, rel=1e-12)


def test_degenerate_state_rejected(grid):
    class ZeroMode(RadialMode):
        def sample(self, r):
            return np.zeros_like(np.asarray(r, dtype=float))

    dead_mode = ZeroMode(l=0, R=1.0, k=math.pi, omega=1.0)
    dead = KGState(sigma=1, omega=1.0, l=0, m=0, radial=dead_mode)
    with pytest.raises(ValueError):
        normalize_kg_state(dead, grid)


def test_state_validation():
    mode = RadialMode(l=1, R=1.0, k=1.0, omega=1.0)
    with pytest.raises(ValueError):
        KGState(sigma=0, omega=1.0, l=1, m=0, radial=mode)
    with pytest.raises(ValueError):
        KGState(sigma=1, omega=1.0, l=1, m=2, radial=mode)


# ----- inner products ----------------------------------------------------------------


def test_cross_product_vanishes_without_potential(grid, states):
    s0, s1 = states
    assert abs(inner_product(s0, s1, grid)) <= 1e-10


def test_orthogonality_matrix_over_low_angular_momenta(grid):
    # distinct (l, m) pairs with l <= 2 are pairwise orthogonal at V = 0;
    # the l = 2 radial profile is synthetic (scipy's nodeless j_2 up to its
    # first zero), since the well solver intentionally stops at l = 1
    pytest.importorskip("scipy")
    from scipy.special import spherical_jn

    z2 = bisect_root(lambda x: float(spherical_jn(2, x)), 5.0, 6.5)

    class J2Mode(RadialMode):
        def sample(self, r):
            return spherical_jn(2, self.k * np.asarray(r, dtype=float))

    k2 = z2 / grid.R
    j2_mode = J2Mode(l=2, R=grid.R, k=k2, omega=math.hypot(k2, 1.0))

    states = []
    for l in range(3):
        for m in range(-l, l + 1):
            if l < 2:
                state = well_state(l, m, grid, mass=1.0)
            else:
                state = KGState(sigma=1, omega=j2_mode.omega, l=2, m=m, radial=j2_mode)
            states.append(normalize_kg_state(state, grid))
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            value = abs(inner_product(a, b, grid))
            if i == j:
                assert abs(value - 1.0) < 1e-10
            else:
                assert value <= 1e-10


def test_grid_mismatch_between_profile_and_radial_samples(grid):
    # states resample their profile on whatever grid they are integrated on
    fine = grid.refined(2)
    state = normalize_kg_state(well_state(0, 0, grid, mass=1.0), grid)
    value = inner_product(state, state, fine)
    assert abs(abs(value) - 1.0) < 1e-9


def test_mirror_points_flip_the_product_sign(grid, states):
    s0, s1 = states
    product = np.real(np.conj(s0.spatial(grid)) * s1.spatial(grid))
    flipped = product[:, ::-1, :]  # theta -> pi - theta under node symmetry
    assert np.max(np.abs(product + flipped)) < 1e-14


def test_potential_term_matches_oracle_and_frozen_value(grid, states):
    s0, s1 = states
    v = external_potential(ExternalCharge(q=1.0, d=2.0), grid)
    u = potential_term(s0, s1, grid, v, e=1.0)
    assert abs(u.imag) < 1e-14
    oracle = u_oracle(2.0)
    assert u.real == pytest.approx(oracle, rel=1e-6)
    assert u.real == pytest.approx(EXPECTED_U_D2, rel=1e-9)
    assert oracle == pytest.approx(EXPECTED_U_D2, rel=1e-9)
    # sign convention: e > 0, q > 0 at +z makes U real negative at t = 0
    assert u.real < 0.0


def test_potential_term_is_bilinear_in_couplings(grid, states):
    s0, s1 = states
    v1 = external_potential(ExternalCharge(q=1.0, d=2.0), grid)
    v3 = external_potential(ExternalCharge(q=3.0, d=2.0), grid)
    base = potential_term(s0, s1, grid, v1, e=1.0)
    assert potential_term(s0, s1, grid, v1, e=2.0) == pytest.approx(
        2.0 * base, rel=1e-10
    )
    assert potential_term(s0, s1, grid, v3, e=1.0) == pytest.approx(
        3.0 * base, rel=1e-10
    )


def test_central_potential_preserves_orthogonality(grid, states):
    s0, s1 = states
    v_central = (1.0 / (2.0 + grid.r))[:, None, None]
    u = potential_term(s0, s1, grid, v_central, e=1.0)
    assert abs(u) <= 1e-12


# ----- full experiment ----------------------------------------------------------------


def test_default_experiment_report():
    report = run_orthogonality_experiment(ExperimentConfig())
    assert abs(report.i01) <= 1e-10
    assert report.u_monotone_decreasing_in_d is True
    magnitudes = {entry.d: abs(entry.u) for entry in report.sweep}
    assert magnitudes[1.5] > magnitudes[2.0] > magnitudes[4.0] > 0.0
    for entry in report.sweep:
        assert abs(entry.u) > 10.0 * entry.error
        assert entry.error >= 0.0
        # raw value is the unnormalized integral
        assert entry.u_raw == pytest.approx(
            entry.u / (report.norm0 * report.norm1), rel=1e-12
        )
    d2 = next(entry for entry in report.sweep if entry.d == 2.0)
    assert d2.u.real == pytest.approx(EXPECTED_U_D2, rel=1e-9)


def test_uncoupled_experiment_reports_exact_zeros():
    report = run_orthogonality_experiment(ExperimentConfig(e=0.0))
    for entry in report.sweep:
        assert entry.u == 0.0
    assert report.u_monotone_decreasing_in_d is None


def test_distant_charge_preserves_orthogonality_in_practice():
    # at d = 1e4 R the potential is constant across the well to one part in
    # 1e-8, and a constant potential cannot mix orthogonal harmonics
    report = run_orthogonality_experiment(ExperimentConfig(d_values=(1.0e4,)))
    assert abs(report.sweep[0].u) <= 1e-8
    # one distance cannot show a decay, so the report claims none
    assert report.u_monotone_decreasing_in_d is None


def test_experiment_rejects_interior_charge():
    with pytest.raises(ValueError):
        run_orthogonality_experiment(ExperimentConfig(d_values=(0.5,)))


def test_report_serialization_round_trip_and_determinism():
    config = ExperimentConfig(d_values=(2.0,), n_panels=8, n_theta=8, n_phi=8)
    first = run_orthogonality_experiment(config)
    second = run_orthogonality_experiment(config)
    assert first.to_json_dict() == second.to_json_dict()
    payload = first.to_json_dict()
    assert payload["parameters"]["R"] == 1.0
    assert {"d", "u_re", "u_im", "u_raw_re", "u_raw_im", "error"} <= set(
        payload["sweep"][0]
    )
    rows = first.to_csv_rows()
    assert rows[0] == ["d", "re_u", "im_u", "error"]
    assert len(rows) == 2
