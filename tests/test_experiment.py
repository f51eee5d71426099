import argparse
import json
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from qdensity import experiment, numerics
from qdensity.cli import _write_report
from qdensity.experiment import (
    ExperimentConfig,
    ExternalCharge,
    KGState,
    external_potential,
    normalize_kg_state,
    potential_term,
    run_orthogonality_experiment,
    well_state,
)
from qdensity.numerics import BallGrid, RadialMode, gauss_legendre, integrate_ball

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


def refined(grid, n_panels, order, factor=2):
    """The grid built from n_panels radial panels of the given order, with
    the panels and both angular orders scaled by factor."""
    return BallGrid.build(
        grid.R,
        n_panels=n_panels * factor,
        order=order,
        n_theta=len(grid.cos_theta) * factor,
        n_phi=len(grid.phi) * factor,
    )


# ----- independent oracles ---------------------------------------------------------


def inner_product(a, b, grid):
    """Zero-potential scalar-density inner product at the snapshot t = 0.

    Integrates i(phi_a* d0 phi_b - d0 phi_a* phi_b) over the ball: the
    (omega_a + omega_b)-weighted overlap, which vanishes for distinct
    angular indices.  The experiment's I01 is this product of its two states.
    """
    overlap = np.conj(a.spatial(grid)) * b.spatial(grid)
    weight = -(a.sigma * a.omega + b.sigma * b.omega)
    return weight * integrate_ball(overlap, grid)


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
    doubled_mode = DoubledMode(l=base.l, k=base.radial.k, omega=base.omega)
    doubled = KGState(m=base.m, radial=doubled_mode)
    n_base = abs(normalize_kg_state(base, grid).norm)
    n_doubled = abs(normalize_kg_state(doubled, grid).norm)
    assert n_doubled == pytest.approx(n_base / 2.0, rel=1e-12)


def test_degenerate_state_rejected(grid):
    class ZeroMode(RadialMode):
        def sample(self, r):
            return np.zeros_like(np.asarray(r, dtype=float))

    dead_mode = ZeroMode(l=0, k=math.pi, omega=1.0)
    dead = KGState(m=0, radial=dead_mode)
    with pytest.raises(ValueError):
        normalize_kg_state(dead, grid)


def test_state_validation():
    mode = RadialMode(l=1, k=1.0, omega=1.0)
    with pytest.raises(ValueError):
        KGState(m=2, radial=mode)


def test_state_reads_l_and_omega_from_its_mode():
    assert [f.name for f in fields(KGState)] == ["m", "radial", "norm"]
    assert [f.name for f in fields(RadialMode)] == ["l", "k", "omega"]
    mode = RadialMode(l=2, k=5.5, omega=7.25)
    state = KGState(m=-1, radial=mode)
    assert (state.l, state.omega) == (2, 7.25)
    for given in ("sigma", "omega", "l"):
        with pytest.raises(TypeError):
            KGState(m=0, radial=mode, **{given: 1})


def test_sign_convention_is_a_class_constant():
    state = well_state(1, 0, BallGrid.build(1.0, 2, 2, 2, 1), mass=1.0)
    assert KGState.sigma == 1
    assert state.sigma == 1
    assert replace(state, norm=2.0).sigma == 1
    report = run_orthogonality_experiment(SMALL).to_json_dict()
    assert report["parameters"]["sigma"] == KGState.sigma


def test_grid_sizes_are_bounded():
    # the largest CLI resolution, 4 * 362 * 8 * 362 = 4,193,408 fine nodes,
    # and a fine grid of exactly MAX_GRID_POINTS are accepted
    replace(SMALL, n_panels=362, order=8, n_theta=362, n_phi=362)
    replace(SMALL, n_panels=512, order=8, n_theta=256, n_phi=512)
    assert experiment.MAX_GRID_POINTS == 4 * 512 * 8 * 256
    for sizes in (
        dict(n_panels=363, order=8, n_theta=363, n_phi=363),
        dict(n_panels=512, order=8, n_theta=257),
        dict(order=513),
        dict(n_phi=513),
        dict(n_panels=100000000, n_theta=100000000, n_phi=100000000),
    ):
        with pytest.raises(ValueError, match=r"<= 512 .* <= 4194304"):
            replace(SMALL, **sizes)


GRID_SIZES = ["n_panels", "order", "n_theta", "n_phi"]


@pytest.mark.parametrize("name", GRID_SIZES)
@pytest.mark.parametrize("value", [16.0, True, "8"], ids=repr)
def test_grid_sizes_must_be_integers(name, value, monkeypatch):
    # refused by the constructor, before the experiment could build a grid
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(BallGrid, "build", no_grid)
    kind = type(value).__name__
    with pytest.raises(TypeError, match=rf"^{name} must be an integer, got {kind}$"):
        run_orthogonality_experiment(replace(SMALL, **{name: value}))


@pytest.mark.parametrize("name", GRID_SIZES)
def test_numpy_integer_grid_sizes_are_accepted(name):
    config = replace(SMALL, **{name: np.int64(getattr(SMALL, name))})
    assert (
        run_orthogonality_experiment(config).to_json_dict()
        == run_orthogonality_experiment(SMALL).to_json_dict()
    )


@pytest.mark.parametrize("kind", [np.int64, np.int32])
@pytest.mark.parametrize("name", GRID_SIZES)
def test_numpy_integer_grid_sizes_are_reported_as_numbers(name, kind, tmp_path):
    config = replace(SMALL, **{name: kind(getattr(SMALL, name))})
    assert type(getattr(config, name)) is int
    report = run_orthogonality_experiment(config).to_json_dict()
    assert type(report["parameters"][name]) is int
    out = tmp_path / "report.json"
    _write_report(argparse.Namespace(out=str(out), format=None), report)
    assert json.loads(out.read_text())["parameters"][name] == getattr(SMALL, name)


# ----- inner products ----------------------------------------------------------------


def test_cross_product_vanishes_without_potential(grid, states):
    s0, s1 = states
    assert abs(inner_product(s0, s1, grid)) <= 1e-10


def test_orthogonality_matrix_over_low_angular_momenta(grid):
    # distinct (l, m) pairs with l <= 2 are pairwise orthogonal at V = 0;
    # the l = 2 radial profile is synthetic (scipy's nodeless j_2 up to its
    # first zero), since the well solver intentionally stops at l = 1
    pytest.importorskip("scipy")
    from scipy.optimize import brentq
    from scipy.special import spherical_jn

    z2 = brentq(lambda x: spherical_jn(2, x), 5.0, 6.5, xtol=1e-12)

    class J2Mode(RadialMode):
        def sample(self, r):
            return spherical_jn(2, self.k * np.asarray(r, dtype=float))

    k2 = z2 / grid.R
    j2_mode = J2Mode(l=2, k=k2, omega=math.hypot(k2, 1.0))

    states = []
    for l in range(3):
        for m in range(-l, l + 1):
            if l < 2:
                state = well_state(l, m, grid, mass=1.0)
            else:
                state = KGState(m=m, radial=j2_mode)
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
    fine = refined(grid, n_panels=16, order=8)
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


SMALL = ExperimentConfig(
    R=1.3, mass=0.7, e=-1.7, q=0.6, d_values=(1.4, 2.9, 7.5),
    n_panels=3, order=4, n_theta=5, n_phi=3,
)


def _i01_and_u_by_functions(config, grid):
    s0 = normalize_kg_state(well_state(0, 0, grid, config.mass), grid)
    s1 = normalize_kg_state(well_state(1, 0, grid, config.mass), grid)
    u = [
        potential_term(
            s0, s1, grid, external_potential(ExternalCharge(config.q, d), grid),
            config.e,
        )
        for d in config.d_values
    ]
    return inner_product(s0, s1, grid), u


# shaped like the benchmark's sweep-dense operations: resolution 16 (fine grid
# 32), 16 distances log-spaced inside (1.05 R, 8 R), and R, mass, e and q away
# from 1
SWEEP_DENSE_LIKE = ExperimentConfig(
    R=1.9, mass=0.55, e=0.8, q=1.7,
    d_values=tuple(1.9 * 1.05 * (8.0 / 1.05) ** ((k + 0.5) / 16) for k in range(16)),
    n_panels=16, order=8, n_theta=16, n_phi=16,
)


@pytest.mark.parametrize(
    "config", [SMALL, SWEEP_DENSE_LIKE], ids=["small", "sweep-dense-like"]
)
def test_report_matches_potential_term_and_inner_product_to_rounding(config):
    # the sweep integrates separable real factors; on the experiment's own
    # one-azimuth-node grids each value must still match the complex 3D
    # functions to rounding, within the bounds of the full-3D test below
    report = run_orthogonality_experiment(config)
    coarse = BallGrid.build(config.R, config.n_panels, config.order, config.n_theta, 1)
    fine = BallGrid.build(
        config.R, 2 * config.n_panels, config.order, 2 * config.n_theta, 1
    )
    (i01_c, u_c), (i01_f, u_f) = (
        _i01_and_u_by_functions(config, g) for g in (coarse, fine)
    )
    assert abs(report.i01 - i01_f) <= 1e-15
    assert abs(report.i01_error - abs(i01_f - i01_c)) <= 1e-15
    for norm, l in ((report.norm0, 0), (report.norm1, 1)):
        oracle = abs(normalize_kg_state(well_state(l, 0, fine, config.mass), fine).norm)
        assert abs(norm - oracle) <= 1e-14 * oracle
    assert [entry.d for entry in report.sweep] == list(config.d_values)
    for entry, uc, uf in zip(report.sweep, u_c, u_f):
        assert abs(entry.u - uf) <= 1e-14 * abs(uf)
        assert abs(entry.error - abs(uf - uc)) <= 1e-14 * abs(uf)


@pytest.mark.parametrize(
    "config", [SMALL, ExperimentConfig()], ids=["small", "default"]
)
def test_one_azimuth_node_matches_full_3d_grids(config):
    # every integrand has m = 0, so 16 and 32 azimuth nodes must give the
    # one-node values up to rounding
    report = run_orthogonality_experiment(config)
    coarse = BallGrid.build(config.R, config.n_panels, config.order, config.n_theta, 16)
    (i01_c, u_c), (i01_f, u_f) = (
        _i01_and_u_by_functions(config, g)
        for g in (coarse, refined(coarse, config.n_panels, config.order))
    )
    assert abs(report.i01 - i01_f) <= 1e-15
    assert abs(report.i01_error - abs(i01_f - i01_c)) <= 1e-15
    for entry, uc, uf in zip(report.sweep, u_c, u_f):
        assert abs(entry.u - uf) <= 1e-14 * abs(uf)
        assert abs(entry.error - abs(uf - uc)) <= 1e-14 * abs(uf)


def test_report_does_not_depend_on_the_given_n_phi():
    payloads = []
    for n_phi in (1, 3, 16):
        report = run_orthogonality_experiment(replace(SMALL, n_phi=n_phi))
        payload = report.to_json_dict()
        assert payload["parameters"].pop("n_phi") == n_phi
        assert payload["parameters"]["n_phi_effective"] == 1
        payloads.append(payload)
    assert payloads[0] == payloads[1] == payloads[2]


def test_zero_azimuth_nodes_rejected():
    # the experiment ignores n_phi, yet an impossible grid size stays an error
    with pytest.raises(ValueError, match="n_phi"):
        replace(SMALL, n_phi=0)


def test_each_state_is_sampled_once_per_grid(monkeypatch):
    radial, polar = [], []
    original_sample, original_polar = RadialMode.sample, numerics._ylm_theta_part

    def counted_sample(self, r):
        radial.append(len(r))
        return original_sample(self, r)

    def counted_polar(l, m, c, s):
        polar.append(np.array(c))
        return original_polar(l, m, c, s)

    monkeypatch.setattr(RadialMode, "sample", counted_sample)
    monkeypatch.setattr(numerics, "_ylm_theta_part", counted_polar)
    monkeypatch.setattr(experiment, "_ylm_theta_part", counted_polar, raising=False)
    n_r, n_theta = SMALL.n_panels * SMALL.order, SMALL.n_theta
    for n in (1, 16):
        radial.clear()
        polar.clear()
        d_values = tuple(1.5 + 0.25 * k for k in range(n))
        run_orthogonality_experiment(replace(SMALL, d_values=d_values))
        # per grid: one radial and one polar sample of each of the two states
        assert radial == [n_r, n_r, 2 * n_r, 2 * n_r]
        # the polar factor is taken at the Gauss nodes, not at cos(arccos(c))
        nodes = [gauss_legendre(n_theta)[0]] * 2 + [gauss_legendre(2 * n_theta)[0]] * 2
        assert len(polar) == 4
        assert all(np.array_equal(c, x) for c, x in zip(polar, nodes))


def test_the_sweep_calls_none_of_the_3d_functions(monkeypatch):
    # KGState.spatial, normalize_kg_state, external_potential and
    # integrate_ball stay as the oracle of the tests above
    def refuse(*args):
        raise AssertionError("the sweep sampled a 3D grid")

    monkeypatch.setattr(KGState, "spatial", refuse)
    for name in ("normalize_kg_state", "external_potential", "integrate_ball"):
        monkeypatch.setattr(experiment, name, refuse)
    report = run_orthogonality_experiment(SWEEP_DENSE_LIKE)
    assert len(report.sweep) == len(SWEEP_DENSE_LIKE.d_values)


def test_the_sweep_allocates_no_grid_sized_complex_arrays():
    # the fine grid has 256 x 32 nodes: 64 KiB per real array, 128 KiB per
    # complex one; a complex overlap with its products peaks near 690 KB,
    # the real factors near 290 KB
    run_orthogonality_experiment(SWEEP_DENSE_LIKE)  # warm-up
    tracemalloc.start()
    try:
        run_orthogonality_experiment(SWEEP_DENSE_LIKE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 450_000


def test_a_grid_that_cannot_normalize_the_p_state_bounds_nothing():
    # one polar node lies on the equator, where Y10 vanishes exactly, so the
    # coarse grid cannot normalize the p state and gives no error bar
    report = run_orthogonality_experiment(replace(SMALL, n_theta=1))
    assert report.i01_error == math.inf
    for entry in report.sweep:
        assert entry.error == math.inf
        assert math.isfinite(entry.u.real) and entry.u.real != 0.0


def test_well_modes_are_solved_once_per_experiment(monkeypatch):
    calls = []
    original = experiment.solve_well_mode

    def counted(l, R, mass):
        calls.append(l)
        return original(l, R, mass)

    monkeypatch.setattr(experiment, "solve_well_mode", counted)
    for n in (1, 16):
        calls.clear()
        d_values = tuple(1.5 + 0.25 * k for k in range(n))
        run_orthogonality_experiment(replace(SMALL, d_values=d_values))
        assert sorted(calls) == [0, 1]


def test_each_rule_is_built_once_per_process():
    # orders 8 and 16 for the coarse grid, 8 again and 32 for the fine one
    numerics._gauss_legendre.cache_clear()
    run_orthogonality_experiment(ExperimentConfig())
    info = numerics._gauss_legendre.cache_info()
    assert (info.misses, info.hits) == (3, 1)
    run_orthogonality_experiment(ExperimentConfig())
    assert numerics._gauss_legendre.cache_info().misses == 3


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


def test_report_keys_are_its_fields_in_order():
    payload = run_orthogonality_experiment(SMALL).to_json_dict()
    assert list(payload) == [f.name for f in fields(experiment.ExperimentReport)]


def test_report_dict_holds_a_copy_of_the_parameters():
    report = run_orthogonality_experiment(SMALL)
    before = dict(report.parameters)
    payload = report.to_json_dict()
    payload["parameters"]["R"] = -1.0
    payload["parameters"]["extra"] = True
    assert report.parameters == before
    assert report.to_json_dict()["parameters"] == before
