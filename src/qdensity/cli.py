"""Command-line front end: one subcommand per verification suite.

Each subcommand runs a set of named checks and prints one pass/fail line
per check (values shown to 12 significant digits).  A check is a row whose
``passed`` is ``value relation bound``, decided in ``Check.passed`` alone.
With ``--out`` the full report is written as one line of JSON (floats as
their shortest round-trip ``repr``, fixed key order, byte-identical across
identical invocations; each check carries its ``value``, ``relation`` and
``bound``) or CSV.  Exit status: 0 when every check passed, 1 when some
check failed (the failing claim is named), 2 on I/O problems and on bad
parameter values, which are rejected before any suite runs.  Argument
errors exit nonzero via argparse.
"""
from __future__ import annotations

import argparse
import cmath
import csv
import functools
import json
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from . import dims, experiment, fieldops, symexpr

SUBCOMMAND_CLAIMS = {
    "dimensions": (
        "length-dimension bookkeeping: a first-order bilinear Lagrangian "
        "operator forces field dimension -3/2, a second-order one -1, and "
        "the candidate densities carry dimension -3"
    ),
    "derive": (
        "field equations and Hamiltonian densities derived symbolically "
        "from the Lagrangian densities match the expected closed forms"
    ),
    "symmetry": (
        "highest time-derivative terms: scalar energy density is symmetric "
        "under conjugate exchange, scalar charge density antisymmetric, "
        "spinor density derivative-free; a real scalar carries no density"
    ),
    "continuity": (
        "sampled 4-currents of exact solutions satisfy the continuity "
        "equation to second order in the grid spacing"
    ),
    "dirac-consistency": (
        "the spinor Hamiltonian operator reproduces i d/dt on exact "
        "solutions and shifts eigenvalues by exactly eV under a constant "
        "potential"
    ),
    "orthogonality": (
        "scalar well states with different angular momenta are orthogonal "
        "at zero potential, and an off-axis external charge destroys the "
        "orthogonality through the -2eV density term"
    ),
    "all": "every verification suite in sequence",
}


# ----- report plumbing ----------------------------------------------------------


def _fmt(value: float) -> str:
    return format(float(value), ".12g")


#: the relations a check may state; ``Check.passed`` is the one place they are applied
_RELATIONS = {
    "<=": operator.le, ">=": operator.ge, ">": operator.gt,
    "==": operator.eq, "!=": operator.ne,
}


@dataclass(frozen=True)
class Check:
    """One claim as a row: it passes when ``value relation bound`` holds.

    ``detail`` fills ``{value}`` and ``{bound}`` in ``template`` with floats
    at 12 significant digits and ``str`` of anything else.
    """

    name: str
    value: object
    relation: str
    bound: object
    template: str

    @property
    def passed(self) -> bool:
        return bool(_RELATIONS[self.relation](self.value, self.bound))

    @property
    def detail(self) -> str:
        value, bound = (
            _fmt(x) if isinstance(x, float) else str(x)
            for x in (self.value, self.bound)
        )
        return self.template.format(value=value, bound=bound)

    def as_dict(self) -> dict:
        return {
            "name": self.name, "passed": self.passed, "detail": self.detail,
            "value": self.value, "relation": self.relation, "bound": self.bound,
        }


# ----- individual suites --------------------------------------------------------


def dimension_checks() -> List[Check]:
    spinor = dims.infer_field_dimension(dims.Dim(-1)).exponent
    scalar = dims.infer_field_dimension(dims.Dim(-2)).exponent
    psi_dim = {"psi": dims.Dim(Fraction(-3, 2))}
    phi_dim = {"phi": dims.Dim(-1)}
    density_psi = dims.TermSpec(field_powers={"psi": 2})
    density_phi_bare = dims.TermSpec(field_powers={"phi": 2})
    density_phi_current = dims.TermSpec(field_powers={"phi": 2}, derivative_count=1)
    inferred = "inferred exponent {value} (expected {bound})"
    return [
        Check("spinor_field_dimension", spinor, "==", Fraction(-3, 2), inferred),
        Check("scalar_field_dimension", scalar, "==", Fraction(-1), inferred),
        Check("spinor_density_requirement_A",
              dims.check_density_requirement_A(density_psi, psi_dim), "==", True,
              "psi^dag psi carries dimension -3"),
        Check("scalar_current_density_requirement_A",
              dims.check_density_requirement_A(density_phi_current, phi_dim),
              "==", True, "i(phi* d0 phi - d0 phi* phi) carries dimension -3"),
        Check("bare_modulus_fails_requirement_A",
              not dims.check_density_requirement_A(density_phi_bare, phi_dim),
              "==", True, "phi* phi carries dimension -2, not -3"),
        Check("nonrelativistic_limit_clash", scalar, "!=", Fraction(-3, 2),
              "scalar dimension {value} cannot match the {bound} of a Schroedinger "
              "density"),
    ]


def derive_checks() -> List[Check]:
    dirac, kg = symexpr.dirac_lagrangian(), symexpr.kg_lagrangian()
    el_dirac = symexpr.euler_lagrange(dirac, "psibar")
    el_kg = symexpr.euler_lagrange(kg, "phi_star")
    leg_dirac = symexpr.legendre_transform(dirac, ["psi", "psibar"])
    leg_kg = symexpr.legendre_transform(kg, ["phi", "phi_star"])
    printed = symexpr.kg_hamiltonian_density()
    rho = symexpr.kg_charge_density()
    e_v = symexpr.constant("e") * symexpr.potential("V")
    no_time = symexpr.TermSymmetry.NO_TIME_DERIVATIVE
    return [
        Check("spinor_field_equation", el_dirac == symexpr.dirac_field_equation(),
              "==", True, "Euler-Lagrange output matches the expected spinor equation"),
        Check("scalar_field_equation", el_kg == symexpr.kg_field_equation(), "==", True,
              "Euler-Lagrange output matches the expected covariant scalar equation"),
        Check("spinor_hamiltonian_time_derivative_free",
              symexpr.classify_time_symmetry(leg_dirac) is no_time, "==", True,
              "Legendre transform of the spinor Lagrangian has no d0 factor"),
        Check("scalar_hamiltonian_matches_quoted_form", leg_kg == printed, "==", True,
              "Legendre transform of the scalar Lagrangian vs the quoted "
              "sum-of-squares energy density (they differ by e*V*rho unless "
              "e*V = 0)"),
        Check("scalar_hamiltonian_offset_is_potential_energy",
              printed == leg_kg - e_v * rho, "==", True,
              "quoted energy density equals the Legendre transform minus e*V*rho"),
        Check("free_scalar_hamiltonian_matches_quoted_form",
              symexpr.set_charge_zero(leg_kg) == symexpr.set_charge_zero(printed),
              "==", True,
              "at e=0 the Legendre transform equals the quoted form node for node"),
    ]


def symmetry_checks() -> List[Check]:
    rho = symexpr.kg_charge_density()
    ham = symexpr.classify_time_symmetry(symexpr.kg_hamiltonian_density())
    rho_kg = symexpr.classify_time_symmetry(rho)
    rho_dirac = symexpr.classify_time_symmetry(symexpr.dirac_charge_density())
    real_rho = symexpr.substitute_real(rho, charge_to_zero=True)
    kind, classified = symexpr.TermSymmetry, "classification: {value}"
    return [
        Check("kg_hamiltonian_symmetric", ham.value, "==", kind.SYMMETRIC.value,
              classified),
        Check("kg_density_antisymmetric", rho_kg.value, "==", kind.ANTISYMMETRIC.value,
              classified),
        Check("dirac_density_no_time_derivative", rho_dirac.value, "==",
              kind.NO_TIME_DERIVATIVE.value, classified),
        Check("real_scalar_density_vanishes", real_rho.is_zero, "==", True,
              "substituting phi* = phi and e = 0 annihilates the density"),
    ]


def _box_samples(waves, shape, spacings):
    """Each wave sampled once, at t = 0 (where e^0 is exactly 1), on a box of
    ``shape`` nodes with ``spacings``: a slice at t is it times e^{-i omega t}."""
    axes = [np.arange(n) * h for n, h in zip(shape, spacings)]
    xyz = np.meshgrid(*axes, indexing="ij", sparse=True)
    return [wave.sample(xyz, 0.0) for wave in waves]


def _phased_box_samples(waves, omegas, shape, h, nt, dt):
    """Each wave on the whole (nt,) + ``shape`` stencil: its t = 0 box sample
    times its phase e^{-i omega t}, on a time axis just before the box axes."""
    times = np.arange(nt) * dt
    phases = [[cmath.exp(-1j * omega * t) for t in times] for omega in omegas]
    # sample first: numpy's complex product may round a * b and b * a apart
    return [np.expand_dims(sample, -4) * np.reshape(phase, (-1, 1, 1, 1))
            for sample, phase in zip(_box_samples(waves, shape, (h, h, h)), phases)]


def _dirac_current_on_stencil(waves, shape, h, nt, dt):
    psi, *rest = _phased_box_samples(waves, [w.energy for w in waves], shape, h, nt, dt)
    for field in rest:
        psi += field
    return fieldops.dirac_current(psi, (dt, h, h, h))


def _kg_current_on_stencil(waves, shape, h, nt, dt):
    phi, *rest = _phased_box_samples(waves, [w.omega for w in waves], shape, h, nt, dt)
    # one product per wave: d/dt and grad of e^{i(k.x - omega t)} are factors;
    # each sum starts from the first wave's term and adds the others in place
    phi_t = -1j * waves[0].omega * phi
    grad = np.multiply.outer(1j * waves[0].k, phi)
    for wave, base in zip(waves[1:], rest):
        phi_t += -1j * wave.omega * base
        for k in range(3):
            grad[k] += 1j * wave.k[k] * base
        phi += base
    return fieldops.kg_current(phi, phi_t, grad_phi=grad, spacings=(dt, h, h, h))


def _order_check(name: str, what: str, coarse: float, fine: float) -> Check:
    """Second order in h: log2 of the residual at h over the residual at h/2."""
    return Check(name, float(np.log2(coarse / fine)), ">=", 1.9,
                 f"{what} {_fmt(coarse)} -> {_fmt(fine)}, observed order {{value}}")


def continuity_checks() -> List[Check]:
    mass = 1.0
    single_d = [fieldops.SpinorPlaneWave.build((0.7, -0.3, 0.4), mass)]
    single_k = [fieldops.KGPlaneWave.free(0.8 + 0.3j, (0.6, 0.2, -0.5), mass)]
    pair_d = [
        fieldops.SpinorPlaneWave.build((0.9, 0.0, 0.2), mass, s=1),
        fieldops.SpinorPlaneWave.build((-0.4, 1.1, 0.6), mass, s=2),
    ]
    pair_k = [
        fieldops.KGPlaneWave.free(1.0, (1.2, 0.0, 0.4), mass),
        fieldops.KGPlaneWave.free(0.5 - 0.2j, (-0.3, 0.9, 1.0), mass),
    ]

    def residual(stencil, waves, n, h, nt, dt):
        # a line of centres along x, one interior node in y and z (README: continuity)
        return stencil(waves, (n, 3, 3), h, nt, dt).divergence_residual()

    def order(name, stencil, waves):
        coarse = residual(stencil, waves, 11, 0.2, 7, 0.2)
        fine = residual(stencil, waves, 21, 0.1, 13, 0.1)
        return _order_check(name, "residual", coarse, fine)

    plane = "max |d0 rho + div j| = {value} <= {bound}"
    return [
        Check("dirac_plane_wave_residual",
              residual(_dirac_current_on_stencil, single_d, 8, 0.2, 6, 0.1),
              "<=", 1e-10, plane),
        Check("kg_plane_wave_residual",
              residual(_kg_current_on_stencil, single_k, 8, 0.2, 6, 0.1),
              "<=", 1e-10, plane),
        order("dirac_superposition_order", _dirac_current_on_stencil, pair_d),
        order("kg_superposition_order", _kg_current_on_stencil, pair_k),
    ]


def dirac_consistency_checks() -> List[Check]:
    mass = 1.0
    wave = fieldops.SpinorPlaneWave.build((1.0, 1.0, 0.0), mass)

    def residual(n):
        # p_z = 0, so every z slice of psi is the same bits (exp(1j * 0 * z) is
        # exactly 1) and every z difference is exactly 0: the maximum over z of
        # any pointwise quantity is its value on one slice, and 3 z nodes, the
        # stencil's minimum, give the same bits as n of them
        h = 2.0 * np.pi / n
        (psi,) = _box_samples([wave], (n, n, 3), (h, h, h))
        h_psi = fieldops.dirac_hamiltonian_apply(psi, (h, h, h), mass)
        deviation = wave.energy * psi
        np.subtract(h_psi, deviation, out=deviation)
        return float(np.max(np.abs(deviation))), h, psi, h_psi

    coarse, h_c, psi_c, h_free = residual(16)
    fine = residual(32)[0]

    e, v0 = 1.0, 0.7
    h_pot = fieldops.dirac_hamiltonian_apply(psi_c, (h_c, h_c, h_c), mass, e=e, V=v0)
    h_pot -= h_free
    h_pot -= e * v0 * psi_c
    return [
        _order_check("schrodinger_form_order", "(H - i d/dt) residual", coarse, fine),
        Check("residual_quadratic_in_h", fine / coarse, "<=", 1 / 3.5,
              "halving h scales the residual by {value}"),
        Check("constant_potential_shift", float(np.max(np.abs(h_pot))), "<=", 1e-10,
              "|H(V)psi - H(0)psi - eV psi| = {value} <= {bound}"),
    ]


def orthogonality_checks(
    config: experiment.ExperimentConfig,
) -> tuple[List[Check], experiment.ExperimentReport]:
    report = experiment.run_orthogonality_experiment(config)
    checks = [Check("zero_potential_orthogonality", abs(report.i01), "<=", 1e-10,
                    "|I01| = {value} <= {bound}")]
    coupled = config.e * config.q != 0.0
    for entry in report.sweep:
        d = f"{entry.d:g}"  # the short form unless it reads back as another distance
        if float(d) != entry.d:
            d = repr(entry.d)
        checks.append(
            Check(f"u_exceeds_error_d={d}", abs(entry.u), ">", 10.0 * entry.error,
                  "|U| = {value} vs 10*error = {bound}") if coupled else
            Check(f"u_vanishes_d={d}", abs(entry.u), "<=", 1e-15,
                  "|U| = {value} with e*q = 0")
        )
    if report.u_monotone_decreasing_in_d is not None:
        checks.append(Check("u_monotone_decreasing_in_d",
                            report.u_monotone_decreasing_in_d, "==", True,
                            "|U| strictly decreases as the charge recedes"))
    return checks, report


# ----- argument handling ---------------------------------------------------------


def _parse_d_list(text: str) -> tuple:
    parts = text.split(",")
    if not all(part.strip() for part in parts):
        raise argparse.ArgumentTypeError(f"empty item in distance list {text!r}")
    try:
        return tuple(float(part) for part in parts)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad distance list {text!r}") from err


def _parse_real(text: str) -> float:
    """``float(text)``, refused where a nonzero number would run as zero."""
    value = float(text)
    if value == 0.0 and Fraction(text) != 0:
        raise ValueError(f"{text!r} is not zero but rounds to 0.0")
    return value


#: each config key and the parser of its value
CONFIG_KEYS = {
    "R": _parse_real, "mass": _parse_real, "e": _parse_real, "q": _parse_real,
    "d": _parse_d_list, "resolution": int,
}


def load_config(path: str) -> dict:
    """Flat key=value file over CONFIG_KEYS, each key at most once and each
    value parsed as it is read; blank lines and # comments ignored."""
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            try:
                values[key] = CONFIG_KEYS[key](value.strip())
            except (ValueError, argparse.ArgumentTypeError) as err:
                raise ValueError(f"{path}:{lineno}: key {key}: {err}") from None
    return values


@functools.cache
def _parser() -> argparse.ArgumentParser:  # built once; parsing does not change it
    parser = argparse.ArgumentParser(
        prog="qdensity",
        description=(
            "Verification workbench for density consistency of relativistic "
            "wave equations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, claim in SUBCOMMAND_CLAIMS.items():
        p = sub.add_parser(name, help=claim, description=f"Verifies: {claim}")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument(
            "--format", choices=("json", "csv"), default=None,
            help="report file format, given only with --out (default json)",
        )
        if name in ("orthogonality", "all"):
            p.add_argument("--config", help="flat key=value parameter file")
            p.add_argument(
                "--d", type=_parse_d_list, default=None,
                help="comma-separated charge distances, e.g. 1.5,2,4",
            )
            p.add_argument(
                "--resolution", type=int, default=None,
                help="base grid resolution: radial panels and polar order "
                "(the azimuth takes one node, exact for these m = 0 integrands)",
            )
    return parser


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    return _parser().parse_args(argv)


def _experiment_config(args: argparse.Namespace) -> experiment.ExperimentConfig:
    """Flags over the config file's values; ExperimentConfig holds the defaults."""
    try:
        given = load_config(args.config) if args.config else {}
    except (OSError, ValueError) as err:
        raise ValueError(f"cannot read config: {err}") from err
    for key in ("d", "resolution"):
        if getattr(args, key) is not None:
            given[key] = getattr(args, key)
    if "d" in given:
        given["d_values"] = given.pop("d")
    if "resolution" in given:
        n = given.pop("resolution")
        given.update(n_panels=n, n_theta=n, n_phi=n)
    return experiment.ExperimentConfig(**given)


def _write_report(args: argparse.Namespace, report: dict) -> None:
    if not args.out:
        return
    with open(args.out, "w", newline="") as fh:
        if args.format in (None, "json"):
            # no indent: only the one-shot C encoder leaves no reference cycles;
            # default=str writes the Fraction exponents as "-3/2"
            fh.write(json.dumps(report, default=str) + "\n")
            return
        writer = csv.writer(fh)
        if args.command == "orthogonality":
            writer.writerow(["d", "re_u", "im_u", "error"])
            writer.writerows(
                [repr(float(entry[k])) for k in ("d", "u_re", "u_im", "error")]
                for entry in report["suites"][0]["experiment"]["sweep"]
            )
        else:
            writer.writerow(["suite", "check", "passed", "detail"])
            writer.writerows(
                [suite["suite"], c["name"], str(c["passed"]).lower(), c["detail"]]
                for suite in report["suites"]
                for c in suite["checks"]
            )


_SUITES = {
    "dimensions": dimension_checks,
    "derive": derive_checks,
    "symmetry": symmetry_checks,
    "continuity": continuity_checks,
    "dirac-consistency": dirac_consistency_checks,
    "orthogonality": orthogonality_checks,
}


def run(args: argparse.Namespace) -> int:
    """Execute a parsed command; returns the process exit status."""
    if args.format is not None and not args.out:
        print(f"error: --format {args.format} needs --out", file=sys.stderr)
        return 2
    suites = list(_SUITES) if args.command == "all" else [args.command]

    if "orthogonality" in suites:
        try:
            config = _experiment_config(args)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2

    report: dict = {"command": args.command, "suites": []}
    for suite in suites:
        if suite == "orthogonality":
            checks, result = _SUITES[suite](config)
            extra = {"experiment": result.to_json_dict()}
        else:
            checks, extra = _SUITES[suite](), {}
        rows = [c.as_dict() for c in checks]  # each check decided and worded once
        report["suites"].append(
            {"suite": suite, "claim": SUBCOMMAND_CLAIMS[suite], "checks": rows, **extra}
        )
        print(f"== {suite}")
        for row in rows:
            status = "PASS" if row["passed"] else "FAIL"
            print(f"[{status}] {row['name']}: {row['detail']}")

    failing = [
        c["name"] for suite in report["suites"] for c in suite["checks"]
        if not c["passed"]
    ]
    report["passed"] = not failing
    try:
        _write_report(args, report)
    except OSError as err:
        print(f"error: cannot write report: {err}", file=sys.stderr)
        return 2
    if not failing:
        print("all checks passed")
        return 0
    print(f"failing checks: {', '.join(failing)}")
    return 1


def main(argv: Optional[Sequence[str]] = None) -> None:
    sys.exit(run(parse_args(argv)))


if __name__ == "__main__":
    main()
