"""Command-line front end: one subcommand per verification suite.

Each subcommand runs a set of named checks and prints one pass/fail line
per check (values shown to 12 significant digits).  With ``--out`` the
full report is written as JSON (floats at 17 significant digits, fixed key
order, byte-identical across identical invocations) or CSV.  Exit status:
0 when every check passed, 1 when some check failed (the failing claim is
named), 2 on I/O problems and on bad parameter values, which are rejected
before any suite runs.  Argument errors exit nonzero via argparse.
"""
from __future__ import annotations

import argparse
import csv
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

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


def _fmt(value: float, digits: int = 12) -> str:
    return format(float(value), f".{digits}g")


def _json_text(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{key}": {_json_text(val, indent + 1)}'
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_text(val, indent + 1)}" for val in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    text = str(obj)
    escaped = text.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


class Check:
    def __init__(self, name: str, passed: bool, detail: str):
        self.name = name
        self.passed = bool(passed)
        self.detail = detail

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _print_checks(title: str, checks: Sequence[Check]) -> None:
    print(f"== {title}")
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: {check.detail}")


# ----- individual suites --------------------------------------------------------


def dimension_checks() -> List[Check]:
    spinor = dims.infer_field_dimension(dims.Dim(-1))
    scalar = dims.infer_field_dimension(dims.Dim(-2))
    psi_dim = {"psi": dims.Dim(Fraction(-3, 2))}
    phi_dim = {"phi": dims.Dim(-1)}
    density_psi = dims.TermSpec(field_powers={"psi": 2})
    density_phi_bare = dims.TermSpec(field_powers={"phi": 2})
    density_phi_current = dims.TermSpec(field_powers={"phi": 2}, derivative_count=1)
    checks = [
        Check(
            "spinor_field_dimension",
            spinor.exponent == Fraction(-3, 2),
            f"inferred exponent {spinor.exponent} (expected -3/2)",
        ),
        Check(
            "scalar_field_dimension",
            scalar.exponent == Fraction(-1),
            f"inferred exponent {scalar.exponent} (expected -1)",
        ),
        Check(
            "spinor_density_requirement_A",
            dims.check_density_requirement_A(density_psi, psi_dim),
            "psi^dag psi carries dimension -3",
        ),
        Check(
            "scalar_current_density_requirement_A",
            dims.check_density_requirement_A(density_phi_current, phi_dim),
            "i(phi* d0 phi - d0 phi* phi) carries dimension -3",
        ),
        Check(
            "bare_modulus_fails_requirement_A",
            not dims.check_density_requirement_A(density_phi_bare, phi_dim),
            "phi* phi carries dimension -2, not -3",
        ),
        Check(
            "nonrelativistic_limit_clash",
            scalar.exponent != Fraction(-3, 2),
            "scalar dimension -1 cannot match the -3/2 of a Schroedinger density",
        ),
    ]
    return checks


def derive_checks() -> List[Check]:
    el_dirac = symexpr.euler_lagrange(symexpr.dirac_lagrangian(), "psibar")
    el_kg = symexpr.euler_lagrange(symexpr.kg_lagrangian(), "phi_star")
    leg_dirac = symexpr.legendre_transform(
        symexpr.dirac_lagrangian(), ["psi", "psibar"]
    )
    leg_kg = symexpr.legendre_transform(
        symexpr.kg_lagrangian(), ["phi", "phi_star"]
    )
    printed = symexpr.kg_hamiltonian_density()
    rho = symexpr.kg_charge_density()
    e_v = symexpr.constant("e") * symexpr.potential("V")
    has_time = any(
        0 in derivs for mono in leg_dirac.terms for (_n, derivs) in mono
    )
    return [
        Check(
            "spinor_field_equation",
            el_dirac == symexpr.dirac_field_equation(),
            "Euler-Lagrange output matches the expected spinor equation",
        ),
        Check(
            "scalar_field_equation",
            el_kg == symexpr.kg_field_equation(),
            "Euler-Lagrange output matches the expected covariant scalar equation",
        ),
        Check(
            "spinor_hamiltonian_time_derivative_free",
            not has_time,
            "Legendre transform of the spinor Lagrangian has no d0 factor",
        ),
        Check(
            "scalar_hamiltonian_matches_quoted_form",
            leg_kg == printed,
            "Legendre transform of the scalar Lagrangian vs the quoted "
            "sum-of-squares energy density (they differ by e*V*rho unless "
            "e*V = 0)",
        ),
        Check(
            "scalar_hamiltonian_offset_is_potential_energy",
            printed == leg_kg - e_v * rho,
            "quoted energy density equals the Legendre transform minus e*V*rho",
        ),
        Check(
            "free_scalar_hamiltonian_matches_quoted_form",
            symexpr.set_charge_zero(leg_kg) == symexpr.set_charge_zero(printed),
            "at e=0 the Legendre transform equals the quoted form node for node",
        ),
    ]


def symmetry_checks() -> List[Check]:
    ham = symexpr.classify_time_symmetry(symexpr.kg_hamiltonian_density())
    rho_kg = symexpr.classify_time_symmetry(symexpr.kg_charge_density())
    rho_dirac = symexpr.classify_time_symmetry(symexpr.dirac_charge_density())
    real_rho = symexpr.substitute_real(
        symexpr.kg_charge_density(), charge_to_zero=True
    )
    return [
        Check(
            "kg_hamiltonian_symmetric",
            ham is symexpr.TermSymmetry.SYMMETRIC,
            f"classification: {ham.value}",
        ),
        Check(
            "kg_density_antisymmetric",
            rho_kg is symexpr.TermSymmetry.ANTISYMMETRIC,
            f"classification: {rho_kg.value}",
        ),
        Check(
            "dirac_density_no_time_derivative",
            rho_dirac is symexpr.TermSymmetry.NO_TIME_DERIVATIVE,
            f"classification: {rho_dirac.value}",
        ),
        Check(
            "real_scalar_density_vanishes",
            real_rho.is_zero,
            "substituting phi* = phi and e = 0 annihilates the density",
        ),
    ]


def _axes(n: int, h: float, nt: int, dt: float):
    t = np.arange(nt) * dt
    x = np.arange(n) * h
    tt, xx, yy, zz = np.meshgrid(t, x, x, x, indexing="ij")
    return tt, (xx, yy, zz)


def _dirac_current_on_stencil(waves, n, h, nt, dt):
    tt, xyz = _axes(n, h, nt, dt)
    psi = sum(w.sample(xyz, tt) for w in waves)
    return fieldops.dirac_current(psi, spacings=(dt, h, h, h))


def _kg_current_on_stencil(waves, n, h, nt, dt):
    tt, xyz = _axes(n, h, nt, dt)
    phi = sum(w.sample(xyz, tt) for w in waves)
    phi_t = sum(w.time_derivative(xyz, tt) for w in waves)
    grad = sum(w.gradient(xyz, tt) for w in waves)
    return fieldops.kg_current(
        phi, phi_t, grad_phi=grad, spacings=(dt, h, h, h)
    )


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

    res_d = _dirac_current_on_stencil(single_d, 8, 0.2, 6, 0.1).divergence_residual()
    res_k = _kg_current_on_stencil(single_k, 8, 0.2, 6, 0.1).divergence_residual()

    def order(builder, waves):
        coarse = builder(waves, 11, 0.2, 7, 0.2).divergence_residual()
        fine = builder(waves, 21, 0.1, 13, 0.1).divergence_residual()
        return float(np.log2(coarse / fine)), coarse, fine

    order_d, cd, fd = order(_dirac_current_on_stencil, pair_d)
    order_k, ck, fk = order(_kg_current_on_stencil, pair_k)
    return [
        Check(
            "dirac_plane_wave_residual",
            res_d <= 1e-10,
            f"max |d0 rho + div j| = {_fmt(res_d)} <= 1e-10",
        ),
        Check(
            "kg_plane_wave_residual",
            res_k <= 1e-10,
            f"max |d0 rho + div j| = {_fmt(res_k)} <= 1e-10",
        ),
        Check(
            "dirac_superposition_order",
            order_d >= 1.9,
            f"residual {_fmt(cd)} -> {_fmt(fd)}, observed order {_fmt(order_d)}",
        ),
        Check(
            "kg_superposition_order",
            order_k >= 1.9,
            f"residual {_fmt(ck)} -> {_fmt(fk)}, observed order {_fmt(order_k)}",
        ),
    ]


def dirac_consistency_checks() -> List[Check]:
    mass = 1.0
    wave = fieldops.SpinorPlaneWave.build((1.0, 1.0, 0.0), mass)

    def residual(n):
        h = 2.0 * np.pi / n
        axes = [np.arange(n) * h] * 3
        xx, yy, zz = np.meshgrid(*axes, indexing="ij")
        psi = wave.sample((xx, yy, zz), 0.0)
        h_psi = fieldops.dirac_hamiltonian_apply(psi, (h, h, h), mass)
        return float(np.max(np.abs(h_psi - wave.energy * psi))), h, psi

    coarse, h_c, psi_c = residual(16)
    fine, _h, _p = residual(32)
    order = float(np.log2(coarse / fine))

    e, v0 = 1.0, 0.7
    v_field = np.full(psi_c.shape[1:], v0)
    h_free = fieldops.dirac_hamiltonian_apply(psi_c, (h_c, h_c, h_c), mass)
    h_pot = fieldops.dirac_hamiltonian_apply(
        psi_c, (h_c, h_c, h_c), mass, e=e, V=v_field
    )
    shift_err = float(np.max(np.abs(h_pot - h_free - e * v0 * psi_c)))
    return [
        Check(
            "schrodinger_form_order",
            order >= 1.9,
            f"(H - i d/dt) residual {_fmt(coarse)} -> {_fmt(fine)}, "
            f"observed order {_fmt(order)}",
        ),
        Check(
            "residual_quadratic_in_h",
            fine <= coarse / 3.5,
            f"halving h scales the residual by {_fmt(fine / coarse)}",
        ),
        Check(
            "constant_potential_shift",
            shift_err <= 1e-10,
            f"|H(V)psi - H(0)psi - eV psi| = {_fmt(shift_err)} <= 1e-10",
        ),
    ]


def orthogonality_checks(
    config: experiment.ExperimentConfig,
) -> tuple[List[Check], experiment.ExperimentReport]:
    report = experiment.run_orthogonality_experiment(config)
    checks = [
        Check(
            "zero_potential_orthogonality",
            abs(report.i01) <= 1e-10,
            f"|I01| = {_fmt(abs(report.i01))} <= 1e-10",
        )
    ]
    coupled = config.e * config.q != 0.0
    for entry in report.sweep:
        if coupled:
            checks.append(
                Check(
                    f"u_exceeds_error_d={entry.d:g}",
                    abs(entry.u) > 10.0 * entry.error,
                    f"|U| = {_fmt(abs(entry.u))} vs 10*error = "
                    f"{_fmt(10.0 * entry.error)}",
                )
            )
        else:
            checks.append(
                Check(
                    f"u_vanishes_d={entry.d:g}",
                    abs(entry.u) <= 1e-15,
                    f"|U| = {_fmt(abs(entry.u))} with e*q = 0",
                )
            )
    if report.u_monotone_decreasing_in_d is not None:
        checks.append(
            Check(
                "u_monotone_decreasing_in_d",
                bool(report.u_monotone_decreasing_in_d),
                "|U| strictly decreases as the charge recedes",
            )
        )
    return checks, report


# ----- argument handling ---------------------------------------------------------


def _parse_d_list(text: str) -> tuple:
    try:
        values = tuple(float(part) for part in text.split(",") if part)
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad distance list {text!r}") from err
    if not values:
        raise argparse.ArgumentTypeError("empty distance list")
    return values


CONFIG_KEYS = ("R", "mass", "e", "q", "d", "resolution", "refine")


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text.lower() == "true"


def load_config(path: str) -> Dict[str, str]:
    """Flat key=value file over CONFIG_KEYS, each key at most once; blank
    lines and # comments ignored."""
    values: Dict[str, str] = {}
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
            values[key] = value.strip()
    return values


def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
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
        p.add_argument("--config", help="flat key=value parameter file")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument(
            "--format", choices=("json", "csv"), default="json",
            help="report file format (default json)",
        )
        if name in ("orthogonality", "all"):
            p.add_argument(
                "--d", type=_parse_d_list, default=None,
                help="comma-separated charge distances, e.g. 1.5,2,4",
            )
            p.add_argument(
                "--resolution", type=int, default=None,
                help="base grid resolution (radial panels and angular orders)",
            )
            p.add_argument(
                "--refine", action="store_true",
                help="double the base resolution used for the error bars",
            )
    return parser.parse_args(argv)


def _experiment_config(
    args: argparse.Namespace, file_cfg: Dict[str, str]
) -> experiment.ExperimentConfig:
    """Flags over config values over defaults; ValueError names a bad input."""

    def pick(flag_value, key: str, cast, default):
        if flag_value is not None:
            return flag_value
        if key not in file_cfg:
            return default
        try:
            return cast(file_cfg[key])
        except (ValueError, argparse.ArgumentTypeError) as err:
            raise ValueError(f"config key {key}: {err}") from None

    resolution = pick(
        getattr(args, "resolution", None), "resolution", int, 16
    )
    if getattr(args, "refine", False) or pick(None, "refine", _parse_bool, False):
        resolution *= 2
    return experiment.ExperimentConfig(
        R=pick(None, "R", float, 1.0),
        mass=pick(None, "mass", float, 1.0),
        e=pick(None, "e", float, 1.0),
        q=pick(None, "q", float, 1.0),
        d_values=pick(
            getattr(args, "d", None), "d", _parse_d_list, (1.5, 2.0, 4.0)
        ),
        n_panels=resolution,
        order=8,
        n_theta=resolution,
        n_phi=resolution,
    )


def _write_report(
    args: argparse.Namespace,
    report: dict,
    exp_report: Optional[experiment.ExperimentReport],
) -> None:
    if not args.out:
        return
    with open(args.out, "w", newline="") as fh:
        if args.format == "json":
            fh.write(_json_text(report) + "\n")
        elif args.command == "orthogonality":
            csv.writer(fh).writerows(exp_report.to_csv_rows())
        else:
            writer = csv.writer(fh)
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
    suites = list(_SUITES) if args.command == "all" else [args.command]

    try:
        file_cfg = load_config(args.config) if args.config else {}
    except (OSError, ValueError) as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 2
    try:
        config = _experiment_config(args, file_cfg)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    report: dict = {"command": args.command, "suites": []}
    exp_report = None
    for suite in suites:
        if suite == "orthogonality":
            checks, exp_report = _SUITES[suite](config)
            extra = {"experiment": exp_report.to_json_dict()}
        else:
            checks, extra = _SUITES[suite](), {}
        report["suites"].append(
            {
                "suite": suite,
                "claim": SUBCOMMAND_CLAIMS[suite],
                "checks": [c.as_dict() for c in checks],
                **extra,
            }
        )
        _print_checks(suite, checks)

    failing = [
        c["name"] for suite in report["suites"] for c in suite["checks"]
        if not c["passed"]
    ]
    report["passed"] = not failing
    try:
        _write_report(args, report, exp_report)
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
