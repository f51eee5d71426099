"""Run the mutation table against Tier-1 and write MUTANTS.json.

Usage:
    python3 tools/mutants.py

A mutant replaces one exact text, which must occur exactly once in its file,
by a new text.  For each mutant the tool copies ``src/``, ``tests/``,
``pyproject.toml`` and ``README.md`` into a temporary directory, applies the
mutant there and runs Tier-1 with ``-x -q``, one mutant at a time and never
in parallel.  A mutant is killed when Tier-1 fails; the first failing test
is recorded.  Mutant 0 is the unmutated tree: it must pass, and its wall
time is the recorded Tier-1 time.  Entries whose code is gone stay in the
table as obsolete, with the reason.  The exit status is 1 when mutant 0
fails or a mutant survives that is not argued equivalent.  Standard library
only.
"""
from __future__ import annotations

import importlib.util
import json
import os
import platform
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")
FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


@dataclass(frozen=True)
class Mutant:
    name: str
    origin: str  # where the mutant was first run or why it is in the table
    claim: str  # what the mutant attacks
    file: str = ""
    old: str = ""
    new: str = ""
    obsolete: str = ""  # why the mutated code no longer exists
    equivalent: str = ""  # why surviving it would not be a gap in the tests


CLI, NUM, FOPS, EXP, SYM = (
    f"src/qdensity/{name}.py"
    for name in ("cli", "numerics", "fieldops", "experiment", "symexpr")
)
WINDOW = "continuity window (hand-run when the residual became a time-slice window)"
BOUNDS = "check bounds and relations (hand-run when checks became rows)"
HAMILTONIAN = "dirac_hamiltonian_apply (hand-run on the Pauli-block kernel)"
Z_AXIS = "dirac_hamiltonian_apply z axis (hand-run; only the einsum oracle sees it)"
BESSEL = "Bessel series and tabulated zeros (hand-run)"
KERNEL = "one sign or constant per kernel"
SYMBOLIC = "symbolic ring (construction without a second zero filter)"
STENCIL = "continuity in fewer passes (one sample per wave per stencil, one product per term)"
VALUES = "value classes as dataclasses (generated equality, hash and repr)"
ONCE = "each symbolic check said once (one atom builder, one first-order guard)"
FORMATS = "one exact format per value (Gaussian-integer coefficients, float64 slices)"
CACHE = "each Gauss-Legendre rule built once per process (checked, then looked up)"
REFUSED = "inputs refused before a cast or a store hides them"
AXES = ("continuity on (n, 3, 3) boxes (hand-run: each flips both order rows at "
        "the parent and at the change)")

TABLE = (
    # --- the continuity window -------------------------------------------------
    Mutant("window_rho_after_is_the_middle_slice", WINDOW,
           "d0 rho is differenced over slices t-1 and t+1",
           NUM, "(before, _), (_, flux), (after, _) = window",
           "(before, _), (after, flux), (_, _) = window"),
    Mutant("window_flux_from_slice_t_minus_1", WINDOW,
           "div j is taken on the middle slice of the window",
           NUM, "(before, _), (_, flux), (after, _) = window",
           "(before, flux), (_, _), (after, _) = window"),
    Mutant("window_last_residual_dropped", WINDOW,
           "every interior time slice enters the max-norm",
           NUM, "return float(np.max(peaks))",
           "return float(np.max(peaks[:-1] or peaks))"),
    Mutant("window_4d_adapter_last_slice_dropped", WINDOW,
           "the 4D adapter feeds every time slice",
           obsolete="the 4D numerics.divergence_residual adapter was removed; "
           "FourCurrent.divergence_residual feeds the slices now (next entry)"),
    Mutant("four_current_last_slice_dropped", WINDOW + "; analog of the 4D adapter",
           "FourCurrent.divergence_residual feeds every time slice",
           FOPS, "zip(self.rho, self.j.swapaxes(0, 1))",
           "zip(self.rho[:-1], self.j.swapaxes(0, 1))"),
    Mutant("dirac_stencil_last_time_node_dropped", WINDOW,
           "the Dirac stencil yields every time node",
           CLI, "for t in np.arange(nt) * dt:  # (rho, j) one time slice at a time",
           "for t in (np.arange(nt) * dt)[:-1]:"),
    Mutant("window_advanced_twice", WINDOW + "; the window is now a list",
           "each slice enters the window once",
           NUM, "window = window[-2:] + [(rho_t, j_t)]",
           "window = window[-1:] + [(rho_t, j_t)] * 2"),
    # --- one axis of the residual ----------------------------------------------
    Mutant("residual_y_spacing_halved", AXES,
           "the y difference spans two y spacings",
           NUM, "diff /= 2.0 * spacings[axis + 1]",
           "diff /= (1.0 if axis == 1 else 2.0) * spacings[axis + 1]"),
    Mutant("residual_z_spacing_halved", AXES,
           "the z difference spans two z spacings",
           NUM, "diff /= 2.0 * spacings[axis + 1]",
           "diff /= (1.0 if axis == 2 else 2.0) * spacings[axis + 1]"),
    Mutant("residual_z_flux_dropped", AXES,
           "div j takes the z flux term",
           NUM, "        for axis in range(3):\n",
           "        for axis in range(2):\n"),
    # --- one sample per wave per stencil, one product per current term --------
    Mutant("dirac_stencil_phase_sign", STENCIL,
           "each Dirac slice carries e^{-i E t}",
           CLI, "psi += sample * cmath.exp(-1j * wave.energy * t)",
           "psi += sample * cmath.exp(+1j * wave.energy * t)"),
    Mutant("kg_stencil_phase_sign", STENCIL,
           "each KG slice carries e^{-i omega t}",
           CLI, "base = sample * cmath.exp(-1j * wave.omega * t)",
           "base = sample * cmath.exp(+1j * wave.omega * t)"),
    Mutant("spatial_sample_at_t_equals_h", STENCIL,
           "each wave is sampled at t = 0, where its time factor is exactly 1 "
           "(h equals dt on both order stencils)",
           CLI, "return [wave.sample(xyz, 0.0) for wave in waves]",
           "return [wave.sample(xyz, spacings[0]) for wave in waves]"),
    Mutant("kg_current_j_factor_sign", STENCIL,
           "j_k = +2 Im(phi* dk phi)",
           FOPS, "j[k] = 2.0 * (phi_star * grad_phi[k]).imag",
           "j[k] = -2.0 * (phi_star * grad_phi[k]).imag"),
    Mutant("kg_current_rho_sign", STENCIL,
           "rho = -2 Im(phi* d0 phi)",
           FOPS, "rho = -2.0 * (phi_star * phi_t).imag",
           "rho = 2.0 * (phi_star * phi_t).imag"),
    Mutant("dirac_rho_missing_im_of_component_3", STENCIL,
           "rho sums Im(psi_c)^2 over all four components",
           FOPS, "rho += np.square(psi[c].imag, out=part)",
           "rho += np.square(psi[c].imag, out=part) * (c != 3)"),
    # --- bounds and relations of the check rows --------------------------------
    Mutant("bound_constant_potential_shift", BOUNDS,
           "constant_potential_shift holds to 1e-10",
           CLI, 'float(np.max(np.abs(h_pot))), "<=", 1e-10',
           'float(np.max(np.abs(h_pot))), "<=", 1e-6'),
    Mutant("bound_residual_quadratic_in_h", BOUNDS,
           "halving h cuts the Dirac residual by at least 3.5",
           CLI, '"<=", 1 / 3.5', '"<=", 1 / 2.5'),
    Mutant("bound_u_exceeds_error", BOUNDS,
           "|U| exceeds ten error bars",
           CLI, "10.0 * entry.error", "1.0 * entry.error"),
    Mutant("bound_u_vanishes", BOUNDS,
           "an uncoupled U vanishes to 1e-15",
           CLI, '"<=", 1e-15', '"<=", 1e-12'),
    Mutant("bound_order_checks", BOUNDS,
           "the three order checks demand order 1.9",
           CLI, '">=", 1.9,', '">=", 1.5,'),
    Mutant("relation_le_is_lt", BOUNDS,
           "<= passes at the bound",
           CLI, '"<=": operator.le', '"<=": operator.lt'),
    Mutant("row_relation_le_to_lt", BOUNDS,
           "a row names only relations of the table",
           CLI, '"<=", 1 / 3.5', '"<", 1 / 3.5'),
    # --- the Dirac Hamiltonian -------------------------------------------------
    Mutant("hamiltonian_sigma_y_sign_upper_block", HAMILTONIAN,
           "sigma_y acts with its sign on the upper block",
           FOPS, "out[row] += np.multiply(sigma[row, col], kinetic[2 + col], out=term)",
           "out[row] += np.multiply(sigma[row, col] * (-1 if k == 1 else 1), "
           "kinetic[2 + col], out=term)"),
    Mutant("hamiltonian_sigma_z_sign_component_2", HAMILTONIAN,
           "sigma_z acts with its sign on component 2",
           FOPS, "out[2 + row] += np.multiply(sigma[row, col], kinetic[col], out=term)",
           "out[2 + row] += np.multiply(-sigma[row, col] if k == 2 and row == 0 "
           "else sigma[row, col], kinetic[col], out=term)"),
    Mutant("hamiltonian_lower_block_plus_m", HAMILTONIAN,
           "beta gives -m on the lower block",
           FOPS, "out[2:] -= kinetic[2:]", "out[2:] += kinetic[2:]"),
    Mutant("hamiltonian_wrong_partner_upper_block", HAMILTONIAN,
           "the upper block couples to its own partner component",
           FOPS, "out[row] += np.multiply(sigma[row, col], kinetic[2 + col], out=term)",
           "out[row] += np.multiply(sigma[row, col], kinetic[3 - col], out=term)"),
    Mutant("hamiltonian_sigma_z_sign", Z_AXIS,
           "sigma_z enters alpha_z with its sign",
           FOPS, "for k, sigma in enumerate(_PAULI):",
           "for k, sigma in enumerate(_PAULI[:2] + (-_PAULI[2],)):"),
    Mutant("hamiltonian_z_wrap_layer", Z_AXIS,
           "the z difference wraps to the far layer",
           FOPS, "np.subtract(field[1], field[-1], out=diff[0])",
           "np.subtract(field[1], field[0] if k == 2 else field[-1], out=diff[0])"),
    Mutant("hamiltonian_z_spacing", Z_AXIS,
           "the z difference divides by the z spacing",
           FOPS, "kinetic /= 2.0 * spacings[k]",
           "kinetic /= 2.0 * spacings[min(k, 1)]"),
    # --- Bessel series and tabulated zeros --------------------------------------
    Mutant("j0_series_constant", BESSEL,
           "j_0 = 1 - x^2/6 below 1e-6",
           NUM, "1.0 - x**2 / 6.0", "1.0 - x**2 / 5.0"),
    Mutant("j1_series_x5_term_dropped", BESSEL,
           "the j_1 series keeps its x^5 term",
           NUM, "for n in range(11)", "for n in range(11) if n != 2"),
    Mutant("first_zero_of_j1_last_digit", BESSEL,
           "the tabulated zero of j_1 is correctly rounded",
           NUM, "4.493409457909064", "4.493409457909065"),
    Mutant("first_zero_of_j0_last_digit", BESSEL,
           "the tabulated zero of j_0 is pi",
           NUM, "{0: math.pi,", "{0: 3.141592653589794,"),
    # --- one sign or constant per kernel ----------------------------------------
    Mutant("kg_current_minus_2eV_sign", KERNEL,
           "rho carries -2 e V |phi|^2",
           FOPS, "rho -= modulus", "rho += modulus"),
    Mutant("dirac_current_up0_lo1_sign", KERNEL,
           "j_y takes Im(up_0* lo_1) with a plus sign",
           FOPS, "j[0], j[1] = term.real, term.imag",
           "j[0], j[1] = term.real, -term.imag"),
    Mutant("dirac_current_up0_lo0_sign", KERNEL,
           "j_z takes Re(up_0* lo_0) with a plus sign",
           FOPS, "j[2] = term.real", "j[2] = -term.real"),
    Mutant("dirac_current_up1_lo0_sign", KERNEL,
           "j_x takes Re(up_1* lo_0) with a plus sign",
           FOPS, "j[0] += term.real", "j[0] -= term.real"),
    Mutant("dirac_current_up1_lo1_sign", KERNEL,
           "j_z takes Re(up_1* lo_1) with a minus sign",
           FOPS, "j[2] -= term.real", "j[2] += term.real"),
    Mutant("external_potential_cross_term_sign", KERNEL,
           "|x - d z|^2 has the cross term -2 r d cos(theta)",
           EXP, "- 2.0 * r * charge.d * c", "+ 2.0 * r * charge.d * c"),
    Mutant("composite_panel_half_width", KERNEL,
           "each panel maps [-1, 1] with its half width",
           NUM, "half = 0.5 * (hi - lo)", "half = (hi - lo)"),
    Mutant("y10_sign", KERNEL,
           "Y10 is +sqrt(3/4pi) cos(theta)",
           NUM, "0: math.sqrt(3.0 / (4.0 * math.pi)) * c,",
           "0: -math.sqrt(3.0 / (4.0 * math.pi)) * c,"),
    Mutant("exact_coefficient_drops_denominator",
           "ExactComplex.of (hand-run when coefficients became exact)",
           "a Fraction coefficient keeps its denominator",
           obsolete="coefficients are Gaussian integers and ExactComplex.of refuses "
           "a Fraction; of_accepts_fraction is its analog"),
    # --- the symbolic ring ------------------------------------------------------
    Mutant("collect_keeps_a_cancelled_coefficient", SYMBOLIC,
           "a sum that cancels leaves the expression",
           SYM, "            terms.pop(mono, None)", "            terms[mono] = total"),
    Mutant("scalar_product_ignores_a_zero_scalar", SYMBOLIC,
           "scaling by zero gives the zero expression",
           SYM, "            if not (k.re or k.im):\n"
           "                return FieldExpr()\n",
           ""),
    Mutant("exact_complex_eq_ignores_im", SYMBOLIC,
           "equal coefficients have equal imaginary parts",
           obsolete="ExactComplex's hand-written __eq__ was removed; dataclass "
           "generates it now, and exact_complex_im_not_compared is its analog"),
    Mutant("constructor_does_not_sort", SYMBOLIC,
           "FieldExpr(terms) sorts factors and multi-indices",
           SYM, "(tuple(sorted((n, tuple(sorted(d))) for n, d in mono)), "
           "ExactComplex.of(c))",
           "(mono, ExactComplex.of(c))"),
    Mutant("integral_fraction_kept", SYMBOLIC,
           "coefficient parts are int where integral",
           obsolete="the normalization of an integral Fraction was removed: the parts "
           "are int, and ExactComplex.of refuses a Fraction (of_accepts_fraction)"),
    # --- generated value semantics and the one time-derivative test ----------
    Mutant("exact_complex_im_not_compared",
           VALUES + "; analog of exact_complex_eq_ignores_im",
           "equal coefficients have equal imaginary parts",
           SYM, "    im: int\n",
           "    im: int = __import__('dataclasses').field(compare=False)\n"),
    Mutant("exact_complex_eq_not_generated", VALUES,
           "coefficients compare by value, not identity",
           SYM, "@dataclass(unsafe_hash=True, slots=True)",
           "@dataclass(eq=False, unsafe_hash=True, slots=True)"),
    Mutant("field_expr_eq_not_generated", VALUES,
           "expressions compare by their terms, not identity",
           SYM, "@dataclass(init=False, repr=False, slots=True)",
           "@dataclass(init=False, repr=False, eq=False, slots=True)"),
    Mutant("zero_expression_has_time_weight_one", VALUES,
           "the zero expression has no time derivative",
           SYM, "for m in expr.terms), default=0)", "for m in expr.terms), default=1)"),
    Mutant("numpy_grid_size_kept", "ExperimentConfig grid sizes",
           "the report holds grid sizes as int",
           EXP, "            object.__setattr__(self, name, operator.index(size))\n",
           ""),
    # --- each input check in one place ----------------------------------------
    Mutant("atom_index_4_accepted", ONCE,
           "D refuses a derivative index outside 0..3",
           SYM, "    if not 0 <= mu <= 3:", "    if not 0 <= mu <= 4:"),
    Mutant("field_accepts_any_symbol", ONCE,
           "field refuses a potential or constant name",
           SYM, "    if name not in FIELD_SYMBOLS:\n"
           "        raise ValueError(f\"unknown field symbol {name!r}\")",
           "    if name not in _SYMBOLS:\n"
           "        raise ValueError(f\"unknown field symbol {name!r}\")"),
    Mutant("first_order_guard_counts_potential_derivatives", ONCE,
           "only a field's second derivative makes a Lagrangian unsupported",
           SYM, "if any(name in FIELD_SYMBOLS and len(derivs) > 1",
           "if any(len(derivs) > 1"),
    Mutant("first_order_guard_allows_second_order", ONCE,
           "a second field derivative makes a Lagrangian unsupported",
           SYM, "and len(derivs) > 1", "and len(derivs) > 2"),
    Mutant("config_read_error_unprefixed", "one config error path",
           "a config file that cannot be read is reported as such",
           CLI, 'raise ValueError(f"cannot read config: {err}") from err',
           'raise ValueError(f"{err}") from err'),
    # --- one exact format per value ---------------------------------------------
    Mutant("of_accepts_fraction", FORMATS,
           "a Fraction coefficient is refused",
           SYM, "if isinstance(value, int) and not isinstance(value, bool):",
           "if isinstance(value, (int, __import__('fractions').Fraction))"
           " and not isinstance(value, bool):"),
    Mutant("index_accepts_float", FORMATS,
           "a float derivative index is refused",
           SYM, "    if type(mu) is not int:", "    if type(mu) not in (int, float):"),
    Mutant("repeated_field_guard_dropped", FORMATS,
           "the Legendre transform refuses a repeated field",
           SYM, "    if len(set(fields)) != len(fields):\n"
           "        raise ValueError(f\"each field is transformed once, got {list(fields)}\")\n",
           ""),
    Mutant("window_dtype_float_dropped", FORMATS,
           "each slice is read as float64",
           NUM, "rho_t, j_t = np.asarray(rho_t, dtype=float), np.asarray(j_t, dtype=float)",
           "rho_t, j_t = np.asarray(rho_t), np.asarray(j_t)"),
    # --- each Gauss-Legendre rule built once per process -----------------------
    Mutant("rule_arrays_writable", CACHE,
           "the shared nodes and weights cannot be written",
           NUM, "    x.flags.writeable = w.flags.writeable = False\n", ""),
    Mutant("rule_checks_after_lookup", CACHE,
           "an order equal to a cached one but not an integer is refused",
           NUM, "\ndef gauss_legendre(n: int)",
           "\n@functools.cache\ndef gauss_legendre(n: int)"),
    # --- inputs refused before a cast or a store hides them ---------------------
    Mutant("of_part_check_dropped", REFUSED,
           "a coefficient with a non-integer part is refused",
           SYM, "for part in (value.re, value.im):", "for part in ():"),
    Mutant("complex_slice_check_dropped", REFUSED,
           "a complex current slice is refused, not cast to its real part",
           NUM, "if np.iscomplexobj(part):", "if False:"),
)


def check_table(root: Path = ROOT) -> None:
    """Raise ValueError unless every live entry's old text occurs once."""
    names = [m.name for m in TABLE]
    if len(set(names)) != len(names):
        raise ValueError("mutant names must be unique")
    for m in TABLE:
        if m.obsolete:
            continue
        count = (root / m.file).read_text().count(m.old)
        if count != 1:
            raise ValueError(f"{m.name}: old text occurs {count} times in {m.file}")


def tier1_command() -> list:
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
    if importlib.util.find_spec("hypothesis") is not None:
        command.append("--hypothesis-seed=0")  # the same examples on every run
    return command


def run_tier1(mutant: Mutant | None) -> dict:
    """Run Tier-1 on a fresh copy of the tree, with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="qdensity-mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
                shutil.copytree(source, work / name, ignore=ignore)
            else:
                shutil.copy2(source, work / name)
        if mutant is not None:
            path = work / mutant.file
            text = path.read_text()
            if text.count(mutant.old) != 1:  # the tree changed since the check
                raise ValueError(f"{mutant.name}: old text not found once in the copy")
            path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(work / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        start = time.perf_counter()
        proc = subprocess.run(tier1_command(), cwd=work, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        seconds = time.perf_counter() - start
    found = FAILURE.search(proc.stdout)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return {
        "passed": proc.returncode == 0,
        "first_failure": found.group(1) if found else (
            None if proc.returncode == 0 else f"exit status {proc.returncode}"),
        "summary": summary,
        "seconds": round(seconds, 2),
    }


def main() -> int:
    check_table()
    baseline = run_tier1(None)
    print(f"mutant 0 (unmutated): {'passed' if baseline['passed'] else 'FAILED'} "
          f"in {baseline['seconds']} s: {baseline['summary']}", flush=True)
    rows = [dict(id=0, name="unmutated", status="passed" if baseline["passed"]
                 else "failed", **baseline)]
    for number, m in enumerate(TABLE, start=1):
        row = dict(id=number, name=m.name, origin=m.origin, claim=m.claim)
        if m.obsolete:
            row.update(status="obsolete", reason=m.obsolete)
        else:
            result = run_tier1(m)
            status = "survived" if result["passed"] else "killed"
            if status == "survived" and m.equivalent:
                status = "equivalent"
                row["reason"] = m.equivalent
            row.update(file=m.file, old=m.old, new=m.new, status=status, **result)
            del row["passed"]
        rows.append(row)
        print(f"{number:2d} {m.name}: {row['status']}"
              f" {row.get('first_failure') or ''} {row.get('seconds', '')}", flush=True)

    live = [r for r in rows[1:] if r["status"] != "obsolete"]
    killed = sum(r["status"] == "killed" for r in live)
    survived = [r["name"] for r in live if r["status"] == "survived"]
    report = {
        "command": " ".join(["python", *tier1_command()[1:]]),
        "copied": list(COPIED),
        "host": f"{platform.system()}, {os.cpu_count()} CPUs, Python "
                f"{platform.python_version()}; timings are wall seconds of one run",
        "tier1_seconds": baseline["seconds"],
        "tier1_summary": baseline["summary"],
        "killed": killed,
        "total": len(live),
        "survived": survived,
        "equivalent": [r["name"] for r in live if r["status"] == "equivalent"],
        "obsolete": [r["name"] for r in rows[1:] if r["status"] == "obsolete"],
        "mutants": rows,
    }
    out = ROOT / "MUTANTS.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"killed {killed}/{len(live)}; survived {survived or 'none'}; "
          f"written to {out}")
    return 0 if baseline["passed"] and not survived else 1


if __name__ == "__main__":
    sys.exit(main())
