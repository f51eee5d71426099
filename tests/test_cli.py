import argparse
import cmath
import gc
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import qdensity
from qdensity import cli, fieldops, numerics, symexpr
from qdensity.cli import CONFIG_KEYS, load_config, main, parse_args, run
from test_fieldops import (
    ALPHAS, BETA, PAULI, imaginary_part_kg_current, same_bits,
    squared_parts_dirac_current,
)
from test_numerics import gradient_residual

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"


def run_cli(argv):
    return run(parse_args(argv))


# ----- argument parsing ------------------------------------------------------------


def test_orthogonality_distance_list_parses():
    args = parse_args(["orthogonality", "--d", "1.5,2,4"])
    assert args.command == "orthogonality"
    assert args.d == (1.5, 2.0, 4.0)


def test_dimensions_defaults():
    args = parse_args(["dimensions"])
    assert args.command == "dimensions"
    # None, not "json": run must tell a given --format from the default
    assert args.format is None


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        parse_args(["bogus"])
    assert err.value.code != 0


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as err:
        parse_args(["dimensions", "--frobnicate"])
    assert err.value.code != 0


# every option string of every subcommand; a new knob must be added here
_REPORT_OPTIONS = {"-h", "--help", "--out", "--format"}
_EXPERIMENT_OPTIONS = _REPORT_OPTIONS | {"--config", "--d", "--resolution"}
OPTION_TABLE = {
    "dimensions": _REPORT_OPTIONS,
    "derive": _REPORT_OPTIONS,
    "symmetry": _REPORT_OPTIONS,
    "continuity": _REPORT_OPTIONS,
    "dirac-consistency": _REPORT_OPTIONS,
    "orthogonality": _EXPERIMENT_OPTIONS,
    "all": _EXPERIMENT_OPTIONS,
}


def test_option_surface_matches_the_table(monkeypatch):
    # have parse_args hand back the parser it built instead of parsing
    monkeypatch.setattr(
        argparse.ArgumentParser, "parse_args", lambda self, argv=None: self
    )
    parser = parse_args([])
    (subparsers,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    surface = {
        name: {opt for action in sub._actions for opt in action.option_strings}
        for name, sub in subparsers.choices.items()
    }
    assert surface == OPTION_TABLE


def test_the_cached_parser_keeps_calls_independent(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    cli._parser.cache_clear()
    first = parse_args(["all", "--d", "1.5,2", "--resolution", "4", "--format", "csv"])
    assert len(built) == 1 + len(cli.SUBCOMMAND_CLAIMS)  # the root and each subcommand
    assert (first.d, first.resolution, first.format) == ((1.5, 2.0), 4, "csv")
    second = parse_args(["orthogonality"])
    with pytest.raises(SystemExit) as err:
        parse_args(["orthogonality", "--resolution", "four"])
    assert err.value.code == 2
    third = parse_args(["derive"])
    assert len(built) == 1 + len(cli.SUBCOMMAND_CLAIMS)
    assert vars(second) == {
        "command": "orthogonality", "out": None, "format": None,
        "config": None, "d": None, "resolution": None,
    }
    assert vars(third) == {"command": "derive", "out": None, "format": None}


@pytest.mark.parametrize(
    "command", ["dimensions", "derive", "symmetry", "continuity", "dirac-consistency"]
)
def test_config_is_rejected_where_there_are_no_parameters(tmp_path, command):
    path = tmp_path / "run.cfg"
    path.write_text("R = 5\n")
    with pytest.raises(SystemExit) as err:
        parse_args([command, "--config", str(path)])
    assert err.value.code == 2


def test_bad_distance_list_is_usage_error():
    with pytest.raises(SystemExit) as err:
        parse_args(["orthogonality", "--d", "1.5,two"])
    assert err.value.code != 0


@pytest.mark.parametrize("text", ["2,,4", "2,4,", ",2", "2, ,4", ""])
def test_empty_distance_item_is_usage_error(capsys, text):
    # a dropped item would run a shorter sweep than the one asked for
    with pytest.raises(SystemExit) as err:
        parse_args(["orthogonality", "--d", text])
    assert err.value.code == 2
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [
        f"qdensity orthogonality: error: argument --d: "
        f"empty item in distance list {text!r}"
    ]
    assert captured.out == ""


def test_main_propagates_exit_status():
    with pytest.raises(SystemExit) as err:
        main(["dimensions"])
    assert err.value.code == 0


def test_module_entry_point_runs_without_runpy_warning():
    # importing the package must not import qdensity.cli ahead of runpy
    src = str(Path(qdensity.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "qdensity.cli",
         "dimensions"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_all_imports_no_test_only_dependency():
    # scipy, sympy, mpmath and hypothesis serve the tests alone; a fresh
    # interpreter that runs `qdensity all` in process must not have loaded any
    src = str(Path(qdensity.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import contextlib, io, sys\n"
        "from qdensity import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = cli.run(cli.parse_args(['all']))\n"
        "test_only = {'scipy', 'sympy', 'mpmath', 'hypothesis'}\n"
        "print(status, sorted(test_only & set(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
    )
    assert proc.stdout == "1 []\n", proc.stderr


# ----- configuration files -----------------------------------------------------------


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\n\ne = 0\nd = 2,4\nresolution = 8\n")
    values = load_config(str(path))
    assert values == {"e": 0.0, "d": (2.0, 4.0), "resolution": 8}


@pytest.mark.parametrize("text", ["0", "-0.0", "0e5", "0.", ".0"])
def test_config_zero_parses_as_zero(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(f"e = {text}\n")
    assert load_config(str(path)) == {"e": 0.0}


@pytest.mark.parametrize("key", ["R", "mass", "e", "q"])
@pytest.mark.parametrize("text", ["1e-400", "-2e-324"])
def test_config_number_that_rounds_to_zero_is_refused(tmp_path, capsys, key, text):
    path = tmp_path / "run.cfg"
    path.write_text(f"# a nonzero value that float() reads as 0.0\n{key} = {text}\n")
    assert run_cli(["orthogonality", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: cannot read config: {path}:2: key {key}: "
        f"{text!r} is not zero but rounds to 0.0\n"
    )
    assert captured.out == ""


def test_readme_lists_the_config_keys():
    match = re.search(r"keys: ([^)]*)\)", README.read_text())
    assert re.findall(r"`([^`]+)`", match.group(1)) == list(CONFIG_KEYS)


def test_config_file_rejects_garbage(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ValueError):
        load_config(str(path))


def test_missing_config_file_is_io_error(tmp_path, capsys):
    code = run_cli(["all", "--config", str(tmp_path / "absent.cfg")])
    assert code == 2
    captured = capsys.readouterr()
    assert "error: cannot read config:" in captured.err
    assert captured.out == ""


def test_undecodable_config_file_is_io_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"\xff\xfe = 1\n")
    assert run_cli(["orthogonality", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    # a UTF-8 locale fails to decode the file, another names the key: one line
    assert captured.err.startswith("error: cannot read config: ")
    assert captured.err.count("\n") == 1 and captured.out == ""


def test_config_line_without_equals_is_io_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("e = 0\njust some words\n")
    assert run_cli(["orthogonality", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot read config: {path}:2: expected key=value" in err


def test_unknown_config_key_is_named(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("mass = 1\nmas = 2\n")
    assert run_cli(["orthogonality", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot read config: {path}:2: unknown key 'mas'\n"
    assert captured.out == ""


def test_repeated_config_key_is_named(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("R = 1\nresolution = 4\nR = 5\n")
    assert run_cli(["orthogonality", "--d", "6", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot read config: {path}:3: repeated key 'R'\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, config",
    [
        (["orthogonality", "--d", "nan"], None),
        (["orthogonality", "--d", "inf"], None),
        (["orthogonality", "--d", "1.0"], None),
        (["orthogonality", "--resolution", "0"], None),
        (["orthogonality", "--resolution", "-3"], None),
        (["all", "--d", "nan"], None),
        (["orthogonality"], "R = abc"),
        (["orthogonality"], "resolution = 2.5"),
        (["orthogonality"], "q = 0"),
        (["orthogonality"], "R = 0"),
        (["orthogonality"], "mass = -1"),
        (["orthogonality"], "R = 2"),
        (["orthogonality"], "d = 1.5,two"),
        (["orthogonality"], "e = nan"),
        (["orthogonality"], "refine = maybe"),
        (["all"], "R = 2"),
        (["orthogonality", "--d", "2,2"], None),
        (["orthogonality", "--resolution", "4"], "d = 1e155"),
        (["orthogonality", "--resolution", "4"], "R = 1e-150\nd = 2e-150"),
        (["orthogonality", "--resolution", "4"], "R = 1e150\nd = 2e150"),
        (["orthogonality", "--resolution", "4"], "e = 1e155\nq = 1e155"),
        (["orthogonality"], "e = -1e-31"),
        (["orthogonality", "--d", "2"], "d = abc"),
        (["orthogonality", "--resolution", "4", "--d", "2"], "resolution = 2.5"),
        (["orthogonality", "--resolution", "363"], None),
        (["all", "--resolution", "363"], None),
        (["orthogonality"], "resolution = 100000000"),
        (["all"], "resolution = 100000000"),
    ],
)
def test_bad_experiment_input_is_usage_error(
    tmp_path, capsys, monkeypatch, argv, config
):
    def refuse(*args, **kwargs):  # a bad value is rejected before any grid is built
        raise AssertionError("a grid was built")

    monkeypatch.setattr(numerics.BallGrid, "build", refuse)
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config + "\n")
        argv = argv + ["--config", str(path)]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("command", list(cli.SUBCOMMAND_CLAIMS))
def test_csv_without_out_is_usage_error(monkeypatch, capsys, command):
    # a CSV report that goes nowhere is an ignored setting; no suite may run
    def refuse(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "_SUITES", dict.fromkeys(cli._SUITES, refuse))
    assert run_cli([command, "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --format csv needs --out\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", list(cli.SUBCOMMAND_CLAIMS))
def test_json_format_without_out_is_usage_error(monkeypatch, capsys, command):
    # an explicit --format json that goes nowhere is as ignored as csv
    def refuse(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli, "_SUITES", dict.fromkeys(cli._SUITES, refuse))
    assert run_cli([command, "--format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --format json needs --out\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", ["dimensions", "orthogonality"])
def test_explicit_json_format_writes_the_default_report(tmp_path, command):
    default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
    run_cli([command, "--out", str(default)])
    run_cli([command, "--format", "json", "--out", str(explicit)])
    assert explicit.read_bytes() == default.read_bytes()


@pytest.mark.parametrize("text", ["d = 2,,4", "d = 2,4,", "d ="])
def test_empty_distance_item_in_config_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "run.cfg"
    path.write_text(text + "\n")
    assert run_cli(["orthogonality", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    value = text.partition("=")[2].strip()
    assert captured.err == (
        f"error: cannot read config: {path}:1: key d: "
        f"empty item in distance list {value!r}\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, text, key",
    [
        (["orthogonality", "--d", "2"], "R = 1.5\nd = abc\n", "d"),
        (["all", "--resolution", "4"], "e = 0\nresolution = 2.5\n", "resolution"),
    ],
)
def test_bad_config_value_names_file_and_line(tmp_path, capsys, argv, text, key):
    # a flag that overrides the key does not hide the bad value
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert run_cli(argv + ["--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot read config: {path}:2: key {key}: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "command",
    [["dimensions"], ["derive"], ["symmetry"], ["all"],
     ["orthogonality", "--format", "csv"]],
    ids=" ".join,
)
def test_a_warm_run_leaves_no_cyclic_garbage(tmp_path, capsys, command):
    # garbage in reference cycles waits for the collector, so peak memory
    # would follow the collector's timing instead of the program's needs
    argv = command + ["--out", str(tmp_path / "report.json")]
    run_cli(argv)  # warm-up
    gc.collect()
    gc.disable()
    try:
        run_cli(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()


# ----- subcommand outcomes ------------------------------------------------------------


def test_dimensions_passes(capsys):
    assert run_cli(["dimensions"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] spinor_field_dimension" in out
    assert "-3/2" in out


def test_symmetry_passes(capsys):
    assert run_cli(["symmetry"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] kg_density_antisymmetric" in out


def test_derive_reports_the_legendre_discrepancy(capsys):
    # the quoted scalar energy density is not the canonical Legendre
    # transform when e*V != 0, so this suite honestly reports one failure
    assert run_cli(["derive"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] scalar_hamiltonian_matches_quoted_form" in out
    assert "failing checks: scalar_hamiltonian_matches_quoted_form" in out
    assert "[PASS] scalar_hamiltonian_offset_is_potential_energy" in out


def test_derive_and_symmetry_build_each_catalog_expression_once(monkeypatch):
    calls = {}
    for name in ("dirac_lagrangian", "kg_lagrangian", "kg_charge_density"):
        def counted(build=getattr(symexpr, name), name=name):
            calls[name] = calls.get(name, 0) + 1
            return build()

        monkeypatch.setattr(symexpr, name, counted)
    cli.derive_checks()
    assert calls == {"dirac_lagrangian": 1, "kg_lagrangian": 1, "kg_charge_density": 1}
    calls.clear()
    cli.symmetry_checks()
    assert calls == {"kg_charge_density": 1}


def test_continuity_passes(capsys):
    assert run_cli(["continuity"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] kg_superposition_order" in out


@pytest.mark.parametrize("wave_class", [fieldops.KGPlaneWave, fieldops.SpinorPlaneWave])
def test_continuity_samples_each_wave_once_per_stencil(monkeypatch, wave_class):
    calls = {
        name: [] for name in ("sample", "time_derivative", "gradient")
        if hasattr(wave_class, name)
    }

    def counted(name):
        original = getattr(wave_class, name)

        def wrapper(self, x, t):
            calls[name].append((t, *x))
            return original(self, x, t)

        return wrapper

    for name in calls:
        monkeypatch.setattr(wave_class, name, counted(name))
    cli.continuity_checks()
    # one wave on the plane-wave stencil and two on each of the two order
    # stencils, each sampled once, at t = 0, on an open (n, 3, 3) box
    samples = calls.pop("sample")
    assert len(samples) == 1 + 2 + 2
    assert all(len(grids) == 0 for grids in calls.values())
    for t, *xyz in samples:
        assert type(t) is float and t == 0.0
        assert len(xyz) == 3
        for axis in xyz:
            assert axis.ndim == 3
            assert sum(n > 1 for n in axis.shape) == 1
        assert np.broadcast_shapes(*(axis.shape for axis in xyz))[1:] == (3, 3)


#: each continuity row's stencil and waves, as the suite builds them
CONTINUITY_WAVES = {
    "dirac_plane_wave_residual": (
        cli._dirac_current_on_stencil,
        [fieldops.SpinorPlaneWave.build((0.7, -0.3, 0.4), 1.0)],
    ),
    "kg_plane_wave_residual": (
        cli._kg_current_on_stencil,
        [fieldops.KGPlaneWave.free(0.8 + 0.3j, (0.6, 0.2, -0.5), 1.0)],
    ),
    "dirac_superposition_order": (
        cli._dirac_current_on_stencil,
        [fieldops.SpinorPlaneWave.build((0.9, 0.0, 0.2), 1.0, s=1),
         fieldops.SpinorPlaneWave.build((-0.4, 1.1, 0.6), 1.0, s=2)],
    ),
    "kg_superposition_order": (
        cli._kg_current_on_stencil,
        [fieldops.KGPlaneWave.free(1.0, (1.2, 0.0, 0.4), 1.0),
         fieldops.KGPlaneWave.free(0.5 - 0.2j, (-0.3, 0.9, 1.0), 1.0)],
    ),
}


#: the continuity suite's order grids, (n, h, nt, dt)
ORDER_GRIDS = {"coarse": (11, 0.2, 7, 0.2), "fine": (21, 0.1, 13, 0.1)}
#: the order stencils as the suite runs them, ((n, 3, 3), h, nt, dt)
ORDER_STENCILS = [
    pytest.param(((n, 3, 3), h, nt, dt), id=name)
    for name, (n, h, nt, dt) in ORDER_GRIDS.items()
]


def _summed(arrays):
    """Left-to-right sum starting from the first array, as the stencils add."""
    first, *rest = arrays
    for array in rest:
        first = first + array
    return first


def oracle_stencil_current(waves, shape, h, nt, dt):
    """(rho, j) on the whole 4D stencil in the stencils' order: each wave is
    its phase e^{-i omega t} times its sample at t = 0, and every sum and
    bracket is out of place."""
    xyz = np.meshgrid(*(np.arange(n) * h for n in shape), indexing="ij", sparse=True)
    times = np.arange(nt) * dt
    spinor = isinstance(waves[0], fieldops.SpinorPlaneWave)
    fields = []
    for w in waves:
        omega = w.energy if spinor else w.omega
        phase = np.array([cmath.exp(-1j * omega * t) for t in times])
        sample = w.sample(xyz, 0.0)
        # sample first: numpy's complex product may round a * b and b * a apart
        fields.append(np.stack([sample * p for p in phase], axis=-4))
    if spinor:
        return squared_parts_dirac_current(_summed(fields))
    return imaginary_part_kg_current(
        _summed(fields),
        _summed(-1j * w.omega * f for w, f in zip(waves, fields)),
        _summed(np.stack([1j * w.k[k] * f for k in range(3)])
                for w, f in zip(waves, fields)),
    )


def assert_stencil_equals_oracle(stencil, waves, grid):
    """The stencil's whole rho and j are the oracle's in bytes, with the
    stencil's spacings; returns the oracle."""
    rho, j = oracle_stencil_current(waves, *grid)
    current = stencil(waves, *grid)
    shape, h, nt, dt = grid
    assert rho.shape == (nt,) + shape
    for got, expected in ((current.rho, rho), (current.j, j)):
        assert got.shape == expected.shape
        assert np.array_equal(got, expected) and same_bits(got, expected)
    assert current.spacings == (dt, h, h, h)
    return rho, j


@pytest.mark.parametrize("stencil", ORDER_STENCILS)
def test_kg_stencil_equals_the_current_of_phased_samples(stencil):
    assert_stencil_equals_oracle(*CONTINUITY_WAVES["kg_superposition_order"], stencil)


@pytest.mark.parametrize("stencil", ORDER_STENCILS)
def test_dirac_stencil_equals_the_current_of_summed_samples(stencil):
    assert_stencil_equals_oracle(*CONTINUITY_WAVES["dirac_superposition_order"], stencil)


def test_continuity_residuals_equal_the_gradient_form_of_the_oracle(monkeypatch):
    # every stencil the suite builds: its current, and the residual formed
    # from it, against the np.gradient residual of the whole-stencil oracle
    stencils, residuals = [], []

    def recorded(stencil):
        def wrapper(*args):
            stencils.append((stencil, *args))
            return stencil(*args)

        return wrapper

    def recorded_residual(rho, j, spacings):
        residuals.append(original(rho, j, spacings))
        return residuals[-1]

    original = numerics.divergence_residual
    monkeypatch.setattr(numerics, "divergence_residual", recorded_residual)
    for name in ("_dirac_current_on_stencil", "_kg_current_on_stencil"):
        monkeypatch.setattr(cli, name, recorded(getattr(cli, name)))
    cli.continuity_checks()
    assert len(stencils) == len(residuals) == 6
    for (stencil, waves, *grid), residual in zip(stencils, residuals):
        rho, j = assert_stencil_equals_oracle(stencil, waves, grid)
        shape, h, nt, dt = grid
        assert shape[1:] == (3, 3)
        assert residual == gradient_residual(rho, j, (dt, h, h, h))


def closed_form_symbol(rho_ab, j_ab, dw, dk, h, dt):
    """The bilinear current of a pair of plane waves has one cross term, the
    plane wave c e^{i(dk.x - dw t)}, which a central difference maps to the
    symbols -i sin(dw dt)/dt and i sin(dk_k h)/h; the constant terms
    difference to 0.  The residual is 2 Re of the symbol times the phase."""
    symbol = rho_ab * (-1j * math.sin(dw * dt) / dt)
    for k in range(3):
        symbol += j_ab[k] * (1j * math.sin(dk[k] * h) / h)
    return symbol


def closed_form_residual(rho_ab, j_ab, dw, dk, n, h, nt, dt):
    """Oracle: max of the exact discrete residual of a pair of plane waves
    over the suite's line of stencil centres, (x, h, h) for x in 1..n-2."""
    symbol = closed_form_symbol(rho_ab, j_ab, dw, dk, h, dt)
    tt, *xyz = np.meshgrid(np.arange(1, nt - 1) * dt, np.arange(1, n - 1) * h,
                           [h], [h], indexing="ij")
    phase = -dw * tt + sum(dk[k] * xyz[k] for k in range(3))
    return float(np.max(np.abs(2.0 * (np.exp(1j * phase) * symbol).real)))


def closed_form_spinor(p, s, mass):
    """(E, u) with ubar u = 2m, built from the test's own Pauli matrices."""
    p = np.asarray(p, dtype=float)
    energy = math.sqrt(float(p @ p) + mass**2)
    chi = np.eye(2, dtype=complex)[s - 1]
    sigma_p = sum(p[k] * PAULI[k] for k in range(3))
    scale = math.sqrt(energy + mass)
    return energy, np.concatenate([scale * chi, sigma_p @ chi / scale])


def closed_form_pair_terms(mass=1.0):
    """{row: (rho_ab, j_ab, dw, dk)} of both order rows' wave pairs: Dirac
    rho_ab = u_a^dag u_b, j_ab = u_a^dag alpha u_b; KG
    rho_ab = (w_a + w_b) N_a* N_b, j_ab = (k_a + k_b) N_a* N_b."""
    (w_a, u_a), (w_b, u_b) = (closed_form_spinor((0.9, 0.0, 0.2), 1, mass),
                              closed_form_spinor((-0.4, 1.1, 0.6), 2, mass))
    dirac = (np.vdot(u_a, u_b), [np.vdot(u_a, alpha @ u_b) for alpha in ALPHAS],
             w_b - w_a, np.array([-0.4, 1.1, 0.6]) - np.array([0.9, 0.0, 0.2]))
    (n_a, k_a), (n_b, k_b) = ((1.0, np.array([1.2, 0.0, 0.4])),
                              (0.5 - 0.2j, np.array([-0.3, 0.9, 1.0])))
    w_a, w_b = (math.sqrt(float(k @ k) + mass**2) for k in (k_a, k_b))
    cross = np.conj(n_a) * n_b
    kg = ((w_a + w_b) * cross, (k_a + k_b) * cross, w_b - w_a, k_b - k_a)
    return {"dirac_superposition_order": dirac, "kg_superposition_order": kg}


def closed_form_order_rows(mass=1.0):
    """{row: (coarse, fine)} of both order rows from the closed form alone."""
    return {
        name: tuple(closed_form_residual(*terms, *grid) for grid in ORDER_GRIDS.values())
        for name, terms in closed_form_pair_terms(mass).items()
    }


def test_continuity_order_rows_equal_the_closed_form(monkeypatch):
    residuals = []

    def recorded_residual(rho, j, spacings):
        residuals.append(original(rho, j, spacings))
        return residuals[-1]

    original = numerics.divergence_residual
    monkeypatch.setattr(numerics, "divergence_residual", recorded_residual)
    rows = {check.name: check for check in cli.continuity_checks()}
    assert len(residuals) == 6
    closed_form = closed_form_order_rows()
    # the suite's order: two plane-wave rows, then (coarse, fine) per order row
    for (name, expected), measured in zip(closed_form.items(),
                                          (residuals[2:4], residuals[4:6])):
        assert measured == pytest.approx(expected, rel=1e-11, abs=0.0)
        order = math.log2(expected[0] / expected[1])
        assert rows[name].value == pytest.approx(order, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("grid", ORDER_GRIDS.values(), ids=ORDER_GRIDS)
@pytest.mark.parametrize("row", CONTINUITY_WAVES)
def test_continuity_line_residual_is_bounded_by_the_cube_and_the_symbol(row, grid):
    """line <= cube <= 2 |symbol|.  The (n, 3, 3) box's interior line is a
    subset of the n^3 cube's interior, and a pair's residual on any node is
    |2 Re(symbol e^{i phase})|.  A single wave's current is constant, so its
    symbol is 0; 1e-10, the plane-wave rows' bound, leaves room for rounding."""
    stencil, waves = CONTINUITY_WAVES[row]
    n, h, nt, dt = grid
    spacings = (dt, h, h, h)
    line = stencil(waves, (n, 3, 3), h, nt, dt).divergence_residual()
    cube = gradient_residual(*oracle_stencil_current(waves, (n, n, n), h, nt, dt),
                             spacings)
    terms = closed_form_pair_terms().get(row)
    symbol = closed_form_symbol(*terms, h, dt) if terms else 0.0
    assert line <= cube <= 2.0 * abs(symbol) + 1e-10


def test_continuity_peak_memory_is_a_whole_n_3_3_stencil():
    cli.continuity_checks()  # warm: imports and caches are not counted
    tracemalloc.start()
    try:
        cli.continuity_checks()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_dirac_consistency_equals_the_full_cube():
    """The suite samples z on 3 nodes, exact only while its wave is constant
    in z. Oracle: its residuals and constant-V shift on full n^3 cubes."""
    mass = 1.0
    wave = fieldops.SpinorPlaneWave.build((1.0, 1.0, 0.0), mass)

    def residual(n):
        h = 2.0 * np.pi / n
        axes = [np.arange(n) * h] * 3
        psi = wave.sample(np.meshgrid(*axes, indexing="ij", sparse=True), 0.0)
        h_psi = fieldops.dirac_hamiltonian_apply(psi, (h, h, h), mass)
        return float(np.max(np.abs(h_psi - wave.energy * psi))), h, psi, h_psi

    coarse, h, psi, h_free = residual(16)
    fine = residual(32)[0]
    e, v0 = 1.0, 0.7
    h_pot = fieldops.dirac_hamiltonian_apply(
        psi, (h, h, h), mass, e=e, V=np.full(psi.shape[1:], v0)
    )
    shift = float(np.max(np.abs(h_pot - h_free - e * v0 * psi)))
    checks = cli.dirac_consistency_checks()
    expected = [float(np.log2(coarse / fine)), fine / coarse, shift]
    assert [c.value for c in checks] == expected
    assert f"{coarse:.12g} -> {fine:.12g}," in checks[0].detail


def test_dirac_consistency_rows_equal_the_closed_form(monkeypatch):
    """On the periodic grid a central difference maps each momentum component
    p_k to sin(p_k h)/h, so each residual is max |(alpha.p~ + beta m - E) u|,
    with no grid; a constant potential shifts H psi by exactly eV psi."""
    mass, p = 1.0, (1.0, 1.0, 0.0)
    energy, u = closed_form_spinor(p, 1, mass)

    def residual(n):
        h = 2.0 * np.pi / n
        symbol = sum(math.sin(p[k] * h) / h * ALPHAS[k] for k in range(3))
        return float(np.max(np.abs((symbol + mass * BETA - energy * np.eye(4)) @ u)))

    orders = []

    def recorded(name, what, coarse, fine):
        orders.append((coarse, fine))
        return original(name, what, coarse, fine)

    original = cli._order_check
    monkeypatch.setattr(cli, "_order_check", recorded)
    rows = {check.name: check for check in cli.dirac_consistency_checks()}
    expected = (residual(16), residual(32))
    assert [f"{r:.12g}" for r in expected] == ["0.0596181655421", "0.0149910034492"]
    assert orders == [pytest.approx(expected, rel=1e-12, abs=0.0)]
    shift = rows["constant_potential_shift"].value
    assert shift <= 4 * np.finfo(float).eps * 0.7 * float(np.max(np.abs(u)))


def test_dirac_consistency_peak_memory():
    cli.dirac_consistency_checks()  # warm: imports and caches are not counted
    tracemalloc.start()
    try:
        cli.dirac_consistency_checks()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_dirac_consistency_passes(capsys):
    assert run_cli(["dirac-consistency"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] constant_potential_shift" in out


def test_orthogonality_with_uncoupled_config_passes(tmp_path, capsys):
    cfg = tmp_path / "uncoupled.cfg"
    cfg.write_text("e = 0\nresolution = 8\n")
    out_path = tmp_path / "report.json"
    code = run_cli(
        ["orthogonality", "--config", str(cfg), "--d", "2,4", "--out", str(out_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] u_vanishes_d=2" in out
    # the vanishing bound appears in no detail text, only in the report
    rows = [
        (c["name"], c["relation"], c["bound"])
        for c in json.loads(out_path.read_text())["suites"][0]["checks"]
        if c["name"].startswith("u_vanishes_d=")
    ]
    assert rows == [("u_vanishes_d=2", "<=", 1e-15), ("u_vanishes_d=4", "<=", 1e-15)]


def test_orthogonality_json_report(tmp_path):
    out_path = tmp_path / "report.json"
    code = run_cli(
        [
            "orthogonality",
            "--d",
            "2",
            "--resolution",
            "8",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["command"] == "orthogonality"
    assert payload["passed"] is True
    experiment = payload["suites"][0]["experiment"]
    assert experiment["sweep"][0]["d"] == 2.0
    assert experiment["sweep"][0]["u_re"] < 0.0
    # a one-distance sweep neither checks nor claims a monotone decay
    assert experiment["u_monotone_decreasing_in_d"] is None
    names = [check["name"] for check in payload["suites"][0]["checks"]]
    assert "u_monotone_decreasing_in_d" not in names


def test_json_report_is_byte_identical_across_runs(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = run_cli(
            [
                "orthogonality",
                "--d",
                "2",
                "--resolution",
                "8",
                "--out",
                str(path),
            ]
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def assert_reads_back(written, read):
    """``read`` is ``written`` leaf for leaf; floats compared in their bytes."""
    if isinstance(written, dict):
        assert list(read) == list(written)
        for key, value in written.items():
            assert_reads_back(value, read[key])
    elif isinstance(written, list):
        assert len(read) == len(written)
        for value, back in zip(written, read):
            assert_reads_back(value, back)
    elif isinstance(written, float):
        assert type(read) is float
        assert struct.pack("<d", read) == struct.pack("<d", written)
    elif isinstance(written, Fraction):
        assert read == str(written)
    else:
        assert type(read) is type(written) and read == written


@pytest.mark.parametrize(
    "argv, config",
    [pytest.param([command], None, id=command) for command in cli.SUBCOMMAND_CLAIMS]
    + [pytest.param(["orthogonality"], "e = 0\n", id="uncoupled")],
)
def test_json_report_reads_back_bit_for_bit(tmp_path, monkeypatch, argv, config):
    # each float is written as its shortest round-trip repr, so it reads back
    # as the same double (-0.0 included) and an integral float stays a float
    written = []
    write = cli._write_report
    monkeypatch.setattr(
        cli, "_write_report", lambda args, r: written.append(r) or write(args, r)
    )
    report_checks(tmp_path, argv, config)
    literals = []
    read = json.loads(
        (tmp_path / "report.json").read_text(),
        parse_float=lambda text: literals.append(text) or float(text),
    )
    assert_reads_back(written[0], read)
    assert all(text == repr(float(text)) for text in literals)
    if argv[0] in ("orthogonality", "all"):
        parameters = read["suites"][-1]["experiment"]["parameters"]
        sizes = ("n_panels", "order", "n_theta", "n_phi", "n_phi_effective")
        assert all(type(parameters[key]) is int for key in sizes)
        assert all(type(parameters[key]) is float for key in ("R", "mass", "e", "q"))


def test_orthogonality_csv_report(tmp_path):
    out_path = tmp_path / "sweep.csv"
    code = run_cli(
        [
            "orthogonality",
            "--d",
            "2,4",
            "--resolution",
            "8",
            "--format",
            "csv",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "d,re_u,im_u,error"
    assert len(lines) == 3
    # the rows are the JSON report's sweep, each float in its repr
    json_path = tmp_path / "sweep.json"
    run_cli(["orthogonality", "--d", "2,4", "--resolution", "8", "--out", str(json_path)])
    sweep = json.loads(json_path.read_text())["suites"][0]["experiment"]["sweep"]
    for line, entry in zip(lines[1:], sweep):
        expected = [repr(float(entry[k])) for k in ("d", "u_re", "u_im", "error")]
        assert line.split(",") == expected


def test_generic_csv_report(tmp_path):
    out_path = tmp_path / "checks.csv"
    assert run_cli(["symmetry", "--format", "csv", "--out", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "suite,check,passed,detail"
    assert len(lines) == 5


def test_unwritable_report_path_is_io_error(tmp_path):
    code = run_cli(
        ["symmetry", "--out", str(tmp_path / "missing_dir" / "r.json")]
    )
    assert code == 2


def test_all_runs_every_suite_and_reports_the_red_claim(tmp_path, capsys):
    out_path = tmp_path / "all.json"
    code = run_cli(
        ["all", "--d", "2", "--resolution", "8", "--out", str(out_path)]
    )
    assert code == 1
    out = capsys.readouterr().out
    for suite in ("dimensions", "derive", "symmetry", "continuity",
                  "dirac-consistency", "orthogonality"):
        assert f"== {suite}" in out
    assert "failing checks: scalar_hamiltonian_matches_quoted_form" in out
    payload = json.loads(out_path.read_text())
    assert payload["passed"] is False
    assert len(payload["suites"]) == 6


def report_checks(tmp_path, argv, config=None):
    """Exit status and check rows of one run written with --out."""
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    out_path = tmp_path / "report.json"
    status = run_cli(argv + ["--out", str(out_path)])
    payload = json.loads(out_path.read_text())
    return status, [check for suite in payload["suites"] for check in suite["checks"]]


# the relations a report may state, kept apart from cli's own table
REL = {
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def as_compared(x):
    """A reported value or bound as compared: "-3/2" strings are Fractions."""
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ValueError:
            return x
    return x


@pytest.mark.parametrize(
    "argv, config, status",
    [
        pytest.param([command], None, 1 if command in ("derive", "all") else 0,
                     id=command)
        for command in cli.SUBCOMMAND_CLAIMS
    ]
    + [
        pytest.param(["orthogonality", "--d", "2,4", "--resolution", "8"],
                     "e = 0\n", 0, id="uncoupled"),
        pytest.param(["orthogonality", "--resolution", "1"], None, 1,
                     id="resolution-1"),
    ],
)
def test_every_check_in_the_report_decides_itself(tmp_path, argv, config, status):
    code, checks = report_checks(tmp_path, argv, config)
    assert code == status
    assert checks
    for check in checks:
        value, bound = as_compared(check["value"]), as_compared(check["bound"])
        assert check["passed"] == REL[check["relation"]](value, bound), check["name"]
    assert any(not check["passed"] for check in checks) == (status == 1)


@pytest.mark.parametrize(
    "distances, labels",
    [("2,2.0000001", ["2", "2.0000001"]), ("1.5,123456789", ["1.5", "123456789.0"])],
)
def test_distance_check_names_read_back_as_the_distances(tmp_path, distances, labels):
    # six significant digits would name 2 and 2.0000001 alike, and 123456789
    # as 1.23457e+08
    _status, checks = report_checks(
        tmp_path, ["orthogonality", "--d", distances, "--resolution", "4"]
    )
    prefix = "u_exceeds_error_d="
    named = [c["name"][len(prefix):] for c in checks if c["name"].startswith(prefix)]
    assert named == labels
    assert [float(x) for x in named] == [float(d) for d in distances.split(",")]


@pytest.mark.parametrize(
    "relation, below, at, above",
    [
        ("<=", True, True, False),
        (">=", False, True, True),
        (">", False, False, True),
        ("==", False, True, False),
        ("!=", True, False, True),
    ],
)
def test_check_decides_its_relation_at_and_beside_the_bound(relation, below, at, above):
    bound = 1e-10
    values = (math.nextafter(bound, 0.0), bound, math.nextafter(bound, 1.0))
    passed = [cli.Check("c", v, relation, bound, "").passed for v in values]
    assert passed == [below, at, above]


@pytest.mark.parametrize(
    "command, status",
    [("dimensions", 0), ("derive", 1), ("symmetry", 0), ("all", 1)],
)
def test_report_matches_golden_bytes(tmp_path, command, status):
    out_path = tmp_path / "report.json"
    assert run_cli([command, "--out", str(out_path)]) == status
    golden = GOLDEN / f"report_{command}.json"
    assert out_path.read_bytes() == golden.read_bytes()


def test_all_stdout_matches_golden_bytes(capsys):
    assert run_cli(["all"]) == 1
    golden = GOLDEN / "stdout_all.txt"
    assert capsys.readouterr().out.encode() == golden.read_bytes()
