import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdensity
from qdensity.cli import load_config, main, parse_args, run

GOLDEN = Path(__file__).parent / "golden"


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
    assert args.format == "json"


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        parse_args(["bogus"])
    assert err.value.code != 0


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as err:
        parse_args(["dimensions", "--frobnicate"])
    assert err.value.code != 0


def test_bad_distance_list_is_usage_error():
    with pytest.raises(SystemExit) as err:
        parse_args(["orthogonality", "--d", "1.5,two"])
    assert err.value.code != 0


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
    # scipy, sympy and hypothesis serve the tests alone; a fresh interpreter
    # that runs `qdensity all` in process must not have loaded any of them
    src = str(Path(qdensity.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import contextlib, io, sys\n"
        "from qdensity import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = cli.run(cli.parse_args(['all']))\n"
        "print(status, sorted({'scipy', 'sympy', 'hypothesis'} & set(sys.modules)))\n"
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
    assert values == {"e": "0", "d": "2,4", "resolution": "8"}


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


@pytest.mark.parametrize("value", ["True", "TRUE", "true"])
def test_config_refine_is_case_insensitive(tmp_path, value):
    path = tmp_path / "run.cfg"
    path.write_text(f"refine = {value}\nresolution = 4\nd = 2\n")
    out_path = tmp_path / "report.json"
    argv = ["orthogonality", "--config", str(path), "--out", str(out_path)]
    assert run_cli(argv) == 0
    experiment = json.loads(out_path.read_text())["suites"][0]["experiment"]
    assert experiment["parameters"]["n_panels"] == 8


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
    ],
)
def test_bad_experiment_input_is_usage_error(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config + "\n")
        argv = argv + ["--config", str(path)]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


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


def test_continuity_passes(capsys):
    assert run_cli(["continuity"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] kg_superposition_order" in out


def test_dirac_consistency_passes(capsys):
    assert run_cli(["dirac-consistency"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] constant_potential_shift" in out


def test_orthogonality_with_uncoupled_config_passes(tmp_path, capsys):
    cfg = tmp_path / "uncoupled.cfg"
    cfg.write_text("e = 0\nresolution = 8\n")
    code = run_cli(
        ["orthogonality", "--config", str(cfg), "--d", "2,4"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "[PASS] u_vanishes_d=2" in out


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


def test_json_floats_carry_17_significant_digits(tmp_path):
    out_path = tmp_path / "report.json"
    run_cli(
        ["orthogonality", "--d", "2", "--resolution", "8", "--out", str(out_path)]
    )
    text = out_path.read_text()
    payload = json.loads(text)
    omega0 = payload["suites"][0]["experiment"]["omega0"]
    # the literal in the file is the 17-significant-digit rendering
    assert f'"omega0": {format(omega0, ".17g")}' in text
    assert len(format(omega0, ".17g").replace(".", "")) >= 16


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
    for line in lines[1:]:
        cells = [float(cell) for cell in line.split(",")]
        assert len(cells) == 4


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


@pytest.mark.parametrize(
    "command, status",
    [("dimensions", 0), ("derive", 1), ("symmetry", 0), ("all", 1)],
)
def test_report_matches_golden_bytes(tmp_path, command, status):
    out_path = tmp_path / "report.json"
    assert run_cli([command, "--out", str(out_path)]) == status
    golden = GOLDEN / f"report_{command}.json"
    assert out_path.read_bytes() == golden.read_bytes()
