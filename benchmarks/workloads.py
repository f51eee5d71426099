"""The three benchmark workloads: inputs from a seed, one operation, its check.

Each workload object offers

- ``make_input(index)``: the seeded input of operation ``index``, with any
  input file it needs already written;
- ``run(inp)``: the operation itself, the only part that is timed;
- ``check(inp, out)``: a list of problems (empty when correct) and the
  relative errors of U * d^2 against the multipole oracle;
- ``fingerprint(out)``: the output in a form compared byte for byte.

Inputs depend only on (workload, seed, index), so a repeated run sees the
same inputs and no two operations of a run share their physics parameters.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from pathlib import Path

from qdensity import cli, experiment

import oracle

# the one deliberately red check of `qdensity all` and `qdensity derive`
KNOWN_RED = frozenset({"scalar_hamiltonian_matches_quoted_form"})

# largest accepted |U d^2 - C| / |C|; the grid at base resolution 16 reaches
# about 2.3e-6 at d = 1.05 R, the closest distance any workload draws
U_REL_TOL = 1e-5

D_LOW, D_HIGH = 1.05, 8.0  # charge distances in units of R


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _physics(rng: random.Random) -> dict:
    return {
        "R": _log_uniform(rng, 0.5, 2.0),
        "mass": _log_uniform(rng, 0.5, 2.0),
        "e": _log_uniform(rng, 0.5, 2.0),
        "q": _log_uniform(rng, 0.5, 2.0),
    }


def _distances(rng: random.Random, R: float, count: int) -> tuple:
    """Log-uniform in (1.05 R, 8 R), one draw per equal stratum of log d.

    Stratifying keeps the distances apart, so the strict monotone-decay
    check never compares two nearly equal U values.
    """
    lo, hi = math.log(D_LOW), math.log(D_HIGH)
    step = (hi - lo) / count
    draws = [
        R * math.exp(lo + step * (i + rng.uniform(0.05, 0.95)))
        for i in range(count)
    ]
    rng.shuffle(draws)
    return tuple(draws)


def _u_rel_errors(params: dict, sweep) -> list:
    """|U d^2 - C| / |C| for each (d, U) of a sweep."""
    c = oracle.dipole_constant(params["R"], params["mass"], params["e"], params["q"])
    return [abs(complex(u) * d * d - c) / abs(c) for d, u in sweep]


def _run_cli(argv: list) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(cli.parse_args(argv))


def _failing(report: dict) -> set:
    return {
        check["name"]
        for suite in report["suites"]
        for check in suite["checks"]
        if not check["passed"]
    }


class VerifyAll:
    """One in-process `qdensity all --config <file> --out <file>`."""

    name = "verify-all"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.config_path = workdir / "verify-all.cfg"
        self.out_path = workdir / "verify-all.json"

    def make_input(self, index: int) -> dict:
        rng = _rng(self.name, self.seed, index)
        params = _physics(rng)
        params["d"] = _distances(rng, params["R"], rng.randint(3, 6))
        lines = [f"{key} = {params[key]!r}" for key in ("R", "mass", "e", "q")]
        lines.append("d = " + ",".join(repr(d) for d in params["d"]))
        self.config_path.write_text("\n".join(lines) + "\n")
        return params

    def run(self, inp: dict):
        status = _run_cli(
            ["all", "--config", str(self.config_path), "--out", str(self.out_path)]
        )
        return status, self.out_path.read_bytes()

    def check(self, inp: dict, out):
        status, raw = out
        report = json.loads(raw)
        problems = []
        if status != 1:
            problems.append(f"exit status {status}, expected 1")
        failing = _failing(report)
        if failing != KNOWN_RED:
            problems.append(f"failing checks {sorted(failing)}")
        exp = report["suites"][-1]["experiment"]
        sweep = [(e["d"], complex(e["u_re"], e["u_im"])) for e in exp["sweep"]]
        errors = _u_rel_errors(inp, sweep)
        if max(errors) > U_REL_TOL:
            problems.append(f"U d^2 off the multipole oracle by {max(errors):.3g}")
        return problems, errors

    def fingerprint(self, out) -> bytes:
        return out[1]


class SweepDense:
    """One orthogonality experiment with 16 distances at base resolution 16."""

    name = "sweep-dense"
    resolution = 16
    n_distances = 16

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def make_input(self, index: int) -> dict:
        rng = _rng(self.name, self.seed, index)
        params = _physics(rng)
        params["d"] = _distances(rng, params["R"], self.n_distances)
        return params

    def run(self, inp: dict):
        n = self.resolution
        config = experiment.ExperimentConfig(
            R=inp["R"], mass=inp["mass"], e=inp["e"], q=inp["q"],
            d_values=inp["d"], n_panels=n, order=8, n_theta=n, n_phi=n,
        )
        return experiment.run_orthogonality_experiment(config)

    def check(self, inp: dict, report):
        # the predicates of `qdensity orthogonality`, restated here so that a
        # refactor of the command line does not change what is checked
        problems = []
        if not abs(report.i01) <= 1e-10:
            problems.append(f"|I01| = {abs(report.i01):.3g} > 1e-10")
        for entry in report.sweep:
            if not abs(entry.u) > 10.0 * entry.error:
                problems.append(f"|U| <= 10 * error at d = {entry.d!r}")
        if report.u_monotone_decreasing_in_d is not True:
            problems.append("|U| not strictly decreasing in d")
        errors = _u_rel_errors(inp, [(e.d, e.u) for e in report.sweep])
        if max(errors) > U_REL_TOL:
            problems.append(f"U d^2 off the multipole oracle by {max(errors):.3g}")
        return problems, errors

    def fingerprint(self, report) -> bytes:
        return json.dumps(report.to_json_dict(), sort_keys=True).encode()


class Symbolic:
    """`qdensity dimensions`, `derive` and `symmetry` in turn, each with --out.

    These suites take no parameters, so every operation has the same input;
    the seed changes nothing here.
    """

    name = "symbolic"
    commands = ("dimensions", "derive", "symmetry")
    expected_status = (0, 1, 0)

    def __init__(self, seed: int, workdir: Path):
        self.out_paths = [workdir / f"{cmd}.json" for cmd in self.commands]

    def make_input(self, index: int) -> None:
        return None

    def run(self, inp):
        statuses = tuple(
            _run_cli([cmd, "--out", str(path)])
            for cmd, path in zip(self.commands, self.out_paths)
        )
        return statuses, [path.read_bytes() for path in self.out_paths]

    def check(self, inp, out):
        statuses, raws = out
        problems = []
        if statuses != self.expected_status:
            problems.append(f"exit statuses {statuses}, expected {self.expected_status}")
        expected_failing = (set(), set(KNOWN_RED), set())
        for cmd, raw, want in zip(self.commands, raws, expected_failing):
            failing = _failing(json.loads(raw))
            if failing != want:
                problems.append(f"{cmd}: failing checks {sorted(failing)}")
        return problems, []

    def fingerprint(self, out) -> bytes:
        return b"\0".join(out[1])


WORKLOADS = {cls.name: cls for cls in (VerifyAll, SweepDense, Symbolic)}
