"""Spans and counts around the public functions of each qdensity layer.

The wrappers are installed from outside the program: every reference to a
target function in a ``qdensity`` module namespace, or in a dict held at
module level (``cli._SUITES``), is replaced, and class attributes are
replaced on the class (classmethods stay classmethods).  Each call of a span
target records (id, parent id, operation, name, start, end); self time is the
span minus the time of its child spans.  Count-only targets record calls and
nothing else, because a span per call would swamp the run.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

EXPERIMENTS = ("verify-all", "sweep-dense")
SYMBOLIC = ("verify-all", "symbolic")
VERIFY = ("verify-all",)


def _grid_points(args, result) -> int:
    return math.prod(args[1].shape)


def _result_points(args, result) -> int:
    return int(result.size)


def _sampling_key(args):
    state, grid = args[0], args[1]
    return (id(grid), state.l, state.m, state.sigma, state.omega, state.norm)


def _grid_key(args):
    return id(args[0])


@dataclass(frozen=True)
class Target:
    """One traced function: ``layer`` is the qdensity module it lives in."""

    layer: str
    qualname: str
    workloads: tuple  # the workloads meant to call it
    span: bool = True
    points: Optional[Callable] = None  # grid samples computed by one call
    distinct: Optional[Callable] = None  # key of the useful work of one call

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.qualname}"


TARGETS = (
    Target("cli", "run", ("verify-all", "symbolic")),
    Target("cli", "load_config", VERIFY),
    Target("cli", "dimension_checks", SYMBOLIC),
    Target("cli", "derive_checks", SYMBOLIC),
    Target("cli", "symmetry_checks", SYMBOLIC),
    Target("cli", "continuity_checks", VERIFY),
    Target("cli", "dirac_consistency_checks", VERIFY),
    Target("cli", "orthogonality_checks", VERIFY),
    Target("symexpr", "euler_lagrange", SYMBOLIC),
    Target("symexpr", "legendre_transform", SYMBOLIC),
    Target("symexpr", "classify_time_symmetry", SYMBOLIC),
    Target("symexpr", "substitute_real", SYMBOLIC),
    Target("symexpr", "set_charge_zero", SYMBOLIC),
    Target("symexpr", "FieldExpr.__mul__", SYMBOLIC, span=False),
    Target("symexpr", "FieldExpr.__add__", SYMBOLIC, span=False),
    Target("dims", "infer_field_dimension", SYMBOLIC),
    Target("dims", "check_density_requirement_A", SYMBOLIC),
    Target("numerics", "BallGrid.build", EXPERIMENTS),
    Target("numerics", "BallGrid.refined", EXPERIMENTS),
    Target("numerics", "BallGrid.volume_weights", EXPERIMENTS,
           points=_result_points, distinct=_grid_key),
    Target("numerics", "integrate_ball", EXPERIMENTS, points=_grid_points),
    Target("numerics", "solve_well_mode", EXPERIMENTS),
    Target("numerics", "spherical_harmonic", EXPERIMENTS),
    Target("numerics", "spherical_bessel_j", EXPERIMENTS),
    Target("numerics", "divergence_residual", VERIFY),
    Target("experiment", "run_orthogonality_experiment", EXPERIMENTS),
    Target("experiment", "well_state", EXPERIMENTS),
    Target("experiment", "normalize_kg_state", EXPERIMENTS),
    Target("experiment", "KGState.spatial", EXPERIMENTS,
           points=_result_points, distinct=_sampling_key),
    Target("experiment", "external_potential", EXPERIMENTS),
    Target("experiment", "inner_product", EXPERIMENTS),
    Target("experiment", "potential_term", EXPERIMENTS),
    Target("fieldops", "SpinorPlaneWave.sample", VERIFY),
    Target("fieldops", "KGPlaneWave.sample", VERIFY),
    Target("fieldops", "KGPlaneWave.gradient", VERIFY),
    Target("fieldops", "dirac_current", VERIFY),
    Target("fieldops", "kg_current", VERIFY),
    Target("fieldops", "dirac_hamiltonian_apply", VERIFY),
    Target("fieldops", "FourCurrent.divergence_residual", VERIFY),
)


@dataclass
class _Stat:
    calls: int = 0
    self_ns: int = 0
    points: int = 0
    distinct_now: set = field(default_factory=set)
    distinct_total: int = 0


class Tracer:
    """Install with :meth:`install`, run operations inside :meth:`op`."""

    def __init__(self):
        self.stats = {t.key: _Stat() for t in TARGETS}
        self.spans: list = []
        self.missing: list = []  # targets the program no longer defines
        self.ops = 0
        self._stack: list = []  # [span id, child ns] per open span
        self._op_index: Optional[int] = None
        self._plan: Optional[list] = None  # built on the first install
        self._originals: dict = {}  # id(original) -> target key
        self._wrappers: set = set()  # ids of the wrappers installed

    # ----- installation ---------------------------------------------------

    def _make_plan(self) -> list:
        """(container, key, original, wrapper) for every reference to a target."""
        plan = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qdensity" or name.startswith("qdensity.")]
        for target in TARGETS:
            module = importlib.import_module(f"qdensity.{target.layer}")
            owner_name, _, attr = target.qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(target.key)
                continue
            if isinstance(raw, classmethod):
                self._originals[id(raw.__func__)] = target.key
                plan.append((owner, attr, raw,
                             classmethod(self._wrap(target, raw.__func__))))
            elif owner_name:
                self._originals[id(raw)] = target.key
                plan.append((owner, attr, raw, self._wrap(target, raw)))
            else:
                self._originals[id(raw)] = target.key
                wrapped = self._wrap(target, raw)
                for mod in modules:
                    for container in self._containers(mod):
                        for key, value in container.items():
                            if value is raw:
                                plan.append((container, key, raw, wrapped))
        return plan

    @staticmethod
    def _containers(module) -> list:
        namespace = vars(module)
        return [namespace] + [v for v in namespace.values() if isinstance(v, dict)]

    @staticmethod
    def _assign(container, key, value) -> None:
        if isinstance(container, dict):
            container[key] = value
        else:
            setattr(container, key, value)

    def install(self) -> None:
        if self._plan is None:
            self._plan = self._make_plan()
        for container, key, _original, wrapper in self._plan:
            self._assign(container, key, wrapper)

    def uninstall(self) -> None:
        for container, key, original, _wrapper in reversed(self._plan or ()):
            self._assign(container, key, original)

    def unwrapped_references(self) -> list:
        """Places in qdensity code still holding an original target.

        Looks where :meth:`install` does not replace anything as well:
        class attributes, default arguments and closure cells.
        """
        found = []

        def visit(where: str, value) -> None:
            value = getattr(value, "__func__", value)
            if id(value) in self._wrappers:
                return
            if callable(value) and id(value) in self._originals:
                found.append(where)
            inner = list(getattr(value, "__defaults__", None) or ())
            inner += list((getattr(value, "__kwdefaults__", None) or {}).values())
            for cell in getattr(value, "__closure__", None) or ():
                try:
                    inner.append(cell.cell_contents)
                except ValueError:  # empty cell
                    continue
            for item in inner:
                if callable(item) and id(item) in self._originals:
                    found.append(f"{where} (default or closure)")

        for name, mod in sorted(sys.modules.items()):
            if not (name == "qdensity" or name.startswith("qdensity.")):
                continue
            for container in self._containers(mod):
                for key, value in container.items():
                    visit(f"{name}:{key}", value)
                    if isinstance(value, type) and value.__module__ == name:
                        for attr, member in vars(value).items():
                            visit(f"{name}:{key}.{attr}", member)
        return found

    # ----- recording ------------------------------------------------------

    def _wrap(self, target: Target, func: Callable) -> Callable:
        stat = self.stats[target.key]
        if not target.span:
            @functools.wraps(func)
            def counted(*args, **kwargs):
                stat.calls += 1
                return func(*args, **kwargs)
            self._wrappers.add(id(counted))
            return counted

        @functools.wraps(func)
        def traced(*args, **kwargs):
            result = self._span(target.key, stat, func, args, kwargs)
            if target.points:
                stat.points += target.points(args, result)
            if target.distinct:
                stat.distinct_now.add(target.distinct(args))
            return result
        self._wrappers.add(id(traced))
        return traced

    def _span(self, name, stat, func, args, kwargs):
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0]
        self._stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            if stat is not None:
                stat.calls += 1
                stat.self_ns += duration - frame[1]
            self.spans[span_id] = (span_id, parent, self._op_index, name, start, end)

    def op(self, index: int, func: Callable, *args):
        """Run one benchmark operation as the root span ``op``."""
        self._op_index = index
        try:
            return self._span("op", None, func, args, {})
        finally:
            self.ops += 1
            for stat in self.stats.values():
                stat.distinct_total += len(stat.distinct_now)
                stat.distinct_now.clear()

    # ----- results --------------------------------------------------------

    def per_op_metrics(self) -> dict:
        """Per-operation values of every target metric (not setup or overhead)."""
        ops = max(self.ops, 1)
        out = {}
        for t in TARGETS:
            stat = self.stats[t.key]
            out[f"{t.key}.calls"] = stat.calls / ops
            if t.span:
                out[f"{t.key}.self_ms"] = stat.self_ns / 1e6 / ops
            if t.points:
                out[f"{t.key}.points"] = stat.points / ops
            if t.distinct:
                out[f"{t.key}.useful_frac"] = (
                    stat.distinct_total / stat.calls if stat.calls else 0.0
                )
        return out

    def uncalled(self, workload: str) -> list:
        """Targets meant to run on ``workload`` that recorded no call."""
        return [t.key for t in TARGETS
                if workload in t.workloads and t.key not in self.missing
                and self.stats[t.key].calls == 0]

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write('{"fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],\n')
            fh.write(' "spans": [\n')
            fh.write(",\n".join(json.dumps(s) for s in self.spans))
            fh.write("\n]}\n")
