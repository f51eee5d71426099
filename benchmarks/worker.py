"""One workload process: set up, signal ready, run the closed loop, report.

Usage: worker.py <workload> <seed> <seconds> <setup|measure|trace> <workdir>

The first line written to stdout is ``ready <import ms>``, after the imports, the input
of operation 0 and operation 0 itself (untimed); the process that spawned
the worker times set-up up to that line.  In ``setup`` mode the worker then
exits.  Otherwise the last line is one JSON object with the raw results.
Only the standard library is imported before ``import qdensity`` is timed.
"""
from __future__ import annotations

import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_OPS = 100  # so that p90 has at least ten samples beyond it
MAX_LOOP_S = 120.0  # hard cap on one timed loop, whatever the op count


class Recorder:
    """Attempted and failed operations with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.u_rel_err_max = None

    def record(self, index: int, problems: list, errors: list) -> bool:
        self.attempted += 1
        if errors:
            worst = max(errors)
            if self.u_rel_err_max is None or worst > self.u_rel_err_max:
                self.u_rel_err_max = worst
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"op {index}: " + "; ".join(problems))
        return not problems


def run_checked(workload, recorder: Recorder, index: int, call):
    """Run one operation through ``call``; returns (seconds, fingerprint, ok)."""
    inp = workload.make_input(index)
    start = time.perf_counter()
    try:
        out = call(index, workload.run, inp)
    except Exception:  # a crashing operation is a failed one; keep measuring
        elapsed = time.perf_counter() - start
        recorder.record(index, [traceback.format_exc(limit=3).strip()], [])
        return elapsed, None, False
    elapsed = time.perf_counter() - start
    problems, errors = workload.check(inp, out)
    digest = hashlib.sha256(workload.fingerprint(out)).hexdigest()
    return elapsed, digest, recorder.record(index, problems, errors)


def direct(index, fn, inp):
    return fn(inp)


def closed_loop(workload, recorder, seconds):
    """Operations 1, 2, ... one after another for ``seconds`` and MIN_OPS."""
    latencies, correct = [], 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(latencies) >= MIN_OPS) or elapsed >= MAX_LOOP_S:
            break
        took, _digest, ok = run_checked(workload, recorder, len(latencies) + 1, direct)
        latencies.append(took * 1e3)
        correct += ok
    return latencies, correct, time.perf_counter() - start


def traced_pairs(workload, recorder, seconds):
    """Run each input untraced and traced; returns the tracer and the outcome."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced, unwrapped, mismatched = [], [], None, 0
    index, start = 1, time.perf_counter()
    while time.perf_counter() - start < min(seconds, MAX_LOOP_S):
        # the order alternates so that drift in machine speed cancels out
        # of the overhead ratio
        digests = {}
        for traced_turn in ((False, True) if index % 2 else (True, False)):
            if not traced_turn:
                took, digests[False], _ok = run_checked(workload, recorder, index, direct)
                plain.append(took * 1e3)
                continue
            tracer.install()
            try:
                if unwrapped is None:
                    unwrapped = tracer.unwrapped_references()
                took, digests[True], _ok = run_checked(workload, recorder, index, tracer.op)
            finally:
                tracer.uninstall()
            traced.append(took * 1e3)
        mismatched += digests[True] != digests[False]
        index += 1
    return tracer, plain, traced, unwrapped, mismatched


def emit(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def main(argv: list) -> int:
    name, seed, seconds, mode, workdir = argv
    seed, seconds, workdir = int(seed), float(seconds), Path(workdir)

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import qdensity
    import_ms = (time.perf_counter() - start) * 1e3
    if Path(qdensity.__file__).resolve().parent != ROOT / "src" / "qdensity":
        print(f"imported qdensity from {qdensity.__file__}, not from src", file=sys.stderr)
        return 2

    import numpy
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, workdir)
    recorder = Recorder()
    _took, reference, _ok = run_checked(workload, recorder, 0, direct)
    emit(f"ready {import_ms!r}")
    if mode == "setup":
        return 0

    result = {}
    if mode == "measure":
        latencies, correct, loop_s = closed_loop(workload, recorder, seconds)
        result.update(latencies_ms=latencies, correct_ops=correct, loop_s=loop_s)
    else:
        tracer, plain, traced, unwrapped, mismatched = traced_pairs(
            workload, recorder, seconds
        )
        spans_path = ROOT / ".bench_results" / f"spans-{name}-seed{seed}.json"
        spans_path.parent.mkdir(exist_ok=True)
        tracer.write_spans(spans_path)
        result.update(
            per_op=tracer.per_op_metrics(),
            overhead_frac=statistics.median(traced) / statistics.median(plain) - 1.0,
            traced_ops=len(traced),
            missing=tracer.missing,
            uncalled=tracer.uncalled(name),
            unwrapped=unwrapped,
            mismatched=mismatched,
            spans_file=str(spans_path.relative_to(ROOT)),
            span_count=len(tracer.spans),
        )

    # operation 0 again: the same input must give the same bytes
    _took, again, ok = run_checked(workload, recorder, 0, direct)
    if ok and again != reference:
        recorder.failed += 1
        recorder.problems.append("op 0 re-run: output differs from the first run")

    result.update(
        attempted=recorder.attempted,
        failed=recorder.failed,
        problems=recorder.problems,
        u_rel_err_max=recorder.u_rel_err_max,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
    )
    emit(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
