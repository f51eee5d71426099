"""qdensity benchmark: one workload, one seed, one run.

Usage:
    python3 benchmarks/bench.py --workload {verify-all,sweep-dense,symbolic}
        --seed N --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file.  Each run spawns a fresh interpreter per set-up sample
and measures one single-threaded closed loop with one client in the last of
them.  With ``--trace 0`` the final stdout line reports the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.  A result
file with provenance goes to ``.bench_results/``.  See README.md here for
the workloads and what each metric should move.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-all", "sweep-dense", "symbolic")
SETUP_SAMPLES = 5  # set-up is timed this often per run; the median is reported
WORKER_TIMEOUT_S = 170.0
NOTE = (
    "timings taken without CPU pinning or isolation on a host shared with "
    "other jobs; compare medians of many runs, not single runs"
)
# reported beside the declared metrics: fail_frac is 0 on correct code and
# u_rel_err_max exists only where an experiment runs, so neither can be a
# BENCHMARK.json metric, which must be nonzero on every workload
EXTRA_UNITS = {"fail_frac": "frac", "u_rel_err_max": "frac"}


class BenchError(RuntimeError):
    pass


def git_commit() -> str | None:
    """The checked-out commit read from .git, or None outside a repository."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def spawn(workload: str, seed: int, seconds: float, mode: str, workdir: Path):
    """Start a worker and wait until it is ready.

    Returns the process, its set-up seconds and its ``import qdensity`` ms.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed),
         repr(seconds), mode, str(workdir)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    words = proc.stdout.readline().split()
    setup_s = time.perf_counter() - start
    if len(words) != 2 or words[0] != "ready":
        finish(proc)
        raise BenchError(f"{workload} worker ended during set-up (status {proc.returncode})")
    return proc, setup_s, float(words[1])


def finish(proc) -> str:
    """Wait for a worker and return the rest of its stdout."""
    try:
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded its time limit") from None
    return rest


def run_workers(workload: str, seed: int, seconds: float, mode: str, workdir: Path):
    """Time set-up SETUP_SAMPLES times; the last worker also runs the loop.

    Returns the last worker's result, the set-up seconds and import ms.
    """
    setups, imports = [], []
    for sample in range(SETUP_SAMPLES):
        last = sample == SETUP_SAMPLES - 1
        proc, setup_s, import_ms = spawn(
            workload, seed, seconds, mode if last else "setup", workdir
        )
        setups.append(setup_s)
        imports.append(import_ms)
        rest = finish(proc)
        if proc.returncode != 0:
            raise BenchError(f"{workload} worker exited with status {proc.returncode}")
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} worker printed no result")
    return json.loads(lines[-1]), setups, imports


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def end_to_end(raw: dict, setups: list) -> dict:
    lat = raw["latencies_ms"]
    return {
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": statistics.quantiles(lat, n=10)[8],
        "ops_per_s": raw["correct_ops"] / raw["loop_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }


def per_layer(raw: dict, imports_ms: float) -> dict:
    metrics = dict(raw["per_op"])
    metrics["setup.import_ms"] = imports_ms
    metrics["trace.overhead_frac"] = raw["overhead_frac"]
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qdensity" / "__init__.py").is_file():
        print(f"error: no qdensity sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    oracle.self_test()

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        mode = "trace" if args.trace else "measure"
        raw, setups, imports = run_workers(
            args.workload, args.seed, args.seconds, mode, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = raw["attempted"], raw["failed"]
    correct = failed == 0
    if args.trace:
        metrics = per_layer(raw, statistics.median(imports))
        correct = correct and not raw["unwrapped"] and raw["mismatched"] == 0
    else:
        metrics = end_to_end(raw, setups)

    declared = declared_metrics(args.trace)
    if set(metrics) != set(declared):
        raise BenchError(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}"
        )

    extra = {"fail_frac": failed / attempted}
    if raw["u_rel_err_max"] is not None:
        extra["u_rel_err_max"] = raw["u_rel_err_max"]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": raw["python"],
        "numpy": raw["numpy"],
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "note": NOTE,
        "setup_samples_s": setups,
        "latency_samples_ms": raw.get("latencies_ms"),
        "import_samples_ms": imports,
        "attempted": attempted,
        "failed": failed,
        "problems": raw["problems"],
        "metrics": metrics,
        **extra,
    }
    if args.trace:
        for key in ("traced_ops", "missing", "uncalled", "unwrapped",
                    "mismatched", "spans_file", "span_count"):
            result[key] = raw[key]
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1) + "\n")

    report(args, result, declared, extra)
    print(f"  result file: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def report(args, result: dict, declared: dict, extra: dict) -> None:
    """Human-readable lines ahead of the final JSON line."""
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {result['attempted']}  failed {result['failed']}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    for name, value in list(result["metrics"].items()) + list(extra.items()):
        unit = declared.get(name) or EXTRA_UNITS[name]
        print(f"  {name:<50} {value:.6g} {unit}")
    if args.trace:
        print(f"  tracing: {result['traced_ops']} inputs run traced and untraced, "
              f"outputs differing on {result['mismatched']}")
        for key in ("missing", "uncalled", "unwrapped"):
            if result[key]:
                print(f"  {key}: {', '.join(result[key])}")
        print("  useful_frac bases: experiment.KGState.spatial.calls and "
              "numerics.BallGrid.volume_weights.calls")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(1)
