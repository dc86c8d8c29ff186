"""The kothedim benchmark: three workloads, timed end to end and by layer.

    python3 perfbench/run.py --workload stable-table --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 1 --trace 0

Run it from anywhere; it benchmarks the source tree it sits in (``src/``
next to this directory) and exits 2 when that tree is missing.  Each pass
runs in a fresh interpreter (worker.py), back to back, while one more
pass would still end within ``--seconds``; at least three passes run.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median import
time of kothedim and kothedim.cli over fresh interpreters), and over the
passes the median ``wall_s`` and the median ``peak_rss_mb``.  Both times
are given at a fixed reference speed of the machine (calibrate.py), and
printed as read as well.  It also
prints, ungated, the median operation latency ``cmd_p50_ms`` and
``fail_frac``.  ``--trace 1`` runs one untraced and one
traced pass and reports the per-layer metrics (see probes.py) plus
``trace.overhead_s``, the traced pass's wall time minus the untraced one's.

Human-readable lines come first; the last line is one JSON object with the
keys correct, attempted, failed and metrics.  ``failed`` counts operations
whose call raised or whose output failed its check; ``correct`` is false
when any output was wrong, as opposed to an operation that crashed.
``--size smoke`` shrinks the workloads (count 50, one CLI round) to check
the harness itself.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import REF_IMPORT_CODE, REF_IMPORT_NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stable-table", "unstable-table", "cli-mix")
SETUP_REPEATS = 15
# a pass of unstable-table lasts 11-13 s; with three passes the median
# drops the slowest whenever the machine slows during one of them
MIN_PASSES = 3
PASS_TIMEOUT_S = 170
TRACE_DIR = ROOT / ".perfbench"
PYCACHE_DIR = TRACE_DIR / "pycache"
SETUP_CODE = (
    "import time; t = time.perf_counter(); import kothedim, kothedim.cli; "
    "print(repr(time.perf_counter() - t))"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    env["PYTHONHASHSEED"] = "0"
    # bytecode is cached here whatever the caller's environment says, so
    # that every timed import but the first reads it, and nothing is
    # written outside the checkout
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE_DIR)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def fresh_python_s(code: str) -> float:
    """Run ``code`` in a fresh interpreter; it prints a time in seconds."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=60, check=True,
    )
    return float(proc.stdout)


def measure_setup() -> tuple[float, float]:
    """Median import time over fresh interpreters, as read and at the
    reference speed; the first import, which may compile bytecode, is
    discarded.  Each import is scaled by the mean of the reference imports
    (calibrate.py) run just before and just after it."""
    refs = [fresh_python_s(REF_IMPORT_CODE)]
    raw = []
    for _ in range(SETUP_REPEATS + 1):
        raw.append(fresh_python_s(SETUP_CODE))
        refs.append(fresh_python_s(REF_IMPORT_CODE))
    calibrated = [
        dt * REF_IMPORT_NOMINAL_S / ((before + after) / 2)
        for dt, before, after in zip(raw, refs, refs[1:])
    ]
    return statistics.median(raw[1:]), statistics.median(calibrated[1:])


def run_worker(workload: str, seed: int, size: str, trace_out: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float, size: str):
    raw_setup, setup = measure_setup()
    passes = []
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        passes.append(run_worker(workload, seed, size))
        now = perf_counter()
        # stop when one more pass would overrun
        if len(passes) >= MIN_PASSES and now + (now - start) > deadline:
            break
    latencies = [s for p in passes for s in p["latencies_s"]]
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MiB"),
    }
    # printed, not gated: op latency follows the machine's CPU speed more
    # closely than a whole pass does, and its spread exceeds any bound
    notes = [f"setup_s as read = {raw_setup} s (not gated)",
             f"pass wall_s: {[p['wall_s'] for p in passes]}",
             f"pass wall_s as read: {[p['raw_wall_s'] for p in passes]}",
             f"cmd_p50_ms = {1000 * statistics.median(latencies)} ms "
             f"over {len(latencies)} operations (not gated)"]
    return passes, metrics, notes


def per_layer(workload: str, seed: int, size: str):
    TRACE_DIR.mkdir(exist_ok=True)
    trace_out = TRACE_DIR / f"trace-{workload}-seed{seed}.jsonl"
    plain = run_worker(workload, seed, size)
    traced = run_worker(workload, seed, size, trace_out)
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    notes = [f"untraced wall_s: {plain['wall_s']} (as read {plain['raw_wall_s']})",
             f"traced wall_s: {traced['wall_s']} (as read {traced['raw_wall_s']})",
             f"spans: {trace_out}"]
    return [plain, traced], metrics, notes


def declared_metrics(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    if trace:
        passes, metrics, notes = per_layer(workload, seed, size)
    else:
        passes, metrics, notes = end_to_end(workload, seed, seconds, size)
    declared = declared_metrics(trace)
    if sorted(declared) != sorted(metrics):
        sys.exit(f"metrics {sorted(set(metrics) ^ set(declared))} differ "
                 "between BENCHMARK.json and the harness")
    attempted = sum(p["attempted"] for p in passes)
    wrong = [w for p in passes for w in p["wrong"]]
    errors = [e for p in passes for e in p["errors"]]
    failed = len(wrong) + len(errors)

    print(f"== {workload} seed={seed} trace={trace} size={size}")
    print(f"order: {' | '.join(passes[0]['order'])}")
    for note in notes:
        print(note)
    print(f"fail_frac = {failed / attempted} ({failed}/{attempted} operations)")
    for problem in sorted(set(wrong)):
        print(f"WRONG {problem}")
    for problem in sorted(set(errors)):
        print(f"ERROR {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args()

    if not (ROOT / "src" / "kothedim" / "__init__.py").is_file():
        print(f"error: no kothedim source tree at {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)

    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace, args.size)
        print(json.dumps(result))
        return
    results = {
        w: run_one(w, args.seed, args.seconds, args.trace, args.size) for w in WORKLOADS
    }
    print(json.dumps(results))


if __name__ == "__main__":
    main()
