"""One benchmark pass in a fresh interpreter; prints its result as JSON.

run.py starts one worker per pass, so that ``peak_rss_mb`` is the peak of
a process that ran that pass and nothing else.  ``wall_s`` is the pass's
wall time at the reference speed (calibrate.py), ``raw_wall_s`` as the
clock read it.

    python3 perfbench/worker.py --workload stable-table --seed 1 \
        [--size smoke] [--trace-out FILE]

With ``--trace-out`` the pass is traced: spans go around the calls into
each layer, the probes run after the pass, and the spans are written to
FILE as JSON lines.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import kothedim  # noqa: E402

if not Path(kothedim.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"kothedim was imported from {kothedim.__file__}, not from {ROOT / 'src'}")

from calibrate import Pacer  # noqa: E402
from probes import Instruments  # noqa: E402
from tracing import Tracer, span_or_nothing  # noqa: E402
from workloads import SPEED_SENSITIVITY, WORKLOADS, run_pass  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    tracer = instruments = None
    step_done = lambda: None  # noqa: E731
    if args.trace_out:
        tracer = Tracer(pass_id=f"{args.workload}/seed{args.seed}/traced")
        instruments = Instruments(tracer)
        instruments.install()
        step_done = instruments.step_done

    pacer = Pacer(tracer, SPEED_SENSITIVITY[args.workload])
    gc.collect()
    with span_or_nothing(tracer, "pass"):
        pacer.mark()
        ledger, order = run_pass(
            args.workload, args.seed, args.size, tracer, step_done, pacer
        )
        pacer.mark()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = {}
    if instruments is not None:
        instruments.run_probes()
        layers = instruments.metrics()
        tracer.write(args.trace_out)

    print(json.dumps({
        "wall_s": pacer.calibrated_s,
        "raw_wall_s": pacer.raw_s,
        "peak_rss_mb": peak_rss_mib,
        "latencies_s": ledger.latencies,
        "attempted": ledger.attempted,
        "wrong": ledger.wrong,
        "errors": ledger.errors,
        "order": order,
        "layers": layers,
    }))


if __name__ == "__main__":
    main()
