"""One worker of a workload run, in a process of its own: set-up, then
``--passes`` passes (or only set-up, with ``--setup-only``).

Started by ``run.py``; prints one JSON object with its samples.  ``--t0`` is the wall-clock
time at which the parent started this process, so the reported set-up
time covers interpreter start, imports and the workload's set-up.  The
worker reads the host's speed all through (see ``pace``) and reports each
time both scaled to the reference speed and as wall time (``raw_...``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--index", type=int, default=0)
    args = parser.parse_args()

    import pace

    # The set-up is timed between two readings before and two after it.
    meter = pace.Speedometer()
    meter.start()
    start = meter.clock()
    meter.read()
    meter.read()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracer as tracing
    import workloads

    with open(os.path.join(HERE, "digests.json")) as fh:
        references = json.load(fh)
    run = workloads.Run(args.workload, args.seed, args.workdir, references, args.index, meter)
    run.setup(max(args.passes, 1))
    meter.read()
    meter.read()
    raw_setup_s = time.time() - args.t0 - meter.spent
    setup = {"setup_s": raw_setup_s * meter.factor(start, meter.clock()), "raw_setup_s": raw_setup_s}
    if args.setup_only:
        meter.stop()
        ledger = run.ledger
        print(json.dumps({**setup, "attempted": ledger.attempted, "failed": ledger.failed, "problems": ledger.problems}))
        return
    if args.trace:
        run.tracer = tracing.Tracer(clock=meter.clock)
        run.tracer.install()
    run.measure(args.passes)
    meter.stop()
    if args.trace:
        run.tracer.uninstall()

    result = {
        **setup,
        "samples": run.samples(),
        "raw_samples": run.samples(scaled=False),
        "readings": meter.readings,
        # Linux counts the parent's RSS at exec in ru_maxrss too, which is
        # why run.py stays small: it imports neither the program nor numpy.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": run.ledger.attempted,
        "failed": run.ledger.failed,
        "problems": run.ledger.problems,
        "env": environment(),
    }
    if args.trace:
        layers = run.tracer.metrics()
        for phase in workloads.PHASES:  # the benchmark's own code around the calls
            row = run.tracer.rows.get(f"bench.{phase}")
            layers[f"bench.{phase}.calls"] = row.calls if row else 0
            layers[f"bench.{phase}.self_s"] = row.self_s if row else 0.0
        calls = sum(row.calls for row in run.tracer.rows.values())
        layers["trace.traced_s"] = run.tracer.root_s
        # The wrappers' own cost, calibrated; it falls inside the enclosing
        # rows' self time.
        layers["trace.wrapper_s"] = calls * tracing.calibrate()
        result["layers"] = layers
    print(json.dumps(result))


if __name__ == "__main__":
    main()
