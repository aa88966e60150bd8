"""The freebanach benchmark.

    python3 perfbench/run.py [--workload desk|rank|query|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the root of a checkout.  A workload is measured by a fixed number
of fresh processes (``worker.py``), each with its own hash seed and a fixed
number of passes, and their samples are pooled; processes that only set up
add set-up samples.  Times are scaled to a reference host speed (``pace``);
wall times are printed on a ``#`` line.  Every end-to-end metric is printed
by name and unit, and
the last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; with ``--trace 1`` its metrics are the
per-layer ones of a traced run.  The exit code is 0 when every operation
gave the right answer, 1 when one did not, and 2 when the checkout holds
no program to measure or a worker died.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("desk", "rank", "query")
# The exact-x2 build, and so every CLI query, took 19 or 26 ms depending on
# the process's string hash seed in one probe, so the query workload pools
# the same QUERY_WORKERS processes, hash seeds 0 to 9, on every run.  A desk
# or rank pass outlasts the whole run, so there one process measures.
QUERY_WORKERS = 10
QUERY_PASSES_PER_S = 1  # 10 passes at --seconds 10, 240 timed queries
SETUP_SAMPLES = 5
RUN_TIMEOUT_S = 170
SETUP_TIMEOUT_S = 60

UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "verify_s": "s",
    "roundtrip_s": "s",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, passes: int, trace: int, setup_only: bool, index: int, workdir: str) -> dict:
    """One worker process.  ``index`` numbers the processes of a run; with
    ``seed`` it picks the process's inputs, and alone its hash seed, so
    every run, and the parent and child commits of a change, see the same
    set of memory layouts while ``seed`` varies the inputs."""
    argv = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--passes", str(passes),
        "--trace", str(trace),
        "--t0", repr(time.time()),
        "--workdir", workdir,
        "--index", str(index),
    ]
    if setup_only:
        argv.append("--setup-only")
    env = {**os.environ, "PYTHONHASHSEED": str(index)}
    timeout = SETUP_TIMEOUT_S if setup_only else RUN_TIMEOUT_S
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def plan(workload: str, seconds: float) -> list[int]:
    """Passes for each measuring process.  The amount of work depends on
    ``seconds`` alone, never on how fast the program runs, so a parent and
    a child commit measure the same work."""
    if workload != "query":
        return [1]
    per_worker = max(1, round(seconds * QUERY_PASSES_PER_S / QUERY_WORKERS))
    return [per_worker] * QUERY_WORKERS


def measure(workload: str, seed: int, seconds: float, trace: int, workdir: str, spawn=spawn) -> dict:
    """The planned workers, one after another, stopping at the first that
    saw an operation fail."""
    workers = []
    for index, passes in enumerate(plan(workload, seconds)):
        workers.append(spawn(workload, seed, passes, trace, False, index, workdir))
        if workers[-1]["failed"]:
            break
    probes = []
    if not trace:
        while len(workers) + len(probes) < SETUP_SAMPLES:
            probes.append(spawn(workload, seed, 0, 0, True, len(workers) + len(probes), workdir))
    everyone = workers + probes
    def pool(field: str) -> dict:
        return {key: [v for w in workers for v in w[field][key]] for key in workers[0][field]}

    return {
        "workers": workers,
        "setup": [w["setup_s"] for w in everyone],
        "raw_setup": [w["raw_setup_s"] for w in everyone],
        "samples": pool("samples"),
        "raw_samples": pool("raw_samples"),
        "attempted": sum(w["attempted"] for w in everyone),
        "failed": sum(w["failed"] for w in everyone),
        "problems": [p for w in everyone for p in w["problems"]],
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
    }


def end_to_end(run: dict, raw: bool = False) -> dict[str, float]:
    """The end-to-end metrics, from the samples scaled to the reference
    host speed, or with ``raw`` from the wall times."""
    samples = run["raw_samples" if raw else "samples"]
    out = {"setup_s": statistics.median(run["raw_setup" if raw else "setup"])}
    for key in ("build_s", "verify_s", "roundtrip_s"):
        if samples[key]:
            out[key] = statistics.median(samples[key])
    if samples["query_s"]:
        ms = sorted(v * 1000 for v in samples["query_s"])
        out["query_p50_ms"] = statistics.median(ms)
        out["query_p95_ms"] = ms[math.ceil(len(ms) * 0.95) - 1]  # nearest rank
    out["peak_rss_mb"] = run["peak_rss_mb"]
    out["pass_ratio"] = (run["attempted"] - run["failed"]) / run["attempted"] if run["attempted"] else 0.0
    return out


def per_layer(run: dict) -> dict:
    """Per-layer values summed over the traced run's workers; a value
    absent in any worker is absent."""
    out: dict = {}
    for worker in run["workers"]:
        for name, value in worker["layers"].items():
            if name not in out:
                out[name] = value
            elif out[name] is not None:
                out[name] = None if value is None else out[name] + value
    return out


def _layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload; prints its metrics and returns the result object."""
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as workdir:
        run = measure(workload, seed, seconds, trace, workdir)
    values = end_to_end(run)
    if trace:
        metrics = {
            name: {"value": value, "unit": _layer_unit(name)}
            if value is not None
            else {"value": None, "unit": _layer_unit(name), "absent": True}
            for name, value in per_layer(run).items()
        }
    else:
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS if name in values}
    counts = {key: len(v) for key, v in run["samples"].items()}
    readings = [r for w in run["workers"] for r in w["readings"]]
    print(f"# {workload}: env {json.dumps(run['workers'][0]['env'])}")
    print(f"# {workload}: {len(run['workers'])} measuring processes, samples {json.dumps(counts)}")
    print(
        f"# {workload}: {len(readings)} host-speed readings, median {statistics.median(readings) * 1000:.3f} ms,"
        f" quartiles {json.dumps([round(q * 1000, 3) for q in statistics.quantiles(readings, n=4)])} ms"
        " (the times are scaled to REFERENCE_S in pace.py)"
    )
    print(f"# {workload}: wall-time end-to-end {json.dumps(end_to_end(run, raw=True))}")
    if trace:
        print(f"# {workload}: traced end-to-end {json.dumps(values)}")
    for problem in run["problems"]:
        print(f"# {workload}: FAILED {problem}")
    attempted, failed = run["attempted"], run["failed"]
    print(f"# {workload}: attempted {attempted}, failed {failed}, fail_ratio {failed / max(attempted, 1):.6g}")
    for name, metric in metrics.items():
        value = metric["value"]
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{workload:<6} {name:<44} {shown:>14} {metric['unit']}")
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "freebanach", "__init__.py")):
        print(f"error: no program to measure: {ROOT}/src/freebanach is missing", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
