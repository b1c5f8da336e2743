"""symcurves benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see workloads.py): cheb-sweep, quartic-certify, hasse-cold and
hasse-warm.  Each item is one ``symcurves`` CLI invocation, run in-process
through ``cli.main`` with its output captured and checked; one closed-loop
client sends the next item only after the previous one has finished.  Each
process of a workload is a fresh interpreter running the program from
``src/`` with its asserts on.

With ``--trace 0`` the workload is set up SETUP_SAMPLES times in fresh
processes (set-up time is the median), and the last of them measures items
for ``--seconds`` seconds of item time.  Times are scaled to a reference
machine speed: a fixed piece of Fraction arithmetic (``worker.calibrate``)
is timed before and after every item, and at the start and end of set-up,
and each time is multiplied by the square root of the reference's nominal
time over its measured mean (``worker.speed_factor``).  The run length is
counted in these scaled seconds, so that the same seed runs the same items
on a busy host.  On a shared 2-vCPU VM the throughput of ten seeds spread
(quartile distance over median) by 8% to 16% unscaled and by 3% to 8%
scaled; the unscaled figures are in the report line.  With ``--trace 1`` a
fixed corpus prefix is run once untraced and once traced, each in its own
process, and the per-layer metrics come from the traced run.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a report
with every metric, its unit, the tail percentile used and run metadata.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402  (the benchmark's own modules, next to this file)
import worker  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
SETUP_SAMPLES = 4
TAIL_BEYOND = 10      # the tail percentile keeps this many samples above it
TIME_LIMIT_S = 170     # every worker of a run ends within this


class ChildFailed(Exception):
    pass


def spawn(workload, seed, mode, deadline, *, seconds=None, items=None):
    """Run one worker process to completion before ``deadline`` (a
    perf_counter time); returns ((set-up seconds, scaled to the reference
    machine speed), result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    if items is not None:
        cmd += ["--items", str(items)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        if not select.select([proc.stdout], [], [], max(deadline - t0, 0))[0]:
            raise subprocess.TimeoutExpired(cmd, deadline - t0)
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} worker did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    word, _, calibration = first.partition(" ")
    if proc.returncode != 0 or word != "ready":
        raise ChildFailed(f"{mode} worker exited with {proc.returncode}")
    setup = (setup_s, setup_s * worker.speed_factor(float(calibration)))
    if mode == "setup":
        return setup, None
    return setup, json.loads(rest.strip().splitlines()[-1])


def tail(latencies_ms):
    """The highest percentile with at least TAIL_BEYOND samples above it:
    the order statistic with exactly that many larger samples."""
    xs = sorted(latencies_ms)
    k = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[k], 100.0 * (k + 1) / len(xs)


def as_json(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def metadata():
    sha = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "symcurves", "*.py")):
        with open(path) as fh:
            src_lines += sum(1 for _ in fh)
    return {"git_sha": sha or "unknown", "python": platform.python_version(),
            "nproc": os.cpu_count(), "src_lines": src_lines}


def speed_factors(res):
    """Per item, the factor that scales its time to the reference speed."""
    return [worker.speed_factor(c) for c in res["calibration_ns"]]


def scaled_ns(res):
    return sum(t * s for t, s in zip(res["latencies_ns"], speed_factors(res)))


def timing_metrics(lat_ms):
    tail_ms, tail_pct = tail(lat_ms)
    return {
        "items_per_s": (len(lat_ms) / (sum(lat_ms) / 1e3), "items/s"),
        "item_p50_ms": (statistics.median(lat_ms), "ms"),
        "item_tail_ms": (tail_ms, "ms"),
    }, tail_pct


def measure(workload, seed, seconds, deadline):
    setups = [spawn(workload, seed, "setup", deadline)[0]
              for _ in range(SETUP_SAMPLES - 1)]
    setup, res = spawn(workload, seed, "measure", deadline, seconds=seconds)
    setups.append(setup)
    raw_ms = [ns / 1e6 for ns in res["latencies_ns"]]
    factors = speed_factors(res)
    metrics, tail_pct = timing_metrics([t * f for t, f in zip(raw_ms, factors)])
    metrics["setup_s"] = (statistics.median(s for _, s in setups), "s")
    metrics["peak_rss_mb"] = (res["peak_rss_kb"] / 1024, "MB")
    attempted, failed = len(raw_ms), len(res["failures"])
    raw, _ = timing_metrics(raw_ms)
    report = {
        "metrics": {"error_rate": (failed / attempted, "fraction")},
        "item_tail_percentile": tail_pct,
        "samples": attempted,
        "unscaled": as_json(raw),
        "speed_factor": {"median": statistics.median(factors),
                         "min": min(factors), "max": max(factors)},
        "setup_samples_s": {"unscaled": [s for s, _ in setups],
                            "scaled": [s for _, s in setups]},
        "failures": res["failures"][:5],
    }
    return attempted, failed, metrics, report


def trace(workload, seed, deadline):
    items = workloads.WORKLOADS[workload].trace_items
    _, plain = spawn(workload, seed, "measure", deadline, items=items)
    _, traced = spawn(workload, seed, "trace", deadline, items=items)
    summary = tracer.summarize(traced["trace"], len(traced["latencies_ns"]))
    # The root spans and the worker's own clock time the same interval.
    item_ns = traced["trace"]["total_ns"][tracer.ROOT_SPAN]
    wall_ns = sum(traced["latencies_ns"])
    if not 0 <= wall_ns - item_ns <= 0.01 * wall_ns:
        raise tracer.TraceMismatch(f"traced item time {item_ns} ns does not "
                                   f"match the measured {wall_ns} ns")
    m = summary["metrics"]
    m["trace.overhead_frac"] = scaled_ns(traced) / scaled_ns(plain) - 1
    m["cli.cache_bytes"] = traced["cache_bytes"] / len(traced["latencies_ns"])
    metrics = {k: (v, tracer.unit(k)) for k, v in m.items()}
    attempted = len(plain["latencies_ns"]) + len(traced["latencies_ns"])
    failed = len(plain["failures"]) + len(traced["failures"])
    report = {"self_seconds": summary["seconds"],
              "failures": (plain["failures"] + traced["failures"])[:5]}
    return attempted, failed, metrics, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "symcurves", "cli.py")):
        print("error: no symcurves sources under src/", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIME_LIMIT_S
    try:
        if args.trace:
            attempted, failed, metrics, report = trace(args.workload, args.seed,
                                                       deadline)
        else:
            attempted, failed, metrics, report = measure(args.workload, args.seed,
                                                         args.seconds, deadline)
    except (ChildFailed, tracer.TraceMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    shown = {**metrics, **report.pop("metrics", {})}
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "metadata": metadata(),
                      "metrics": as_json(shown), **report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": as_json(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
