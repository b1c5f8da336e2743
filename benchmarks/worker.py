"""One benchmark process: set up a workload, then run its items through
``symcurves.cli.main`` in a closed loop, one at a time, and check each output.

    python3 benchmarks/worker.py --workload NAME --seed N --mode MODE
                                 [--seconds S | --items K]

It prints ``ready`` and the mean calibration time at its start and at the end
of set-up (the parent times set-up up to that line).  Unless MODE is
``setup``, it then prints one JSON line with the item latencies, the
calibration time around each item, the failures and the peak RSS; MODE
``trace`` installs the layer tracer first and adds its totals.  Work files go
under ``.bench_work/`` and are removed on exit; trace spans are written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
from fractions import Fraction
from time import perf_counter, perf_counter_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402  (the benchmark's own modules)
import workloads  # noqa: E402

# The machine-speed reference: a fixed piece of Fraction arithmetic, timed
# before and after every item.  It takes about CALIBRATION_REF_NS on an idle
# 2-vCPU x86 VM running Python 3.11.  The program's items slow down about
# half as much as the reference does (in log terms) when the host is busy:
# over 50 runs of the four workloads, scaling by the square root of the
# speed ratio left the least spread between runs, less than the full ratio
# or none.
CALIBRATION_X = Fraction(7, 5)
CALIBRATION_REF_NS = 1_000_000
SPEED_EXPONENT = 0.5
WALL_FACTOR = 1.5


def speed_factor(calibration_ns: float) -> float:
    """Factor that scales a time measured at this calibration to the
    reference machine speed."""
    return (CALIBRATION_REF_NS / calibration_ns) ** SPEED_EXPONENT


def calibrate() -> int:
    """Nanoseconds the machine-speed reference takes now."""
    t0 = perf_counter_ns()
    for _ in range(6):
        workloads.cheb_value(40, CALIBRATION_X)
    return perf_counter_ns() - t0


def run_cli(main, argv):
    """Run one CLI invocation in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse rejects its arguments
            code = exc.code
    return code, out.getvalue()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float,
                    help="start no item after this many seconds of item time "
                         "at the reference machine speed")
    ap.add_argument("--items", type=int, help="run exactly this corpus prefix")
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        raise SystemExit("the program must run with its asserts on (no -O)")

    calibrate()                         # the first run warms the interpreter
    calibration_at_start = calibrate()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from symcurves import cli

    work_base = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_base, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_base)
    try:
        return _run(args, cli, workdir, calibration_at_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, cli, workdir, calibration_at_start) -> int:
    wl = workloads.WORKLOADS[args.workload]()
    corpus = wl.corpus(args.seed)
    wl.setup(lambda argv: run_cli(cli.main, argv), workdir)
    before = calibrate()
    print("ready", (calibration_at_start + before) / 2, flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    if args.items is not None:
        corpus = corpus[:args.items]

    # The run stops after --seconds of item time at the reference machine
    # speed, so that a busy host changes its length, not its items; a wall
    # clock limit of WALL_FACTOR times that bounds it on a very busy host.
    latencies, calibration, failures, cache_bytes = [], [], [], 0
    start, scaled_ns = perf_counter(), 0.0
    for i, item in enumerate(corpus):
        if args.seconds is not None and (
                scaled_ns >= args.seconds * 1e9
                or perf_counter() - start >= WALL_FACTOR * args.seconds):
            break
        failure = _run_item(wl, cli, tracer, i, item, workdir, latencies)
        if failure:
            failures.append(failure)
        after = calibrate()
        calibration.append((before + after) / 2)
        scaled_ns += latencies[-1] * speed_factor(calibration[-1])
        before = after
        cache = wl.cache_file(item, workdir)
        if cache and os.path.exists(cache):
            cache_bytes += os.path.getsize(cache)

    result = {
        "latencies_ns": latencies,
        "calibration_ns": calibration,
        "failures": failures,
        "cache_bytes": cache_bytes,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write_spans(os.path.join(
            out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl"))
        result["trace"] = tracing.raw(tracer)
    print(json.dumps(result), flush=True)
    return 0


def _run_item(wl, cli, tracer, index, item, workdir, latencies):
    """Run and time one item, then check it; returns a failure record or None."""
    wl.before_item(item, workdir)
    argv = wl.argv(item, workdir)
    t0 = perf_counter_ns()
    if tracer:
        tracer.start_item(index)
    try:
        code, out = run_cli(cli.main, argv)
    except Exception as exc:            # a crash is a failed item, not a stop
        code, out = None, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer:
            tracer.end_item()
    latencies.append(perf_counter_ns() - t0)
    try:
        if code is None:
            raise workloads.CheckFailed(out)
        wl.check(item, code, out, workdir)
    except workloads.CheckFailed as exc:
        return {"item": index, "argv": argv, "reason": str(exc)}
    return None


if __name__ == "__main__":
    sys.exit(main())
