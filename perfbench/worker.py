"""One benchmark process: build a workload's inputs, run it closed-loop,
check every result, and print one JSON line with the figures.

    python3 perfbench/worker.py --workload sample --seed 1 --seconds 20 \
        --trace 0 [--setup-only]

Run from the root of a checkout: idemap is imported from ``./src``.
BLAS is pinned to one thread before numpy is imported.  The loop has one
caller and no queue: the next operation starts when the previous one has
returned.  It replays whole workload cycles until ``--seconds`` have
passed, so every run has the same mix of operations.  ``ONCE`` and
``SWEEP`` ops run once after the timed loop, untraced (see
``workloads.py``).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SRC = os.path.join(os.getcwd(), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

#: The calibration kernel and the time it takes on the reference host.
#: Timings are reported in reference-host units: an operation's wall time
#: is divided by the host factor, the mean of the kernel's times right
#: before and right after it over ``CAL_REF_S``.  The host's speed
#: drifts by tens of percent, in phases of seconds to minutes, and moves
#: the kernel and the operations together, so the scaled figures keep
#: the program's cost and drop most of the drift.  The kernel is small
#: numpy calls at n = 6 and a 12 x 12 SVD, the mix idemap's operations
#: are made of; it is the benchmark's own code, which a change to idemap
#: does not touch.
CAL_REPS = 70
CAL_REF_S = 1.0e-3
#: Calibration passes at the start of set-up and at its end, for
#: scaling ``setup_s``.
SETUP_CALIBRATIONS = 15

_cal_rng = np.random.default_rng(0)
_CAL_VECTORS = [_cal_rng.standard_normal(6) for _ in range(8)]
_CAL_MATRICES = [_cal_rng.standard_normal((6, 6)) for _ in range(4)]
_CAL_SQUARE = _cal_rng.standard_normal((12, 12))

#: The LAPACK kernel, an SVD of a 128 x 128 matrix, and its time on the
#: reference host.  Ops marked ``lapack`` spend their time in large
#: dense factorizations, which gain and lose less from the host's phases
#: than the kernel above; they are scaled by this kernel, run right
#: before and right after them.  Between fast and slow phases of one
#: run, generation at n = 16 and 24 changed by a factor of 0.75-0.85,
#: this kernel by 0.75 and the numpy kernel by 0.56.
LAPACK_REF_S = 4.0e-3
_CAL_LAPACK = _cal_rng.standard_normal((128, 128))


def calibrate_lapack():
    """Time one pass of the LAPACK kernel."""
    start = time.perf_counter()
    np.linalg.svd(_CAL_LAPACK)
    return time.perf_counter() - start


def calibrate():
    """Time one pass of the calibration kernel."""
    start = time.perf_counter()
    acc = 0.0
    for k in range(CAL_REPS):
        x, a = _CAL_VECTORS[k % 8], _CAL_MATRICES[k % 4]
        y = a @ x
        acc += float(np.linalg.norm(y)) + float(np.vdot(x, y).real)
        acc += float(np.trace(np.outer(x, y)))
    np.linalg.svd(_CAL_SQUARE)
    return time.perf_counter() - start


#: The host factor at the start of set-up, taken before scipy and idemap
#: are imported.
EARLY_CALIBRATION = [calibrate() for _ in range(SETUP_CALIBRATIONS)]


import scipy  # noqa: E402

import idemap  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def host_factor(samples):
    """Host slowness relative to the reference: median calibration time
    over ``CAL_REF_S``."""
    return statistics.median(samples) / CAL_REF_S


def nearest_rank(values, q):
    """Smallest sample with at least a share ``q`` of samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_op(op):
    """Time one call; return (seconds, outcome).  The outcome is "ok", the
    class name of the exception raised, or the kind of wrong result."""
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # every failure is recorded, none stops the loop
        return time.perf_counter() - start, type(exc).__name__
    elapsed = time.perf_counter() - start
    return elapsed, op.check(result) or "ok"


def run_cycles(ops, seconds, after_first_cycle=None):
    """Replay the cycle until ``seconds`` have passed (at least once).

    The calibration kernel runs before every operation and after the
    last, and the LAPACK kernel right before and after each ``lapack``
    op.  Returns each op's latencies (wall seconds, one per cycle), the
    same in reference-host seconds, the calibration times, the outcome
    counts, the first cycle's outcomes in op order, and the number of
    cycles.
    """
    wall = [[] for _ in ops]
    scaled = [[] for _ in ops]
    calibration = []
    outcomes = collections.Counter()
    first_cycle = []
    cycles = 0
    start = time.perf_counter()
    while cycles == 0 or time.perf_counter() - start < seconds:
        before = calibrate()
        for i, op in enumerate(ops):
            if op.lapack:
                lapack_before = calibrate_lapack()
            elapsed, outcome = run_op(op)
            if op.lapack:
                ref, kernel_s = LAPACK_REF_S, lapack_before + calibrate_lapack()
            after = calibrate()
            if not op.lapack:
                ref, kernel_s = CAL_REF_S, before + after
            wall[i].append(elapsed)
            scaled[i].append(elapsed * 2.0 * ref / kernel_s)
            calibration.append(before)
            before = after
            outcomes[outcome] += 1
            if cycles == 0:
                first_cycle.append(outcome)
        cycles += 1
        if cycles == 1 and after_first_cycle:
            after_first_cycle()
    return wall, scaled, calibration, outcomes, first_cycle, cycles


def end_to_end(ops, scaled, outcomes, cycles):
    """End-to-end figures from one run, with their sample counts.

    Each op's latency is the median of its repetitions; percentiles are
    nearest-rank over the ops of a class, and goodput is the share of
    correct results over the time one cycle takes at those latencies.
    """
    latency = [statistics.median(values) for values in scaled]
    attempted = sum(outcomes.values())
    metrics = {"good_per_s": outcomes.get("ok", 0) / attempted * len(ops) / sum(latency)}
    samples = {"good_per_s": attempted}
    classes = {
        "small": [s for op, s in zip(ops, latency) if op.n <= workloads.SMALL_MAX],
        "large": [s for op, s in zip(ops, latency) if op.n >= workloads.LARGE_MIN],
    }
    for cls, values in classes.items():
        ms = [1e3 * s for s in values]
        for q in (50, 90):
            name = f"{cls}_p{q}_ms"
            metrics[name] = nearest_rank(ms, q / 100) if ms else float("nan")
            samples[name] = len(ms) * cycles
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples["peak_rss_mb"] = 1
    return metrics, samples


def run_once(ops):
    """Run each op once, untimed; return the outcome counts and the wall
    time of each op."""
    results = [run_op(op) for op in ops]
    return collections.Counter(r[1] for r in results), [r[0] for r in results]


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs, report when set-up ended, and exit")
    args = parser.parse_args(argv)

    if os.path.dirname(os.path.abspath(idemap.__file__)) != os.path.join(SRC, "idemap"):
        print(f"idemap was imported from {idemap.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        ops = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), workdir)
        ready = time.time()
        late = [calibrate() for _ in range(SETUP_CALIBRATIONS)]
        setup_factor = (host_factor(EARLY_CALIBRATION) + host_factor(late)) / 2.0
        if args.setup_only:
            print(json.dumps({"ready": ready, "host_factor": setup_factor}))
            return 0
        timed = [op for op in ops if op.mode == workloads.CYCLE]
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        wall, scaled, calibration, outcomes, first_cycle, cycles = run_cycles(
            timed, args.seconds, tracer.mark if tracer else None)
        if tracer:
            tracer.uninstall()
        once, once_s = run_once([op for op in ops if op.mode == workloads.ONCE])
        sweep, _ = run_once([op for op in ops if op.mode == workloads.SWEEP])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics, samples = end_to_end(timed, scaled, outcomes, cycles)
    wall_metrics, _ = end_to_end(timed, wall, outcomes, cycles)
    outcomes += once
    attempted = sum(outcomes.values())
    report = {
        "ready": ready,
        "host_factor": setup_factor,
        "run_host_factor": host_factor(calibration),
        "cycles": cycles,
        "ops_per_cycle": len(first_cycle),
        "attempted": attempted,
        "outcomes": dict(outcomes),
        "verdicts": first_cycle,
        "once_s": once_s,
        "sweep": dict(sweep),
        "metrics": metrics,
        "wall_metrics": wall_metrics,
        "samples": samples,
        "env": environment(),
    }
    if tracer:
        per_layer = tracer.per_layer(cycles)
        per_layer["trace.good_per_s"] = metrics["good_per_s"]
        per_layer["sweep.ill_conditioned.ops"] = sum(sweep.values())
        per_layer["sweep.ill_conditioned.fail"] = sum(sweep.values()) - sweep["ok"]
        report["per_layer"] = per_layer
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.save(spans)
        report["spans_file"] = os.path.relpath(spans)
        report["spans"] = len(tracer.span_name)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
