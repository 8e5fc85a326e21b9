"""idemap benchmark: one workload, one seed, end-to-end or traced figures.

    python3 perfbench/run.py --workload {sample,recover,algebra,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout that holds ``src/idemap``.  With
``--trace 0`` the run starts ``SETUP_PROBES`` set-up-only processes and
one measured process (all one after another, BLAS pinned to one thread)
and prints the end-to-end metrics; ``setup_s`` is the median set-up time
of the five.  Timings are in reference-host units (see ``worker.py``):
each process scales its wall times by how fast it runs a fixed
calibration kernel, so that drift in the host's speed between and
within runs cancels; the wall-clock figures are printed alongside.
With ``--trace 1`` one traced process prints the per-layer metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``correct`` is false when any operation returned a wrong result without
signalling an error; ``failed`` counts every operation that raised, exited
nonzero where success was expected, or returned a wrong result.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("sample", "recover", "algebra", "cli")

#: Set-up-only processes started before the measured one.
SETUP_PROBES = 4
#: A seed kept out of tuning, for checking later claims.
HOLDOUT_SEED = 770031
#: Wall-clock limit for the whole command.
DEADLINE_S = 170.0

#: End-to-end metrics and their units, in the order they are printed.
E2E_UNITS = {
    "good_per_s": "ops/s",
    "small_p50_ms": "ms",
    "small_p90_ms": "ms",
    "large_p50_ms": "ms",
    "large_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _spawn(args, extra, deadline):
    """Run one worker to completion; return (spawn time, its JSON report)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    spawned = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def _source_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join("src", "idemap", "*.py"))):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def _commit():
    if not os.path.isdir(".git"):
        return "unavailable (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                          timeout=10)
    return proc.stdout.strip() or "unavailable"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "idemap", "__init__.py")):
        print("error: run from the root of a checkout that holds src/idemap",
              file=sys.stderr)
        return 2

    setups, setups_wall = [], []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            spawned, probe = _spawn(args, ["--setup-only"], deadline)
            setups_wall.append(probe["ready"] - spawned)
            setups.append(setups_wall[-1] / probe["host_factor"])
    spawned, report = _spawn(args, [], deadline)
    setups_wall.append(report["ready"] - spawned)
    setups.append(setups_wall[-1] / report["host_factor"])

    outcomes = report["outcomes"]
    attempted = report["attempted"]
    failed = attempted - outcomes.get("ok", 0)
    sweep = report["sweep"]
    wrong = sum(v for k, v in [*outcomes.items(), *sweep.items()] if k.startswith("wrong_"))
    env = dict(report["env"], commit=_commit(), src_sha256=_source_digest(),
               seed=args.seed, holdout_seed=HOLDOUT_SEED)
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} cycles={report['cycles']} "
          f"ops_per_cycle={report['ops_per_cycle']}")
    kinds = {k: v for k, v in sorted(outcomes.items()) if k != "ok"}
    print(f"fail_share = {failed / attempted:.6f} fraction "
          f"(n={attempted} ops, {failed} failed) kinds: {json.dumps(kinds)}")
    if report["once_s"]:
        print(f"once-per-run ops (checked and counted above, not timed): "
              f"{len(report['once_s'])}, wall clock "
              + ", ".join(f"{s:.3f} s" for s in report["once_s"]))
    if sweep:
        swept = sum(sweep.values())
        kinds = {k: v for k, v in sorted(sweep.items()) if k != "ok"}
        print(f"ill-conditioned sweep (once per run, not in the counts above): "
              f"{swept - sweep.get('ok', 0)} of {swept} failed, kinds: {json.dumps(kinds)}")
    print(f"host factor (calibration time over the reference's): "
          f"{report['run_host_factor']:.4f} in the timed loop")

    if args.trace:
        print(f"spans: {report['spans']} in {report['spans_file']}")
        metrics = {}
        from tracing import PER_LAYER  # the worker's list, read without idemap
        for name, unit, _better in PER_LAYER:
            value = report["per_layer"][name]
            metrics[name] = {"value": value, "unit": unit}
            scope = "whole run" if name.startswith("sweep.") else "per steady-state cycle"
            print(f"{name} = {value:.6g} {unit} ({scope})")
    else:
        e2e = dict(report["metrics"], setup_s=statistics.median(setups))
        wall = dict(report["wall_metrics"], setup_s=statistics.median(setups_wall))
        samples = dict(report["samples"], setup_s=len(setups))
        metrics = {}
        for name, unit in E2E_UNITS.items():
            metrics[name] = {"value": e2e[name], "unit": unit}
            print(f"{name} = {e2e[name]:.6g} {unit} (n={samples[name]}; "
                  f"wall clock {wall[name]:.6g})")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
