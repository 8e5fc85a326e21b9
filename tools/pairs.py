"""Run the benchmark in two checkouts, in alternating pairs, and print the
``results`` block of a ``BENCH_*.json`` file:

    python3 tools/pairs.py --parent DIR --change DIR --workload recover \
        --seeds 1-10 [--workload sample --seeds 1,2] [--seconds 20]

For each workload, in the order given, and each of its seeds, the tool runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` once
in each checkout (the working directory of each run), one run at a time.  The
parent runs first in the 1st, 3rd, ... pair of each workload and second in
the others.  A ``--seeds`` option applies to the ``--workload`` before it;
seeds are a comma-separated list of integers and ``A-B`` ranges, and a seed
given twice is run as two pairs, one in each order.

The block is one JSON object on standard output, keyed by workload.  Each
entry holds per pair ``[parent, change]`` for ``failed`` and ``attempted``,
keyed by the seed (``"S #2"``, ``"S #3"``, ... for a seed's later pairs);
``correct``, true when every run of both sides was; and, for each end-to-end
metric, the per-pair values, each side's median and quartiles (the
inclusive method of ``statistics.quantiles``), ``change_over_parent`` (the
relative difference of the medians), ``change_wins``: the pairs in which
the change is better, in the direction ``BENCHMARK.json`` gives, ties
counting for neither side, and ``verdict``, the claim rule's reading of
these figures (:func:`verdict`).  Progress goes to standard error.

Only the standard library is used.  A run that exits nonzero stops the tool
with its standard error and exit status.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text):
    """``"1-3,7"`` as ``[1, 2, 3, 7]``."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def _run(tree, workload, seed, seconds):
    """The last line of one benchmark run in ``tree``, as a dict."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _keys(seeds):
    """The key of each pair: its seed, and ``"S #k"`` for the k-th pair of seed ``S``."""
    seen = {}
    for s in seeds:
        seen[s] = seen.get(s, 0) + 1
        yield str(s) if seen[s] == 1 else f"{s} #{seen[s]}"


def summarize(runs, metrics):
    """The results entry of one workload from ``runs``, a list of
    ``(seed, (parent, change))`` run reports in pair order, and ``metrics``, the
    ``end_to_end`` list of ``BENCHMARK.json``: each metric's ``name``, the
    direction it is ``better`` in (``"higher"`` or ``"lower"``) and its ``bound``."""
    runs = dict(zip(_keys(s for s, _ in runs), (pair for _, pair in runs)))
    out = {
        "failed": {k: [side["failed"] for side in pair] for k, pair in runs.items()},
        "attempted": {k: [side["attempted"] for side in pair] for k, pair in runs.items()},
        "correct": all(side["correct"] for pair in runs.values() for side in pair),
    }
    for metric in metrics:
        name = metric["name"]
        pairs = {k: [round(side["metrics"][name]["value"], 4) for side in pair]
                 for k, pair in runs.items()}
        parent, change = zip(*pairs.values())
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        mid_p, mid_c = statistics.median(parent), statistics.median(change)
        out[name] = {
            "parent_median": round(mid_p, 4),
            "change_median": round(mid_c, 4),
            "change_over_parent": round(mid_c / mid_p - 1, 4) if mid_p else None,
            "change_wins": f"{wins}/{len(pairs)}",
            "pairs": pairs,
            "parent_quartiles": _quartiles(parent),
            "change_quartiles": _quartiles(change),
            "verdict": verdict(parent, change, sign, metric["bound"]),
        }
    return out


def verdict(parent, change, sign, bound):
    """The claim rule's reading of one metric's pairs ``parent[k]``, ``change[k]``,
    with ``sign`` 1 where higher is better and -1 where lower is, and ``bound`` the
    relative worsening the benchmark allows: ``"gain"`` when the change wins at
    least 9/10 of the pairs and its median beats the parent's by more than the
    parent's IQR; else ``"worse"`` when its median is worse than the parent's by
    more than ``bound`` of it; else ``"unresolved"`` when the parent's IQR exceeds
    ``bound`` of its median, unless every change run beats every parent run; else
    ``"no change"``.  The figures are those the entry reports."""
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    mid_p, mid_c = statistics.median(parent), statistics.median(change)
    low, high = _quartiles(parent)
    gain = sign * (mid_c - mid_p)
    if 10 * wins >= 9 * len(parent) and gain > high - low:
        return "gain"
    if gain < -bound * abs(mid_p):
        return "worse"
    if high - low > bound * abs(mid_p) and not all(
            sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved"
    return "no change"


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q[0], 4), round(q[2], 4)]


def main(argv=None):
    parser = argparse.ArgumentParser(description="benchmark pairs of two checkouts")
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", action="append", type=_seeds, required=True,
                        help="seeds of the workload before it, e.g. 1-10 or 770031")
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    if len(args.seeds) != len(args.workload):
        parser.error("give one --seeds for each --workload")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    results = {}
    for workload, seeds in zip(args.workload, args.seeds):
        runs = []
        for i, seed in enumerate(seeds):
            sides = {}
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                sides[side] = _run(getattr(args, side), workload, seed, args.seconds)
                value = sides[side]["metrics"]["good_per_s"]["value"]
                print(f"{workload} seed {seed} {side}: good_per_s {value:.4g}",
                      file=sys.stderr, flush=True)
            runs.append((seed, (sides["parent"], sides["change"])))
        # A workload given twice (say, at a hold-out seed) keeps both entries.
        key = workload if workload not in results else \
            f"{workload} seeds {','.join(map(str, seeds))}"
        results[key] = summarize(runs, metrics)
    print(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
