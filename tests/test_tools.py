"""``tools/pairs.py`` writes the ``results`` block of the committed
``BENCH_*.json`` files: its summary of per-pair values must rebuild one."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_pairs():
    spec = importlib.util.spec_from_file_location("_tools_pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _end_to_end():
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _runs(block):
    """The run reports a committed results ``block`` was summarized from."""
    names = [m["name"] for m in _end_to_end()]
    return [(int(seed), tuple({"failed": block["failed"][seed][side],
                               "attempted": block["attempted"][seed][side],
                               "correct": True,
                               "metrics": {name: {"value": block[name]["pairs"][seed][side]}
                                           for name in names}}
                              for side in (0, 1)))
            for seed in block["failed"]]


def test_pairs_summary_rebuilds_a_committed_results_block():
    """From the per-pair values, failures and attempts of the ``sample`` block of
    ``BENCH_sample_block.json``, the summary gives the same medians, quartiles,
    wins and ratios, in the directions ``BENCHMARK.json`` gives, and a verdict."""
    pairs = _load_pairs()
    block = json.loads((ROOT / "BENCH_sample_block.json").read_text())["results"]["sample"]
    summary = pairs.summarize(_runs(block), _end_to_end())
    assert summary["good_per_s"]["verdict"] == "gain"  # 10 of 10 pairs, +27%
    for m in _end_to_end():
        assert summary[m["name"]].pop("verdict") in ("gain", "worse", "unresolved", "no change")
    assert summary == block
    assert pairs._seeds("1-3,7") == [1, 2, 3, 7]


def test_verdict_reads_the_claim_rule():
    """The ``recover`` ``good_per_s`` of ``BENCH_per_call.json`` (10 of 10 pairs,
    +8.7% against a parent IQR of 9.0 ops/s) reads ``"gain"``; the same pairs
    with the sides swapped (-8%, beyond no bound of 25%) read ``"no change"``, and
    the change at 0.7 times the parent reads ``"worse"``.  A parent spread wider
    than the bound reads ``"unresolved"`` unless every change run beats every
    parent run."""
    pairs = _load_pairs()
    block = json.loads((ROOT / "BENCH_per_call.json").read_text())["results"]["recover"]
    summary = pairs.summarize(_runs(block), _end_to_end())
    assert summary["good_per_s"]["verdict"] == "gain"
    parent, change = zip(*block["good_per_s"]["pairs"].values())
    assert pairs.verdict(change, parent, 1, 0.25) == "no change"
    assert pairs.verdict(parent, [0.7 * p for p in parent], 1, 0.25) == "worse"
    assert pairs.verdict(parent, [0.7 * p for p in parent], -1, 0.25) == "gain"
    spread = [1.0, 2.0, 1.0, 2.0]
    assert pairs.verdict(spread, [1.5, 1.5, 1.5, 1.5], 1, 0.25) == "unresolved"
    assert pairs.verdict(spread, [2.6, 2.6, 2.6, 2.6], 1, 0.25) == "gain"
    assert pairs.verdict(spread, [2.1, 2.1, 2.1, 2.1], 1, 0.25) == "no change"


def test_a_repeated_seed_is_two_pairs_run_in_both_orders(monkeypatch, capsys):
    """``--seeds 7,7`` runs two pairs, the parent first in one and second in
    the other, and reports both, the second under the key ``"7 #2"``."""
    pairs = _load_pairs()
    names = [m["name"] for m in _end_to_end()]
    calls = []

    def run(tree, workload, seed, seconds):
        calls.append((tree, seed))
        return {"failed": 0, "attempted": 1, "correct": True,
                "metrics": {name: {"value": float(len(calls))} for name in names}}

    monkeypatch.setattr(pairs, "_run", run)
    assert pairs.main(["--parent", "P", "--change", "C", "--workload", "sample",
                       "--seeds", "7,7", "--seconds", "1"]) == 0
    assert calls == [("P", 7), ("C", 7), ("C", 7), ("P", 7)]
    result = json.loads(capsys.readouterr().out)["sample"]
    assert result["good_per_s"]["pairs"] == {"7": [1.0, 2.0], "7 #2": [4.0, 3.0]}
