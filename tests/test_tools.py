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


def test_pairs_summary_rebuilds_a_committed_results_block():
    """From the per-pair values, failures and attempts of the ``sample`` block of
    ``BENCH_sample_block.json``, the summary gives the same medians, quartiles,
    wins and ratios, in the directions ``BENCHMARK.json`` gives."""
    pairs = _load_pairs()
    block = json.loads((ROOT / "BENCH_sample_block.json").read_text())["results"]["sample"]
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    runs = [(int(seed), tuple({"failed": block["failed"][seed][side],
                               "attempted": block["attempted"][seed][side],
                               "correct": True,
                               "metrics": {name: {"value": block[name]["pairs"][seed][side]}
                                           for name in better}}
                              for side in (0, 1)))
            for seed in block["failed"]]
    assert pairs.summarize(runs, better) == block
    assert pairs._seeds("1-3,7") == [1, 2, 3, 7]


def test_a_repeated_seed_is_two_pairs_run_in_both_orders(monkeypatch, capsys):
    """``--seeds 7,7`` runs two pairs, the parent first in one and second in
    the other, and reports both, the second under the key ``"7 #2"``."""
    pairs = _load_pairs()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
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
