"""Every committed BENCH_*.json holds what a reader of the bench trend needs:
its workload, command, host and claimed metric, and for each run pair both
sides correct and carrying every end-to-end metric BENCHMARK.json declares.
Optional `controls` entries (pairs on other workloads, to show that nothing
moved there) are held to the same rule. The claimed metric must meet the
claim rule: at least ten pairs, the change better in nine of every ten (in
the direction BENCHMARK.json gives; a tie counts for neither side), and the
medians apart by more than the parent's quartile spread. On the claim's
workload and on every control, no end-to-end metric's median may be worse
than the parent's by more than its BENCHMARK.json bound.
"""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
BOUND = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_exist():
    assert BENCH_FILES


def check_pairs(entry, where):
    assert entry["workload"] in WORKLOADS, where
    assert isinstance(entry["command"], str) and entry["command"], where
    pairs = entry["pairs"]
    assert isinstance(pairs, list) and pairs, where
    for i, pair in enumerate(pairs):
        assert sorted(pair["order"]) == ["change", "parent"], (where, i)
        for side in ("parent", "change"):
            run = pair[side]
            assert run["correct"] is True, (where, i, side)
            for name in END_TO_END:
                value = run["metrics"][name]["value"]
                assert isinstance(value, (int, float)) and math.isfinite(value), (
                    where, i, side, name)


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_is_complete(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    for key in ("workload", "command", "host", "claim", "pairs"):
        assert key in bench, (path.name, key)
    assert isinstance(bench["host"], str) and bench["host"], path.name
    assert bench["claim"] in END_TO_END, path.name
    check_pairs(bench, path.name)
    for j, control in enumerate(bench.get("controls", [])):
        check_pairs(control, (path.name, "controls", j))


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_meets_the_claim_rule(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    claim, pairs = bench["claim"], bench["pairs"]
    assert len(pairs) >= 10, path.name
    # +1 where lower is better: gain > 0 means the change beat the parent
    sign = 1 if BETTER[claim] == "lower" else -1
    parent = [pair["parent"]["metrics"][claim]["value"] for pair in pairs]
    change = [pair["change"]["metrics"][claim]["value"] for pair in pairs]
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    assert 10 * wins >= 9 * len(pairs), (path.name, wins, len(pairs))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gain = sign * (statistics.median(parent) - statistics.median(change))
    assert gain > q3 - q1, (path.name, gain, q3 - q1)


def median(entry, side, name):
    return statistics.median(pair[side]["metrics"][name]["value"] for pair in entry["pairs"])


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_worsens_no_metric_past_its_bound(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    # entry 0 is the claim's workload, the rest are its controls
    for j, entry in enumerate([bench, *bench.get("controls", [])]):
        for name in END_TO_END:
            parent, change = median(entry, "parent", name), median(entry, "change", name)
            # the change's loss relative to the parent: > 0 is worse
            loss = (change - parent) / parent * (1 if BETTER[name] == "lower" else -1)
            assert loss <= BOUND[name], (path.name, j, name, loss, BOUND[name])
