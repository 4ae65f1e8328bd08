"""Every committed BENCH_*.json holds what a reader of the bench trend needs:
its workload, command, host and claimed metric, and for each run pair both
sides correct and carrying every end-to-end metric BENCHMARK.json declares.
Optional `controls` entries (pairs on other workloads, to show that nothing
moved there) are held to the same rule.
"""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
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
