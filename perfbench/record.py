"""Record the reference artifact hashes.

    python3 perfbench/record.py [FIRST_SEED LAST_SEED]   (default 0 15)

Runs every workload once per seed from the current sources and writes
perfbench/references.json; the first seed is the pinned one. Re-record only
when a change is meant to alter the outputs.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def record_workload(workload: str, seeds) -> dict:
    work_dir = run.OUT_ROOT / "record" / workload
    refs = {"pinned_seed": seeds[0], "hashes": {}}
    for seed in seeds:
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        runner = run.Runner(workload, seed, work_dir, {})
        if runner.storyboard() is None:
            raise run.BenchError(f"{workload} seed {seed}: {runner.failures}")
        refs["hashes"][str(seed)] = runner.last_hashes
        print(f"{workload} seed {seed}: {len(runner.last_hashes)} artifacts", flush=True)
    return refs


def main(argv) -> int:
    first, last = (int(a) for a in argv) if argv else (0, 15)
    seeds = list(range(first, last + 1))
    refs = {name: record_workload(name, seeds) for name in run.WORKLOADS}
    with open(run.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump({"workloads": refs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
