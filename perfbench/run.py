"""storyshots benchmark: drive the public CLI once per fresh process.

    python3 perfbench/run.py --workload refined_default --seed 3 --seconds 40 --trace 0

Each storyboard runs `storyshots.cli.main` in its own child process
(perfbench/child.py) with the BLAS pinned to one thread, one after another
until --seconds is used up. Every artifact it writes is hashed and checked:
against perfbench/references.json when the seed has a recorded reference,
and always against the other storyboards of the same run. With --trace 0
the untraced storyboards give the end-to-end metrics; with --trace 1 traced
and untraced storyboards alternate and the per-layer metrics are printed.
End-to-end timings are in reference seconds: each timing of a storyboard is
scaled by KERNEL_REF_S over the time of a fixed kernel run next to it in the
same child, and the median over the run's storyboards is reported.
The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Notes on the workloads and metrics are in perfbench/WORKLOADS.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
REFERENCES = BENCH_DIR / "references.json"

RUN_LIMIT_S = 170  # a run must end within 180 s; children past this are killed
BLAS_THREADS = "1"
# Median time of child.host_kernel on the 2-vCPU VM the benchmark was tuned
# on; a timing next to a kernel that ran this fast is reported unscaled.
KERNEL_REF_S = 0.175

FIVE_SHOTS = """\
fox:
  subject: a red fox
  style: watercolor
  settings:
    - leaping over a brook
    - curled in snow
    - drinking at a lake
    - walking through fog
    - sleeping under stars
"""

EIGHT_SHOTS = FIVE_SHOTS + """\
    - hunting in tall grass
    - sitting on a stone wall
    - running along a beach
"""

# Why each workload exists, which layers it exercises, and why it runs fewer
# sampler steps than the README defaults, is in WORKLOADS.md.
WORKLOADS = {
    "refined_default": {
        "mode": "refined",
        "config": "sampler_steps: 10\n",
        "prompts": FIVE_SHOTS,
    },
    "vanilla_wide": {
        "mode": "vanilla",
        "config": "sampler_steps: 6\nmodel:\n  patches_per_side: 16\n",
        "prompts": FIVE_SHOTS,
    },
    "consistent_wide": {
        "mode": "consistent",
        "config": (
            "sampler_steps: 5\nattend_middle_frame: true\nq_dropout: 0.3\n"
            "model:\n  frames: 16\n"
        ),
        "prompts": EIGHT_SHOTS,
    },
}

PASSES = ("vanilla", "consistent", "refined")  # the order cli runs them in

# Per-layer counts that depend only on the workload's shapes; each must
# repeat exactly in every traced run.
EXACT_COUNTS = (
    "pipeline.forward.calls",
    "attention.plain.calls",
    "attention.sdsa.calls",
    "attention.sdsa.key_len_mean",
    "attention.gflop_computed",
    "attention.mb_moved_computed",
    "subject_mask.otsu.calls",
    "query_control.select_q.calls",
    "query_control.q_flow.calls",
    "query_control.cache.put_mb",
    "refinement.correspondence.calls",
    "tensor_core.save_tensor.mb",
    "trace.spans",
)


class BenchError(Exception):
    """A storyboard failed a check, or the benchmark cannot run."""


def source_digest():
    """sha256 over src/storyshots/*.py (names and bytes), and their line count."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((SRC / "storyshots").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    src_sha256, lines = source_digest()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "git_commit": commit,
        "src_sha256": src_sha256,
        "src_lines": lines,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Runner:
    """Spawns children for one workload and seed and checks their output."""

    def __init__(self, workload: str, seed: int, work_dir: Path, references: dict):
        spec = WORKLOADS[workload]
        self.workload = workload
        self.mode = spec["mode"]
        self.seed = seed
        self.work_dir = work_dir
        self.reference = references.get(workload, {})
        self.config = work_dir / "config.yaml"
        self.prompts = work_dir / "prompts.yaml"
        self.config.write_text(spec["config"], encoding="utf-8")
        self.prompts.write_text(spec["prompts"], encoding="utf-8")
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.serial = 0
        self.first_hashes = None
        self.last_hashes = None
        self.attempted = 0
        self.failures: list = []
        # the counts depend on the sources, the workload and the tracer only
        key = hashlib.sha256(
            source_digest()[0].encode()
            + json.dumps(spec, sort_keys=True).encode()
            + (BENCH_DIR / "tracer.py").read_bytes()
        ).hexdigest()[:16]
        self.counts_path = OUT_ROOT / f"counts_{workload}_{key}.json"

    def storyboard(self, traced: bool = False):
        """Run one storyboard in a child process and check it.

        Returns the child's result, with `setup_s` (spawn to the first
        pipeline.sample call) added, or None after recording the failure.
        """
        self.attempted += 1
        self.serial += 1
        mode = "traced" if traced else "plain"
        name = f"{mode}{self.serial}"
        out_dir = self.work_dir / name
        result_path = self.work_dir / f"{name}.json"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(result_path), mode,
               "--config", str(self.config), "--prompts", str(self.prompts),
               "--out", str(out_dir), "--mode", self.mode, "--seed", str(self.seed)]
        spawned = time.monotonic()
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - spawned), check=False)
            if done.returncode != 0 or not result_path.exists():
                tail = (done.stderr or "").strip().splitlines()[-1:] or [""]
                raise BenchError(f"child exited {done.returncode}: {tail[0]}")
            result = json.loads(result_path.read_text())
            if result["rc"] != 0:
                raise BenchError(f"cli.main returned {result['rc']}")
            self.check(out_dir, result)
        except subprocess.TimeoutExpired:
            self.failures.append(f"storyboard {self.serial}: killed, run passed {RUN_LIMIT_S} s")
            return None
        except BenchError as exc:
            self.failures.append(f"storyboard {self.serial}: {exc}")
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        result["setup_s"] = result["first_sample"] - spawned
        return result

    def check(self, out_dir: Path, result: dict) -> None:
        if (out_dir / "FAILED").exists():
            raise BenchError("FAILED marker written")
        hashes = {
            path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*")) if path.is_file()
        }
        expected = self.reference.get("hashes", {}).get(str(self.seed))
        if expected is not None:
            _compare(hashes, expected, "reference")
        self.last_hashes = hashes
        if self.first_hashes is None:
            self.first_hashes = hashes
        else:
            _compare(hashes, self.first_hashes, "first storyboard of this run")
        _check_manifest(out_dir, hashes, self.mode)
        if "layers" in result:
            self.check_counts({k: result["layers"][k] for k in EXACT_COUNTS})

    def check_counts(self, counts: dict) -> None:
        """The shape-determined counts must repeat exactly in every traced
        storyboard of the same sources, workload and tracer; the first one in
        a checkout records them in a file named by a hash of those three."""
        if self.counts_path.exists():
            seen = json.loads(self.counts_path.read_text())
            wrong = [f"{k}={v!r} (earlier run {seen.get(k)!r})"
                     for k, v in counts.items() if seen.get(k) != v]
            if wrong:
                raise BenchError("counts did not repeat: " + ", ".join(wrong))
        else:
            self.counts_path.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")


def _compare(hashes: dict, expected: dict, what: str) -> None:
    if hashes == expected:
        return
    missing = sorted(set(expected) - set(hashes))
    extra = sorted(set(hashes) - set(expected))
    differ = sorted(k for k in set(hashes) & set(expected) if hashes[k] != expected[k])
    raise BenchError(
        f"artifacts differ from {what}: differ={differ} missing={missing} extra={extra}"
    )


def _check_manifest(out_dir: Path, hashes: dict, mode: str) -> None:
    """Self-consistency that holds for any seed: each prompt set has a
    manifest naming, by content hash, the latents that were written, and an
    audit log for every pass after the vanilla one."""
    passes = PASSES[: PASSES.index(mode) + 1]
    manifests = sorted(out_dir.glob("*/manifest.json"))
    if not manifests:
        raise BenchError("no manifest.json written")
    for manifest in manifests:
        set_name = manifest.parent.name
        data = json.loads(manifest.read_text())
        for p in passes:
            if data["pass_fingerprints"].get(p) != hashes.get(f"{set_name}/latents_{p}.tensor"):
                raise BenchError(f"manifest fingerprint of pass {p!r} does not match latents")
        for p in passes[1:]:
            if f"{set_name}/audit_{p}.jsonl" not in hashes:
                raise BenchError(f"audit log of pass {p!r} missing")


def _median(values):
    return statistics.median(values) if values else 0.0


def _storyboards(runner: Runner, seconds: float, trace: bool):
    """Closed loop: start the next storyboard only if it should end in time.

    With `trace`, traced and untraced storyboards alternate, starting with a
    traced one. Returns (untraced results, traced results); there is at
    least one of each kind asked for unless a storyboard fails, which ends
    the loop.
    """
    start = time.monotonic()
    plain, traced = [], []
    longest = 0.0
    while True:
        want_traced = trace and len(traced) <= len(plain)
        began = time.monotonic()
        done = runner.storyboard(traced=want_traced)
        longest = max(longest, time.monotonic() - began)
        if done is None:
            return plain, traced
        (traced if want_traced else plain).append(done)
        enough = plain and (traced or not trace)
        if enough and time.monotonic() - start + longest > seconds:
            return plain, traced


def timings(board: dict, mode: str) -> dict:
    """Metric name -> (unscaled, at reference host speed) for one storyboard.
    A timing at reference speed is scaled by KERNEL_REF_S over the mean of
    the host-speed kernel times next to it: kernel_s holds one time before
    each pass and one after cli.main, so pass i lies between kernel_s[i] and
    kernel_s[i + 1], set-up ends just before kernel_s[0], and the whole
    storyboard spans them all."""
    kernel = board["kernel_s"]

    def pair(value, *times):
        return value, value * KERNEL_REF_S / statistics.fmean(times)

    i = PASSES.index(mode)
    return {
        "setup_s": pair(board["setup_s"], kernel[0]),
        "storyboard_s": pair(board["wall_s"], *kernel),
        "cpu_s": pair(board["cpu_s"], *kernel),
        "pass_s.vanilla": pair(board["passes"]["vanilla"], kernel[0], kernel[1]),
        "pass_s.mode": pair(board["passes"][mode], kernel[i], kernel[i + 1]),
    }


def end_to_end(boards, mode: str) -> dict:
    """Per metric: (reported value, unscaled samples). A timing reports the
    median over the storyboards of its value at reference host speed; peak
    RSS reports its plain median. WORKLOADS.md ("Host-speed scaling") gives
    the reason."""
    per_board = [timings(r, mode) for r in boards]
    result = {
        name: (_median([t[name][1] for t in per_board]), [t[name][0] for t in per_board])
        for name in ("setup_s", "storyboard_s", "cpu_s", "pass_s.vanilla", "pass_s.mode")
    }
    rss = [r["peak_rss_mb"] for r in boards]
    result["peak_rss_mb"] = (_median(rss), rss)
    return result


def per_layer(plain, traced) -> dict:
    """Median over the traced storyboards of each per-layer figure (the exact
    counts, checked equal, as they are), plus the figures that come from the
    untraced storyboards of the same run."""
    if not plain or not traced:
        return {}
    layers = {
        name: value if name in EXACT_COUNTS else _median([r["layers"][name] for r in traced])
        for name, value in traced[0]["layers"].items()  # counts are equal in every one
    }
    for p in ("consistent", "refined"):
        layers[f"pipeline.pass_s.{p}"] = _median([r["passes"].get(p, 0.0) for r in plain])
    layers["cli.artifacts_s"] = _median([r["wall_s"] - sum(r["passes"].values()) for r in plain])
    layers["trace.storyboard_s"] = min(r["wall_s"] for r in traced)
    layers["trace.overhead_s"] = layers["trace.storyboard_s"] - min(r["wall_s"] for r in plain)
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "storyshots" / "cli.py").is_file():
        print(f"error: no storyshots sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    references = json.loads(REFERENCES.read_text())["workloads"]

    work_dir = OUT_ROOT / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    env = environment()
    (work_dir / "env.json").write_text(json.dumps(env, indent=2) + "\n")
    print("env " + json.dumps(env, sort_keys=True))

    runner = Runner(args.workload, args.seed, work_dir, references)
    plain, traced = _storyboards(runner, args.seconds, bool(args.trace))
    e2e = end_to_end(plain, runner.mode)
    for m in declared["end_to_end"]:
        value, values = e2e[m["name"]]
        print(f"{m['name']:38s} {value!r} {m['unit']} "
              f"(n={len(values)}, unscaled min {min(values, default=0.0)!r}, "
              f"median {_median(values)!r})")
    if args.trace:
        layers = per_layer(plain, traced)
        print(f"per-layer figures, median over {len(traced)} traced storyboards:")
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in declared["per_layer"]}
        for name, metric in metrics.items():
            print(f"{name:38s} {metric['value']!r} {metric['unit']}")
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in declared["end_to_end"]}
    failed = len(runner.failures)
    for reason in runner.failures:
        print(f"FAILED {reason}")
    print(f"{'failed_share':38s} {failed / runner.attempted!r} share "
          f"({failed} of {runner.attempted} child runs)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        raise SystemExit(main())
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        raise SystemExit(2)
