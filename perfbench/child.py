"""Run one storyboard through storyshots.cli.main in a fresh process.

Usage: child.py RESULT_JSON MODE [CLI ARGS...]

MODE is `plain` (untraced) or `traced` (every public storyshots function
wrapped by perfbench/tracer.py; the spans go to RESULT.trace.json as Chrome
trace events). The result file gets the monotonic time of the first
pipeline.sample call, which the parent compares with the time it spawned
this process, plus wall, CPU, peak RSS and per-pass times, the times of the
host-speed kernel run before each pass and after the storyboard, and for a
traced run the per-layer figures. Wall and CPU time exclude the kernels.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

import numpy as np


def host_kernel():
    """Wall and CPU time of a fixed numpy workload shaped like the toy model's
    attention: small float32 matmuls, a float64 softmax and the Python loop
    around them, at 64 and 256 patches. It uses no storyshots code, so a
    change to the program cannot move it; it measures how fast the host is
    running at that moment (see WORKLOADS.md, "Host-speed scaling")."""
    rng = np.random.default_rng(0)
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for patches, reps in ((64, 2400), (256, 120)):
        q, k, v = (rng.standard_normal((patches, 16)).astype(np.float32) for _ in range(3))
        for _ in range(reps):
            logits = (q @ k.T).astype(np.float64) * 0.25
            logits -= logits.max(axis=1, keepdims=True)
            w = np.exp(logits)
            w /= w.sum(axis=1, keepdims=True)
            w.astype(np.float32) @ v
    return time.perf_counter() - wall0, time.process_time() - cpu0


def main(argv) -> int:
    result_path, mode, cli_args = argv[0], argv[1], argv[2:]
    from storyshots import cli, pipeline

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    first_sample = []
    passes = {}
    kernels = []  # (wall, cpu) of host_kernel before each pass, then after cli.main
    sample = pipeline.sample

    def timed_sample(run):
        if not first_sample:
            first_sample.append(time.monotonic())
        kernels.append(host_kernel())
        start = time.perf_counter()
        try:
            return sample(run)
        finally:
            passes[run.mode.value] = time.perf_counter() - start

    pipeline.sample = timed_sample
    wall0, cpu0 = time.perf_counter(), time.process_time()
    rc = cli.main(cli_args)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    wall -= sum(k[0] for k in kernels)
    cpu -= sum(k[1] for k in kernels)
    kernels.append(host_kernel())
    payload = {
        "rc": rc,
        "first_sample": first_sample[0] if first_sample else None,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passes": passes,
        "kernel_s": [k[0] for k in kernels],
    }
    if tracer is not None:
        payload["layers"] = tracer.layer_metrics()
        tracer.write_chrome_trace(os.path.splitext(result_path)[0] + ".trace.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
