"""The sequential oracle for pipeline.run_passes, shared by the test files
that compare a pass driver with it."""

from storyshots import pipeline, query_control as qc


def reference_chain(cfg, prompts, mode=pipeline.RunMode.REFINED) -> list:
    """The passes up to mode as hand-built PipelineRun and sample calls: the
    vanilla run is given a fresh cache whether or not a later pass reads it,
    which is handed over after it when the config injects queries, every
    later pass reads that cache, and no run is handed another's state,
    so each runs every step. The sequential oracle for run_passes and for any
    driver that replaces it."""
    cache = qc.FeatureCache(cfg)
    runs = []
    for run_mode in pipeline.RunMode:
        run = pipeline.PipelineRun(cfg, list(prompts), run_mode, cache=cache)
        pipeline.sample(run)
        if run_mode == pipeline.RunMode.VANILLA and cfg.q_injection:
            cache.hand_over()
        runs.append(run)
        if run_mode == mode:
            return runs
