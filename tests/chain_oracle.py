"""The sequential oracle for pipeline.run_passes and the handoff rule's
start points, shared by the test files that compare a pass driver with them."""

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


def in_window(window, t) -> bool:
    return window is not None and window[0] <= t <= window[1]


def pass_starts(cfg) -> dict:
    """The step index each pass of run_passes starts at, by the handoff rule:
    the consistent pass at the first step with SDSA or the flow phase
    (q_injection and t < t_pres), the refined pass at the first refinement
    step (past the end without a refinement layer); len(ts) when none."""
    ts = cfg.timesteps()

    def first(acts):
        return next((i for i, t in enumerate(ts) if acts(t)), len(ts))

    def consistent_acts(t):
        flow = cfg.q_injection and (cfg.t_pres is None or t < cfg.t_pres)
        return flow or in_window(cfg.sdsa_window, t)

    refines = bool(cfg.refine_layer_set())
    return {
        pipeline.RunMode.VANILLA: 0,
        pipeline.RunMode.CONSISTENT: first(consistent_acts),
        pipeline.RunMode.REFINED: first(lambda t: refines and in_window(cfg.refine_window, t)),
    }
