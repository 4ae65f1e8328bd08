"""Deterministic multi-shot video-latent consistency toolkit.

A toy latent denoiser instrumented with cross-shot masked attention,
two-phase query injection, and refinement feature injection, plus the
consistency and motion metrics to evaluate it.
"""

from .pipeline import (
    PipelineRun,
    RunMode,
    StoryboardConfig,
    ToyModelSpec,
    run_consistent,
    run_refined,
    run_vanilla,
    sample,
)
from .prompts import ShotPromptSet, load_prompts

__all__ = [
    "PipelineRun",
    "RunMode",
    "StoryboardConfig",
    "ToyModelSpec",
    "ShotPromptSet",
    "load_prompts",
    "run_consistent",
    "run_refined",
    "run_vanilla",
    "sample",
]

__version__ = "0.1.0"
