"""Command-line front end: run the multi-pass pipeline over a prompt file and
write latent dumps, audit logs, metrics, and y-t slice images."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from . import metrics_viz, pipeline, prompts, subject_mask, tensor_core
from .errors import ConfigError, PromptError, StoryshotsError

SLICE_BLOCK_SIZE = 4
SLICE_SEARCH_RADIUS = 2

_MODE_SEQUENCE = {
    "vanilla": [pipeline.RunMode.VANILLA],
    "consistent": [pipeline.RunMode.VANILLA, pipeline.RunMode.CONSISTENT],
    "refined": [
        pipeline.RunMode.VANILLA,
        pipeline.RunMode.CONSISTENT,
        pipeline.RunMode.REFINED,
    ],
}
# what _run_prompt_set writes into a set directory, removed before a re-run
_SET_ARTIFACTS = ("latents_*.tensor", "audit_*.jsonl", "metrics.*", "manifest.json", "slices/shot_*.pgm")


# config field -> (conversion of its flag's text, what the text must be)
_FLAG_TEXT = {
    "seed": (int, "an integer"),
    "t_pres": (int, "an integer"),
    "q_dropout": (float, "a real"),
    "anchors": (lambda text: tuple(int(v) for v in text.split(",") if v.strip() != ""),
                "comma-separated shot ids"),
}


def _parse_flag(name: str, text: str):
    """A flag's command-line text as its config value. Text that does not
    convert raises ConfigError, so it fails the run with a FAILED marker like
    any other bad config value."""
    convert, rule = _FLAG_TEXT[name]
    try:
        return convert(text)
    except ValueError:
        raise ConfigError(f"{name} must be {rule}, got {text!r}") from None


def _effective_config(config_path, overrides: dict) -> pipeline.StoryboardConfig:
    """The config file with the flag values that were given laid over it."""
    data = None if config_path is None else prompts.read_yaml(config_path, ConfigError, "config")
    data = {} if data is None else data  # None: no file, or an empty one
    overrides = {k: _parse_flag(k, v) for k, v in overrides.items() if v is not None}
    if isinstance(data, dict):  # from_dict rejects any other document
        data.update(overrides)
    return pipeline.StoryboardConfig.from_dict(data)


def _shot_videos(latents: np.ndarray, channel: int, patches_per_side: int) -> np.ndarray:
    shots, frames = latents.shape[:2]
    side = patches_per_side
    return latents[..., channel].reshape(shots, frames, side, side)


def _write_metrics(out_dir: Path, run: pipeline.PipelineRun) -> None:
    cfg = run.config
    videos = _shot_videos(run.outputs, cfg.subject_channel, cfg.model.patches_per_side)
    rows = []
    if run.shots >= 2:
        masks = subject_mask.build_masks(run.outputs, cfg.subject_channel)
        report = metrics_viz.set_consistency(run.outputs, masks)
        rows.append(
            ("set_consistency", report.set_consistency, report.set_consistency_sem, report.pair_count)
        )
        rows.append(("subject_consistency", report.subject_consistency, 0.0, run.shots))
    scores = [
        metrics_viz.dynamic_degree(
            videos[s], block_size=SLICE_BLOCK_SIZE, search_radius=SLICE_SEARCH_RADIUS
        )
        for s in range(run.shots)
    ]
    sem = float(np.std(scores, ddof=1) / math.sqrt(len(scores))) if len(scores) > 1 else 0.0
    rows.append(("dynamic_degree", float(np.mean(scores)), sem, len(scores)))
    metrics_viz.write_reports(out_dir / "metrics.csv", out_dir / "metrics.json", rows)

    slice_dir = out_dir / "slices"
    slice_dir.mkdir(exist_ok=True)
    for s in range(run.shots):
        image, _ = metrics_viz.yt_slice(videos[s])
        metrics_viz.write_pgm(slice_dir / f"shot_{s}.pgm", image)


def _write_audit(path: Path, audit) -> None:
    text = "".join(json.dumps(record, separators=(",", ":")) + "\n" for record in audit)
    tensor_core.write_atomic(path, text.encode("utf-8"))


def run_storyboard(config_path, prompts_path, out_dir, mode: str = "refined", overrides=None) -> int:
    """Run every prompt set; overrides maps `_FLAG_TEXT` fields to their
    command-line text (or None). Returns 0, or 1 after writing FAILED."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "FAILED").unlink(missing_ok=True)
    try:
        config = _effective_config(config_path, overrides or {})
        # dynamic_degree needs two frames and one search block per frame
        side, min_side = config.model.patches_per_side, SLICE_BLOCK_SIZE + 2 * SLICE_SEARCH_RADIUS
        if config.model.frames < 2 or side < min_side:
            raise ConfigError(
                f"metrics need frames >= 2 and patches_per_side >= {min_side}, "
                f"got {config.model.frames} frames of side {side}"
            )
        # parse and hash the same bytes: the file is read once
        prompt_bytes = prompts.read_bytes(prompts_path, PromptError, "prompt")
        prompt_sets = prompts.load_prompts(prompts_path, prompt_bytes)
        prompt_hash = hashlib.sha256(prompt_bytes).hexdigest()
        if mode not in _MODE_SEQUENCE:
            raise StoryshotsError(f"unknown mode {mode!r}")
        for prompt_set in prompt_sets:
            set_dir = out_dir / prompt_set.name
            set_dir.mkdir(exist_ok=True)
            _run_prompt_set(config, prompt_set, mode, set_dir, prompt_hash)
    except Exception as exc:
        (out_dir / "FAILED").write_text(f"{type(exc).__name__}: {exc}\n")
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if not isinstance(exc, StoryshotsError):
            traceback.print_exc()
        return 1
    return 0


def _run_prompt_set(config, prompt_set, mode, set_dir: Path, prompt_hash: str) -> None:
    for pattern in _SET_ARTIFACTS:
        for stale in set_dir.glob(pattern):
            stale.unlink()
    shot_prompts = prompt_set.full_prompts
    pass_fingerprints = {}
    cache = None
    last_run = None
    for run_mode in _MODE_SEQUENCE[mode]:
        run = pipeline.PipelineRun(config, shot_prompts, run_mode, cache=cache)
        pipeline.sample(run)
        dump_path = set_dir / f"latents_{run_mode.value}.tensor"
        pass_fingerprints[run_mode.value] = tensor_core.save_tensor(dump_path, run.outputs)
        if run_mode == pipeline.RunMode.VANILLA:
            cache = run.cache
        else:
            _write_audit(set_dir / f"audit_{run_mode.value}.jsonl", run.audit)
        last_run = run
    _write_metrics(set_dir, last_run)
    manifest = {
        "config": config.to_dict(),
        "prompt_file_hash": prompt_hash,
        "seed": config.seed,
        "mode": mode,
        "run_fingerprint": last_run.fingerprint,
        "pass_fingerprints": pass_fingerprints,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    tensor_core.write_atomic(set_dir / "manifest.json", text.encode("utf-8"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storyshots",
        description="Run the multi-shot consistency pipeline on a prompt file.",
    )
    parser.add_argument("--config", default=None, help="YAML config file")
    parser.add_argument("--prompts", required=True, help="YAML prompt-set file")
    parser.add_argument(
        "--out",
        default=os.environ.get("STORYBOARD_OUT", "out"),
        help="output directory (default: $STORYBOARD_OUT or ./out)",
    )
    # value flags stay text here: run_storyboard converts them, so bad text fails the run
    parser.add_argument("--seed", default=None)
    parser.add_argument("--mode", choices=sorted(_MODE_SEQUENCE), default="refined")
    parser.add_argument("--t-pres", default=None, dest="t_pres")
    parser.add_argument("--q-dropout", default=None, dest="q_dropout")
    parser.add_argument("--anchors", default=None, help="comma-separated shot ids")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {name: getattr(args, name) for name in _FLAG_TEXT}
    return run_storyboard(args.config, args.prompts, args.out, args.mode, overrides)


if __name__ == "__main__":
    raise SystemExit(main())
