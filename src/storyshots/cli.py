"""Command-line front end: run the multi-pass pipeline over a prompt file and
write latent dumps, audit logs, metrics, and y-t slice images."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import traceback
from pathlib import Path

from . import metrics_viz, pipeline, prompts, subject_mask, tensor_core
from .errors import ConfigError, PromptError, StoryshotsError

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


def _write_metrics(out_dir: Path, run: pipeline.PipelineRun) -> None:
    cfg = run.config
    side = cfg.model.patches_per_side
    videos = run.outputs[..., cfg.subject_channel].reshape(run.shots, cfg.model.frames, side, side)
    rows = []
    if run.shots >= 2:
        masks = subject_mask.build_masks(run.outputs, cfg.subject_channel)
        rows += metrics_viz.set_consistency(run.outputs, masks)
    # through the module attribute, so a wrapped dynamic_degree sees every call
    scores = [metrics_viz.dynamic_degree(videos[s]) for s in range(run.shots)]
    rows.append(("dynamic_degree", *metrics_viz.mean_sem(scores), run.shots))
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
    command-line text (or None). Returns 0, or 1 after writing the error to
    FAILED (or to stderr alone when out_dir cannot hold FAILED). FAILED is
    written first and removed after the last set's manifest, so a run killed
    before then also reads as failed."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "FAILED").write_text("unfinished: the run has not completed\n")
    except OSError as exc:  # e.g. out_dir names a file, or lies under one
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    try:
        config = _effective_config(config_path, overrides or {})
        # dynamic_degree needs two frames and one search block per frame
        side = config.model.patches_per_side
        min_side = metrics_viz.BLOCK_SIZE + 2 * metrics_viz.SEARCH_RADIUS
        if config.model.frames < 2 or side < min_side:
            raise ConfigError(
                f"metrics need frames >= 2 and patches_per_side >= {min_side}, "
                f"got {config.model.frames} frames of side {side}"
            )
        # parse and hash the same bytes: the file is read once
        prompt_bytes = prompts.read_bytes(prompts_path, PromptError, "prompt")
        prompt_sets = prompts.load_prompts(prompts_path, prompt_bytes)
        prompt_hash = hashlib.sha256(prompt_bytes).hexdigest()
        # the anchors are the one config check that needs a set's shot count:
        # check every set before any set's first pass
        for prompt_set in prompt_sets:
            config.anchor_list(len(prompt_set.settings))
        if mode not in [m.value for m in pipeline.RunMode]:
            raise StoryshotsError(f"unknown mode {mode!r}")
        for prompt_set in prompt_sets:
            set_dir = out_dir / prompt_set.name
            set_dir.mkdir(exist_ok=True)
            _run_prompt_set(config, prompt_set, pipeline.RunMode(mode), set_dir, prompt_hash)
        (out_dir / "FAILED").unlink()
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
    # each pass's files are written as it ends: a failed later pass leaves
    # only the earlier passes' latents next to FAILED
    for run in pipeline.run_passes(config, shot_prompts, mode):
        dump_path = set_dir / f"latents_{run.mode.value}.tensor"
        pass_fingerprints[run.mode.value] = tensor_core.save_tensor(dump_path, run.outputs)
        if run.mode != pipeline.RunMode.VANILLA:
            _write_audit(set_dir / f"audit_{run.mode.value}.jsonl", run.audit)
    _write_metrics(set_dir, run)
    manifest = {
        "config": config.to_dict(),
        "prompt_file_hash": prompt_hash,
        "seed": config.seed,
        "mode": mode.value,
        "run_fingerprint": pipeline.run_fingerprint(config, shot_prompts),
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
    parser.add_argument("--mode", choices=[m.value for m in pipeline.RunMode], default="refined")
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
