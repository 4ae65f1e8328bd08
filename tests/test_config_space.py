"""The config space: a random small config either fails with ConfigError
before any latents are written, or the CLI run succeeds and writes every
artifact, and a second run in the same process writes the same bytes;
run_passes, whose passes resume from each other's handoffs, writes the bytes
of the sequential chain, run at one item per plain-attention call, for every
valid one, and hands the later passes only the cached queries and match
fields they read; and each hand-picked malformed config fails when it is
built."""

import json
import math
import os
import re
import tempfile
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, given, settings, strategies as st

from storyshots import attention, cli, pipeline
from storyshots.errors import ConfigError

from chain_oracle import reference_chain

MODE_PASSES = {
    "vanilla": ["vanilla"],
    "consistent": ["vanilla", "consistent"],
    "refined": ["vanilla", "consistent", "refined"],
}
SMALL = {"sampler_steps": 2, "keyframe_spacing": 2,
         "model": {"layers": 1, "patches_per_side": 8, "channels": 4, "frames": 4}}

# per field, values that are out of range or of the wrong type or shape; a
# drawn config takes at most one of them, so no other defect masks it
DEFECTS = {
    "sampler_steps": [0, 2.0, True, "2"],
    "seed": [-1, 1.5, False, "1"],
    "t_pres": [-1, 1001, "750", 750.0, True],
    "sdsa_window": [[-6, 84], [600, 590], [0, 1100], [500.0, 900], [True, 900], [1, 2, 3]],
    "refine_window": [[950, 1001], [7]],
    "q_dropout": [1.5, -0.1, "0.5", True, math.nan, math.inf],
    "q_injection": [1, "no", None],
    "keyframe_spacing": [0, 2.5, 2.0, True, "2"],
    "cfg_scale": [math.nan, math.inf, -math.inf, "2", True],
    # 3 is past the last of 1-3 shots
    "anchors": [[3], [-1], [0, 0], [0.5], [1.0], [True], ["a"], 3, []],
    "injection_layers": [[2], [-1], [0, 0], [0.0]],
    "refine_layers": [[5], [False], 0],
    "model.layers": [0, 1.0, True, "2"],
    "model.frames": [1, 4.0, True, math.nan],
    "model.patches_per_side": [4],  # too small for the motion metric
}
DEFECT_CASES = [(name, value) for name in DEFECTS for value in DEFECTS[name]]
steps = st.integers(0, 1000)
windows = st.none() | st.lists(steps, min_size=2, max_size=2).map(sorted)


def id_sets(n: int):
    return st.none() | st.lists(st.integers(0, n - 1), max_size=n, unique=True)


@st.composite
def storyboards(draw):
    shots = draw(st.integers(1, 3))
    layers = draw(st.integers(1, 2))
    config = {
        "sampler_steps": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 3)),
        "t_pres": draw(st.none() | steps),
        "sdsa_window": draw(windows),
        "refine_window": draw(windows),
        "q_dropout": draw(st.sampled_from([0.0, 0.3, 1.0, 0.5, 1])),
        "q_injection": draw(st.booleans()),
        "keyframe_spacing": draw(st.integers(1, 4)),
        "cfg_scale": draw(st.sampled_from([1.0, 1.0, 2.0, 0.5, 3, -1.5])),
        "anchors": draw(st.none() | st.lists(st.integers(0, shots - 1), min_size=1, unique=True)),
        "injection_layers": draw(id_sets(layers)),
        "refine_layers": draw(id_sets(layers)),
        "model": {"layers": layers, "patches_per_side": 8, "channels": 4,
                  "frames": draw(st.integers(2, 4))},
    }
    mode = draw(st.sampled_from(sorted(MODE_PASSES)))
    if draw(st.sampled_from([False, True, True])):
        # the refined pass's handoff shapes: refinement at both layers, in
        # either order, of two or more shots, opening at a step t where SDSA
        # is off, so the pass that hands over built no masks there: the
        # consistent pass when SDSA ran at an earlier step (its query hooks
        # still act at t), else vanilla when the flow phase starts later
        ts = pipeline.StoryboardConfig(sampler_steps=config["sampler_steps"]).timesteps()
        t = draw(st.sampled_from(ts))
        config["refine_window"] = [draw(st.integers(0, t)), t]
        config["sdsa_window"] = [t + 1, 1000] if t < 1000 else None
        config["q_injection"] = True
        config["model"]["layers"] = 2
        config["refine_layers"] = draw(st.permutations(range(2)))
        shots, mode = max(shots, 2), "refined"
    defect = draw(st.none() | st.sampled_from(DEFECT_CASES))
    if defect is not None:
        name, value = defect
        (config["model"] if name.startswith("model.") else config)[name.split(".")[-1]] = value
    return config, shots, mode


def run_cli(tmp: Path, config, shots: int = 3, mode: str = "refined", out: str = "out"):
    (tmp / "config.yaml").write_text(yaml.safe_dump(config))
    prompts = {"fox": {"subject": "a red fox", "style": "ink",
                       "settings": [f"scene {s}" for s in range(shots)]}}
    (tmp / "prompts.yaml").write_text(yaml.safe_dump(prompts))
    return cli.main(["--config", str(tmp / "config.yaml"), "--prompts", str(tmp / "prompts.yaml"),
                     "--out", str(tmp / out), "--mode", mode])


def tree(out: Path) -> dict:
    """Every file under out, by its path relative to out, with its bytes."""
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def assert_failed_before_compute(out: Path):
    assert (out / "FAILED").read_text().startswith("ConfigError")
    assert not list(out.rglob("latents_*.tensor"))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(storyboards())
def test_config_fails_early_or_run_writes_every_artifact(board):
    config, shots, mode = board
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "out"
        if run_cli(tmp, config, shots, mode) != 0:
            assert_failed_before_compute(out)
            return
        assert not (out / "FAILED").exists()
        set_dir = out / "fox"
        passes = MODE_PASSES[mode]
        expected = {f"latents_{p}.tensor" for p in passes}
        expected |= {f"audit_{p}.jsonl" for p in passes[1:]}
        expected |= {"metrics.csv", "metrics.json", "manifest.json", "slices"}
        assert {p.name for p in set_dir.iterdir()} == expected
        assert {p.name for p in (set_dir / "slices").iterdir()} == {
            f"shot_{s}.pgm" for s in range(shots)
        }
        # nothing a run leaves in the process (a counter, a cache) moves a byte of the next
        assert run_cli(tmp, config, shots, mode, "again") == 0
        assert tree(tmp / "again") == tree(out)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(storyboards())
def test_run_passes_equals_reference_chain(board):
    config, shots, mode = board
    try:
        cfg = pipeline.StoryboardConfig.from_dict(config)
        cfg.anchor_list(shots)
    except ConfigError:
        assume(False)
    prompts = [f"a red fox, scene {s}, ink" for s in range(shots)]
    # the oracle runs one (shot, frame) item per budget chunk, as two CPUs
    # would (from four items on, the odd ones on the helper thread), so the
    # equality also covers the chunk walk against run_passes' default budget
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attention, "LOGITS_BUDGET_BYTES", 8 * cfg.model.patches**2)
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        want = reference_chain(cfg, prompts, pipeline.RunMode(mode))
    got = list(pipeline.run_passes(cfg, prompts, pipeline.RunMode(mode)))
    assert [run.mode for run in got] == [run.mode for run in want]
    for run, ref in zip(got, want):
        assert run.outputs.tobytes() == ref.outputs.tobytes(), run.mode
        assert json.dumps(run.audit) == json.dumps(ref.audit), run.mode


@settings(max_examples=100, deadline=None, derandomize=True)
@given(storyboards())
def test_vanilla_hands_later_passes_only_what_they_read(board):
    config, shots, _ = board
    try:
        cfg = pipeline.StoryboardConfig.from_dict(config)
        cfg.anchor_list(shots)
    except ConfigError:
        assume(False)
    prompts = [f"a red fox, scene {s}, ink" for s in range(shots)]
    # the refined run's passes start only once the vanilla run is yielded
    cache = next(pipeline.run_passes(cfg, prompts)).cache
    if not cfg.q_injection:
        assert cache is None
        return
    keys = {(t, layer) for t in cfg.timesteps() for layer in range(cfg.model.layers)}
    preserved = {(t, layer) for t, layer in keys if cfg.t_pres is not None and t >= cfg.t_pres}
    assert cache.entries.keys() == preserved
    flow = {(t, layer) for t, layer in keys - preserved if layer in cfg.injection_layer_set()}
    assert cache.flow_fields.keys() == flow


# Malformed values that once ran with another meaning ([0.5] as shot 0, [True]
# as shot 1, [0, 0] as a doubled refinement anchor, "no" as on), failed after
# latents were written (keyframe_spacing 2.5), or failed with an error other
# than ConfigError.
MALFORMED = [
    ("anchors", [0.5]), ("anchors", [True]), ("anchors", [0, 0]), ("anchors", ["a"]),
    ("anchors", 3), ("q_injection", "no"), ("keyframe_spacing", 2.5), ("sampler_steps", 2.5),
    ("seed", -1), ("seed", 1.5), ("cfg_scale", math.nan), ("cfg_scale", "2"),
    ("t_pres", "750"), ("sdsa_window", [1, 2, 3]), ("model.frames", 2.5), ("model", 3),
]


def malformed(name, value) -> dict:
    config = {**SMALL, "model": dict(SMALL["model"])}
    if name.startswith("model."):
        config["model"][name.split(".")[1]] = value
    else:
        config[name] = value
    return config


@pytest.mark.parametrize("name, value", MALFORMED)
def test_malformed_value_rejected_when_built(name, value):
    config = malformed(name, value)
    with pytest.raises(ConfigError, match=re.escape(name)):
        pipeline.StoryboardConfig(**config)
    with pytest.raises(ConfigError, match=re.escape(name)):
        pipeline.StoryboardConfig.from_dict(config)


def test_config_document_must_be_a_mapping():
    with pytest.raises(ConfigError, match="config must be a mapping"):
        pipeline.StoryboardConfig.from_dict([SMALL])


# every defect the property draws, alone in an otherwise valid config, as the
# property's examples need not cover them all
@pytest.mark.parametrize("name, value", MALFORMED + [("config", [1, 2])] + DEFECT_CASES)
def test_malformed_config_fails_cli_before_compute(tmp_path, name, value):
    config = value if name == "config" else malformed(name, value)
    assert run_cli(tmp_path, config) == 1
    assert name.split(".")[-1] in (tmp_path / "out" / "FAILED").read_text()
    assert_failed_before_compute(tmp_path / "out")
