"""The config space: a random small config either fails with ConfigError
before any latents are written, or the CLI run succeeds and writes every
artifact, and a second run in the same process writes the same bytes;
run_passes, whose passes resume from each other's handoffs, writes the bytes
of the sequential chain, run at one item per plain-attention call, for every
valid one, hands the later passes only the cached queries and match
fields they read, and starts each later pass where the handoff rule says;
the CLI writes the tree the sequential chain gives through the CLI's
writers; at cfg_scale 1 the guided estimate the sampler skips is
the conditional one at every step; a built config survives its dict round
trip, equal and with an equal hash, and no field of it can be reassigned;
and each hand-picked malformed config fails when it is built."""

import dataclasses
import hashlib
import json
import math
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, event, given, settings, strategies as st

from storyshots import attention, cli, pipeline, prompts as prompt_files, tensor_core
from storyshots.errors import ConfigError

from chain_oracle import pass_starts, reference_chain

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


def built(config, shots: int) -> pipeline.StoryboardConfig:
    """The drawn config as run_passes takes it; a config the CLI would fail
    on is no example."""
    try:
        cfg = pipeline.StoryboardConfig.from_dict(config)
        cfg.anchor_list(shots)
    except ConfigError:
        assume(False)
    return cfg


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
    cfg = built(config, shots)
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
    cfg = built(config, shots)
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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(storyboards())
def test_later_passes_start_where_the_handoff_rule_says(board):
    config, shots, _ = board
    cfg = built(config, shots)
    prompts = [f"a red fox, scene {s}, ink" for s in range(shots)]
    sample, entered = pipeline.sample, {}

    def entering(run):  # the start run_passes gave the run, read before it samples
        entered[run.mode] = None if run.resume_from is None else run.resume_from.step
        return sample(run)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "sample", entering)
        for _ in pipeline.run_passes(cfg, prompts):
            pass
    starts = pass_starts(cfg)
    assert entered == {
        pipeline.RunMode.VANILLA: None,
        pipeline.RunMode.CONSISTENT: starts[pipeline.RunMode.CONSISTENT],
        pipeline.RunMode.REFINED: starts[pipeline.RunMode.REFINED],
    }


@settings(max_examples=60, deadline=None, derandomize=True)
@given(storyboards())
def test_cli_writes_the_reference_chain(board):
    config, shots, mode = board
    cfg = built(config, shots)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        assert run_cli(tmp, config, shots, mode) == 0
        shot_prompts = prompt_files.load_prompts(tmp / "prompts.yaml")[0].full_prompts
        lib = tmp / "library"
        lib.mkdir()
        fingerprints = {}
        for run in reference_chain(cfg, shot_prompts, pipeline.RunMode(mode)):
            path = lib / f"latents_{run.mode.value}.tensor"
            fingerprints[run.mode.value] = tensor_core.save_tensor(path, run.outputs)
            if run.mode != pipeline.RunMode.VANILLA:
                cli._write_audit(lib / f"audit_{run.mode.value}.jsonl", run.audit)
        cli._write_metrics(lib, run)
        written, want = tree(tmp / "out" / "fox"), tree(lib)
        manifest = json.loads(written.pop("manifest.json"))
        assert written.keys() == want.keys()
        for name, data in want.items():
            assert written[name] == data, name
        assert manifest == {
            "config": cfg.to_dict(),
            "prompt_file_hash": hashlib.sha256((tmp / "prompts.yaml").read_bytes()).hexdigest(),
            "seed": cfg.seed,
            "mode": mode,
            "run_fingerprint": pipeline.run_fingerprint(cfg, shot_prompts),
            "pass_fingerprints": fingerprints,
        }


@settings(max_examples=100, deadline=None, derandomize=True)
@given(storyboards())
def test_scale_one_guidance_is_the_conditional_estimate(board):
    config, shots, mode = board
    cfg = built(dict(config, cfg_scale=1.0), shots)
    ddim_step, ran = pipeline._ddim_step, []

    def guided(model, x, c, hooks, scale, a, a_next):
        # the unconditional forward that scale 1 skips, with the step's hooks
        u = model.forward(x, cond=False, hooks=hooks).astype(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            e = (u + 1.0 * (c.astype(np.float64) - u)).astype(np.float32)
        off = e.view(np.uint32) != c.view(np.uint32)
        signed_zero = off & (e == c)
        gap = off & ~signed_zero & (np.abs(u) >= 2.0**29 * np.abs(c.astype(np.float64)))
        assert not (off & ~signed_zero & ~gap).any(), (cfg, hooks.t)
        # the README's two named cases are counted, not failed on: pytest
        # --hypothesis-show-statistics reports the share of examples with each
        for name, found in (("signed zero", signed_zero), ("|u| >= 2^29·|c|", gap)):
            if found.any():
                event(f"scale-1 blend is not c: {name}")
        ran.append(hooks.t)
        return ddim_step(model, x, c, hooks, scale, a, a_next)

    prompts = [f"a red fox, scene {s}, ink" for s in range(shots)]
    ts = cfg.timesteps()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_ddim_step", guided)
        for run in pipeline.run_passes(cfg, prompts, pipeline.RunMode(mode)):
            # every step the pass ran: those from its handoff on, all of vanilla's
            assert ran == ts[len(ts) - len(ran) :], run.mode
            assert run.mode != pipeline.RunMode.VANILLA or ran == ts
            ran.clear()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(storyboards())
def test_config_round_trips_and_stays_as_built(board):
    config, shots, _ = board
    cfg = built(config, shots)
    again = pipeline.StoryboardConfig.from_dict(cfg.to_dict())
    assert again == cfg and hash(again) == hash(cfg)
    # every drawn field, the model's included, keeps the value its checks passed
    for obj, names in ((cfg, config), (cfg.model, config["model"])):
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, getattr(obj, name))


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
