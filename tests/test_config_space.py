"""Property gate over the config space: a random small config either fails
with ConfigError before any latents are written, or the CLI run succeeds and
writes every artifact."""

import tempfile
from pathlib import Path

import yaml
from hypothesis import given, settings, strategies as st

from storyshots import cli

MODE_PASSES = {
    "vanilla": ["vanilla"],
    "consistent": ["vanilla", "consistent"],
    "refined": ["vanilla", "consistent", "refined"],
}

# valid values are drawn more often than out-of-range ones, so that both
# outcomes are common
steps = st.integers(-100, 1100)
valid_steps = st.integers(0, 1000)
windows = (st.none() | st.lists(valid_steps, min_size=2, max_size=2).map(sorted)
           | st.lists(valid_steps, min_size=2, max_size=2).map(sorted) | st.tuples(steps, steps).map(list))
layer_sets = st.none() | st.lists(st.integers(0, 1), max_size=2) | st.lists(st.integers(-1, 2), max_size=3)


@st.composite
def storyboards(draw):
    config = {
        "sampler_steps": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 3)),
        "t_pres": draw(st.none() | valid_steps | steps),
        "sdsa_window": draw(windows),
        "refine_window": draw(windows),
        "q_dropout": draw(st.sampled_from([0.0, 0.3, 1.0, 1.5, 0.5])),
        "q_injection": draw(st.booleans()),
        "keyframe_spacing": draw(st.integers(1, 4)),
        "injection_layers": draw(layer_sets),
        "refine_layers": draw(layer_sets),
        "model": {
            "layers": draw(st.integers(1, 2)),
            "patches_per_side": draw(st.sampled_from([8, 8, 4])),
            "channels": 4,
            "frames": draw(st.integers(1, 4)),
        },
    }
    shots = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(sorted(MODE_PASSES)))
    return config, shots, mode


@settings(max_examples=40, deadline=None, derandomize=True)
@given(storyboards())
def test_config_fails_early_or_run_writes_every_artifact(board):
    config, shots, mode = board
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "config.yaml").write_text(yaml.safe_dump(config))
        prompts = {"fox": {"subject": "a red fox", "style": "ink",
                           "settings": [f"scene {s}" for s in range(shots)]}}
        (tmp / "prompts.yaml").write_text(yaml.safe_dump(prompts))
        out = tmp / "out"
        rc = cli.main(["--config", str(tmp / "config.yaml"), "--prompts", str(tmp / "prompts.yaml"),
                       "--out", str(out), "--mode", mode])
        if rc != 0:
            assert (out / "FAILED").read_text().startswith("ConfigError")
            assert not list(out.rglob("latents_*.tensor"))
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
