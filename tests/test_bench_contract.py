"""The benchmark's tracer (perfbench/tracer.py) patches storyshots functions
by attribute name and reads fixed argument positions and result fields. This
runs one small traced storyboard through perfbench/child.py, so a rename or a
signature change that would break the benchmark fails here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parents[1]

CONFIG = {"sampler_steps": 4, "keyframe_spacing": 2, "model": {"frames": 4, "layers": 2}}
PROMPTS = {
    "fox": {
        "subject": "a red fox",
        "style": "watercolor",
        "settings": ["leaping over a brook", "curled in snow", "walking through fog"],
    }
}


def test_traced_child_reports_per_layer_figures(tmp_path):
    config = tmp_path / "config.yaml"
    prompts = tmp_path / "prompts.yaml"
    config.write_text(yaml.safe_dump(CONFIG), encoding="utf-8")
    prompts.write_text(yaml.safe_dump(PROMPTS), encoding="utf-8")
    result = tmp_path / "result.json"
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), str(result), "traced",
           "--config", str(config), "--prompts", str(prompts),
           "--out", str(tmp_path / "out"), "--mode", "refined"]
    # no bytecode cache: the test leaves nothing under perfbench/
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    payload = json.loads(result.read_text())
    assert payload["rc"] == 0
    layers = payload["layers"]
    # every traced function was reached through its patched attribute
    calls = {name: n for name, n in layers.items() if name.endswith(".calls")}
    assert calls and all(n > 0 for n in calls.values()), calls
    # the observers read their arguments and result fields
    for name in (
        "attention.sdsa.key_len_mean",
        "attention.gflop_computed",
        "subject_mask.coverage_mean",
        "query_control.cache.put_mb",
        "query_control.flow_unique_share",
        "refinement.matched_share",
        "refinement.anchor_unique_share",
        "tensor_core.save_tensor.mb",
    ):
        assert layers[name] > 0, name
