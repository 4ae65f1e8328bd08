import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import yaml

from storyshots import cli, pipeline, prompts, query_control, tensor_core
from storyshots.errors import PromptError

PROMPT_DOC = {
    "fox": {
        "subject": "a red fox",
        "style": "watercolor",
        "settings": [
            "leaping over a brook",
            "curled in snow",
            "trotting through ferns",
        ],
    }
}

SMALL_CONFIG = {
    "sampler_steps": 8,
    "seed": 5,
    "keyframe_spacing": 2,
    "model": {"layers": 2, "patches_per_side": 8, "channels": 8, "frames": 4},
}


# cli.main with the function argv[1] names (pipeline.sample, or
# cli._run_prompt_set) wrapped to end the process (os._exit: no except clause
# or cleanup runs) once it has returned argv[2] times
KILL_AFTER = """
import os, sys
from storyshots import cli, pipeline
module, name = sys.argv[1].split(".")
owner, returned = {"cli": cli, "pipeline": pipeline}[module], []
func = getattr(owner, name)
def call_then_exit(*args):
    returned.append(func(*args))
    if len(returned) == int(sys.argv[2]):
        os._exit(0)
    return returned[-1]
setattr(owner, name, call_then_exit)
sys.exit(cli.main(sys.argv[3:]))
"""


def write_yaml(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)
    return path


def count_puts(monkeypatch) -> list:
    """Log the (t, layer) of every FeatureCache.put."""
    puts = []
    put = query_control.FeatureCache.put

    def logged(cache, t, layer_id, q):
        puts.append((t, layer_id))
        return put(cache, t, layer_id, q)

    monkeypatch.setattr(query_control.FeatureCache, "put", logged)
    return puts


class TestPromptSets:
    def test_full_prompts_composition(self):
        ps = prompts.ShotPromptSet("fox", "a red fox", ["by a lake", "in fog"], "oil")
        assert ps.full_prompts == ["a red fox by a lake, oil", "a red fox in fog, oil"]

    def test_five_settings_give_five_prompts(self):
        ps = prompts.ShotPromptSet("n", "a dog", [f"scene {i}" for i in range(5)], "ink")
        assert len(ps.full_prompts) == 5

    def test_empty_settings_rejected(self):
        with pytest.raises(PromptError):
            prompts.ShotPromptSet("n", "a dog", [], "ink")

    def test_blank_subject_rejected(self):
        with pytest.raises(PromptError):
            prompts.ShotPromptSet("n", "   ", ["x"], "ink")

    def test_missing_field_rejected(self):
        with pytest.raises(PromptError):
            prompts.parse_prompt_sets({"n": {"subject": "a dog", "style": "ink"}})

    def test_unknown_field_rejected(self):
        entry = {"subject": "a dog", "style": "ink", "setting": ["beach"], "negative": "blurry"}
        with pytest.raises(PromptError, match=r"missing fields \['settings'\], "
                           r"unknown fields \['negative', 'setting'\]"):
            prompts.parse_prompt_sets({"n": entry})

    def test_names_equal_under_casefold_rejected(self):
        entry = {"subject": "a dog", "style": "ink", "settings": ["beach"]}
        with pytest.raises(PromptError, match="'Straße' and 'STRASSE' differ only in letter case"):
            prompts.parse_prompt_sets({"Straße": entry, "dog": entry, "STRASSE": entry})

    @pytest.mark.parametrize("doc", [None, ["fox"], "fox"], ids=["empty", "list", "text"])
    def test_non_mapping_document_rejected(self, doc):
        with pytest.raises(PromptError, match="prompt file must be a mapping"):
            prompts.parse_prompt_sets(doc)

    @pytest.mark.parametrize("entry", [None, ["a red fox"], "a red fox"], ids=["null", "list", "text"])
    def test_non_mapping_set_entry_rejected(self, entry):
        with pytest.raises(PromptError, match="prompt set 'fox': expected a mapping"):
            prompts.parse_prompt_sets({"fox": entry})

    def test_non_list_settings_rejected(self):
        with pytest.raises(PromptError):
            prompts.parse_prompt_sets(
                {"n": {"subject": "a dog", "style": "ink", "settings": "beach"}}
            )

    @pytest.mark.parametrize("settings", ["ab", ("a", "b")], ids=["text", "tuple"])
    def test_non_list_settings_rejected_by_the_set_itself(self, tmp_path, settings):
        # a str would otherwise give one one-letter shot per character
        path = tmp_path / "p.yaml"
        path.write_text("n:\n  subject: a fox\n  style: ink\n  settings: ab\n")
        with pytest.raises(PromptError) as from_file:
            prompts.load_prompts(path)
        with pytest.raises(PromptError) as built:
            prompts.ShotPromptSet("n", "a fox", settings, "ink")
        assert str(built.value) == str(from_file.value) == "prompt set 'n': field 'settings' must be a list"

    # the last four would clash with the CLI's FAILED marker or hold a NUL byte
    @pytest.mark.parametrize(
        "name", ["", ".", "..", "a/b", "/abs", "a\\b", "FAILED", "failed", "Failed", "b\0ad"]
    )
    def test_path_like_names_rejected(self, name):
        with pytest.raises(PromptError):
            prompts.ShotPromptSet(name, "a dog", ["x"], "ink")

    @pytest.mark.parametrize(
        "style, settings, field",
        [(None, ["a", "b"], "'style'"), ("ink", ["a", None], "'settings'")],
        ids=["style", "settings"],
    )
    def test_null_field_rejected(self, style, settings, field):
        entry = {"subject": "a fox", "style": style, "settings": settings}
        with pytest.raises(PromptError, match=f"field {field} .*null"):
            prompts.parse_prompt_sets({"n": entry})

    @pytest.mark.parametrize(
        "entry, field",
        [
            ({"subject": ["a", "fox"], "style": "ink", "settings": ["a"]}, "'subject'"),
            ({"subject": "a fox", "style": {"k": 1}, "settings": ["a"]}, "'style'"),
            ({"subject": "a fox", "style": "ink", "settings": [["a", "b"], "c"]}, "'settings'"),
            ({"subject": "a fox", "style": "ink", "settings": ["c", {"k": 1}]}, "'settings'"),
        ],
        ids=["subject-list", "style-mapping", "settings-list", "settings-mapping"],
    )
    def test_non_scalar_field_rejected(self, entry, field):
        # str() used to turn these into their Python repr inside the prompt
        with pytest.raises(PromptError, match=f"field {field} must be text"):
            prompts.parse_prompt_sets({"n": entry})

    def test_scalars_kept_as_written(self, tmp_path):
        # YAML 1.1 would read these as True, False, 16, 1.5 and a date
        path = tmp_path / "p.yaml"
        path.write_text(
            "yes:\n  subject: a fox\n  style: no\n  settings: [on, 0x10, 1.50, 2024-01-01]\n"
        )
        (ps,) = prompts.load_prompts(path)
        assert ps.name == "yes"
        assert ps.full_prompts == [
            "a fox on, no", "a fox 0x10, no", "a fox 1.50, no", "a fox 2024-01-01, no"
        ]

    @pytest.mark.parametrize("style", ["~", "null", ""])
    def test_null_style_in_file_rejected(self, tmp_path, style):
        # the text loader keeps YAML's null forms
        path = tmp_path / "p.yaml"
        path.write_text(f"fox:\n  subject: a fox\n  style: {style}\n  settings: [a]\n")
        with pytest.raises(PromptError, match="field 'style' has a null value"):
            prompts.load_prompts(path)

    def test_non_text_field_rejected(self):
        with pytest.raises(PromptError, match="field 'settings' must be text, got a int"):
            prompts.ShotPromptSet("n", "a dog", ["x", 16], "ink")

    @pytest.mark.parametrize(
        "text, key",
        [
            ("fox:\n  subject: a fox\n  style: ink\n  settings: [a]\n"
             "fox:\n  subject: a wolf\n  style: oil\n  settings: [b]\n", "'fox'"),
            ("fox:\n  subject: a fox\n  subject: a wolf\n  style: ink\n  settings: [a]\n",
             "'subject'"),
            ("~:\n  subject: a fox\n  style: ink\n  settings: [a]\n"
             "null:\n  subject: a wolf\n  style: oil\n  settings: [b]\n", "None"),
        ],
        ids=["set-name", "subject", "null-name"],
    )
    def test_repeated_key_rejected(self, tmp_path, text, key):
        # YAML would keep only the last value of the key
        path = tmp_path / "p.yaml"
        path.write_text(text)
        with pytest.raises(PromptError, match=f"repeated key {key}"):
            prompts.load_prompts(path)

    def test_merge_key_still_merges(self, tmp_path):
        path = tmp_path / "p.yaml"
        path.write_text(
            "fox: &base\n  subject: a fox\n  style: ink\n  settings: [a]\n"
            "wolf:\n  <<: *base\n  subject: a wolf\n"
        )
        fox, wolf = prompts.load_prompts(path)
        assert (wolf.subject, wolf.style, wolf.settings) == ("a wolf", "ink", ["a"])
        assert fox.subject == "a fox"

    @pytest.mark.parametrize("name", ["~", "null"])
    def test_null_set_name_rejected(self, tmp_path, name):
        # str() used to turn the name into the directory "None"
        path = tmp_path / "p.yaml"
        path.write_text(f"{name}:\n  subject: a fox\n  style: ink\n  settings: [a]\n")
        with pytest.raises(PromptError, match="prompt set name None must be text"):
            prompts.load_prompts(path)

    def test_load_dump_round_trip(self, tmp_path):
        path = write_yaml(tmp_path / "p.yaml", PROMPT_DOC)
        loaded = prompts.load_prompts(path)
        assert [ps.name for ps in loaded] == ["fox"]
        fields = {ps.name: {"subject": ps.subject, "style": ps.style, "settings": ps.settings}
                  for ps in loaded}
        again = prompts.load_prompts(write_yaml(tmp_path / "q.yaml", fields))
        assert again == loaded


def two_set_run(tmp_path):
    """(config, prompts) paths of a 2-step run over two sets, fox then owl."""
    cfg = write_yaml(tmp_path / "config.yaml", {**SMALL_CONFIG, "sampler_steps": 2})
    owl = {"subject": "a snowy owl", "style": "ink", "settings": ["on a branch", "in flight"]}
    return cfg, write_yaml(tmp_path / "prompts.yaml", {**PROMPT_DOC, "owl": owl})


def killed_run(func: str, calls: int, cfg, pro, out) -> subprocess.Popen:
    """A CLI run in a subprocess that ends once func has returned calls times."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(__file__).parents[1] / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen(
        [sys.executable, "-c", KILL_AFTER, func, str(calls), "--config", str(cfg),
         "--prompts", str(pro), "--out", str(out)], env=env)


@pytest.fixture
def io_paths(tmp_path):
    cfg = write_yaml(tmp_path / "config.yaml", SMALL_CONFIG)
    pro = write_yaml(tmp_path / "prompts.yaml", PROMPT_DOC)
    return cfg, pro, tmp_path / "out"


class TestCli:
    def test_refined_run_produces_artifacts(self, io_paths):
        cfg, pro, out = io_paths
        rc = cli.main(["--config", str(cfg), "--prompts", str(pro), "--out", str(out)])
        assert rc == 0
        set_dir = out / "fox"
        for name in (
            "latents_vanilla.tensor",
            "latents_consistent.tensor",
            "latents_refined.tensor",
            "audit_consistent.jsonl",
            "audit_refined.jsonl",
            "metrics.csv",
            "metrics.json",
            "manifest.json",
        ):
            assert (set_dir / name).exists(), name
        assert sorted(p.name for p in (set_dir / "slices").iterdir()) == [
            "shot_0.pgm",
            "shot_1.pgm",
            "shot_2.pgm",
        ]
        assert not (out / "FAILED").exists()

    def test_manifest_matches_effective_config(self, io_paths):
        cfg, pro, out = io_paths
        cli.main(
            ["--config", str(cfg), "--prompts", str(pro), "--out", str(out), "--seed", "9",
             "--t-pres", "700", "--q-dropout", "0.4"]
        )
        manifest = json.loads((out / "fox" / "manifest.json").read_text())
        parsed = pipeline.StoryboardConfig.from_dict(manifest["config"])
        # flag overrides the config-file seed
        assert parsed.seed == 9 and manifest["seed"] == 9
        assert manifest["config"]["t_pres"] == 700 and manifest["config"]["q_dropout"] == 0.4
        assert parsed.sampler_steps == SMALL_CONFIG["sampler_steps"]
        assert manifest["mode"] == "refined"
        assert set(manifest["pass_fingerprints"]) == {"vanilla", "consistent", "refined"}

    def test_config_scalars_keep_yaml_types(self, tmp_path):
        # only prompt files are read as text; a config's `no` is still False
        path = tmp_path / "config.yaml"
        path.write_text("q_injection: no\nattend_middle_frame: on\n")
        cfg = cli._effective_config(path, {})
        assert cfg.q_injection is False and cfg.attend_middle_frame is True

    def test_config_merge_key_still_merges(self, tmp_path):
        path = tmp_path / "config.yaml"
        path.write_text("model:\n  <<: {layers: 2, frames: 4}\n  layers: 3\n")
        model = cli._effective_config(path, {}).model
        assert (model.layers, model.frames) == (3, 4)

    def test_latents_hashed_from_the_bytes_written(self, io_paths, monkeypatch):
        cfg, pro, out = io_paths
        read_bytes = pathlib.Path.read_bytes
        read = []

        def logged(path):
            read.append(path.name)
            return read_bytes(path)

        monkeypatch.setattr(pathlib.Path, "read_bytes", logged)
        assert cli.main(["--config", str(cfg), "--prompts", str(pro), "--out", str(out)]) == 0
        assert not [name for name in read if name.startswith("latents_")], read
        monkeypatch.undo()
        manifest = json.loads((out / "fox" / "manifest.json").read_text())
        assert set(manifest["pass_fingerprints"]) == {"vanilla", "consistent", "refined"}
        for mode, digest in manifest["pass_fingerprints"].items():
            data = (out / "fox" / f"latents_{mode}.tensor").read_bytes()
            assert digest == hashlib.sha256(data).hexdigest(), mode

    def test_vanilla_mode_writes_only_vanilla(self, io_paths):
        cfg, pro, out = io_paths
        rc = cli.main(
            ["--config", str(cfg), "--prompts", str(pro), "--out", str(out), "--mode", "vanilla"]
        )
        assert rc == 0
        set_dir = out / "fox"
        assert (set_dir / "latents_vanilla.tensor").exists()
        assert not (set_dir / "latents_consistent.tensor").exists()
        assert not (set_dir / "audit_consistent.jsonl").exists()
        assert (set_dir / "metrics.csv").exists()

    def test_same_seed_runs_byte_identical(self, io_paths, tmp_path):
        cfg, pro, _ = io_paths
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert cli.main(["--config", str(cfg), "--prompts", str(pro), "--out", str(out)]) == 0
        for name in ("latents_vanilla.tensor", "latents_consistent.tensor", "latents_refined.tensor"):
            a = (outs[0] / "fox" / name).read_bytes()
            b = (outs[1] / "fox" / name).read_bytes()
            assert a == b, name

    def test_latent_dump_round_trips(self, io_paths):
        cfg, pro, out = io_paths
        cli.main(["--config", str(cfg), "--prompts", str(pro), "--out", str(out)])
        latents = tensor_core.load_tensor(out / "fox" / "latents_refined.tensor")
        assert latents.shape == (3, 4, 64, 8)
        assert latents.dtype == np.float32

    def test_failure_path_writes_marker(self, io_paths, capsys):
        cfg, _, out = io_paths
        bad = write_yaml(out.parent / "bad.yaml", {"n": {"subject": "x"}})
        rc = cli.main(["--config", str(cfg), "--prompts", str(bad), "--out", str(out)])
        assert rc == 1
        assert (out / "FAILED").exists()
        assert "PromptError" in capsys.readouterr().err

    def test_rerun_clears_stale_failed_marker(self, io_paths):
        cfg, pro, out = io_paths
        bad = write_yaml(out.parent / "bad.yaml", {"n": {"subject": "x"}})
        assert cli.main(["--config", str(cfg), "--prompts", str(bad), "--out", str(out)]) == 1
        assert (out / "FAILED").exists()
        assert cli.main(["--config", str(cfg), "--prompts", str(pro), "--out", str(out)]) == 0
        assert not (out / "FAILED").exists()

    def test_run_killed_after_any_pass_reads_as_failed(self, tmp_path):
        cfg, pro = two_set_run(tmp_path)
        passes = 2 * len(pipeline.RunMode)
        # killed after each pass of both sets, and not killed (k = passes + 1), side by side
        runs = {
            k: killed_run("pipeline.sample", k, cfg, pro, tmp_path / f"out{k}")
            for k in range(1, passes + 2)
        }
        try:
            assert {k: run.wait(timeout=300) for k, run in runs.items()} == dict.fromkeys(runs, 0)
        finally:
            for run in runs.values():
                run.kill()  # a no-op once the process has been waited for
        for k in range(1, passes + 1):
            assert (tmp_path / f"out{k}" / "FAILED").exists(), k
        whole = tmp_path / f"out{passes + 1}"
        assert not (whole / "FAILED").exists()
        set_files = ["audit_consistent.jsonl", "audit_refined.jsonl", "latents_consistent.tensor",
                     "latents_refined.tensor", "latents_vanilla.tensor", "manifest.json",
                     "metrics.csv", "metrics.json"]
        assert sorted(p.relative_to(whole).as_posix() for p in whole.rglob("*") if p.is_file()) == [
            *(f"fox/{f}" for f in set_files), *(f"fox/slices/shot_{s}.pgm" for s in range(3)),
            *(f"owl/{f}" for f in set_files), *(f"owl/slices/shot_{s}.pgm" for s in range(2)),
        ]

    def test_run_killed_after_a_set_manifest_reads_as_failed(self, tmp_path):
        # the kill lands after the first set's manifest and before the second
        # set's directory or first pass
        cfg, pro = two_set_run(tmp_path)
        out = tmp_path / "out"
        run = killed_run("cli._run_prompt_set", 1, cfg, pro, out)
        try:
            assert run.wait(timeout=300) == 0
        finally:
            run.kill()
        assert (out / "fox" / "manifest.json").exists()
        assert sorted(p.name for p in out.iterdir()) == ["FAILED", "fox"]

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    def test_out_that_cannot_be_a_directory_fails_the_run(self, io_paths, capsys, under):
        cfg, pro, out = io_paths
        out.write_text("not a directory")
        target = out / "run" if under else out
        assert cli.main(["--config", str(cfg), "--prompts", str(pro), "--out", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert out.read_text() == "not a directory"

    def test_parent_set_name_stays_inside_out(self, tmp_path, capsys):
        cfg = write_yaml(tmp_path / "config.yaml", SMALL_CONFIG)
        pro = write_yaml(tmp_path / "prompts.yaml", {"..": PROMPT_DOC["fox"]})
        out = tmp_path / "runs" / "out"
        rc = cli.main(["--config", str(cfg), "--prompts", str(pro), "--out", str(out)])
        assert rc == 1
        assert (out / "FAILED").read_text().startswith("PromptError")
        assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == ["out"]
        assert "PromptError" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["FAILED", "failed", "b\0ad"], ids=["FAILED", "failed", "nul"])
    def test_set_name_that_cannot_be_a_set_directory_fails_before_compute(
        self, tmp_path, capsys, name
    ):
        # a set named like the marker would leave a success looking like a
        # failure; a NUL byte fails only once the path is opened. Both must
        # fail the run before the set before them writes anything.
        cfg = write_yaml(tmp_path / "config.yaml", SMALL_CONFIG)
        pro = write_yaml(tmp_path / "prompts.yaml", {"fox": PROMPT_DOC["fox"], name: PROMPT_DOC["fox"]})
        out = tmp_path / "out"
        for _ in range(2):  # a re-run into the same --out fails the same way
            assert cli.main(["--config", str(cfg), "--prompts", str(pro), "--out", str(out)]) == 1
            assert (out / "FAILED").is_file()
            assert (out / "FAILED").read_text().startswith("PromptError: prompt set name")
            assert [p.name for p in out.iterdir()] == ["FAILED"]
        assert "Traceback" not in capsys.readouterr().err

    def test_rerun_removes_stale_set_artifacts(self, io_paths):
        cfg, pro, out = io_paths
        assert cli.main(["--config", str(cfg), "--prompts", str(pro), "--out", str(out)]) == 0
        set_dir = out / "fox"
        (set_dir / "notes.txt").write_text("mine")
        (set_dir / "slices" / "cover.pgm").write_bytes(b"P5")
        two_shots = {"fox": dict(PROMPT_DOC["fox"], settings=PROMPT_DOC["fox"]["settings"][:2])}
        pro2 = write_yaml(out.parent / "two.yaml", two_shots)
        rc = cli.main(
            ["--config", str(cfg), "--prompts", str(pro2), "--out", str(out), "--mode", "vanilla"]
        )
        assert rc == 0
        assert sorted(p.name for p in set_dir.iterdir()) == [
            "latents_vanilla.tensor", "manifest.json", "metrics.csv", "metrics.json",
            "notes.txt", "slices",
        ]
        assert sorted(p.name for p in (set_dir / "slices").iterdir()) == [
            "cover.pgm", "shot_0.pgm", "shot_1.pgm",
        ]
        assert (set_dir / "notes.txt").read_text() == "mine"
        manifest = json.loads((set_dir / "manifest.json").read_text())
        assert manifest["mode"] == "vanilla" and set(manifest["pass_fingerprints"]) == {"vanilla"}

    @pytest.mark.parametrize(
        "model", [{"patches_per_side": 4}, {"frames": 1}], ids=["side_4", "one_frame"]
    )
    def test_metric_infeasible_shape_fails_before_compute(self, tmp_path, model, capsys):
        config = dict(SMALL_CONFIG, model=dict(SMALL_CONFIG["model"], **model))
        cfg = write_yaml(tmp_path / "config.yaml", config)
        pro = write_yaml(tmp_path / "prompts.yaml", PROMPT_DOC)
        out = tmp_path / "out"
        rc = cli.main(["--config", str(cfg), "--prompts", str(pro), "--out", str(out)])
        assert rc == 1
        assert (out / "FAILED").read_text().startswith("ConfigError")
        assert not list(out.rglob("latents_*.tensor"))
        assert "ConfigError" in capsys.readouterr().err

    def test_match_fields_computed_once_between_vanilla_and_consistent(self, io_paths, monkeypatch):
        cfg, pro, out = io_paths
        events = []  # each pass's start and end, and each match_field call
        real_sample, real_match_field = pipeline.sample, query_control.match_field

        def sample(run):
            events.append(("start", run.mode.value))
            x = real_sample(run)
            events.append(("end", run.mode.value))
            return x

        def match_field(q_v, spacing):
            events.append("match")
            return real_match_field(q_v, spacing)

        monkeypatch.setattr(pipeline, "sample", sample)
        monkeypatch.setattr(query_control, "match_field", match_field)
        assert cli.main(["--config", str(cfg), "--prompts", str(pro), "--out", str(out)]) == 0
        for mode in ("consistent", "refined"):
            lines = (out / "fox" / f"audit_{mode}.jsonl").read_text().splitlines()
            records = [json.loads(line) for line in lines]
            flows = [(r["t"], r["layer"]) for r in records if r.get("role") == "flow"]
            assert flows and len(set(flows)) == len(flows)
        # one field per flow (t, layer), outside every pass's sample call
        passes = [(side, mode) for mode in ("consistent", "refined") for side in ("start", "end")]
        assert events == [("start", "vanilla"), ("end", "vanilla")] + ["match"] * len(flows) + passes

    @pytest.mark.parametrize(
        "mode, q_injection", [("vanilla", True), ("refined", False)],
        ids=["vanilla", "refined-no-injection"],
    )
    def test_no_query_cache_without_a_reader(self, tmp_path, monkeypatch, mode, q_injection):
        # no later pass reads the vanilla queries, so none is cached; every
        # artifact equals a hand-built chain's, whose vanilla pass does cache
        config = dict(SMALL_CONFIG, q_injection=q_injection)
        cfg_path = write_yaml(tmp_path / "config.yaml", config)
        pro = write_yaml(tmp_path / "prompts.yaml", PROMPT_DOC)
        puts = count_puts(monkeypatch)
        out = tmp_path / "out"
        argv = ["--config", str(cfg_path), "--prompts", str(pro), "--out", str(out), "--mode", mode]
        assert cli.main(argv) == 0
        assert puts == []
        monkeypatch.undo()

        cfg = pipeline.StoryboardConfig.from_dict(config)
        shot_prompts = prompts.load_prompts(pro)[0].full_prompts
        lib = tmp_path / "library"
        lib.mkdir()
        cache = query_control.FeatureCache(cfg)
        run = pipeline.PipelineRun(cfg, shot_prompts, pipeline.RunMode.VANILLA, cache=cache)
        pipeline.sample(run)
        assert len(cache.entries) == cfg.sampler_steps * cfg.model.layers
        fingerprints = {"vanilla": tensor_core.save_tensor(lib / "latents_vanilla.tensor", run.outputs)}
        order = list(pipeline.RunMode)
        for run_mode in order[1 : order.index(pipeline.RunMode(mode)) + 1]:
            run = pipeline.PipelineRun(cfg, shot_prompts, run_mode, cache=cache)
            pipeline.sample(run)
            path = lib / f"latents_{run_mode.value}.tensor"
            fingerprints[run_mode.value] = tensor_core.save_tensor(path, run.outputs)
            cli._write_audit(lib / f"audit_{run_mode.value}.jsonl", run.audit)
        cli._write_metrics(lib, run)

        set_dir = out / "fox"
        written = sorted(p.relative_to(set_dir) for p in set_dir.rglob("*") if p.is_file())
        expected = sorted(p.relative_to(lib) for p in lib.rglob("*") if p.is_file())
        assert written == sorted(expected + [pathlib.Path("manifest.json")])
        for name in expected:
            assert (set_dir / name).read_bytes() == (lib / name).read_bytes(), name
        manifest = json.loads((set_dir / "manifest.json").read_text())
        assert manifest["pass_fingerprints"] == fingerprints
        assert manifest["run_fingerprint"] == pipeline.run_fingerprint(cfg, shot_prompts)

    @pytest.mark.parametrize("mode", ["consistent", "refined"])
    def test_injecting_run_caches_every_step_and_layer(self, io_paths, monkeypatch, mode):
        cfg, pro, out = io_paths
        puts = count_puts(monkeypatch)
        argv = ["--config", str(cfg), "--prompts", str(pro), "--out", str(out), "--mode", mode]
        assert cli.main(argv) == 0
        assert len(puts) == SMALL_CONFIG["sampler_steps"] * SMALL_CONFIG["model"]["layers"]
        assert len(set(puts)) == len(puts)

    def test_vanilla_run_traces_less_than_its_query_cache(self, tmp_path):
        # the default model at 20 steps: caching the vanilla queries would take
        # steps x layers x one (shots, frames, patches, channels) float32 array
        settings = PROMPT_DOC["fox"]["settings"] + ["walking through fog", "sleeping under stars"]
        pro = write_yaml(tmp_path / "prompts.yaml", {"fox": dict(PROMPT_DOC["fox"], settings=settings)})
        cfg_path = write_yaml(tmp_path / "config.yaml", {"sampler_steps": 20})
        spec = pipeline.ToyModelSpec()
        cache_bytes = 20 * spec.layers * len(settings) * spec.frames * spec.patches * spec.channels * 4
        argv = ["--config", str(cfg_path), "--prompts", str(pro), "--out", str(tmp_path / "out"),
                "--mode", "vanilla"]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rc = cli.main(argv)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < cache_bytes, (peak, cache_bytes)

    def test_refined_audit_byte_identical_across_runs(self, io_paths, tmp_path):
        cfg, pro, _ = io_paths
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert cli.main(["--config", str(cfg), "--prompts", str(pro), "--out", str(out)]) == 0
        audits = [(out / "fox" / "audit_refined.jsonl").read_bytes() for out in outs]
        assert audits[0] == audits[1]
        records = [json.loads(line) for line in audits[0].decode().splitlines()]
        map_ids = [i for r in records if r.get("pass") == "cond" for i in r["map_ids"]]
        assert map_ids and len(set(map_ids)) == len(map_ids)
        assert sorted(map_ids) == list(range(1, len(map_ids) + 1))

    def test_failed_manifest_write_leaves_no_manifest(self, io_paths, monkeypatch, capsys):
        cfg, pro, out = io_paths
        real_replace = os.replace

        def replace(src, dst):
            if str(dst).endswith("manifest.json"):
                raise OSError("disk full")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        args = ["--config", str(cfg), "--prompts", str(pro), "--out", str(out), "--mode", "vanilla"]
        assert cli.main(args) == 1
        assert "disk full" in (out / "FAILED").read_text()
        names = sorted(p.name for p in (out / "fox").iterdir())
        assert names == ["latents_vanilla.tensor", "metrics.csv", "metrics.json", "slices"]

    @pytest.mark.parametrize(
        "name", ["audit_consistent.jsonl", "audit_refined.jsonl", "metrics.csv", "metrics.json", "shot_0.pgm"]
    )
    def test_failed_artifact_write_leaves_no_artifact(self, io_paths, monkeypatch, name):
        cfg, pro, out = io_paths
        real_replace = os.replace

        def replace(src, dst):
            if str(dst).endswith(name):
                raise OSError("disk full")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        assert cli.main(["--config", str(cfg), "--prompts", str(pro), "--out", str(out)]) == 1
        assert "disk full" in (out / "FAILED").read_text()
        names = {p.name for p in (out / "fox").rglob("*")}
        assert name not in names and "manifest.json" not in names
        assert not [n for n in names if n.endswith(".tmp")]

    @pytest.mark.parametrize(
        "which, data, error",
        [
            ("config", b"seed: [1\n", "ConfigError"),
            ("prompts", b"fox: [\n", "PromptError"),
            ("config", b"seed: \xff\n", "ConfigError"),  # not UTF-8
            ("prompts", b"fox: \xff\n", "PromptError"),
            ("config", None, "ConfigError"),  # no such file
            ("prompts", None, "PromptError"),
            ("config", b"seed: 1\nsampler_steps: 4\nseed: 2\n", "ConfigError"),  # repeated key
            ("prompts", b"{}\n", "PromptError"),  # no set: the run would write nothing
            ("prompts", b"fox: {subject: a fox, style: ink, settings: [x], negative: blurry}\n",
             "PromptError"),
            # one directory on a filesystem that folds case
            ("prompts", b"fox: {subject: a fox, style: ink, settings: [x]}\n"
                        b"Fox: {subject: a fox, style: oil, settings: [y]}\n", "PromptError"),
        ],
        ids=["config", "prompts", "config-utf8", "prompts-utf8", "config-missing", "prompts-missing",
             "config-repeated-key", "prompts-no-set", "prompts-unknown-field", "prompts-case-collision"],
    )
    def test_malformed_yaml_fails_the_run(self, io_paths, capsys, which, data, error):
        cfg, pro, out = io_paths
        path = cfg if which == "config" else pro
        if data is None:
            path.unlink()
        else:
            path.write_bytes(data)
        assert cli.main(["--config", str(cfg), "--prompts", str(pro), "--out", str(out)]) == 1
        assert (out / "FAILED").read_text().startswith(f"{error}: ")
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ") and "Traceback" not in err
        assert [p.name for p in out.iterdir()] == ["FAILED"]

    def test_unhashable_config_key_fails_the_run(self, io_paths, capsys):
        cfg, pro, out = io_paths
        cfg.write_text("? [seed, sampler_steps]\n: 2\n")  # a flow sequence as a key
        assert cli.main(["--config", str(cfg), "--prompts", str(pro), "--out", str(out)]) == 1
        failed = (out / "FAILED").read_text()
        assert failed.startswith("ConfigError: ") and "found unhashable key" in failed
        assert "Traceback" not in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["FAILED"]

    def test_unknown_mode_fails_before_compute(self, io_paths, capsys):
        cfg, pro, out = io_paths
        assert cli.run_storyboard(cfg, pro, out, mode="bogus") == 1
        assert (out / "FAILED").read_text() == "StoryshotsError: unknown mode 'bogus'\n"
        assert "Traceback" not in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["FAILED"]

    def test_prompt_hash_is_of_the_parsed_bytes(self, io_paths, monkeypatch):
        cfg, pro, out = io_paths
        parsed = pro.read_bytes()
        load_prompts = prompts.load_prompts

        def load_then_replace(*args):
            sets = load_prompts(*args)
            pro.write_bytes(parsed + b"# replaced after loading\n")
            return sets

        monkeypatch.setattr(prompts, "load_prompts", load_then_replace)
        args = ["--config", str(cfg), "--prompts", str(pro), "--out", str(out), "--mode", "vanilla"]
        assert cli.main(args) == 0
        manifest = json.loads((out / "fox" / "manifest.json").read_text())
        assert manifest["prompt_file_hash"] == hashlib.sha256(parsed).hexdigest()

    def test_anchor_flag_parsing(self):
        assert cli._parse_flag("anchors", "0,2") == (0, 2)
        assert cli._parse_flag("seed", "7") == 7 and cli._parse_flag("q_dropout", "0.4") == 0.4

    def test_one_value_flag_per_flag_text_entry(self, capsys):
        parser = cli.build_parser()
        fields = {f.name for f in dataclasses.fields(pipeline.StoryboardConfig)}
        flags = [a for a in parser._actions if a.dest in fields]
        assert [(a.option_strings, a.dest, a.default) for a in flags] == [
            (["--" + name.replace("_", "-")], name, None) for name in cli._FLAG_TEXT
        ]
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        text = " ".join(capsys.readouterr().out.split())  # as argparse wraps it at any width
        for name, (_, rule) in cli._FLAG_TEXT.items():
            assert f"--{name.replace('_', '-')} {name.upper()} {rule}" in text, name

    def test_out_defaults_to_out_whatever_the_environment(self, io_paths, tmp_path, monkeypatch):
        cfg, pro, _ = io_paths
        work, elsewhere = tmp_path / "work", tmp_path / "elsewhere"
        work.mkdir()
        elsewhere.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setenv("STORYBOARD_OUT", str(elsewhere))
        assert cli.main(["--config", str(cfg), "--prompts", str(pro), "--mode", "vanilla"]) == 0
        assert (work / "out" / "fox" / "manifest.json").is_file()
        assert list(elsewhere.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            ("--seed", "1.5", "seed must be an integer, got '1.5'"),
            ("--t-pres", "x", "t_pres must be an integer, got 'x'"),
            ("--q-dropout", "half", "q_dropout must be a real, got 'half'"),
        ],
        ids=["seed", "t_pres", "q_dropout"],
    )
    def test_bad_value_flag_fails_the_run(self, io_paths, flag, text, message):
        cfg, pro, out = io_paths
        args = ["--config", str(cfg), "--prompts", str(pro), "--out", str(out)]
        assert cli.main(args) == 0  # an earlier success in the same --out
        assert cli.main(args + [flag, text]) == 1
        assert (out / "FAILED").read_text() == f"ConfigError: {message}\n"

    def test_non_finite_pass_fails_the_run(self, tmp_path, capsys):
        config = dict(SMALL_CONFIG, cfg_scale=1.0e30, sampler_steps=2)
        cfg = write_yaml(tmp_path / "config.yaml", config)
        pro = write_yaml(tmp_path / "prompts.yaml", PROMPT_DOC)
        out = tmp_path / "out"
        rc = cli.main(["--config", str(cfg), "--prompts", str(pro), "--out", str(out)])
        assert rc == 1
        assert (out / "FAILED").read_text().startswith("NonFiniteError: consistent pass")
        assert [p.name for p in (out / "fox").glob("latents_*")] == ["latents_vanilla.tensor"]
        assert "NonFiniteError" in capsys.readouterr().err

    @pytest.mark.parametrize("anchors", ["a", "0,0", "-1", "0.5", ""])
    def test_bad_anchor_flag_fails_before_compute(self, io_paths, anchors):
        cfg, pro, out = io_paths
        args = ["--config", str(cfg), "--prompts", str(pro), "--out", str(out), "--anchors", anchors]
        assert cli.main(args) == 1
        assert (out / "FAILED").read_text().startswith("ConfigError: anchors")
        assert not list(out.rglob("latents_*.tensor"))

    def test_anchor_outside_a_later_set_fails_before_compute(self, tmp_path):
        short = dict(PROMPT_DOC["fox"], settings=PROMPT_DOC["fox"]["settings"][:2])
        pro = write_yaml(tmp_path / "prompts.yaml", {**PROMPT_DOC, "pair": short})
        cfg = write_yaml(tmp_path / "config.yaml", dict(SMALL_CONFIG, anchors=[0, 2]))
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg), "--prompts", str(pro), "--out", str(out)]) == 1
        assert (out / "FAILED").read_text().startswith("ConfigError: anchors (0, 2)")
        assert not list(out.rglob("latents_*.tensor"))

    def test_audit_lines_are_json(self, io_paths):
        cfg, pro, out = io_paths
        cli.main(["--config", str(cfg), "--prompts", str(pro), "--out", str(out)])
        lines = (out / "fox" / "audit_refined.jsonl").read_text().splitlines()
        assert lines
        events = {json.loads(line)["event"] for line in lines}
        assert events <= {"query", "sdsa", "refinement"}
