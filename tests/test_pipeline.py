import dataclasses
import hashlib
import json
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from storyshots import attention, cli, pipeline, query_control as qc, subject_mask
from storyshots import tensor_core as tc
from storyshots.errors import ConfigError, NonFiniteError

from chain_oracle import in_window, pass_starts, reference_chain

SMALL_SPEC = dict(layers=2, patches_per_side=4, channels=8, frames=4)
PROMPTS = [
    "a red fox leaping over a brook, watercolor",
    "a red fox curled in snow, watercolor",
    "a red fox trotting through ferns, watercolor",
]
FIVE_PROMPTS = PROMPTS + [
    "a red fox walking through fog, watercolor",
    "a red fox sleeping under stars, watercolor",
]


def small_config(**overrides):
    kwargs = dict(
        sampler_steps=10,
        model=pipeline.ToyModelSpec(**SMALL_SPEC),
        seed=3,
        keyframe_spacing=2,
    )
    kwargs.update(overrides)
    return pipeline.StoryboardConfig(**kwargs)


def traced_peak(call) -> int:
    """Peak bytes of traced (numpy included) memory that call holds above
    what was allocated when it started."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# vanilla_wide's shape: 5 shots of 8 frames of 256 patches, one 256-patch item
# (LOGITS_BUDGET_BYTES of float64 logits) per budget chunk of plain attention,
# 40 chunks a layer, so the odd ones run on masked_attention's helper thread
WIDE_SPEC = pipeline.ToyModelSpec(patches_per_side=16)
# the float32 (S, F, P, C) arrays a forward holds at its peak, inside a layer's
# plain attention: the residual h, the layer's q, k and v, and its output h_attn
# (the caller's x was allocated before). One budget chunk in flight adds its
# logits, its bool live mask and float64 copies of one item's q, k and v: under
# 1.5 budgets, so two budgets leave half a budget for small temporaries. With
# the helper thread two chunks are in flight, and three budgets bound them.
FORWARD_LIVE_ARRAYS = 5


# the CPUs masked_attention is let see, with the budgets of float64 logits its
# chunks in flight may add to a forward's live arrays: one chunk, or two
CHUNK_BUDGETS = {(0,): 2, (0, 1): 3}


class TestStoryboardConfig:
    def test_paper_defaults(self):
        cfg = pipeline.StoryboardConfig()
        assert cfg.total_steps == 1000
        assert cfg.sampler_steps == 50
        assert cfg.t_pres == 750
        assert cfg.sdsa_window == (550, 950)
        assert cfg.refine_window == (590, 950)
        assert cfg.q_dropout == 0.0
        assert cfg.keyframe_spacing == 4
        assert cfg.anchor_list(5) == (0, 1)

    def test_timestep_mapping(self):
        cfg = pipeline.StoryboardConfig()
        ts = cfg.timesteps()
        assert len(ts) == 50
        assert ts[0] == 1000 and ts[-1] == 20
        assert sum(1 for t in ts if 550 <= t <= 950) == 20
        assert sum(1 for t in ts if t >= 750) == 13

    def test_window_validation(self):
        with pytest.raises(ConfigError):
            pipeline.StoryboardConfig(sdsa_window=(100, 2000))
        with pytest.raises(ConfigError):
            pipeline.StoryboardConfig(t_pres=1500)

    def test_round_trip_dict(self):
        cfg = small_config(anchors=(0, 2), sdsa_window=(100, 500))
        again = pipeline.StoryboardConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_anchor_validation(self):
        cfg = small_config(anchors=(5,))
        with pytest.raises(ConfigError):
            cfg.anchor_list(3)
        with pytest.raises(ConfigError):
            small_config(anchors=()).anchor_list(3)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="colour"):
            pipeline.StoryboardConfig.from_dict({"seed": 1, "colour": "red"})
        with pytest.raises(ConfigError, match="depth"):
            pipeline.StoryboardConfig.from_dict({"model": {"layers": 2, "depth": 3}})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("subject_channel", 8),
            ("subject_channel", -1),
            ("segmenter", "no_such_segmenter"),
            ("q_weight_mode", "cubic"),
            ("refine_blend", 1.5),
            ("refine_blend", -0.1),
            ("keyframe_spacing", 0),
            ("sub_batch", 0),
            ("alpha_min", 0.0),
            ("alpha_min", 1.5),
            ("injection_layers", (0, 2)),
            ("injection_layers", (-1,)),
            ("refine_layers", (9,)),
            ("refine_layers", (1.0,)),
            ("refine_layers", 1),
            ("injection_layers", (0, 0)),
            ("total_steps", 0),
            ("total_steps", 1000.0),
            ("sampler_steps", np.int64(5)),
            ("sdsa_window", (100.0, 500.0)),
            ("refine_window", (600, 590)),
            ("t_pres", True),
            ("anchors", ()),
            ("anchors", (-1,)),
            ("anchors", (0, 0)),
            ("sub_batch", 1.0),
            ("q_dropout", True),
            ("refine_blend", float("nan")),
            ("cfg_scale", float("inf")),
            ("alpha_min", "0.5"),
            ("attend_middle_frame", 1),
            ("model", None),
        ],
    )
    def test_invalid_field_rejected_at_construction(self, field, value):
        with pytest.raises(ConfigError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize("field", ["layers", "patches_per_side", "channels", "frames", "weight_seed"])
    def test_model_fields_are_integers(self, field):
        with pytest.raises(ConfigError, match=f"model.{field}"):
            pipeline.ToyModelSpec(**{field: 2.0})
        with pytest.raises(ConfigError, match=f"model.{field}"):
            pipeline.ToyModelSpec(**{field: -1})

    def test_one_patch_per_side_rejected(self):
        # Otsu needs two patches per frame
        with pytest.raises(ConfigError, match="model.patches_per_side must be an integer >= 2"):
            pipeline.ToyModelSpec(patches_per_side=1)
        pipeline.ToyModelSpec(patches_per_side=2)

    def test_field_bounds_accepted(self):
        small_config(subject_channel=7, refine_blend=1.0, keyframe_spacing=1, sub_batch=1)
        small_config(cfg_scale=2, q_dropout=1, alpha_min=0.5, sdsa_window=(0, 1000), anchors=(4,))
        small_config(refine_blend=0.0, q_weight_mode="linear")
        cfg = small_config(alpha_min=1.0, injection_layers=(0, 1), refine_layers=())
        assert cfg.injection_layer_set() == {0, 1} and cfg.refine_layer_set() == frozenset()

    def test_one_frame_rejected_with_query_injection(self):
        one = pipeline.ToyModelSpec(**dict(SMALL_SPEC, frames=1))
        with pytest.raises(ConfigError, match="frames"):
            small_config(model=one)
        with pytest.raises(ConfigError, match="frames"):
            pipeline.StoryboardConfig.from_dict({"model": {"frames": 1}})
        cfg = small_config(model=one, q_injection=False)
        *_, run = pipeline.run_passes(cfg, PROMPTS, pipeline.RunMode.CONSISTENT)
        assert run.outputs.shape[1] == 1

    def test_from_dict_layer_lists(self):
        cfg = pipeline.StoryboardConfig.from_dict({"refine_layers": [3], "injection_layers": [0]})
        assert cfg.refine_layers == (3,) and cfg.injection_layers == (0,)
        direct = pipeline.StoryboardConfig(anchors=[0, 1], refine_layers=[3], sdsa_window=[1, 2])
        assert direct == pipeline.StoryboardConfig.from_dict(
            {"anchors": [0, 1], "refine_layers": [3], "sdsa_window": [1, 2]}
        )
        assert direct.anchors == (0, 1) and direct.sdsa_window == (1, 2)
        with pytest.raises(ConfigError, match="refine_layers"):
            pipeline.StoryboardConfig.from_dict({"refine_layers": [9]})

    def test_built_config_is_frozen(self):
        # a field set after __post_init__ would reach the run unchecked
        cfg = small_config()
        for obj in (cfg, cfg.model):
            for f in dataclasses.fields(obj):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, f.name, getattr(obj, f.name))
        with pytest.raises(ConfigError, match="sampler_steps"):
            dataclasses.replace(cfg, sampler_steps=0)
        with pytest.raises(ConfigError, match="model.layers"):
            dataclasses.replace(cfg.model, layers=0)


def assert_key_shots(anchors, key_shots):
    """extended_attention over 3 shots gives shot s the keys of key_shots[s]."""
    rng = np.random.default_rng(30)
    q, k, v = (rng.standard_normal((3, 4, 5, 2)).astype(np.float32) for _ in range(3))
    masks = rng.random((3, 4, 5)) < 0.5
    out = attention.extended_attention(q, k, v, masks, anchors, False)
    for s, ks in enumerate(key_shots):
        want = attention.framewise_sdsa(q, k, v, masks, np.arange(4), s, ks, False)
        assert np.array_equal(out[s], want), s


def refinement_map_counts(anchors) -> set:
    """Map ids per refinement audit record of a refined pass over 3 shots."""
    *_, run = pipeline.run_passes(small_config(anchors=anchors), PROMPTS)
    return {len(r["map_ids"]) for r in run.audit if r["event"] == "refinement"}


class TestAnchorTopology:
    def test_follower_spans_self_plus_anchors(self):
        assert_key_shots((0, 1), [[0, 1], [0, 1], [0, 1, 2]])
        assert_key_shots((2,), [[0, 2], [1, 2], [2]])

    def test_all_anchor_clique(self):
        assert_key_shots((0, 1, 2), [[0, 1, 2]] * 3)

    def test_refine_sources_exclude_self(self):
        # anchor 0 has no source but itself, so it gets no map; with two
        # anchors each has the other, and every (shot, frame) gets one
        frames = SMALL_SPEC["frames"]
        assert refinement_map_counts((0,)) == {(len(PROMPTS) - 1) * frames}
        assert refinement_map_counts((0, 1)) == {len(PROMPTS) * frames}

    def test_empty_anchors_rejected(self):
        with pytest.raises(ConfigError, match="anchors"):
            pipeline.StoryboardConfig(anchors=())


class TestToyModel:
    def test_forward_deterministic(self):
        spec = pipeline.ToyModelSpec(**SMALL_SPEC)
        x = np.random.default_rng(0).standard_normal((2, 4, 16, 8)).astype(np.float32)
        e1 = pipeline.ToyModel(spec, PROMPTS[:2]).forward(x, cond=True)
        e2 = pipeline.ToyModel(spec, PROMPTS[:2]).forward(x, cond=True)
        assert np.array_equal(e1, e2)

    def test_same_prompt_same_noise_same_output(self):
        spec = pipeline.ToyModelSpec(**SMALL_SPEC)
        model = pipeline.ToyModel(spec, [PROMPTS[0], PROMPTS[0]])
        x1 = np.random.default_rng(1).standard_normal((1, 4, 16, 8)).astype(np.float32)
        x = np.concatenate([x1, x1])
        e = model.forward(x, cond=True)
        assert np.array_equal(e[0], e[1])

    def test_uncond_ignores_prompts(self):
        spec = pipeline.ToyModelSpec(**SMALL_SPEC)
        x = np.random.default_rng(2).standard_normal((2, 4, 16, 8)).astype(np.float32)
        a = pipeline.ToyModel(spec, PROMPTS[:2]).forward(x, cond=False)
        b = pipeline.ToyModel(spec, ["other", "words"]).forward(x, cond=False)
        assert np.array_equal(a, b)

    def test_prompt_work_is_done_once_at_construction(self, monkeypatch):
        spec = pipeline.ToyModelSpec(**SMALL_SPEC)
        token_vector = pipeline._token_vector
        tokens = []

        def counted(token, channels):
            tokens.append(token)
            return token_vector(token, channels)

        monkeypatch.setattr(pipeline, "_token_vector", counted)
        model = pipeline.ToyModel(spec, ["a b b", ""])
        # one call per token; a prompt with no token stands for the empty one
        assert tokens == ["a", "b", "b", ""]
        x = np.random.default_rng(4).standard_normal((2, 4, 16, 8)).astype(np.float32)
        tokens.clear()
        model.forward(x, cond=True)
        model.forward(x, cond=False)
        assert tokens == []
        c = spec.channels
        expected = np.stack([
            np.stack([token_vector(t, c) for t in ("a", "b", "b")]).mean(axis=0),
            np.stack([token_vector("", c)]).mean(axis=0),
        ])
        assert model.bias.dtype == np.float32 and model.bias.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("layer", [0, 1])
    @pytest.mark.parametrize("cond", [True, False])
    def test_resume_at_an_injection_equals_the_whole_forward(self, monkeypatch, layer, cond):
        model = pipeline.ToyModel(pipeline.ToyModelSpec(**SMALL_SPEC), PROMPTS[:2])
        x = np.random.default_rng(3).standard_normal((2, 4, 16, 8)).astype(np.float32)

        class Keep:  # hooks that change nothing and keep what one injection is given
            sdsa_on, state = False, None

            def substitute_q(self, l, q, cond):
                return q

            def inject_o(self, l, h, o, cond):
                if l == layer:
                    self.state = (l, h, o)
                return o

        hooks = Keep()
        whole = model.forward(x, cond, hooks)
        kernels = count_calls(monkeypatch, attention, "masked_attention")
        resumed = model.forward(x, cond, resume=hooks.state)
        assert resumed.tobytes() == whole.tobytes()
        # one plain-attention call per layer at this size, none up to the resumed one
        assert len(kernels) == SMALL_SPEC["layers"] - 1 - layer

    def test_forward_peak_is_its_live_set(self, allow_cpus):
        # a layer's q, k, v, h_attn and o die before the next layer's projections
        # and each chunk's weights with the chunk; holding the last layer's
        # five arrays beside the new ones peaks at about 10.6 x
        model = pipeline.ToyModel(WIDE_SPEC, FIVE_PROMPTS)
        x = pipeline._init_latents(pipeline.StoryboardConfig(model=WIDE_SPEC), len(FIVE_PROMPTS))
        model.forward(x, True)  # numpy's first-call allocations are not the forward's
        for cpus, budgets in CHUNK_BUDGETS.items():
            allow_cpus(*cpus)
            peak = traced_peak(lambda: model.forward(x, True))
            bound = FORWARD_LIVE_ARRAYS * x.nbytes + budgets * attention.LOGITS_BUDGET_BYTES
            assert peak <= bound, (cpus, peak / x.nbytes, bound / x.nbytes)


def per_item_forward(model, x):
    """ToyModel.forward without hooks, one masked_attention call per (shot, frame)."""
    h = np.array(x, dtype=np.float32, copy=True)
    for s in range(h.shape[0]):
        h[s] = h[s] + model.bias[s]
    for w_q, w_k, w_v, w_o in model.layers:
        q, k, v = (tc.matmul(h, m) for m in (w_q, w_k, w_v))
        h_attn = np.zeros_like(q)
        for s in range(q.shape[0]):
            for f in range(q.shape[1]):
                h_attn[s, f], _ = attention.masked_attention(q[s, f], k[s, f], v[s, f])
        h = h + tc.matmul(h_attn, w_o)
    return tc.matmul(h, model.w_out)


class TestPlainAttentionChunks:
    def test_partial_last_chunk_equals_per_item_loop(self, monkeypatch, allow_cpus):
        # 21 items of 64 patches: at the default budget chunks of 16 and 5, at
        # 5 items a chunk four of 5 and one of 1, the odd ones on the helper
        allow_cpus(0, 1)
        spec = pipeline.ToyModelSpec(layers=2, patches_per_side=8, channels=8, frames=7)
        model = pipeline.ToyModel(spec, PROMPTS)
        x = np.random.default_rng(20).standard_normal((3, 7, 64, 8)).astype(np.float32)
        want = per_item_forward(model, x)
        assert attention.LOGITS_BUDGET_BYTES == 16 * 8 * 64 * 64
        for items in (16, 5):
            monkeypatch.setattr(attention, "LOGITS_BUDGET_BYTES", items * 8 * 64 * 64)
            assert np.array_equal(model.forward(x, cond=True), want), items

    def test_wide_shape_equals_per_item_loop(self, allow_cpus):
        allow_cpus(0, 1)  # 40 one-item chunks a layer, half of them on the helper
        model = pipeline.ToyModel(WIDE_SPEC, FIVE_PROMPTS)
        x = pipeline._init_latents(pipeline.StoryboardConfig(model=WIDE_SPEC), len(FIVE_PROMPTS))
        assert np.array_equal(model.forward(x, cond=True), per_item_forward(model, x))


def count_calls(monkeypatch, owner, name) -> list:
    """Wrap owner.name (a method or classmethod) to log one entry per call."""
    calls = []
    method = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return method(*args, **kwargs)

    is_class = isinstance(owner.__dict__[name], classmethod)
    monkeypatch.setattr(owner, name, staticmethod(counted) if is_class else counted)
    return calls


CHAIN_CONFIGS = {
    "default": {},
    "no_injection": dict(q_injection=False),
    "cfg_scale_2": dict(cfg_scale=2),  # the unconditional forward reuses the maps
    "middle_frame_dropout": dict(attend_middle_frame=True, q_dropout=0.3),
    # the refined pass resumes from the consistent one after a whole SDSA step
    "refine_after_sdsa": dict(refine_window=(590, 800)),
    # refinement starts before SDSA and flow: the refined pass resumes from vanilla
    "refine_from_vanilla": dict(sdsa_window=(550, 750), refine_window=(700, 950)),
    "refine_layer_0": dict(refine_layers=(0,)),  # resumed at the first layer's injection
    "refine_every_layer": dict(refine_layers=(1, 0)),  # resumed at the lowest of them
    # refinement opens where the consistent pass built no masks: the refined pass probes
    "refine_without_sdsa": dict(sdsa_window=None, refine_window=(100, 600)),
    "no_refine_layers": dict(refine_layers=()),  # the whole consistent pass is handed over
    "no_t_pres": dict(t_pres=None),  # the flow phase from the first step
    # every pass equals vanilla: each is handed the whole pass before it
    "no_mechanism": dict(sdsa_window=None, refine_window=None, q_injection=False),
}


# each starts a run whose prompts are not a nonempty list of str, by run_passes or by hand
NON_STR_PROMPT_RUNS = {
    "str": lambda cfg, mode: list(pipeline.run_passes(cfg, "a fox", mode)),
    "ints": lambda cfg, mode: list(pipeline.run_passes(cfg, [1, 2], mode)),
    "none": lambda cfg, mode: list(pipeline.run_passes(cfg, ["a", None], mode)),
    "hand-built-str": lambda cfg, mode: pipeline.sample(pipeline.PipelineRun(cfg, "ab", mode)),
}


class TestRunPasses:
    @pytest.mark.parametrize("overrides", CHAIN_CONFIGS.values(), ids=CHAIN_CONFIGS)
    @pytest.mark.parametrize("mode", pipeline.RunMode, ids=lambda m: m.value)
    def test_equals_reference_chain(self, mode, overrides):
        cfg = small_config(**overrides)
        want = reference_chain(cfg, PROMPTS, mode)
        got = list(pipeline.run_passes(cfg, PROMPTS, mode))
        assert [run.mode for run in got] == [run.mode for run in want]
        for run, ref in zip(got, want):
            assert run.outputs.tobytes() == ref.outputs.tobytes(), run.mode
            assert json.dumps(run.audit) == json.dumps(ref.audit), run.mode
        cache = got[0].cache
        if mode != pipeline.RunMode.VANILLA and cfg.q_injection:
            # the hand-over keeps what the oracle's does, byte for byte
            assert all(run.cache is cache for run in got)
            ref = want[0].cache
            assert cache.entries.keys() == ref.entries.keys()
            assert all(cache.entries[k].tobytes() == ref.entries[k].tobytes() for k in ref.entries)
            assert cache.flow_fields.keys() == ref.flow_fields.keys()
            for key, fld in ref.flow_fields.items():
                for name in ("f_a", "f_b", "match_a", "match_b", "zero"):
                    assert np.array_equal(getattr(cache.flow_fields[key], name), getattr(fld, name))
        else:  # no later pass reads the vanilla queries
            assert all(run.cache is None for run in got)

    def test_only_the_kernel_runs_off_the_calling_thread(self, monkeypatch, allow_cpus):
        # a span tracer that keeps one stack per process wraps these three
        allow_cpus(0, 1)
        monkeypatch.setattr(attention, "LOGITS_BUDGET_BYTES", 2 * 8 * 16 * 16)  # 6 chunks a call
        threads = {}
        for owner, name in ((pipeline.ToyModel, "forward"), (attention, "masked_attention"),
                            (attention, "framewise_sdsa"), (attention, "_kernel")):
            fn, log = getattr(owner, name), threads.setdefault(name, [])

            def logged(*args, fn=fn, log=log, **kwargs):
                log.append(threading.get_ident())
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, logged)
        runs = list(pipeline.run_passes(small_config(), PROMPTS))
        assert len(runs) == 3
        caller = {threading.get_ident()}
        for name in ("forward", "masked_attention", "framewise_sdsa"):
            assert threads[name] and set(threads[name]) == caller, name
        assert set(threads["_kernel"]) - caller  # the helper ran

    @pytest.mark.parametrize("mode", pipeline.RunMode, ids=lambda m: m.value)
    def test_no_prompt_fails_before_any_forward(self, monkeypatch, mode):
        forwards = count_calls(monkeypatch, pipeline.ToyModel, "forward")
        with pytest.raises(ConfigError, match="run needs at least one prompt"):
            list(pipeline.run_passes(small_config(), [], mode))
        assert not forwards

    @pytest.mark.parametrize("mode", pipeline.RunMode, ids=lambda m: m.value)
    @pytest.mark.parametrize("start", NON_STR_PROMPT_RUNS.values(), ids=NON_STR_PROMPT_RUNS)
    def test_non_str_prompts_fail_before_any_forward(self, monkeypatch, mode, start):
        # a bare str would run one shot per character; an int fails inside the model
        forwards = count_calls(monkeypatch, pipeline.ToyModel, "forward")
        with pytest.raises(ConfigError, match="run needs at least one prompt"):
            start(small_config(), mode)
        assert not forwards

    @pytest.mark.parametrize("overrides", CHAIN_CONFIGS.values(), ids=CHAIN_CONFIGS)
    def test_every_handoff_is_let_go_once_read(self, overrides):
        # a pass's arrays stay with its own run, not with the runs it handed to
        for run in pipeline.run_passes(small_config(**overrides), PROMPTS):
            assert run.resume_from is None and not run.hand_over, run.mode

    def test_vanilla_puts_no_query_that_no_pass_reads(self, monkeypatch):
        # below t_pres only injection layer 0 is read, through its match field
        cfg = small_config(injection_layers=(0,))
        held = []
        hand_over = qc.FeatureCache.hand_over

        def logged(cache):
            held.append(set(cache.entries))
            hand_over(cache)

        monkeypatch.setattr(qc.FeatureCache, "hand_over", logged)
        list(pipeline.run_passes(cfg, PROMPTS, pipeline.RunMode.CONSISTENT))
        every = {(t, layer) for t in cfg.timesteps() for layer in range(cfg.model.layers)}
        assert held == [{(t, layer) for t, layer in every if t >= cfg.t_pres or layer == 0}]

    def test_each_pass_is_yielded_once_sampled_and_injecting_ones_read_every_query(
        self, monkeypatch
    ):
        cfg = small_config()
        every = {(t, layer) for t in cfg.timesteps() for layer in range(cfg.model.layers)}
        preserved = {(t, layer) for t, layer in every if t >= cfg.t_pres}
        # (mode, cached (t, layer)s, (t, layer)s with a match field) as each pass starts
        sampled = []
        sample = pipeline.sample

        def logged(run):
            sampled.append((run.mode, set(run.cache.entries), set(run.cache.flow_fields)))
            return sample(run)

        monkeypatch.setattr(pipeline, "sample", logged)
        for run in pipeline.run_passes(cfg, PROMPTS):
            assert sampled[-1][0] == run.mode and run.outputs is not None
        # every layer injects: each (t, layer) is read verbatim or through its field
        assert sampled == [
            (pipeline.RunMode.VANILLA, set(), set()),
            (pipeline.RunMode.CONSISTENT, preserved, every - preserved),
            (pipeline.RunMode.REFINED, preserved, every - preserved),
        ]


    def test_hand_over_lets_the_flow_phase_queries_go(self, monkeypatch):
        # refined_default's shape: the default model at 10 steps with five
        # shots. Of the 10 x 4 (t, layer) query arrays vanilla caches, the 7
        # steps below t_pres = 750 on every (injection) layer are flow-phase.
        cfg = pipeline.StoryboardConfig(sampler_steps=10)
        sample, held = pipeline.sample, []  # traced bytes as each pass starts and ends

        def measured(run):
            held.append(tracemalloc.get_traced_memory()[0])
            sample(run)
            held.append(tracemalloc.get_traced_memory()[0])

        monkeypatch.setattr(pipeline, "sample", measured)
        tracemalloc.start()
        try:
            vanilla, _ = pipeline.run_passes(cfg, FIVE_PROMPTS, pipeline.RunMode.CONSISTENT)
        finally:
            tracemalloc.stop()
        spec = cfg.model
        query_bytes = len(FIVE_PROMPTS) * spec.frames * spec.patches * spec.channels * 4
        fields = vanilla.cache.flow_fields.values()
        assert len(fields) == 28
        field_bytes = sum(a.nbytes for fld in fields for a in vars(fld).values())
        # the fields that replace the queries take 3 bytes per (shot, frame,
        # patch) plus their brackets, under 5% of a query array, and their
        # Python objects less than as much again
        assert held[1] - held[2] >= 28 * query_bytes - 2 * field_bytes, (held, field_bytes)


class TestSample:
    def test_double_run_bit_identical(self):
        cfg = small_config()
        first, second = (list(pipeline.run_passes(cfg, PROMPTS)) for _ in range(2))
        for a, b in zip(first, second):
            assert a.outputs.tobytes() == b.outputs.tobytes(), a.mode

    def test_empty_windows_equal_vanilla(self):
        cfg = small_config(sdsa_window=None, refine_window=None, q_injection=False)
        vanilla, consistent = pipeline.run_passes(cfg, PROMPTS, pipeline.RunMode.CONSISTENT)
        assert vanilla.outputs.tobytes() == consistent.outputs.tobytes()

    def test_plain_attention_chunking_transparent(self, monkeypatch, allow_cpus):
        cfg = small_config()
        allow_cpus(0, 1)
        outs = []
        # (shot, frame) items of 16 patches per budget chunk: 12 and 6 chunks a
        # call run the helper thread, 3 and 1 do not
        for items in (1, 2, 5, 12):
            monkeypatch.setattr(attention, "LOGITS_BUDGET_BYTES", items * 8 * 16 * 16)
            v, c = pipeline.run_passes(cfg, PROMPTS, pipeline.RunMode.CONSISTENT)
            outs.append(v.outputs.tobytes() + c.outputs.tobytes())
        for other in outs[1:]:
            assert outs[0] == other

    def test_non_finite_latents_fail_the_pass(self, monkeypatch):
        # the guidance blend overflows at t = 750, the second of four steps
        cfg = small_config(cfg_scale=1.0e30, sampler_steps=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vanilla = next(pipeline.run_passes(cfg, PROMPTS, pipeline.RunMode.CONSISTENT))
            forwards = count_calls(monkeypatch, pipeline.ToyModel, "forward")
            run = pipeline.PipelineRun(
                cfg, PROMPTS, pipeline.RunMode.CONSISTENT, cache=vanilla.cache
            )
            with pytest.raises(NonFiniteError, match=r"^consistent pass .* at t=750$"):
                pipeline.sample(run)
        assert run.outputs is None
        # t = 1000: cond + uncond; t = 750: probe + cond + uncond; no later step
        assert len(forwards) == 5 < 2 * 4 + 1

    @pytest.mark.parametrize(
        "windows",
        [
            {},
            dict(sdsa_window=(550, 750), refine_window=(700, 950)),
            dict(sdsa_window=None),
            dict(sdsa_window=None, refine_window=(100, 600)),
            dict(sdsa_window=None, refine_window=None),
        ],
        ids=["default", "overlapping", "refine_only", "refine_late", "none"],
    )
    @pytest.mark.parametrize("cfg_scale", [1.0, 2.0])
    def test_probe_runs_only_where_masks_are_read(self, monkeypatch, windows, cfg_scale):
        # Each pass runs the steps from its start on. At that start the
        # vanilla pass hands its conditional estimate, the hook-free probe,
        # and the consistent pass hands its masks when SDSA had it build them.
        cfg = small_config(cfg_scale=cfg_scale, **windows)
        ts = cfg.timesteps()
        start = pass_starts(cfg)
        c, r = start[pipeline.RunMode.CONSISTENT], start[pipeline.RunMode.REFINED]
        sdsa = {i for i, t in enumerate(ts) if in_window(cfg.sdsa_window, t)}
        refine = {i for i, t in enumerate(ts) if in_window(cfg.refine_window, t)}

        forwards = count_calls(monkeypatch, pipeline.ToyModel, "forward")
        builds = count_calls(monkeypatch, subject_mask.SubjectMaskSet, "from_saliency")
        passes = pipeline.run_passes(cfg, PROMPTS)
        for mode, reads, handed_probe, handed_masks in (
            (pipeline.RunMode.VANILLA, set(), False, False),
            (pipeline.RunMode.CONSISTENT, sdsa, c in sdsa, False),
            (pipeline.RunMode.REFINED, sdsa | refine, r < c, c <= r and r in sdsa),
        ):
            forwards.clear()
            builds.clear()
            assert next(passes).mode == mode
            steps = len(ts) - start[mode]
            probes = len({i for i in reads if i >= start[mode]}) - handed_probe - handed_masks
            # at scale 1 the unconditional forward never runs
            uncond = steps if cfg_scale != 1 else 0
            assert len(forwards) == steps + uncond + probes, mode
            assert len(builds) == probes + handed_probe, mode

    def test_scale_one_guidance_is_the_conditional_estimate(self, monkeypatch):
        # The old blend fl32(u + 1.0 * (c - u)) is not e_cond for every float32
        # pair (signed zeros, |u| >= 2^29 |c|), so check it on every step of
        # the README run: equal there at each step means equal trajectories.
        forward = pipeline.ToyModel.forward
        steps, uncond = [], []  # guided conditional forwards; unconditional ones

        def recording(model, x, cond, hooks=None, resume=None):
            e = forward(model, x, cond, hooks, resume)
            if not cond:
                uncond.append(hooks.t)
            elif hooks is not None:  # not a mask probe
                steps.append((model, x, hooks, e))
            return e

        monkeypatch.setattr(pipeline.ToyModel, "forward", recording)
        for seed in range(3):
            cfg = pipeline.StoryboardConfig(sampler_steps=10, seed=seed)
            ts, start = cfg.timesteps(), pass_starts(cfg)
            for run in pipeline.run_passes(cfg, FIVE_PROMPTS):
                # a pass runs, and guides, the steps from its start on
                assert [hooks.t for _, _, hooks, _ in steps] == ts[start[run.mode] :]
                assert uncond == []
                for model, x, hooks, c in steps:
                    u = forward(model, x, False, hooks)
                    u64 = u.astype(np.float64)
                    e = (u64 + 1.0 * (c.astype(np.float64) - u64)).astype(np.float32)
                    assert e.tobytes() == c.tobytes(), (seed, run.mode, hooks.t)
                steps.clear()

    # sha256 of audit_refined.jsonl as written while the unconditional forward
    # wrote its own refinement records (at every scale but 1); the audit
    # depends on the config's windows, layers and anchors, not on the seed
    @pytest.mark.parametrize(
        "make_config, prompts, audit_sha256",
        [
            (small_config, PROMPTS,
             "53c1b3c0bf7d1aa2471bb068b32e91219b4742469ba5ea7357ef89e6395c4cab"),
            (lambda **kw: small_config(refine_layers=(0, 1), **kw), PROMPTS,
             "7324dd6596f8b3029d0a1340c0681f5b9e4979e23be87ee6b804d6d82c0f6225"),
            (lambda **kw: pipeline.StoryboardConfig(sampler_steps=10, **kw), FIVE_PROMPTS,
             "420db20dd469349bbfc812682e14eeef9dc96b73ec4372b963dd874abe20ec3b"),
        ],
        ids=["small", "small-every-layer", "default-10-step"],
    )
    def test_scale_one_uncond_records_are_what_the_forward_writes(
        self, monkeypatch, tmp_path, make_config, prompts, audit_sha256
    ):
        # Only the conditional forward writes refinement records; sample
        # copies each refinement step's as the "uncond" ones, at every scale.
        forward = pipeline.ToyModel.forward
        written = []  # records each unconditional forward appended

        def recording(model, x, cond, hooks=None, resume=None):
            n = None if hooks is None else len(hooks.run.audit)
            e = forward(model, x, cond, hooks, resume)
            if not cond:
                written.append(len(hooks.run.audit) - n)
            return e

        monkeypatch.setattr(pipeline.ToyModel, "forward", recording)
        path = tmp_path / "audit_refined.jsonl"
        for seed, cfg_scale in enumerate((1.0, 2.0, 0.5)):
            written.clear()
            *_, run = pipeline.run_passes(make_config(seed=seed, cfg_scale=cfg_scale), prompts)
            cli._write_audit(path, run.audit)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == audit_sha256, cfg_scale
            assert bool(written) == (cfg_scale != 1) and not any(written), cfg_scale

    def test_unconditional_forward_runs_every_step_above_scale_one(self, monkeypatch):
        cfg = small_config(cfg_scale=2.0)
        start = pass_starts(cfg)
        forward = pipeline.ToyModel.forward
        uncond = []

        def recording(model, x, cond, hooks=None, resume=None):
            if not cond:
                uncond.append(hooks.t)
            return forward(model, x, cond, hooks, resume)

        monkeypatch.setattr(pipeline.ToyModel, "forward", recording)
        for run in pipeline.run_passes(cfg, PROMPTS):
            # every step the pass runs: those from its start on
            assert uncond == cfg.timesteps()[start[run.mode] :], run.mode
            uncond.clear()

    def test_vanilla_without_a_cache_caches_nothing(self, monkeypatch):
        cfg = small_config()
        puts = []
        monkeypatch.setattr(qc.FeatureCache, "put", lambda *args: puts.append(args))
        (run,) = pipeline.run_passes(cfg, PROMPTS, pipeline.RunMode.VANILLA)
        assert run.cache is None and puts == []
        monkeypatch.undo()
        (cached,) = reference_chain(cfg, PROMPTS, pipeline.RunMode.VANILLA)
        assert run.outputs.tobytes() == cached.outputs.tobytes()

    def test_vanilla_pass_peak_is_its_live_set(self, allow_cpus):
        # the latents x plus one forward's live set: step i's estimates (e_cond,
        # e, x0) die before step i + 1's forward, and the DDIM update holds x,
        # e and two float64 buffers, under that. Keeping them into the next
        # step peaks at about 13.7 x.
        cfg = pipeline.StoryboardConfig(sampler_steps=3, model=WIDE_SPEC)
        model = pipeline.ToyModel(WIDE_SPEC, FIVE_PROMPTS)
        x = pipeline._init_latents(cfg, len(FIVE_PROMPTS))
        model.forward(x, True)  # numpy's first-call allocations are not the pass's
        for cpus, budgets in CHUNK_BUDGETS.items():
            allow_cpus(*cpus)
            run = pipeline.PipelineRun(cfg, FIVE_PROMPTS, pipeline.RunMode.VANILLA)
            peak = traced_peak(lambda: pipeline.sample(run))
            bound = (1 + FORWARD_LIVE_ARRAYS) * x.nbytes + budgets * attention.LOGITS_BUDGET_BYTES
            assert peak <= bound, (cpus, peak / x.nbytes, bound / x.nbytes)

    def test_peak_does_not_grow_with_total_steps(self):
        # sample evaluates the noise schedule at its own timesteps: a table of
        # all T + 1 of them would hold 16 MB more at T = 2e6. Windows and t_pres
        # scale with T, so both runs take the same path through both steps.
        def peak(T: int) -> int:
            cfg = small_config(total_steps=T, sampler_steps=2, t_pres=T * 3 // 4,
                               sdsa_window=(T // 2, T), refine_window=(T // 2, T))
            return traced_peak(lambda: list(pipeline.run_passes(cfg, PROMPTS)))

        peak(1000)  # numpy's first-call allocations are not the runs'
        small, large = peak(1000), peak(2_000_000)
        assert large - small <= 2**20, (small, large)

    def test_vanilla_fills_the_cache_it_is_given(self):
        cfg = small_config()
        cache = qc.FeatureCache(cfg)
        run = pipeline.PipelineRun(cfg, PROMPTS, pipeline.RunMode.VANILLA, cache=cache)
        pipeline.sample(run)
        assert run.cache is cache
        assert len(cache.entries) == cfg.sampler_steps * cfg.model.layers

    def test_refined_pass_same_with_fresh_or_shared_flow_fields(self):
        cfg = small_config()
        passes = pipeline.run_passes(cfg, PROMPTS)
        cache = next(passes).cache
        fields = dict(cache.flow_fields)  # built at the hand-over, before any later pass
        # a hand-built vanilla pass fills a fresh cache, handed over as run_passes does
        fresh = qc.FeatureCache(cfg)
        pipeline.sample(pipeline.PipelineRun(cfg, PROMPTS, pipeline.RunMode.VANILLA, cache=fresh))
        fresh.hand_over()
        next(passes)  # the consistent pass only reads the fields
        assert fields and all(cache.flow_fields[key] is fld for key, fld in fields.items())
        shared = next(passes)
        assert cache.flow_fields.keys() == fields.keys()
        alone = pipeline.PipelineRun(cfg, PROMPTS, pipeline.RunMode.REFINED, cache=fresh)
        pipeline.sample(alone)
        assert shared.outputs.tobytes() == alone.outputs.tobytes()
        assert json.dumps(shared.audit) == json.dumps(alone.audit)
        assert fresh.flow_fields.keys() == cache.flow_fields.keys()

    def test_window_gating_in_audit(self):
        cfg = small_config()
        *_, run = pipeline.run_passes(cfg, PROMPTS)
        ts = cfg.timesteps()
        layers = cfg.model.layers
        queries = [r for r in run.audit if r["event"] == "query"]
        assert len(queries) == len(ts) * layers
        for rec in queries:
            assert (rec["role"] == "vanilla") == (rec["t"] >= cfg.t_pres)
        sdsa = [r for r in run.audit if r["event"] == "sdsa"]
        expected_sdsa = sum(1 for t in ts if 550 <= t <= 950) * layers
        assert len(sdsa) == expected_sdsa
        assert all(550 <= r["t"] <= 950 for r in sdsa)
        refine = [r for r in run.audit if r["event"] == "refinement"]
        expected_refine = sum(1 for t in ts if 590 <= t <= 950) * 2  # cond + uncond
        assert len(refine) == expected_refine
        assert all(590 <= r["t"] <= 950 for r in refine)

    def test_refinement_maps_shared_across_passes(self):
        *_, run = pipeline.run_passes(small_config(), PROMPTS)
        refine = [r for r in run.audit if r["event"] == "refinement"]
        by_step = {}
        for rec in refine:
            by_step.setdefault((rec["t"], rec["layer"]), {})[rec["pass"]] = rec["map_ids"]
        for passes in by_step.values():
            assert set(passes) == {"cond", "uncond"}
            assert passes["cond"] == passes["uncond"]

    def test_anchor_invariance(self):
        extra = [
            "a red fox swimming a river, watercolor",
            "a red fox digging a burrow, watercolor",
        ]
        cfg = small_config()
        *_, r2 = pipeline.run_passes(cfg, PROMPTS[:2])
        for followers in (1, 2):
            *_, r = pipeline.run_passes(cfg, PROMPTS[:2] + extra[:followers])
            assert r.outputs[:2].tobytes() == r2.outputs[:2].tobytes()

    def test_middle_frame_flag_changes_output(self):
        cfg = small_config(q_injection=False, refine_window=None)
        *_, base = pipeline.run_passes(cfg, PROMPTS, pipeline.RunMode.CONSISTENT)
        cfg_mid = small_config(
            q_injection=False, refine_window=None, attend_middle_frame=True
        )
        *_, mid = pipeline.run_passes(cfg_mid, PROMPTS, pipeline.RunMode.CONSISTENT)
        assert not np.array_equal(base.outputs, mid.outputs)
