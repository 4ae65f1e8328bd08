"""End-to-end orchestration: a toy spatial-attention denoiser with hook
points for query substitution, cross-shot attention, and output injection; a
deterministic sampler; and the three reproducible passes (vanilla caching,
consistency-enabled, refinement-enabled), driven by run_passes.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import attention, query_control, refinement, subject_mask
from . import tensor_core as tc
from .errors import ConfigError, NonFiniteError


class RunMode(enum.Enum):
    VANILLA = "vanilla"
    CONSISTENT = "consistent"
    REFINED = "refined"


@dataclass
class ToyModelSpec:
    layers: int = 4
    patches_per_side: int = 8
    channels: int = 16
    frames: int = 8
    weight_seed: int = 7

    def __post_init__(self):
        # Otsu thresholds each frame's masks over at least two patches
        lows = {"weight_seed": 0, "patches_per_side": 2}
        for f in fields(self):
            v, low = getattr(self, f.name), lows.get(f.name, 1)
            _require(f"model.{f.name}", f"an integer >= {low}", v, _int_in(v, low))

    @property
    def patches(self) -> int:
        return self.patches_per_side**2


@dataclass
class StoryboardConfig:
    total_steps: int = 1000  # T
    sampler_steps: int = 50
    t_pres: int | None = 750
    sdsa_window: tuple | None = (550, 950)
    refine_window: tuple | None = (590, 950)
    q_dropout: float = 0.0
    q_injection: bool = True
    q_weight_mode: str = "sigmoid"
    keyframe_spacing: int = 4
    anchors: tuple | None = None  # None -> first two shots
    seed: int = 0
    sub_batch: int | None = None  # recorded in the manifest; no effect
    injection_layers: tuple | None = None  # None -> all layers
    refine_layers: tuple | None = None  # None -> the coarse layer
    refine_blend: float = 0.8
    cfg_scale: float = 1.0
    attend_middle_frame: bool = False
    subject_channel: int = 0
    segmenter: str = "channel_energy"
    alpha_min: float = 0.02
    model: ToyModelSpec = field(default_factory=ToyModelSpec)

    def __post_init__(self):
        """The one place a config value is checked or normalised: a bad value
        raises ConfigError naming its field before any compute runs."""
        for name in ("sdsa_window", "refine_window", "anchors", "injection_layers", "refine_layers"):
            if isinstance(getattr(self, name), list):  # as YAML and JSON give them
                setattr(self, name, tuple(getattr(self, name)))
        if isinstance(self.model, Mapping):
            self.model = _from_known_keys(ToyModelSpec, self.model)
        # the rules below read model and total_steps
        _require("model", "a mapping or ToyModelSpec", self.model, isinstance(self.model, ToyModelSpec))
        _require("total_steps", "an integer >= 1", self.total_steps, _int_in(self.total_steps, 1))
        T, spec = self.total_steps, self.model
        window = f"None or integers lo <= hi in [0, {T}]"
        layer_ids = f"None or distinct layer ids in [0, {spec.layers})"
        for name, rule, ok in (
            ("sampler_steps", f"an integer in [1, {T}]", _int_in(self.sampler_steps, 1, T)),
            ("t_pres", f"None or an integer in [0, {T}]",
             self.t_pres is None or _int_in(self.t_pres, 0, T)),
            ("sdsa_window", window, _window_ok(self.sdsa_window, T)),
            ("refine_window", window, _window_ok(self.refine_window, T)),
            ("q_dropout", "a real in [0, 1]", _real_in(self.q_dropout, 0, 1)),
            ("q_injection", "a bool", type(self.q_injection) is bool),
            ("q_weight_mode", "'sigmoid' or 'linear'", self.q_weight_mode in ("sigmoid", "linear")),
            ("keyframe_spacing", "an integer >= 1", _int_in(self.keyframe_spacing, 1)),
            ("anchors", "None or distinct shot ids >= 0, at least one",
             _ids_ok(self.anchors, math.inf) and self.anchors != ()),
            ("seed", "an integer >= 0", _int_in(self.seed, 0)),
            ("sub_batch", "None or an integer >= 1",
             self.sub_batch is None or _int_in(self.sub_batch, 1)),
            ("injection_layers", layer_ids, _ids_ok(self.injection_layers, spec.layers)),
            ("refine_layers", layer_ids, _ids_ok(self.refine_layers, spec.layers)),
            ("refine_blend", "a real in [0, 1]", _real_in(self.refine_blend, 0, 1)),
            ("cfg_scale", "a finite real", _real_in(self.cfg_scale, -math.inf, math.inf)),
            ("attend_middle_frame", "a bool", type(self.attend_middle_frame) is bool),
            ("subject_channel", f"an integer in [0, {spec.channels})",
             _int_in(self.subject_channel, 0, spec.channels - 1)),
            ("segmenter", "'channel_energy'", self.segmenter == "channel_energy"),
            ("alpha_min", "a real in (0, 1]", _real_in(self.alpha_min, 0, 1) and self.alpha_min > 0),
            # the flow phase blends between two keyframes
            ("q_injection", "False when model.frames < 2",
             not self.q_injection or spec.frames >= 2),
        ):
            _require(name, rule, getattr(self, name), ok)

    def timesteps(self) -> list:
        T, n = self.total_steps, self.sampler_steps
        return [int(round(T * (1.0 - k / n))) for k in range(n)]

    def injection_layer_set(self) -> frozenset:
        if self.injection_layers is None:
            return frozenset(range(self.model.layers))
        return frozenset(self.injection_layers)

    def refine_layer_set(self) -> frozenset:
        if self.refine_layers is None:
            # the last layer stands in for the coarsest-resolution attention
            return frozenset({self.model.layers - 1})
        return frozenset(self.refine_layers)

    def anchor_list(self, shots: int) -> tuple:
        anchors = tuple(range(min(2, shots))) if self.anchors is None else self.anchors
        # the one config check that needs the prompt count
        if any(a >= shots for a in anchors):
            raise ConfigError(f"anchors {anchors} outside shot range 0..{shots - 1}")
        return anchors

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, d) -> "StoryboardConfig":
        if not isinstance(d, Mapping):
            raise ConfigError(f"config must be a mapping, got {type(d).__name__}")
        return _from_known_keys(cls, d)


def _require(name: str, rule: str, value, ok: bool) -> None:
    if not ok:
        raise ConfigError(f"{name} must be {rule}, got {value!r}")


def _int_in(v, lo, hi=math.inf) -> bool:
    """A plain int (not a bool or a numpy scalar) in [lo, hi]."""
    return type(v) is int and lo <= v <= hi


def _real_in(v, lo, hi) -> bool:
    """A finite plain int or float in [lo, hi]."""
    return (type(v) is int or type(v) is float and math.isfinite(v)) and lo <= v <= hi


def _window_ok(w, T: int) -> bool:
    return w is None or isinstance(w, tuple) and len(w) == 2 and (
        _int_in(w[0], 0, T) and _int_in(w[1], w[0], T))


def _ids_ok(ids, bound) -> bool:
    """Layer or shot ids: None, or a tuple of distinct ints in [0, bound)."""
    return ids is None or isinstance(ids, tuple) and all(_int_in(i, 0, bound - 1) for i in ids) and (
        len(set(ids)) == len(ids))


def _from_known_keys(cls, d):
    unknown = sorted(set(d) - {f.name for f in fields(cls)}, key=str)
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys {unknown}")
    return cls(**d)


def _in_window(window, t: int) -> bool:
    return window is not None and window[0] <= t <= window[1]


# --- toy denoiser ---------------------------------------------------------

def _token_vector(token: str, channels: int) -> np.ndarray:
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0 / math.sqrt(channels), channels).astype(tc.F32)


class ToyModel:
    """Attention-only denoiser: a stack of spatial self-attention layers with
    residual connections and an additive prompt-embedding bias per shot:
    the mean token vector of that shot's prompt."""

    def __init__(self, spec: ToyModelSpec, prompts):
        c = spec.channels

        def matrices(l: int, n: int) -> tuple:  # n (c, c) draws from stream l of the weight seed
            rng = np.random.default_rng(np.random.SeedSequence([spec.weight_seed, l]))
            return tuple(rng.normal(0.0, 1.0 / math.sqrt(c), (c, c)).astype(tc.F32) for _ in range(n))

        self.layers = [matrices(l, 4) for l in range(spec.layers)]  # (w_q, w_k, w_v, w_o) each
        (self.w_out,) = matrices(spec.layers, 1)
        # one prompt at a time: prompts differ in token count
        self.bias = np.stack([np.stack([_token_vector(tok, c) for tok in p.split() or [""]]).mean(axis=0)
                              for p in prompts])  # (S, C) float32

    def forward(self, x: np.ndarray, cond: bool, hooks=None, resume=None) -> np.ndarray:
        """One denoiser evaluation: noise estimate for latents x (S,F,P,C).

        Hook points, in order per layer: query substitution before attention,
        extended attention inside, output injection after. resume=(layer, h,
        o) enters at that layer's output injection with the residual h and
        attention output o that an identical forward had there.
        """
        first, h, o = resume or (0, None, None)
        if resume is None:  # no residual is written in place: the unconditional h is x
            h = np.asarray(x, tc.F32) + self.bias[:, None, None] if cond else np.asarray(x, tc.F32)
        for l, (w_q, w_k, w_v, w_o) in enumerate(self.layers[first:], first):
            if o is None:  # not the resumed layer; its q, k and v die in _attend
                o = tc.matmul(_attend(l, h, w_q, w_k, w_v, cond, hooks), w_o)
            if hooks is not None:
                o = hooks.inject_o(l, h, o, cond)
            h, o = h + o, None  # o is read: let it go before the next layer's projections
        return tc.matmul(h, self.w_out)


def _attend(l: int, h: np.ndarray, w_q, w_k, w_v, cond: bool, hooks) -> np.ndarray:
    """Layer l's attention output from the residual h, before its output
    projection; its queries, keys and values are released when it returns."""
    q = tc.matmul(h, w_q)
    k = tc.matmul(h, w_k)
    v = tc.matmul(h, w_v)
    if hooks is not None:
        q = hooks.substitute_q(l, q, cond)
    if hooks is not None and hooks.sdsa_on:
        return hooks.extended_attention(l, q, k, v, cond)
    return attention.masked_attention(q, k, v)[0]  # plain: one call over the (shot, frame) items


# --- runs -----------------------------------------------------------------

@dataclass
class PipelineRun:
    config: StoryboardConfig
    prompts: list
    mode: RunMode
    cache: query_control.FeatureCache | None = None
    outputs: np.ndarray | None = None
    audit: list = field(default_factory=list)
    # correspondence-map ids, numbered from 1 in build order within this run
    map_ids: itertools.count = field(default_factory=lambda: itertools.count(1), repr=False)
    # set by run_passes: the Handoffs this pass fills, by step, and the one it resumes from
    hand_over: dict = field(default_factory=dict, repr=False)
    resume_from: Handoff | None = field(default=None, repr=False)

    @property
    def shots(self) -> int:
        return len(self.prompts)


@dataclass
class Handoff:
    """References to a pass's state where the next pass's hooks first act
    differently, filled by the earlier pass; the later one starts there."""

    step: int  # index into config.timesteps(); their count hands over the whole pass
    layer: int = -1  # -1: the handoff is at the start of the step
    from_vanilla: bool = False  # the later pass replays the query records vanilla never writes
    x: np.ndarray | None = None  # the latents entering the step
    audit: list = field(default_factory=list)  # the records written before this point
    probe: np.ndarray | None = None  # vanilla's conditional estimate, the hook-free probe
    masks: subject_mask.SubjectMaskSet | None = None  # the step's masks, if the pass built them
    resume: tuple | None = None  # (layer, h, o) for the conditional ToyModel.forward


def run_fingerprint(config: StoryboardConfig, prompts) -> str:
    """Stable fingerprint of the RNG-relevant run parameters."""
    payload = {
        "seed": config.seed,
        "T": config.total_steps,
        "sampler_steps": config.sampler_steps,
        "alpha_min": config.alpha_min,
        "model": asdict(config.model),
        "prompts": list(prompts),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _init_latents(config: StoryboardConfig, shots: int) -> np.ndarray:
    spec = config.model
    per_shot = []
    for s in range(shots):
        rng = np.random.default_rng(np.random.SeedSequence([config.seed, 104729, s]))
        per_shot.append(
            rng.standard_normal((spec.frames, spec.patches, spec.channels)).astype(tc.F32)
        )
    return np.stack(per_shot)


class _StepHooks:
    """Per-timestep hook state shared by the conditional and unconditional
    passes, so refinement reuses the identical correspondence maps; the
    writer of every audit record of the run."""

    def __init__(self, run, t, masks, anchors, sdsa_on, refine_on, hand=None):
        self.run = run
        self.cfg = run.config
        self.t = t
        self.masks = masks
        self.anchors = anchors
        self.sdsa_on = sdsa_on
        self.refine_on = refine_on
        self.refine_handles: dict = {}
        self.hand = hand  # a Handoff at one of this step's layers, filled by inject_o

    def record(self, event: str, layer: int, fields: dict) -> None:
        self.run.audit.append({"event": event, "t": self.t, "layer": layer, **fields})

    # -- query substitution (conditional pass only) --

    def substitute_q(self, layer: int, q: np.ndarray, cond: bool) -> np.ndarray:
        if not cond:
            return q
        run, cfg, t = self.run, self.cfg, self.t
        if run.mode == RunMode.VANILLA:
            if run.cache is not None:
                run.cache.put(t, layer, q)
            return q
        if not cfg.q_injection:
            return q
        q_out, rec = query_control.select_q(t, layer, q, run.cache, cfg)
        self.record("query", layer, {"role": rec.role, "dropout_kept_fraction": rec.dropout_kept_fraction})
        return q_out

    # -- extended attention --

    def extended_attention(self, layer: int, q, k, v, cond: bool) -> np.ndarray:
        out = attention.extended_attention(
            q, k, v, self.masks.masks, self.anchors, self.cfg.attend_middle_frame
        )
        if cond:
            self.record("sdsa", layer, {})
        return out

    # -- refinement injection --

    def inject_o(self, layer: int, h: np.ndarray, o: np.ndarray, cond: bool) -> np.ndarray:
        cfg, hand = self.cfg, self.hand
        if cond and hand is not None and hand.layer == layer:
            hand.resume, hand.audit = (layer, h, o), self.run.audit[:]
        if not self.refine_on or layer not in cfg.refine_layer_set():
            return o
        out, maps = refinement.refine(o, self.anchors, self.masks.masks, cfg.refine_blend,
                                      None if cond else self.refine_handles[layer][0])
        if cond:  # sample writes the unconditional forward's records from these ids
            self.refine_handles[layer] = maps, [next(self.run.map_ids) for _ in maps]
            self.record("refinement", layer, {"pass": "cond", "map_ids": self.refine_handles[layer][1]})
        return out


def sample(run: PipelineRun) -> np.ndarray:
    """Deterministic denoising of one pass; fills run.outputs and run.audit,
    or raises NonFiniteError naming the pass and the first step whose latents
    are not finite. A vanilla run puts its queries into run.cache when it has
    one; an injecting run reads what the cache's hand_over kept of them
    (run_passes builds that cache and hands it over).
    A run with a resume_from Handoff starts where it points; each Handoff in
    run.hand_over is popped at its step, where the pass fills it."""
    cfg = run.config
    spec = cfg.model
    shots = run.shots
    if shots < 1:
        raise ConfigError("run needs at least one prompt")
    anchors = cfg.anchor_list(shots)
    model = ToyModel(spec, run.prompts)
    ts = cfg.timesteps()
    alphas = subject_mask.geometric_alphas(ts + [0], cfg.total_steps, cfg.alpha_min)  # ts[i]'s at i
    got, run.resume_from = run.resume_from or Handoff(0), None
    x = _init_latents(cfg, shots) if got.x is None else got.x
    run.audit.extend(got.audit)
    if got.from_vanilla and cfg.q_injection:  # the cached queries are the live ones there
        prefix = itertools.product(ts, range(spec.layers))
        for t, layer in itertools.islice(prefix, got.step * spec.layers + got.layer + 1):
            _StepHooks(run, t, None, anchors, False, False).substitute_q(
                layer, run.cache.entries[t, layer], True
            )
    for i in range(got.step, len(ts) + 1):
        hand = run.hand_over.pop(i, None)
        if hand is not None:  # inject_o retakes a handoff's records at its layer
            hand.x, hand.audit = x, run.audit[:]
        if i == len(ts):  # the later pass has nothing left to run
            break
        t = ts[i]
        sdsa_on = run.mode != RunMode.VANILLA and _in_window(cfg.sdsa_window, t)
        refine_on = run.mode == RunMode.REFINED and _in_window(cfg.refine_window, t)
        masks = got.masks  # read only by SDSA and refinement: built when they run
        if masks is None and (sdsa_on or refine_on):  # the probe and its x0 are temporaries
            masks = subject_mask.build_masks(subject_mask.estimate_x0(
                x, model.forward(x, True) if got.probe is None else got.probe, alphas[i],
            ), cfg.subject_channel)
        hooks = _StepHooks(run, t, masks, anchors, sdsa_on, refine_on, hand)
        e_cond = model.forward(x, cond=True, hooks=hooks, resume=got.resume)
        got = Handoff(i + 1)  # the earlier pass's state is read; let it go
        if hand is not None:  # vanilla's hooks act as none: its e_cond is the probe
            hand.masks, hand.probe = masks, e_cond if run.mode == RunMode.VANILLA else None
        for layer, (_, map_ids) in hooks.refine_handles.items():  # the uncond forward reuses these maps
            hooks.record("refinement", layer, {"pass": "uncond", "map_ids": map_ids})
        # the step's estimates die in _ddim_step; e_cond lives on only as a probe
        x, e_cond = _ddim_step(model, x, e_cond, hooks, cfg.cfg_scale, alphas[i], alphas[i + 1]), None
        if not np.isfinite(x).all():
            raise NonFiniteError(f"{run.mode.value} pass produced non-finite latents at t={t}")
    run.outputs = x
    return x


def _ddim_step(model: ToyModel, x, e_cond, hooks, scale: float, a: float, a_next: float):
    """The latents at the next timestep: the guided estimate e, running the
    unconditional forward unless scale is 1, then the DDIM update through x0."""
    if scale != 1:  # at scale 1 guidance is e_cond (README)
        e_uncond = model.forward(x, cond=False, hooks=hooks)
    # overflow (e.g. a large cfg_scale) is reported by sample, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        e = e_cond if scale == 1 else (e_uncond.astype(np.float64) + scale * (
            e_cond.astype(np.float64) - e_uncond.astype(np.float64))).astype(tc.F32)
        # x0 is a temporary: it is gone before the second product is made
        x_next = np.multiply(math.sqrt(a_next), subject_mask.estimate_x0(x, e, a), dtype=np.float64)
        x_next += np.multiply(math.sqrt(1.0 - a_next), e, dtype=np.float64)
        return x_next.astype(tc.F32)


def _handoffs(cfg: StoryboardConfig) -> tuple:
    """The consistent and the refined pass's Handoff points: the first step
    with SDSA or the flow phase, and the first refinement step at its lowest
    layer, resumed from vanilla when it comes before the consistent one."""
    ts, layers = cfg.timesteps(), cfg.refine_layer_set()
    # per step, whether the pass acts there; a last True past the end
    consistent = [_in_window(cfg.sdsa_window, t) or cfg.q_injection and (
        cfg.t_pres is None or t < cfg.t_pres) for t in ts] + [True]
    refined = [bool(layers) and _in_window(cfg.refine_window, t) for t in ts] + [True]
    c, r = consistent.index(True), refined.index(True)
    return Handoff(c, from_vanilla=True), Handoff(r, min(layers, default=-1), from_vanilla=r < c)


def run_passes(config: StoryboardConfig, prompts, mode: RunMode = RunMode.REFINED):
    """Run every pass declared up to mode, in declaration order, yielding each
    run once it is sampled. The vanilla queries are cached only when a later
    pass injects them, in one FeatureCache that every later pass reads, handed
    over when the vanilla pass ends, outside every pass's sample call. Each
    later pass resumes from a Handoff of the pass before it, or of vanilla,
    where their hooks first act differently (a hand-built run runs every step)."""
    modes = list(RunMode)[: list(RunMode).index(mode) + 1]
    prompts = list(prompts)
    cache = query_control.FeatureCache(config) if len(modes) > 1 and config.q_injection else None
    runs = [PipelineRun(config, prompts, run_mode, cache=cache) for run_mode in modes]
    for run, hand in zip(runs[1:], _handoffs(config)):
        runs[0 if hand.from_vanilla else 1].hand_over[hand.step] = hand
        run.resume_from = hand
    while runs:
        run = runs.pop(0)
        # through the module attribute, so a wrapped sample sees every pass
        sample(run)
        if run.mode == RunMode.VANILLA and cache is not None:
            cache.hand_over()
        yield run
