"""Query feature control across the two injection phases.

Early steps replace the live queries with cached ones from the unconstrained
pass (preservation); later steps blend live queries along an argmax-cosine
match field computed against cached keyframe queries (flow). A per-patch
dropout can soften either injection.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from . import tensor_core as tc
from .errors import CacheMissError, ConfigError, WindowError


@dataclass
class FeatureCache:
    """(timestep, layer_id) -> cached vanilla-pass queries (S, F, P, d)."""

    entries: dict = field(default_factory=dict)
    seed_fingerprint: str = ""

    def put(self, t: int, layer_id: int, q: np.ndarray) -> None:
        self.entries[(t, layer_id)] = np.array(q, dtype=tc.F32, copy=True)

    def get(self, t: int, layer_id: int) -> np.ndarray:
        try:
            return self.entries[(t, layer_id)]
        except KeyError:
            raise CacheMissError(f"no cached queries for (t={t}, layer={layer_id})")

    def __len__(self) -> int:
        return len(self.entries)


def fingerprint(payload: dict) -> str:
    """Stable fingerprint of the RNG-relevant run parameters."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class KeyframeIndex:
    keyframes: list
    spacing: int

    def __post_init__(self):
        kfs = list(self.keyframes)
        if kfs != sorted(set(kfs)):
            raise ConfigError(f"keyframes must be strictly increasing: {kfs}")
        self.keyframes = kfs

    @classmethod
    def build(cls, frames: int, spacing: int) -> "KeyframeIndex":
        if spacing < 1:
            raise ConfigError(f"keyframe spacing must be >= 1, got {spacing}")
        if frames < 1:
            raise ConfigError("need at least one frame")
        kfs = list(range(0, max(frames - 1, 1), spacing))
        if kfs[-1] != frames - 1:
            kfs.append(frames - 1)
        return cls(kfs, spacing)

    def bracket(self, frame: int):
        """Nearest keyframes (f_A, f_B) with f_A <= frame <= f_B, f_A < f_B.

        A frame that is itself a keyframe acts as f_A with the next keyframe
        as f_B; the final frame uses the preceding keyframe as f_A.
        """
        kfs = self.keyframes
        if len(kfs) < 2:
            raise ConfigError("keyframe bracket needs at least two keyframes")
        if not kfs[0] <= frame <= kfs[-1]:
            raise ConfigError(f"frame {frame} outside keyframe span {kfs[0]}..{kfs[-1]}")
        if frame == kfs[-1]:
            return kfs[-2], kfs[-1]
        f_a = max(k for k in kfs if k <= frame)
        f_b = min(k for k in kfs if k > frame)
        return f_a, f_b


def q_preserve(q_c: np.ndarray, cache: FeatureCache, t: int, layer: int, t_pres: int) -> np.ndarray:
    """Phase 1: return the cached vanilla queries verbatim for this step."""
    if t < t_pres:
        raise WindowError(f"q_preserve called at t={t} below t_pres={t_pres}")
    cached = cache.get(t, layer)
    if cached.shape != np.asarray(q_c).shape:
        raise ConfigError(
            f"cached query shape {cached.shape} != live shape {np.asarray(q_c).shape}"
        )
    return cached


def q_flow(
    q_c: np.ndarray,
    q_v: np.ndarray,
    kf: KeyframeIndex,
    frame: int,
    weight_mode: str = "sigmoid",
):
    """Phase 2 for one frame of one shot.

    The match field comes from the vanilla queries: each vanilla query at
    `frame` is matched (argmax cosine) against the vanilla queries of the two
    bracketing keyframes. The output blends the *live* queries q_c at those
    matched locations with w = sigmoid((f_B - f)/(f_B - f_A)) (or the plain
    ratio when weight_mode == "linear"). Zero-norm vanilla queries skip
    matching and keep their live query. Returns (q_f, skipped_patches).
    """
    q_c = np.asarray(q_c)
    q_v = np.asarray(q_v)
    if q_c.shape != q_v.shape or q_c.ndim != 3:
        raise ConfigError(f"expected matching (F,P,d) inputs, got {q_c.shape} / {q_v.shape}")
    f_a, f_b = kf.bracket(frame)
    ratio = (f_b - frame) / (f_b - f_a)
    if weight_mode == "sigmoid":
        w = tc.sigmoid(ratio)
    elif weight_mode == "linear":
        w = float(ratio)
    else:
        raise ConfigError(f"unknown weight_mode {weight_mode!r}")

    # argmax takes the first maximum: ties break to the lowest patch index
    match_a = np.argmax(tc.cosine_matrix(q_v[frame], q_v[f_a]), axis=1)
    match_b = np.argmax(tc.cosine_matrix(q_v[frame], q_v[f_b]), axis=1)
    blended = (
        w * q_c[f_a][match_a].astype(np.float64)
        + (1.0 - w) * q_c[f_b][match_b].astype(np.float64)
    ).astype(tc.F32)

    zero_queries = np.linalg.norm(q_v[frame].astype(np.float64), axis=1) == 0.0
    out = np.where(zero_queries[:, None], q_c[frame], blended)
    return out.astype(tc.F32), np.flatnonzero(zero_queries)


def q_dropout(q_injected: np.ndarray, q_c: np.ndarray, rate: float, rng: np.random.Generator):
    """Per-patch dropout of the injection: with probability `rate` keep the
    live query (consistency-favoring), else the injected one. Returns
    (result, kept_fraction) where kept_fraction is the live-query share.
    """
    if not 0.0 <= rate <= 1.0:
        raise ConfigError(f"dropout rate must be in [0,1], got {rate}")
    q_injected = np.asarray(q_injected)
    q_c = np.asarray(q_c)
    if q_injected.shape != q_c.shape:
        raise ConfigError(f"shape mismatch {q_injected.shape} vs {q_c.shape}")
    if rate == 0.0:
        return q_injected, 0.0
    if rate == 1.0:
        return q_c, 1.0
    keep_live = rng.random(q_injected.shape[:-1]) < rate
    out = np.where(keep_live[..., None], q_c, q_injected)
    return out.astype(q_injected.dtype), float(keep_live.mean())


@dataclass
class QueryAudit:
    t: int
    layer: int
    role: str
    dropout_kept_fraction: float = 0.0


def select_q(
    t: int,
    layer: int,
    q_c: np.ndarray,
    cache,
    kf: KeyframeIndex,
    cfg,
    rng: np.random.Generator,
):
    """Dispatch one (timestep, layer) query decision.

    t >= t_pres: preservation; below t_pres on injection layers: flow;
    otherwise live queries pass through. Dropout applies to whichever
    injection was chosen. Returns (q, QueryAudit).
    """
    q_c = np.asarray(q_c)
    injection_layers = cfg.injection_layer_set()
    if cfg.t_pres is not None and t >= cfg.t_pres:
        q_inj = q_preserve(q_c, cache, t, layer, cfg.t_pres)
        role = "vanilla"
    elif layer in injection_layers:
        q_v = cache.get(t, layer)
        out = np.empty_like(q_c)
        for s in range(q_c.shape[0]):
            for f in range(q_c.shape[1]):
                out[s, f], _ = q_flow(q_c[s], q_v[s], kf, f, cfg.q_weight_mode)
        q_inj = out
        role = "flow"
    else:
        return q_c, QueryAudit(t, layer, "consistent", 0.0)

    q_out, kept = q_dropout(q_inj, q_c, cfg.q_dropout, rng)
    return q_out, QueryAudit(t, layer, role, kept)
