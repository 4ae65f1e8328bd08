"""Query feature control across the two injection phases.

Early steps replace the live queries with cached ones from the unconstrained
pass (preservation); later steps blend live queries along an argmax-cosine
match field computed against cached keyframe queries (flow). A per-patch
dropout can soften either injection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor_core as tc


@dataclass
class FeatureCache:
    """(timestep, layer_id) -> cached vanilla-pass queries (S, F, P, d), and
    the flow match fields computed from them, memoised per keyframe spacing."""

    entries: dict = field(default_factory=dict)
    # (t, layer_id, spacing) -> FlowField; the vanilla pass of run_passes puts
    # each key once, into a new cache, and only later passes build fields
    flow_fields: dict = field(default_factory=dict, repr=False)

    def put(self, t: int, layer_id: int, q: np.ndarray) -> None:
        self.entries[(t, layer_id)] = np.array(q, dtype=tc.F32, copy=True)

    def get(self, t: int, layer_id: int) -> np.ndarray:
        return self.entries[(t, layer_id)]

    def flow_field(self, t: int, layer_id: int, spacing: int) -> FlowField:
        """The match field of the cached queries at (t, layer_id), computed on
        first use and kept for the cache's life: the vanilla pass has put every
        entry before a later pass asks for a field."""
        key = (t, layer_id, spacing)
        if key not in self.flow_fields:
            self.flow_fields[key] = match_field(self.get(t, layer_id), spacing)
        return self.flow_fields[key]


def keyframe_brackets(frames: int, spacing: int):
    """Each frame's nearest keyframes (f_a, f_b), f_a <= frame <= f_b and
    f_a < f_b, as two int arrays (frames >= 2). Keyframes are the multiples of
    spacing below the last frame, and the last frame; a keyframe acts as f_a,
    and the last frame takes the keyframe before it as f_a."""
    f_a = np.minimum(np.arange(frames), frames - 2) // spacing * spacing
    return f_a, np.minimum(f_a + spacing, frames - 1)


@dataclass
class FlowField:
    """Argmax-cosine match field of one (t, layer) of vanilla queries.

    For frame f, (f_a[f], f_b[f]) is its keyframe bracket; match_a/match_b
    (S, F, P) hold the matched patch in each keyframe, in the smallest dtype
    that holds P - 1; zero (S, F, P) flags zero-norm queries, which skip
    matching and keep their live query.
    """

    f_a: np.ndarray
    f_b: np.ndarray
    match_a: np.ndarray
    match_b: np.ndarray
    zero: np.ndarray


def match_field(q_v: np.ndarray, spacing: int) -> FlowField:
    """Match every vanilla query (S, F, P, d) against the vanilla queries of
    its frame's two bracketing keyframes, in the same shot.

    One cosine matmul per (shot, bracket) covers all of the bracket's frames
    and both keyframes; argmax takes the first maximum of the clipped
    cosines, so ties break to the lowest patch index.
    """
    S, F, P, d = q_v.shape
    f_a, f_b = keyframe_brackets(F, spacing)
    match_a = np.empty((S, F, P), np.min_scalar_type(P - 1))
    match_b = np.empty_like(match_a)
    for a in dict.fromkeys(f_a.tolist()):  # np.unique would import numpy.ma, +1 MB RSS
        span = np.flatnonzero(f_a == a)
        b = f_b[span[0]]
        for s in range(S):
            sims = tc.cosine_matrix(q_v[s, span].reshape(-1, d), q_v[s, [a, b]].reshape(-1, d))
            best = np.argmax(sims.reshape(len(span), P, 2, P), axis=-1)
            match_a[s, span], match_b[s, span] = best[..., 0], best[..., 1]
    # a zero norm means every component is zero (float32 squares cannot underflow in float64)
    zero = ~q_v.any(axis=-1)
    return FlowField(f_a, f_b, match_a, match_b, zero)


def q_flow(q_c: np.ndarray, fld: FlowField, weight_mode: str = "sigmoid") -> np.ndarray:
    """Phase 2 for every (shot, frame) of one (t, layer).

    Blends the *live* queries q_c (S, F, P, d) at the field's matched
    locations with w = sigmoid((f_B - f)/(f_B - f_A)) (or the plain ratio
    when weight_mode == "linear"); queries the field flags as zero keep
    their live value.
    """
    weight = tc.sigmoid if weight_mode == "sigmoid" else float
    ratio = (fld.f_b - np.arange(len(fld.f_b))) / (fld.f_b - fld.f_a)
    w = np.array([weight(r) for r in ratio.tolist()])[:, None, None]
    out = np.empty(q_c.shape, tc.F32)
    for s in range(q_c.shape[0]):
        blended = (
            w * q_c[s][fld.f_a[:, None], fld.match_a[s]].astype(np.float64)
            + (1.0 - w) * q_c[s][fld.f_b[:, None], fld.match_b[s]].astype(np.float64)
        ).astype(tc.F32)
        out[s] = np.where(fld.zero[s, :, :, None], q_c[s], blended)
    return out


def q_dropout(q_injected: np.ndarray, q_c: np.ndarray, rate: float, rng: np.random.Generator):
    """Per-patch dropout of the injection: with probability `rate` keep the
    live query (consistency-favoring), else the injected one. Returns
    (result, kept_fraction) where kept_fraction is the live-query share.
    """
    if rate == 0.0:
        return q_injected, 0.0
    if rate == 1.0:
        return q_c, 1.0
    keep_live = rng.random(q_injected.shape[:-1]) < rate
    out = np.where(keep_live[..., None], q_c, q_injected)
    return out.astype(q_injected.dtype), float(keep_live.mean())


@dataclass
class QueryAudit:
    role: str
    dropout_kept_fraction: float = 0.0


def select_q(t: int, layer: int, q_c: np.ndarray, cache, cfg, rng: np.random.Generator):
    """Dispatch one (timestep, layer) query decision.

    t >= t_pres: preservation (the cached vanilla queries verbatim); below
    t_pres on injection layers: flow; otherwise live queries pass through.
    Dropout applies to whichever injection was chosen. Returns
    (q, QueryAudit).
    """
    q_c = np.asarray(q_c)
    injection_layers = cfg.injection_layer_set()
    if cfg.t_pres is not None and t >= cfg.t_pres:
        q_inj = cache.get(t, layer)
        role = "vanilla"
    elif layer in injection_layers:
        q_inj = q_flow(q_c, cache.flow_field(t, layer, cfg.keyframe_spacing), cfg.q_weight_mode)
        role = "flow"
    else:
        return q_c, QueryAudit("consistent", 0.0)

    q_out, kept = q_dropout(q_inj, q_c, cfg.q_dropout, rng)
    return q_out, QueryAudit(role, kept)
