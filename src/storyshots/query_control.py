"""Query feature control across the two injection phases.

Early steps replace the live queries with cached ones from the unconstrained
pass (preservation); later steps blend live queries along an argmax-cosine
match field computed against cached keyframe queries (flow). A per-patch
dropout can soften either injection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor_core as tc


@dataclass
class FeatureCache:
    """The vanilla-pass queries the later passes of one config read: entries
    maps (timestep, layer_id) to queries (S, F, P, d), put by the vanilla pass
    for each (t, layer) whose query_role is not "consistent"; hand_over keeps
    each flow-phase one as its FlowField."""

    config: object  # the StoryboardConfig of the passes that read the cache
    entries: dict = field(default_factory=dict)
    flow_fields: dict = field(default_factory=dict, repr=False)

    def put(self, t: int, layer_id: int, q: np.ndarray) -> None:
        if query_role(t, layer_id, self.config) != "consistent":  # there a pass reads its live queries
            self.entries[(t, layer_id)] = np.array(q, dtype=tc.F32, copy=True)

    def hand_over(self) -> None:
        """Replace each flow-phase entry by its match field, once the vanilla
        pass has put every (t, layer); select_q reads the rest verbatim."""
        for key in [key for key in self.entries if query_role(*key, self.config) == "flow"]:
            self.flow_fields[key] = match_field(self.entries.pop(key), self.config.keyframe_spacing)


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

    Each shot's queries are normalized once; one tc.best_match per (shot,
    bracket) covers all of the bracket's frames and both keyframes, so ties
    break to the lowest patch index.
    """
    S, F, P, d = q_v.shape
    f_a, f_b = keyframe_brackets(F, spacing)
    match_a = np.empty((S, F, P), np.min_scalar_type(P - 1))
    match_b = np.empty_like(match_a)
    # np.unique would import numpy.ma, +1 MB RSS
    spans = [np.flatnonzero(f_a == a) for a in dict.fromkeys(f_a.tolist())]
    for s in range(S):
        units = tc.unit_rows(q_v[s])
        for span in spans:
            keys = units[[f_a[span[0]], f_b[span[0]]]]
            best, _ = tc.best_match(units[span].reshape(-1, d), keys)
            best = best.reshape(len(span), P, 2)
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
    # keyframe_brackets keeps f_a <= f <= f_b and f_a < f_b, so ratio is in [0, 1]
    ratio = ((fld.f_b - np.arange(len(fld.f_b))) / (fld.f_b - fld.f_a)).tolist()
    w = [1.0 / (1.0 + math.exp(-r)) for r in ratio] if weight_mode == "sigmoid" else ratio
    w = np.array(w)[:, None, None]
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


def query_role(t: int, layer: int, cfg) -> str:
    """What an injecting pass does with (t, layer)'s queries: "vanilla" at
    t >= t_pres (the cached queries verbatim, on every layer), "flow" below
    t_pres on injection layers, "consistent" (the live queries) otherwise."""
    if cfg.t_pres is not None and t >= cfg.t_pres:
        return "vanilla"
    return "flow" if layer in cfg.injection_layer_set() else "consistent"


def select_q(t: int, layer: int, q_c: np.ndarray, cache, cfg):
    """Dispatch one (timestep, layer) query decision by query_role, reading a
    handed-over cache. Dropout applies to whichever injection was chosen, drawn
    from the (seed, t, layer) stream every injecting pass shares; returns (q, QueryAudit).
    """
    role = query_role(t, layer, cfg)
    if role == "consistent":
        return q_c, QueryAudit(role, 0.0)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 7919, t, layer]))
    if role == "vanilla":
        q_inj = cache.entries[t, layer]
    else:
        q_inj = q_flow(q_c, cache.flow_fields[t, layer], cfg.q_weight_mode)
    q_out, kept = q_dropout(q_inj, q_c, cfg.q_dropout, rng)
    return q_out, QueryAudit(role, kept)
