"""Refinement feature injection: blend attention-output features from anchor
frames into corresponding subject patches. The conditional pass builds the
correspondence maps once per denoising step; at a `cfg_scale` other than 1 the
unconditional pass reuses them verbatim, which keeps the two passes in sync.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc


@dataclass
class CorrespondenceMap:
    """Per-patch match into the flattened (frame, patch) rows of an anchor set."""

    target: tuple  # (shot, frame)
    match: np.ndarray  # int (P,); frame and patch are divmod(match, patches)
    score: np.ndarray  # float (P,)
    matched: np.ndarray  # bool (P,); False where the target vector was zero


def build_correspondence(
    target_feats: np.ndarray, anchor_units: np.ndarray, target: tuple = (0, 0)
) -> CorrespondenceMap:
    """Argmax-cosine match of each target patch against all (frame, patch)
    anchor features, given as their (frames, patches, d) tc.unit_rows (so a
    caller matching many targets against one anchor set normalizes it once),
    by tc.best_match over the flattened set, the kernel match_field uses:
    ties break to the lowest linear index, and zero target vectors are left
    unmatched and flagged.
    """
    dim = anchor_units.shape[-1]
    best, score = tc.best_match(tc.unit_rows(target_feats), anchor_units.reshape(1, -1, dim))
    return CorrespondenceMap(target, best[:, 0], score[:, 0], target_feats.any(axis=1))


def inject_refinement(
    o_target: np.ndarray,
    o_anchor: np.ndarray,
    corr: CorrespondenceMap,
    mask: np.ndarray,
    blend: float,
) -> None:
    """Blend matched anchor features, the rows of o_anchor (..., d) that
    corr.match indexes once flattened, into the subject patches of o_target
    (P, d), in place. Background patches (mask False) and unmatched patches
    are bit-unchanged.
    """
    if blend == 0.0:  # the blend below would turn a -0.0 feature into +0.0
        return
    active = mask & corr.matched
    src = o_anchor.reshape(-1, o_anchor.shape[-1])[corr.match[active]]
    o_target[active] = (
        (1.0 - blend) * o_target[active].astype(np.float64)
        + blend * src.astype(np.float64)
    ).astype(tc.F32)


def refine(o: np.ndarray, anchors, masks: np.ndarray, blend: float, maps: dict | None = None):
    """Refinement of one layer's attention output o (S, F, P, d) under the
    (S, F, P) bool masks. A shot's sources are the other anchor shots (a shot
    with none is left as it is); their frames are normalized once per shot,
    and each (shot, frame) gets one build_correspondence against them unless
    maps, as this call returned them for the conditional forward, are given.
    Returns (out, maps), the maps keyed by (shot, frame) in build order."""
    out, build = o.copy(), maps is None
    maps = {} if build else maps
    for s in range(o.shape[0]):
        sources = sorted(a for a in anchors if a != s)
        if not sources:
            continue
        feats = np.concatenate([o[a] for a in sources], axis=0)
        units = tc.unit_rows(feats) if build else None
        for f in range(o.shape[1]):
            if build:
                maps[s, f] = build_correspondence(o[s, f], units, (s, f))
            inject_refinement(out[s, f], feats, maps[s, f], masks[s, f], blend)
    return out, maps
