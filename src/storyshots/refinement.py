"""Refinement feature injection: blend attention-output features from anchor
frames into corresponding subject patches. The conditional pass builds the
correspondence map once per denoising step; at a `cfg_scale` other than 1 the
unconditional pass reuses it verbatim, which keeps the two passes in sync.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc


@dataclass
class CorrespondenceMap:
    """Per-patch (frame, patch) match into an anchor's full frame set."""

    target: tuple  # (shot, frame)
    match_frame: np.ndarray  # int (P,)
    match_patch: np.ndarray  # int (P,)
    score: np.ndarray  # float (P,)
    matched: np.ndarray  # bool (P,); False where the target vector was zero
    map_id: int = 0  # numbered per run by the pipeline


def build_correspondence(
    target_feats: np.ndarray,
    anchor_units: np.ndarray,
    target: tuple = (0, 0),
    map_id: int = 0,
) -> CorrespondenceMap:
    """Argmax-cosine match of each target patch against all (frame, patch)
    anchor features, given as their (frames, patches, d) tc.unit_rows (so a
    caller matching many targets against one anchor set normalizes it once),
    by the rule match_field uses: ties break to the lowest linear index, and
    zero target vectors are left unmatched and flagged.
    """
    target_feats = np.asarray(target_feats)
    frames, patches, dim = anchor_units.shape
    sims = tc.unit_cosine(
        tc.unit_rows(target_feats), anchor_units.reshape(frames * patches, dim)
    )
    linear = np.argmax(sims, axis=1)
    matched = target_feats.any(axis=1)
    score = sims[np.arange(sims.shape[0]), linear]
    return CorrespondenceMap(
        target=target,
        match_frame=(linear // patches).astype(np.int64),
        match_patch=(linear % patches).astype(np.int64),
        score=score,
        matched=matched,
        map_id=map_id,
    )


def inject_refinement(
    o_target: np.ndarray,
    o_anchor: np.ndarray,
    corr: CorrespondenceMap,
    mask: np.ndarray,
    blend: float,
) -> np.ndarray:
    """Blend matched anchor features into subject patches.

    Background patches (mask False) and unmatched patches are bit-unchanged.
    """
    o_target = np.asarray(o_target)
    o_anchor = np.asarray(o_anchor)
    mask = np.asarray(mask, dtype=bool)
    active = mask & corr.matched
    out = o_target.copy()
    if blend == 0.0 or not active.any():
        return out
    src = o_anchor[corr.match_frame[active], corr.match_patch[active]]
    mixed = (
        (1.0 - blend) * out[active].astype(np.float64)
        + blend * src.astype(np.float64)
    ).astype(tc.F32)
    out[active] = mixed
    return out
