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
    patches, dim = anchor_units.shape[1:]
    best, score = tc.best_match(tc.unit_rows(target_feats), anchor_units.reshape(1, -1, dim))
    linear = best[:, 0]
    return CorrespondenceMap(
        target=target,
        match_frame=linear // patches,
        match_patch=linear % patches,
        score=score[:, 0],
        matched=target_feats.any(axis=1),
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
    out = o_target.copy()
    if blend == 0.0:  # the blend below would turn a -0.0 feature into +0.0
        return out
    active = mask & corr.matched
    src = o_anchor[corr.match_frame[active], corr.match_patch[active]]
    out[active] = (
        (1.0 - blend) * out[active].astype(np.float64)
        + blend * src.astype(np.float64)
    ).astype(tc.F32)
    return out
