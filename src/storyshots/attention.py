"""Spatial self-attention over frame patches, plus the masked cross-shot
extension where frames with the same temporal index attend to each other,
restricted by subject masks, and the driver that runs it over every
(shot, frame) item with one batched kernel call per shot and frame group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .errors import ConfigError, DegenerateRowError, DimensionError

# Additive logit penalty standing in for -inf; masked weights are zeroed
# exactly after the softmax so no NaN can appear.
MASK_LOGIT = -1e30


@dataclass
class LayerWeights:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray


@dataclass
class AttnFeatures:
    """Per-layer Q/K/V maps indexed (shot, frame, patch, dim)."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if self.q.shape != self.k.shape or self.q.shape != self.v.shape:
            raise DimensionError(
                f"q/k/v shapes differ: {self.q.shape} {self.k.shape} {self.v.shape}"
            )
        if self.q.ndim != 4:
            raise DimensionError(f"expected (S,F,P,d) features, got {self.q.shape}")


def masked_attention(q, k, v, allowed=None):
    """Core kernel: softmax(q kᵀ/√d + logmask) · v with exact zeroing of masked
    weights, over any leading batch axes; allowed broadcasts to the logits
    (..., Pq, Pk). Each item gets the IEEE ops of a lone call, in one float64
    logits buffer updated in place and returned as the weights. Returns
    (h, weights); h is float32, pre output-projection.
    """
    d = np.shape(q)[-1]
    logits = np.matmul(np.asarray(q, np.float64), np.swapaxes(np.asarray(k, np.float64), -1, -2))
    logits /= math.sqrt(d)
    if allowed is not None:
        allowed = np.asarray(allowed, dtype=bool)
        try:
            np.broadcast_to(allowed, logits.shape)
        except ValueError:
            raise DimensionError(
                f"mask shape {allowed.shape} does not match logits {logits.shape}"
            ) from None
        if not allowed.any(axis=-1).all():
            raise DegenerateRowError("extended mask row has no allowed key")
        logits += np.where(allowed, 0.0, MASK_LOGIT)
    weights = tc.softmax(logits, out=logits)
    if allowed is not None:
        np.copyto(weights, 0.0, where=~allowed)
    h = np.matmul(weights, np.asarray(v, np.float64)).astype(tc.F32)
    return h, weights


def framewise_sdsa(
    feats: AttnFeatures,
    masks,
    frame,
    shot: int,
    key_shots=None,
    attend_middle_frame: bool = False,
):
    """Extended attention for one shot at one frame, or at an array of frames
    sharing one key layout (all or none of them the middle frame): keys/values
    are the concatenation over key shots of the query's temporal index, then
    of the middle frame with attend_middle_frame; all blocks but the self
    block are gated by subject masks. Queries pass through unaltered. Returns
    h (P, d) for an int frame, (n, P, d) for n frames, pre output-projection.
    """
    shots, mid = feats.q.shape[0], feats.q.shape[1] // 2
    if key_shots is None:
        key_shots = list(range(shots))
    if shot not in key_shots:
        raise ConfigError(f"shot {shot} missing from its own key-shot set {key_shots}")
    frames = np.atleast_1d(np.asarray(frame, dtype=np.intp))
    blocks = [frames]
    if attend_middle_frame:
        if (frames == mid).any() != (frames == mid).all():
            raise ConfigError(f"frames {frames.tolist()} mix the middle frame with others")
        if frames[0] != mid:
            blocks.append(np.full_like(frames, mid))
    pairs = [(j, b) for j in key_shots for b in blocks]
    k_ext = np.concatenate([feats.k[j, b] for j, b in pairs], axis=1)
    v_ext = np.concatenate([feats.v[j, b] for j, b in pairs], axis=1)
    allowed = np.concatenate(  # the shot's own frame block is fully open
        [masks.masks[j, b] | (j == shot and b is frames) for j, b in pairs], axis=1
    )
    h, _ = masked_attention(feats.q[shot, frames], k_ext, v_ext, allowed[:, None, :])
    return h if np.ndim(frame) else h[0]


def extended_attention(
    feats: AttnFeatures, masks, key_shots_for=None, attend_middle_frame: bool = False
) -> np.ndarray:
    """framewise_sdsa over every (shot, frame) item: one call per shot and
    group of frames sharing a key layout (with attend_middle_frame the middle
    frame is a group of its own)."""
    frames = np.arange(feats.q.shape[1])
    at_mid = (frames == frames.size // 2) & attend_middle_frame
    out = np.empty_like(feats.q)
    for s in range(feats.q.shape[0]):
        ks = key_shots_for(s) if key_shots_for is not None else None
        for g in (frames[at_mid], frames[~at_mid]):
            if g.size:
                out[s, g] = framewise_sdsa(feats, masks, g, s, ks, attend_middle_frame)
    return out
