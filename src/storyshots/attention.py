"""Spatial self-attention over frame patches, plus the masked cross-shot
extension where frames with the same temporal index attend to each other,
restricted by subject masks, and the driver that runs it over every
(shot, frame) item with one batched kernel call per shot and frame group.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor_core as tc

# Additive logit penalty standing in for -inf, so no NaN can appear. Its
# entries fall below tc.EXP_ZERO and get weight +0.0 from the softmax, unless
# a row is all masked; masked weights are zeroed after it in either case.
MASK_LOGIT = -1e30


def masked_attention(q, k, v, allowed=None):
    """Core kernel: softmax(q kᵀ/√d + logmask) · v with exact zeroing of masked
    weights, over any leading batch axes; allowed broadcasts to the logits
    (..., Pq, Pk) and opens a key in every row. Each item gets the IEEE ops of
    a lone call, in one float64 logits buffer updated in place and returned
    as the weights. Returns (h, weights); h is float32, pre output-projection.
    """
    d = np.shape(q)[-1]
    logits = np.matmul(np.asarray(q, np.float64), np.swapaxes(np.asarray(k, np.float64), -1, -2))
    logits /= math.sqrt(d)
    if allowed is not None:
        allowed = np.asarray(allowed, dtype=bool)
        logits += np.where(allowed, 0.0, MASK_LOGIT)
    weights = tc.softmax(logits, out=logits)
    if allowed is not None:
        weights *= allowed  # weights are finite and >= +0, so masked ones become +0.0
    h = np.matmul(weights, np.asarray(v, np.float64)).astype(tc.F32)
    return h, weights


def framewise_sdsa(q, k, v, masks, frames, shot: int, key_shots, attend_middle_frame: bool):
    """Extended attention for one shot at an array of frames sharing one key
    layout (all or none of them the middle frame): keys/values are the
    concatenation over key_shots (which include shot) of the query's temporal
    index, then of the middle frame with attend_middle_frame; all blocks but
    the self block are gated by the (S, F, P) bool masks. q, k, v are
    (S, F, P, d); queries pass through unaltered. Returns h (n, P, d) for n
    frames, pre output-projection.
    """
    blocks = [frames]
    mid = q.shape[1] // 2
    if attend_middle_frame and frames[0] != mid:
        blocks.append(np.full_like(frames, mid))
    pairs = [(j, b) for j in key_shots for b in blocks]
    k_ext = np.concatenate([k[j, b] for j, b in pairs], axis=1)
    v_ext = np.concatenate([v[j, b] for j, b in pairs], axis=1)
    allowed = np.concatenate(  # the shot's own frame block is fully open
        [masks[j, b] | (j == shot and b is frames) for j, b in pairs], axis=1
    )
    h, _ = masked_attention(q[shot, frames], k_ext, v_ext, allowed[:, None, :])
    return h


def extended_attention(q, k, v, masks, anchors, attend_middle_frame: bool) -> np.ndarray:
    """framewise_sdsa over every (shot, frame) item of (S, F, P, d) q, k, v,
    with the anchor shots plus the shot itself as each shot's key shots: one
    call per shot and group of frames sharing a key layout (with
    attend_middle_frame the middle frame is a group of its own)."""
    frames = np.arange(q.shape[1])
    at_mid = (frames == frames.size // 2) & attend_middle_frame
    out = np.empty_like(q)
    for s in range(q.shape[0]):
        ks = sorted({*anchors, s})
        for g in (frames[at_mid], frames[~at_mid]):
            if g.size:
                out[s, g] = framewise_sdsa(q, k, v, masks, g, s, ks, attend_middle_frame)
    return out
