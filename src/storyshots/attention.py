"""Spatial self-attention over frame patches, plus the masked cross-shot
extension where frames with the same temporal index attend to each other,
restricted by subject masks, and the driver that runs it over every
(shot, frame) item with one batched kernel call per shot and frame group.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor_core as tc


def masked_attention(q, k, v, allowed=None):
    """Core kernel: softmax(q kᵀ/√d + logmask) · v over any leading batch
    axes; allowed broadcasts to the logits (..., Pq, Pk) and must open a key
    in every row. Masked logits are -inf, which tc.softmax weighs +0.0; a row
    with no open key, or an -inf logit in an unmasked call, raises
    NonFiniteError. Each item gets the IEEE ops of a lone call, in one float64
    logits buffer updated in place and returned as the weights.
    Returns (h, weights); h is float32, pre output-projection.
    """
    root = math.sqrt(np.shape(q)[-1])
    # a power-of-two √d scales exactly, so a new q takes it in place of the Pq·Pk logits
    folded = math.frexp(root)[0] == 0.5
    q = np.multiply(q, 1.0 / root, dtype=np.float64) if folded else np.asarray(q, np.float64)
    logits = np.matmul(q, np.swapaxes(np.asarray(k, np.float64), -1, -2))
    if not folded:
        logits /= root
    if allowed is not None:  # a masked +inf logit becomes NaN, which tc.softmax rejects
        with np.errstate(invalid="ignore"):
            logits += np.where(allowed, 0.0, -np.inf)
    weights = tc.softmax(logits, out=logits, masked=allowed is not None)
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
