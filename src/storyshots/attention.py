"""Spatial self-attention over frame patches, plus the masked cross-shot
extension where frames with the same temporal index attend to each other,
restricted by subject masks. Also the memory-style sub-batched driver that
chunks (shot, frame) work items without changing any result.
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

    @property
    def shots(self) -> int:
        return self.q.shape[0]

    @property
    def frames(self) -> int:
        return self.q.shape[1]


def masked_attention(q, k, v, allowed=None):
    """Core kernel: softmax(q kᵀ/√d + logmask) · v with exact zeroing of
    masked weights. Returns (h, weights); h is float32, pre output-projection.
    """
    q = np.asarray(q)
    k = np.asarray(k)
    v = np.asarray(v)
    d = q.shape[-1]
    logits = (q.astype(np.float64) @ k.astype(np.float64).T) / math.sqrt(d)
    if allowed is not None:
        allowed = np.asarray(allowed, dtype=bool)
        if allowed.shape != logits.shape:
            raise DimensionError(
                f"mask shape {allowed.shape} does not match logits {logits.shape}"
            )
        if not allowed.any(axis=1).all():
            raise DegenerateRowError("extended mask row has no allowed key")
        logits = logits + np.where(allowed, 0.0, MASK_LOGIT)
    weights = tc.softmax(logits)
    if allowed is not None:
        weights[~allowed] = 0.0
    h = (weights @ v.astype(np.float64)).astype(tc.F32)
    return h, weights.astype(tc.F32)


def _extended_mask_row_blocks(masks, shot, frame, key_shots, middle_frame=None):
    """Per-key-shot allowed blocks: all-true for the shot's own frame block,
    subject masks for foreign blocks (and any middle-frame blocks)."""
    blocks = []
    for j in key_shots:
        if j == shot:
            blocks.append(np.ones(masks.masks.shape[2], dtype=bool))
        else:
            blocks.append(masks.masks[j, frame])
        if middle_frame is not None and middle_frame != frame:
            blocks.append(masks.masks[j, middle_frame])
    return blocks


def framewise_sdsa(
    feats: AttnFeatures,
    masks,
    frame: int,
    shot: int,
    key_shots=None,
    attend_middle_frame: bool = False,
):
    """Extended attention for one (shot, frame): keys/values are the
    concatenation over shots of that temporal index only; foreign blocks are
    gated by subject masks while the self block is fully open. Queries pass
    through unaltered. Returns h (P, d), pre output-projection.
    """
    if key_shots is None:
        key_shots = list(range(feats.shots))
    if shot not in key_shots:
        raise ConfigError(f"shot {shot} missing from its own key-shot set {key_shots}")
    mid = feats.frames // 2 if attend_middle_frame else None

    q = feats.q[shot, frame]
    k_blocks, v_blocks = [], []
    for j in key_shots:
        k_blocks.append(feats.k[j, frame])
        v_blocks.append(feats.v[j, frame])
        if mid is not None and mid != frame:
            k_blocks.append(feats.k[j, mid])
            v_blocks.append(feats.v[j, mid])
    k_ext = np.concatenate(k_blocks, axis=0)
    v_ext = np.concatenate(v_blocks, axis=0)
    allowed_row = np.concatenate(
        _extended_mask_row_blocks(masks, shot, frame, key_shots, mid)
    )
    allowed = np.broadcast_to(allowed_row, (q.shape[0], allowed_row.shape[0]))
    h, _ = masked_attention(q, k_ext, v_ext, allowed)
    return h


def sub_batched_attention(
    feats: AttnFeatures,
    masks,
    sub_batch: int,
    key_shots_for=None,
    attend_middle_frame: bool = False,
) -> np.ndarray:
    """Run framewise_sdsa over all (shot, frame) items in lexicographic order,
    in chunks of sub_batch. Chunking is transparent: each item is computed
    independently, so the output is bit-identical for every sub_batch value.
    """
    if sub_batch < 1:
        raise ConfigError(f"sub_batch must be >= 1, got {sub_batch}")
    items = [(s, f) for s in range(feats.shots) for f in range(feats.frames)]
    out = np.zeros_like(feats.q)
    for start in range(0, len(items), sub_batch):
        for s, f in items[start : start + sub_batch]:
            ks = key_shots_for(s) if key_shots_for is not None else None
            out[s, f] = framewise_sdsa(
                feats, masks, f, s, key_shots=ks, attend_middle_frame=attend_middle_frame
            )
    return out
