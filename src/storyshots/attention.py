"""Spatial self-attention over frame patches, plus the masked cross-shot
extension where frames with the same temporal index attend to each other,
restricted by subject masks, and the driver that runs it over every
(shot, frame) item with one batched kernel call per shot and frame group.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from . import tensor_core as tc
from .errors import NonFiniteError

# numpy's exp returns exactly +0.0 for every input at or below this, but takes
# a slow path on any SIMD block that holds such an input; masked_attention keeps
# those lanes out of exp and writes the +0.0 itself.
EXP_ZERO = -746.0

# Float64 logits per chunk of an unmasked call: 16 items at 64 patches, 1 at
# 256, the fastest split measured on a 2-core x86 VM.
LOGITS_BUDGET_BYTES = 512 * 1024


def masked_attention(q, k, v, allowed=None):
    """Core kernel: softmax(q kᵀ/√d + logmask) · v over any leading batch
    axes; allowed broadcasts to the logits (..., Pq, Pk) and must open a key
    in every row. A q or k entry outside float32's finite range (NaN
    included), or a row with no open key, raises NonFiniteError; q and k in
    that range give finite float64 logits, so the only -inf logits are the
    masked ones. The softmax is float64 with per-row max subtraction; shifted
    logits at or below EXP_ZERO (masked ones among them) get weight +0.0
    without passing through exp, as exp would give them, so the weights are
    the bytes plain exp gives. Each item gets the IEEE ops of a lone call, in
    one float64 logits buffer updated in place and returned as the weights.
    Returns (h, weights); h is float32, pre output-projection.

    A call with no mask (q, k and v then share their leading axes) whose
    logits exceed LOGITS_BUDGET_BYTES walks its flattened items in chunks of
    at most that budget, all in one logits buffer per walk, and returns None
    for the weights. From four chunks on, when the process may run on two or
    more CPUs, a helper thread walks the odd chunks; the call joins it and
    then raises the first failure either walk recorded.
    """
    lead = np.shape(q)[:-2]
    n = math.prod(lead)
    step = max(1, LOGITS_BUDGET_BYTES // (8 * np.shape(q)[-2] * np.shape(k)[-2]))
    if allowed is not None or n <= step:
        return _kernel(q, k, v, allowed)
    q, k, v = (np.reshape(a, (n, *np.shape(a)[-2:])) for a in (q, k, v))
    h = np.empty((n, q.shape[1], v.shape[2]), tc.F32)
    failed = []

    def walk(starts):
        try:
            logits = np.empty((step, q.shape[1], k.shape[1]))
            for i in starts:
                h[i : i + step] = _kernel(q[i : i + step], k[i : i + step], v[i : i + step], None,
                                          logits[: n - i])[0]
        except BaseException as exc:  # raised on the calling thread, after the join
            failed.append(exc)

    starts = range(0, n, step)
    if len(starts) < 4 or _cpus() < 2:
        walk(starts)
    else:
        helper = threading.Thread(target=walk, args=(starts[1::2],))
        helper.start()
        walk(starts[::2])
        helper.join()
    if failed:
        raise failed[0]
    return h.reshape(*lead, *h.shape[1:]), None


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _kernel(q, k, v, allowed=None, logits=None):
    """masked_attention on one chunk: the whole call, weights included (made in logits if given)."""
    top = np.finfo(tc.F32).max
    if not (np.abs(q).max(initial=0.0) <= top and np.abs(k).max(initial=0.0) <= top):
        raise NonFiniteError("attention needs queries and keys in float32's finite range")
    root = math.sqrt(np.shape(q)[-1])
    # a power-of-two √d scales exactly, so a new q takes it in place of the Pq·Pk logits
    folded = math.frexp(root)[0] == 0.5
    q = np.multiply(q, 1.0 / root, dtype=np.float64) if folded else np.asarray(q, np.float64)
    logits = np.matmul(q, np.swapaxes(np.asarray(k, np.float64), -1, -2), out=logits)
    q = None  # read by the product alone: the chunk's softmax runs without the float64 q
    if not folded:
        logits /= root
    if allowed is not None:
        logits += np.where(allowed, 0.0, -np.inf)
    m = logits.max(axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        raise NonFiniteError("attention needs an open key in every row")
    logits -= m
    if allowed is not None:  # masked lanes turn finite, so the products below make no NaN
        np.maximum(logits, EXP_ZERO, out=logits)
    live = logits > EXP_ZERO
    if live.all():  # no dead lane: both multiplies would be the identity
        np.exp(logits, out=logits)
    else:
        logits *= live  # dead lanes enter exp as -0.0, off its underflow path
        np.exp(logits, out=logits)
        logits *= live
    logits /= logits.sum(axis=-1, keepdims=True)  # in [1, Pk] in every row
    h = np.matmul(logits, np.asarray(v, np.float64)).astype(tc.F32)
    return h, logits


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
