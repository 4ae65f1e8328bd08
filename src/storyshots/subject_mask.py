"""Per-frame subject localization.

The clean latent is estimated from the noisy one and the predicted noise,
scored per patch by the channel-energy segmenter, then thresholded with
Otsu's method over a 256-bin histogram. The segmenter is a deterministic
stub that scores patches by the normalized energy of a designated latent
channel; a real zero-shot segmenter would replace `saliency`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc

OTSU_BINS = 256


def geometric_alphas(total_steps: int, alpha_min: float = 0.02) -> np.ndarray:
    """Cumulative schedule parameter per timestep, float64 (T + 1,): alpha_min
    ** (t / T), 1.0 at t = 0 and nonincreasing."""
    t = np.arange(total_steps + 1, dtype=np.float64) / total_steps
    return alpha_min**t


@dataclass
class SubjectMaskSet:
    """Boolean subject masks per (shot, frame, patch)."""

    masks: np.ndarray  # bool (S, F, P)

    @classmethod
    def from_saliency(cls, saliency: np.ndarray) -> "SubjectMaskSet":
        shots, frames, _ = saliency.shape
        masks = np.zeros(saliency.shape, dtype=bool)
        for s in range(shots):
            for f in range(frames):
                thr, _ = otsu_threshold(saliency[s, f])
                # compare against the Python float: float32 saliency stays float32
                masks[s, f] = saliency[s, f] > thr
        return cls(masks)


def estimate_x0(x: np.ndarray, e_t: np.ndarray, a: float) -> np.ndarray:
    """Invert one forward-noising step at schedule value a = alphas[t]:
    (x - sqrt(1 - a) * e_t) / sqrt(a)."""
    x0 = (x.astype(np.float64) - math.sqrt(1.0 - a) * e_t.astype(np.float64)) / math.sqrt(a)
    return x0.astype(tc.F32)


# --- segmenter -----------------------------------------------------------

def saliency(x0_hat: np.ndarray, channel: int = 0) -> np.ndarray:
    """Stub segmenter over (..., P, C): squared magnitude of one latent channel,
    normalized per frame by its peak over the patch axis (all-zero frames
    give zeros). It takes no subject text because it reads none; a
    text-prompted segmenter would add that parameter with the code that
    reads it."""
    x0_hat = np.asarray(x0_hat, dtype=np.float64)
    energy = x0_hat[..., channel] ** 2
    peak = energy.max(axis=-1, keepdims=True)
    out = np.divide(energy, peak, out=np.zeros_like(energy), where=peak != 0)
    return out.astype(tc.F32)


def build_masks(x0_hat: np.ndarray, channel: int) -> SubjectMaskSet:
    """Subject masks of (S, F, P, C) clean latents: saliency of the channel,
    Otsu-thresholded per (shot, frame)."""
    return SubjectMaskSet.from_saliency(saliency(x0_hat, channel))


# --- Otsu thresholding ----------------------------------------------------

def otsu_threshold(scores: np.ndarray):
    """Histogram-based Otsu threshold over [min, max] with 256 bins.

    Returns (threshold, fallback). Candidate thresholds are the interior bin
    edges; the one maximizing between-class variance wins, ties breaking
    toward the lower threshold. Constant scores trigger the degenerate
    fallback: threshold = max(scores), full-false mask, fallback flag set.
    """
    scores = np.asarray(scores, dtype=np.float64).ravel()
    lo = scores.min()
    hi = scores.max()
    if hi == lo:
        return float(hi), True
    edges = np.linspace(lo, hi, OTSU_BINS + 1)
    candidates = edges[1:]  # 256 upper bin edges
    order = np.sort(scores)
    csum = np.cumsum(order)
    n0 = np.searchsorted(order, candidates, side="right")
    n1 = scores.size - n0
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = csum[n0 - 1] / n0
        mu1 = (csum[-1] - csum[n0 - 1]) / n1
        var = n0 * n1 * (mu0 - mu1) ** 2
    # empty classes and NaN variances (overflowed class sums) never win, as in
    # a strict `>` scan; argmax keeps the first maximum, the lower threshold
    var[(n0 == 0) | (n1 == 0) | np.isnan(var)] = -1.0
    return float(candidates[np.argmax(var)]), False
