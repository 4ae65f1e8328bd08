"""Evaluation and visualization: cross-shot set-consistency, within-shot
subject consistency, a block-matching motion proxy, and y-t slice extraction.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from . import tensor_core as tc
from .errors import ConfigError, DimensionError, InsufficientShotsError

# --- consistency -----------------------------------------------------------

def masked_mean_extractor(frame: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Stub extractor: mean-pool the background-zeroed patch features."""
    frame = np.asarray(frame, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    zeroed = frame * mask[:, None]
    return zeroed.mean(axis=0)


def _pair_cos(a: np.ndarray, b: np.ndarray) -> float:
    na = math.sqrt(float(a @ a))
    nb = math.sqrt(float(b @ b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(float(a @ b) / (na * nb), -1.0, 1.0))


@dataclass
class ConsistencyReport:
    set_consistency: float
    set_consistency_sem: float
    subject_consistency: float
    pair_count: int


def set_consistency(frames: np.ndarray, masks) -> ConsistencyReport:
    """Mean pairwise cosine similarity of masked frame features across all
    cross-shot pairs, plus the mean adjacent-frame similarity within shots.
    """
    frames = np.asarray(frames)
    if frames.ndim != 4:
        raise DimensionError(f"expected (S,F,P,c) frames, got {frames.shape}")
    shots, n_frames = frames.shape[:2]
    if shots < 2:
        raise InsufficientShotsError(f"set consistency needs >= 2 shots, got {shots}")

    feats = np.zeros((shots, n_frames, frames.shape[3]))
    for s in range(shots):
        for f in range(n_frames):
            feats[s, f] = masked_mean_extractor(frames[s, f], masks.masks[s, f])

    sims = []
    for s1 in range(shots):
        for f1 in range(n_frames):
            for s2 in range(s1 + 1, shots):
                for f2 in range(n_frames):
                    sims.append(_pair_cos(feats[s1, f1], feats[s2, f2]))
    sims = np.asarray(sims)
    sem = float(sims.std(ddof=1) / math.sqrt(sims.size)) if sims.size > 1 else 0.0

    within = [
        _pair_cos(feats[s, f], feats[s, f + 1])
        for s in range(shots)
        for f in range(n_frames - 1)
    ]
    subject = float(np.mean(within)) if within else 1.0
    return ConsistencyReport(
        set_consistency=float(sims.mean()),
        set_consistency_sem=sem,
        subject_consistency=subject,
        pair_count=sims.size,
    )


# --- motion proxy ---------------------------------------------------------

def dynamic_degree(
    video: np.ndarray,
    flow_threshold: float,
    block_size: int = 8,
    search_radius: int = 4,
):
    """Mean block-matching displacement magnitude between adjacent frames.

    Exhaustive +-search_radius search per block, minimum sum-of-absolute-
    differences; ties break to the smaller magnitude, then lexicographic
    (dy, dx). Blocks are placed on an interior grid with a search_radius
    margin so every candidate displacement stays in frame. Returns
    (score, dynamic) where dynamic means score > flow_threshold.
    """
    video = np.asarray(video, dtype=np.float64)
    if video.ndim != 3 or video.shape[0] < 2:
        raise DimensionError(f"expected (F>=2, H, W) video, got {video.shape}")
    n_frames, height, width = video.shape
    if height < block_size or width < block_size:
        raise ConfigError(f"frame {height}x{width} smaller than block size {block_size}")
    ys = list(range(search_radius, height - block_size - search_radius + 1, block_size))
    xs = list(range(search_radius, width - block_size - search_radius + 1, block_size))
    if not ys or not xs:
        raise ConfigError(
            f"frame {height}x{width} too small for block {block_size} with radius {search_radius}"
        )

    offsets = [
        (dy, dx)
        for dy in range(-search_radius, search_radius + 1)
        for dx in range(-search_radius, search_radius + 1)
    ]
    magnitudes = []
    for f in range(n_frames - 1):
        cur, nxt = video[f], video[f + 1]
        for y0 in ys:
            for x0 in xs:
                block = cur[y0 : y0 + block_size, x0 : x0 + block_size]
                best = None
                for dy, dx in offsets:
                    window = nxt[y0 + dy : y0 + dy + block_size, x0 + dx : x0 + dx + block_size]
                    sad = float(np.abs(block - window).sum())
                    key = (sad, math.hypot(dy, dx), dy, dx)
                    if best is None or key < best:
                        best = key
                magnitudes.append(best[1])
    score = float(np.mean(magnitudes))
    return score, score > flow_threshold


# --- y-t slices -----------------------------------------------------------

def yt_slice(video: np.ndarray):
    """Fixed-column spatiotemporal cross-section, (H, F), at the column
    maximizing temporal variance summed over rows (ties to the lowest index).
    Returns (slice, column).
    """
    video = np.asarray(video)
    if video.ndim != 3:
        raise DimensionError(f"expected (F,H,W) video, got {video.shape}")
    variance = video.astype(np.float64).var(axis=0).sum(axis=0)  # per column
    column = int(np.argmax(variance))
    return video[:, :, column].T.copy(), column


def write_pgm(path, image: np.ndarray) -> None:
    """Binary PGM (P5), min-max normalized to 0..255."""
    image = np.asarray(image, dtype=np.float64)
    lo, hi = image.min(), image.max()
    if hi > lo:
        scaled = (image - lo) / (hi - lo) * 255.0
    else:
        scaled = np.zeros_like(image)
    data = np.round(scaled).astype(np.uint8)
    h, w = data.shape
    tc.write_atomic(path, f"P5\n{w} {h}\n255\n".encode("ascii") + data.tobytes(order="C"))


# --- report output --------------------------------------------------------

def write_reports(path_csv, path_json, rows) -> None:
    """rows: iterable of (metric, mean, sem, n)."""
    rows = list(rows)
    buf = io.StringIO()  # csv ends each row with \r\n
    writer = csv.writer(buf)
    writer.writerow(["metric", "mean", "sem", "n"])
    writer.writerows(rows)
    tc.write_atomic(path_csv, buf.getvalue().encode("utf-8"))
    payload = [
        {"metric": m, "mean": mean, "sem": sem, "n": n} for m, mean, sem, n in rows
    ]
    tc.write_atomic(path_json, (json.dumps(payload, indent=2) + "\n").encode("utf-8"))
