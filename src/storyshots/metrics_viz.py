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
    Needs two or more shots: with one there is no cross-shot pair.
    """
    shots, n_frames = frames.shape[:2]

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
    mean, sem = mean_sem(sims)

    within = [
        _pair_cos(feats[s, f], feats[s, f + 1])
        for s in range(shots)
        for f in range(n_frames - 1)
    ]
    subject = float(np.mean(within)) if within else 1.0
    return ConsistencyReport(
        set_consistency=mean,
        set_consistency_sem=sem,
        subject_consistency=subject,
        pair_count=len(sims),
    )


def mean_sem(values) -> tuple:
    """(mean, standard error of the mean) of a sample; one value has SEM 0."""
    values = np.asarray(values, dtype=np.float64)
    sem = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return float(values.mean()), sem


# --- motion proxy ---------------------------------------------------------

# the block size and search radius the CLI scores every shot with: a frame
# needs a side of at least BLOCK_SIZE + 2 * SEARCH_RADIUS to hold one block
BLOCK_SIZE = 4
SEARCH_RADIUS = 2


def dynamic_degree(
    video: np.ndarray, block_size: int = BLOCK_SIZE, search_radius: int = SEARCH_RADIUS
) -> float:
    """Mean block-matching displacement magnitude between adjacent frames.

    Exhaustive +-search_radius search per block, minimum sum-of-absolute-
    differences; ties break to the smaller magnitude, then lexicographic
    (dy, dx). Blocks are placed on an interior grid with a search_radius
    margin so every candidate displacement stays in frame.
    """
    video = np.asarray(video, dtype=np.float64)
    n_frames, height, width = video.shape
    ys = range(search_radius, height - block_size - search_radius + 1, block_size)
    xs = range(search_radius, width - block_size - search_radius + 1, block_size)

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
    return float(np.mean(magnitudes))


# --- y-t slices -----------------------------------------------------------

def yt_slice(video: np.ndarray):
    """Fixed-column spatiotemporal cross-section, (H, F), at the column
    maximizing temporal variance summed over rows (ties to the lowest index).
    Returns (slice, column).
    """
    video = np.asarray(video)
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
