"""Evaluation and visualization: cross-shot set-consistency, within-shot
subject consistency, a block-matching motion proxy, and y-t slice extraction.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor_core as tc

# --- consistency -----------------------------------------------------------

def set_consistency(frames: np.ndarray, masks) -> list:
    """Mean pairwise cosine similarity of masked frame features across all
    cross-shot pairs, plus the mean adjacent-frame similarity within shots,
    as the report rows ("set_consistency", mean, sem, pair count) and
    ("subject_consistency", mean, 0.0, shots). A frame's feature is the mean
    over its patches with the background zeroed. Needs two or more shots:
    with one there is no cross-shot pair.
    """
    shots, n_frames = frames.shape[:2]
    feats = (frames.astype(np.float64) * masks.masks[..., None]).mean(axis=2)
    ids = list(itertools.product(range(shots), range(n_frames)))
    norms = {p: math.sqrt(float(feats[p] @ feats[p])) for p in ids}

    def cos(p, q):
        if norms[p] == 0.0 or norms[q] == 0.0:
            return 0.0
        return min(max(float(feats[p] @ feats[q]) / (norms[p] * norms[q]), -1.0), 1.0)

    # mean_sem sums in list order, so the pair order (s1, f1, s2 > s1, f2) is in the bytes
    sims = [cos(p, q) for p in ids for q in ids if q[0] > p[0]]
    mean, sem = mean_sem(sims)
    within = [cos((s, f), (s, f + 1)) for s, f in ids if f + 1 < n_frames]
    subject = float(np.mean(within)) if within else 1.0
    return [("set_consistency", mean, sem, len(sims)), ("subject_consistency", subject, 0.0, shots)]


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
    r, b = search_radius, block_size
    ys = np.arange(r, height - b - r + 1, b)[:, None]
    xs = np.arange(r, width - b - r + 1, b)[None, :]
    # in tie-break order, so argmin's first least SAD is the tie-break's pick
    offsets = sorted(
        ((dy, dx) for dy in range(-r, r + 1) for dx in range(-r, r + 1)),
        key=lambda o: (math.hypot(*o), o),
    )
    dys, dxs = (np.array(d)[:, None, None] for d in zip(*offsets))
    offset_norms = np.array([math.hypot(dy, dx) for dy, dx in offsets])

    windows = sliding_window_view(video, (b, b), axis=(1, 2))  # [f, y, x] is a block
    magnitudes = []
    for f in range(n_frames - 1):  # one frame pair's candidates at a time
        blocks = windows[f][ys, xs]  # (blocks_y, blocks_x, b, b)
        candidates = windows[f + 1][ys + dys, xs + dxs]  # (offsets, blocks_y, blocks_x, b, b)
        sad = np.abs(candidates - blocks).sum(axis=(-2, -1))
        magnitudes.append(offset_norms[sad.argmin(axis=0)].ravel())
    return float(np.mean(np.concatenate(magnitudes)))


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
