"""Dense float32 array substrate and the numeric kernels everything else uses.

Arrays are plain numpy ndarrays, float32, row-major (C order). Reductions
(softmax denominators, dot products, norms) accumulate in float64 and cast
back to float32 so results are reproducible bit-for-bit across runs.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import DegenerateRowError, DimensionError

F32 = np.float32

_HEADER_DTYPE = "f32"
_HEADER_ORDER = "row-major"


def as_f32(x) -> np.ndarray:
    """Coerce to a C-contiguous float32 array."""
    return np.ascontiguousarray(x, dtype=F32)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., k) @ (k, n) row projection, float64 accumulation, float32 result."""
    if a.ndim < 1 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise DimensionError(
            f"matmul shape mismatch: {tuple(a.shape)} x {tuple(b.shape)}"
        )
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(F32)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax in float64 with per-row max subtraction.

    Accepts -inf entries as masking sentinels; a row that is entirely -inf
    is degenerate and rejected.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if np.isnan(logits).any() or (logits == np.inf).any():
        raise DimensionError("softmax input must be finite (only -inf allowed)")
    m = logits.max(axis=-1, keepdims=True)
    if (m == -np.inf).any():
        raise DegenerateRowError("softmax row is entirely -inf")
    w = np.exp(logits - m)
    return w / w.sum(axis=-1, keepdims=True)


def _unit_rows(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    n = np.linalg.norm(x, axis=1, keepdims=True)
    return np.divide(x, n, out=np.zeros_like(x), where=n > 0)


def cosine_matrix(a, b) -> np.ndarray:
    """Float64 cosine similarity of every row of a (m, d) against every row
    of b (n, d), unclipped. Zero-norm rows get similarity 0 against all."""
    return _unit_rows(a) @ _unit_rows(b).T


def sigmoid(x: float) -> float:
    """Numerically stable logistic function."""
    x = float(x)
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def save_tensor(path, arr: np.ndarray) -> None:
    """Write a self-describing tensor file: JSON header line + LE f32 payload."""
    arr = as_f32(arr)
    header = json.dumps(
        {"shape": list(arr.shape), "dtype": _HEADER_DTYPE, "order": _HEADER_ORDER},
        separators=(",", ":"),
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.write(b"\n")
        fh.write(arr.astype("<f4", copy=False).tobytes(order="C"))


def load_tensor(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        header = json.loads(header_line.decode("utf-8"))
        if header.get("dtype") != _HEADER_DTYPE or header.get("order") != _HEADER_ORDER:
            raise DimensionError(f"unsupported tensor header in {os.fspath(path)}")
        shape = tuple(int(s) for s in header["shape"])
        payload = fh.read()
    arr = np.frombuffer(payload, dtype="<f4")
    expected = int(np.prod(shape)) if shape else 1
    if arr.size != expected:
        raise DimensionError(
            f"tensor payload size {arr.size} does not match shape {shape}"
        )
    return arr.reshape(shape).astype(F32)
