"""Dense float32 array substrate and the numeric kernels everything else uses.

Arrays are plain numpy ndarrays, float32, row-major (C order). Reductions
(softmax denominators, dot products, norms) accumulate in float64 and cast
back to float32 so results are reproducible bit-for-bit across runs.
"""

from __future__ import annotations

import hashlib
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


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis in float64 with per-row max subtraction,
    written to out (which may be logits itself) when given, as in numpy.

    Accepts -inf entries as masking sentinels; a row that is entirely -inf
    is degenerate and rejected. NaN or +inf anywhere in a row shows in its max.
    """
    logits = np.asarray(logits, dtype=np.float64)
    m = logits.max(axis=-1, keepdims=True)
    if np.isnan(m).any() or (m == np.inf).any():
        raise DimensionError("softmax input must be finite (only -inf allowed)")
    if (m == -np.inf).any():
        raise DegenerateRowError("softmax row is entirely -inf")
    w = np.subtract(logits, m, out=out)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return w


def _unit_rows(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    n = np.linalg.norm(x, axis=1, keepdims=True)
    return np.divide(x, n, out=np.zeros_like(x), where=n > 0)


def cosine_matrix(a, b) -> np.ndarray:
    """Float64 cosine similarity of every row of a (m, d) against every row
    of b (n, d), clipped to [-1, 1], so parallel rows score exactly 1 and
    argmax ties among them break to the lowest index. Zero-norm rows get
    similarity 0 against all."""
    sims = _unit_rows(a) @ _unit_rows(b).T
    return np.clip(sims, -1.0, 1.0, out=sims)


def sigmoid(x: float) -> float:
    """Numerically stable logistic function."""
    x = float(x)
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def write_atomic(path, data: bytes) -> None:
    """Write data to a temp file next to path, then rename it into place, so
    path never holds a truncated file; the temp file never outlives the call."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def save_tensor(path, arr: np.ndarray) -> str:
    """Write a self-describing tensor file atomically: JSON header line + LE
    f32 payload. Returns the sha256 hex digest of the bytes written."""
    arr = as_f32(arr)
    header = json.dumps(
        {"shape": list(arr.shape), "dtype": _HEADER_DTYPE, "order": _HEADER_ORDER},
        separators=(",", ":"),
    )
    data = header.encode("utf-8") + b"\n" + arr.astype("<f4", copy=False).tobytes()
    write_atomic(path, data)
    return hashlib.sha256(data).hexdigest()


def load_tensor(path) -> np.ndarray:
    """Read a save_tensor file; any header it would not write raises
    DimensionError."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
        shape = tuple(header["shape"])
        ok = header.get("dtype") == _HEADER_DTYPE and header.get("order") == _HEADER_ORDER
        ok = ok and all(type(n) is int and n >= 0 for n in shape)
    except (ValueError, KeyError, TypeError):  # decode and JSON errors are ValueErrors
        ok = False
    if not ok:
        raise DimensionError(f"unsupported tensor header in {os.fspath(path)}")
    arr = np.frombuffer(payload, dtype="<f4")
    expected = int(np.prod(shape)) if shape else 1
    if arr.size != expected:
        raise DimensionError(
            f"tensor payload size {arr.size} does not match shape {shape}"
        )
    return arr.reshape(shape).astype(F32)
