"""Dense float32 array substrate and the numeric kernels everything else uses.

Arrays are plain numpy ndarrays, float32, row-major (C order). Reductions
(dot products, norms) accumulate in float64 and cast back to float32 so
results are reproducible bit-for-bit across runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from .errors import DimensionError

F32 = np.float32

_HEADER_DTYPE = "f32"
_HEADER_ORDER = "row-major"


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., k) @ (k, n) row projection, float64 accumulation, float32 result.
    Stacked (3-D or more) input is cast one leading index at a time, 1-D and
    2-D input as one block: the stacked matmul makes one gemm per matrix
    either way, so only the float64 copy shrinks."""
    b = b.astype(np.float64)
    out = np.empty((*a.shape[:-1], b.shape[-1]), F32)
    for i in np.ndindex(a.shape[:-2][:1]):
        out[i] = a[i].astype(np.float64) @ b
    return out


def unit_rows(x) -> np.ndarray:
    """Float64 copy of x (..., d) with each row scaled to unit norm; zero-norm
    rows stay zero, so they get similarity 0 against all."""
    x = np.asarray(x, dtype=np.float64)
    n = np.linalg.norm(x, axis=-1, keepdims=True)
    return np.divide(x, n, out=np.zeros_like(x), where=n > 0)


def best_match(units: np.ndarray, key_units: np.ndarray):
    """Argmax-cosine match of every row of units (m, d) in each of the g
    groups of key_units (g, n, d), both from unit_rows, by one matmul against
    all g·n rows. Returns the index in each group of the first maximum of the
    cosine clipped to [-1, 1], and that cosine, each as an (m, g) array;
    clipped, parallel rows of any scale score exactly 1, so ties among them
    break to the lowest index. Only the winners are clipped: a row past 1
    takes its first key at or past 1, a row at or below -1 ties at index 0."""
    g, n, d = key_units.shape
    sims = (units @ key_units.reshape(g * n, d).T).reshape(-1, g, n)
    best = np.argmax(sims, axis=-1)
    score = np.take_along_axis(sims, best[..., None], axis=-1)[..., 0]
    high = score > 1.0
    best[high] = np.argmax(sims[high] >= 1.0, axis=-1)
    best[score <= -1.0] = 0
    return best, np.clip(score, -1.0, 1.0)


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
    arr = np.ascontiguousarray(arr, dtype=F32)
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
    # exact integer size: a cut payload or an element count past int64 fails here
    if len(payload) != 4 * math.prod(shape):
        raise DimensionError(f"tensor payload of {len(payload)} bytes does not match shape {shape}")
    return np.frombuffer(payload, dtype="<f4").reshape(shape).astype(F32)
