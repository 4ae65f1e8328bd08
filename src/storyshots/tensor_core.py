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

from .errors import DimensionError, NonFiniteError

F32 = np.float32

# numpy's exp returns exactly +0.0 for every input at or below this, but takes
# a slow path on any SIMD block that holds such an input; softmax keeps those
# lanes out of exp and writes the +0.0 itself.
EXP_ZERO = -746.0

_HEADER_DTYPE = "f32"
_HEADER_ORDER = "row-major"


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(..., k) @ (k, n) row projection, float64 accumulation, float32 result."""
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(F32)


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis in float64 with per-row max subtraction,
    written to out (which may be logits itself) when given, as in numpy.

    Accepts -inf entries as masking sentinels. Every row max must be finite:
    NaN or +inf anywhere in a row, or a row that is entirely -inf, raises
    NonFiniteError. Shifted logits at or below EXP_ZERO (-inf included) get
    weight +0.0 without passing through exp, as exp would give them; every
    other entry gets numpy's exp, so the result is bit-identical to plain exp.
    """
    logits = np.asarray(logits, dtype=np.float64)
    m = logits.max(axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        raise NonFiniteError("softmax needs a finite max in every row (-inf only as a mask)")
    w = np.subtract(logits, m, out=out)
    np.maximum(w, EXP_ZERO, out=w)  # finite, so the products below make no NaN
    live = w > EXP_ZERO
    w *= live  # dead lanes enter exp as -0.0, off its underflow path
    np.exp(w, out=w)
    w *= live
    w /= w.sum(axis=-1, keepdims=True)
    return w


def unit_rows(x) -> np.ndarray:
    """Float64 copy of x (..., d) with each row scaled to unit norm; zero-norm
    rows stay zero, so they get similarity 0 against all."""
    x = np.asarray(x, dtype=np.float64)
    n = np.linalg.norm(x, axis=-1, keepdims=True)
    return np.divide(x, n, out=np.zeros_like(x), where=n > 0)


def unit_cosine(ua, ub) -> np.ndarray:
    """Cosine similarity of every row of ua (m, d) against every row of ub
    (n, d), both from unit_rows, clipped to [-1, 1], so parallel rows score
    exactly 1 and argmax ties among them break to the lowest index."""
    sims = ua @ ub.T
    return np.clip(sims, -1.0, 1.0, out=sims)


def cosine_matrix(a, b) -> np.ndarray:
    """Float64 cosine similarity of every row of a (m, d) against every row
    of b (n, d), by unit_rows and unit_cosine."""
    return unit_cosine(unit_rows(a), unit_rows(b))


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
