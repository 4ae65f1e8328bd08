import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from storyshots import tensor_core as tc
from storyshots.errors import DimensionError, NonFiniteError


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for p in range(k):
                acc += float(a[i, p]) * float(b[p, j])
            out[i, j] = acc
    return out


class TestMatmul:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        assert np.array_equal(tc.matmul(np.eye(2, dtype=np.float32), b), b)

    def test_hand_arithmetic(self):
        out = tc.matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(11.0)

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 5)).astype(np.float32)
        b = rng.standard_normal((5, 3)).astype(np.float32)
        assert np.abs(tc.matmul(a, b) - naive_matmul(a, b)).max() < 1e-6

    def test_associativity(self):
        rng = np.random.default_rng(1)
        a, b, c = (rng.standard_normal((4, 4)).astype(np.float32) for _ in range(3))
        left = tc.matmul(tc.matmul(a, b), c)
        right = tc.matmul(a, tc.matmul(b, c))
        assert np.abs(left - right).max() < 1e-5

    def test_leading_axes_project_each_row(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((2, 3, 5)).astype(np.float32)
        b = rng.standard_normal((5, 4)).astype(np.float32)
        out = tc.matmul(a, b)
        assert out.shape == (2, 3, 4) and out.dtype == np.float32
        for i in range(2):
            assert np.abs(out[i] - naive_matmul(a[i], b)).max() < 1e-6


class TestSoftmaxRows:
    def test_symmetry(self):
        out = tc.softmax(np.array([[0.0, 0.0]]))
        assert np.allclose(out, [[0.5, 0.5]])

    def test_mask_sentinel(self):
        out = tc.softmax(np.array([[-np.inf, 0.0]]))
        assert out[0, 0] == 0.0
        assert out[0, 1] == pytest.approx(1.0)

    def test_row_sums(self):
        rng = np.random.default_rng(2)
        out = tc.softmax(rng.standard_normal((4, 6)).astype(np.float32) * 5)
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-6

    def test_all_minus_inf_row(self):
        with pytest.raises(NonFiniteError):
            tc.softmax(np.full((1, 3), -np.inf))

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 5))
        shifted = x + np.array([[10.0], [-7.0], [3.0]])
        assert np.abs(tc.softmax(x) - tc.softmax(shifted)).max() < 1e-6

    def test_rejects_nan_and_plus_inf(self):
        with pytest.raises(NonFiniteError):
            tc.softmax(np.array([[np.nan, 0.0]]))
        with pytest.raises(NonFiniteError):
            tc.softmax(np.array([[np.inf, 0.0]]))

    def test_out_in_place_equals_fresh_result(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((2, 3, 5))
        x[0, 1, :2] = -np.inf
        expected = tc.softmax(x)
        out = tc.softmax(x, out=x)
        assert out is x
        assert np.array_equal(x, expected)


def reference_softmax(logits, out=None):
    """tc.softmax before its exact-zero lanes: every shifted logit through
    np.exp. Its outputs are the reference bytes."""
    logits = np.asarray(logits, dtype=np.float64)
    m = logits.max(axis=-1, keepdims=True)
    w = np.subtract(logits, m, out=out)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return w


def same_bits(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# shifted-logit values by band: ordinary, subnormal exp results, exp == +0.0
# (EXP_ZERO and below, SDSA's masked logits, -inf) and the edges between them
_BANDS = st.one_of(
    st.floats(-60.0, 0.0),
    st.floats(-745.2, -708.3),
    st.floats(-1e6, tc.EXP_ZERO),
    st.sampled_from([
        -708.4, -745.13, -745.14, np.nextafter(tc.EXP_ZERO, 0.0), tc.EXP_ZERO,
        np.nextafter(tc.EXP_ZERO, -np.inf), -1.3e5, -1e30, -np.inf,
    ]),
)


@st.composite
def logit_rows(draw):
    """(rows, cols) float64 logits whose row max is finite: each row holds a 0
    at a drawn column, the other entries from _BANDS (or -inf only, a row
    with one finite entry), then a drawn per-row offset."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 70))
    x = draw(arrays(np.float64, (rows, cols), elements=_BANDS))
    for r in range(rows):
        if draw(st.booleans()) and draw(st.booleans()):
            x[r] = -np.inf
        x[r, draw(st.integers(0, cols - 1))] = 0.0
    offsets = draw(st.lists(st.sampled_from([0.0, 3.5, -17.25, 1e4, -1e30]),
                            min_size=rows, max_size=rows))
    return x + np.array(offsets)[:, None]


class TestSoftmaxExactZero:
    @pytest.mark.parametrize("size", [1, 7, 8, 9, 31, 64, 1000])
    def test_exp_is_plus_zero_at_and_below_exp_zero(self, size):
        # the rule softmax relies on: numpy's exp gives +0.0 for x <= EXP_ZERO,
        # at every SIMD tail length and alignment
        rng = np.random.default_rng(size)
        x = np.concatenate([
            -np.logspace(math.log10(-tc.EXP_ZERO), 308, size),
            [tc.EXP_ZERO, np.nextafter(tc.EXP_ZERO, -np.inf), -1e30, -np.inf,
             -np.finfo(np.float64).max],
            tc.EXP_ZERO - rng.random(size) * 1e3,
        ])
        for start in range(4):
            e = np.exp(x[start:])
            assert (e == 0.0).all() and not np.signbit(e).any()

    @given(logit_rows())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_bit_identical_to_plain_exp(self, x):
        assert same_bits(tc.softmax(x), reference_softmax(x))

    @given(logit_rows())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_out_aliasing_bit_identical(self, x):
        expected = reference_softmax(x)
        got = tc.softmax(x, out=x)
        assert got is x
        assert same_bits(x, expected)

    def test_bands_and_lone_finite_rows(self):
        x = np.array([
            [0.0, -708.4, -745.0, -745.14, tc.EXP_ZERO, -1e30, -np.inf, -1.0],
            [-np.inf, -np.inf, 5.0, -np.inf, -np.inf, -np.inf, -np.inf, -np.inf],
            [-1e30, -1e30, -1e30, -1e30, -1e30, -1e30, -1e30, -1e30],
        ])
        got = tc.softmax(x)
        assert same_bits(got, reference_softmax(x))
        assert got[0, 2] > 0.0 and got[0, 3:7].tolist() == [0.0] * 4
        assert got[1].tolist() == [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert not np.signbit(got).any()

    def test_batched_pipeline_scale_logits(self):
        # attention-shaped logits spread as wide as the pipeline's (shifted
        # entries down to about -1.3e5), about 30% of them masked
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 16, 192)) * rng.choice([1.0, 50.0, 3e4], (3, 16, 1))
        x[rng.random(x.shape) < 0.3] = -1e30
        assert same_bits(tc.softmax(x), reference_softmax(x))


def cosine(a, b) -> float:
    """One pair through the cosine-matrix kernel."""
    return float(tc.cosine_matrix(np.atleast_2d(a), np.atleast_2d(b))[0, 0])


class TestCosineSim:
    def test_self_similarity(self):
        a = np.array([1.0, 2.0, -3.0])
        assert cosine(a, a) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_analytic(self):
        assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1 / math.sqrt(2), abs=1e-5)

    def test_parallel_rows_of_different_scale_score_exactly_one(self):
        x = np.float32([0.03895462676882744, 1.1896648406982422])
        sims = tc.cosine_matrix(x[None], np.stack([x, x * np.float32(5), -x]))
        assert sims.tolist() == [[1.0, 1.0, -1.0]]

    def test_both_zero(self):
        # zero rows are similar to nothing, themselves included
        assert cosine([0.0, 0.0], [0.0, 0.0]) == 0.0
        assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance(self, alpha, beta):
        a = np.array([0.3, -1.2, 2.0])
        b = np.array([1.5, 0.4, -0.7])
        assert cosine(alpha * a, beta * b) == pytest.approx(cosine(a, b), abs=1e-6)

    def test_matrix_against_pairwise(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((5, 4)).astype(np.float32)
        b = rng.standard_normal((3, 4)).astype(np.float32)
        b[1] = 0.0
        sims = tc.cosine_matrix(a, b)
        assert sims.shape == (5, 3) and sims.dtype == np.float64
        for i in range(5):
            for j in range(3):
                x, y = a[i].astype(np.float64), b[j].astype(np.float64)
                nx, ny = math.sqrt(float(x @ x)), math.sqrt(float(y @ y))
                expected = 0.0 if nx == 0 or ny == 0 else float(x @ y) / (nx * ny)
                assert sims[i, j] == pytest.approx(expected, abs=1e-12)



class TestSigmoid:
    def test_symmetry_point(self):
        assert tc.sigmoid(0.0) == 0.5

    def test_direct_evaluation(self):
        assert tc.sigmoid(1.0) == pytest.approx(0.731059, abs=1e-6)

    def test_complement_identity(self):
        for x in np.linspace(-20, 20, 17):
            assert tc.sigmoid(x) + tc.sigmoid(-x) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_and_bounded(self):
        xs = np.linspace(-30, 30, 101)
        ys = [tc.sigmoid(x) for x in xs]
        assert all(0.0 < y < 1.0 for y in ys)
        assert all(b > a for a, b in zip(ys, ys[1:]))


class TestDumpLoad:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        arr = rng.standard_normal((3, 4, 5)).astype(np.float32)
        path = tmp_path / "t.tensor"
        tc.save_tensor(path, arr)
        back = tc.load_tensor(path)
        assert back.dtype == np.float32
        assert arr.shape == back.shape
        assert arr.tobytes() == back.tobytes()

    def test_header_is_json_line(self, tmp_path):
        path = tmp_path / "t.tensor"
        tc.save_tensor(path, np.zeros((2, 2), dtype=np.float32))
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header == {"shape": [2, 2], "dtype": "f32", "order": "row-major"}

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        real_open = open

        class HalfWriter:
            """Writes the first half of the data, then fails."""

            def __init__(self, *args, **kwargs):
                self.fh = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                raise OSError("disk full")

        path = tmp_path / "t.tensor"
        monkeypatch.setattr(tc, "open", HalfWriter, raising=False)
        with pytest.raises(OSError, match="disk full"):
            tc.save_tensor(path, np.ones((4, 4), dtype=np.float32))
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        tc.save_tensor(path, np.zeros((2,), dtype=np.float32))
        old = path.read_bytes()
        monkeypatch.setattr(tc, "open", HalfWriter, raising=False)
        with pytest.raises(OSError, match="disk full"):
            tc.save_tensor(path, np.ones((4, 4), dtype=np.float32))
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == old

    @pytest.mark.parametrize(
        "header",
        [
            b"\xff\xfe",  # not UTF-8
            b"{shape",  # not JSON
            b"[4]",  # JSON, not an object
            b'{"dtype":"f32","order":"row-major"}',  # no shape
            b'{"shape":"ab","dtype":"f32","order":"row-major"}',  # shape not integers
            b'{"shape":[4],"dtype":"f64","order":"row-major"}',  # another dtype
            b'{"shape":[1e999],"dtype":"f32","order":"row-major"}',  # infinite dimension
            b'{"shape":[2.5,1.6],"dtype":"f32","order":"row-major"}',  # fractional dimensions
            b'{"shape":[-2,-2],"dtype":"f32","order":"row-major"}',  # negative dimensions
        ],
        ids=["utf8", "json", "list", "no-shape", "shape-text", "dtype", "inf", "fraction", "negative"],
    )
    def test_malformed_header_rejected(self, tmp_path, header):
        path = tmp_path / "bad.tensor"
        path.write_bytes(header + b"\n" + b"\x00" * 16)
        with pytest.raises(DimensionError, match="unsupported tensor header"):
            tc.load_tensor(path)

    def test_payload_size_mismatch(self, tmp_path):
        path = tmp_path / "bad.tensor"
        # too short; cut mid-float; an element count that wraps to 0 in int64
        for shape, payload_bytes in (([4], 8), ([4], 15), ([2**32, 2**32], 0)):
            header = json.dumps({"shape": shape, "dtype": "f32", "order": "row-major"})
            path.write_bytes(header.encode() + b"\n" + b"\x00" * payload_bytes)
            with pytest.raises(DimensionError, match="does not match shape"):
                tc.load_tensor(path)
