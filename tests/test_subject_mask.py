import math

import numpy as np
import pytest

from storyshots import subject_mask as sm


def exhaustive_otsu(scores):
    """Independent oracle: evaluate all 256 candidate bin edges directly."""
    scores = np.asarray(scores, dtype=np.float64)
    lo, hi = scores.min(), scores.max()
    edges = np.linspace(lo, hi, sm.OTSU_BINS + 1)
    best = (-1.0, None)
    for c in edges[1:]:
        lo_class = scores[scores <= c]
        hi_class = scores[scores > c]
        if lo_class.size == 0 or hi_class.size == 0:
            continue
        var = lo_class.size * hi_class.size * (lo_class.mean() - hi_class.mean()) ** 2
        if var > best[0]:
            best = (var, float(c))
    return best[1]


class TestNoiseSchedule:
    def test_geometric_shape_and_endpoints(self):
        alphas = sm.geometric_alphas(100, alpha_min=0.02)
        assert alphas.shape == (101,)
        assert alphas[0] == pytest.approx(1.0)
        assert alphas[100] == pytest.approx(0.02)

    def test_monotone_positive(self):
        alphas = sm.geometric_alphas(50)
        assert (np.diff(alphas) <= 0).all()
        assert (alphas > 0).all()


class TestEstimateX0:
    def test_clean_limit(self):
        alphas = sm.geometric_alphas(10)
        x = np.array([1.0, -2.0, 3.0], dtype=np.float32)
        out = sm.estimate_x0(x, np.zeros(3, dtype=np.float32), alphas[0])
        assert np.array_equal(out, x)

    def test_forward_compose_round_trip(self):
        rng = np.random.default_rng(0)
        alphas = sm.geometric_alphas(1000, alpha_min=0.02)
        x0 = rng.standard_normal(64).astype(np.float32)
        noise = rng.standard_normal(64).astype(np.float32)
        for t in (1, 100, 500, 900, 1000):
            a = alphas[t]
            x = (math.sqrt(a) * x0 + math.sqrt(1 - a) * noise).astype(np.float32)
            rec = sm.estimate_x0(x, noise, a)
            assert np.abs(rec - x0).max() < 1e-5

    def test_hand_arithmetic(self):
        out = sm.estimate_x0(
            np.array([1.0], dtype=np.float32), np.array([1.0], dtype=np.float32), 0.25
        )
        assert out[0] == pytest.approx((1 - math.sqrt(0.75)) / 0.5, abs=1e-4)

    def test_linearity(self):
        rng = np.random.default_rng(1)
        a = sm.geometric_alphas(100)[40]
        x1, x2, e1, e2 = (rng.standard_normal(16).astype(np.float32) for _ in range(4))
        combined = sm.estimate_x0(x1 + x2, e1 + e2, a)
        parts = sm.estimate_x0(x1, e1, a) + sm.estimate_x0(x2, e2, a)
        assert np.abs(combined - parts).max() < 1e-5


class TestSaliency:
    def test_zero_channel_gives_zero(self):
        x0 = np.zeros((8, 4), dtype=np.float32)
        x0[:, 1:] = 1.0  # energy elsewhere must not matter
        out = sm.saliency(x0)
        assert np.array_equal(out, np.zeros(8, dtype=np.float32))

    def test_one_hot_argmax(self):
        x0 = np.zeros((8, 4), dtype=np.float32)
        x0[5, 0] = 2.0
        out = sm.saliency(x0)
        assert np.argmax(out) == 5
        assert out[5] == pytest.approx(1.0)

    def test_range(self):
        rng = np.random.default_rng(2)
        out = sm.saliency(rng.standard_normal((32, 6)).astype(np.float32))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_batched_equals_stacked_frames(self):
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal((3, 4, 16, 5)).astype(np.float32)
        x0[1, 2] = 0.0  # all-zero frame
        x0[2, 0, 7, 1] = np.nan  # NaN in the scored channel
        out = sm.saliency(x0, channel=1)
        stacked = np.stack([[sm.saliency(x0[s, f], channel=1) for f in range(4)]
                            for s in range(3)])
        assert out.dtype == stacked.dtype == np.float32
        assert np.array_equal(out, stacked, equal_nan=True)
        assert np.array_equal(out[1, 2], np.zeros(16, dtype=np.float32))
        assert np.isnan(out[2, 0]).all()
        assert not np.isnan(np.delete(out.reshape(12, 16), 8, axis=0)).any()
        assert out[0, 0].max() == 1.0

    def test_custom_channel(self):
        x0 = np.zeros((4, 3), dtype=np.float32)
        x0[2, 1] = 1.0
        out = sm.saliency(x0, channel=1)
        assert np.argmax(out) == 2


class TestOtsu:
    def test_overflowed_variance_never_wins(self):
        # class sums past 1e308 overflow: inf - inf gives NaN variances, which
        # must lose to the finite-or-inf ones like in a strict `>` scan
        scores = np.array([1e308, 1e308, 1.5e308, 1.7e308, 0.0])
        with np.errstate(over="ignore", invalid="ignore"):
            thr, fallback = sm.otsu_threshold(scores)
        assert not fallback
        assert thr == np.linspace(0.0, 1.7e308, sm.OTSU_BINS + 1)[1]

    def test_perfect_bimodal(self):
        scores = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        thr, fallback = sm.otsu_threshold(scores)
        assert not fallback
        assert np.array_equal(scores > thr, scores == 1.0)

    @pytest.mark.parametrize("seed", range(50))
    def test_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(64)
        thr, fallback = sm.otsu_threshold(scores)
        assert not fallback
        assert thr == exhaustive_otsu(scores)

    def test_constant_fallback(self):
        scores = np.full(10, 0.7)
        thr, fallback = sm.otsu_threshold(scores)
        assert fallback
        assert thr == pytest.approx(0.7)
        assert not (scores > thr).any()

    @pytest.mark.parametrize("seed", range(20))
    def test_affine_invariance_of_mask(self, seed):
        rng = np.random.default_rng(100 + seed)
        scores = rng.random(64)
        thr, _ = sm.otsu_threshold(scores)
        scaled = 2.5 * scores + 0.75
        thr2, _ = sm.otsu_threshold(scaled)
        assert np.array_equal(scores > thr, scaled > thr2)


class TestSubjectMaskSet:
    def test_threshold_reproduces_mask(self):
        rng = np.random.default_rng(3)
        sal = rng.random((2, 3, 16)).astype(np.float32)
        ms = sm.SubjectMaskSet.from_saliency(sal)
        for s in range(2):
            for f in range(3):
                thr, _ = sm.otsu_threshold(sal[s, f])
                assert np.array_equal(ms.masks[s, f], sal[s, f] > thr)

    def test_nondegenerate_masks(self):
        rng = np.random.default_rng(4)
        sal = rng.random((2, 3, 16)).astype(np.float32)
        ms = sm.SubjectMaskSet.from_saliency(sal)
        assert not any(sm.otsu_threshold(frame)[1] for frame in sal.reshape(-1, 16))
        per_frame = ms.masks.sum(axis=2)
        assert (per_frame >= 1).all()
        assert (per_frame <= 15).all()

    def test_fallback_flagged(self):
        sal = np.full((1, 1, 8), 0.5, dtype=np.float32)
        ms = sm.SubjectMaskSet.from_saliency(sal)
        assert sm.otsu_threshold(sal[0, 0])[1]
        assert not ms.masks[0, 0].any()
