import numpy as np
import pytest

from storyshots import pipeline, query_control as qc, tensor_core as tc


def exhaustive_match(query, keyframe):
    """O(P^2) cosine argmax with lowest-index tie breaking."""
    out = []
    for qv in query:
        best = (-2.0, None)
        for idx, kv in enumerate(keyframe):
            qn = np.linalg.norm(qv.astype(np.float64))
            kn = np.linalg.norm(kv.astype(np.float64))
            sim = 0.0 if qn == 0 or kn == 0 else float(qv.astype(np.float64) @ kv.astype(np.float64)) / (qn * kn)
            if sim > best[0]:
                best = (sim, idx)
        out.append(best[1])
    return np.array(out)


def oracle_bracket(frames, spacing, frame):
    """Nearest keyframes (f_A, f_B) with f_A <= frame <= f_B, f_A < f_B, by
    search over the keyframe list (every spacing-th frame below the last
    frame, then the last frame); the final frame uses the preceding one."""
    kfs = list(range(0, max(frames - 1, 1), spacing))
    if kfs[-1] != frames - 1:
        kfs.append(frames - 1)
    if frame == kfs[-1]:
        return kfs[-2], kfs[-1]
    return max(k for k in kfs if k <= frame), min(k for k in kfs if k > frame)


def brackets(frames, spacing):
    """keyframe_brackets as a list of (f_a, f_b) per frame."""
    return list(zip(*(a.tolist() for a in qc.keyframe_brackets(frames, spacing))))


def oracle_flow(q_c, q_v, spacing, frame, w):
    """q_flow's blend with the exhaustive matches as its match field."""
    f_a, f_b = oracle_bracket(len(q_v), spacing, frame)
    ma = exhaustive_match(q_v[frame], q_v[f_a])
    mb = exhaustive_match(q_v[frame], q_v[f_b])
    return (w * q_c[f_a][ma].astype(np.float64) + (1 - w) * q_c[f_b][mb].astype(np.float64)).astype(np.float32)


def flow_frame(q_c, q_v, spacing, frame, weight_mode="sigmoid"):
    """One shot's (F, P, d) queries through match_field + q_flow; returns the
    blend at `frame` and the patches the field flags as zero there."""
    fld = qc.match_field(q_v[None], spacing)
    out = qc.q_flow(q_c[None], fld, weight_mode)
    return out[0, frame], np.flatnonzero(fld.zero[0, frame])


def per_frame_flow(q_c, q_v, spacing, frame, weight_mode):
    """Reference for one (F, P, d) shot and one frame: both matchings and the
    blend computed for that frame alone."""
    f_a, f_b = oracle_bracket(len(q_v), spacing, frame)
    ratio = (f_b - frame) / (f_b - f_a)
    w = tc.sigmoid(ratio) if weight_mode == "sigmoid" else ratio
    ma = np.argmax(tc.cosine_matrix(q_v[frame], q_v[f_a]), axis=1)
    mb = np.argmax(tc.cosine_matrix(q_v[frame], q_v[f_b]), axis=1)
    blended = (w * q_c[f_a][ma].astype(np.float64) + (1.0 - w) * q_c[f_b][mb].astype(np.float64)).astype(np.float32)
    zero = np.linalg.norm(q_v[frame].astype(np.float64), axis=1) == 0.0
    return np.where(zero[:, None], q_c[frame], blended), ma, mb, zero


class TestFeatureCache:
    def test_put_get_copy(self):
        cache = qc.FeatureCache()
        q = np.ones((1, 1, 2, 2), dtype=np.float32)
        cache.put(100, 0, q)
        q[:] = 5.0
        assert (cache.get(100, 0) == 1.0).all()

    def test_miss(self):
        with pytest.raises(KeyError):
            qc.FeatureCache().get(100, 0)


class TestKeyframeIndex:
    """keyframe_brackets against the keyframe-list rule (oracle_bracket)."""

    def test_build_includes_endpoints(self):
        f_a, f_b = qc.keyframe_brackets(8, 4)
        assert sorted({*f_a.tolist(), *f_b.tolist()}) == [0, 4, 7]

    def test_build_exact_multiple(self):
        f_a, f_b = qc.keyframe_brackets(9, 4)
        assert sorted({*f_a.tolist(), *f_b.tolist()}) == [0, 4, 8]

    def test_bracket_interior(self):
        assert brackets(8, 4)[5] == (4, 7)

    def test_bracket_on_keyframe_uses_it_as_lower(self):
        assert brackets(8, 4)[4] == (4, 7)
        assert brackets(8, 4)[0] == (0, 4)

    def test_bracket_last_frame(self):
        assert brackets(8, 4)[7] == (4, 7)

    def test_bracket_needs_two_keyframes(self):
        # the config rejects query injection below two frames; from two frames
        # on, every spacing gives the first and last frame as keyframes
        for frames in range(2, 10):
            for spacing in range(1, 12):
                f_a, f_b = qc.keyframe_brackets(frames, spacing)
                assert f_a[0] == 0 and f_b[-1] == frames - 1

    def test_matches_keyframe_list_rule(self):
        for frames in range(2, 40):
            for spacing in range(1, 45):
                expected = [oracle_bracket(frames, spacing, f) for f in range(frames)]
                assert brackets(frames, spacing) == expected, (frames, spacing)


class TestQPreserve:
    """select_q's preservation phase, t >= t_pres, which covers every layer,
    not only the injection layers."""

    def select(self, cache, t):
        spec = pipeline.ToyModelSpec(layers=3, patches_per_side=2, channels=4, frames=4)
        cfg = pipeline.StoryboardConfig(t_pres=750, injection_layers=(0,), model=spec, keyframe_spacing=2)
        live = np.zeros((1, 4, 4, 4), dtype=np.float32)
        return qc.select_q(t, 2, live, cache, cfg, np.random.default_rng(0))

    def test_returns_cached_verbatim(self):
        cache = qc.FeatureCache()
        cached = np.arange(64, dtype=np.float32).reshape(1, 4, 4, 4)
        cache.put(800, 2, cached)
        out, rec = self.select(cache, 800)
        assert rec.role == "vanilla"
        assert np.array_equal(out, cached)

    def test_cache_miss_hard_fails(self):
        with pytest.raises(KeyError):
            self.select(qc.FeatureCache(), 800)


class TestQFlow:
    def test_keyframe_self_match_weight(self):
        rng = np.random.default_rng(0)
        F, P, d = 8, 6, 4
        q_v = rng.standard_normal((F, P, d)).astype(np.float32)
        q_c = rng.standard_normal((F, P, d)).astype(np.float32)
        out, skipped = flow_frame(q_c, q_v, 4, frame=4)
        assert skipped.size == 0
        w = tc.sigmoid(1.0)
        match_b = exhaustive_match(q_v[4], q_v[7])
        expected = (w * q_c[4].astype(np.float64) + (1 - w) * q_c[7][match_b].astype(np.float64)).astype(np.float32)
        assert np.abs(out - expected).max() < 1e-6

    def test_constant_live_queries_fixed_point(self):
        rng = np.random.default_rng(1)
        F, P, d = 6, 5, 3
        q_v = rng.standard_normal((F, P, d)).astype(np.float32)
        q_c = np.full((F, P, d), 1.5, dtype=np.float32)
        out, _ = flow_frame(q_c, q_v, 2, frame=3)
        assert np.abs(out - 1.5).max() < 1e-6

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        F, P, d = 6, 16, 8
        q_v = rng.standard_normal((F, P, d)).astype(np.float32)
        q_c = rng.standard_normal((F, P, d)).astype(np.float32)
        spacing = 2
        f = 3
        f_a, f_b = oracle_bracket(F, spacing, f)
        out, _ = flow_frame(q_c, q_v, spacing, frame=f)
        expected = oracle_flow(q_c, q_v, spacing, f, tc.sigmoid((f_b - f) / (f_b - f_a)))
        assert np.array_equal(out, expected)
        fld = qc.match_field(q_v[None], spacing)
        for g in range(F):
            g_a, g_b = oracle_bracket(F, spacing, g)
            assert (fld.f_a[g], fld.f_b[g]) == (g_a, g_b)
            assert np.array_equal(fld.match_a[0, g], exhaustive_match(q_v[g], q_v[g_a]))
            assert np.array_equal(fld.match_b[0, g], exhaustive_match(q_v[g], q_v[g_b]))

    def test_tie_breaks_to_lowest_index(self):
        q = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], dtype=np.float32)
        # duplicate candidates: scaled copies have identical cosine
        keyframe = np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 0.0]], dtype=np.float32)
        q_v = np.stack([keyframe, q, keyframe])
        q_c = np.random.default_rng(5).standard_normal((3, 3, 2)).astype(np.float32)
        out, _ = flow_frame(q_c, q_v, 2, frame=1, weight_mode="linear")
        expected = (0.5 * q_c[0, 1].astype(np.float64) + 0.5 * q_c[2, 1].astype(np.float64)).astype(np.float32)
        assert np.array_equal(out[0], expected)

    def test_parallel_candidates_of_different_scale_tie(self):
        # unclipped, x against 5x reads 1.0000000000000002 and x against x 1.0
        x = np.float32([0.03895462676882744, 1.1896648406982422])
        keyframe = np.stack([x, x * np.float32(5)])
        q_v = np.stack([keyframe, np.stack([x, -x]), keyframe])[None]
        fld = qc.match_field(q_v, 2)
        assert fld.match_a[0, 1, 0] == 0 and fld.match_b[0, 1, 0] == 0
        assert fld.match_a[0, 1, 1] == 0 and fld.match_b[0, 1, 1] == 0

    def test_zero_query_keeps_live(self):
        rng = np.random.default_rng(2)
        F, P, d = 4, 4, 3
        q_v = rng.standard_normal((F, P, d)).astype(np.float32)
        q_v[1, 2] = 0.0
        q_c = rng.standard_normal((F, P, d)).astype(np.float32)
        out, skipped = flow_frame(q_c, q_v, 3, frame=1)
        assert list(skipped) == [2]
        assert np.array_equal(out[2], q_c[1, 2])

    def test_interior_weight_range(self):
        for f in range(12):
            f_a, f_b = oracle_bracket(12, 4, f)
            w = tc.sigmoid((f_b - f) / (f_b - f_a))
            assert 0.5 <= w <= 0.731059 + 1e-6

    def test_convex_hull_norm_bound(self):
        rng = np.random.default_rng(3)
        F, P, d = 6, 8, 4
        q_v = rng.standard_normal((F, P, d)).astype(np.float32)
        q_c = rng.standard_normal((F, P, d)).astype(np.float32)
        spacing = 2
        f = 1
        f_a, f_b = oracle_bracket(F, spacing, f)
        ma = exhaustive_match(q_v[f], q_v[f_a])
        mb = exhaustive_match(q_v[f], q_v[f_b])
        out, _ = flow_frame(q_c, q_v, spacing, frame=f)
        for p in range(P):
            bound = max(np.linalg.norm(q_c[f_a, ma[p]]), np.linalg.norm(q_c[f_b, mb[p]]))
            assert np.linalg.norm(out[p]) <= bound + 1e-6

    def test_linear_weight_mode(self):
        rng = np.random.default_rng(4)
        F, P, d = 5, 4, 3
        q_v = rng.standard_normal((F, P, d)).astype(np.float32)
        q_c = rng.standard_normal((F, P, d)).astype(np.float32)
        spacing = 4
        out, _ = flow_frame(q_c, q_v, spacing, frame=2, weight_mode="linear")
        assert np.abs(out - oracle_flow(q_c, q_v, spacing, 2, 2 / 4)).max() < 1e-6

    @pytest.mark.parametrize("weight_mode", ["sigmoid", "linear"])
    def test_batched_equals_stacked_per_frame(self, weight_mode):
        rng = np.random.default_rng(6)
        S, F, P, d = 3, 7, 20, 5
        q_v = rng.standard_normal((S, F, P, d)).astype(np.float32)
        q_v[1, 3, 4] = 0.0  # zero query: skips matching
        q_v[2, 4, 7] = 0.0  # zero query on a keyframe: similarity 0 against it
        q_v[:, :, -1] = 2.0 * q_v[:, :, 0]  # tied candidates in every keyframe
        q_c = rng.standard_normal((S, F, P, d)).astype(np.float32)
        spacing = 3
        fld = qc.match_field(q_v, spacing)
        assert fld.match_a.dtype == np.uint8 and fld.match_b.dtype == np.uint8
        got = qc.q_flow(q_c, fld, weight_mode)
        for s in range(S):
            for f in range(F):
                out, ma, mb, zero = per_frame_flow(q_c[s], q_v[s], spacing, f, weight_mode)
                assert got[s, f].tobytes() == out.tobytes()
                assert np.array_equal(fld.match_a[s, f], ma)
                assert np.array_equal(fld.match_b[s, f], mb)
                assert np.array_equal(fld.zero[s, f], zero)
        assert fld.zero[1, 3, 4] and np.array_equal(got[1, 3, 4], q_c[1, 3, 4])


class TestFlowFieldMemo:
    def make_cache(self, frames=8):
        rng = np.random.default_rng(8)
        cache = qc.FeatureCache()
        cache.put(500, 1, rng.standard_normal((2, frames, 6, 4)).astype(np.float32))
        return cache, rng

    def test_field_is_memoised(self):
        cache, _ = self.make_cache()
        spacing = 4
        fld = cache.flow_field(500, 1, spacing)
        assert cache.flow_field(500, 1, spacing) is fld
        with pytest.raises(KeyError):
            cache.flow_field(400, 1, spacing)

    def test_put_keeps_other_fields(self):
        cache, rng = self.make_cache()
        cache.put(500, 2, rng.standard_normal((2, 8, 6, 4)).astype(np.float32))
        spacing = 4
        kept = cache.flow_field(500, 2, spacing)
        cache.put(500, 1, rng.standard_normal((2, 8, 6, 4)).astype(np.float32))
        assert cache.flow_field(500, 2, spacing) is kept

    def test_other_keyframe_spacing_gets_fresh_field(self):
        cache, _ = self.make_cache()
        cache.flow_field(500, 1, 4)
        fld = cache.flow_field(500, 1, 2)
        assert list(fld.f_a) == [oracle_bracket(8, 2, f)[0] for f in range(8)]
        assert np.array_equal(fld.match_b, qc.match_field(cache.get(500, 1), 2).match_b)
        assert set(cache.flow_fields) == {(500, 1, 4), (500, 1, 2)}


class TestQDropout:
    def test_rate_zero_passthrough(self):
        rng = np.random.default_rng(0)
        inj = rng.standard_normal((4, 3)).astype(np.float32)
        live = rng.standard_normal((4, 3)).astype(np.float32)
        out, kept = qc.q_dropout(inj, live, 0.0, np.random.default_rng(1))
        assert out is inj and kept == 0.0

    def test_rate_one_passthrough(self):
        rng = np.random.default_rng(0)
        inj = rng.standard_normal((4, 3)).astype(np.float32)
        live = rng.standard_normal((4, 3)).astype(np.float32)
        out, kept = qc.q_dropout(inj, live, 1.0, np.random.default_rng(1))
        assert out is live and kept == 1.0

    def test_rate_point_four_fraction_and_determinism(self):
        inj = np.zeros((1000, 2), dtype=np.float32)
        live = np.ones((1000, 2), dtype=np.float32)
        out1, kept1 = qc.q_dropout(inj, live, 0.4, np.random.default_rng(42))
        out2, kept2 = qc.q_dropout(inj, live, 0.4, np.random.default_rng(42))
        assert 0.37 <= kept1 <= 0.43
        assert kept1 == kept2
        assert np.array_equal(out1, out2)


class TestSelectQ:
    def make_setup(self, t_pres=750, injection_layers=None):
        cfg = pipeline.StoryboardConfig(
            t_pres=t_pres,
            injection_layers=injection_layers,
            model=pipeline.ToyModelSpec(layers=2, patches_per_side=2, channels=4, frames=4),
            keyframe_spacing=2,
        )
        rng = np.random.default_rng(0)
        q = rng.standard_normal((1, 4, 4, 4)).astype(np.float32)
        cache = qc.FeatureCache()
        for t in (300, 749, 750):
            for layer in (0, 1):
                cache.put(t, layer, rng.standard_normal((1, 4, 4, 4)).astype(np.float32))
        return cfg, q, cache

    def test_boundary_is_preservation(self):
        cfg, q, cache = self.make_setup()
        out, rec = qc.select_q(750, 0, q, cache, cfg, np.random.default_rng(0))
        assert rec.role == "vanilla"
        assert np.array_equal(out, cache.get(750, 0))

    def test_below_boundary_is_flow(self):
        cfg, q, cache = self.make_setup()
        _, rec = qc.select_q(749, 0, q, cache, cfg, np.random.default_rng(0))
        assert rec.role == "flow"

    def test_non_injection_layer_passes_through(self):
        cfg, q, cache = self.make_setup(injection_layers=(0,))
        out, rec = qc.select_q(300, 1, q, cache, cfg, np.random.default_rng(0))
        assert rec.role == "consistent"
        assert out is q


class TestCacheVanilla:
    def test_counts_shapes_and_reproducibility(self):
        cfg = pipeline.StoryboardConfig(
            sampler_steps=5,
            model=pipeline.ToyModelSpec(layers=3, patches_per_side=2, channels=4, frames=2),
            seed=11,
        )
        cache, cache2 = (
            next(pipeline.run_passes(cfg, ["a cat, oil"], pipeline.RunMode.CONSISTENT)).cache
            for _ in range(2)
        )
        assert len(cache.entries) == 5 * 3
        for (t, layer), entry in cache.entries.items():
            assert entry.shape == (1, 2, 4, 4)
        for key in cache.entries:
            assert np.array_equal(cache.entries[key], cache2.entries[key])

