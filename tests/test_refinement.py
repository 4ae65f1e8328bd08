import numpy as np
import pytest

from storyshots import refinement as rf
from storyshots import tensor_core as tc


def exhaustive_correspondence(target, anchor):
    """Independent argmax-cosine search over all (frame, patch) candidates."""
    frames, patches, _ = anchor.shape
    matches = []
    for tv in target:
        best = (-2.0, None)
        for f in range(frames):
            for p in range(patches):
                av = anchor[f, p]
                tn = np.linalg.norm(tv.astype(np.float64))
                an = np.linalg.norm(av.astype(np.float64))
                sim = 0.0 if tn == 0 or an == 0 else float(
                    np.clip(tv.astype(np.float64) @ av.astype(np.float64) / (tn * an), -1, 1)
                )
                if sim > best[0]:
                    best = (sim, (f, p))
        matches.append(best[1])
    return matches


def reference_correspondence(target, anchor_units):
    """(match_frame, match_patch, score) of build_correspondence as it was
    computed before tc.best_match: one clipped cosine matrix of the target's
    unit rows against the flattened anchor units, and an argmax per row."""
    frames, patches, dim = anchor_units.shape
    sims = tc.unit_rows(target) @ anchor_units.reshape(frames * patches, dim).T
    sims = np.clip(sims, -1.0, 1.0, out=sims)
    linear = np.argmax(sims, axis=1)
    return linear // patches, linear % patches, sims[np.arange(len(sims)), linear]


def tie_heavy(rng, shape) -> np.ndarray:
    """Integer-valued float32 features (..., P, d), P a multiple of 4: in each
    group of four patches one is zero, one repeats the first and one is the
    first scaled by 3, so argmax ties are the rule."""
    x = rng.integers(-2, 3, shape).astype(np.float32)
    x[..., 1::4, :] = 0.0
    x[..., 2::4, :] = 3.0 * x[..., 0::4, :]
    x[..., 3::4, :] = x[..., 0::4, :]
    return x


def frames_patches(corr, patches) -> list:
    """The (frame, patch) of each entry of corr's flat match index."""
    return [divmod(m, patches) for m in corr.match.tolist()]


def assert_equals_reference(target, anchor):
    corr = rf.build_correspondence(target, tc.unit_rows(anchor))
    frame, patch, score = reference_correspondence(target, tc.unit_rows(anchor))
    assert frames_patches(corr, anchor.shape[1]) == list(zip(frame.tolist(), patch.tolist()))
    assert corr.score.tobytes() == score.tobytes()
    assert corr.matched.tolist() == target.any(axis=1).tolist()


class TestCorrespondenceReference:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_reference_on_ties(self, seed, d):
        rng = np.random.default_rng(seed)
        anchor = tie_heavy(rng, (3, 8, d))
        target = tie_heavy(rng, (8, d))
        target[4:] = anchor[1, :4]  # exact copies of anchor patches
        assert_equals_reference(target, anchor)

    # (P, d) targets against the (2F, P, d) anchor set of a shot with two
    # sources, at the refined_default, vanilla_wide and consistent_wide shapes
    @pytest.mark.parametrize("frames, patches", [(8, 64), (8, 256), (16, 64)])
    def test_equals_reference_at_workload_shapes(self, frames, patches):
        rng = np.random.default_rng(13)
        for make in (tie_heavy, lambda r, shape: r.standard_normal(shape).astype(np.float32)):
            anchor = make(rng, (2 * frames, patches, 16))
            assert_equals_reference(make(rng, (patches, 16)), anchor)


class TestBuildCorrespondence:
    def test_exact_copy_gives_identity(self):
        rng = np.random.default_rng(0)
        target = rng.standard_normal((8, 4)).astype(np.float32)
        anchor = rng.standard_normal((3, 8, 4)).astype(np.float32)
        anchor[1] = target
        corr = rf.build_correspondence(target, tc.unit_rows(anchor))
        assert frames_patches(corr, 8) == [(1, p) for p in range(8)]
        assert np.allclose(corr.score, 1.0, atol=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        target = rng.standard_normal((16, 8)).astype(np.float32)
        anchor = rng.standard_normal((4, 16, 8)).astype(np.float32)
        corr = rf.build_correspondence(target, tc.unit_rows(anchor))
        expected = exhaustive_correspondence(target, anchor)
        assert frames_patches(corr, 16) == expected

    def test_orthogonal_scores_zero_with_tie_rule(self):
        target = np.array([[1.0, 0.0]], dtype=np.float32)
        anchor = np.zeros((2, 3, 2), dtype=np.float32)
        anchor[..., 1] = 1.0  # every candidate orthogonal to the target
        corr = rf.build_correspondence(target, tc.unit_rows(anchor))
        assert corr.score[0] == 0.0
        assert frames_patches(corr, 3) == [(0, 0)]

    def test_duplicate_candidates_tie_to_lowest_linear_index(self):
        target = np.array([[1.0, 0.0]], dtype=np.float32)
        anchor = np.zeros((2, 2, 2), dtype=np.float32)
        anchor[0, 1] = [2.0, 0.0]
        anchor[1, 0] = [1.0, 0.0]
        corr = rf.build_correspondence(target, tc.unit_rows(anchor))
        assert frames_patches(corr, 2) == [(0, 1)]

    def test_zero_target_flagged_unmatched(self):
        target = np.zeros((2, 3), dtype=np.float32)
        target[1] = [1.0, 0.0, 0.0]
        anchor = np.ones((1, 2, 3), dtype=np.float32)
        corr = rf.build_correspondence(target, tc.unit_rows(anchor))
        assert not corr.matched[0]
        assert corr.matched[1]


def injected(target, anchor, corr, mask, blend):
    """inject_refinement, which writes in place, run on a copy of target."""
    out = target.copy()
    assert rf.inject_refinement(out, anchor, corr, mask, blend) is None
    return out


class TestInjectRefinement:
    def setup_method(self):
        rng = np.random.default_rng(1)
        self.target = rng.standard_normal((6, 4)).astype(np.float32)
        self.anchor = rng.standard_normal((2, 6, 4)).astype(np.float32)
        self.corr = rf.build_correspondence(self.target, tc.unit_rows(self.anchor))
        self.mask = np.array([True, True, False, True, False, True])

    def test_blend_zero_identity(self):
        out = injected(self.target, self.anchor, self.corr, self.mask, 0.0)
        assert np.array_equal(out, self.target)

    def test_blend_one_identity_map_full_mask_substitutes(self):
        anchor = np.zeros((1, 6, 4), dtype=np.float32)
        anchor[0] = self.target * 2.0
        corr = rf.build_correspondence(self.target, tc.unit_rows(anchor))
        # scaled copy matches identically (cosine is scale invariant)
        out = injected(self.target, anchor, corr, np.ones(6, dtype=bool), 1.0)
        assert np.array_equal(out, anchor[0])

    def test_empty_mask_unchanged(self):
        out = injected(self.target, self.anchor, self.corr, np.zeros(6, dtype=bool), 0.9)
        assert np.array_equal(out, self.target)

    def test_background_bit_unchanged(self):
        out = injected(self.target, self.anchor, self.corr, self.mask, 0.8)
        background = ~self.mask
        assert np.array_equal(out[background], self.target[background])
        assert not np.array_equal(out[self.mask], self.target[self.mask])

    def test_idempotent_at_blend_one_identity_map(self):
        anchor = self.target[None].copy()
        corr = rf.build_correspondence(self.target, tc.unit_rows(anchor))
        once = injected(self.target, anchor, corr, np.ones(6, dtype=bool), 1.0)
        twice = injected(once, anchor, corr, np.ones(6, dtype=bool), 1.0)
        assert np.array_equal(once, twice)

    def test_in_place_writes_only_active_rows_of_its_frame(self):
        rng = np.random.default_rng(4)
        o = rng.standard_normal((2, 3, 8, 4)).astype(np.float32)
        o[1, 2, :2] = 0.0  # unmatched rows
        o[1, 2, 2, 0] = -0.0  # signed zeros in a background row
        o[0, 1, 3] = -0.0  # and in another frame
        corr = rf.build_correspondence(o[1, 2], tc.unit_rows(o[0]))
        mask = np.array([True, True, False, True, True, False, True, True])
        out = o.copy()
        rf.inject_refinement(out[1, 2], o[0], corr, mask, 0.5)
        written = np.zeros((2, 3, 8), dtype=bool)
        written[1, 2] = mask & corr.matched
        assert written[1, 2].tolist() == [False, False, False, True, True, False, True, True]
        assert out[~written].tobytes() == o[~written].tobytes()
        assert (out[written] != o[written]).any(axis=1).all()


def reference_refine(o, anchors, masks, blend, handles=None):
    """One layer's refinement as the pipeline's output-injection hook ran it
    before refinement.refine, build_correspondence and the copying
    inject_refinement of that time inlined: per (shot, frame) a match by
    reference_correspondence into the shot's sources' frames, and a blend of
    the (frame, patch) rows it names into a copy of the frame. handles, the
    (frame, patch, matched) per (shot, frame) that a call without them
    returns, are reused as the unconditional forward reused them. Returns
    (out, handles)."""
    out = o.copy()
    cond = handles is None
    handles = {} if cond else handles
    for s in range(o.shape[0]):
        sources = sorted(a for a in anchors if a != s)
        if not sources:
            continue
        anchor_feats = np.concatenate([o[a] for a in sources], axis=0)
        units = tc.unit_rows(anchor_feats) if cond else None
        for f in range(o.shape[1]):
            if cond:
                frame, patch, _ = reference_correspondence(o[s, f], units)
                handles[s, f] = (frame, patch, o[s, f].any(axis=1))
            frame, patch, matched = handles[s, f]
            target = out[s, f].copy()
            if blend != 0.0:
                active = masks[s, f] & matched
                src = anchor_feats[frame[active], patch[active]]
                target[active] = (
                    (1.0 - blend) * target[active].astype(np.float64)
                    + blend * src.astype(np.float64)
                ).astype(np.float32)
            out[s, f] = target
    return out, handles


class TestRefine:
    @pytest.mark.parametrize("blend", [0.0, 0.8, 1.0])
    @pytest.mark.parametrize("anchors", [(0,), (2, 0)])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_reference_loop(self, seed, anchors, blend):
        rng = np.random.default_rng(seed)
        o_cond, o_uncond = tie_heavy(rng, (2, 3, 4, 8, 3))
        o_cond[1, 2, 4:] = o_cond[0, 1, :4]  # exact copies of anchor patches
        masks = rng.random((3, 4, 8)) < 0.6
        out, maps = rf.refine(o_cond, anchors, masks, blend)
        expected, handles = reference_refine(o_cond, anchors, masks, blend)
        assert out.tobytes() == expected.tobytes()
        assert list(maps) == list(handles)  # build order: shot by shot, frame by frame
        for key, (frame, patch, matched) in handles.items():
            assert maps[key].target == key
            assert frames_patches(maps[key], 8) == list(zip(frame.tolist(), patch.tolist()))
            assert maps[key].matched.tolist() == matched.tolist()
        # the unconditional forward: other features, the conditional maps
        out, reused = rf.refine(o_uncond, anchors, masks, blend, maps)
        assert reused is maps
        assert out.tobytes() == reference_refine(o_uncond, anchors, masks, blend, handles)[0].tobytes()
