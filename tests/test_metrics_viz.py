import csv
import json
import math

import numpy as np
import pytest

from storyshots import metrics_viz as mv
from storyshots.subject_mask import SubjectMaskSet


def mask_set(masks):
    return SubjectMaskSet(masks=np.asarray(masks, dtype=bool))


def double_loop_oracle(frames, masks):
    shots, n_frames = frames.shape[:2]
    feats = {}
    for s in range(shots):
        for f in range(n_frames):
            feats[s, f] = (frames[s, f].astype(np.float64) * masks[s, f][:, None]).mean(axis=0)
    sims = []
    for s1 in range(shots):
        for f1 in range(n_frames):
            for s2 in range(shots):
                for f2 in range(n_frames):
                    if (s1, f1) >= (s2, f2) or s1 == s2:
                        continue
                    a, b = feats[s1, f1], feats[s2, f2]
                    na, nb = np.linalg.norm(a), np.linalg.norm(b)
                    sims.append(0.0 if na == 0 or nb == 0 else float(a @ b / (na * nb)))
    return float(np.mean(sims)), len(sims)


def reference_set_consistency(frames, masks):
    """The per-frame extractor and per-pair cosine that the array pass in
    mv.set_consistency replaced; its outputs are the reference bytes."""

    def extract(frame, mask):
        return (np.asarray(frame, dtype=np.float64) * np.asarray(mask, dtype=bool)[:, None]).mean(axis=0)

    def pair_cos(a, b):
        na = math.sqrt(float(a @ a))
        nb = math.sqrt(float(b @ b))
        if na == 0.0 or nb == 0.0:
            return 0.0
        return float(np.clip(float(a @ b) / (na * nb), -1.0, 1.0))

    shots, n_frames = frames.shape[:2]
    feats = np.zeros((shots, n_frames, frames.shape[3]))
    for s in range(shots):
        for f in range(n_frames):
            feats[s, f] = extract(frames[s, f], masks[s, f])
    sims = []
    for s1 in range(shots):
        for f1 in range(n_frames):
            for s2 in range(s1 + 1, shots):
                for f2 in range(n_frames):
                    sims.append(pair_cos(feats[s1, f1], feats[s2, f2]))
    within = [pair_cos(feats[s, f], feats[s, f + 1]) for s in range(shots) for f in range(n_frames - 1)]
    mean, sem = mv.mean_sem(sims)
    return mean, sem, float(np.mean(within)) if within else 1.0, len(sims)


def consistency_case(kind):
    rng = np.random.default_rng(len(kind))
    if kind == "tie_heavy_integers":
        frames = rng.integers(-1, 2, (3, 4, 8, 3)).astype(np.float32)
        masks = rng.random((3, 4, 8)) < 0.5
    elif kind == "all_false_frames":  # zero-norm features score 0 against all
        frames = rng.standard_normal((4, 3, 9, 5)).astype(np.float32)
        masks = rng.random((4, 3, 9)) < 0.6
        masks[0, 1] = False
        masks[2] = False
    elif kind == "identical_frames":  # parallel features clip to 1
        frames = np.tile(rng.standard_normal((1, 1, 6, 7)), (3, 4, 1, 1)).astype(np.float32)
        frames[2] = rng.standard_normal((4, 6, 7))
        masks = np.tile(rng.random((1, 1, 6)) < 0.7, (3, 4, 1))
    else:  # the CLI's shape: 5 shots x 8 frames x 64 patches x 16 channels
        frames = rng.standard_normal((5, 8, 64, 16)).astype(np.float32)
        masks = rng.random((5, 8, 64)) < 0.3
    return frames, masks


def reference_dynamic_degree(video, block_size, search_radius):
    """The per-block scan over every offset that the array search in
    mv.dynamic_degree replaced; its outputs are the reference bytes."""
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


# (block size, search radius); (4, 2) is the CLI's
BLOCK_RADIUS = [(2, 3), (3, 1), (4, 2), (5, 2), (8, 4), (16, 2)]


def motion_videos(block, radius):
    """Videos where many offsets tie on SAD: small-integer content, with
    non-square frames and a repeated frame among them."""
    rng = np.random.default_rng(10 * block + radius)
    side = block + 2 * radius
    sparse = (rng.random((4, side + block, side + 2 * block)) < 0.2).astype(np.float32)
    levels = rng.integers(0, 3, (3, side + 2 * block + 1, side + block)).astype(np.float32)
    repeated = np.concatenate([levels[:1], levels[:1], levels[1:]])
    return [sparse, levels, repeated]


class TestReferenceBytes:
    @pytest.mark.parametrize(
        "kind", ["tie_heavy_integers", "all_false_frames", "identical_frames", "cli_shape"]
    )
    def test_set_consistency_equals_reference(self, kind):
        frames, masks = consistency_case(kind)
        pairs, subject = mv.set_consistency(frames, mask_set(masks))
        assert pairs[0] == "set_consistency" and subject[0] == "subject_consistency"
        assert subject[2:] == (0.0, frames.shape[0])
        got = (pairs[1], pairs[2], subject[1], pairs[3])
        assert got == reference_set_consistency(frames, masks)

    @pytest.mark.parametrize("block, radius", BLOCK_RADIUS)
    def test_dynamic_degree_equals_reference(self, block, radius):
        for video in motion_videos(block, radius):
            expected = reference_dynamic_degree(video, block, radius)
            assert mv.dynamic_degree(video, block, radius) == expected


class TestSetConsistency:
    def test_identical_frames_score_one(self):
        frame = np.random.default_rng(0).standard_normal((1, 1, 8, 4))
        frames = np.tile(frame, (3, 5, 1, 1)).astype(np.float32)
        masks = mask_set(np.ones((3, 5, 8)))
        pairs, subject = mv.set_consistency(frames, masks)
        assert pairs[1] == pytest.approx(1.0, abs=1e-6)
        assert subject[1] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "shots,frames,expected",
        [(2, 3, 9), (3, 5, 75), (5, 8, 640)],
    )
    def test_pair_count_formula(self, shots, frames, expected):
        data = np.random.default_rng(1).standard_normal((shots, frames, 4, 3)).astype(np.float32)
        masks = mask_set(np.ones((shots, frames, 4)))
        assert mv.set_consistency(data, masks)[0][3] == expected

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        frames = rng.standard_normal((3, 4, 8, 5)).astype(np.float32)
        masks = mask_set(rng.random((3, 4, 8)) < 0.6)
        _, mean, _, pair_count = mv.set_consistency(frames, masks)[0]
        expected, count = double_loop_oracle(frames, masks.masks)
        assert pair_count == count
        assert mean == pytest.approx(expected, abs=1e-6)

    def test_shot_permutation_symmetry(self):
        rng = np.random.default_rng(3)
        frames = rng.standard_normal((4, 3, 6, 4)).astype(np.float32)
        masks = rng.random((4, 3, 6)) < 0.5
        base = mv.set_consistency(frames, mask_set(masks))[0][1]
        perm = [2, 0, 3, 1]
        permuted = mv.set_consistency(frames[perm], mask_set(masks[perm]))[0][1]
        assert base == pytest.approx(permuted, abs=1e-12)


def shifted_video(rng, n_frames, size, shift):
    base = rng.random((size, size))
    return np.stack([np.roll(base, f * shift, axis=1) for f in range(n_frames)])


class TestDynamicDegree:
    def test_static_video(self):
        video = np.tile(np.random.default_rng(0).random((1, 24, 24)), (4, 1, 1))
        assert mv.dynamic_degree(video, block_size=8, search_radius=4) == 0.0

    @pytest.mark.parametrize("shift", [1, 2, 3, 4])
    def test_recovers_global_shift(self, shift):
        video = shifted_video(np.random.default_rng(shift), 4, 40, shift)
        assert abs(mv.dynamic_degree(video, block_size=8, search_radius=4) - shift) <= 0.5

    def test_monotone_in_shift(self):
        rng = np.random.default_rng(10)
        s1 = mv.dynamic_degree(shifted_video(rng, 4, 40, 1), block_size=8, search_radius=4)
        s2 = mv.dynamic_degree(shifted_video(rng, 4, 40, 2), block_size=8, search_radius=4)
        assert s2 >= s1


class TestYtSlice:
    def test_constant_video_ties_to_column_zero(self):
        out, column = mv.yt_slice(np.ones((3, 4, 5)))
        assert column == 0
        assert out.shape == (4, 3)

    def test_moving_bar_selects_its_column(self):
        video = np.zeros((4, 8, 10))
        video[:, :, 7] = np.arange(4)[:, None]
        _, column = mv.yt_slice(video)
        assert column == 7

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(4)
        video = rng.random((5, 6, 9))
        _, column = mv.yt_slice(video)
        variances = [video[:, :, w].var(axis=0).sum() for w in range(9)]
        assert column == int(np.argmax(variances))

    def test_pure_indexing(self):
        rng = np.random.default_rng(5)
        video = rng.random((4, 6, 7))
        video[:, :, 3] *= 10.0  # the column of greatest temporal variance
        out, column = mv.yt_slice(video)
        assert column == 3
        assert np.array_equal(out, video[:, :, 3].T)


class TestOutputs:
    def test_pgm_format(self, tmp_path):
        image = np.array([[0.0, 1.0], [2.0, 3.0]])
        path = tmp_path / "s.pgm"
        mv.write_pgm(path, image)
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 2\n255\n")
        assert data[len(b"P5\n2 2\n255\n"):] == bytes([0, 85, 170, 255])

    def test_pgm_constant_image(self, tmp_path):
        path = tmp_path / "c.pgm"
        mv.write_pgm(path, np.full((2, 3), 7.0))
        assert path.read_bytes().endswith(bytes(6))

    def test_reports_round_trip(self, tmp_path):
        rows = [("set_consistency", 0.8, 0.01, 75), ("dynamic_degree", 2.5, 0.2, 5)]
        mv.write_reports(tmp_path / "m.csv", tmp_path / "m.json", rows)
        with open(tmp_path / "m.csv") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["metric", "mean", "sem", "n"]
        assert parsed[1][0] == "set_consistency"
        payload = json.loads((tmp_path / "m.json").read_text())
        assert payload[1] == {"metric": "dynamic_degree", "mean": 2.5, "sem": 0.2, "n": 5}
