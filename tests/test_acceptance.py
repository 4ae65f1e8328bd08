"""Acceptance gate: one test per shipped guarantee, each printing a single
pass/fail line. Run with `pytest tests/test_acceptance.py -v -s` to see the
lines directly.
"""

import json
import math
import time
from types import SimpleNamespace

import numpy as np
import yaml

from storyshots import (
    attention,
    cli,
    metrics_viz as mv,
    pipeline,
    query_control as qc,
    subject_mask as sm,
)

SMALL_MODEL = dict(layers=2, patches_per_side=4, channels=8, frames=4)
FOX_PROMPTS = [
    "a red fox leaping over a brook, watercolor",
    "a red fox curled in snow, watercolor",
    "a red fox trotting through ferns, watercolor",
    "a red fox swimming a river, watercolor",
    "a red fox digging a burrow, watercolor",
]


def _check(label, fn):
    try:
        fn()
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def small_config(**overrides):
    kwargs = dict(
        sampler_steps=10,
        model=pipeline.ToyModelSpec(**SMALL_MODEL),
        seed=3,
        keyframe_spacing=2,
    )
    kwargs.update(overrides)
    return pipeline.StoryboardConfig(**kwargs)


def naive_row_attention(q, k, v, allowed_row):
    """Per-row softmax with explicit -inf masking, all in float64."""
    out = np.empty((q.shape[0], v.shape[1]))
    for i in range(q.shape[0]):
        logits = (q[i].astype(np.float64) @ k.astype(np.float64).T) / math.sqrt(q.shape[1])
        logits = np.where(allowed_row, logits, -np.inf)
        shifted = np.exp(logits - logits.max())
        weights = shifted / shifted.sum()
        out[i] = weights @ v.astype(np.float64)
    return out.astype(np.float32)


def random_case(rng, shots, frames, patches, dim):
    shape = (shots, frames, patches, dim)
    feats = SimpleNamespace(**{n: rng.standard_normal(shape).astype(np.float32) for n in "qkv"})
    return feats, rng.random((shots, frames, patches)) < 0.5


def sdsa_one_frame(feats, masks, f, s, key_shots):
    return attention.framewise_sdsa(
        feats.q, feats.k, feats.v, masks, np.array([f]), s, key_shots, False
    )[0]


def test_acceptance_01_framewise_sdsa_oracle():
    def body():
        rng = np.random.default_rng(100)
        start = time.perf_counter()
        for _ in range(100):
            shots = int(rng.integers(1, 5))
            frames = int(rng.integers(1, 7))
            patches = int(rng.integers(2, 33))
            dim = int(rng.integers(2, 17))
            feats, masks = random_case(rng, shots, frames, patches, dim)
            for s in range(shots):
                f = int(rng.integers(frames))
                # as extended_attention draws them: a nonempty anchor set plus the query shot
                anchors = rng.choice(shots, size=int(rng.integers(1, shots + 1)), replace=False)
                key_shots = sorted({*anchors.tolist(), s})
                got = sdsa_one_frame(feats, masks, f, s, key_shots)
                k = np.concatenate([feats.k[j, f] for j in key_shots])
                v = np.concatenate([feats.v[j, f] for j in key_shots])
                allowed = np.concatenate(
                    [
                        np.ones(patches, dtype=bool) if j == s else masks[j, f]
                        for j in key_shots
                    ]
                )
                want = naive_row_attention(feats.q[s, f], k, v, allowed)
                assert np.abs(got - want).max() < 1e-6
        assert time.perf_counter() - start < 10.0

    _check("01 framewise-sdsa matches dense masked oracle", body)


def test_acceptance_02_framewise_locality():
    def body():
        rng = np.random.default_rng(200)
        for _ in range(50):
            feats, masks = random_case(rng, 3, 4, 8, 6)
            s = int(rng.integers(3))
            f = int(rng.integers(4))
            base = sdsa_one_frame(feats, masks, f, s, [0, 1, 2])
            g = (f + 1 + int(rng.integers(3))) % 4
            feats.k[:, g] += rng.standard_normal(feats.k[:, g].shape).astype(np.float32)
            feats.v[:, g] += rng.standard_normal(feats.v[:, g].shape).astype(np.float32)
            after = sdsa_one_frame(feats, masks, f, s, [0, 1, 2])
            assert base.tobytes() == after.tobytes()

    _check("02 framewise locality: other frames never leak", body)


def exhaustive_match(query, keyframe):
    out = []
    for qv in query:
        best = (-2.0, None)
        for idx, kv in enumerate(keyframe):
            qn = np.linalg.norm(qv.astype(np.float64))
            kn = np.linalg.norm(kv.astype(np.float64))
            sim = (
                0.0
                if qn == 0 or kn == 0
                else float(qv.astype(np.float64) @ kv.astype(np.float64)) / (qn * kn)
            )
            if sim > best[0]:
                best = (sim, idx)
        out.append(best[1])
    return np.array(out)


def test_acceptance_03_q_flow_matching_oracle():
    def body():
        rng = np.random.default_rng(300)
        live = np.random.default_rng(301)  # own stream, so the trial draws do not depend on it
        for trial in range(100):
            p = int(rng.integers(2, 24))
            d = int(rng.integers(2, 12))
            query = rng.standard_normal((p, d)).astype(np.float32)
            keyframe = rng.standard_normal((p, d)).astype(np.float32)
            if trial % 3 == 0:
                # scaled duplicates share the same cosine: forced tie
                keyframe[-1] = keyframe[0] * 2.0
            # frame 1 sits halfway between keyframes 0 and 2, both `keyframe`;
            # distinct live rows make any wrong match show in the blend
            q_v = np.stack([keyframe, query, keyframe])
            q_c = live.standard_normal((3, p, d)).astype(np.float32)
            got = qc.q_flow(q_c[None], qc.match_field(q_v[None], 2), "linear")[0, 1]
            match = exhaustive_match(query, keyframe)
            expected = (
                0.5 * q_c[0][match].astype(np.float64) + 0.5 * q_c[2][match].astype(np.float64)
            ).astype(np.float32)
            assert np.array_equal(got, expected)

    _check("03 q-flow matching equals exhaustive search with ties", body)


def test_acceptance_04_q_flow_blend_identities():
    def body():
        rng = np.random.default_rng(400)
        frames = 12
        q_v = rng.standard_normal((frames, 6, 4)).astype(np.float32)
        q_const = np.full((frames, 6, 4), 0.7, dtype=np.float32)
        out = qc.q_flow(q_const[None], qc.match_field(q_v[None], 4))[0]
        f_a, f_b = qc.keyframe_brackets(frames, 4)
        for f in range(frames):
            assert np.abs(out[f] - 0.7).max() < 1e-6
            w = 1.0 / (1.0 + math.exp(-(f_b[f] - f) / (f_b[f] - f_a[f])))
            assert 0.5 <= w <= 0.731059 + 1e-6

    _check("04 q-flow blend identities and weight range", body)


def exhaustive_otsu(scores):
    scores = np.asarray(scores, dtype=np.float64)
    lo, hi = scores.min(), scores.max()
    if lo == hi:
        return hi, True
    best = (-1.0, None)
    for i in range(sm.OTSU_BINS):
        thr = lo + (hi - lo) * (i + 1) / sm.OTSU_BINS
        low = scores[scores <= thr]
        high = scores[scores > thr]
        if low.size == 0 or high.size == 0:
            continue
        var = low.size * high.size * (low.mean() - high.mean()) ** 2
        if var > best[0]:
            best = (var, thr)
    return best[1], False


def test_acceptance_05_otsu_oracle():
    def body():
        rng = np.random.default_rng(500)
        for _ in range(200):
            n = int(rng.integers(4, 200))
            scores = np.concatenate(
                [rng.normal(0.0, 1.0, n), rng.normal(3.0, 0.5, max(n // 2, 1))]
            ).astype(np.float32)
            thr, fallback = sm.otsu_threshold(scores)
            want_thr, want_fb = exhaustive_otsu(scores)
            assert not fallback and not want_fb
            assert thr == want_thr
            # positive affine rescaling must leave the mask unchanged
            thr2, _ = sm.otsu_threshold(scores * 2.5 + 0.75)
            assert np.array_equal(scores > thr, scores * 2.5 + 0.75 > thr2)

    _check("05 otsu equals exhaustive variance search, affine invariant", body)


def test_acceptance_06_x0_round_trip():
    def body():
        alphas = sm.geometric_alphas(range(1001), 1000, alpha_min=0.02)
        rng = np.random.default_rng(600)
        x0 = rng.standard_normal((2, 3, 16, 8)).astype(np.float32)
        noise = rng.standard_normal(x0.shape).astype(np.float32)
        # t=766 lands near alpha_bar = 0.05; t=1 near 1.0
        for t in (1, 10, 100, 500, 766, 900, 1000):
            a = alphas[t]
            x_t = (math.sqrt(a) * x0 + math.sqrt(1 - a) * noise).astype(np.float32)
            back = sm.estimate_x0(x_t, noise, a)
            assert np.abs(back - x0).max() < 1e-5
        assert abs(alphas[766] - 0.05) < 0.002
        assert alphas[1] > 0.99

    _check("06 clean-latent estimate inverts forward noising", body)


def test_acceptance_07_reproducible_three_pass(monkeypatch, allow_cpus):
    def body():
        cfg = small_config()
        prompts = FOX_PROMPTS[:3]
        dumps = []
        for _ in range(2):
            dumps.append(tuple(run.outputs.tobytes() for run in pipeline.run_passes(cfg, prompts)))
        assert dumps[0] == dumps[1]

        outs = set()
        allow_cpus(0, 1)
        # (shot, frame) items of 16 patches per budget chunk of a plain-attention
        # call: 12 and 6 chunks a call run the helper thread, 3 and 1 do not
        for items in (1, 2, 5, 12):
            monkeypatch.setattr(attention, "LOGITS_BUDGET_BYTES", items * 8 * 16 * 16)
            outs.add(tuple(run.outputs.tobytes() for run in pipeline.run_passes(cfg, prompts)))
        assert outs == {dumps[0]}  # the default budget's three passes

        plain = small_config(sdsa_window=None, refine_window=None, q_injection=False)
        vanilla, consistent = pipeline.run_passes(plain, prompts, pipeline.RunMode.CONSISTENT)
        assert vanilla.outputs.tobytes() == consistent.outputs.tobytes()

    _check("07 three-pass pipeline reproducible and chunking-transparent", body)


def test_acceptance_08_schedule_gating():
    def body():
        cfg = pipeline.StoryboardConfig(
            model=pipeline.ToyModelSpec(layers=2, patches_per_side=4, channels=8, frames=4),
            keyframe_spacing=2,
        )
        ts = cfg.timesteps()
        vanilla_steps = [t for t in ts if t >= 750]
        sdsa_steps = [t for t in ts if 550 <= t <= 950]
        refine_steps = [t for t in ts if 590 <= t <= 950]
        assert (len(vanilla_steps), len(sdsa_steps), len(refine_steps)) == (13, 20, 18)

        *_, run = pipeline.run_passes(cfg, FOX_PROMPTS[:2])
        queries = [r for r in run.audit if r["event"] == "query"]
        assert len(queries) == len(ts) * cfg.model.layers
        for rec in queries:
            assert (rec["role"] == "vanilla") == (rec["t"] >= 750)
        sdsa = [r for r in run.audit if r["event"] == "sdsa"]
        assert sorted({r["t"] for r in sdsa}) == sorted(set(sdsa_steps))
        assert len(sdsa) == len(sdsa_steps) * cfg.model.layers
        refine = [r for r in run.audit if r["event"] == "refinement"]
        assert sorted({r["t"] for r in refine}) == sorted(set(refine_steps))
        assert len(refine) == len(refine_steps) * 2  # cond and uncond passes

    _check("08 schedule gating matches window-mapping oracle", body)


def test_acceptance_09_anchor_invariance():
    def body():
        followers = [
            "a red fox swimming a river, watercolor",
            "a red fox digging a burrow, watercolor",
            "a red fox on a cliff at dusk, watercolor",
        ]
        cfg = small_config()
        reference = None
        for extra in (0, 1, 3):
            prompts = FOX_PROMPTS[:2] + followers[:extra]
            *_, r = pipeline.run_passes(cfg, prompts)
            anchors = r.outputs[:2].tobytes()
            if reference is None:
                reference = anchors
            assert anchors == reference

    _check("09 anchor outputs invariant to follower count", body)


def test_acceptance_10_sdsa_direction():
    def body():
        spec = pipeline.ToyModelSpec(**SMALL_MODEL)
        prompts = [
            "a fox running, ink style",
            "a fox sleeping, ink style",
            "a fox jumping, ink style",
        ]
        wins = 0
        n = 12
        for seed in range(n):
            scores = {}
            for sdsa_on in (False, True):
                cfg = pipeline.StoryboardConfig(
                    sampler_steps=10,
                    model=spec,
                    seed=seed,
                    q_injection=False,
                    refine_window=None,
                    sdsa_window=(550, 950) if sdsa_on else None,
                )
                *_, run = pipeline.run_passes(cfg, prompts, pipeline.RunMode.CONSISTENT)
                masks = sm.build_masks(run.outputs, cfg.subject_channel)
                scores[sdsa_on] = mv.set_consistency(run.outputs, masks)[0][1]
            if scores[True] > scores[False]:
                wins += 1
        p = sum(math.comb(n, k) for k in range(wins, n + 1)) / 2**n
        assert p < 0.05, f"wins={wins}/{n}, p={p:.4f}"

    _check("10 cross-shot attention raises set consistency (sign test)", body)


def test_acceptance_11_metrics_oracles():
    def body():
        rng = np.random.default_rng(1100)
        for shots, frames, expected in ((2, 3, 9), (3, 5, 75), (5, 8, 640)):
            data = rng.standard_normal((shots, frames, 4, 3)).astype(np.float32)
            ones = np.ones((shots, frames, 4), dtype=bool)
            masks = sm.SubjectMaskSet(masks=ones)
            assert mv.set_consistency(data, masks)[0][3] == expected

        data = rng.standard_normal((3, 4, 8, 5)).astype(np.float32)
        mask_arr = rng.random((3, 4, 8)) < 0.6
        masks = sm.SubjectMaskSet(masks=mask_arr)
        _, mean, _, pair_count = mv.set_consistency(data, masks)[0]
        sims = []
        for s1 in range(3):
            for f1 in range(4):
                for s2 in range(3):
                    for f2 in range(4):
                        if (s1, f1) >= (s2, f2) or s1 == s2:
                            continue
                        a = (data[s1, f1].astype(np.float64) * mask_arr[s1, f1][:, None]).mean(0)
                        b = (data[s2, f2].astype(np.float64) * mask_arr[s2, f2][:, None]).mean(0)
                        na, nb = np.linalg.norm(a), np.linalg.norm(b)
                        sims.append(0.0 if na == 0 or nb == 0 else float(a @ b / (na * nb)))
        assert pair_count == len(sims)
        assert abs(mean - np.mean(sims)) < 1e-6

        for shift in (1, 2, 3, 4):
            base = np.random.default_rng(1100 + shift).random((40, 40))
            video = np.stack([np.roll(base, f * shift, axis=1) for f in range(4)])
            score = mv.dynamic_degree(video, block_size=8, search_radius=4)
            assert abs(score - shift) <= 0.5

        video = np.random.default_rng(1105).random((5, 6, 9))
        _, column = mv.yt_slice(video)
        variances = [video[:, :, w].var(axis=0).sum() for w in range(9)]
        assert column == int(np.argmax(variances))

    _check("11 metric implementations match brute-force oracles", body)


def test_acceptance_12_q_dropout():
    def body():
        rng = np.random.default_rng(1200)
        inj = rng.standard_normal((1000, 4)).astype(np.float32)
        live = rng.standard_normal((1000, 4)).astype(np.float32)
        out0, kept0 = qc.q_dropout(inj, live, 0.0, np.random.default_rng(0))
        assert out0 is inj and kept0 == 0.0
        out1, kept1 = qc.q_dropout(inj, live, 1.0, np.random.default_rng(0))
        assert out1 is live and kept1 == 1.0
        outa, kept_a = qc.q_dropout(inj, live, 0.4, np.random.default_rng(7))
        outb, kept_b = qc.q_dropout(inj, live, 0.4, np.random.default_rng(7))
        assert 0.37 <= kept_a <= 0.43
        assert kept_a == kept_b and np.array_equal(outa, outb)

    _check("12 query dropout pass-throughs and kept-fraction", body)


def test_acceptance_13_cli_smoke(tmp_path):
    def body():
        prompt_path = tmp_path / "prompts.yaml"
        with open(prompt_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(
                {
                    "fox": {
                        "subject": "a red fox",
                        "style": "watercolor",
                        "settings": [
                            "leaping over a brook",
                            "curled in snow",
                            "trotting through ferns",
                            "swimming a river",
                            "digging a burrow",
                        ],
                    }
                },
                fh,
            )
        out = tmp_path / "out"
        start = time.perf_counter()
        rc = cli.main(["--prompts", str(prompt_path), "--out", str(out)])
        elapsed = time.perf_counter() - start
        assert rc == 0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        set_dir = out / "fox"
        for name in (
            "latents_vanilla.tensor",
            "latents_consistent.tensor",
            "latents_refined.tensor",
            "audit_consistent.jsonl",
            "audit_refined.jsonl",
            "metrics.csv",
            "metrics.json",
            "manifest.json",
        ):
            assert (set_dir / name).exists(), name
        assert len(list((set_dir / "slices").iterdir())) == 5
        manifest = json.loads((set_dir / "manifest.json").read_text())
        parsed = pipeline.StoryboardConfig.from_dict(manifest["config"])
        assert parsed == pipeline.StoryboardConfig()

    _check("13 end-to-end command line run under a minute", body)
