import math
import os
import threading
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from storyshots import attention, pipeline, tensor_core as tc
from storyshots.errors import NonFiniteError


def random_weights(rng, d):
    """(w_q, w_k, w_v, w_o), as ToyModel keeps a layer's matrices."""
    return tuple(rng.standard_normal((d, d)).astype(np.float32) * 0.3 for _ in range(4))


def random_feats(rng, shots, frames, patches, d):
    """(q, k, v), each (shots, frames, patches, d)."""
    shape = (shots, frames, patches, d)
    return SimpleNamespace(**{n: rng.standard_normal(shape).astype(np.float32) for n in "qkv"})


def sdsa(feats, masks, frame, shot, key_shots, attend_middle_frame=False):
    """framewise_sdsa of one frame, (P, d)."""
    return attention.framewise_sdsa(
        feats.q, feats.k, feats.v, masks, np.array([frame]), shot, key_shots, attend_middle_frame
    )[0]


def dense_masked_oracle(q, k, v, allowed):
    """Naive per-element attention with explicit -inf masking."""
    P, d = q.shape
    out = np.zeros((P, v.shape[1]))
    for i in range(P):
        logits = []
        for j in range(k.shape[0]):
            if allowed is not None and not allowed[i, j]:
                logits.append(-math.inf)
            else:
                logits.append(
                    sum(float(q[i, t]) * float(k[j, t]) for t in range(d)) / math.sqrt(d)
                )
        m = max(logits)
        w = [0.0 if l == -math.inf else math.exp(l - m) for l in logits]
        z = sum(w)
        for j in range(k.shape[0]):
            out[i] += (w[j] / z) * v[j].astype(np.float64)
    return out


def reference_masked_attention(q, k, v, allowed):
    """masked_attention before the exact-zero softmax, the -inf mask and the
    scale folded into q: logits are divided by sqrt(d), masked ones get
    -1e30, every shifted logit goes through np.exp and masked weights are
    zeroed by np.copyto. Its outputs are the reference bytes of every row
    with an open key (allowed None: every row)."""
    logits = np.matmul(np.asarray(q, np.float64), np.swapaxes(np.asarray(k, np.float64), -1, -2))
    logits /= math.sqrt(np.shape(q)[-1])
    if allowed is not None:
        logits += np.where(allowed, 0.0, -1e30)
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    if allowed is not None:
        np.copyto(logits, 0.0, where=~allowed)
    return np.matmul(logits, np.asarray(v, np.float64)).astype(np.float32), logits


def same_bits(a, b) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def plain_attention(x, w):
    """One frame of the toy model's plain attention layer: (o, (q, k, v))."""
    w_q, w_k, w_v, w_o = w
    q, k, v = (tc.matmul(x, m) for m in (w_q, w_k, w_v))
    h, _ = attention.masked_attention(q, k, v)
    return tc.matmul(h, w_o), (q, k, v)


class TestSelfAttention:
    def test_single_patch(self):
        rng = np.random.default_rng(0)
        w = random_weights(rng, 6)
        x = rng.standard_normal((1, 6)).astype(np.float32)
        o, (q, k, v) = plain_attention(x, w)
        assert np.array_equal(o, tc.matmul(v, w[3]))

    def test_identical_keys_give_uniform_rows(self):
        rng = np.random.default_rng(1)
        d, P = 8, 5
        w_q, w_k, w_v, _ = random_weights(rng, d)
        x = rng.standard_normal((P, d)).astype(np.float32)
        # force identical K rows via identical input rows
        x[:] = x[0]
        q = tc.matmul(x, w_q)
        k = tc.matmul(x, w_k)
        v = tc.matmul(x, w_v)
        _, weights = attention.masked_attention(q, k, v)
        assert np.abs(weights - 1.0 / P).max() < 1e-6

    def test_against_naive_oracle(self):
        rng = np.random.default_rng(2)
        P, d = 16, 8
        w = random_weights(rng, d)
        x = rng.standard_normal((P, d)).astype(np.float32)
        o, (q, k, v) = plain_attention(x, w)
        expected = dense_masked_oracle(q, k, v, None) @ w[3].astype(np.float64)
        assert np.abs(o - expected).max() < 1e-6


class TestFramewiseSdsa:
    def test_single_shot_matches_self_attention(self):
        rng = np.random.default_rng(3)
        feats = random_feats(rng, 1, 2, 6, 4)
        masks = np.ones((1, 2, 6), dtype=bool)
        h = sdsa(feats, masks, frame=1, shot=0, key_shots=[0])
        expected, _ = attention.masked_attention(
            feats.q[0, 1], feats.k[0, 1], feats.v[0, 1],
            np.ones((6, 6), dtype=bool),
        )
        assert np.array_equal(h, expected)

    def test_all_foreign_masks_false_reduces_to_self(self):
        rng = np.random.default_rng(4)
        feats = random_feats(rng, 3, 2, 6, 4)
        masks = np.zeros((3, 2, 6), dtype=bool)
        h = sdsa(feats, masks, frame=0, shot=1, key_shots=[0, 1, 2])
        expected, _ = attention.masked_attention(feats.q[1, 0], feats.k[1, 0], feats.v[1, 0])
        assert np.abs(h - expected).max() < 1e-6

    def test_dense_masked_oracle(self):
        rng = np.random.default_rng(5)
        N, F, P, d = 3, 4, 16, 8
        feats = random_feats(rng, N, F, P, d)
        masks = rng.random((N, F, P)) < 0.5
        for shot in range(N):
            f = 2
            k_ext = np.concatenate([feats.k[j, f] for j in range(N)])
            v_ext = np.concatenate([feats.v[j, f] for j in range(N)])
            row = np.concatenate(
                [np.ones(P, dtype=bool) if j == shot else masks[j, f] for j in range(N)]
            )
            allowed = np.broadcast_to(row, (P, N * P))
            h = sdsa(feats, masks, frame=f, shot=shot, key_shots=range(N))
            expected = dense_masked_oracle(feats.q[shot, f], k_ext, v_ext, allowed)
            assert np.abs(h - expected).max() < 1e-6

    def test_framewise_locality_exact(self):
        rng = np.random.default_rng(6)
        feats = random_feats(rng, 2, 4, 8, 4)
        masks = rng.random((2, 4, 8)) < 0.6
        before = sdsa(feats, masks, frame=1, shot=0, key_shots=[0, 1])
        # perturb every other frame's K/V in every shot
        for g in (0, 2, 3):
            feats.k[:, g] += 5.0
            feats.v[:, g] -= 3.0
        after = sdsa(feats, masks, frame=1, shot=0, key_shots=[0, 1])
        assert np.array_equal(before, after)

    def test_masked_keys_get_zero_weight_and_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        N, F, P, d = 2, 1, 6, 4
        feats = random_feats(rng, N, F, P, d)
        m = np.zeros((N, F, P), dtype=bool)
        m[1, 0, :2] = True
        k_ext = np.concatenate([feats.k[j, 0] for j in range(N)])
        v_ext = np.concatenate([feats.v[j, 0] for j in range(N)])
        row = np.concatenate([np.ones(P, dtype=bool), m[1, 0]])
        allowed = np.broadcast_to(row, (P, 2 * P))
        _, weights = attention.masked_attention(feats.q[0, 0], k_ext, v_ext, allowed)
        assert (weights[:, ~row] == 0.0).all()
        assert np.abs(weights.sum(axis=1) - 1.0).max() < 1e-6

    def test_query_pass_through(self):
        rng = np.random.default_rng(8)
        feats = random_feats(rng, 2, 2, 4, 4)
        masks = np.ones((2, 2, 4), dtype=bool)
        q_before = feats.q.copy()
        sdsa(feats, masks, frame=0, shot=0, key_shots=[0, 1])
        assert np.array_equal(feats.q, q_before)


class TestBatchedKernel:
    def test_batched_equals_stacked_items(self):
        rng = np.random.default_rng(13)
        q, k, v = (rng.standard_normal((2, 3, 6, 4)).astype(np.float32) for _ in range(3))
        h, weights = attention.masked_attention(q, k, v)
        assert h.shape == (2, 3, 6, 4) and h.dtype == np.float32
        assert weights.shape == (2, 3, 6, 6) and weights.dtype == np.float64
        for i in range(2):
            for j in range(3):
                h_ij, w_ij = attention.masked_attention(q[i, j], k[i, j], v[i, j])
                assert np.array_equal(h[i, j], h_ij)
                assert np.array_equal(weights[i, j], w_ij)

    def test_broadcast_row_mask_equals_stacked_items(self):
        rng = np.random.default_rng(14)
        n, P, K, d = 5, 6, 10, 4
        q = rng.standard_normal((n, P, d)).astype(np.float32)
        k, v = (rng.standard_normal((n, K, d)).astype(np.float32) for _ in range(2))
        rows = rng.random((n, K)) < 0.5
        rows[:, 0] = True
        h, weights = attention.masked_attention(q, k, v, rows[:, None, :])
        for i in range(n):
            full = np.broadcast_to(rows[i], (P, K))
            h_i, w_i = attention.masked_attention(q[i], k[i], v[i], full)
            assert np.array_equal(h[i], h_i)
            assert np.array_equal(weights[i], w_i)
            assert (weights[i][:, ~rows[i]] == 0.0).all()

    @pytest.mark.parametrize("scale", [1.0, 30.0, 300.0])
    @pytest.mark.parametrize("row_mask", [False, True, None])
    def test_bit_identical_to_reference_kernel(self, scale, row_mask):
        # SDSA-shaped calls: a frame group of n queries against K keys from
        # several shots (row_mask None: plain attention's unmasked calls), the
        # logits scaled until most masked and many open entries underflow;
        # then one query row (or item) has every key masked. d = 8 divides
        # the logits by sqrt(8); d = 16 folds 1/4 into a new q.
        for d in (8, 16):
            rng = np.random.default_rng(int(scale) + bool(row_mask) + (d != 8) * 1000)
            n, P, K = 4, 16, 48
            q = (rng.standard_normal((n, P, d)) * scale).astype(np.float32)
            k, v = (rng.standard_normal((n, K, d)).astype(np.float32) for _ in range(2))
            allowed = None
            if row_mask is not None:
                allowed = rng.random((n, 1 if row_mask else P, K)) < 0.5
                allowed[..., :P // 2] = True
            h, weights = attention.masked_attention(q, k, v, allowed)
            h_ref, weights_ref = reference_masked_attention(q, k, v, allowed)
            assert same_bits(h, h_ref) and same_bits(weights, weights_ref)
            assert not np.signbit(weights).any()
            q64 = q.astype(np.float64)  # asarray hands the kernel this very array
            h64, weights64 = attention.masked_attention(q64, k, v, allowed)
            assert same_bits(q64, q.astype(np.float64))
            assert same_bits(h64, h) and same_bits(weights64, weights)
            if allowed is None:  # scales 1 and 30 take the all-live exp, 300 the dead-lane path
                logits = q64 @ np.swapaxes(k, -1, -2).astype(np.float64) / math.sqrt(d)
                shifted = logits - logits.max(axis=-1, keepdims=True)
                assert (shifted > attention.EXP_ZERO).all() == (scale < 300)
                continue
            assert (weights[~np.broadcast_to(allowed, weights.shape)] == 0.0).all()
            allowed[1, 0] = False
            with pytest.raises(NonFiniteError):
                attention.masked_attention(q, k, v, allowed)

    def test_non_finite_logits_rejected(self):
        rng = np.random.default_rng(15)
        q, k, v = (rng.standard_normal((3, 4, 4)).astype(np.float32) for _ in range(3))
        k[2, :, 0] = np.abs(k[2, :, 0])  # a bad query's row of logits is all +inf (or NaN)
        allowed = np.ones((3, 4, 4), dtype=bool)
        allowed[2, 1, 1:] = False  # masked ones too
        # an -inf key against positive queries leaves finite row maxima but -inf
        # logits in open lanes of item 2, with a mask or without one
        q_pos, k_neg = np.abs(q) + 0.5, k.copy()
        k_neg[2, 3, 0] = -np.inf
        cases = [(q_pos, k_neg)]
        # finite float64 past float32's range: q·k overflows to ±inf in the
        # matmul, and the key of -1e200 would be weighed +0.0 (or NaN unmasked)
        q_huge, k_tiny = np.full((3, 4, 4), 1e200), np.full((3, 4, 4), 1e-200)
        k_tiny[2, 3] = -1e200
        q_over = q.astype(np.float64)
        q_over[0, 0, 0] = np.nextafter(np.finfo(np.float32).max, np.inf, dtype=np.float64)
        cases += [(q_huge, k_tiny), (q_over, k)]
        for bad in (np.nan, np.inf, -np.inf):
            q_bad, k_bad = q.copy(), k.copy()
            q_bad[2, 1, 0] = k_bad[2, 1, 0] = bad
            cases += [(q_bad, k), (q, k_bad)]
        for q_case, k_case in cases:
            for mask in (None, allowed, np.ones_like(allowed)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(NonFiniteError):
                        attention.masked_attention(q_case, k_case, v, mask)
        # float32's own extremes are in range and give finite weights
        q_top, k_top = q.copy(), k.copy()
        q_top[0, 0, 0], k_top[0, 1, 0] = np.finfo(np.float32).max, -np.finfo(np.float32).max
        h, weights = attention.masked_attention(q_top, k_top, v)
        assert np.isfinite(h).all() and weights[0, 0, 1] == 0.0

    def test_mask_shape_mismatch_rejected(self):
        rng = np.random.default_rng(17)
        q, k, v = (rng.standard_normal((3, 4, 4)).astype(np.float32) for _ in range(3))
        for shape in ((3, 1, 5), (2, 4, 4), (3, 2, 4, 4)):
            with pytest.raises(ValueError):
                attention.masked_attention(q, k, v, np.ones(shape, dtype=bool))

    @pytest.mark.parametrize("middle", [False, True])
    def test_frame_group_equals_per_frame_calls(self, middle):
        rng = np.random.default_rng(18)
        feats = random_feats(rng, 3, 5, 6, 4)
        masks = rng.random((3, 5, 6)) < 0.5
        group = [0, 1, 3, 4]  # every frame but the middle one
        for shot, key_shots in ((0, [0, 1]), (2, [0, 1, 2])):
            h = attention.framewise_sdsa(
                feats.q, feats.k, feats.v, masks, np.array(group), shot, key_shots, middle
            )
            assert h.shape == (len(group), 6, 4)
            for i, f in enumerate(group):
                assert np.array_equal(h[i], sdsa(feats, masks, f, shot, key_shots, middle))


class TestPlainAttentionChunks:
    def test_full_chunk_equals_unbatched(self):
        rng = np.random.default_rng(9)
        feats = random_feats(rng, 2, 3, 5, 4)
        masks = rng.random((2, 3, 5)) < 0.5
        for middle in (False, True):
            full = attention.extended_attention(
                feats.q, feats.k, feats.v, masks, (0, 1), middle
            )
            expected = np.stack(
                [np.stack([sdsa(feats, masks, f, s, [0, 1], middle) for f in range(3)])
                 for s in range(2)]
            )
            assert np.array_equal(full, expected)

    def test_chunk_sizes_bit_identical(self, monkeypatch, allow_cpus):
        spec = pipeline.ToyModelSpec(layers=2, patches_per_side=2, channels=4, frames=3)
        model = pipeline.ToyModel(spec, ["a", "b"])
        x = np.random.default_rng(10).standard_normal((2, 3, 4, 4)).astype(np.float32)
        allow_cpus(0, 1)
        threads = kernel_threads(monkeypatch)
        outs = []
        for items in (1, 2, 4, 6):  # items per chunk: 6 and 3 chunks a layer, then 2 and 1
            monkeypatch.setattr(attention, "LOGITS_BUDGET_BYTES", items * 8 * 4 * 4)
            outs.append(model.forward(x, cond=True))
        for other in outs[1:]:
            assert np.array_equal(outs[0], other)
        assert set(threads) - {threading.get_ident()}  # the 6-chunk calls ran the helper


def kernel_threads(monkeypatch) -> list:
    """Log the thread of every chunk masked_attention computes."""
    threads = []
    kernel = attention._kernel

    def logged(*args):
        threads.append(threading.get_ident())
        return kernel(*args)

    monkeypatch.setattr(attention, "_kernel", logged)
    return threads


class TestHelperThread:
    """An unmasked call over items of 4 patches, one item per budget chunk."""

    def inputs(self, monkeypatch, items=6):
        monkeypatch.setattr(attention, "LOGITS_BUDGET_BYTES", 8 * 4 * 4)
        rng = np.random.default_rng(21)
        return tuple(rng.standard_normal((items, 4, 4)).astype(np.float32) for _ in range(3))

    def test_odd_chunks_run_on_one_helper(self, monkeypatch, allow_cpus):
        q, k, v = self.inputs(monkeypatch, items=7)
        allow_cpus(0, 1)
        threads = kernel_threads(monkeypatch)
        h, weights = attention.masked_attention(q, k, v)
        assert weights is None and h.dtype == np.float32
        for i in range(7):
            assert same_bits(h[i], attention.masked_attention(q[i], k[i], v[i])[0])
        caller = threading.get_ident()
        assert threads[7:] == [caller] * 7  # the lone calls above
        assert threads[:7].count(caller) == 4 and len(set(threads[:7])) == 2

    @pytest.mark.parametrize("cpus", [(0,), (0, 1)])
    def test_each_walk_makes_its_chunks_logits_in_one_buffer(self, monkeypatch, allow_cpus, cpus):
        q, k, v = self.inputs(monkeypatch, items=7)
        monkeypatch.setattr(attention, "LOGITS_BUDGET_BYTES", 2 * 8 * 4 * 4)  # 2 items, the last 1
        allow_cpus(*cpus)
        kernel, walks = attention._kernel, {}  # thread -> the weights of each chunk it made

        def logged(*args):
            h, weights = kernel(*args)
            walks.setdefault(threading.get_ident(), []).append(weights)
            return h, weights

        monkeypatch.setattr(attention, "_kernel", logged)
        h, _ = attention.masked_attention(q, k, v)
        assert len(walks) == len(cpus) and sum(map(len, walks.values())) == 4
        for chunks in walks.values():
            assert all(np.shares_memory(w, chunks[0]) for w in chunks)
        firsts = [chunks[0] for chunks in walks.values()]
        assert not any(np.shares_memory(a, b) for a, b in zip(firsts, firsts[1:]))
        for i in range(7):  # the per-item loop
            assert same_bits(h[i], kernel(q[i], k[i], v[i])[0])

    @pytest.mark.parametrize("cpus, items", [((0,), 6), ((0, 1), 3), (None, 6)])
    def test_one_cpu_or_under_four_chunks_stay_on_the_caller(
        self, monkeypatch, allow_cpus, cpus, items
    ):
        q, k, v = self.inputs(monkeypatch, items)
        if cpus is None:  # no affinity call: the CPU count decides
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        else:
            allow_cpus(*cpus)
        threads = kernel_threads(monkeypatch)
        attention.masked_attention(q, k, v)
        assert threads == [threading.get_ident()] * items
        if cpus is None:
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
            attention.masked_attention(q, k, v)
            assert len(set(threads)) == 2

    def test_helper_is_joined_and_its_exception_raised_on_the_caller(
        self, monkeypatch, allow_cpus
    ):
        q, k, v = self.inputs(monkeypatch)
        allow_cpus(0, 1)
        caller = threading.get_ident()
        kernel = attention._kernel

        def slow_helper(*args):  # the caller's chunks finish first
            if threading.get_ident() != caller:
                time.sleep(0.02)
            try:
                return kernel(*args)
            except NonFiniteError as exc:
                exc.thread = threading.get_ident()
                raise

        monkeypatch.setattr(attention, "_kernel", slow_helper)
        before = threading.active_count()
        h, _ = attention.masked_attention(q, k, v)
        assert threading.active_count() == before
        assert same_bits(h, np.stack([kernel(q[i], k[i], v[i])[0] for i in range(6)]))
        for item in (1, 3, 0):  # in the helper's chunks 1 and 3, then in the caller's 0
            q_bad = q.copy()
            q_bad[item, 2, 1] = np.nan
            with pytest.raises(NonFiniteError):
                attention.masked_attention(q_bad, k, v)
            assert threading.active_count() == before
        # both walks fail, the caller's in chunk 0 before the helper's in
        # chunk 1: the first recorded failure alone reaches the caller
        q_bad = q.copy()
        q_bad[[0, 1], 2, 1] = np.nan
        with pytest.raises(NonFiniteError) as raised:
            attention.masked_attention(q_bad, k, v)
        assert raised.value.thread == caller
        assert threading.active_count() == before
