"""Outside-in span tracer for one storyboard.

Wraps the public functions of each storyshots module by patching module and
class attributes, so the package itself is never edited. Spans (name, start,
end, parent) are kept in memory and turned into per-layer figures and a
Chrome trace-event file when the storyboard has finished.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from collections import Counter


class Tracer:
    """Span store plus the per-call observers behind the per-layer metrics."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self._stack = [-1]
        # observer state, filled by the per-function hooks below
        self.attn_shapes: Counter = Counter()
        self.otsu_fallbacks = 0
        self.mask_true = 0
        self.mask_total = 0
        self.flow_decisions = 0
        self.flow_keys: set = set()
        self.put_bytes = 0
        self.corr_matched = 0
        self.corr_patches = 0
        self.anchor_keys: set = set()
        self.saved_bytes = 0

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, observe=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch the public functions of every storyshots module."""
        from storyshots import (attention, cli, metrics_viz, pipeline, prompts,
                                query_control, refinement, subject_mask, tensor_core)

        def patch(owner, attr, name, observe=None):
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), observe))

        patch(cli, "main", "cli.main")
        patch(prompts, "load_prompts", "prompts.load_prompts")
        patch(pipeline, "sample", "pipeline.sample")
        patch(pipeline.ToyModel, "forward", "pipeline.forward")
        patch(attention, "masked_attention", "attention.masked_attention", self._on_attention)
        patch(attention, "framewise_sdsa", "attention.framewise_sdsa")
        patch(subject_mask, "estimate_x0", "subject_mask.estimate_x0")
        patch(subject_mask, "saliency", "subject_mask.saliency")
        patch(subject_mask, "otsu_threshold", "subject_mask.otsu_threshold", self._on_otsu)
        masks_cls = subject_mask.SubjectMaskSet
        from_saliency = masks_cls.__dict__["from_saliency"].__func__
        masks_cls.from_saliency = classmethod(
            self.wrap("subject_mask.from_saliency", from_saliency, self._on_masks)
        )
        patch(query_control, "select_q", "query_control.select_q", self._on_select_q)
        patch(query_control, "q_flow", "query_control.q_flow")
        patch(query_control.FeatureCache, "put", "query_control.cache_put", self._on_put)
        patch(refinement, "build_correspondence", "refinement.build_correspondence",
              self._on_correspondence)
        patch(refinement, "inject_refinement", "refinement.inject_refinement")
        patch(metrics_viz, "set_consistency", "metrics_viz.set_consistency")
        patch(metrics_viz, "dynamic_degree", "metrics_viz.dynamic_degree")
        patch(metrics_viz, "yt_slice", "metrics_viz.yt_slice")
        patch(metrics_viz, "write_pgm", "metrics_viz.write_pgm")
        patch(tensor_core, "save_tensor", "tensor_core.save_tensor", self._on_save)

    # -- observers (run after the span has closed) ---------------------------

    def _on_attention(self, args, kwargs, result):
        q, k = args[0], args[1]
        masked = (args[3] if len(args) > 3 else kwargs.get("allowed")) is not None
        self.attn_shapes[(q.shape[0], k.shape[0], q.shape[-1], masked)] += 1

    def _on_otsu(self, args, kwargs, result):
        self.otsu_fallbacks += bool(result[1])

    def _on_masks(self, args, kwargs, result):
        self.mask_true += int(result.masks.sum())
        self.mask_total += result.masks.size

    def _on_select_q(self, args, kwargs, result):
        if result[1].role == "flow":
            self.flow_decisions += 1
            self.flow_keys.add((args[0], args[1]))

    def _on_put(self, args, kwargs, result):
        self.put_bytes += args[3].size * 4  # stored as float32

    def _on_correspondence(self, args, kwargs, result):
        self.corr_matched += int(result.matched.sum())
        self.corr_patches += result.matched.size
        anchors = args[1]
        digest = hashlib.blake2b(anchors.tobytes(), digest_size=16).digest()
        self.anchor_keys.add((result.target[0], anchors.shape, digest))

    def _on_save(self, args, kwargs, result):
        self.saved_bytes += args[1].size * 4  # written as float32

    # -- summaries -----------------------------------------------------------

    def _totals(self) -> dict:
        """Per name: (calls, total ns, self ns, durations in ns)."""
        n = len(self.starts)
        durs = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += durs[i]
        out = {}
        for i, name in enumerate(self.names):
            calls, total, own, samples = out.get(name, (0, 0, 0, []))
            samples.append(durs[i])
            out[name] = (calls + 1, total + durs[i], own + durs[i] - child[i], samples)
        return out

    def _parent_total(self, name, parent_name):
        calls = total = 0
        for i, n in enumerate(self.names):
            p = self.parents[i]
            if n == name and p >= 0 and self.names[p] == parent_name:
                calls += 1
                total += self.ends[i] - self.starts[i]
        return calls, total / 1e9

    def attention_computed(self):
        """FLOPs and bytes of every masked_attention call, from its shapes.

        Per call with Pq queries, Pk keys and width d: q kᵀ and weights·v are
        2·Pq·Pk·d each; softmax is taken as 5·Pq·Pk (max, subtract, exp,
        sum, divide) plus Pq·Pk for the mask add. Bytes are a lower-bound
        model: float32 q, k and v read once, the float64 logits written and
        read once, float32 h and weights written once, and a one-byte mask
        read when present.
        """
        flops = nbytes = 0
        for (pq, pk, d, masked), count in self.attn_shapes.items():
            flops += count * (4 * pq * pk * d + (6 if masked else 5) * pq * pk)
            nbytes += count * (
                4 * (pq * d + 2 * pk * d) + 16 * pq * pk + 4 * (pq * d + pq * pk)
                + (pq * pk if masked else 0)
            )
        return flops, nbytes

    def layer_metrics(self) -> dict:
        totals = self._totals()

        def get(name):
            calls, total, own, samples = totals.get(name, (0, 0, 0, []))
            return calls, total / 1e9, own / 1e9, samples

        fwd_calls, _, fwd_self, fwd_samples = get("pipeline.forward")
        fwd_ms = [d / 1e6 for d in fwd_samples]
        plain_calls, plain_s = self._parent_total("attention.masked_attention", "pipeline.forward")
        sdsa_calls, sdsa_s, sdsa_self, _ = get("attention.framewise_sdsa")
        masked_keys = [(pk, c) for (_, pk, _, m), c in self.attn_shapes.items() if m]
        masked_calls = sum(c for _, c in masked_keys)
        otsu_calls, otsu_s, _, _ = get("subject_mask.otsu_threshold")
        select_calls, select_s, _, _ = get("query_control.select_q")
        flow_calls, flow_s, _, _ = get("query_control.q_flow")
        corr_calls, corr_s, _, _ = get("refinement.build_correspondence")
        flops, nbytes = self.attention_computed()
        return {
            "pipeline.forward.calls": fwd_calls,
            "pipeline.forward.p50_ms": statistics.median(fwd_ms) if fwd_ms else 0.0,
            "pipeline.forward.p90_ms": _p90(fwd_ms),
            "pipeline.forward.self_s": fwd_self,
            "pipeline.sample.self_s": get("pipeline.sample")[2],
            "attention.plain.calls": plain_calls,
            "attention.plain.s": plain_s,
            "attention.sdsa.calls": sdsa_calls,
            "attention.sdsa.s": sdsa_s,
            "attention.sdsa.self_s": sdsa_self,
            "attention.sdsa.key_len_mean": (
                sum(pk * c for pk, c in masked_keys) / masked_calls if masked_calls else 0.0
            ),
            "attention.gflop_computed": flops / 1e9,
            "attention.mb_moved_computed": nbytes / 1e6,
            "subject_mask.otsu.calls": otsu_calls,
            "subject_mask.otsu.s": otsu_s,
            "subject_mask.otsu.fallback_share": _share(self.otsu_fallbacks, otsu_calls),
            "subject_mask.saliency.s": get("subject_mask.saliency")[1],
            "subject_mask.estimate_x0.s": get("subject_mask.estimate_x0")[1],
            "subject_mask.coverage_mean": _share(self.mask_true, self.mask_total),
            "query_control.select_q.calls": select_calls,
            "query_control.select_q.s": select_s,
            "query_control.q_flow.calls": flow_calls,
            "query_control.q_flow.s": flow_s,
            "query_control.cache.put_mb": self.put_bytes / 1e6,
            "query_control.flow_unique_share": _share(len(self.flow_keys), self.flow_decisions),
            "refinement.correspondence.calls": corr_calls,
            "refinement.correspondence.s": corr_s,
            "refinement.inject.s": get("refinement.inject_refinement")[1],
            "refinement.matched_share": _share(self.corr_matched, self.corr_patches),
            "refinement.anchor_unique_share": _share(len(self.anchor_keys), corr_calls),
            "metrics_viz.set_consistency.s": get("metrics_viz.set_consistency")[1],
            "metrics_viz.dynamic_degree.s": get("metrics_viz.dynamic_degree")[1],
            "metrics_viz.slices.s": (
                get("metrics_viz.yt_slice")[1] + get("metrics_viz.write_pgm")[1]
            ),
            "tensor_core.save_tensor.s": get("tensor_core.save_tensor")[1],
            "tensor_core.save_tensor.mb": self.saved_bytes / 1e6,
            "prompts.load.s": get("prompts.load_prompts")[1],
            "trace.spans": len(self.starts),
        }

    def write_chrome_trace(self, path) -> None:
        """Chrome trace-event JSON ("X" complete events, microseconds)."""
        origin = min(self.starts) if self.starts else 0
        pid = os.getpid()
        events = []
        for i, name in enumerate(self.names):
            p = self.parents[i]
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (self.starts[i] - origin) / 1e3,
                "dur": (self.ends[i] - self.starts[i]) / 1e3,
                "pid": pid,
                "tid": 0,
                "args": {"span": i, "parent": p},
            })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh,
                      separators=(",", ":"))


def _share(part, whole) -> float:
    """part / whole, or 0.0 when the layer did no work on this workload."""
    return part / whole if whole else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]
