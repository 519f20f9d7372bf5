"""Spans around qsumm's public functions, recorded from outside the package.

Each traced function is replaced, for the length of a `Tracer.installed()`
block, at the module attribute where its caller looks it up: for example
`qsumm.generator.bilstm_forward` (the name the generator calls) and
`qsumm.evaluation.max_weight_matching` (the name `evaluate` calls).  The
backward closures that `qsumm.layers` hands to `tensor.record` are
wrapped by replacing `qsumm.layers.record`.  Nothing in `src/` changes.

A span is (name, parent, start, end, attrs).  Spans stay in memory and
are written out as JSON lines when the run ends.  A span's self time is
its duration minus the durations of its direct children; children never
overlap because qsumm is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time

import numpy as np


def _rows(x):
    return int(np.shape(getattr(x, "data", x))[0])


def _split_pairs(gparams, corpus, split, *a, **k):
    return {"pairs": [(v.video_id, i) for v in corpus.split_videos(split)
                      for i in range(len(v.queries))]}


# module, attribute looked up by the caller, span name,
# attrs(*args, **kwargs) -> dict of counts recorded on the span, or None
SITES = [
    ("qsumm.training", "train", "training.train", None),
    ("qsumm.training", "sample_batch", "dataset.sample_batch", None),
    ("qsumm.training", "generator_forward", "generator.forward", None),
    ("qsumm.evaluation", "generator_forward", "generator.forward", None),
    ("qsumm.cli", "generator_forward", "generator.forward", None),
    ("qsumm.generator", "g_r_fuse", "generator.fuse", None),
    ("qsumm.generator", "g_e_encode", "generator.encode", None),
    ("qsumm.generator", "g_p_score", "generator.score", None),
    ("qsumm.generator", "bilstm_forward", "layers.bilstm_forward", None),
    ("qsumm.discriminator", "bilstm_forward", "layers.bilstm_forward", None),
    ("qsumm.layers", "lstm_sequence", "layers.lstm_sequence",
     lambda seq, params: {"steps": _rows(seq)}),
    ("qsumm.generator", "batchnorm_forward", "layers.batchnorm_forward", None),
    ("qsumm.discriminator", "batchnorm_forward", "layers.batchnorm_forward", None),
    ("qsumm.training", "critic", "discriminator.critic",
     lambda *a, **k: {"branches": 1}),
    ("qsumm.training", "critic_scores", "discriminator.critic",
     lambda summs, *a, **k: {"branches": len(summs)}),
    ("qsumm.training", "rmsprop_step", "optim.rmsprop_step", None),
    ("qsumm.training", "clip_weights", "optim.clip_weights", None),
    ("qsumm.training", "save_checkpoint", "training.save_checkpoint", None),
    ("qsumm.training", "load_checkpoint", "training.load_checkpoint",
     lambda path: {"bytes": os.path.getsize(path)}),
    ("qsumm.training", "matrix_from_bytes", "matrix_io.read",
     lambda buf, *a, **k: {"bytes": len(buf)}),
    ("qsumm.dataset", "load_feature_matrix", "matrix_io.read",
     lambda path: {"bytes": os.path.getsize(path)}),
    ("qsumm.cli", "load_corpus", "dataset.load_corpus", None),
    ("qsumm.evaluation", "evaluate", "evaluation.evaluate", _split_pairs),
    ("qsumm.evaluation", "max_weight_matching", "evaluation.matching",
     lambda w: {"side": max(np.shape(w))}),
    ("qsumm.evaluation", "iou", "evaluation.iou", None),
    ("qsumm.tensor", "Tape.backward", "tensor.backward",
     lambda tape, loss: {"nodes": len(tape.nodes)}),
]

# backward closures handed to tensor.record, keyed by their __qualname__
CLOSURES = {
    "lstm_sequence.<locals>.bwd": "layers.lstm_bptt",
    "batchnorm_forward.<locals>.bwd": "layers.batchnorm_bwd",
}

# per-layer metric -> (unit, better, how it is derived from the spans)
LAYER_METRICS = {
    "generator.fuse_ms": ("ms/op", "lower", ("self", "generator.fuse")),
    "generator.encode_ms": ("ms/op", "lower", ("self", "generator.encode")),
    "generator.score_ms": ("ms/op", "lower", ("self", "generator.score")),
    "generator.forward_calls": ("1/op", "lower", ("count", "generator.forward")),
    "layers.lstm_fwd_ms": ("ms/op", "lower",
                           ("self", "layers.bilstm_forward", "layers.lstm_sequence")),
    "layers.lstm_fwd_steps": ("1/op", "lower", ("attr", "steps", "layers.lstm_sequence")),
    "layers.lstm_bptt_ms": ("ms/op", "lower", ("self", "layers.lstm_bptt")),
    "layers.batchnorm_ms": ("ms/op", "lower",
                            ("self", "layers.batchnorm_forward", "layers.batchnorm_bwd")),
    "discriminator.critic_ms": ("ms/op", "lower", ("self", "discriminator.critic")),
    "discriminator.summary_branches": ("1/op", "lower",
                                       ("attr", "branches", "discriminator.critic")),
    "tensor.backward_ms": ("ms/op", "lower", ("self", "tensor.backward")),
    "tensor.tape_nodes": ("1/op", "lower", ("attr", "nodes", "tensor.backward")),
    "optim.rmsprop_ms": ("ms/op", "lower", ("self", "optim.rmsprop_step")),
    "optim.clip_ms": ("ms/op", "lower", ("self", "optim.clip_weights")),
    "dataset.sample_batch_ms": ("ms/op", "lower", ("self", "dataset.sample_batch")),
    "dataset.load_corpus_ms": ("ms/op", "lower", ("self", "dataset.load_corpus")),
    "training.train_self_ms": ("ms/op", "lower", ("self", "training.train")),
    "training.save_checkpoint_ms": ("ms/op", "lower", ("self", "training.save_checkpoint")),
    "training.load_checkpoint_ms": ("ms/op", "lower", ("self", "training.load_checkpoint")),
    "training.checkpoint_bytes": ("bytes/op", "lower",
                                  ("attr", "bytes", "training.load_checkpoint")),
    "matrix_io.read_ms": ("ms/op", "lower", ("self", "matrix_io.read")),
    "matrix_io.read_bytes": ("bytes/op", "lower", ("attr", "bytes", "matrix_io.read")),
    "evaluation.matching_ms": ("ms/op", "lower", ("self", "evaluation.matching")),
    "evaluation.matching_calls": ("1/op", "lower", ("count", "evaluation.matching")),
    "evaluation.matching_side_max": ("count", "lower", ("max", "side", "evaluation.matching")),
    "evaluation.iou_calls": ("1/op", "lower", ("count", "evaluation.iou")),
    "evaluation.iou_ms": ("ms/op", "lower", ("self", "evaluation.iou")),
    "evaluation.evaluate_self_ms": ("ms/op", "lower", ("self", "evaluation.evaluate")),
    "evaluation.forward_reuse": ("ratio", "higher", ("reuse",)),
}


class Tracer:
    """Collects spans while installed; computes per-layer metrics afterwards."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, attrs]
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0,
                   attrs(*args, **kwargs) if attrs is not None else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span around benchmark code, such as one round of operations."""
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self):
        """Replace every traced site for the duration of the block."""
        with contextlib.ExitStack() as undo:
            for module, attr, name, attrs in SITES:
                owner = importlib.import_module(module)
                if "." in attr:
                    cls_name, attr = attr.split(".")
                    owner = getattr(owner, cls_name)
                traced = self.wrap(name, getattr(owner, attr), attrs)
                undo.enter_context(replaced(owner, attr, traced))
            layers = importlib.import_module("qsumm.layers")
            real_record = layers.record

            def record(out, inputs, backward):
                name = CLOSURES.get(getattr(backward, "__qualname__", ""))
                if name is not None:
                    backward = self.wrap(name, backward)
                return real_record(out, inputs, backward)

            undo.enter_context(replaced(layers, "record", record))
            yield self

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": start, "end": end, "attrs": attrs or {}}))
                fh.write("\n")

    def layer_metrics(self, n_ops: int) -> dict:
        """Every LAYER_METRICS value, per operation over the traced rounds."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, parent, start, end, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms, count, attr_sum, attr_max = {}, {}, {}, {}
        for i, (name, parent, start, end, attrs) in enumerate(spans):
            self_ms[name] = self_ms.get(name, 0.0) + (end - start - child[i]) * 1e3
            count[name] = count.get(name, 0) + 1
            for key, value in (attrs or {}).items():
                if isinstance(value, (int, float)):
                    attr_sum[name, key] = attr_sum.get((name, key), 0) + value
                    attr_max[name, key] = max(attr_max.get((name, key), 0), value)
        out = {}
        for metric, (unit, _, rule) in LAYER_METRICS.items():
            kind, *args = rule
            if kind == "self":
                value = sum(self_ms.get(n, 0.0) for n in args) / n_ops
            elif kind == "count":
                value = count.get(args[0], 0) / n_ops
            elif kind == "attr":
                value = attr_sum.get((args[1], args[0]), 0) / n_ops
            elif kind == "max":
                value = attr_max.get((args[1], args[0]), 0)
            else:
                value = self._forward_reuse()
            out[metric] = {"value": value, "unit": unit}
        return out

    def _forward_reuse(self) -> float:
        """Distinct (video, query) pairs evaluated per round, summed over
        rounds, divided by the generator forwards run inside `evaluate`;
        0 when no evaluate span ran."""
        spans = self.spans

        def ancestor(i, name):
            while i >= 0 and spans[i][0] != name:
                i = spans[i][1]
            return i

        pairs, forwards = set(), 0
        for i, (name, parent, _, _, attrs) in enumerate(spans):
            if name == "evaluation.evaluate":
                root = ancestor(i, "bench.round")
                pairs.update((root, pair) for pair in attrs["pairs"])
            elif name == "generator.forward" and ancestor(parent, "evaluation.evaluate") >= 0:
                forwards += 1
        return len(pairs) / forwards if forwards else 0.0


@contextlib.contextmanager
def replaced(owner, attr, value):
    """Set `owner.attr` to `value` for the length of the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)
