"""In-memory span tracer that wraps pcgn's module-level functions.

The benchmark installs a :class:`Tracer` only in its traced run.  Each
wrapped call records one span ``(name, start, end, parent, example)``;
``parent`` is the index of the enclosing span (-1 for a root) and
``example`` is the closed-loop call the benchmark was making.  Spans stay
in memory and are written out once, after the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from pcgn import autodiff, checkpoint, data, decoding, metrics, model, synthetic, training

import zipf

# (module, attribute, span name).  ``decoding`` imports ``example_forward``
# by name, so that binding is patched as well as the one in ``training``.
TARGETS = (
    (synthetic, "synthetic_records", "synthetic.records"),
    (zipf, "zipf_records", "synthetic.records"),
    (data, "build_vocab", "data.build_vocab"),
    (data, "encode_records", "data.encode_records"),
    (model, "encode_blog", "model.encode_blog"),
    (model, "encode_description", "model.encode_description"),
    (model, "lstm_step", "model.lstm_step"),
    (model, "attention_context", "model.attention_context"),
    (model, "gated_memory_step", "model.gated_memory_step"),
    (model, "decoder_step", "model.decoder_step"),
    (training, "example_forward", "training.example_forward"),
    (decoding, "example_forward", "training.example_forward"),
    (training, "sequence_loss", "training.sequence_loss"),
    (training, "sgd_update", "training.sgd_update"),
    (training, "train_epoch", "training.train_epoch"),
    (training, "dataset_perplexity", "training.dataset_perplexity"),
    (autodiff, "backprop", "autodiff.backprop"),
    (decoding, "beam_search", "decoding.beam_search"),
    (decoding, "rescore", "decoding.rescore"),
    (checkpoint, "save_checkpoint", "checkpoint.save"),
    (checkpoint, "load_checkpoint", "checkpoint.load"),
    (metrics, "bleu2", "metrics.bleu2"),
    (metrics, "meteor_lite", "metrics.meteor_lite"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.example = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.example)

    def install(self) -> None:
        for module, attr, name in TARGETS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def self_times(self) -> dict[int, float]:
        """Per span index: duration minus the time its direct children cover.

        The program is single-threaded, so children of one span never
        overlap and their durations can simply be summed.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return {i: (end - start) - child_time[i] for i, (_, start, end, _, _) in enumerate(self.spans)}

    def summary(self) -> dict[str, dict]:
        """Self seconds and call count per span name."""
        self_t = self.self_times()
        out: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "calls": 0})
        for i, (name, *_rest) in enumerate(self.spans):
            out[name]["self_s"] += self_t[i]
            out[name]["calls"] += 1
        return dict(out)

    def children_calls(self, parent_name: str, child_name: str) -> int:
        """Spans named ``child_name`` anywhere below a ``parent_name`` span."""
        names = [s[0] for s in self.spans]
        parents = [s[3] for s in self.spans]
        count = 0
        for i, name in enumerate(names):
            if name != child_name:
                continue
            p = parents[i]
            while p >= 0 and names[p] != parent_name:
                p = parents[p]
            count += p >= 0
        return count

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, example in self.spans:
                fh.write(json.dumps([name, start, end, parent, example]) + "\n")
