"""Teacher-forced training: loss assembly, SGD with gradient clipping,
seeded epoch loops."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from . import model as M
from .autodiff import NonFiniteError, Tensor
from .data import EncodedExample

__all__ = [
    "OptimizerConfig",
    "EpochStats",
    "sequence_loss",
    "example_forward",
    "token_log_probs",
    "sgd_update",
    "train_epoch",
    "dataset_perplexity",
    "fit",
]


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 0.001
    batch_size: int = 128
    clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.clip_norm <= 0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm}")


def example_forward(params: M.ModelParams, example: EncodedExample):
    """Shared encode/init work for one example.

    Returns (blog_states, desc_states, v_u, initial decoder state); each
    encoder's states come stacked once into a (T, 2H) matrix that every
    decoder step attends over.
    """
    v = params.config.variant
    blog_states = M.encode_blog(params, example.x)
    desc_states = M.encode_description(params, example.d) if v.use_coattention else None
    v_u = M.user_vector(params, example.f) if v.needs_user_vector else None
    state = M.init_decoder_state(params, blog_states, v_u)
    return blog_states, desc_states, v_u, state


def _gold_log_probs(params: M.ModelParams, example: EncodedExample) -> list[Tensor]:
    """Teacher-forced walk: one log-probability term per gold target.

    Step t consumes gold token y_{t-1} and is scored on y_t.  The bos
    anchor is input-only; the eos terminator is a scored target.
    """
    blog_states, desc_states, v_u, state = example_forward(params, example)
    terms = []
    for t in range(1, len(example.y)):
        result = M.decoder_step(params, state, example.y[t - 1], blog_states, desc_states, v_u)
        state = result.state
        terms.append(ad.pick(ad.log_softmax(result.logits), example.y[t]))
    return terms


def sequence_loss(params: M.ModelParams, example: EncodedExample) -> Tensor:
    """Negative log-likelihood of the gold comment, summed over positions
    (natural log)."""
    return ad.scale(reduce(ad.add, _gold_log_probs(params, example)), -1.0)


def token_log_probs(params: M.ModelParams, example: EncodedExample) -> np.ndarray:
    """Per-target-position gold log-probabilities (tape-free forward)."""
    return np.array([term.item() for term in _gold_log_probs(params, example)], dtype=np.float64)


def sgd_update(
    params: M.ModelParams,
    grads: dict[str, Tensor],
    lr: float,
    clip_norm: float | None = 5.0,
) -> M.ModelParams:
    """One plain SGD step with global-norm clipping.

    The clip rescales every gradient by clip_norm/||g|| only when the
    global norm exceeds the threshold, so directions are preserved.
    Raises NonFiniteError naming the parameter on a NaN/Inf gradient.
    """
    names = [name for name, _ in params.named_parameters()]
    sq_sum = 0.0
    with np.errstate(over="ignore"):
        for name in names:
            g = grads[name].array
            total = float(np.sum(g * g))
            if not math.isfinite(total) and not ad.all_finite(g):
                raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
            sq_sum += total
    norm = math.sqrt(sq_sum)
    if clip_norm is None or norm <= clip_norm:
        factor = 1.0
    elif math.isfinite(norm):
        factor = clip_norm / norm
    else:
        # Finite gradients whose squares overflow: measure the norm in units
        # of the largest magnitude instead.
        big = max(float(np.abs(grads[name].array).max(initial=0.0)) for name in names)
        root = math.sqrt(sum(float(np.sum(np.square(grads[name].array / big))) for name in names))
        factor = clip_norm / big / root
    step = lr * factor
    new_tensors = {
        name: Tensor(t.array - step * grads[name].array)
        for name, t in params.named_parameters()
    }
    return params.with_tensors(new_tensors)


@dataclass(frozen=True)
class EpochStats:
    mean_loss: float   # per-token negative log-likelihood
    tokens: int
    seconds: float

    @property
    def ppl(self) -> float:
        return math.exp(self.mean_loss)


def _batches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def train_epoch(
    params: M.ModelParams,
    dataset: Sequence[EncodedExample],
    opt: OptimizerConfig,
    epoch: int = 0,
) -> tuple[M.ModelParams, EpochStats]:
    """One pass: seeded shuffle, fixed-size batches (last one short),
    mean-of-example-sums loss per batch, one SGD step per batch."""
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    start_time = time.perf_counter()
    rng = np.random.default_rng((opt.seed, epoch))
    order = rng.permutation(len(dataset))
    total_loss = 0.0
    total_tokens = 0
    for batch_idx, batch in enumerate(_batches(len(dataset), opt.batch_size, order)):
        tape = ad.Tape()
        watched = {name: tape.watch(t) for name, t in params.named_parameters()}
        working = params.with_tensors(watched)
        example_losses = []
        for i in batch:
            ex = dataset[int(i)]
            example_losses.append(sequence_loss(working, ex))
            total_tokens += ex.target_len
        batch_loss = ad.scale(reduce(ad.add, example_losses), 1.0 / len(example_losses))
        loss_val = batch_loss.item()
        if not math.isfinite(loss_val):
            raise NonFiniteError(f"non-finite loss in batch {batch_idx} of epoch {epoch}")
        total_loss += sum(l.item() for l in example_losses)
        grad_set = ad.backprop(tape, batch_loss)
        grads = {name: grad_set[w] for name, w in watched.items()}
        params = sgd_update(params, grads, opt.lr, opt.clip_norm)
    stats = EpochStats(
        mean_loss=total_loss / total_tokens,
        tokens=total_tokens,
        seconds=time.perf_counter() - start_time,
    )
    return params, stats


def dataset_perplexity(params: M.ModelParams, dataset: Sequence[EncodedExample]) -> float:
    """exp(total NLL / total target tokens) over a dataset (tape-free).

    Raises NonFiniteError naming the first example whose loss is NaN/Inf.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate perplexity on an empty dataset")
    total = 0.0
    tokens = 0
    for i, ex in enumerate(dataset):
        loss = sequence_loss(params, ex).item()
        if not math.isfinite(loss):
            raise NonFiniteError(f"non-finite loss for example {i}")
        total += loss
        tokens += ex.target_len
    return math.exp(total / tokens)


def fit(
    params: M.ModelParams,
    train_set: Sequence[EncodedExample],
    dev_set: Sequence[EncodedExample] | None,
    opt: OptimizerConfig,
    epochs: int,
    on_epoch: Callable[[int, EpochStats, float | None], None] | None = None,
    stop_below_ppl: float | None = None,
) -> tuple[M.ModelParams, M.ModelParams, list[EpochStats]]:
    """Run epochs; returns (final params, best-dev params, history).

    Best-dev is tracked by dev perplexity when a dev set is given,
    otherwise by train perplexity.  ``stop_below_ppl`` ends training early
    once the tracked perplexity drops under the threshold.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    history: list[EpochStats] = []
    best = params
    best_ppl = math.inf
    for epoch in range(epochs):
        params, stats = train_epoch(params, train_set, opt, epoch)
        tracked = dataset_perplexity(params, dev_set) if dev_set else stats.ppl
        if on_epoch is not None:
            on_epoch(epoch, stats, tracked if dev_set else None)
        history.append(stats)
        if tracked < best_ppl:
            best_ppl = tracked
            best = params
        if stop_below_ppl is not None and tracked < stop_below_ppl:
            break
    return params, best, history
