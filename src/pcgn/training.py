"""Teacher-forced training: loss assembly, SGD with gradient clipping,
seeded epoch loops.

Every loss comes from one teacher-forced walk, :func:`gold_log_probs`,
over a block of examples.  The block steps as one row block: the encoders
run all its blogs (and descriptions) together, each decoder step runs one
row per example, and each row's attention keeps only its own example's
encoder states (an attention mask).  A block of one example runs on vectors,
the engine's one-row form.  The walk sums its rows into one loss and never
compares a row with a one-row run, so it needs no row exactness: over a
block of two or more examples, the encoders' recurrence and every decoder
step apply each weight as one matrix product (``exact=False``).  Only the
initial state and the user vector, made once per walk, keep row-exact
products.  A one-example walk's vector products are ``w @ x`` either way,
so its steps' values do not depend on the flag.  The steps run only the
decoder's recurrent part (``model.decoder_advance``): the output layer
feeds no later step, so the walk applies it once, after the last step, to
every scored row together (``ad.matvec``, ``exact=False``).  Decoding keeps
``model.decoder_step``, whose row-exact products make each beam row's
logits independent of the rows beside it.  ``sequence_loss`` and
``token_log_probs`` walk one example.  ``dataset_perplexity`` walks
:data:`SCORE_BLOCK` consecutive examples at a time (see there).

The walk is two pieces: :func:`_decoder_walk` steps the decoder, and
:func:`_gold_head` runs the output layer and the gold log-softmax.
Training splits them.  ``train_epoch`` runs one one-example decoder
walk per example of a batch, then one head over every scored row of
the batch: one output-layer product per weight, one ``log_softmax_at``
and one sum, whatever the batch size.  The decoder walks do not yet run
as one block.  They share one :func:`example_forward` cache per batch,
which lives as long as the batch's tape: each distinct blog's encoder
states and initial decoder layers, and each distinct author's
description states and user vector, are computed once per batch and
read by every example that has them.  Every other caller computes
everything afresh.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from . import model as M
from .autodiff import NonFiniteError, Tensor
from .data import EncodedExample

__all__ = [
    "OptimizerConfig",
    "EpochStats",
    "SCORE_BLOCK",
    "gold_log_probs",
    "sequence_loss",
    "example_forward",
    "token_log_probs",
    "sgd_update",
    "train_epoch",
    "dataset_perplexity",
    "fit",
]

# Examples per teacher-forced walk in dataset_perplexity.
SCORE_BLOCK = 16


@dataclass(frozen=True)
class OptimizerConfig:
    lr: float = 0.001
    batch_size: int = 128
    clip_norm: float = 5.0
    seed: int = 0

    def __post_init__(self):
        for name in ("batch_size", "seed"):
            val = getattr(self, name)
            if not isinstance(val, int) or isinstance(val, bool):
                raise ValueError(f"{name} must be an integer, got {val!r}")
        # NaN fails these checks too.
        if not 0 <= self.lr < math.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.clip_norm < math.inf:
            raise ValueError(f"clip_norm must be finite and positive, got {self.clip_norm}")


def _block_lengths(examples: Sequence[EncodedExample]) -> tuple[list[int] | None, list[int] | None]:
    """Each example's blog and description lengths, for the model functions.

    (None, None) for a single example: the model then runs it on vectors,
    the engine's one-row form, which costs less per op than a one-row
    block.  Everything downstream keys on that None.
    """
    if len(examples) == 1:
        return None, None
    return [len(ex.x) for ex in examples], [len(ex.d) for ex in examples]


def example_forward(params: M.ModelParams, examples: Sequence[EncodedExample], cache: dict | None = None):
    """Shared encode/init work for a block of examples.

    Returns (blog_states, desc_states, v_u, initial decoder state).  Each
    encoder's states are one (T, 2H) matrix holding the examples' rows one
    after another, which every decoder step attends over; v_u and the
    state have one row per example (vectors for a single example, see
    :func:`_block_lengths`).

    The work is looked up in ``cache`` (a fresh dict when None): the blogs
    by their token ids, the authors by their description ids and feature
    bytes, never by ``user_id``.  Only what is missing is computed, in
    this order: blog encoder, description encoder, user vector, initial
    (h, c) layers.  Blogs seen before reuse their states and initial
    layers, authors their description states and v_u; M_0 is always the
    example's own v_u.  A block is looked up as a whole, so a block of two
    or more examples encodes each of its rows, repeated or not.  Cached
    tensors stay on the tape that made them, so a cache must live no
    longer than one tape and one parameter set (``_batch_gradients``).
    """
    v = params.config.variant
    x_lens, d_lens = _block_lengths(examples)
    cache = {} if cache is None else cache
    # The keys hold every example's ids, so they fix the lengths too.
    blog_key = ("blog", tuple(tuple(ex.x) for ex in examples))
    author_key = ("author", tuple((tuple(ex.d), np.asarray(ex.f).tobytes()) for ex in examples))
    blog = cache.get(blog_key)
    if blog is None:
        blog_states = M.encode_blog(params, [i for ex in examples for i in ex.x], x_lens)
    if author_key not in cache:
        desc_states = None
        if v.use_coattention:
            desc_states = M.encode_description(params, [i for ex in examples for i in ex.d], d_lens)
        v_u = None
        if v.needs_user_vector:
            v_u = M.user_vector(params, examples[0].f if x_lens is None else np.stack([ex.f for ex in examples]))
        cache[author_key] = desc_states, v_u
    desc_states, v_u = cache[author_key]
    if blog is None:
        blog = cache[blog_key] = blog_states, M.init_decoder_state(params, blog_states, v_u, x_lens).layers
    blog_states, layers = blog
    state = M.DecoderState(layers=layers, memory=v_u if v.use_gated_memory else None)
    return blog_states, desc_states, v_u, state


def _own_rows(lengths: list[int] | None) -> np.ndarray | None:
    """(B, sum(lengths)) mask: row b keeps example b's encoder states.

    None for a single example (``lengths`` None), whose row keeps them all.
    """
    if lengths is None:
        return None
    owner = np.repeat(np.arange(len(lengths)), lengths)
    return owner[None, :] == np.arange(len(lengths))[:, None]


class _Walk(NamedTuple):
    """A teacher-forced decoder walk's scored rows, before the output head.

    ``tops`` and ``contexts`` hold each step's top decoder state and, for
    the external variants, description context: vectors for one example,
    row blocks for a block.  ``keep`` picks the scored rows of their
    stack (None: every row).  ``users`` are user vectors whose rows,
    stacked, give one row per example.  ``targets`` and ``owner`` give
    each scored row's gold token and example index.
    """

    tops: list[Tensor]
    contexts: list[Tensor]
    users: list[Tensor | None]
    keep: np.ndarray | None
    targets: np.ndarray
    owner: np.ndarray


def _decoder_walk(params: M.ModelParams, examples: Sequence[EncodedExample], cache: dict | None = None) -> _Walk:
    """The decoder half of :func:`gold_log_probs`: every step of a block's
    teacher-forced walk, up to the output head.  ``cache`` as for
    :func:`example_forward`."""
    blog_states, desc_states, v_u, state = example_forward(params, examples, cache)
    x_lens, d_lens = _block_lengths(examples)
    blog_mask = _own_rows(x_lens)
    desc_mask = None if desc_states is None else _own_rows(d_lens)
    if x_lens is None:
        # A single example steps on vectors, so its inputs are ints, and
        # every step scores it.
        gold = np.asarray(examples[0].y, dtype=np.intp)
        inputs, targets = gold[:-1].tolist(), gold[1:]
        owner, keep = np.zeros(len(targets), dtype=np.intp), None
    else:
        gold = np.zeros((len(examples), max(len(ex.y) for ex in examples)), dtype=np.intp)
        for row, ex in zip(gold, examples):
            row[: len(ex.y)] = ex.y
        target_lens = np.array([len(ex.y) - 1 for ex in examples])
        # scored[t - 1, b]: step t scores example b.
        scored = (np.arange(1, gold.shape[1]) <= target_lens[:, None]).T
        owner = np.nonzero(scored)[1]
        inputs, targets = gold[:, :-1].T, gold[:, 1:].T[scored]
        # Rows step-major, as ``scored`` flattens; keep only the scored ones.
        keep = None if scored.all() else np.flatnonzero(scored)
    external = params.config.variant.use_external
    tops, contexts = [], []
    for prev in inputs:
        state, _, desc_attn = M.decoder_advance(
            params, state, prev, blog_states, desc_states, v_u, blog_mask, desc_mask, exact=False
        )
        tops.append(state.top_h)
        if external:
            contexts.append(desc_attn.context)
    return _Walk(tops, contexts, [v_u], keep, targets, owner)


def _gold_head(params: M.ModelParams, walk: _Walk) -> Tensor:
    """The output head of :func:`gold_log_probs`: every scored row's gold
    log-probability, each op one tape entry whatever the rows.  No later
    step reads the output layer, so it runs once over every scored row:
    one matrix product per weight."""

    def scored_rows(steps: list[Tensor]) -> Tensor:
        stacked = ad.stack_rows(steps)
        return stacked if walk.keep is None else ad.embedding_lookup(stacked, walk.keep)

    user_rows = desc_context = None
    if params.config.variant.use_external:
        # stack_rows makes one example's v_u vector a one-row block.
        user_rows = ad.embedding_lookup(ad.stack_rows(walk.users), walk.owner)
        desc_context = scored_rows(walk.contexts)
    logits = M.output_layer(params, scored_rows(walk.tops), user_rows, desc_context, exact=False)
    return ad.log_softmax_at(logits, walk.targets)


def gold_log_probs(params: M.ModelParams, examples: Sequence[EncodedExample]) -> tuple[Tensor, np.ndarray]:
    """One teacher-forced walk over a block: every gold target's log-probability.

    Step t feeds each example its gold token y_{t-1} and scores y_t; the
    bos anchor is input-only, the eos terminator a scored target.  An
    example whose comment has ended keeps stepping on token 0 and is not
    scored.  Returns (terms, owner): ``terms`` holds every example's
    target_len log-probabilities, step after step and, within a step, in
    example order; ``owner[j]`` is the example index of ``terms[j]``.  For
    one example, terms are its positions in order.  The walk is
    :func:`_decoder_walk` then :func:`_gold_head`.
    """
    walk = _decoder_walk(params, examples)
    return _gold_head(params, walk), walk.owner


def sequence_loss(params: M.ModelParams, example: EncodedExample) -> Tensor:
    """Negative log-likelihood of the gold comment, summed over positions
    (natural log)."""
    terms, _ = gold_log_probs(params, [example])
    return ad.scale(ad.sum_all(terms), -1.0)


def token_log_probs(params: M.ModelParams, example: EncodedExample) -> np.ndarray:
    """Per-target-position gold log-probabilities (tape-free forward)."""
    return gold_log_probs(params, [example])[0].array


def sgd_update(
    params: M.ModelParams,
    grads: dict[str, Tensor],
    lr: float,
    clip_norm: float = 5.0,
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
            total = float(np.add.reduce(g * g, axis=None))  # np.sum without its Python wrapper
            if not math.isfinite(total) and not ad.all_finite(g):
                raise NonFiniteError(f"non-finite gradient for parameter {name!r}")
            sq_sum += total
    norm = math.sqrt(sq_sum)
    if norm <= clip_norm:
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
        return _perplexity(self.mean_loss)


def _perplexity(mean_nll: float) -> float:
    """exp(mean NLL per token).  Raises NonFiniteError naming the mean
    when that overflows a float (above about 709.78 nats per token)."""
    try:
        return math.exp(mean_nll)
    except OverflowError:
        raise NonFiniteError(f"perplexity overflows: mean NLL is {mean_nll!r} nats per token") from None


def _batches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def _batch_gradients(
    params: M.ModelParams, examples: Sequence[EncodedExample], where: str
) -> tuple[float, dict[str, Tensor], list[float]]:
    """A batch's mean example loss, its gradients, and each example's loss.

    Each example runs its own one-example :func:`_decoder_walk`, and the
    walks share one :func:`example_forward` cache for this batch's tape: a
    blog or author that recurs in the batch is encoded once, and backprop
    sums the gradients its readers send back.  Then one
    :func:`_gold_head` scores every row of the batch, the examples' rows
    one after another.  The loss is the mean of the example sums,
    ``-sum(terms) / B``, and each example's loss sums its own terms.  The
    batch's tape and cache die on return, so the forward values they hold
    are freed before the caller's update allocates the new parameters.
    """
    tape = ad.Tape()
    watched = {name: tape.watch(t) for name, t in params.named_parameters()}
    working = params.with_tensors(watched)
    cache: dict = {}
    walks = [_decoder_walk(working, [ex], cache) for ex in examples]
    # The walks laid end to end: every row of a one-example walk is scored.
    batch = _Walk(
        tops=[t for w in walks for t in w.tops],
        contexts=[c for w in walks for c in w.contexts],
        users=[u for w in walks for u in w.users],
        keep=None,
        targets=np.concatenate([w.targets for w in walks]),
        owner=np.repeat(np.arange(len(walks)), [len(w.targets) for w in walks]),
    )
    terms = _gold_head(working, batch)
    batch_loss = ad.scale(ad.sum_all(terms), -1.0 / len(examples))
    if not math.isfinite(batch_loss.item()):
        raise NonFiniteError(f"non-finite loss in {where}")
    grad_set = ad.backprop(tape, batch_loss)
    example_losses = -np.bincount(batch.owner, weights=terms.array, minlength=len(examples))
    return batch_loss.item(), {name: grad_set[w] for name, w in watched.items()}, example_losses.tolist()


def train_epoch(
    params: M.ModelParams,
    dataset: Sequence[EncodedExample],
    opt: OptimizerConfig,
    epoch: int = 0,
) -> tuple[M.ModelParams, EpochStats]:
    """One pass: seeded shuffle, fixed-size batches (last one short),
    mean-of-example-sums loss per batch, one SGD step per batch.

    Within a batch, each distinct blog and each distinct author is encoded
    once (see :func:`_batch_gradients`); nothing is shared across batches,
    whose parameters differ."""
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    start_time = time.perf_counter()
    rng = np.random.default_rng((opt.seed, epoch))
    order = rng.permutation(len(dataset))
    total_loss = 0.0
    total_tokens = 0
    for batch_idx, batch in enumerate(_batches(len(dataset), opt.batch_size, order)):
        examples = [dataset[int(i)] for i in batch]
        _, grads, example_losses = _batch_gradients(params, examples, f"batch {batch_idx} of epoch {epoch}")
        total_tokens += sum(ex.target_len for ex in examples)
        total_loss += sum(example_losses)
        params = sgd_update(params, grads, opt.lr, opt.clip_norm)
    stats = EpochStats(
        mean_loss=total_loss / total_tokens,
        tokens=total_tokens,
        seconds=time.perf_counter() - start_time,
    )
    return params, stats


def dataset_perplexity(params: M.ModelParams, dataset: Sequence[EncodedExample]) -> float:
    """exp(total NLL / total target tokens) over a dataset (tape-free),
    or NonFiniteError when that overflows (see :func:`_perplexity`).

    Walks :data:`SCORE_BLOCK` consecutive examples at a time through
    :func:`gold_log_probs`.  Each example's loss sums its own terms in
    position order, and the losses are added in dataset order.  Raises
    NonFiniteError naming the first example whose loss is NaN/Inf, as
    scored on its own.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate perplexity on an empty dataset")
    total = 0.0
    tokens = 0
    for start in range(0, len(dataset), SCORE_BLOCK):
        block = dataset[start : start + SCORE_BLOCK]
        terms, owner = gold_log_probs(params, block)
        losses = -np.bincount(owner, weights=terms.array, minlength=len(block))
        for i, (ex, loss) in enumerate(zip(block, losses.tolist())):
            if not math.isfinite(loss):
                # The block's rows share its encoder states, and a NaN there
                # reaches every row's attention context (0 * NaN), so score
                # the examples alone to name the first bad one.
                bad = next((j for j, e in enumerate(block) if not math.isfinite(sequence_loss(params, e).item())), i)
                raise NonFiniteError(f"non-finite loss for example {start + bad}")
            total += loss
            tokens += ex.target_len
    return _perplexity(total / tokens)


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
    once the tracked perplexity drops under the threshold; 0 never stops.
    """
    if not isinstance(epochs, int) or isinstance(epochs, bool) or epochs < 1:
        raise ValueError(f"epochs must be an integer >= 1, got {epochs!r}")
    if stop_below_ppl is not None and not 0 <= stop_below_ppl < math.inf:  # NaN fails too
        raise ValueError(f"stop_below_ppl must be finite and >= 0, got {stop_below_ppl}")
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
