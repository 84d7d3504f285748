"""Beam-search decoding.

Beam search walks a step function ``(states, parents, prev_ids) ->
((len(parents), V) log_probs, states)`` so the search logic is independent
of the network.  Each call advances the whole live beam at once: row r of
the result extends the hypothesis whose state is row ``parents[r]`` of
``states`` with token ``prev_ids[r]``, and the returned states hold one row
per child, in that order.  :class:`DecodeSession` adapts a model to that
interface: one batched ``decoder_step`` per beam step, with the unk mask
applied to the whole block.  Scores are sums of token log-probabilities,
including the eos step.  Ties are broken toward the lexicographically
smaller token-id sequence, which makes a width-1 beam exactly greedy
decoding: at each step it takes the most probable token, the lowest id
among equals.

Each step picks its candidates with one exact top-k over the (live
hypotheses x V) score array: everything scoring at least the
beam_size-th best score survives, ties included, and only those
survivors are sorted by that tie-break.  That gives the same beam as
sorting every candidate.

A step passes over that (live x V) block about ten times and allocates
four arrays of its size.  The session checks the logits, masks unk and
runs the engine's log-softmax kernel, ``ad._log_softmax``, in place on
them.  The search adds the parents' log-probs into a new totals array,
divides it by the length term only when length_norm is not 0, and picks
survivors with one ``np.partition`` (a copy) and one ``np.flatnonzero``
of a comparison.
It never writes into the array the step function returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from . import model as M
from .autodiff import NonFiniteError, all_finite
from .training import example_forward

__all__ = [
    "DecodeConfig",
    "DecodeInput",
    "Hypothesis",
    "DecodeSession",
    "beam_search",
    "beam_search_steps",
    "rescore",
]

# (states, parents, prev_ids) -> ((len(parents), V) log-probs, child states)
StepFn = Callable[[object, Sequence[int], Sequence[int]], tuple[np.ndarray, object]]


@dataclass(frozen=True)
class DecodeInput:
    """Conditioning inputs for generation (no gold comment needed)."""

    x: tuple[int, ...]
    f: np.ndarray
    d: tuple[int, ...]
    user_id: str = ""


@dataclass(frozen=True)
class DecodeConfig:
    """Beam width, length budget, and the length-normalization exponent.

    Candidates are ranked by log_prob / len(tokens)**length_norm; the
    default exponent 0 ranks by raw log-probability.
    """

    beam_size: int = 10
    max_len: int = 20
    length_norm: float = 0.0

    def __post_init__(self):
        for name in ("beam_size", "max_len"):
            val = getattr(self, name)
            if not isinstance(val, int) or isinstance(val, bool):
                raise ValueError(f"{name} must be an integer, got {val!r}")
        if self.beam_size < 1:
            raise ValueError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")
        if not 0 <= self.length_norm < math.inf:  # NaN fails too
            raise ValueError(f"length_norm must be finite and >= 0, got {self.length_norm}")


def _normalized(log_prob, length: int, length_norm: float):
    """``log_prob / length ** length_norm``, the score beam search ranks by;
    at length_norm 0 the divisor is exactly 1.0, so the score is log_prob."""
    return log_prob / length ** length_norm


@dataclass(frozen=True)
class Hypothesis:
    """A (possibly finished) decoded prefix.

    ``tokens`` includes the trailing eos when finished; ``log_prob`` is the
    sum over all steps taken, eos included.
    """

    tokens: tuple[int, ...]
    log_prob: float
    finished: bool

    @property
    def content_tokens(self) -> tuple[int, ...]:
        """Tokens without the eos terminator."""
        return self.tokens[:-1] if self.finished else self.tokens

    def score(self, length_norm: float = 0.0) -> float:
        return _normalized(self.log_prob, max(len(self.tokens), 1), length_norm)


def _map_state(state: M.DecoderState, fn) -> M.DecoderState:
    """The state with ``fn`` applied to each of its tensors."""
    return M.DecoderState(
        layers=tuple((fn(h), fn(c)) for h, c in state.layers),
        memory=None if state.memory is None else fn(state.memory),
        step=state.step,
    )


class DecodeSession:
    """Precomputed encoder/user work for decoding one (blog, user) pair.

    States are row blocks, one row per hypothesis; the initial state is a
    single row.  Step log-probabilities are plain (rows, V) numpy arrays
    with the unk id (when the config has one) masked to -inf so it can
    never be emitted.  A NaN/Inf logit raises NonFiniteError naming the
    decode step (0 for the first).
    """

    def __init__(self, params: M.ModelParams, example):
        self.params = params
        self.config = params.config
        blog_states, desc_states, v_u, initial = example_forward(params, [example])
        self._blog_states, self._desc_states = blog_states, desc_states

        def one_row(t):
            return ad.stack_rows([t])

        # Each step gathers its state rows from these by parent index.
        self._initial = _map_state(initial, one_row)
        # Every row reads the same v_u: rows for the widest step so far,
        # which each step slices.
        self._users = None if v_u is None else one_row(v_u)

    def initial_state(self) -> M.DecoderState:
        return self._initial

    def step(self, state: M.DecoderState, parents: Sequence[int], prev_ids: Sequence[int]) -> tuple[np.ndarray, M.DecoderState]:
        parents = np.asarray(parents, dtype=np.intp)
        rows = _map_state(state, lambda t: ad.embedding_lookup(t, parents))
        v_u = None if self._users is None else self._user_rows(len(parents))
        result = M.decoder_step(
            self.params, rows, np.asarray(prev_ids, dtype=np.intp), self._blog_states, self._desc_states, v_u
        )
        # These logits are this call's own: mask and normalize them in place.
        logits = result.logits.array
        if not all_finite(logits):
            raise NonFiniteError(f"non-finite logits at decode step {state.step}")
        unk = self.config.unk_id
        if unk is not None:
            logits[:, unk] = -np.inf
        return ad._log_softmax(logits, out=logits), result.state

    def _user_rows(self, rows: int) -> ad.Tensor:
        """``rows`` copies of v_u as a block (a view of the widest so far)."""
        if rows > len(self._users.array):
            self._users = ad.embedding_lookup(self._users, np.zeros(rows, dtype=np.intp))
        return ad._wrap(self._users.array[:rows])


def beam_search_steps(
    step_fn: StepFn,
    initial_state,
    bos_id: int,
    eos_id: int,
    vocab_size: int,
    config: DecodeConfig,
) -> list[Hypothesis]:
    """Beam search over a batched step function (see :data:`StepFn`).

    Keeps the beam_size best unfinished prefixes per step; finished
    hypotheses move to a pool.  Returns up to beam_size hypotheses sorted
    by score (ties: lexicographically smaller token sequence first),
    padding with the best unfinished prefixes when fewer than beam_size
    finish.

    Each step is one ``step_fn`` call for the whole live beam: the first
    passes ``initial_state`` with ``parents=[0]``, and each later call
    passes the states the previous call returned with every survivor's
    row in them.  The call scores every (live hypothesis, token) pair at
    once as a (live, V) array: the parent's log_prob plus the step
    log-prob, divided by len(tokens)**length_norm, which all live
    prefixes share (at length_norm 0 that divisor is 1, so no division
    is made).  Tokens with step log-prob -inf are never
    candidates.  An exact top-k keeps every candidate scoring at least
    the beam_size-th best score, so all ties at that boundary survive;
    only those survivors become token tuples, and they are sorted by
    (score descending, tokens ascending).  The result is the same as
    fully sorting all V x live candidates.

    Early stop ("pruning") fires only with length_norm == 0, where scores
    can only fall with length: once beam_size hypotheses are pooled and
    the best live prefix already scores strictly below the pool's worst
    member, no extension can enter the result.
    """
    beam: list[Hypothesis] = [Hypothesis((), 0.0, False)]
    states, parents = initial_state, [0]
    pool: list[Hypothesis] = []
    can_prune = config.length_norm == 0.0

    for _ in range(config.max_len):
        prev_ids = [h.tokens[-1] if h.tokens else bos_id for h in beam]
        step_lp, states = step_fn(states, parents, prev_ids)
        if step_lp.shape != (len(beam), vocab_size):
            raise ValueError(f"step function returned {step_lp.shape}, expected ({len(beam)}, {vocab_size})")
        totals = (step_lp + np.array([h.log_prob for h in beam])[:, None]).ravel()
        scores = _normalized(totals, len(beam[0].tokens) + 1, config.length_norm) if config.length_norm else totals
        cut = scores.size - min(config.beam_size, scores.size)
        threshold = np.partition(scores, cut)[cut]
        # A -inf threshold means fewer than beam_size candidates are allowed.
        survivors = np.flatnonzero(scores >= threshold if threshold > -np.inf else scores > threshold)
        if survivors.size == 0:
            break
        candidates: list[tuple[float, tuple[int, ...], float, int]] = []
        for flat in survivors.tolist():
            row, tok = divmod(flat, vocab_size)
            candidates.append((float(scores[flat]), beam[row].tokens + (tok,), float(totals[flat]), row))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        beam, parents = [], []
        for scored, toks, raw, row in candidates[: config.beam_size]:
            if toks[-1] == eos_id:
                pool.append(Hypothesis(toks, raw, True))
            else:
                beam.append(Hypothesis(toks, raw, False))
                parents.append(row)
        if not beam:
            break
        if can_prune and len(pool) >= config.beam_size:
            worst_pooled = sorted(h.log_prob for h in pool)[-config.beam_size]
            best_live = max(h.log_prob for h in beam)
            if best_live < worst_pooled:
                break

    def rank_key(h: Hypothesis):
        return (-h.score(config.length_norm), h.tokens)

    ranked = sorted(pool, key=rank_key)[: config.beam_size]
    if len(ranked) < config.beam_size and beam:
        leftovers = sorted(beam, key=rank_key)
        ranked.extend(leftovers[: config.beam_size - len(ranked)])
    return ranked


def beam_search(params: M.ModelParams, example, config: DecodeConfig = DecodeConfig()) -> list[Hypothesis]:
    """Beam-search decoding for one encoded input."""
    session = DecodeSession(params, example)
    cfg = params.config
    return beam_search_steps(session.step, session.initial_state(), cfg.bos_id, cfg.eos_id, cfg.vocab_size, config)


def rescore(params: M.ModelParams, example, hypothesis: Hypothesis) -> float:
    """Teacher-force the hypothesis tokens and sum their log-probabilities.

    Matches Hypothesis.log_prob to float tolerance for any hypothesis beam
    search emits on the same inputs, at any width.
    """
    session = DecodeSession(params, example)
    state = session.initial_state()
    prev = params.config.bos_id
    total = 0.0
    for tok in hypothesis.tokens:
        lp, state = session.step(state, [0], [prev])
        total += float(lp[0, tok])
        prev = tok
    return total
