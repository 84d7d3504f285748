"""Shared fixtures and builders for the test suite."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from pcgn import autodiff as ad
from pcgn import data as D
from pcgn import decoding as Dec
from pcgn import model as M
from pcgn import training as T


def weighted_sum(out, mix):
    """sum(out * mix) for a constant ``mix`` of out's shape, built from ops
    the program records: out's rows read with ``embedding_lookup`` and
    joined with ``concat`` (a vector is used as it is), then one one-row
    ``matvec`` against the flattened mix, then ``sum_all``."""
    flat = out
    if out.array.ndim == 2:
        flat = ad.concat([ad.embedding_lookup(out, r) for r in range(out.shape[0])])
    return ad.sum_all(ad.matvec(ad.tensor(mix.array.reshape(1, -1)), flat))


def random_params(config, seed, scale=0.7):
    """Parameters drawn at a scale where gradients are not vanishingly small.

    The training initializer draws from uniform(-0.08, 0.08); at that scale
    some attention gradients sit near 1e-10 where central differences are
    pure roundoff noise.  Fidelity checks use this instead.
    """
    rng = np.random.default_rng(seed)
    tensors = {
        name: ad.Tensor(rng.normal(0.0, scale, shape))
        for name, shape in M.param_spec(config)
    }
    return M.ModelParams(config, tensors)


def tiny_config(variant="PCGN", vocab_size=10, feature_dim=5, blog_layers=1, **over):
    base = dict(
        vocab_size=vocab_size,
        feature_dim=feature_dim,
        variant=M.variant_from_name(variant),
        embed_dim=3,
        blog_hidden=4,
        blog_layers=blog_layers,
        desc_hidden=3,
        desc_layers=1,
        user_dim=2,
    )
    base.update(over)
    return M.ModelConfig(**base)


@dataclass(frozen=True)
class ToyExample:
    """EncodedExample stand-in without the standard-id framing checks.

    Lets tests drive models whose bos/eos ids deviate from the production
    vocabulary layout (e.g. a single-token vocabulary).
    """

    x: tuple
    y: tuple
    f: np.ndarray
    d: tuple
    user_id: str = ""

    @property
    def target_len(self):
        return len(self.y) - 1


def tiny_example(config, seed=0, x_len=3, y_len=3, d_len=2):
    rng = np.random.default_rng(seed)
    lo, hi = 4, config.vocab_size  # keep specials out of the body
    x = tuple(int(v) for v in rng.integers(lo, hi, x_len))
    body = tuple(int(v) for v in rng.integers(lo, hi, y_len))
    d = tuple(int(v) for v in rng.integers(lo, hi, d_len))
    f = rng.normal(0.0, 1.0, config.feature_dim)
    return D.EncodedExample(
        x=x,
        y=(config.bos_id,) + body + (config.eos_id,),
        f=f,
        d=d,
        user_id="u0",
    )


def row_step(step):
    """A batched step function ``(states, parents, prev_ids)`` as a one-row
    one ``(state, prev) -> (log_probs, state)``.

    The oracles walk hypotheses one at a time; each call steps row 0 of a
    one-row state, such as ``DecodeSession.initial_state()``.
    """

    def one_row(state, prev):
        lp, new_state = step(state, [0], [prev])
        return lp[0], new_state

    return one_row


def batched_step(one_row):
    """A one-row step function ``(state, prev) -> (log_probs, state)`` as a
    batched one whose states are lists of one-row states.

    Start it from ``[initial_state]``; child r steps ``states[parents[r]]``.
    """

    def step(states, parents, prev_ids):
        outs = [one_row(states[p], prev) for p, prev in zip(parents, prev_ids)]
        return np.stack([lp for lp, _ in outs]), [st for _, st in outs]

    return step


def nan_cell_params(params):
    """Parameters whose first forward blog LSTM cell makes a NaN.

    Every embedding is 1, so W_x x overflows to +inf; from the cell's second
    step on, W_h h_prev overflows to -inf, and their sum is NaN.
    """
    w_x, w_h = "blog_enc.l0.fwd.w_x", "blog_enc.l0.fwd.w_h"
    return params.with_tensors({
        "embedding": ad.tensor(np.ones(params.embedding.shape)),
        w_x: ad.tensor(np.full(params.tensor(w_x).shape, 1e308)),
        w_h: ad.tensor(np.full(params.tensor(w_h).shape, -1e308)),
    })


def overflowing_attention_params(params):
    """Parameters whose blog attention overflows; with random_params seed 35
    and the Seq2Seq variant the loss of the first examples is NaN."""
    return params.with_tensors({"attn_blog": ad.tensor(np.full(params.tensor("attn_blog").shape, 1e308))})


def assert_caught_at_boundaries(params, examples):
    """A NaN made inside the model is reported, with where it happened,
    at each place values leave the engine."""
    first = examples[0]
    with np.errstate(all="ignore"):
        with pytest.raises(ad.NonFiniteError, match="non-finite loss in batch 0 of epoch 0"):
            T.train_epoch(params, examples, T.OptimizerConfig(lr=0.1), 0)
        with pytest.raises(ad.NonFiniteError, match="non-finite loss for example 0"):
            T.dataset_perplexity(params, examples)
        with pytest.raises(ad.NonFiniteError, match="non-finite logits at decode step 0"):
            Dec.beam_search(params, first, Dec.DecodeConfig(beam_size=2, max_len=3))
        with pytest.raises(ad.NonFiniteError, match="non-finite logits at decode step 0"):
            Dec.rescore(params, first, Dec.Hypothesis(first.y[1:], 0.0, True))
