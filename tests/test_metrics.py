"""Metric unit values and invariance properties."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgn import autodiff as ad
from pcgn import metrics as X
from pcgn import training as T

from conftest import random_params, tiny_config, tiny_example


def pair(hyp, ref):
    return X.EvalPair(hypothesis=tuple(hyp.split()), reference=tuple(ref.split()))


class TestBleu2:
    def test_identity_is_one(self):
        assert X.bleu2([pair("the cat sat", "the cat sat")]) == 1.0

    def test_repeated_token_clipping_zeroes_bigram_order(self):
        assert X.bleu2([pair("the the", "the cat")]) == 0.0

    def test_brevity_penalty_hand_value(self):
        got = X.bleu2([pair("a b", "a b c d")])
        assert abs(got - math.exp(-1.0)) < 1e-12
        assert abs(got - 0.36787944117144233) < 1e-12

    def test_corpus_pooling_hand_value(self):
        got = X.bleu2([pair("a b", "a b"), pair("c d", "x y")])
        # pooled: unigrams 2/4, bigrams 1/2, lengths equal
        assert abs(got - 0.5) < 1e-12

    def test_empty_hypothesis_is_legal_and_scores_zero(self):
        assert X.bleu2([X.EvalPair(hypothesis=(), reference=("a", "b"))]) == 0.0

    def test_no_bigram_overlap_is_zero(self):
        assert X.bleu2([pair("a b", "b a")]) == 0.0

    def test_brevity_never_rewards_long_hypotheses(self):
        short = X.bleu2([pair("a b", "a b")])
        long = X.bleu2([pair("a b c", "a b c")])
        assert short == long == 1.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            X.bleu2([])


class TestMeteorLite:
    def test_identity_three_tokens(self):
        got = X.meteor_lite([pair("a b c", "a b c")])
        assert abs(got - (1.0 - 0.5 / 27.0)) < 1e-12
        assert abs(got - 0.9814814814814815) < 1e-12

    def test_swapped_pair_is_half(self):
        assert abs(X.meteor_lite([pair("b a", "a b")]) - 0.5) < 1e-12

    def test_identity_penalty_formula(self):
        for n in range(1, 6):
            toks = " ".join(f"w{i}" for i in range(n))
            got = X.meteor_lite([pair(toks, toks)])
            assert abs(got - (1.0 - 0.5 / n**3)) < 1e-12

    def test_full_fragmentation_hand_value(self):
        # all tokens match but in three chunks
        assert abs(X.meteor_lite([pair("a c b", "a b c")]) - 0.5) < 1e-12

    def test_disjoint_tokens_score_zero(self):
        assert X.meteor_lite([pair("x y", "a b")]) == 0.0

    def test_empty_hypothesis_scores_zero(self):
        assert X.meteor_lite([X.EvalPair(hypothesis=(), reference=("a",))]) == 0.0

    def test_mean_over_pairs(self):
        identity = pair("a b c", "a b c")
        disjoint = pair("x y", "a b")
        got = X.meteor_lite([identity, disjoint])
        assert abs(got - (0.9814814814814815 / 2.0)) < 1e-12

    def test_precision_recall_asymmetry(self):
        # extra hypothesis tokens hurt less than missing reference tokens
        # because recall dominates the harmonic mean
        recall_heavy = X.meteor_lite([pair("a b c d", "a b")])
        precision_heavy = X.meteor_lite([pair("a b", "a b c d")])
        assert recall_heavy > precision_heavy

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            X.meteor_lite([])


class TestEvalPair:
    def test_reference_must_be_non_empty(self):
        with pytest.raises(ValueError):
            X.EvalPair(hypothesis=("a",), reference=())

    def test_sequences_coerced_to_tuples(self):
        p = X.EvalPair(hypothesis=["a", "b"], reference=["c"])
        assert p.hypothesis == ("a", "b")
        assert p.reference == ("c",)


class TestPerplexity:
    def test_uniform_model_scores_vocab_size(self):
        vocab_size = 12
        cfg = tiny_config("Seq2Seq", vocab_size=vocab_size)
        params = random_params(cfg, 1).with_tensors(
            {"out_proj": ad.zeros((vocab_size, cfg.decoder_hidden))}
        )
        dataset = [tiny_example(cfg, seed, y_len=3) for seed in range(3)]
        got = T.dataset_perplexity(params, dataset)
        assert abs(got - vocab_size) < 1e-9

    def test_matches_token_level_recomputation(self):
        cfg = tiny_config("PCGN")
        params = random_params(cfg, 2)
        dataset = [tiny_example(cfg, 10 + i) for i in range(3)]
        total = -sum(T.token_log_probs(params, ex).sum() for ex in dataset)
        tokens = sum(ex.target_len for ex in dataset)
        assert abs(T.dataset_perplexity(params, dataset) - math.exp(total / tokens)) < 1e-9


class TestReport:
    def test_report_keys_and_values(self):
        scores = X.CorpusScores(ppl=12.5, bleu2=0.25, meteor=0.5, pairs=7)
        report = dataclasses.asdict(scores)
        assert report == {"ppl": 12.5, "bleu2": 0.25, "meteor": 0.5, "pairs": 7}


tokens = st.integers(0, 5)
hyp_seqs = st.lists(tokens, min_size=0, max_size=6).map(tuple)
ref_seqs = st.lists(tokens, min_size=1, max_size=6).map(tuple)
corpora = st.lists(
    st.tuples(hyp_seqs, ref_seqs).map(lambda t: X.EvalPair(hypothesis=t[0], reference=t[1])),
    min_size=1,
    max_size=5,
)


@given(corpora)
@settings(max_examples=80, deadline=None)
def test_scores_are_bounded(pairs):
    assert 0.0 <= X.bleu2(pairs) <= 1.0 + 1e-12
    assert 0.0 <= X.meteor_lite(pairs) <= 1.0 + 1e-12


@given(corpora, st.permutations(list(range(6))))
@settings(max_examples=60, deadline=None)
def test_scores_invariant_under_token_renaming(pairs, perm):
    renamed = [
        X.EvalPair(
            hypothesis=tuple(perm[t] for t in p.hypothesis),
            reference=tuple(perm[t] for t in p.reference),
        )
        for p in pairs
    ]
    assert abs(X.bleu2(pairs) - X.bleu2(renamed)) < 1e-12
    assert abs(X.meteor_lite(pairs) - X.meteor_lite(renamed)) < 1e-12


@given(corpora, st.randoms())
@settings(max_examples=40, deadline=None)
def test_scores_invariant_under_pair_order(pairs, rnd):
    shuffled = list(pairs)
    rnd.shuffle(shuffled)
    assert abs(X.bleu2(pairs) - X.bleu2(shuffled)) < 1e-12
    assert abs(X.meteor_lite(pairs) - X.meteor_lite(shuffled)) < 1e-12


@given(ref_seqs)
@settings(max_examples=60, deadline=None)
def test_meteor_alignment_matches_count_bound(ref):
    """The greedy alignment always reaches the multiset-intersection size."""
    from collections import Counter

    rng = np.random.default_rng(len(ref))
    hyp = tuple(int(v) for v in rng.integers(0, 6, rng.integers(1, 7)))
    matches = X._align(hyp, ref)
    want = sum((Counter(hyp) & Counter(ref)).values())
    assert len(matches) == want
