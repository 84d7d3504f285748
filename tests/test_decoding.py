"""Beam-search tests, including exhaustive-search, argmax-walk and
full-sort oracles.

Greedy decoding is the width-1 beam; its tests compare that beam with the
independent argmax walk in tests/oracle.py.  The top-k candidate selection
is compared with the per-token loop and full sort of oracle.beam_reference.
"""

from __future__ import annotations

import math
import zlib

import numpy as np
import pytest

from pcgn import autodiff as ad
from pcgn import decoding as dec
from pcgn import model as M

from conftest import ToyExample, batched_step, random_params, row_step, tiny_config, tiny_example
import oracle


def lp(*probs):
    """Log-probability row; zero probability becomes -inf exactly."""
    out = np.full(len(probs), -np.inf)
    for i, p in enumerate(probs):
        if p > 0:
            out[i] = np.log(p)
    return out


def scripted_step(state, prev):
    """Two-step toy channel: a=0, b=1, eos=2.

    First step: a 0.6, b 0.4.  After a, eos has mass 0.5; after b, 0.9.
    Greedy therefore takes a (0.30 total) while the best finished sequence
    is b-eos (0.36 total).
    """
    if state == "start":
        return lp(0.6, 0.4, 0.0), "running"
    if prev == 0:
        return lp(0.25, 0.25, 0.5), "running"
    return lp(0.05, 0.05, 0.9), "running"


def width_one(params, example, max_len):
    """The single hypothesis of a width-1 beam: greedy decoding."""
    (only,) = dec.beam_search(params, example, dec.DecodeConfig(beam_size=1, max_len=max_len))
    return only


def oracle_greedy(params, example, max_len):
    session = dec.DecodeSession(params, example)
    cfg = params.config
    return oracle.argmax_walk(row_step(session.step), session.initial_state(), cfg.bos_id, cfg.eos_id, max_len)


class TestConfigAndHypothesis:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            dec.DecodeConfig(beam_size=0)
        with pytest.raises(ValueError):
            dec.DecodeConfig(max_len=0)
        with pytest.raises(ValueError):
            dec.DecodeConfig(length_norm=-0.5)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="length_norm"):
                dec.DecodeConfig(length_norm=bad)
        for field in ("beam_size", "max_len"):
            for bad in (2.5, 2.0, True):
                with pytest.raises(ValueError, match=f"{field} must be an integer"):
                    dec.DecodeConfig(**{field: bad})

    def test_content_tokens_strip_eos_only_when_finished(self):
        done = dec.Hypothesis(tokens=(5, 6, 3), log_prob=-1.0, finished=True)
        live = dec.Hypothesis(tokens=(5, 6, 3), log_prob=-1.0, finished=False)
        assert done.content_tokens == (5, 6)
        assert live.content_tokens == (5, 6, 3)

    def test_score_normalization(self):
        h = dec.Hypothesis(tokens=(4, 4, 4, 3), log_prob=-8.0, finished=True)
        assert h.score(0.0) == -8.0
        assert h.score(1.0) == -2.0
        assert abs(h.score(0.5) - (-4.0)) < 1e-15


class TestScriptedToy:
    def test_greedy_takes_the_myopic_path(self):
        cfg = dec.DecodeConfig(beam_size=1, max_len=5)
        (hyp,) = dec.beam_search_steps(batched_step(scripted_step), ["start"], 99, 2, 3, cfg)
        assert hyp.finished
        assert hyp.tokens == (0, 2)
        assert abs(hyp.log_prob - np.log(0.30)) < 1e-12

    def test_beam_two_finds_the_better_sequence(self):
        cfg = dec.DecodeConfig(beam_size=2, max_len=5)
        results = dec.beam_search_steps(batched_step(scripted_step), ["start"], 99, 2, 3, cfg)
        assert [h.tokens for h in results] == [(1, 2), (0, 2)]
        assert abs(results[0].log_prob - np.log(0.36)) < 1e-12
        assert abs(results[1].log_prob - np.log(0.30)) < 1e-12
        assert all(h.finished for h in results)

    def test_beam_one_reproduces_greedy(self):
        cfg = dec.DecodeConfig(beam_size=1, max_len=5)
        (only,) = dec.beam_search_steps(batched_step(scripted_step), ["start"], 99, 2, 3, cfg)
        tokens, log_prob, finished = oracle.argmax_walk(scripted_step, "start", 99, 2, 5)
        assert (only.tokens, only.finished) == (tokens, finished)
        assert abs(only.log_prob - log_prob) < 1e-12

    def test_step_shape_is_validated(self):
        def bad_step(states, parents, prev_ids):
            return np.zeros((len(parents), 4)), states

        with pytest.raises(ValueError, match="expected"):
            dec.beam_search_steps(bad_step, None, 0, 2, 3, dec.DecodeConfig(beam_size=2, max_len=2))


def three_token_model(seed, variant="Seq2Seq"):
    """V=3 model with bos=0, eos=1; token 2 and 0 are emittable content."""
    cfg = M.ModelConfig(
        vocab_size=3, feature_dim=4, variant=M.variant_from_name(variant),
        embed_dim=2, blog_hidden=3, blog_layers=1, desc_hidden=2, desc_layers=1,
        user_dim=2, pad_id=None, unk_id=None, bos_id=0, eos_id=1,
    )
    params = random_params(cfg, seed, scale=1.0)
    rng = np.random.default_rng((seed, 1))
    example = ToyExample(
        x=tuple(int(v) for v in rng.integers(0, 3, 3)),
        y=(0, 2, 1),
        f=rng.normal(size=4),
        d=tuple(int(v) for v in rng.integers(0, 3, 2)),
    )
    return params, example


class TestAgainstExhaustiveSearch:
    def exhaustive(self, params, example, max_len):
        session = dec.DecodeSession(params, example)
        cfg = params.config
        finished = oracle.enumerate_finished(
            row_step(session.step), session.initial_state(), cfg.bos_id, cfg.eos_id,
            cfg.vocab_size, max_len,
        )
        return sorted(finished, key=lambda item: (-item[1], item[0]))

    @pytest.mark.parametrize("variant", ["Seq2Seq", "PCGN"])
    def test_wide_beam_equals_enumeration(self, variant):
        for seed in range(10):
            params, example = three_token_model(seed, variant)
            expected = self.exhaustive(params, example, max_len=3)
            results = dec.beam_search(params, example, dec.DecodeConfig(beam_size=40, max_len=3))
            finished = [h for h in results if h.finished]
            assert [h.tokens for h in finished] == [toks for toks, _ in expected]
            for h, (_, score) in zip(finished, expected):
                assert abs(h.log_prob - score) < 1e-9

    def test_rank_one_is_global_argmax(self):
        for seed in range(10):
            params, example = three_token_model(seed + 100)
            expected = self.exhaustive(params, example, max_len=3)
            best = dec.beam_search(params, example, dec.DecodeConfig(beam_size=40, max_len=3))[0]
            assert best.tokens == expected[0][0]

    def test_beam_one_equals_greedy_on_real_models(self):
        for seed in range(10):
            params, example = three_token_model(seed + 200)
            tokens, log_prob, finished = oracle_greedy(params, example, max_len=4)
            only = width_one(params, example, max_len=4)
            assert (only.tokens, only.finished) == (tokens, finished)
            assert abs(only.log_prob - log_prob) < 1e-12


LOG_PROB_LEVELS = (-0.5, -1.0, -2.0)


def tie_heavy_step(seed, vocab_size, inf_share):
    """Scripted step whose log-probs take one of three dyadic values.

    Sums of these values are exact, so equal scores recur across parents
    and at the beam_size-th boundary.  Each entry is -inf with probability
    inf_share.  The row is a pure function of (seed, path so far), and the
    state is that path.
    """

    def step(state, prev):
        path = state + (prev,)
        rng = np.random.default_rng((seed, *path))
        lp = rng.choice(LOG_PROB_LEVELS, size=vocab_size)
        lp[rng.random(vocab_size) < inf_share] = -np.inf
        return lp, path

    return step


def assert_matches_reference(step_fn, initial_state, one_row, one_row_initial, bos_id, eos_id, vocab_size, config,
                             tol=None):
    """The batched search over ``step_fn``, which stops early when no live
    prefix can enter the result, equals the full-sort reference walking the
    same model one row at a time through ``one_row`` to ``max_len``: bit for
    bit, or with ``tol`` the same tokens and log-probs within it."""
    got = dec.beam_search_steps(step_fn, initial_state, bos_id, eos_id, vocab_size, config)
    want = oracle.beam_reference(one_row, one_row_initial, bos_id, eos_id, vocab_size, config, prune=False)
    if tol is None:
        assert [(h.tokens, h.log_prob, h.finished) for h in got] == want
        return
    assert [(h.tokens, h.finished) for h in got] == [(tokens, finished) for tokens, _, finished in want]
    for h, (_, log_prob, _) in zip(got, want):
        assert abs(h.log_prob - log_prob) <= tol


class TestTopKSelection:
    def test_tie_heavy_steps_match_full_sort(self):
        for case in range(300):
            seed = zlib.crc32(f"tie-heavy/{case}".encode())
            rng = np.random.default_rng(seed)
            vocab_size = int(rng.integers(2, 8))
            config = dec.DecodeConfig(
                beam_size=int(rng.integers(1, vocab_size * vocab_size + 3)),
                max_len=int(rng.integers(1, 6)),
                length_norm=float(rng.choice([0.0, 0.5, 1.0])),
            )
            step = tie_heavy_step(seed, vocab_size, float(rng.choice([0.0, 0.25, 0.6])))
            eos_id = int(rng.integers(0, vocab_size))
            assert_matches_reference(batched_step(step), [()], step, (), vocab_size, eos_id, vocab_size, config)

    @pytest.mark.parametrize("width", [1, 4, 10])
    def test_real_models_match_full_sort(self, width):
        # A beam row's log-probs match its one-row step only to rounding.
        for seed in range(10):
            params, example = three_token_model(seed + 200)
            session = dec.DecodeSession(params, example)
            cfg = params.config
            assert_matches_reference(
                session.step, session.initial_state(), row_step(session.step), session.initial_state(),
                cfg.bos_id, cfg.eos_id, cfg.vocab_size,
                dec.DecodeConfig(beam_size=width, max_len=4), tol=1e-12,
            )


class TestBatchedSession:
    @pytest.mark.parametrize("variant", ["Seq2Seq", "PCGN"])
    def test_gathering_by_parents_equals_stepping_each_parent_alone(self, variant):
        cfg = tiny_config(variant, vocab_size=10, blog_layers=2)
        params = random_params(cfg, 360)
        session = dec.DecodeSession(params, tiny_example(cfg, 361))
        _, states = session.step(session.initial_state(), [0, 0, 0], [cfg.bos_id, 4, 5])
        parents, prev_ids = [2, 0, 2, 1], [6, 7, 8, 4]
        lp, children = session.step(states, parents, prev_ids)
        assert lp.shape == (len(parents), cfg.vocab_size)
        assert children.step == states.step + 1
        for r, (parent, prev) in enumerate(zip(parents, prev_ids)):
            lp_alone, child = session.step(states, [parent], [prev])
            np.testing.assert_allclose(lp[r], lp_alone[0], rtol=0, atol=1e-12)
            for (h, c), (h1, c1) in zip(children.layers, child.layers):
                np.testing.assert_allclose(h.array[r], h1.array[0], rtol=0, atol=1e-12)
                np.testing.assert_allclose(c.array[r], c1.array[0], rtol=0, atol=1e-12)
            if cfg.variant.use_gated_memory:
                np.testing.assert_allclose(children.memory.array[r], child.memory.array[0], rtol=0, atol=1e-12)


def cached_step(step):
    """``step`` memoized on the paths it extends: a repeated call returns
    the very arrays the first call returned."""
    cache = {}

    def cached(states, parents, prev_ids):
        key = (tuple(states[p] for p in parents), tuple(prev_ids))
        if key not in cache:
            cache[key] = step(states, parents, prev_ids)
        return cache[key]

    return cached


class TestStepArrays:
    """The search must leave the step function's arrays alone, and the
    session's in-place log-softmax must be ad._log_softmax run out of place
    to the bit."""

    def test_search_over_cached_step_arrays_matches_full_sort(self):
        for case in range(40):
            seed = zlib.crc32(f"cached-step/{case}".encode())
            rng = np.random.default_rng(seed)
            vocab_size = int(rng.integers(2, 8))
            config = dec.DecodeConfig(
                beam_size=int(rng.integers(1, 2 * vocab_size + 2)),
                max_len=int(rng.integers(2, 6)),
                length_norm=float(rng.choice([0.0, 0.5])),
            )
            step = tie_heavy_step(seed, vocab_size, float(rng.choice([0.0, 0.25])))
            eos_id = int(rng.integers(0, vocab_size))
            cached = cached_step(batched_step(step))
            # the second search is served from the arrays the first one saw
            for _ in range(2):
                assert_matches_reference(cached, [()], step, (), vocab_size, eos_id, vocab_size, config)

    @pytest.mark.parametrize("variant", ["Seq2Seq", "PCGN"])
    def test_session_log_probs_are_log_softmax_of_masked_logits(self, variant, monkeypatch):
        cfg = tiny_config(variant, vocab_size=60)
        params = random_params(cfg, 370)
        session = dec.DecodeSession(params, tiny_example(cfg, 371))
        logits = []
        real_step = M.decoder_step

        def recording_step(*args, **kwargs):
            result = real_step(*args, **kwargs)
            logits.append(result.logits.array.copy())
            return result

        monkeypatch.setattr(M, "decoder_step", recording_step)
        states = session.initial_state()
        for parents, prev_ids in (([0], [cfg.bos_id]), ([0, 0, 0], [4, 5, 6]), ([2, 0, 1, 1], [7, 8, 9, 4])):
            lp, states = session.step(states, parents, prev_ids)
            masked = logits[-1]
            masked[:, cfg.unk_id] = -np.inf
            assert np.array_equal(lp, ad._log_softmax(masked))


class TestBeamBehavior:
    def test_pruning_never_changes_results(self):
        for seed in range(5):
            cfg = tiny_config("PCGN", vocab_size=8)
            params = random_params(cfg, seed + 300)
            example = tiny_example(cfg, seed + 301)
            search = dec.DecodeConfig(beam_size=3, max_len=5)
            pruned = dec.beam_search(params, example, search)
            session = dec.DecodeSession(params, example)
            full = oracle.beam_reference(
                row_step(session.step), session.initial_state(), cfg.bos_id, cfg.eos_id, cfg.vocab_size,
                search, prune=False,
            )
            assert [h.tokens for h in pruned] == [tokens for tokens, _, _ in full]
            assert all(
                abs(a.log_prob - log_prob) < 1e-12 for a, (_, log_prob, _) in zip(pruned, full)
            )

    def test_results_sorted_and_bounded(self):
        cfg = tiny_config("PCGN", vocab_size=10)
        params = random_params(cfg, 310)
        example = tiny_example(cfg, 311)
        search = dec.DecodeConfig(beam_size=4, max_len=6)
        results = dec.beam_search(params, example, search)
        assert 1 <= len(results) <= 4
        finished = [h for h in results if h.finished]
        scores = [h.score(0.0) for h in finished]
        assert scores == sorted(scores, reverse=True)
        for h in finished:
            assert h.tokens[-1] == params.config.eos_id
        # finished hypotheses always rank ahead of unfinished padding
        flags = [h.finished for h in results]
        assert flags == sorted(flags, reverse=True)

    def test_deterministic(self):
        cfg = tiny_config("PCGN")
        params = random_params(cfg, 320)
        example = tiny_example(cfg, 321)
        search = dec.DecodeConfig(beam_size=3, max_len=5)
        a = dec.beam_search(params, example, search)
        b = dec.beam_search(params, example, search)
        assert [(h.tokens, h.log_prob) for h in a] == [(h.tokens, h.log_prob) for h in b]

    def test_length_norm_orders_by_normalized_score(self):
        cfg = tiny_config("PCGN", vocab_size=8)
        params = random_params(cfg, 330)
        example = tiny_example(cfg, 331)
        search = dec.DecodeConfig(beam_size=4, max_len=5, length_norm=1.0)
        results = dec.beam_search(params, example, search)
        finished = [h for h in results if h.finished]
        normed = [h.score(1.0) for h in finished]
        assert normed == sorted(normed, reverse=True)

    def test_rescore_agrees_with_search_scores(self):
        for seed in range(5):
            cfg = tiny_config("PCGN", vocab_size=8)
            params = random_params(cfg, seed + 340)
            example = tiny_example(cfg, seed + 341)
            for h in dec.beam_search(params, example, dec.DecodeConfig(beam_size=3, max_len=4)):
                assert abs(dec.rescore(params, example, h) - h.log_prob) < 1e-9
            greedy = width_one(params, example, max_len=4)
            assert abs(dec.rescore(params, example, greedy) - greedy.log_prob) < 1e-9


class TestEveryPreset:
    """Beam search on every preset: reruns give the same hypotheses bit for
    bit, and teacher-forcing each one reproduces its log-prob."""

    @pytest.mark.parametrize("width", [1, 4, 10])
    @pytest.mark.parametrize("blog_layers", [1, 2])
    @pytest.mark.parametrize("variant", sorted(M.PRESETS))
    def test_reruns_are_identical_and_rescore_agrees(self, variant, blog_layers, width):
        cfg = tiny_config(variant, blog_layers=blog_layers)
        params = random_params(cfg, 380 + blog_layers)
        example = tiny_example(cfg, 381)
        search = dec.DecodeConfig(beam_size=width, max_len=6)
        first = dec.beam_search(params, example, search)
        assert dec.beam_search(params, example, search) == first
        assert len(first) == width
        for h in first:
            assert abs(dec.rescore(params, example, h) - h.log_prob) < 1e-9


class TestTermination:
    def zero_params(self, **cfg_over):
        cfg = tiny_config("Seq2Seq", vocab_size=12, **cfg_over)
        tensors = {name: ad.zeros(shape) for name, shape in M.param_spec(cfg)}
        return M.ModelParams(cfg, tensors)

    def decode_input(self, config, seed):
        rng = np.random.default_rng(seed)
        return dec.DecodeInput(
            x=tuple(int(v) for v in rng.integers(4, config.vocab_size, 3)),
            f=rng.normal(size=config.feature_dim),
            d=tuple(int(v) for v in rng.integers(4, config.vocab_size, 2)),
        )

    def test_max_len_truncation_when_eos_never_wins(self):
        # all-zero parameters give uniform logits; ties resolve to token 0,
        # so an eos at the top of the id range is never reached
        params = self.zero_params(eos_id=11, unk_id=None)
        example = self.decode_input(params.config, 400)
        hyp = width_one(params, example, max_len=7)
        assert not hyp.finished
        assert hyp.tokens == (0,) * 7
        results = dec.beam_search(params, example, dec.DecodeConfig(beam_size=2, max_len=7))
        assert results and not results[0].finished
        assert len(results[0].tokens) == 7

    def test_immediate_eos_yields_empty_content(self):
        params = self.zero_params(eos_id=0, unk_id=None, bos_id=2)
        example = self.decode_input(params.config, 401)
        hyp = width_one(params, example, max_len=7)
        assert hyp.finished
        assert hyp.tokens == (0,)
        assert hyp.content_tokens == ()

    def test_unk_is_never_emitted_when_masked(self):
        cfg = tiny_config("Seq2Seq", vocab_size=8)
        params = random_params(cfg, 410)
        # make unk the runaway argmax so only the mask can stop it
        boosted = params.tensor("out_proj").array.copy()
        boosted[cfg.unk_id, :] += 10.0
        params = params.with_tensors({"out_proj": ad.tensor(boosted)})
        example = tiny_example(cfg, 411)

        hyp = width_one(params, example, max_len=6)
        assert cfg.unk_id not in hyp.tokens
        for h in dec.beam_search(params, example, dec.DecodeConfig(beam_size=3, max_len=6)):
            assert cfg.unk_id not in h.tokens

        # identical weights with the mask off do emit unk
        unmasked_cfg = M.ModelConfig(**{**cfg.to_dict(), "variant": cfg.variant, "unk_id": None})
        unmasked = M.ModelParams(unmasked_cfg, {n: t for n, t in params.named_parameters()})
        hyp = width_one(unmasked, example, max_len=6)
        assert cfg.unk_id in hyp.tokens
