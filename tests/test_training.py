"""Loss, optimizer, epoch-loop, and checkpoint tests."""

from __future__ import annotations

import base64
import copy
import dataclasses
import json
import math
import zlib
from functools import reduce

import numpy as np
import pytest

from pcgn import autodiff as ad
from pcgn import checkpoint as C
from pcgn import data as D
from pcgn import model as M
from pcgn import training as T
from pcgn.synthetic import synthetic_records

from conftest import ToyExample, overflowing_attention_params, random_params, tiny_config, tiny_example, weighted_sum
import oracle

ALL_VARIANTS = ("Seq2Seq", "Seq2Seq+Emb", "+Mem", "+CoAtt", "PCGN")


class TestSequenceLoss:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("layers", [1, 2])
    def test_matches_independent_reference(self, variant, layers):
        cfg = tiny_config(variant, blog_layers=layers)
        params = random_params(cfg, seed=zlib.crc32(f"{variant}/{layers}".encode()))
        for ex_seed in range(3):
            ex = tiny_example(cfg, seed=ex_seed, x_len=3, y_len=3, d_len=2)
            got = T.sequence_loss(params, ex).item()
            want = oracle.reference_loss(params, ex)
            assert abs(got - want) <= 1e-10, f"{variant}/{layers}l seed {ex_seed}"

    def test_single_token_vocabulary_has_zero_loss(self):
        cfg = M.ModelConfig(
            vocab_size=1, feature_dim=1, variant=M.PRESETS["Seq2Seq"],
            embed_dim=2, blog_hidden=2, blog_layers=1, desc_hidden=2, user_dim=2,
            pad_id=None, unk_id=None, bos_id=0, eos_id=0,
        )
        params = random_params(cfg, 0)
        ex = ToyExample(x=(0,), y=(0, 0, 0), f=np.zeros(1), d=(0,))
        assert T.sequence_loss(params, ex).item() == 0.0

    def test_zero_output_head_gives_uniform_loss(self):
        cfg = tiny_config("Seq2Seq", vocab_size=12)
        params = random_params(cfg, 1).with_tensors({"out_proj": ad.zeros((12, cfg.decoder_hidden))})
        ex = tiny_example(cfg, 2, y_len=4)
        loss = T.sequence_loss(params, ex).item()
        expected = ex.target_len * math.log(12)
        assert abs(loss - expected) < 1e-12 * expected

    def test_loss_is_positive_for_real_vocab(self):
        cfg = tiny_config("PCGN")
        params = random_params(cfg, 3)
        assert T.sequence_loss(params, tiny_example(cfg, 4)).item() > 0.0

    def test_token_log_probs_decompose_the_loss(self):
        cfg = tiny_config("PCGN", blog_layers=2)
        params = random_params(cfg, 5)
        ex = tiny_example(cfg, 6, y_len=4)
        per_token = T.token_log_probs(params, ex)
        assert per_token.shape == (ex.target_len,)
        assert (per_token < 0).all()
        total = T.sequence_loss(params, ex).item()
        assert abs(total + per_token.sum()) < 1e-9

    def test_token_log_probs_match_reference_positions(self):
        cfg = tiny_config("PCGN")
        params = random_params(cfg, 7)
        ex = tiny_example(cfg, 8, y_len=4)
        got = T.token_log_probs(params, ex)
        want = oracle.reference_step_scores(params, ex)
        assert np.allclose(got, want, atol=1e-10)


class TestOutputLayerOnce:
    """The walk applies the output layer once, after the last step."""

    @pytest.mark.parametrize("variant, weights", [("PCGN", ("user_mix", "out_mix")), ("Seq2Seq", ("out_proj",))])
    def test_one_linear_entry_per_output_weight(self, variant, weights):
        cfg = tiny_config(variant)
        params = random_params(cfg, 9)
        tape = ad.Tape()
        watched = {name: tape.watch(t) for name, t in params.named_parameters()}
        T.sequence_loss(params.with_tensors(watched), tiny_example(cfg, 10, y_len=4))
        nodes = {watched[name].node: name for name in weights}
        readers = [(op, nodes[n]) for op, ins, _ in tape.entries for n in ins if n in nodes]
        assert readers == [("matvec", name) for name in weights]


# (blog, comment body, description) lengths of the block-walk examples: the
# first has a one-token blog and description and a target that is only eos.
RAGGED = ((1, 0, 1), (4, 3, 2), (2, 5, 1), (5, 1, 3), (3, 2, 4), (1, 4, 2), (6, 0, 1))


def ragged_examples(cfg, count, seed=0):
    return [
        tiny_example(cfg, seed=seed + i, x_len=x_len, y_len=y_len, d_len=d_len)
        for i, (x_len, y_len, d_len) in enumerate(RAGGED[:count])
    ]


def block_losses(params, examples):
    terms, owner = T.gold_log_probs(params, examples)
    return -np.bincount(owner, weights=terms.array, minlength=len(examples))


class TestBlockWalk:
    """The block walk against the per-example walk it replaced."""

    # Ragged blocks of 1, 3 and 7 examples, and blocks of BATCH_SHAPES:
    # several rows that share one blog or one author, and repeats.
    @pytest.mark.parametrize("block", [1, 3, 7, "one_blog", "one_author", "distinct", "ragged"])
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("variant", sorted(M.PRESETS))
    def test_matches_per_example_reference(self, variant, layers, block):
        cfg = tiny_config(variant, blog_layers=layers)
        params = random_params(cfg, seed=zlib.crc32(f"{variant}/{layers}/{block}".encode()))
        examples = ragged_examples(cfg, block) if isinstance(block, int) else BATCH_SHAPES[block](cfg)
        # Distinct weights per example, so a gradient credited to the wrong
        # example shows.
        weights = 1.0 + 0.5 * np.arange(len(examples))

        tape = ad.Tape()
        watched = {name: tape.watch(t) for name, t in params.named_parameters()}
        terms, owner = T.gold_log_probs(params.with_tensors(watched), examples)
        objective = weighted_sum(terms, ad.tensor(-weights[owner]))
        grads = ad.backprop(tape, objective)

        want_losses = []
        want_grads = {name: np.zeros(t.shape) for name, t in params.named_parameters()}
        for ex, w in zip(examples, weights):
            tape = ad.Tape()
            ref_watched = {name: tape.watch(t) for name, t in params.named_parameters()}
            ref_terms = oracle.per_example_walk(params.with_tensors(ref_watched), ex)
            loss = ad.scale(reduce(ad.add, ref_terms), -1.0)
            want_losses.append(loss.item())
            ref_grads = ad.backprop(tape, loss)
            for name, leaf in ref_watched.items():
                want_grads[name] += w * ref_grads[leaf].array

        got_losses = -np.bincount(owner, weights=terms.array, minlength=len(examples))
        assert np.abs(got_losses - want_losses).max() <= 1e-10
        for name, leaf in watched.items():
            want = want_grads[name]
            gap = np.abs(grads[leaf].array - want).max()
            assert gap <= 1e-10 * max(1.0, np.abs(want).max()), f"{name}: gap {gap:.3e}"

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("variant", sorted(M.PRESETS))
    def test_repeating_batch_matches_batch_gradients(self, variant, layers):
        # A training batch whose blogs and authors recur, as one block walk
        # with the training loss -sum(terms) / B, against _batch_gradients
        # (per-example walks that share encodes) and the reference walk.
        cfg, batch = repeating_dataset(variant, layers)
        params = random_params(cfg, seed=zlib.crc32(f"repeating/{variant}/{layers}".encode()))
        tape = ad.Tape()
        watched = {name: tape.watch(t) for name, t in params.named_parameters()}
        terms, owner = T.gold_log_probs(params.with_tensors(watched), batch)
        loss = ad.scale(ad.sum_all(terms), -1.0 / len(batch))
        grad_set = ad.backprop(tape, loss)
        grads = {name: grad_set[leaf].array for name, leaf in watched.items()}
        losses = -np.bincount(owner, weights=terms.array, minlength=len(batch))

        ref_grads = {name: np.zeros(t.shape) for name, t in params.named_parameters()}
        ref_losses = []
        for ex in batch:
            tape = ad.Tape()
            ref_watched = {name: tape.watch(t) for name, t in params.named_parameters()}
            ex_loss = ad.scale(reduce(ad.add, oracle.per_example_walk(params.with_tensors(ref_watched), ex)), -1.0)
            ref_losses.append(ex_loss.item())
            ex_grads = ad.backprop(tape, ex_loss)
            for name, leaf in ref_watched.items():
                ref_grads[name] += ex_grads[leaf].array / len(batch)

        want_loss, want_losses, want_grads = batch_gradients(params, batch)
        assert abs(loss.item() - want_loss) <= 1e-10
        for want in (want_losses, ref_losses):
            assert np.abs(losses - want).max() <= 1e-10
        for want in (want_grads, ref_grads):
            for name, got in grads.items():
                gap = np.abs(got - want[name]).max()
                assert gap <= 1e-10 * max(1.0, np.abs(want[name]).max()), f"{name}: gap {gap:.3e}"

    @pytest.mark.parametrize("variant", ["Seq2Seq", "PCGN"])
    def test_row_loss_ignores_block_neighbours(self, variant):
        cfg = tiny_config(variant, blog_layers=2)
        params = random_params(cfg, 61)
        examples = ragged_examples(cfg, 7, seed=100)
        alone = [block_losses(params, [ex])[0] for ex in examples]
        for block in (examples, examples[::-1], examples[2:5], [examples[4], examples[0]]):
            got = block_losses(params, block)
            for ex, loss in zip(block, got):
                want = alone[examples.index(ex)]
                assert abs(loss - want) <= 1e-12 * max(1.0, abs(want))

    def test_terms_of_one_example_are_its_positions(self):
        cfg = tiny_config("PCGN")
        params = random_params(cfg, 62)
        ex = tiny_example(cfg, 63, y_len=4)
        terms, owner = T.gold_log_probs(params, [ex])
        assert np.array_equal(owner, np.zeros(ex.target_len))
        assert np.allclose(terms.array, oracle.reference_step_scores(params, ex), atol=1e-10)


class TestBlockedPerplexity:
    def test_spans_blocks_in_dataset_order(self):
        cfg = tiny_config("PCGN")
        params = random_params(cfg, 64)
        dataset = [ex for seed in range(3) for ex in ragged_examples(cfg, 7, seed=10 * seed)]
        assert len(dataset) > T.SCORE_BLOCK
        total = sum(oracle.reference_loss(params, ex) for ex in dataset)
        tokens = sum(ex.target_len for ex in dataset)
        want = math.exp(total / tokens)
        assert abs(T.dataset_perplexity(params, dataset) - want) <= 1e-12 * want

    @pytest.mark.parametrize("bad", [3, T.SCORE_BLOCK + 1])
    def test_nonfinite_loss_names_the_example(self, bad):
        # Blog (9, 9, ...) drives the forward blog cell's W_x x to +inf at
        # both steps and, from the second on, W_h h to -inf: their sum is
        # NaN.  Other blogs keep W_x x finite.  The NaN states of that one
        # example sit among the block's shared encoder states.
        cfg = tiny_config("PCGN")
        params = random_params(cfg, 65)
        embedding = params.embedding.array.copy()
        embedding[9] = 1e308
        cell = "blog_enc.l0.fwd"
        broken = params.with_tensors({
            "embedding": ad.tensor(embedding),
            f"{cell}.w_x": ad.tensor(np.full(params.tensor(f"{cell}.w_x").shape, 2.0)),
            f"{cell}.w_h": ad.tensor(np.full(params.tensor(f"{cell}.w_h").shape, -1e308)),
        })
        body = (cfg.bos_id, 4, 5, cfg.eos_id)
        dataset = [
            dataclasses.replace(tiny_example(cfg, i), x=(4, 5, 6), y=body, d=(5, 6))
            for i in range(T.SCORE_BLOCK + 3)
        ]
        dataset[bad] = dataclasses.replace(dataset[bad], x=(9, 9, 4))
        with np.errstate(all="ignore"):
            assert math.isnan(T.sequence_loss(broken, dataset[bad]).item())
            assert math.isfinite(T.sequence_loss(broken, dataset[0]).item())
            with pytest.raises(ad.NonFiniteError, match=f"non-finite loss for example {bad}$"):
                T.dataset_perplexity(broken, dataset)

    def test_overflowing_perplexity_names_the_mean_nll(self):
        # A finite mean NLL above log(max float), about 709.78 nats per
        # token, has no float perplexity.
        cfg = tiny_config("PCGN")
        params = random_params(cfg, 66)
        loud = params.with_tensors({"out_mix": ad.tensor(params.out_mix.array * 1e4)})
        dataset = ragged_examples(cfg, 4)
        mean = sum(T.sequence_loss(loud, ex).item() for ex in dataset) / sum(ex.target_len for ex in dataset)
        assert 710 < mean < math.inf
        with pytest.raises(ad.NonFiniteError, match="^perplexity overflows: mean NLL is [0-9.]+ nats per token$"):
            T.dataset_perplexity(loud, dataset)


class TestSGD:
    def setup_params(self):
        cfg = tiny_config("Seq2Seq", vocab_size=10, embed_dim=3)
        params = random_params(cfg, 9)
        return params.with_tensors({"embedding": ad.tensor(np.ones((10, 3)))})

    def zero_grads(self, params):
        return {name: ad.zeros(t.shape) for name, t in params.named_parameters()}

    def test_hand_step(self):
        params = self.setup_params()
        grads = self.zero_grads(params)
        grads["embedding"] = ad.tensor(np.full((10, 3), 0.5))
        # global norm = 0.5 * sqrt(30) < 5, so no clipping
        updated = T.sgd_update(params, grads, lr=0.1, clip_norm=5.0)
        assert np.allclose(updated.embedding.array, 0.95, atol=1e-15)

    def test_untouched_parameters_stay_bitwise_equal(self):
        params = self.setup_params()
        grads = self.zero_grads(params)
        grads["embedding"] = ad.tensor(np.full((10, 3), 0.5))
        updated = T.sgd_update(params, grads, lr=0.1)
        assert np.array_equal(updated.tensor("attn_blog").array, params.tensor("attn_blog").array)

    def test_clip_rescales_to_threshold(self):
        params = self.setup_params()
        grads = self.zero_grads(params)
        g = np.full((10, 3), 10.0 / math.sqrt(30.0))  # global norm exactly 10
        grads["embedding"] = ad.tensor(g)
        updated = T.sgd_update(params, grads, lr=1.0, clip_norm=1.0)
        expected = params.embedding.array - (1.0 / 10.0) * g
        assert np.allclose(updated.embedding.array, expected, atol=1e-12)

    def test_clip_inactive_below_threshold(self):
        params = self.setup_params()
        grads = self.zero_grads(params)
        g = np.full((10, 3), 0.01)
        grads["embedding"] = ad.tensor(g)
        updated = T.sgd_update(params, grads, lr=0.5, clip_norm=5.0)
        assert np.array_equal(updated.embedding.array, params.embedding.array - 0.5 * g)

    def test_zero_lr_keeps_values(self):
        params = self.setup_params()
        grads = self.zero_grads(params)
        grads["embedding"] = ad.tensor(np.full((10, 3), 2.0))
        updated = T.sgd_update(params, grads, lr=0.0)
        for (name, a), (_, b) in zip(params.named_parameters(), updated.named_parameters()):
            assert np.array_equal(a.array, b.array), name

    def test_nonfinite_gradient_names_parameter(self):
        params = self.setup_params()
        grads = self.zero_grads(params)
        with np.errstate(over="ignore"):
            grads["attn_blog"] = ad.scale(ad.tensor(np.full(grads["attn_blog"].shape, 1e308)), 10.0)
        with pytest.raises(ad.NonFiniteError, match="attn_blog"):
            T.sgd_update(params, grads, lr=0.1)

    def test_huge_finite_gradient_is_clipped_not_rejected(self):
        # 1e160 squared overflows; the norm must not, and the clipped step
        # keeps length lr * clip_norm.
        params = self.setup_params()
        grads = self.zero_grads(params)
        grads["embedding"] = ad.tensor(np.full((10, 3), 1e160))
        updated = T.sgd_update(params, grads, lr=0.1, clip_norm=5.0)
        step = params.embedding.array - updated.embedding.array
        assert np.isclose(np.linalg.norm(step), 0.1 * 5.0, rtol=1e-12)
        assert np.allclose(step, step[0, 0])

    def test_optimizer_config_validation(self):
        with pytest.raises(ValueError):
            T.OptimizerConfig(lr=-0.1)
        with pytest.raises(ValueError):
            T.OptimizerConfig(batch_size=0)
        with pytest.raises(ValueError):
            T.OptimizerConfig(clip_norm=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="lr"):
                T.OptimizerConfig(lr=bad)
            with pytest.raises(ValueError, match="clip_norm"):
                T.OptimizerConfig(clip_norm=bad)
        for field in ("batch_size", "seed"):
            for bad in (2.5, 2.0, True):
                with pytest.raises(ValueError, match=f"{field} must be an integer"):
                    T.OptimizerConfig(**{field: bad})

    def test_negative_seed_names_itself(self):
        # Rejected when built, not inside train_epoch with numpy's message.
        for bad in (-1, -4):
            with pytest.raises(ValueError, match="seed must be >= 0"):
                T.OptimizerConfig(seed=bad)
        assert T.OptimizerConfig(seed=0).seed == 0


def small_dataset(cfg, n=6, seed=30):
    return [tiny_example(cfg, seed=seed + i, x_len=3, y_len=3, d_len=2) for i in range(n)]


class TestTrainEpoch:
    def test_deterministic(self):
        cfg = tiny_config("PCGN")
        params = random_params(cfg, 30)
        data = small_dataset(cfg)
        opt = T.OptimizerConfig(lr=0.1, batch_size=2, seed=4)
        a, stats_a = T.train_epoch(params, data, opt, epoch=0)
        b, stats_b = T.train_epoch(params, data, opt, epoch=0)
        for (name, ta), (_, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(ta.array, tb.array), name
        assert stats_a.mean_loss == stats_b.mean_loss
        assert stats_a.tokens == stats_b.tokens

    def test_zero_lr_is_identity(self):
        cfg = tiny_config("Seq2Seq")
        params = random_params(cfg, 31)
        data = small_dataset(cfg)
        updated, _ = T.train_epoch(params, data, T.OptimizerConfig(lr=0.0, batch_size=3), 0)
        for (name, ta), (_, tb) in zip(params.named_parameters(), updated.named_parameters()):
            assert np.array_equal(ta.array, tb.array), name

    def test_token_count_and_single_batch_mean(self):
        cfg = tiny_config("Seq2Seq")
        params = random_params(cfg, 32)
        data = small_dataset(cfg, n=4)
        opt = T.OptimizerConfig(lr=0.05, batch_size=10)  # one batch
        _, stats = T.train_epoch(params, data, opt, 0)
        tokens = sum(ex.target_len for ex in data)
        assert stats.tokens == tokens
        pre_update = sum(T.sequence_loss(params, ex).item() for ex in data)
        assert abs(stats.mean_loss - pre_update / tokens) < 1e-12
        assert abs(stats.ppl - math.exp(stats.mean_loss)) < 1e-12

    def test_training_reduces_perplexity(self):
        cfg = tiny_config("Seq2Seq", vocab_size=12)
        params = M.build_model(cfg, 33)
        data = small_dataset(cfg, n=4, seed=60)
        before = T.dataset_perplexity(params, data)
        opt = T.OptimizerConfig(lr=0.5, batch_size=4, seed=0)
        for epoch in range(15):
            params, _ = T.train_epoch(params, data, opt, epoch)
        assert T.dataset_perplexity(params, data) < before

    def test_overflowing_perplexity_names_the_mean_nll(self):
        assert T.EpochStats(mean_loss=709.0, tokens=4, seconds=0.0).ppl == math.exp(709.0)
        with pytest.raises(ad.NonFiniteError, match="^perplexity overflows: mean NLL is 800.0 nats per token$"):
            T.EpochStats(mean_loss=800.0, tokens=4, seconds=0.0).ppl

    def test_empty_dataset_rejected(self):
        params = random_params(tiny_config("Seq2Seq"), 34)
        with pytest.raises(ValueError, match="empty"):
            T.train_epoch(params, [], T.OptimizerConfig(), 0)

    def test_nonfinite_loss_names_batch(self):
        cfg = tiny_config("Seq2Seq")
        broken = overflowing_attention_params(random_params(cfg, 35))
        with np.errstate(all="ignore"):
            with pytest.raises(ad.NonFiniteError, match="batch 0"):
                T.train_epoch(broken, small_dataset(cfg, n=2), T.OptimizerConfig(lr=0.1), 0)


def assert_bitwise_equal(got, want, what):
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), what


class TestBackpropMatchesReference:
    """The in-place sweep against the allocate-every-sum sweep it replaced."""

    @pytest.mark.parametrize("variant", sorted(M.PRESETS))
    def test_batch_loss_gradients_are_bitwise_equal(self, variant):
        cfg = tiny_config(variant, blog_layers=2)
        params = random_params(cfg, seed=zlib.crc32(variant.encode()))
        # The mean of independent one-example walks, each encoding its own
        # blog and author; train_epoch's shared encodes are checked below.
        tape = ad.Tape()
        watched = {name: tape.watch(t) for name, t in params.named_parameters()}
        working = params.with_tensors(watched)
        losses = [T.sequence_loss(working, ex) for ex in ragged_examples(cfg, 4)]
        batch_loss = ad.scale(reduce(ad.add, losses), 1.0 / len(losses))
        got = ad.backprop(tape, batch_loss)
        want = oracle.reference_backprop(tape, batch_loss)
        for name, leaf in watched.items():
            assert_bitwise_equal(got[leaf].array, want[leaf].array, name)

    @pytest.mark.parametrize("repeats", [False, True], ids=["distinct", "repeating"])
    @pytest.mark.parametrize("variant", sorted(M.PRESETS))
    def test_one_epoch_gives_bitwise_equal_parameters(self, variant, repeats, monkeypatch):
        # With repeats, a batch's walks share blog and author encodes, so
        # their nodes have several readers.
        if repeats:
            cfg, data = repeating_dataset(variant)
        else:
            cfg = tiny_config(variant)
            data = ragged_examples(cfg, 7, seed=70)
        params = random_params(cfg, seed=zlib.crc32(f"epoch/{variant}".encode()))
        opt = T.OptimizerConfig(lr=0.1, batch_size=4 if repeats else 3, seed=6)
        got, got_stats = T.train_epoch(params, data, opt, 0)
        monkeypatch.setattr(ad, "backprop", oracle.reference_backprop)
        want, want_stats = T.train_epoch(params, data, opt, 0)
        for (name, a), (_, b) in zip(got.named_parameters(), want.named_parameters()):
            assert_bitwise_equal(a.array, b.array, name)
        assert got_stats.mean_loss == want_stats.mean_loss


def repeating_dataset(variant, layers=1):
    """Synthetic examples where blogs and authors recur: six blogs, each
    commented on by the same two authors."""
    records = synthetic_records(12, users=2, seed=3)
    vocab, schema = D.build_vocab(records, max_size=100), D.fit_schema(records)
    cfg = tiny_config(variant, vocab_size=len(vocab), feature_dim=schema.width, blog_layers=layers)
    return cfg, D.encode_records(records, vocab, schema)


def batch_gradients(params, examples):
    """``_batch_gradients``' batch loss, example losses and gradients (as
    arrays)."""
    loss, grads, losses = T._batch_gradients(params, examples, "test")
    return loss, losses, {name: g.array for name, g in grads.items()}


def alone_batch_gradients(params, examples):
    """``batch_gradients`` with each example walked alone: the mean
    of independent ``sequence_loss`` walks, each encoding its own blog and
    author."""
    tape = ad.Tape()
    watched = {name: tape.watch(t) for name, t in params.named_parameters()}
    losses = [T.sequence_loss(params.with_tensors(watched), ex) for ex in examples]
    loss = ad.scale(reduce(ad.add, losses), 1.0 / len(losses))
    grads = ad.backprop(tape, loss)
    return loss.item(), [l.item() for l in losses], {name: grads[leaf].array for name, leaf in watched.items()}


def reference_batch_gradients(params, examples):
    """The batch loss, example losses and gradients from
    ``oracle.per_example_walk``, one walk per example."""
    grads = {name: np.zeros(t.shape) for name, t in params.named_parameters()}
    losses = []
    for ex in examples:
        tape = ad.Tape()
        watched = {name: tape.watch(t) for name, t in params.named_parameters()}
        loss = ad.scale(reduce(ad.add, oracle.per_example_walk(params.with_tensors(watched), ex)), -1.0)
        losses.append(loss.item())
        ex_grads = ad.backprop(tape, loss)
        for name, leaf in watched.items():
            grads[name] += ex_grads[leaf].array / len(examples)
    return sum(losses) / len(examples), losses, grads


def assert_batch_close(got, want, tol):
    """(loss, example losses, gradients) triples agree to ``tol``, relative
    to max(1, |want|)."""
    (got_loss, got_losses, got_grads), (want_loss, want_losses, want_grads) = got, want
    assert abs(got_loss - want_loss) <= tol * max(1.0, abs(want_loss))
    for g, w in zip(got_losses, want_losses, strict=True):
        assert abs(g - w) <= tol * max(1.0, abs(w))
    for name, want in want_grads.items():
        gap = np.abs(got_grads[name] - want).max()
        assert gap <= tol * max(1.0, np.abs(want).max()), f"{name}: gap {gap:.3e}"


def batch_readers(params, batch, monkeypatch):
    """``_batch_gradients``' tape as (op, names of the parameters it reads)
    per entry, and its example losses."""
    tapes = []

    class RecordingTape(ad.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(ad, "Tape", RecordingTape)
    _, _, losses = T._batch_gradients(params, batch, "test")
    return tape_readers(tapes[0], params), losses


def walk_readers(params, block):
    """One ``gold_log_probs`` block walk's tape as (op, names of the
    parameters it reads) per entry."""
    tape = ad.Tape()
    T.gold_log_probs(params.with_tensors({name: tape.watch(t) for name, t in params.named_parameters()}), block)
    return tape_readers(tape, params)


def tape_readers(tape, params):
    """(op, names of the parameters it reads) per entry of a tape that
    watched ``params`` first, in order."""
    leaf_names = [name for name, _ in params.named_parameters()]
    return [
        (op, {leaf_names[n] for n in ins if n is not None and n < len(leaf_names)})
        for op, ins, _ in tape.entries
    ]


def shared_input(cfg, count, share, seed):
    """``count`` examples that all have the first one's blog (``share``
    "blog") or author ("author"), and differ in everything else."""
    first = tiny_example(cfg, seed, x_len=4, y_len=2, d_len=3)
    examples = [tiny_example(cfg, seed + i, x_len=2 + i, y_len=i, d_len=1 + i) for i in range(count)]
    if share == "blog":
        return [dataclasses.replace(ex, x=first.x) for ex in examples]
    return [dataclasses.replace(ex, d=first.d, f=first.f) for ex in examples]


def ragged_with_repeats(cfg, seed):
    """Seven ragged examples, then one with the first's one-token blog and
    the fourth's author, and one with the fourth's description but its
    own features (another author)."""
    examples = ragged_examples(cfg, 7, seed=seed)
    extra = tiny_example(cfg, seed + 7, y_len=2)
    return examples + [
        dataclasses.replace(extra, x=examples[0].x, d=examples[3].d, f=examples[3].f),
        dataclasses.replace(extra, d=examples[3].d),
    ]


BATCH_SHAPES = {
    "one": lambda cfg: [tiny_example(cfg, 90)],
    "one_blog": lambda cfg: shared_input(cfg, 4, "blog", seed=91),
    "one_author": lambda cfg: shared_input(cfg, 4, "author", seed=92),
    "distinct": lambda cfg: [tiny_example(cfg, 93 + i) for i in range(5)],
    "ragged": lambda cfg: ragged_with_repeats(cfg, seed=98),
}


class TestBatchSharesEncodes:
    """A batch encodes its distinct blogs as one encoder block and its
    distinct authors as another."""

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("variant", sorted(M.PRESETS))
    def test_repeats_keep_losses_and_gradients(self, variant, layers):
        cfg, data = repeating_dataset(variant, layers)
        params = random_params(cfg, seed=zlib.crc32(f"shared/{variant}/{layers}".encode()))
        batch = [data[int(i)] for i in np.random.default_rng(5).permutation(len(data))]
        want = alone_batch_gradients(params, batch)
        assert_batch_close(batch_gradients(params, batch), want, 1e-12)

    @pytest.mark.parametrize("variant", sorted(M.PRESETS))
    def test_distinct_inputs_keep_every_bit(self, variant):
        # Distinct blogs share the encoder block's GEMMs, so the walks are
        # not bitwise equal to walks alone.  They are bitwise equal to the
        # rows of one block walk's inputs over the whole batch, which has
        # nothing to deduplicate.
        cfg = tiny_config(variant, blog_layers=2)
        params = random_params(cfg, seed=zlib.crc32(f"distinct/{variant}".encode()))
        batch = ragged_examples(cfg, 7, seed=80)
        want = alone_batch_gradients(params, batch)
        assert_batch_close(batch_gradients(params, batch), want, 1e-12)

        blog, desc, v_u, state, *_ = T.example_forward(params, batch)
        x_ends, d_ends = np.cumsum([len(ex.x) for ex in batch]), np.cumsum([len(ex.d) for ex in batch])
        for b, (ex, (got_blog, got_desc, got_v_u, got_state, *_)) in enumerate(zip(batch, T._batch_forward(params, batch))):
            assert_bitwise_equal(got_blog.array, blog.array[x_ends[b] - len(ex.x) : x_ends[b]], "blog states")
            for (h, c), (got_h, got_c) in zip(state.layers, got_state.layers, strict=True):
                assert_bitwise_equal(got_h.array, h.array[b], "initial h")
                assert_bitwise_equal(got_c.array, c.array[b], "initial c")
            if desc is None:
                assert got_desc is None
            else:
                assert_bitwise_equal(got_desc.array, desc.array[d_ends[b] - len(ex.d) : d_ends[b]], "description states")
            if v_u is None:
                assert got_v_u is None and got_state.memory is None
            else:
                assert_bitwise_equal(got_v_u.array, v_u.array[b], "user vector")
                assert (got_state.memory is got_v_u) == cfg.variant.use_gated_memory

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("variant", sorted(M.PRESETS))
    def test_tape_encodes_each_blog_and_author_once(self, variant, layers, monkeypatch):
        # Both a training batch and a block walk over the same batch.
        cfg, data = repeating_dataset(variant, layers)
        params = random_params(cfg, seed=7)
        batch = data[::2] + data[1::2]
        encoded_rows = []
        layer = ad.bilstm_layer

        def spy(fwd, bwd, x, lengths=None):
            encoded_rows.append(x.shape[0])
            return layer(fwd, bwd, x, lengths)

        monkeypatch.setattr(ad, "bilstm_layer", spy)
        blogs = {ex.x: ex for ex in batch}
        authors = {(ex.d, ex.f.tobytes()): ex for ex in batch}
        assert (len(blogs), len(authors)) == (6, 2)
        v = cfg.variant
        # One entry per encoder layer, each over every distinct input once.
        want = [(f"blog_enc.l{l}.fwd.w_x", sum(len(x) for x in blogs)) for l in range(cfg.blog_layers)]
        if v.use_coattention:
            want += [(f"desc_enc.l{l}.fwd.w_x", sum(len(d) for d, _ in authors)) for l in range(cfg.desc_layers)]
        walks = {
            "batch": lambda: batch_readers(params, batch, monkeypatch)[0],
            "block walk": lambda: walk_readers(params, batch),
        }
        for walk, run in walks.items():
            encoded_rows.clear()
            readers = run()
            encoders = [reads for op, reads in readers if op == "bilstm_layer"]

            def count(op, weight):
                return sum(1 for name, reads in readers if name == op and weight in reads)

            assert len(encoders) == len(encoded_rows) == len(want), walk
            for reads, rows, (weight, total) in zip(encoders, encoded_rows, want):
                assert weight in reads and rows == total, walk
            assert count("tanh_affine", "user_proj.w") == (1 if v.needs_user_vector else 0), walk
            init = sum(count("tanh_affine", f"init.l{i}.{hc}.w") for i in range(cfg.decoder_layers) for hc in "hc")
            assert init == 2 * cfg.decoder_layers, walk

    @pytest.mark.parametrize("shape", sorted(BATCH_SHAPES))
    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("variant", sorted(M.PRESETS))
    def test_matches_per_example_reference(self, variant, layers, shape):
        cfg = tiny_config(variant, blog_layers=layers)
        params = random_params(cfg, seed=zlib.crc32(f"batch/{variant}/{layers}/{shape}".encode()))
        batch = BATCH_SHAPES[shape](cfg)
        want = reference_batch_gradients(params, batch)
        assert_batch_close(batch_gradients(params, batch), want, 1e-10)


class TestOneHeadPerBatch:
    """A batch scores all its rows with one output head and one gold
    log-softmax, after its examples' decoder walks."""

    @pytest.mark.parametrize("size", [1, 3, 8])
    @pytest.mark.parametrize("variant, weights", [("PCGN", ("user_mix", "out_mix")), ("Seq2Seq", ("out_proj",))])
    def test_one_head_keeps_example_losses(self, variant, weights, size, monkeypatch):
        cfg, data = repeating_dataset(variant)
        params = random_params(cfg, seed=zlib.crc32(f"head/{variant}/{size}".encode()))
        batch = data[:size]
        readers, losses = batch_readers(params, batch, monkeypatch)
        assert [op for op, _ in readers].count("log_softmax_at") == 1
        assert [reads for op, reads in readers if op == "matvec"] == [{name} for name in weights]
        assert len(losses) == size
        for ex, loss in zip(batch, losses):
            want = T.sequence_loss(params, ex).item()
            assert abs(loss - want) <= 1e-12 * abs(want)


class TestFit:
    def test_history_length_and_callback(self):
        cfg = tiny_config("Seq2Seq")
        params = random_params(cfg, 36)
        data = small_dataset(cfg, n=3)
        seen = []
        final, best, history = T.fit(
            params, data, None, T.OptimizerConfig(lr=0.1, batch_size=3),
            epochs=4, on_epoch=lambda e, stats, dev: seen.append((e, dev)),
        )
        assert len(history) == 4
        assert seen == [(0, None), (1, None), (2, None), (3, None)]

    def test_dev_tracking_returns_no_worse_params(self):
        cfg = tiny_config("Seq2Seq", vocab_size=12)
        params = M.build_model(cfg, 37)
        train = small_dataset(cfg, n=4, seed=70)
        dev = small_dataset(cfg, n=2, seed=90)
        final, best, _ = T.fit(params, train, dev, T.OptimizerConfig(lr=0.8, batch_size=4), epochs=10)
        assert T.dataset_perplexity(best, dev) <= T.dataset_perplexity(final, dev) + 1e-12

    def test_early_stop(self):
        cfg = tiny_config("Seq2Seq", vocab_size=8)
        params = M.build_model(cfg, 38)
        data = [tiny_example(cfg, 91, y_len=2)] * 2
        final, best, history = T.fit(
            params, data, None, T.OptimizerConfig(lr=1.0, batch_size=2),
            epochs=300, stop_below_ppl=1.5,
        )
        assert len(history) < 300
        assert math.exp(
            sum(T.sequence_loss(final, ex).item() for ex in data)
            / sum(ex.target_len for ex in data)
        ) < 1.5

    def test_epochs_validated(self):
        params = random_params(tiny_config("Seq2Seq"), 39)
        with pytest.raises(ValueError):
            T.fit(params, small_dataset(params.config, 2), None, T.OptimizerConfig(), epochs=0)
        for bad in (2.5, 1.0, True):
            with pytest.raises(ValueError, match="epochs must be an integer"):
                T.fit(params, small_dataset(params.config, 2), None, T.OptimizerConfig(), epochs=bad)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
    def test_bad_stop_below_ppl_rejected(self, threshold):
        params = random_params(tiny_config("Seq2Seq"), 39)
        with pytest.raises(ValueError, match="stop_below_ppl"):
            T.fit(params, small_dataset(params.config, 2), None, T.OptimizerConfig(), epochs=1, stop_below_ppl=threshold)

    def test_stop_below_ppl_of_zero_never_stops(self):
        params = random_params(tiny_config("Seq2Seq"), 39)
        data = small_dataset(params.config, 2)
        _, _, history = T.fit(params, data, None, T.OptimizerConfig(lr=0.1), epochs=3, stop_below_ppl=0.0)
        assert len(history) == 3

    def test_dataset_perplexity_empty_rejected(self):
        params = random_params(tiny_config("Seq2Seq"), 40)
        with pytest.raises(ValueError):
            T.dataset_perplexity(params, [])


def make_checkpoint(seed=50, variant="PCGN"):
    records = [
        D.RawRecord(("a", "b"), ("c", "d"), "u1", province="p1"),
        D.RawRecord(("a", "b"), ("c", "e"), "u2", province="p2"),
    ]
    vocab = D.build_vocab(records, max_size=16)
    schema = D.fit_schema(records)
    cfg = tiny_config(variant, vocab_size=len(vocab), feature_dim=schema.width)
    params = random_params(cfg, seed)
    return C.Checkpoint(
        params=params, step=7, variant_name=variant, vocab=vocab, schema=schema,
        extra={"note": "fixture", "epochs_run": 3},
    )


# One value of each JSON type, and numbers a field may not hold.
JSON_VALUES = (None, True, 0, -1, 1.5, 1e308, "text", [], [1], {}, {"k": 1})
DROP = object()


def checkpoint_parts(doc) -> dict:
    """The objects of a checkpoint document that the mutation sweep edits."""
    return {
        "top level": doc, "model": doc["model"], "variant": doc["model"]["variant"],
        "vocab": doc["vocab"], "schema": doc["schema"], "embedding": doc["params"]["embedding"],
    }


class TestCheckpoint:
    def test_mutated_files_raise_only_checkpoint_errors(self, tmp_path):
        path = tmp_path / "model.json"
        C.save_checkpoint(path, make_checkpoint())
        original = json.loads(path.read_text())
        escaped = []
        for part, obj in checkpoint_parts(original).items():
            for key in obj:
                for value in (DROP, *JSON_VALUES):
                    doc = copy.deepcopy(original)
                    target = checkpoint_parts(doc)[part]
                    if value is DROP:
                        del target[key]
                    else:
                        target[key] = value
                    path.write_text(json.dumps(doc))
                    try:
                        C.load_checkpoint(path)
                    except C.CheckpointError:
                        pass
                    except Exception as err:
                        what = "dropped" if value is DROP else f"= {value!r}"
                        escaped.append(f"{part}.{key} {what}: {type(err).__name__}: {err}")
        assert escaped == []

    def test_roundtrip_is_bitwise(self, tmp_path):
        path = tmp_path / "model.json"
        ckpt = make_checkpoint()
        C.save_checkpoint(path, ckpt)
        loaded = C.load_checkpoint(path)
        assert loaded.params.config == ckpt.params.config
        assert loaded.step == 7
        assert loaded.variant_name == "PCGN"
        assert loaded.vocab == ckpt.vocab
        assert loaded.schema == ckpt.schema
        assert loaded.extra == ckpt.extra
        for (name, a), (_, b) in zip(ckpt.params.named_parameters(), loaded.params.named_parameters()):
            assert np.array_equal(a.array, b.array), name

    def test_saves_are_byte_identical(self, tmp_path):
        ckpt = make_checkpoint()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        C.save_checkpoint(p1, ckpt)
        C.save_checkpoint(p2, ckpt)
        assert p1.read_bytes() == p2.read_bytes()

    def test_little_endian_row_major_layout(self, tmp_path):
        path = tmp_path / "model.json"
        ckpt = make_checkpoint(variant="Seq2Seq")
        C.save_checkpoint(path, ckpt)
        doc = json.loads(path.read_text())
        entry = doc["params"]["embedding"]
        import base64
        raw = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8")
        original = ckpt.params.embedding.array
        assert np.array_equal(raw.reshape(original.shape), original)

    def test_foreign_format_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        C.save_checkpoint(path, make_checkpoint())
        doc = json.loads(path.read_text())
        doc["format"] = "other.serializer"
        path.write_text(json.dumps(doc))
        with pytest.raises(C.CheckpointVersionError, match="format"):
            C.load_checkpoint(path)

    def test_newer_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        C.save_checkpoint(path, make_checkpoint())
        doc = json.loads(path.read_text())
        doc["version"] = C.FORMAT_VERSION + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(C.CheckpointVersionError, match="version"):
            C.load_checkpoint(path)

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("definitely { not json")
        with pytest.raises(C.CheckpointCorruptError):
            C.load_checkpoint(path)

    def test_missing_format_marker_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"version": 1}))
        with pytest.raises(C.CheckpointCorruptError, match="format"):
            C.load_checkpoint(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        C.save_checkpoint(path, make_checkpoint())
        doc = json.loads(path.read_text())
        blob = doc["params"]["embedding"]["data"]
        doc["params"]["embedding"]["data"] = blob[: len(blob) // 2 // 4 * 4]
        path.write_text(json.dumps(doc))
        with pytest.raises(C.CheckpointCorruptError, match="embedding"):
            C.load_checkpoint(path)

    def test_config_param_disagreement_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        C.save_checkpoint(path, make_checkpoint())
        doc = json.loads(path.read_text())
        doc["model"]["blog_hidden"] = doc["model"]["blog_hidden"] + 1
        path.write_text(json.dumps(doc))
        with pytest.raises(C.CheckpointShapeError):
            C.load_checkpoint(path)

    def test_missing_parameter_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        C.save_checkpoint(path, make_checkpoint())
        doc = json.loads(path.read_text())
        del doc["params"]["attn_blog"]
        path.write_text(json.dumps(doc))
        with pytest.raises(C.CheckpointShapeError, match="attn_blog"):
            C.load_checkpoint(path)

    @pytest.mark.parametrize("failure", [OSError("disk full"), KeyboardInterrupt()])
    def test_interrupted_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "model.json"
        C.save_checkpoint(path, make_checkpoint())
        before = path.read_bytes()

        def dump_partway(doc, fh, **kwargs):
            fh.write('{"format": "pcgn.checkpoint", "params": {')
            raise failure

        monkeypatch.setattr(C.json, "dump", dump_partway)
        with pytest.raises(type(failure)):
            C.save_checkpoint(path, make_checkpoint(seed=51))
        assert path.read_bytes() == before
        assert C.load_checkpoint(path).step == 7
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    def test_single_precision_roundtrip(self, tmp_path):
        # Version-1 files may hold float32 blobs; they load as float64.
        path = tmp_path / "model.json"
        ckpt = make_checkpoint(variant="Seq2Seq")
        C.save_checkpoint(path, ckpt)
        doc = json.loads(path.read_text())
        narrowed = {}
        for name, blob in doc["params"].items():
            arr = np.frombuffer(base64.b64decode(blob["data"]), dtype="<f8").astype("<f4")
            narrowed[name] = arr.astype(np.float64).reshape(blob["shape"])
            blob.update(dtype="float32", data=base64.b64encode(arr.tobytes()).decode("ascii"))
        path.write_text(json.dumps(doc))
        loaded = C.load_checkpoint(path)
        for name, t in loaded.params.named_parameters():
            assert t.array.dtype == np.float64, name
            assert np.array_equal(t.array, narrowed[name]), name
