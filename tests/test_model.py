"""Layer-level and wiring tests for the network components."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgn import autodiff as ad
from pcgn import model as M
from pcgn import training as T

from conftest import (
    assert_caught_at_boundaries, nan_cell_params, random_params, tiny_config, tiny_example, weighted_sum,
)
import oracle


def zero_cell(in_dim, hidden):
    return M.LSTMCell(
        w_x=ad.zeros((4 * hidden, in_dim)),
        w_h=ad.zeros((4 * hidden, hidden)),
        b=ad.zeros(4 * hidden),
    )


def random_cell(rng, in_dim, hidden):
    return M.LSTMCell(
        w_x=ad.tensor(rng.normal(0, 0.5, (4 * hidden, in_dim))),
        w_h=ad.tensor(rng.normal(0, 0.5, (4 * hidden, hidden))),
        b=ad.tensor(rng.normal(0, 0.5, 4 * hidden)),
    )


class TestVariant:
    def test_preset_flags(self):
        assert M.PRESETS["Seq2Seq"] == M.Variant(
            use_user_embedding=False, use_gated_memory=False,
            use_coattention=False, use_external=False)
        assert M.PRESETS["Seq2Seq+Emb"].use_user_embedding
        assert M.PRESETS["+Mem"].use_gated_memory and not M.PRESETS["+Mem"].use_coattention
        assert M.PRESETS["+CoAtt"].use_coattention and not M.PRESETS["+CoAtt"].use_external
        assert M.PRESETS["PCGN"] == M.PRESETS["+External"] == M.PRESETS["PCGN+ComWord"]

    def test_external_requires_coattention(self):
        with pytest.raises(ValueError, match="coattention"):
            M.Variant(use_external=True)

    def test_needs_user_vector(self):
        assert not M.PRESETS["Seq2Seq"].needs_user_vector
        assert M.PRESETS["Seq2Seq+Emb"].needs_user_vector
        assert M.PRESETS["+Mem"].needs_user_vector
        assert M.PRESETS["PCGN"].needs_user_vector

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown variant"):
            M.variant_from_name("Seq2seq")


class TestModelConfig:
    def test_decoder_follows_blog_encoder(self):
        cfg = tiny_config(blog_hidden=6, blog_layers=2)
        assert cfg.decoder_hidden == 6
        assert cfg.decoder_layers == 2

    def test_decoder_input_dim_by_variant(self):
        dims = dict(embed_dim=3, blog_hidden=4, desc_hidden=5, user_dim=7)
        base = 2 * 4 + 3
        assert tiny_config("Seq2Seq", **dims).decoder_input_dim == base
        assert tiny_config("Seq2Seq+Emb", **dims).decoder_input_dim == base + 7
        assert tiny_config("+Mem", **dims).decoder_input_dim == base + 7
        assert tiny_config("+CoAtt", **dims).decoder_input_dim == base + 10 + 7
        assert tiny_config("PCGN", **dims).decoder_input_dim == base + 10 + 7

    def test_roundtrip_dict(self):
        cfg = tiny_config("PCGN", unk_id=None)
        assert M.ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_presets_scale(self):
        paper = M.ModelConfig.paper(vocab_size=40000, feature_dim=20)
        assert (paper.embed_dim, paper.blog_hidden, paper.blog_layers) == (300, 512, 2)
        assert (paper.desc_hidden, paper.user_dim) == (200, 100)
        desk = M.ModelConfig.desk(vocab_size=64, feature_dim=9)
        assert (desk.embed_dim, desk.blog_hidden, desk.blog_layers) == (16, 32, 1)
        assert (desk.desc_hidden, desk.user_dim) == (16, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(vocab_size=0)
        with pytest.raises(ValueError):
            tiny_config(eos_id=99)
        with pytest.raises(ValueError, match="feature_dim"):
            M.ModelConfig(vocab_size=8, feature_dim=0, variant=M.PRESETS["PCGN"])

    @pytest.mark.parametrize("field", ["blog_layers", "desc_layers", "vocab_size", "bos_id"])
    @pytest.mark.parametrize("value", [1.5, 1e308, "2", True, None])
    def test_non_integer_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            tiny_config(**{field: value})

    @pytest.mark.parametrize("value", [1, 0.0, "yes", None])
    def test_non_boolean_variant_flags_rejected(self, value):
        with pytest.raises(ValueError, match="use_gated_memory must be true or false"):
            M.Variant(use_gated_memory=value)

    def test_nullable_special_ids(self):
        cfg = M.ModelConfig(vocab_size=1, feature_dim=1, pad_id=None, unk_id=None, bos_id=0, eos_id=0)
        assert cfg.pad_id is None and cfg.unk_id is None


class TestParamSpec:
    def test_seq2seq_allocates_no_user_parameters(self):
        names = {n for n, _ in M.param_spec(tiny_config("Seq2Seq"))}
        assert not any("user" in n or "desc" in n or "mem" in n or "mix" in n for n in names)
        assert "out_proj" in names

    def test_pcgn_allocates_external_head_instead_of_plain(self):
        names = {n for n, _ in M.param_spec(tiny_config("PCGN"))}
        assert {"user_proj.w", "attn_desc", "mem_update", "mem_output", "user_mix", "out_mix"} <= names
        assert "out_proj" not in names

    def test_embedding_is_shared_single_table(self):
        names = [n for n, _ in M.param_spec(tiny_config("PCGN"))]
        assert names.count("embedding") == 1
        assert names[0] == "embedding"

    def test_hand_inventory_seq2seq(self):
        cfg = tiny_config("Seq2Seq", vocab_size=10, feature_dim=5,
                          embed_dim=3, blog_hidden=4, blog_layers=1)
        params = random_params(cfg, seed=0)
        embedding = 10 * 3
        enc_cell = 16 * 3 + 16 * 4 + 16   # one direction
        attn = 4 * 8
        dec_cell = 16 * 11 + 16 * 4 + 16  # input = 2*4 + 3
        init = 2 * (4 * 8 + 4)
        head = 10 * 4
        n_parameters = sum(t.array.size for _, t in params.named_parameters())
        assert n_parameters == embedding + 2 * enc_cell + attn + dec_cell + init + head

    def test_mem_output_gate_reads_state_embed_context(self):
        cfg = tiny_config("+Mem", embed_dim=3, blog_hidden=4, user_dim=2)
        spec = dict(M.param_spec(cfg))
        assert spec["mem_update"] == (2, 4)
        assert spec["mem_output"] == (2, 4 + 3 + 8)


class TestModelParams:
    def test_rejects_missing_and_extra(self):
        cfg = tiny_config("Seq2Seq")
        good = {name: ad.zeros(shape) for name, shape in M.param_spec(cfg)}
        bad = dict(good)
        bad.pop("embedding")
        with pytest.raises(ValueError, match="missing"):
            M.ModelParams(cfg, bad)
        bad = dict(good)
        bad["mystery"] = ad.zeros(3)
        with pytest.raises(ValueError, match="extra"):
            M.ModelParams(cfg, bad)

    def test_rejects_wrong_shape(self):
        cfg = tiny_config("Seq2Seq")
        tensors = {name: ad.zeros(shape) for name, shape in M.param_spec(cfg)}
        tensors["embedding"] = ad.zeros((2, 2))
        with pytest.raises(ValueError, match="embedding"):
            M.ModelParams(cfg, tensors)

    def test_named_parameters_follow_spec_order(self):
        cfg = tiny_config("PCGN")
        params = random_params(cfg, 0)
        assert [n for n, _ in params.named_parameters()] == [n for n, _ in M.param_spec(cfg)]

    def test_with_tensors_replaces_and_keeps_rest(self):
        params = random_params(tiny_config("Seq2Seq"), 0)
        new_emb = ad.zeros(params.embedding.shape)
        updated = params.with_tensors({"embedding": new_emb})
        assert updated.tensor("embedding") is new_emb
        assert updated.tensor("attn_blog") is params.tensor("attn_blog")

    def test_views_alias_the_mapping(self):
        params = random_params(tiny_config("PCGN"), 1)
        assert params.blog_fwd[0].w_x is params.tensor("blog_enc.l0.fwd.w_x")
        assert params.user_mix is params.tensor("user_mix")
        assert params.out_proj is None


class TestBuildModel:
    def test_same_seed_is_bitwise_identical(self):
        cfg = tiny_config("PCGN")
        a, b = M.build_model(cfg, 7), M.build_model(cfg, 7)
        for (name, ta), (_, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(ta.array, tb.array), name

    def test_different_seeds_differ(self):
        cfg = tiny_config("PCGN")
        a, b = M.build_model(cfg, 7), M.build_model(cfg, 8)
        assert not np.array_equal(a.embedding.array, b.embedding.array)

    def test_forget_bias_slab_is_one(self):
        params = M.build_model(tiny_config("PCGN", blog_layers=2), 0)
        for stack in (params.blog_fwd, params.blog_bwd, params.desc_fwd, params.desc_bwd, params.decoder):
            for cell in stack:
                h = cell.hidden
                assert np.array_equal(cell.b.array[h : 2 * h], np.ones(h))

    def test_other_values_inside_init_range(self):
        params = M.build_model(tiny_config("Seq2Seq"), 3)
        emb = params.embedding.array
        assert np.abs(emb).max() <= 0.08


class TestLSTM:
    def test_zero_everything_is_fixed_at_zero(self):
        cell = zero_cell(3, 4)
        h, c = M.lstm_step(cell, ad.zeros(3), ad.zeros(4), ad.zeros(4))
        assert np.array_equal(h.array, np.zeros(4))
        assert np.array_equal(c.array, np.zeros(4))

    def test_saturated_forget_gate_carries_cell(self):
        cell = zero_cell(3, 4)
        cell.b.array[4:8] = 20.0  # forget slab
        c_prev = ad.tensor([0.3, -1.2, 2.0, 0.0])
        h, c = M.lstm_step(cell, ad.zeros(3), ad.zeros(4), c_prev)
        assert np.allclose(c.array, c_prev.array, atol=1e-8)
        assert np.allclose(h.array, 0.5 * np.tanh(c_prev.array), atol=1e-8)

    def test_matches_reference_gates(self):
        rng = np.random.default_rng(0)
        cell = random_cell(rng, 3, 4)
        x, h_prev, c_prev = rng.normal(size=3), rng.normal(size=4), rng.normal(size=4)
        h, c = M.lstm_step(cell, ad.tensor(x), ad.tensor(h_prev), ad.tensor(c_prev))
        arrs = {"z.w_x": cell.w_x.array, "z.w_h": cell.w_h.array, "z.b": cell.b.array}
        pre = arrs["z.w_x"] @ x + arrs["z.w_h"] @ h_prev + arrs["z.b"]
        c_ref = oracle.sig(pre[4:8]) * c_prev + oracle.sig(pre[:4]) * np.tanh(pre[8:12])
        h_ref = oracle.sig(pre[12:]) * np.tanh(c_ref)
        assert np.allclose(c.array, c_ref, atol=1e-14)
        assert np.allclose(h.array, h_ref, atol=1e-14)

    @pytest.mark.parametrize("which", ["w_x", "w_h", "b"])
    def test_gradients_match_finite_differences(self, which):
        rng = np.random.default_rng(42)
        base = random_cell(rng, 3, 4)
        x = ad.tensor(rng.normal(size=3))
        h_prev = ad.tensor(rng.normal(size=4))
        c_prev = ad.tensor(rng.normal(size=4))
        weights = ad.tensor(rng.normal(size=4))

        def f(theta):
            cell = M.LSTMCell(
                w_x=theta if which == "w_x" else base.w_x,
                w_h=theta if which == "w_h" else base.w_h,
                b=theta if which == "b" else base.b,
            )
            h, c = M.lstm_step(cell, x, h_prev, c_prev)
            return ad.add(weighted_sum(h, weights), weighted_sum(c, weights))

        err = ad.finite_difference_check(f, getattr(base, which))
        assert err < 1e-6


class TestFusedLSTMCell:
    def test_outputs_match_reference_gates(self):
        rng = np.random.default_rng(3)
        cell = random_cell(rng, 3, 4)
        x, h_prev, c_prev = rng.normal(size=3), rng.normal(size=4), rng.normal(size=4)
        h, c = ad.lstm_cell(cell.w_x, cell.w_h, cell.b, ad.tensor(x), ad.tensor(h_prev), ad.tensor(c_prev))
        pre = cell.w_x.array @ x + cell.w_h.array @ h_prev + cell.b.array
        c_ref = oracle.sig(pre[4:8]) * c_prev + oracle.sig(pre[:4]) * np.tanh(pre[8:12])
        h_ref = oracle.sig(pre[12:]) * np.tanh(c_ref)
        assert h.shape == c.shape == (4,)
        assert np.allclose(h.array, h_ref, atol=1e-14)
        assert np.allclose(c.array, c_ref, atol=1e-14)

    @pytest.mark.parametrize("which", ["x", "h_prev", "c_prev"])
    def test_input_gradients_match_finite_differences(self, which):
        rng = np.random.default_rng(43)
        cell = random_cell(rng, 3, 4)
        inputs = {
            "x": ad.tensor(rng.normal(size=3)),
            "h_prev": ad.tensor(rng.normal(size=4)),
            "c_prev": ad.tensor(rng.normal(size=4)),
        }
        weights = ad.tensor(rng.normal(size=8))

        def f(theta):
            args = dict(inputs, **{which: theta})
            h, c = ad.lstm_cell(cell.w_x, cell.w_h, cell.b, args["x"], args["h_prev"], args["c_prev"])
            return weighted_sum(ad.concat([h, c]), weights)

        assert ad.finite_difference_check(f, inputs[which]) < 1e-6

    def test_row_block_gradients_match_finite_differences(self):
        rng = np.random.default_rng(44)
        cell = random_cell(rng, 3, 4)
        inputs = {
            "w_x": cell.w_x, "w_h": cell.w_h, "b": cell.b,
            "x": ad.tensor(rng.normal(size=(2, 3))),
            "h_prev": ad.tensor(rng.normal(size=(2, 4))),
            "c_prev": ad.tensor(rng.normal(size=(2, 4))),
        }
        mix = ad.tensor(rng.normal(size=(2, 8)))
        for which in inputs:
            def f(theta):
                args = dict(inputs, **{which: theta})
                h, c = ad.lstm_cell(args["w_x"], args["w_h"], args["b"], args["x"], args["h_prev"], args["c_prev"])
                return weighted_sum(ad.concat([h, c]), mix)

            assert ad.finite_difference_check(f, inputs[which]) < 1e-6, which

    def test_nan_inside_cell_rejected(self):
        # W_x x overflows to +inf and W_h h_prev to -inf; their sum is NaN.
        # The cell passes it on; the model reports it where it leaves the engine.
        w_x = ad.tensor(np.full((8, 1), 1e308))
        w_h = ad.tensor(np.full((8, 2), -1e308))
        with np.errstate(over="ignore", invalid="ignore"):
            h, c = ad.lstm_cell(w_x, w_h, ad.zeros(8), ad.tensor([10.0]), ad.tensor([10.0, 10.0]), ad.zeros(2))
        assert np.isnan(h.array).all() and np.isnan(c.array).all()
        cfg = tiny_config("PCGN")
        params = nan_cell_params(random_params(cfg, 44))
        assert_caught_at_boundaries(params, [tiny_example(cfg, seed=i) for i in range(2)])

    def test_shape_mismatch_rejected(self):
        cell = zero_cell(3, 4)
        with pytest.raises(ad.ShapeError):
            ad.lstm_cell(cell.w_x, cell.w_h, cell.b, ad.zeros(2), ad.zeros(4), ad.zeros(4))
        with pytest.raises(ad.ShapeError):
            ad.lstm_cell(cell.w_x, cell.w_h, cell.b, ad.zeros(3), ad.zeros(4), ad.zeros(3))
        with pytest.raises(ad.ShapeError):
            ad.lstm_cell(cell.w_x, cell.w_h, cell.b, ad.zeros((2, 3)), ad.zeros((3, 4)), ad.zeros((3, 4)))
        with pytest.raises(ad.ShapeError):
            ad.lstm_cell(cell.w_x, cell.w_h, cell.b, ad.zeros((2, 3)), ad.zeros(4), ad.zeros(4))


class TestBiLSTM:
    def test_output_shape(self):
        rng = np.random.default_rng(1)
        fwd = [random_cell(rng, 3, 4), random_cell(rng, 8, 4)]
        bwd = [random_cell(rng, 3, 4), random_cell(rng, 8, 4)]
        inputs = ad.tensor(rng.normal(size=(5, 3)))
        states = M.bilstm_encode(fwd, bwd, inputs)
        assert states.shape == (5, 8)

    def test_direction_symmetry_under_reversal(self):
        rng = np.random.default_rng(2)
        f_cell, b_cell = random_cell(rng, 3, 4), random_cell(rng, 3, 4)
        inputs = rng.normal(size=(4, 3))
        states = M.bilstm_encode([f_cell], [b_cell], ad.tensor(inputs))
        swapped = M.bilstm_encode([b_cell], [f_cell], ad.tensor(inputs[::-1]))
        for t in range(4):
            orig = states.array[t]
            mirror = swapped.array[3 - t]
            assert np.array_equal(orig[:4], mirror[4:])
            assert np.array_equal(orig[4:], mirror[:4])

    def test_direction_symmetry_on_a_ragged_block(self):
        rng = np.random.default_rng(2)
        f_cell, b_cell = random_cell(rng, 3, 4), random_cell(rng, 3, 4)
        lengths = [5, 1, 3, 3]
        inputs = rng.normal(size=(sum(lengths), 3))
        starts = np.cumsum([0] + lengths[:-1])
        # Each sequence's rows reversed in place: row i of a sequence goes to
        # row n - 1 - i of the same sequence.
        mirror = np.concatenate([np.arange(s + n - 1, s - 1, -1) for s, n in zip(starts, lengths)])
        states = M.bilstm_encode([f_cell], [b_cell], ad.tensor(inputs), lengths).array
        swapped = M.bilstm_encode([b_cell], [f_cell], ad.tensor(inputs[mirror]), lengths).array
        assert np.array_equal(states[:, :4], swapped[mirror, 4:])
        assert np.array_equal(states[:, 4:], swapped[mirror, :4])

    def test_empty_sequence_rejected(self):
        rng = np.random.default_rng(3)
        cells = [random_cell(rng, 3, 4)]
        with pytest.raises(ValueError, match="empty"):
            M.bilstm_encode(cells, cells, ad.zeros((0, 3)))
        with pytest.raises(ValueError, match="empty"):
            M.bilstm_encode(cells, cells, ad.zeros((2, 3)), [2, 0])

    def test_unequal_stacks_rejected(self):
        rng = np.random.default_rng(3)
        cells = [random_cell(rng, 3, 4)]
        with pytest.raises(ValueError, match="matching non-empty forward/backward stacks"):
            M.bilstm_encode(cells, cells + cells, ad.zeros((2, 3)))

    def test_one_tape_entry_per_layer_direction(self):
        cfg = tiny_config("PCGN", blog_layers=2)
        params = random_params(cfg, 6)
        tape = ad.Tape()
        watched = params.with_tensors({name: tape.watch(t) for name, t in params.named_parameters()})
        M.encode_blog(watched, tiny_example(cfg, seed=6, x_len=5).x)
        ops = [name for name, _, _ in tape.entries]
        # One entry runs both directions of a layer and joins their states.
        assert ops.count("bilstm_layer") == cfg.blog_layers
        assert not {"concat", "lstm_cell", "vslice", "stack_rows"} & set(ops)

    def test_matches_reference(self):
        cfg = tiny_config("Seq2Seq", blog_layers=2)
        params = random_params(cfg, 5)
        ids = [4, 7, 5]
        states = M.encode_blog(params, ids)
        arrs = {n: t.array for n, t in params.named_parameters()}
        ref = oracle.bilstm_run(arrs, "blog_enc", 2, cfg.blog_hidden, [arrs["embedding"][i] for i in ids])
        assert states.shape == (3, 2 * cfg.blog_hidden)
        for s, r in zip(states.array, ref):
            assert np.allclose(s, r, atol=1e-12)


class TestAttention:
    def test_single_state_gets_full_weight(self):
        rng = np.random.default_rng(4)
        res = M.attention_context(
            ad.tensor(rng.normal(size=3)),
            ad.stack_rows([ad.tensor(rng.normal(size=5))]),
            ad.tensor(rng.normal(size=(3, 5))),
        )
        assert res.weights.array[0] == 1.0

    def test_identical_states_share_weight(self):
        rng = np.random.default_rng(5)
        state = ad.tensor(rng.normal(size=5))
        res = M.attention_context(
            ad.tensor(rng.normal(size=3)),
            ad.stack_rows([state, state]),
            ad.tensor(rng.normal(size=(3, 5))),
        )
        assert np.allclose(res.weights.array, [0.5, 0.5], atol=1e-15)
        assert np.allclose(res.context.array, state.array, atol=1e-15)

    def test_identity_hand_value(self):
        s = ad.tensor([1.0, 0.0])
        states = ad.stack_rows([ad.tensor([1.0, 0.0]), ad.tensor([0.0, 1.0])])
        res = M.attention_context(s, states, ad.tensor(np.eye(2)))
        e = np.e
        expected = np.array([e / (e + 1.0), 1.0 / (e + 1.0)])
        assert np.allclose(res.weights.array, expected, atol=1e-14)
        assert np.allclose(res.context.array, expected, atol=1e-14)

    def test_empty_states_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            M.attention_context(ad.tensor([1.0]), ad.zeros((0, 1)), ad.tensor(np.eye(1)))

    def test_gradient_through_attention(self):
        rng = np.random.default_rng(6)
        states = ad.stack_rows([ad.tensor(rng.normal(size=4)) for _ in range(3)])
        s_prev = ad.tensor(rng.normal(size=2))
        weights = ad.tensor(rng.normal(size=4))

        def f(w_a):
            return weighted_sum(M.attention_context(s_prev, states, w_a).context, weights)

        assert ad.finite_difference_check(f, ad.tensor(rng.normal(size=(2, 4)))) < 1e-6

    @given(st.integers(1, 6), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_weights_form_distribution_and_context_stays_in_hull(self, n_states, seed):
        rng = np.random.default_rng(seed)
        states = [ad.tensor(rng.normal(size=3)) for _ in range(n_states)]
        res = M.attention_context(
            ad.tensor(rng.normal(size=2)), ad.stack_rows(states), ad.tensor(rng.normal(size=(2, 3))))
        w = res.weights.array
        assert abs(w.sum() - 1.0) < 1e-12 and (w > 0).all()
        stacked = np.stack([s.array for s in states])
        assert (res.context.array <= stacked.max(axis=0) + 1e-12).all()
        assert (res.context.array >= stacked.min(axis=0) - 1e-12).all()


class TestGatedMemory:
    def run_step(self, w_u, w_o, s, m_prev, e_dim=2, c_dim=2):
        zeros = ad.zeros
        return M.gated_memory_step(
            w_u, w_o, s, s, zeros(e_dim), zeros(c_dim), m_prev)

    def test_zero_gate_weights_halve_memory(self):
        w_u = ad.zeros((2, 3))
        w_o = ad.zeros((2, 3 + 2 + 2))
        m0 = ad.tensor([1.0, -2.0])
        s = ad.tensor([0.3, 0.1, -0.5])
        m1, m1_read = self.run_step(w_u, w_o, s, m0)
        assert np.array_equal(m1.array, [0.5, -1.0])
        assert np.array_equal(m1_read.array, [0.25, -0.5])
        m2, _ = self.run_step(w_u, w_o, s, m1)
        assert np.array_equal(m2.array, [0.25, -0.5])

    def test_zero_memory_stays_zero(self):
        rng = np.random.default_rng(7)
        w_u = ad.tensor(rng.normal(size=(2, 3)))
        w_o = ad.tensor(rng.normal(size=(2, 7)))
        m1, m_read = self.run_step(w_u, w_o, ad.tensor(rng.normal(size=3)), ad.zeros(2))
        assert np.array_equal(m1.array, np.zeros(2))
        assert np.array_equal(m_read.array, np.zeros(2))

    def test_magnitude_strictly_decays(self):
        rng = np.random.default_rng(8)
        w_u = ad.tensor(rng.normal(size=(3, 4)))
        w_o = ad.tensor(rng.normal(size=(3, 4 + 2 + 2)))
        m = ad.tensor(rng.normal(size=3))
        for step in range(5):
            m_next, m_read = self.run_step(w_u, w_o, ad.tensor(rng.normal(size=4)), m)
            assert (np.abs(m_next.array) < np.abs(m.array)).all()
            assert (np.abs(m_read.array) <= np.abs(m_next.array)).all()
            m = m_next

    def test_rollout_equals_product_of_gates(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            w_u_arr = rng.normal(size=(3, 4))
            w_u = ad.tensor(w_u_arr)
            w_o = ad.tensor(rng.normal(size=(3, 8)))
            m0 = rng.normal(size=3)
            m = ad.tensor(m0)
            gate_product = np.ones(3)
            for _ in range(rng.integers(1, 9)):
                s = rng.normal(size=4)
                m, _ = self.run_step(w_u, w_o, ad.tensor(s), m)
                gate_product = gate_product * oracle.sig(w_u_arr @ s)
            assert np.allclose(m.array, gate_product * m0, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(9)
        s = ad.tensor(rng.normal(size=4))
        e = ad.tensor(rng.normal(size=2))
        cb = ad.tensor(rng.normal(size=2))
        m_prev = ad.tensor(rng.normal(size=3))
        w_o = ad.tensor(rng.normal(size=(3, 8)))
        mix = ad.tensor(rng.normal(size=3))

        def f(w_u):
            _, m_read = M.gated_memory_step(w_u, w_o, s, s, e, cb, m_prev)
            return weighted_sum(m_read, mix)

        assert ad.finite_difference_check(f, ad.tensor(rng.normal(size=(3, 4)))) < 1e-6


class TestUserVector:
    def test_zero_features_give_tanh_bias(self):
        params = random_params(tiny_config("Seq2Seq+Emb"), 10)
        v = M.user_vector(params, np.zeros(params.config.feature_dim))
        assert np.allclose(v.array, np.tanh(params.tensor("user_proj.b").array), atol=1e-14)

    def test_bounded(self):
        params = random_params(tiny_config("PCGN"), 11)
        v = M.user_vector(params, np.full(params.config.feature_dim, 50.0))
        assert (np.abs(v.array) <= 1.0).all()

    def test_shape_checked(self):
        params = random_params(tiny_config("PCGN"), 12)
        with pytest.raises(ad.ShapeError):
            M.user_vector(params, np.zeros(params.config.feature_dim + 1))

    def test_absent_for_plain_seq2seq(self):
        params = random_params(tiny_config("Seq2Seq"), 13)
        with pytest.raises(ValueError, match="no user projection"):
            M.user_vector(params, np.zeros(params.config.feature_dim))


class TestDecoderInit:
    def test_reads_forward_last_and_backward_first(self):
        cfg = tiny_config("Seq2Seq", blog_hidden=1, embed_dim=2)
        tensors = {name: ad.zeros(shape) for name, shape in M.param_spec(cfg)}
        tensors["init.l0.h.w"] = ad.tensor([[1.0, 0.0]])
        tensors["init.l0.c.w"] = ad.tensor([[0.0, 1.0]])
        params = M.ModelParams(cfg, tensors)
        blog_states = ad.tensor([[0.7, -0.3], [0.2, 0.9]])
        state = M.init_decoder_state(params, blog_states, None)
        (h0, c0), = state.layers
        assert np.allclose(h0.array, np.tanh([0.2]), atol=1e-15)   # fwd half, last position
        assert np.allclose(c0.array, np.tanh([-0.3]), atol=1e-15)  # bwd half, first position
        assert state.memory is None and state.step == 0

    def test_memory_starts_at_user_vector(self):
        params = random_params(tiny_config("PCGN"), 14)
        ex = tiny_example(params.config)
        states = M.encode_blog(params, ex.x)
        v_u = M.user_vector(params, ex.f)
        state = M.init_decoder_state(params, states, v_u)
        assert state.memory is v_u

    def test_memory_variant_requires_user_vector(self):
        params = random_params(tiny_config("+Mem"), 15)
        ex = tiny_example(params.config)
        states = M.encode_blog(params, ex.x)
        with pytest.raises(ValueError, match="M_0"):
            M.init_decoder_state(params, states, None)
        with pytest.raises(ValueError, match="M_0"):
            M.decoder_start(params, M.initial_layers(params, states), None)


class TestDecoderStep:
    def full_setup(self, variant, seed=16, blog_layers=1):
        cfg = tiny_config(variant, blog_layers=blog_layers)
        params = random_params(cfg, seed)
        ex = tiny_example(cfg, seed + 1)
        blog = M.encode_blog(params, ex.x)
        desc = M.encode_description(params, ex.d) if cfg.variant.use_coattention else None
        v_u = M.user_vector(params, ex.f) if cfg.variant.needs_user_vector else None
        state = M.init_decoder_state(params, blog, v_u)
        return params, ex, blog, desc, v_u, state

    def test_logits_cover_vocabulary(self):
        for variant in ("Seq2Seq", "Seq2Seq+Emb", "+Mem", "+CoAtt", "PCGN"):
            params, ex, blog, desc, v_u, state = self.full_setup(variant)
            out = M.decoder_step(params, state, ex.y[0], blog, desc, v_u)
            assert out.logits.shape == (params.config.vocab_size,)
            assert out.blog_attention.shape == (len(ex.x),)
            if params.config.variant.use_coattention:
                assert out.desc_attention.shape == (len(ex.d),)
            else:
                assert out.desc_attention is None

    def test_state_advances(self):
        params, ex, blog, desc, v_u, state = self.full_setup("PCGN")
        out = M.decoder_step(params, state, ex.y[0], blog, desc, v_u)
        assert out.state.step == 1
        assert out.state.memory is not state.memory

    def test_memory_decays_by_update_gate(self):
        params, ex, blog, desc, v_u, state = self.full_setup("PCGN")
        out = M.decoder_step(params, state, ex.y[0], blog, desc, v_u)
        g_u = oracle.sig(params.mem_update.array @ state.top_h.array)
        assert np.allclose(out.state.memory.array, g_u * state.memory.array, atol=1e-12)

    def test_variant_state_mismatches_raise(self):
        params, ex, blog, desc, v_u, state = self.full_setup("PCGN")
        plain_params, plain_ex, plain_blog, _, _, plain_state = self.full_setup("Seq2Seq")
        memoryless = M.DecoderState(layers=state.layers, memory=None)
        with pytest.raises(ValueError, match="memory"):
            M.decoder_step(params, memoryless, ex.y[0], blog, desc, v_u)
        with pytest.raises(ValueError, match="description"):
            M.decoder_step(plain_params, plain_state, plain_ex.y[0], plain_blog, desc, None)
        with pytest.raises(ValueError, match="user vector"):
            M.decoder_step(params, state, ex.y[0], blog, desc, None)
        deep = M.DecoderState(layers=state.layers + state.layers, memory=state.memory)
        with pytest.raises(ValueError, match="configured depth"):
            M.decoder_advance(params, deep, ex.y[0], blog, desc, v_u)
        with pytest.raises(ValueError, match="no description encoder"):
            M.encode_description(plain_params, ex.d)

    def test_two_layer_stack(self):
        params, ex, blog, desc, v_u, state = self.full_setup("PCGN", blog_layers=2)
        out = M.decoder_step(params, state, ex.y[0], blog, desc, v_u)
        assert len(out.state.layers) == 2
        assert out.logits.shape == (params.config.vocab_size,)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestVectorWalk:
    """One example's vector walk is a speed path of the block walk: it
    returns the one-row block's values bit for bit."""

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_the_one_row_block(self, seed):
        rng = np.random.default_rng(seed)

        def dim(hi):
            return int(rng.integers(1, hi))

        cfg = tiny_config("PCGN", embed_dim=dim(6), blog_hidden=dim(6), blog_layers=dim(3),
                          desc_hidden=dim(6), desc_layers=dim(3), user_dim=dim(4))
        params = random_params(cfg, seed)
        ex = tiny_example(cfg, seed, x_len=dim(8), d_len=dim(6))
        for encode, ids in ((M.encode_blog, ex.x), (M.encode_description, ex.d)):
            assert same_bits(encode(params, ids).array, encode(params, ids, lengths=[len(ids)]).array)

        blog = M.encode_blog(params, ex.x)
        vector = M.initial_layers(params, blog)
        row = M.initial_layers(params, blog, lengths=[len(ex.x)])
        assert len(vector) == len(row) == cfg.decoder_layers
        pairs = [(M.user_vector(params, ex.f), M.user_vector(params, ex.f[None]))] + [
            pair for v, r in zip(vector, row) for pair in zip(v, r)
        ]
        for v, r in pairs:
            assert same_bits(v.array[None], r.array)


class TestBatchedDecoderStep:
    """A (B, .) block of decoder rows steps like B one-row steps, to 1e-12:
    a block takes one GEMM per weight, so a row's last bits may depend on
    the rows beside it."""

    @pytest.mark.parametrize("blog_layers", [1, 2])
    @pytest.mark.parametrize("variant", sorted(M.PRESETS))
    def test_rows_match_separate_one_row_steps(self, variant, blog_layers):
        cfg = tiny_config(variant, blog_layers=blog_layers)
        params = random_params(cfg, 50)
        blog, desc, v_u, state, *_ = T.example_forward(params, [tiny_example(cfg, 51)])
        rng = np.random.default_rng(52)
        rows = 4

        def block(t):
            return None if t is None else rng.normal(size=(rows,) + t.shape)

        layers = [(block(h), block(c)) for h, c in state.layers]
        memory, users = block(state.memory), block(v_u)
        ids = rng.integers(0, cfg.vocab_size, rows)

        def step(pick, y_prev):
            def wrap(a):
                return None if a is None else ad.tensor(pick(a))

            rows_state = M.DecoderState(
                layers=tuple((wrap(h), wrap(c)) for h, c in layers), memory=wrap(memory), step=2,
            )
            return M.decoder_step(params, rows_state, y_prev, blog, desc, wrap(users))

        batched = step(lambda a: a, ids)
        assert batched.logits.shape == (rows, cfg.vocab_size)
        assert batched.blog_attention.shape == (rows, len(blog.array))
        for r in range(rows):
            alone = step(lambda a: a[r], int(ids[r]))
            pairs = [(batched.logits, alone.logits), (batched.blog_attention, alone.blog_attention)]
            pairs += [(b, a) for bl, al in zip(batched.state.layers, alone.state.layers) for b, a in zip(bl, al)]
            if cfg.variant.use_coattention:
                pairs.append((batched.desc_attention, alone.desc_attention))
            if cfg.variant.use_gated_memory:
                pairs.append((batched.state.memory, alone.state.memory))
            for b, a in pairs:
                np.testing.assert_allclose(b.array[r], a.array, rtol=0, atol=1e-12)


def copy_tensor(t):
    return ad.tensor(t.array.copy())


class TestVariantNesting:
    """Each richer variant collapses onto a smaller one when the extra
    pathways are surgically zeroed; only summation-order noise remains."""

    def test_user_embedding_with_zero_projection_matches_seq2seq(self):
        cfg_plain = tiny_config("Seq2Seq")
        plain = random_params(cfg_plain, 20)
        cfg_emb = tiny_config("Seq2Seq+Emb")
        emb_tensors = {name: ad.tensor(np.random.default_rng(99).normal(size=shape))
                       for name, shape in M.param_spec(cfg_emb)}
        two_h, e_dim, u_dim = 2 * cfg_emb.blog_hidden, cfg_emb.embed_dim, cfg_emb.user_dim
        for name, _ in M.param_spec(cfg_plain):
            if name != "dec.l0.w_x":
                emb_tensors[name] = copy_tensor(plain.tensor(name))
        # v_u occupies the trailing input block; its value is exactly zero
        # when the projection is zero, so those columns may stay arbitrary.
        w_plain = plain.tensor("dec.l0.w_x").array
        w = np.random.default_rng(98).normal(size=(4 * cfg_emb.blog_hidden, cfg_emb.decoder_input_dim))
        w[:, : two_h + e_dim] = w_plain
        emb_tensors["dec.l0.w_x"] = ad.tensor(w)
        emb_tensors["user_proj.w"] = ad.zeros((u_dim, cfg_emb.feature_dim))
        emb_tensors["user_proj.b"] = ad.zeros(u_dim)
        emb = M.ModelParams(cfg_emb, emb_tensors)

        ex = tiny_example(cfg_plain, 21)
        base = T.token_log_probs(plain, ex)
        rich = T.token_log_probs(emb, ex)
        assert np.allclose(base, rich, atol=1e-10)

    def test_pcgn_with_dead_user_paths_matches_seq2seq(self):
        cfg_plain = tiny_config("Seq2Seq")
        plain = random_params(cfg_plain, 22)
        cfg_full = tiny_config("PCGN")
        rng = np.random.default_rng(97)
        tensors = {name: ad.tensor(rng.normal(size=shape)) for name, shape in M.param_spec(cfg_full)}

        for name, _ in M.param_spec(cfg_plain):
            if name not in ("dec.l0.w_x", "out_proj"):
                tensors[name] = copy_tensor(plain.tensor(name))

        two_h, two_d = 2 * cfg_full.blog_hidden, 2 * cfg_full.desc_hidden
        e_dim, u_dim, hidden = cfg_full.embed_dim, cfg_full.user_dim, cfg_full.blog_hidden
        # input layout: [c_blog; c_desc; e_prev; m_read]
        w_plain = plain.tensor("dec.l0.w_x").array
        w = np.zeros((4 * hidden, cfg_full.decoder_input_dim))
        w[:, :two_h] = w_plain[:, :two_h]
        w[:, two_h + two_d : two_h + two_d + e_dim] = w_plain[:, two_h : two_h + e_dim]
        tensors["dec.l0.w_x"] = ad.tensor(w)
        # external head: r_u = 0, output mix reads only the decoder state
        tensors["user_mix"] = ad.zeros((u_dim, u_dim + two_d))
        out_mix = np.zeros((cfg_full.vocab_size, hidden + u_dim))
        out_mix[:, :hidden] = plain.tensor("out_proj").array
        tensors["out_mix"] = ad.tensor(out_mix)
        full = M.ModelParams(cfg_full, tensors)

        ex = tiny_example(cfg_plain, 23)
        base = T.token_log_probs(plain, ex)
        rich = T.token_log_probs(full, ex)
        assert np.allclose(base, rich, atol=1e-10)
