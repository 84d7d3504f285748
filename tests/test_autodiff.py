"""Tensor primitive and reverse-mode gradient tests."""

from __future__ import annotations

import collections
import inspect
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgn import autodiff as ad
from pcgn import model as M
from pcgn import training
from pcgn.data import build_vocab, encode_records, fit_schema
from pcgn.synthetic import synthetic_records

import oracle
from conftest import (
    assert_caught_at_boundaries, overflowing_attention_params, random_params, tiny_config, tiny_example, weighted_sum,
)


def watched(tape, values):
    return tape.watch(ad.Tensor(values))


def grad_of(f, theta_values):
    """Analytic gradient of scalar f at theta, as a numpy array."""
    tape = ad.Tape()
    theta = watched(tape, theta_values)
    out = f(theta)
    return ad.backprop(tape, out)[theta].array


def sigmoid(x):
    """The engine's one sigmoid kernel, which every gate runs."""
    return ad._sigmoid(np.asarray(x, dtype=np.float64))


def attention_weights(scores, mask=None):
    """``attention``'s weights for the given scores: row b's query picks
    column b of the states, so its scores are exactly ``scores[b]``."""
    scores = np.asarray(scores, dtype=np.float64)
    rows = np.atleast_2d(scores)
    query = np.ones(1) if scores.ndim == 1 else np.eye(len(rows))
    _, weights = ad.attention(ad.tensor(query), ad.tensor(rows.T), ad.tensor(np.eye(len(rows))), mask)
    return weights.array


class TestForwardValues:
    def test_matvec_hand_value(self):
        out = ad.matvec(ad.tensor([[1.0, 0.0], [1.0, 1.0]]), ad.tensor([2.0, 3.0]))
        assert np.array_equal(out.array, [2.0, 5.0])

    def test_attention_hand_value(self):
        # q = s W_a = [5, 3], not W_a s = [2, 5]; the states are one-hot.
        context, weights = ad.attention(ad.tensor([2.0, 3.0]), ad.tensor(np.eye(2)), ad.tensor([[1.0, 0.0], [1.0, 1.0]]))
        expected = np.array([np.e**2, 1.0]) / (np.e**2 + 1.0)
        assert np.allclose(weights.array, expected, rtol=0, atol=1e-15)
        assert np.array_equal(context.array, weights.array)

    def test_linear_is_one_matrix_product(self):
        rng = np.random.default_rng(7)
        w, x = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
        out = ad.matvec(ad.tensor(w), ad.tensor(x), exact=False).array
        assert np.array_equal(out, x @ w.T)
        assert np.allclose(out, [w @ row for row in x], rtol=0, atol=1e-14)

    def test_sigmoid_at_zero(self):
        assert sigmoid([0.0])[0] == 0.5

    def test_sigmoid_symmetry(self):
        x = np.linspace(-6.0, 6.0, 25)
        assert np.allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_sigmoid_saturates_without_overflow_error(self):
        out = sigmoid([-1000.0, 1000.0])
        assert out[0] == 0.0 and out[1] == 1.0

    def test_tanh_at_zero(self):
        assert ad.tanh_affine(ad.tensor([[1.0]]), ad.tensor([0.0]), ad.tensor([0.0])).array[0] == 0.0

    def test_tanh_affine_has_the_bits_of_its_parts(self):
        # tanh(W x + b) with W x row-exact for a block, as the separate
        # product, bias sum and tanh made it.
        rng = np.random.default_rng(75)
        w, b = rng.normal(size=(6, 5)), rng.normal(size=6)
        for x in (rng.normal(size=5), rng.normal(size=(4, 5))):
            out = ad.tanh_affine(ad.tensor(w), ad.tensor(b), ad.tensor(x)).array
            assert out.tobytes() == np.tanh(ad._mv(w, x) + b).tobytes()

    def test_softmax_uniform(self):
        assert np.allclose(attention_weights(np.zeros(4)), 0.25, atol=1e-15)

    def test_softmax_hand_value(self):
        assert np.allclose(attention_weights([0.0, np.log(3.0)]), [0.25, 0.75], atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self):
        x = np.array([0.3, -1.2, 2.0])
        direct = [ad.log_softmax_at(ad.tensor(x), i).item() for i in range(3)]
        assert np.allclose(direct, np.log(attention_weights(x)), atol=1e-12)

    def test_concat_and_vslice_roundtrip(self):
        parts = [ad.tensor([1.0, 2.0]), ad.tensor([3.0]), ad.tensor([4.0, 5.0])]
        joined = ad.concat(parts)
        assert np.array_equal(joined.array, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.array_equal(ad.vslice(joined, 2, 3).array, [3.0])

    def test_concat_single_part_is_identity(self):
        out = ad.concat([ad.tensor([7.0, 8.0])])
        assert np.array_equal(out.array, [7.0, 8.0])

    def test_stack_rows(self):
        out = ad.stack_rows([ad.tensor([1.0, 2.0]), ad.tensor([3.0, 4.0])])
        assert np.array_equal(out.array, [[1.0, 2.0], [3.0, 4.0]])
        blocks = ad.stack_rows([ad.tensor([[1.0, 2.0]]), ad.tensor([[3.0, 4.0], [5.0, 6.0]])])
        assert np.array_equal(blocks.array, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_embedding_lookup_copies_row(self):
        table = ad.tensor(np.arange(12.0).reshape(4, 3))
        out = ad.embedding_lookup(table, 2)
        assert np.array_equal(out.array, [6.0, 7.0, 8.0])

    def test_pick_and_sum_all(self):
        v = ad.tensor([1.0, 4.0, 9.0])
        assert ad.log_softmax_at(v, 1).item() == ad._log_softmax(v.array)[1]
        assert ad.sum_all(v).item() == 14.0

    def test_hadamard_add_scale(self):
        a, b = ad.tensor([2.0, 3.0]), ad.tensor([5.0, -1.0])
        assert np.array_equal(ad.add(a, b).array, [7.0, 2.0])
        assert np.array_equal(ad.scale(a, -2.0).array, [-4.0, -6.0])

    def test_zeros_helper(self):
        assert np.array_equal(ad.zeros((2, 2)).array, np.zeros((2, 2)))


def product_forms(rng, lead, hidden=6, in_dim=5, steps=7):
    """(name, call) for each primitive with an ``exact`` flag; ``call(exact)``
    applies it to fixed random operands with ``lead`` rows and returns its
    outputs as a tuple."""
    t = lambda *shape: ad.tensor(rng.normal(size=shape))
    x, h, c, m = t(*lead, in_dim), t(*lead, hidden), t(*lead, hidden), t(*lead, hidden)
    w_x, w_h, b = t(4 * hidden, in_dim), t(4 * hidden, hidden), t(4 * hidden)
    w_u, w_o = t(hidden, hidden), t(hidden, hidden + 2 * in_dim)
    states, w_a = t(steps, in_dim), ad.tensor(rng.normal(size=(hidden, in_dim)) / hidden)
    mask = rng.random(lead + (steps,)) < 0.5
    mask[..., 0] = True
    return [
        ("matvec", lambda exact: (ad.matvec(w_x, x, exact=exact),)),
        ("lstm_cell", lambda exact: ad.lstm_cell(w_x, w_h, b, x, h, c, exact=exact)),
        ("gated_memory", lambda exact: ad.gated_memory(w_u, w_o, h, c, x, x, m, exact=exact)),
        ("attention", lambda exact: ad.attention(h, states, w_a, exact=exact)),
        ("masked attention", lambda exact: ad.attention(h, states, w_a, mask, exact=exact)),
    ]


class TestProductForms:
    """``exact=False`` makes a row block's products one GEMM each; a vector
    keeps ``w @ x``, and an LSTM layer over several sequences steps as one
    GEMM."""

    def test_kernels_make_the_form_the_flag_names(self):
        # At these sizes a GEMM's bits differ from per-row products, so
        # a kernel that ignored the flag would fail here.
        rng = np.random.default_rng(74)
        w, x = rng.normal(size=(40, 64)), rng.normal(size=(9, 64))
        assert ad._mv(w, x, exact=False).tobytes() == (x @ w.T).tobytes()
        assert ad._mv(w, x).tobytes() == np.array([w @ r for r in x]).tobytes()
        assert ad._vm(x, w.T, exact=False).tobytes() == (x @ w.T).tobytes()
        assert ad._vm(x, w.T).tobytes() == np.array([r @ w.T for r in x]).tobytes()

    def test_gemm_flag_leaves_vectors_alone(self):
        for name, call in product_forms(np.random.default_rng(70), ()):
            for gemm, exact in zip(call(False), call(True)):
                assert gemm.array.tobytes() == exact.array.tobytes(), name

    def test_gemm_rows_match_row_exact_rows(self):
        for name, call in product_forms(np.random.default_rng(71), (9,)):
            for exact, gemm in zip(call(True), call(False)):
                exact, gemm = exact.array, gemm.array
                assert gemm.shape == exact.shape
                assert np.abs(gemm - exact).max() <= 1e-13 * max(1.0, np.abs(exact).max()), name

    @pytest.mark.parametrize("reverse", [False, True])
    def test_lstm_layer_block_rows_match_each_sequence_alone(self, reverse):
        # One direction of ad.bilstm_layer per case: the forward direction is
        # the first half of each output row, the backward direction the second.
        rng = np.random.default_rng(72 + reverse)
        hidden, in_dim = 16, 12
        half = slice(hidden, None) if reverse else slice(None, hidden)
        fwd, bwd = ([ad.tensor(rng.normal(size=shape) / 2) for shape in
                     ((4 * hidden, in_dim), (4 * hidden, hidden), (4 * hidden,))] for _ in range(2))
        lengths = [5, 1, 9, 3, 9, 2]
        x = rng.normal(size=(sum(lengths), in_dim))
        block = ad.bilstm_layer(fwd, bwd, ad.tensor(x), lengths).array
        assert block.shape == (sum(lengths), 2 * hidden)
        start = 0
        for n in lengths:
            alone = ad.bilstm_layer(fwd, bwd, ad.tensor(x[start : start + n])).array
            assert np.abs(block[start : start + n, half] - alone[:, half]).max() <= 1e-12
            start += n


class TestLogSoftmaxAt:
    """The gold log-probability keeps the bits of the two ops it fused: a
    log-softmax, then a read of one element per row."""

    @staticmethod
    def composite_backward(lsm, at, g):
        # The read's gradient, a one-hot, run back through the log-softmax.
        full = np.zeros(lsm.shape)
        full[at] = g
        return full - np.exp(lsm) * np.add.reduce(full, axis=-1, keepdims=True)

    def test_forward_and_backward_bits(self):
        rng = np.random.default_rng(27)
        logits = [
            rng.normal(size=7),
            rng.normal(size=(5, 7)),
            np.array([0.0, -800.0, 3.0, -760.0]),  # exp(lsm) underflows to 0
            np.array([[0.0, -800.0, 2.0], [-750.0, 1.0, -900.0], [-1e3, 0.0, 0.5]]),
            np.array([1.5]),  # one column: the log-softmax is 0
            np.array([[0.5], [-2.0]]),
        ]
        for v in logits:
            n, rows = v.shape[-1], np.atleast_2d(v).shape[0]
            lsm = ad._log_softmax(v)
            for i in range(n):
                index = i if v.ndim == 1 else (i + np.arange(rows)) % n
                at = index if v.ndim == 1 else (np.arange(rows), index)
                tape = ad.Tape()
                out = ad.log_softmax_at(tape.watch(ad.tensor(v)), index)
                want = [oracle.log_softmax(row)[j] for row, j in zip(np.atleast_2d(v), np.atleast_1d(index))]
                assert out.array.tobytes() == np.array(want).reshape(out.shape).tobytes()
                backward = tape._entries[-1][3]
                grads = [rng.normal(size=out.shape), np.full(out.shape, 0.0), np.full(out.shape, -0.0)]
                if v.ndim == 2:  # rows of both signed zeros and nonzeros
                    mixed = rng.normal(size=rows)
                    mixed[::3], mixed[1::3] = -0.0, 0.0
                    grads.append(mixed)
                for g in grads:
                    (got,) = backward(g)
                    assert got.tobytes() == self.composite_backward(lsm, at, g).tobytes(), (v, i, g)


class TestGradientHandValues:
    def test_sigmoid_derivative_at_zero_is_quarter(self):
        # M_t = sigmoid(W_u s_t) * M_{t-1} with W_u = 1 and M_{t-1} = 1.
        one, zero = ad.tensor([[1.0]]), ad.zeros(1)
        g = grad_of(lambda t: ad.sum_all(ad.gated_memory(one, ad.zeros((1, 3)), t, zero, zero, zero, ad.tensor([1.0]))[0]),
                    [0.0])
        assert g[0] == 0.25

    def test_linear_map_weight_gradient_broadcasts_input(self):
        x = np.array([2.0, -1.0, 0.5])
        g = grad_of(
            lambda w: ad.sum_all(ad.matvec(w, ad.tensor(x))),
            np.zeros((4, 3)),
        )
        assert np.array_equal(g, np.tile(x, (4, 1)))

    def test_embedding_gradient_is_sparse(self):
        g = grad_of(
            lambda table: ad.sum_all(ad.embedding_lookup(table, 2)),
            np.zeros((5, 3)),
        )
        expected = np.zeros((5, 3))
        expected[2] = 1.0
        assert np.array_equal(g, expected)

    def test_row_reads_accumulate_with_dense_gradients(self):
        # The matvec reads the whole table, so its gradient is dense: x in
        # every row.
        x = np.array([0.5, -1.0, 2.0])
        g = grad_of(
            lambda t: ad.add(
                ad.add(ad.sum_all(ad.embedding_lookup(t, [1, 1, 3])), ad.sum_all(ad.embedding_lookup(t, 1))),
                ad.sum_all(ad.matvec(t, ad.tensor(x))),
            ),
            np.arange(15.0).reshape(5, 3),
        )
        counts = np.array([0.0, 3.0, 0.0, 1.0, 0.0])[:, None]
        assert np.array_equal(g, counts + x)

    def test_row_read_leaves_a_shared_gradient_array_alone(self):
        # add hands the same gradient array to both inputs; the row read of
        # p must not add into it, or q's gradient changes too.
        def f(x):
            p, q = ad.scale(x, 1.0), ad.scale(x, 2.0)
            row = ad.embedding_lookup(p, 0)
            return ad.add(ad.sum_all(ad.add(p, q)), ad.sum_all(row))

        g = grad_of(f, np.zeros((3, 2)))
        assert np.array_equal(g, [[4.0, 4.0], [3.0, 3.0], [3.0, 3.0]])

    def test_dense_sums_leave_a_shared_gradient_array_alone(self):
        # add hands the same gradient array to p and q, and that array is
        # p's first gradient; p's next two must not be added into it, or
        # q's gradient changes too.  Each reader is a one-row matvec, which
        # hands its operand a dense gradient: its row.
        w, c1, c2 = (ad.tensor([v]) for v in ([1.0, 2.0], [10.0, 20.0], [100.0, 200.0]))
        tape = ad.Tape()
        a, b = watched(tape, [0.5, -1.0]), watched(tape, [3.0, 4.0])
        p, q = ad.scale(a, 1.0), ad.scale(b, 1.0)
        t1, t2 = ad.matvec(c1, p), ad.matvec(c2, p)
        # Recorded after t1 and t2, so the sweep reaches it first.
        s = ad.add(p, q)
        out = ad.add(ad.add(ad.sum_all(ad.matvec(w, s)), ad.sum_all(t1)), ad.sum_all(t2))
        grads = ad.backprop(tape, out)
        assert np.array_equal(grads[b].array, [1.0, 2.0])
        assert np.array_equal(grads[a].array, [111.0, 222.0])
        # A second sweep over the same tape sees unchanged tape and leaf arrays.
        again = ad.backprop(tape, out)
        for leaf in (a, b):
            assert np.array_equal(again[leaf].array, grads[leaf].array)
        assert np.array_equal(a.array, [0.5, -1.0]) and np.array_equal(b.array, [3.0, 4.0])

    def test_reused_operand_accumulates(self):
        g = grad_of(lambda x: ad.sum_all(ad.add(x, x)), [1.0, 2.0])
        assert np.array_equal(g, [2.0, 2.0])

    def test_scalar_node_accumulates_three_gradients(self):
        # A sum of 0-d arrays is a numpy scalar; the third sum must still land.
        def f(x):
            total = ad.sum_all(x)
            return ad.add(ad.add(total, total), total)

        assert np.array_equal(grad_of(f, [1.0, 2.0]), [3.0, 3.0])

    def test_unreached_leaf_gets_zeros(self):
        tape = ad.Tape()
        used = watched(tape, [1.0, 2.0])
        unused = watched(tape, np.ones((2, 2)))
        out = ad.sum_all(used)
        grads = ad.backprop(tape, out)
        assert np.array_equal(grads[unused].array, np.zeros((2, 2)))
        assert np.array_equal(grads[used].array, [1.0, 1.0])

    def test_pick_scatter_gradient(self):
        g = grad_of(lambda x: ad.scale(ad.sum_all(ad.vslice(x, 1, 2)), 3.0), [5.0, 6.0, 7.0])
        assert np.array_equal(g, [0.0, 3.0, 0.0])

    def test_vslice_scatter_gradient(self):
        g = grad_of(lambda x: ad.sum_all(ad.vslice(x, 1, 3)), np.zeros(4))
        assert np.array_equal(g, [0.0, 1.0, 1.0, 0.0])

    def test_masked_softmax_weights_are_exactly_zero(self):
        x = np.array([[0.3, -1.2, 2.5, 0.0], [4.0, 1.0, -2.0, 0.5]])
        # Both rows leave out state 1; only the first leaves out state 3.
        mask = np.array([[True, False, True, False], [True, False, True, True]])
        out = attention_weights(x, mask)
        assert (out[~mask] == 0.0).all()
        for row in range(2):
            assert np.array_equal(out[row][mask[row]], attention_weights(x[row][mask[row]]))
        # Left-out states get no gradient: a row block's state 1, and a
        # vector query's states 1 and 3.
        rng = np.random.default_rng(3)
        w_a, states = ad.tensor(rng.normal(size=(3, 5))), rng.normal(size=(4, 5))
        for s, keep in ((rng.normal(size=(2, 3)), mask), (rng.normal(size=3), mask[0])):
            mix = ad.tensor(rng.normal(size=s.shape[:-1] + (5,)))
            g = grad_of(lambda t: weighted_sum(ad.attention(ad.tensor(s), t, w_a, keep)[0], mix), states)
            kept = np.atleast_2d(keep).any(axis=0)
            assert (g[~kept] == 0.0).all() and (g[kept] != 0.0).all()

    def test_softmax_gradient_sums_to_zero(self):
        # Column 0 of the states gives the scores (q = [1, 0]), column 1
        # the values r, so the context's entry 1 is sum(softmax(x) * r).
        x, r = [0.1, 0.2, 0.3], [0.4, -1.0, 2.0]
        g = grad_of(lambda t: ad.sum_all(ad.vslice(ad.attention(ad.tensor([1.0]), t, ad.tensor([[1.0, 0.0]]))[0], 1, 2)),
                    np.column_stack([x, r]))
        assert abs(g[:, 0].sum()) < 1e-14

    def test_quadratic_via_hadamard(self):
        # sum(x * x): x read as the one-row weight and as the operand.
        g = grad_of(lambda x: ad.sum_all(ad.matvec(ad.stack_rows([x]), x)), [3.0, -2.0])
        assert np.array_equal(g, [6.0, -4.0])


def _every_operand(op, operands, mix):
    """One case per operand: sum(op(*operands) * mix) as a function of it."""
    def case(probed):
        def f(t):
            args = [ad.tensor(a) for a in operands]
            args[probed] = t
            return weighted_sum(op(*args), mix)
        return f, operands[probed]
    return [case(probed) for probed in range(len(operands))]


# One entry per primitive: builds random operands (shapes up to 8x8) and a
# scalar-valued function of the probed input, for finite-difference checks.
def _fd_cases(name, rng):
    def dims(n=1):
        return tuple(int(v) for v in rng.integers(1, 9, n))

    if name == "matvec":
        m, k, rows = dims(3)
        w, x, xs = rng.normal(size=(m, k)), rng.normal(size=k), rng.normal(size=(rows, k))
        mix = ad.tensor(rng.normal(size=(rows, m)))
        return [
            (lambda t: ad.sum_all(ad.matvec(t, ad.tensor(x))), w),
            (lambda t: ad.sum_all(ad.matvec(ad.tensor(w), t)), x),
            (lambda t: weighted_sum(ad.matvec(t, ad.tensor(xs)), mix), w),
            (lambda t: weighted_sum(ad.matvec(ad.tensor(w), t), mix), xs),
        ]
    if name == "linear":  # matvec's GEMM form
        m, k, rows = dims(3)
        w = rng.normal(size=(m, k))
        cases = []
        for n in (1, rows):
            x, mix = rng.normal(size=(n, k)), ad.tensor(rng.normal(size=(n, m)))
            cases += [
                (lambda t, x=x, mix=mix: weighted_sum(ad.matvec(t, ad.tensor(x), exact=False), mix), w),
                (lambda t, mix=mix: weighted_sum(ad.matvec(ad.tensor(w), t, exact=False), mix), x),
            ]
        return cases
    if name == "add":
        n, rows = dims(2)
        other = ad.tensor(rng.normal(size=n))
        weights = ad.tensor(rng.normal(size=n))
        block = ad.tensor(rng.normal(size=(rows, n)))
        mix = ad.tensor(rng.normal(size=(rows, n)))
        return [
            (lambda t: weighted_sum(ad.add(t, other), weights), rng.normal(size=n)),
            (lambda t: weighted_sum(ad.add(block, t), mix), rng.normal(size=(rows, n))),
            (lambda t: weighted_sum(ad.add(t, block), mix), rng.normal(size=(rows, n))),
        ]
    if name == "scale":
        (n,) = dims()
        c = float(rng.normal())
        weights = ad.tensor(rng.normal(size=n))
        return [(lambda t: weighted_sum(ad.scale(t, c), weights), rng.normal(size=n))]
    if name == "tanh_affine":
        k, n, rows = dims(3)
        w, b = rng.normal(size=(k, n)), rng.normal(size=k)
        cases = []
        for lead in ((), (rows,)):
            mix = ad.tensor(rng.normal(size=lead + (k,)))
            cases += _every_operand(ad.tanh_affine, [w, b, rng.normal(size=lead + (n,))], mix)
        return cases
    if name == "tanh":
        # tanh_affine's tanh alone: W = I and b = 0 make it tanh(x).
        (n,) = dims()
        eye, zero = ad.tensor(np.eye(n)), ad.tensor(np.zeros(n))
        weights = ad.tensor(rng.normal(size=n))
        return [(lambda t: weighted_sum(ad.tanh_affine(eye, zero, t), weights), rng.normal(size=n))]
    if name in ("gated_memory", "gate"):
        # s_t and s_prev are separate operands, each with its own width.
        k, h, h_prev, e, c, rows = dims(6)
        # The weights' scale keeps the gates' arguments near unit size, so
        # no gate saturates and central differences stay accurate.
        w_u, w_o = rng.normal(size=(k, h)) / np.sqrt(h), rng.normal(size=(k, h_prev + e + c)) / np.sqrt(h_prev + e + c)
        cases = []
        # A vector, a row block, and a row block as one GEMM.
        for lead, exact in (((), True), ((rows,), True), ((rows,), False)):
            operands = [w_u, w_o] + [rng.normal(size=lead + (n,)) for n in (h, h_prev, e, c, k)]
            if name == "gated_memory":
                op = lambda *args, exact=exact: ad.concat(ad.gated_memory(*args, exact=exact))
                cases += _every_operand(op, operands, ad.tensor(rng.normal(size=lead + (2 * k,))))
            else:
                # The update gate alone: M_t, with M_t^o unread, as a
                # function of W_u, s_t and M_{t-1}.
                op = lambda *args, exact=exact: ad.gated_memory(*args, exact=exact)[0]
                probes = _every_operand(op, operands, ad.tensor(rng.normal(size=lead + (k,))))
                cases += [probes[i] for i in (0, 2, 6)]
        return cases
    if name == "attention":
        h, d, steps, rows = dims(4)
        # w_a's scale keeps the scores near unit size, so no weight
        # saturates and central differences stay accurate.
        states, w_a = rng.normal(size=(steps, d)), rng.normal(size=(h, d)) / np.sqrt(h * d)
        cases = []
        # A vector, a row block, and a row block as one GEMM per product.
        for lead, exact in (((), True), ((rows,), True), ((rows,), False)):
            # A random mask that keeps at least one state per row.
            mask = rng.random(lead + (steps,)) < 0.5
            mask[..., rng.integers(0, steps)] = True
            mix = ad.tensor(rng.normal(size=lead + (d,)))
            for keep in (None, mask):
                op = lambda s, st, w, keep=keep, exact=exact: ad.attention(s, st, w, keep, exact=exact)[0]
                cases += _every_operand(op, [rng.normal(size=lead + (h,)), states, w_a], mix)
        return cases
    if name == "softmax":
        # attention's masked softmax alone: W_a = e_0 makes row b's scores
        # c_b x for the probed column x of the states, and mix is 0 on that
        # column of the context, so the function is sum_b softmax(c_b x) . r_b
        # for constant r_b = values mix_b.
        steps, d, rows = dims(3)
        values, w_a = ad.tensor(rng.normal(size=(steps, d))), ad.tensor(np.eye(1, d + 1))
        cases = []
        for lead in ((), (rows,)):
            mask = rng.random(lead + (steps,)) < 0.5
            mask[..., rng.integers(0, steps)] = True
            s = ad.tensor(rng.normal(size=lead + (1,)))
            mix = rng.normal(size=lead + (d + 1,))
            mix[..., 0] = 0.0
            for keep in (None, mask):
                def f(t, s=s, mix=ad.tensor(mix), keep=keep):
                    context = ad.attention(s, ad.concat([t, values]), w_a, keep)[0]
                    return weighted_sum(context, mix)
                cases.append((f, rng.normal(size=(steps, 1))))
        return cases
    if name == "vecmat":
        # attention's two vector-matrix products.  A zero query gives
        # constant weights (uniform over the kept states), so the context
        # weights . states is linear in the probed states; q = s W_a is
        # probed through s and W_a.
        h, d, steps, rows = dims(4)
        states, w_a = rng.normal(size=(steps, d)), rng.normal(size=(h, d)) / np.sqrt(h * d)
        cases = []
        for lead in ((), (rows,)):
            mask = rng.random(lead + (steps,)) < 0.5
            mask[..., rng.integers(0, steps)] = True
            mix = ad.tensor(rng.normal(size=lead + (d,)))
            for keep in (None, mask):
                op = lambda s, st, w, keep=keep: ad.attention(s, st, w, keep)[0]
                zero_query = _every_operand(op, [np.zeros(lead + (h,)), states, w_a], mix)
                query = _every_operand(op, [rng.normal(size=lead + (h,)), states, w_a], mix)
                cases += [zero_query[1], query[0], query[2]]
        return cases
    if name == "concat":
        a, b, rows = dims(3)
        left = ad.tensor(rng.normal(size=a))
        mid = rng.normal(size=b)
        weights = ad.tensor(rng.normal(size=a + b + a))
        left_rows = ad.tensor(rng.normal(size=(rows, a)))
        mix = ad.tensor(rng.normal(size=(rows, a + b + a)))
        return [
            (lambda t: weighted_sum(ad.concat([left, t, left]), weights), mid),
            (lambda t: weighted_sum(ad.concat([left_rows, t, left_rows]), mix), rng.normal(size=(rows, b))),
        ]
    if name == "stack_rows":
        n, rows = dims(2)
        other = ad.tensor(rng.normal(size=n))
        mix = ad.tensor(rng.normal(size=(2, n)))
        other_rows = ad.tensor(rng.normal(size=(2, n)))
        return [
            (lambda t: ad.sum_all(ad.matvec(mix, ad.stack_rows([t, other]))), rng.normal(size=n)),
            (lambda t: ad.sum_all(ad.matvec(mix, ad.stack_rows([other_rows, t, other_rows]))), rng.normal(size=(rows, n))),
        ]
    if name == "vslice":
        n = int(rng.integers(2, 9))
        start = int(rng.integers(0, n - 1))
        stop = int(rng.integers(start + 1, n + 1))
        weights = ad.tensor(rng.normal(size=stop - start))
        (rows,) = dims()
        mix = ad.tensor(rng.normal(size=(rows, stop - start)))
        return [
            (lambda t: weighted_sum(ad.vslice(t, start, stop), weights), rng.normal(size=n)),
            (lambda t: weighted_sum(ad.vslice(t, start, stop), mix), rng.normal(size=(rows, n))),
        ]
    if name == "embedding_lookup":
        rows, cols = dims(2)
        idx = int(rng.integers(0, rows))
        ids = rng.integers(0, rows, 5)   # repeats accumulate
        weights = ad.tensor(rng.normal(size=cols))
        mix = ad.tensor(rng.normal(size=(5, cols)))
        return [
            (lambda t: weighted_sum(ad.embedding_lookup(t, idx), weights), rng.normal(size=(rows, cols))),
            (lambda t: weighted_sum(ad.embedding_lookup(t, ids), mix), rng.normal(size=(rows, cols))),
        ]
    if name == "log_softmax_at":
        n, rows = dims(2)
        idx = int(rng.integers(0, n))
        per_row = rng.integers(0, n, rows)
        weights = ad.tensor(rng.normal(size=rows))
        return [
            (lambda t: ad.scale(ad.log_softmax_at(t, idx), 2.5), rng.normal(size=n)),
            (lambda t: weighted_sum(ad.log_softmax_at(t, per_row), weights), rng.normal(size=(rows, n))),
        ]
    if name == "pick":
        # The read alone: one case per index, for a vector and for a block
        # whose rows read different indices.
        n, rows = dims(2)
        weights = ad.tensor(rng.normal(size=rows))
        cases = []
        for i in range(n):
            per_row = (i + np.arange(rows)) % n
            cases += [
                (lambda t, i=i: ad.scale(ad.log_softmax_at(t, i), 2.5), rng.normal(size=n)),
                (lambda t, at=per_row: weighted_sum(ad.log_softmax_at(t, at), weights),
                 rng.normal(size=(rows, n))),
            ]
        return cases
    if name == "log_softmax":
        # The whole log-softmax: its reads at every index, weighted and
        # summed, for a vector and for a block.
        n, rows = dims(2)
        weights = rng.normal(size=n)
        mix = rng.normal(size=(rows, n))

        def vector(t):
            total = ad.scale(ad.log_softmax_at(t, 0), weights[0])
            for i in range(1, n):
                total = ad.add(total, ad.scale(ad.log_softmax_at(t, i), weights[i]))
            return total

        def block(t):
            at = [(i + np.arange(rows)) % n for i in range(n)]
            reads = [ad.log_softmax_at(t, a) for a in at]
            mixes = ad.tensor(np.stack([mix[np.arange(rows), a] for a in at]))
            return weighted_sum(ad.stack_rows(reads), mixes)

        return [(vector, rng.normal(size=n)), (block, rng.normal(size=(rows, n)))]
    if name == "sum_all":
        m, n = dims(2)
        return [(lambda t: ad.sum_all(t), rng.normal(size=(m, n)))]
    if name == "bilstm_layer":
        # Small sizes: every case probes all seven operands.
        hidden, in_dim, steps = (int(v) for v in rng.integers(1, 4, 3))
        ragged = rng.permutation([1, int(rng.integers(2, 5)), int(rng.integers(1, 5))]).tolist()
        layouts = [
            (steps + 1, None),        # one sequence
            (1, None),                # T = 1
            (sum(ragged), ragged),    # ragged block, a length-1 sequence in it
        ]

        def case(operands, probed, lengths, mix):
            def f(t):
                args = list(operands)
                args[probed] = t
                return weighted_sum(ad.bilstm_layer(args[:3], args[3:6], args[6], lengths), mix)
            return f, operands[probed].array

        cases = []
        for rows, lengths in layouts:
            direction = ((4 * hidden, in_dim), (4 * hidden, hidden), (4 * hidden,))
            operands = [ad.tensor(rng.normal(size=shape)) for shape in 2 * direction + ((rows, in_dim),)]
            mix = ad.tensor(rng.normal(size=(rows, 2 * hidden)))
            cases += [case(operands, probed, lengths, mix) for probed in range(7)]
        return cases
    raise AssertionError(name)


# The engine's public functions that record no tape entry; every other one
# is a primitive.
NOT_PRIMITIVES = {"all_finite", "tensor", "zeros", "backprop", "finite_difference_check"}
ENGINE_PRIMITIVES = {
    name for name, f in vars(ad).items()
    if inspect.isfunction(f) and f.__module__ == ad.__name__ and not name.startswith("_")
} - NOT_PRIMITIVES

# Primitives whose finite-difference check lives in another module.
CHECKED_ELSEWHERE = {"lstm_cell": "tests/test_model.py::TestFusedLSTMCell"}
PRIMITIVES = sorted(ENGINE_PRIMITIVES - set(CHECKED_ELSEWHERE))

# Products folded into a primitive, each with cases that isolate it there.
FUSED = {"softmax": "attention", "vecmat": "attention", "linear": "matvec", "tanh": "tanh_affine",
         "gate": "gated_memory", "log_softmax": "log_softmax_at", "pick": "log_softmax_at"}


@pytest.mark.parametrize("name", PRIMITIVES + list(FUSED))
def test_primitive_matches_finite_differences(name):
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng((zlib.crc32(name.encode()), seed))
        for f, theta in _fd_cases(name, rng):
            err = ad.finite_difference_check(f, ad.tensor(theta))
            worst = max(worst, err)
    assert worst < 1e-4, f"{name}: worst relative error {worst:.3e}"


def desk_walk_tape(variant, layers):
    """The tape of one sequence_loss at desk dimensions, and its example:
    the first of a small synthetic corpus."""
    records = synthetic_records(200, users=4, seed=1)
    vocab, schema = build_vocab(records, max_size=1_000_000), fit_schema(records)
    example = encode_records(records[:1], vocab, schema)[0]
    cfg = M.ModelConfig.desk(len(vocab), schema.width, variant=M.PRESETS[variant], blog_layers=layers)
    params = M.build_model(cfg, 0)
    tape = ad.Tape()
    watched = {name: tape.watch(t) for name, t in params.named_parameters()}
    training.sequence_loss(params.with_tensors(watched), example)
    return tape, example


def _recorded_ops(f, theta):
    """The op names one run of f on theta records."""
    tape = ad.Tape()
    f(tape.watch(ad.tensor(theta)))
    return {name for name, _, _ in tape.entries}


def test_every_primitive_has_a_finite_difference_case():
    # Each primitive's own cases record it, and each fused product's cases
    # record the primitive it is folded into.
    rng = np.random.default_rng(0)
    recorded = set()
    for name in PRIMITIVES + list(FUSED):
        by_cases = set().union(*(_recorded_ops(f, theta) for f, theta in _fd_cases(name, rng)))
        assert FUSED.get(name, name) in by_cases, name
        recorded |= by_cases
    assert recorded <= ENGINE_PRIMITIVES
    assert not set(FUSED) & recorded


# Primitives only the acceptance gate records: criterion 1's gradient
# checks sum their losses with ``add`` (tests/test_acceptance.py).
ACCEPTANCE_ONLY = {"add"}


def test_every_primitive_is_recorded_by_the_program(monkeypatch):
    # Every primitive but ACCEPTANCE_ONLY is exported and on a tape that
    # training builds: a batch's gradients at one and two layers, or a
    # block walk.  So no primitive serves only tests, and a member of
    # ACCEPTANCE_ONLY that the program starts to record fails here.
    tapes = []

    class RecordingTape(ad.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(ad, "Tape", RecordingTape)
    for layers in (1, 2):
        cfg = tiny_config("PCGN", blog_layers=layers)
        params = random_params(cfg, layers)
        examples = [tiny_example(cfg, seed) for seed in range(3)]
        training._batch_gradients(params, examples, "test")
        tape = ad.Tape()
        watched = {name: tape.watch(t) for name, t in params.named_parameters()}
        training.gold_log_probs(params.with_tensors(watched), examples)
    assert {name for tape in tapes for name, _, _ in tape.entries} == ENGINE_PRIMITIVES - ACCEPTANCE_ONLY
    assert ACCEPTANCE_ONLY <= ENGINE_PRIMITIVES
    assert ENGINE_PRIMITIVES <= set(ad.__all__)


def test_finite_difference_check_exact_on_quadratic():
    err = ad.finite_difference_check(lambda t: ad.sum_all(ad.matvec(ad.stack_rows([t]), t)), ad.tensor([3.0, -1.0]))
    assert err < 1e-9


def test_finite_difference_check_rejects_vector_output():
    with pytest.raises(ad.ShapeError):
        ad.finite_difference_check(lambda t: ad.scale(t, 2.0), ad.tensor([1.0, 2.0]))


class TestTape:
    def test_entries_are_topologically_ordered(self):
        tape = ad.Tape()
        x = watched(tape, [1.0, 2.0])
        y = ad.scale(x, 2.0)
        z = ad.add(y, y)
        ad.sum_all(z)
        for _name, in_nodes, out_nodes in tape.entries:
            for nid in in_nodes:
                assert nid is not None and nid < min(out_nodes)
        assert len(tape) == 3

    @pytest.mark.parametrize("variant, per_step", [("PCGN", 6), ("Seq2Seq", 4)])
    def test_entries_per_decoder_step(self, variant, per_step):
        # One more target token adds one decoder step and nothing else: the
        # output layer and the loss run once over every step.
        cfg = tiny_config(variant)
        params = random_params(cfg, 4)

        def entries(y_len):
            tape = ad.Tape()
            watched = {name: tape.watch(t) for name, t in params.named_parameters()}
            training.sequence_loss(params.with_tensors(watched), tiny_example(cfg, 5, y_len=y_len))
            return len(tape.entries)

        assert entries(4) - entries(3) == per_step

    # Entries of one sequence_loss of a 5-target example at desk dimensions.
    WALK_ENTRIES = {("PCGN", 1): 53, ("PCGN", 2): 61, ("+Mem", 1): 40, ("Seq2Seq", 1): 34, ("Seq2Seq", 2): 42}

    @pytest.mark.parametrize("variant, layers", list(WALK_ENTRIES))
    def test_entries_per_walk(self, variant, layers):
        tape, example = desk_walk_tape(variant, layers)
        assert example.target_len == 5
        assert len(tape) == self.WALK_ENTRIES[variant, layers]

    @pytest.mark.parametrize("name", ["lstm_cell", "gated_memory"])
    def test_two_output_entry_with_its_second_output_unread(self, name):
        # Only the first output reaches the loss, as the last decoder
        # step's c does: the sweep hands the backward None for the second.
        self._check_one_output_read(name, read=0)

    @pytest.mark.parametrize("name", ["lstm_cell", "gated_memory"])
    def test_two_output_entry_with_its_first_output_unread(self, name):
        # Only the second output reaches the loss, c or M_t^o: the sweep
        # hands the backward None for h or M_t, whose gradient is then zero.
        self._check_one_output_read(name, read=1)

    @staticmethod
    def _check_one_output_read(name, read):
        rng = np.random.default_rng(zlib.crc32(name.encode()) + read)
        shapes = {
            "lstm_cell": [(16, 3), (16, 4), (16,), (2, 3), (2, 4), (2, 4)],
            "gated_memory": [(4, 3), (4, 5), (2, 3), (2, 2), (2, 1), (2, 2), (2, 4)],
        }[name]
        op = getattr(ad, name)
        operands = [rng.normal(size=shape) for shape in shapes]
        mix = ad.tensor(rng.normal(size=(2, 4)))  # both ops' outputs are (2, 4)
        tape = ad.Tape()
        leaves = [watched(tape, a) for a in operands]
        out = weighted_sum(op(*leaves)[read], mix)
        grads, want = ad.backprop(tape, out), oracle.reference_backprop(tape, out)
        for leaf in leaves:
            assert grads[leaf].array.tobytes() == want[leaf].array.tobytes()
        for probed, (f, theta) in enumerate(_every_operand(lambda *args: op(*args)[read], operands, mix)):
            assert ad.finite_difference_check(f, ad.tensor(theta)) < 1e-6, probed
            assert np.array_equal(grad_of(f, theta), grads[leaves[probed]].array)

    def test_backprop_skips_entries_with_no_output_read(self):
        # A side matvec and an LSTM cell whose outputs no loss reads: the
        # sweep must not run their backwards, and the gradients stay the
        # reference sweep's to the bit.
        rng = np.random.default_rng(26)
        tape = ad.Tape()
        w, x = watched(tape, rng.normal(size=(3, 4))), watched(tape, rng.normal(size=4))
        cell = [watched(tape, rng.normal(size=shape)) for shape in [(8, 3), (8, 2), (8,), (2,), (2,)]]
        y = ad.matvec(w, x)
        ad.matvec(w, x)
        ad.lstm_cell(cell[0], cell[1], cell[2], y, cell[3], cell[4])
        out = ad.sum_all(ad.matvec(ad.tensor(rng.normal(size=(1, 3))), y))
        calls = collections.Counter()

        def counted(name, backward):
            def run(*grads):
                calls[name] += 1
                return backward(*grads)
            return run

        tape._entries[:] = [(name, ins, outs, counted(name, bw)) for name, ins, outs, bw in tape._entries]
        grads = ad.backprop(tape, out)
        assert calls == {"matvec": 2, "sum_all": 1}
        want = oracle.reference_backprop(tape, out)
        for leaf in [w, x, *cell]:
            assert grads[leaf].array.tobytes() == want[leaf].array.tobytes()

    def test_identical_programs_record_identically(self):
        def run():
            tape = ad.Tape()
            x = watched(tape, [0.5, -0.5])
            out = ad.sum_all(ad.tanh_affine(ad.tensor([[1.0, 2.0]]), ad.tensor([0.5]), ad.scale(x, 3.0)))
            return tape.entries, out.array.copy()

        entries_a, out_a = run()
        entries_b, out_b = run()
        assert entries_a == entries_b
        assert np.array_equal(out_a, out_b)

    def test_untaped_operands_record_nothing(self):
        tape = ad.Tape()
        watched(tape, [1.0])
        a = ad.tensor([1.0, 2.0])
        ad.add(a, ad.tensor([3.0, 4.0]))
        assert len(tape) == 0

    def test_constant_inputs_marked_none_in_entries(self):
        tape = ad.Tape()
        x = watched(tape, [1.0, 2.0])
        ad.add(x, ad.tensor([3.0, 4.0]))
        (entry,) = tape.entries
        assert entry[1][0] == x.node and entry[1][1] is None

    def test_watch_attached_tensor_rejected(self):
        tape = ad.Tape()
        x = watched(tape, [1.0])
        with pytest.raises(ValueError, match="already attached"):
            tape.watch(x)

    def test_mixing_tapes_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        x = watched(t1, [1.0])
        y = watched(t2, [1.0])
        with pytest.raises(ValueError, match="different tapes"):
            ad.add(x, y)

    def test_backprop_requires_scalar(self):
        tape = ad.Tape()
        x = watched(tape, [1.0, 2.0])
        y = ad.scale(x, 2.0)
        with pytest.raises(ValueError, match="scalar"):
            ad.backprop(tape, y)

    def test_backprop_frees_each_gradient_once_consumed(self):
        # Along a chain, each node's gradient is dead once its producer ran;
        # a sweep that kept them all would hold ~100 vectors at its peak.
        # The second chain steps a two-output entry whose outputs are both
        # read, the memory M_t by the next step and M_t^o by the loss, so
        # it checks that both outputs' gradients are freed.
        n = 10_000
        tape = ad.Tape()
        x = watched(tape, np.linspace(-1.0, 1.0, n))
        y = x
        for _ in range(100):
            y = ad.scale(y, 0.5)
        chain_out = ad.sum_all(y)
        w_u, w_o, one = ad.tensor(np.ones((n, 1))), ad.tensor(np.ones((n, 3))), ad.tensor([0.1])
        m = watched(tape, np.linspace(-1.0, 1.0, n))
        memory_out = ad.sum_all(m)
        for _ in range(100):
            m, read = ad.gated_memory(w_u, w_o, one, one, one, one, m)
            memory_out = ad.add(memory_out, ad.sum_all(read))
        for out in (chain_out, memory_out):
            tracemalloc.start()
            try:
                ad.backprop(tape, out)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 10 * x.array.nbytes

    def test_backprop_rejects_foreign_output(self):
        tape = ad.Tape()
        watched(tape, [1.0])
        with pytest.raises(ValueError, match="not a node"):
            ad.backprop(tape, ad.tensor(1.0))

    def test_gradientset_indexing(self):
        tape = ad.Tape()
        x = watched(tape, [1.0, 2.0])
        grads = ad.backprop(tape, ad.sum_all(x))
        assert np.array_equal(grads[x.node].array, [1.0, 1.0])
        with pytest.raises(KeyError):
            grads[ad.tensor([1.0])]


class TestErrors:
    def test_bilstm_layer_shape_mismatch(self):
        w_x, w_h, b = ad.zeros((16, 3)), ad.zeros((16, 4)), ad.zeros(16)
        good = (w_x, w_h, b)
        with pytest.raises(ad.ShapeError):
            ad.bilstm_layer(good, good, ad.zeros((2, 2)))
        with pytest.raises(ad.ShapeError):
            ad.bilstm_layer(good, (w_x, ad.zeros((16, 3)), b), ad.zeros((2, 3)))
        with pytest.raises(ad.ShapeError):
            ad.bilstm_layer((w_x, w_h, ad.zeros(12)), good, ad.zeros((2, 3)))
        with pytest.raises(ad.ShapeError):
            ad.bilstm_layer(good, good, ad.zeros(3))
        with pytest.raises(ad.ShapeError):
            ad.bilstm_layer(good, good, ad.zeros((3, 3)), [1, 1])
        with pytest.raises(ad.ShapeError, match="hidden sizes differ"):
            ad.bilstm_layer(good, (ad.zeros((8, 3)), ad.zeros((8, 2)), ad.zeros(8)), ad.zeros((2, 3)))
        with pytest.raises(ValueError, match="empty"):
            ad.bilstm_layer(good, good, ad.zeros((0, 3)))
        with pytest.raises(ValueError, match="empty"):
            ad.bilstm_layer(good, good, ad.zeros((2, 3)), [2, 0])

    def test_tanh_affine_shape_mismatch(self):
        w, b = ad.zeros((4, 3)), ad.zeros(4)
        for bad in ((w, b, ad.zeros(4)), (w, ad.zeros(3), ad.zeros(3)), (ad.zeros(3), ad.zeros(3), ad.zeros(3)),
                    (w, b, ad.zeros((2, 2, 3))), (w, ad.zeros((1, 4)), ad.zeros(3))):
            with pytest.raises(ad.ShapeError, match="tanh_affine"):
                ad.tanh_affine(*bad)

    def test_linear_shape_mismatch(self):
        w = ad.zeros((4, 3))
        with pytest.raises(ad.ShapeError):
            ad.matvec(w, ad.zeros((2, 4)), exact=False)
        with pytest.raises(ad.ShapeError):
            ad.matvec(ad.zeros(3), ad.zeros((2, 3)), exact=False)

    def test_add_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.add(ad.tensor([1.0]), ad.tensor([1.0, 2.0]))
        with pytest.raises(ad.ShapeError, match="equal shapes"):  # no row broadcast
            ad.add(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros(3)))
        with pytest.raises(ad.ShapeError):
            ad.add(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros(2)))
        with pytest.raises(ad.ShapeError):
            ad.add(ad.tensor(np.zeros(3)), ad.tensor(np.zeros((2, 3))))

    def test_softmax_rejects_empty_rows_and_3d(self):
        with pytest.raises(ValueError):
            ad.log_softmax_at(ad.tensor(np.zeros(0)), 0)
        with pytest.raises(ValueError):
            ad.log_softmax_at(ad.tensor(np.zeros((2, 0))), [0, 0])
        with pytest.raises(ad.ShapeError):
            ad.log_softmax_at(ad.tensor(np.zeros((2, 2, 2))), [0, 0])
        w_a = ad.zeros((2, 3))
        with pytest.raises(ValueError, match="at least one"):
            ad.attention(ad.zeros(2), ad.zeros((0, 3)), w_a)
        with pytest.raises(ad.ShapeError):
            ad.attention(ad.zeros((2, 2, 2)), ad.zeros((4, 3)), w_a)
        with pytest.raises(ad.ShapeError):
            ad.attention(ad.zeros(2), ad.zeros((4, 3, 1)), w_a)

    def test_softmax_mask_must_keep_an_entry_per_row(self):
        s, states, w_a = ad.zeros((2, 2)), ad.zeros((3, 4)), ad.zeros((2, 4))
        with pytest.raises(ValueError, match="no states"):
            ad.attention(s, states, w_a, np.array([[True, False, False], [False, False, False]]))
        with pytest.raises(ad.ShapeError):
            ad.attention(s, states, w_a, np.ones(3, dtype=bool))

    def test_attention_and_gate_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.attention(ad.zeros(3), ad.zeros((4, 3)), ad.zeros((2, 3)))
        with pytest.raises(ad.ShapeError):
            ad.attention(ad.zeros(2), ad.zeros((4, 5)), ad.zeros((2, 3)))
        # gated_memory(w_u, w_o, s_t, s_prev, e_prev, c_blog, m_prev).
        w_u, w_o, s, m = ad.zeros((2, 3)), ad.zeros((2, 4)), ad.zeros(3), ad.zeros(2)
        parts = (ad.zeros(2), ad.zeros(1), ad.zeros(1))
        ad.gated_memory(w_u, w_o, s, *parts, m)
        for bad in ((w_u, w_o, ad.zeros(2), *parts, m), (w_u, w_o, s, *parts, ad.zeros(3)),
                    (w_u, ad.zeros((3, 4)), s, *parts, m), (w_u, w_o, s, ad.zeros(3), *parts[1:], m),
                    (w_u, w_o, ad.zeros((4, 3)), *parts, ad.zeros((4, 2))),
                    (ad.zeros(3), w_o, s, *parts, m), (w_u, w_o, ad.zeros((1, 1, 3)), *parts, m)):
            with pytest.raises(ad.ShapeError, match="gated_memory"):
                ad.gated_memory(*bad)

    def test_concat_rejects_empty_list_and_mismatched_rows(self):
        with pytest.raises(ValueError):
            ad.concat([])
        with pytest.raises(ad.ShapeError):
            ad.concat([ad.tensor(np.zeros((2, 2, 2)))])
        with pytest.raises(ad.ShapeError):
            ad.concat([ad.tensor(np.zeros((2, 2))), ad.tensor(np.zeros((3, 2)))])
        with pytest.raises(ad.ShapeError):
            ad.concat([ad.tensor(np.zeros((1, 2))), ad.tensor(np.zeros(2))])

    def test_index_errors(self):
        v = ad.tensor([1.0, 2.0])
        table = ad.tensor(np.zeros((2, 2)))
        with pytest.raises(IndexError):
            ad.vslice(v, 0, 3)
        with pytest.raises(IndexError):
            ad.log_softmax_at(v, 2)
        with pytest.raises(IndexError):
            ad.embedding_lookup(table, 2)
        with pytest.raises(IndexError):
            ad.embedding_lookup(table, [0, 2])
        with pytest.raises(IndexError):
            ad.log_softmax_at(ad.tensor(np.zeros((2, 2))), [0, -1])
        with pytest.raises(ad.ShapeError):
            ad.log_softmax_at(ad.tensor(np.zeros((2, 2))), [0])
        with pytest.raises(ad.ShapeError):
            ad.embedding_lookup(table, [0.0])

    def test_item_requires_single_element(self):
        with pytest.raises(ad.ShapeError):
            ad.tensor([1.0, 2.0]).item()

    def test_nonfinite_construction_rejected(self):
        with pytest.raises(ad.NonFiniteError):
            ad.tensor([np.inf])
        with pytest.raises(ad.NonFiniteError):
            ad.tensor([np.nan])

    def test_nonfinite_op_result_rejected(self):
        # Op outputs are not checked; the value is rejected when it re-enters
        # the engine, and inside a model where it leaves the engine.
        with np.errstate(over="ignore"):
            out = ad.scale(ad.tensor([1e308]), 10.0)
        assert np.isinf(out.array[0])
        with pytest.raises(ad.NonFiniteError):
            ad.tensor(out.array)
        cfg = tiny_config("Seq2Seq")
        params = overflowing_attention_params(random_params(cfg, 35))
        assert_caught_at_boundaries(params, [tiny_example(cfg, seed=30 + i) for i in range(2)])


finite_vectors = st.lists(
    st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
    min_size=1,
    max_size=8,
)


@given(finite_vectors)
@settings(max_examples=60, deadline=None)
def test_softmax_is_a_distribution(values):
    out = attention_weights(values)
    assert abs(out.sum() - 1.0) < 1e-12
    assert (out > 0.0).all()


@given(finite_vectors, st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_softmax_shift_invariance(values, shift):
    base = attention_weights(values)
    shifted = attention_weights(np.asarray(values) + shift)
    assert np.allclose(base, shifted, atol=1e-12)


@given(st.lists(finite_vectors, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_concat_preserves_content(parts):
    tensors = [ad.tensor(p) for p in parts]
    joined = ad.concat(tensors).array
    assert joined.shape == (sum(len(p) for p in parts),)
    offset = 0
    for p in parts:
        assert np.array_equal(joined[offset : offset + len(p)], np.asarray(p, dtype=np.float64))
        offset += len(p)
