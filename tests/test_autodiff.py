"""Tensor primitive and reverse-mode gradient tests."""

from __future__ import annotations

import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pcgn import autodiff as ad

from conftest import assert_caught_at_boundaries, overflowing_attention_params, random_params, tiny_config, tiny_example


def watched(tape, values):
    return tape.watch(ad.Tensor(values))


def grad_of(f, theta_values):
    """Analytic gradient of scalar f at theta, as a numpy array."""
    tape = ad.Tape()
    theta = watched(tape, theta_values)
    out = f(theta)
    return ad.backprop(tape, out)[theta].array


class TestForwardValues:
    def test_matvec_hand_value(self):
        out = ad.matvec(ad.tensor([[1.0, 0.0], [1.0, 1.0]]), ad.tensor([2.0, 3.0]))
        assert np.array_equal(out.array, [2.0, 5.0])

    def test_vecmat_hand_value(self):
        out = ad.vecmat(ad.tensor([2.0, 3.0]), ad.tensor([[1.0, 0.0], [1.0, 1.0]]))
        assert np.array_equal(out.array, [5.0, 3.0])

    def test_linear_is_one_matrix_product(self):
        rng = np.random.default_rng(7)
        w, x = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
        out = ad.linear(ad.tensor(w), ad.tensor(x)).array
        assert np.array_equal(out, x @ w.T)
        assert np.allclose(out, [w @ row for row in x], rtol=0, atol=1e-14)

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(ad.tensor([0.0])).array[0] == 0.5

    def test_sigmoid_symmetry(self):
        x = np.linspace(-6.0, 6.0, 25)
        s_pos = ad.sigmoid(ad.tensor(x)).array
        s_neg = ad.sigmoid(ad.tensor(-x)).array
        assert np.allclose(s_pos + s_neg, 1.0, atol=1e-15)

    def test_sigmoid_saturates_without_overflow_error(self):
        out = ad.sigmoid(ad.tensor([-1000.0, 1000.0])).array
        assert out[0] == 0.0 and out[1] == 1.0

    def test_tanh_at_zero(self):
        assert ad.tanh(ad.tensor([0.0])).array[0] == 0.0

    def test_softmax_uniform(self):
        out = ad.softmax(ad.tensor(np.zeros(4))).array
        assert np.allclose(out, 0.25, atol=1e-15)

    def test_softmax_hand_value(self):
        out = ad.softmax(ad.tensor([0.0, np.log(3.0)])).array
        assert np.allclose(out, [0.25, 0.75], atol=1e-12)

    def test_log_softmax_matches_log_of_softmax(self):
        x = np.array([0.3, -1.2, 2.0])
        direct = ad.log_softmax(ad.tensor(x)).array
        indirect = np.log(ad.softmax(ad.tensor(x)).array)
        assert np.allclose(direct, indirect, atol=1e-12)

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
        assert ad.pick(v, 1).item() == 4.0
        assert ad.sum_all(v).item() == 14.0

    def test_hadamard_add_scale(self):
        a, b = ad.tensor([2.0, 3.0]), ad.tensor([5.0, -1.0])
        assert np.array_equal(ad.hadamard(a, b).array, [10.0, -3.0])
        assert np.array_equal(ad.add(a, b).array, [7.0, 2.0])
        assert np.array_equal(ad.add(ad.tensor([[1.0, 1.0], [2.0, 2.0]]), b).array, [[6.0, 0.0], [7.0, 1.0]])
        assert np.array_equal(ad.scale(a, -2.0).array, [-4.0, -6.0])

    def test_zeros_helper(self):
        assert np.array_equal(ad.zeros((2, 2)).array, np.zeros((2, 2)))


class TestGradientHandValues:
    def test_sigmoid_derivative_at_zero_is_quarter(self):
        g = grad_of(lambda t: ad.sum_all(ad.sigmoid(t)), [0.0])
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
        table = np.arange(15.0).reshape(5, 3)
        g = grad_of(
            lambda t: ad.add(
                ad.add(ad.sum_all(ad.embedding_lookup(t, [1, 1, 3])), ad.sum_all(ad.embedding_lookup(t, 1))),
                ad.sum_all(ad.hadamard(t, t)),
            ),
            table,
        )
        counts = np.array([0.0, 3.0, 0.0, 1.0, 0.0])[:, None]
        assert np.array_equal(g, counts + 2.0 * table)

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
        # q's gradient changes too.
        w, c1, c2 = (ad.tensor(v) for v in ([1.0, 2.0], [10.0, 20.0], [100.0, 200.0]))
        tape = ad.Tape()
        a, b = watched(tape, [0.5, -1.0]), watched(tape, [3.0, 4.0])
        p, q = ad.scale(a, 1.0), ad.scale(b, 1.0)
        t1, t2 = ad.hadamard(p, c1), ad.hadamard(p, c2)
        # Recorded after t1 and t2, so the sweep reaches it first.
        s = ad.add(p, q)
        out = ad.add(ad.add(ad.sum_all(ad.hadamard(s, w)), ad.sum_all(t1)), ad.sum_all(t2))
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
        g = grad_of(lambda x: ad.scale(ad.pick(x, 1), 3.0), [5.0, 6.0, 7.0])
        assert np.array_equal(g, [0.0, 3.0, 0.0])

    def test_vslice_scatter_gradient(self):
        g = grad_of(lambda x: ad.sum_all(ad.vslice(x, 1, 3)), np.zeros(4))
        assert np.array_equal(g, [0.0, 1.0, 1.0, 0.0])

    def test_masked_softmax_weights_are_exactly_zero(self):
        x = np.array([[0.3, -1.2, 2.5, 0.0], [4.0, 1.0, -2.0, 0.5]])
        mask = np.array([[True, False, True, False], [False, True, True, True]])
        out = ad.softmax(ad.tensor(x), mask).array
        assert (out[~mask] == 0.0).all()
        for row in range(2):
            kept = ad.softmax(ad.tensor(x[row][mask[row]])).array
            assert np.array_equal(out[row][mask[row]], kept)
        g = grad_of(lambda t: ad.sum_all(ad.hadamard(ad.softmax(t, mask), ad.tensor(x))), x)
        assert (g[~mask] == 0.0).all()

    def test_softmax_gradient_sums_to_zero(self):
        r = ad.tensor([0.4, -1.0, 2.0])
        g = grad_of(lambda x: ad.sum_all(ad.hadamard(ad.softmax(x), r)), [0.1, 0.2, 0.3])
        assert abs(g.sum()) < 1e-14

    def test_quadratic_via_hadamard(self):
        g = grad_of(lambda x: ad.sum_all(ad.hadamard(x, x)), [3.0, -2.0])
        assert np.array_equal(g, [6.0, -4.0])


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
            (lambda t: ad.sum_all(ad.hadamard(ad.matvec(t, ad.tensor(xs)), mix)), w),
            (lambda t: ad.sum_all(ad.hadamard(ad.matvec(ad.tensor(w), t), mix)), xs),
        ]
    if name == "vecmat":
        k, n, rows = dims(3)
        x, w, xs = rng.normal(size=k), rng.normal(size=(k, n)), rng.normal(size=(rows, k))
        mix = ad.tensor(rng.normal(size=(rows, n)))
        return [
            (lambda t: ad.sum_all(ad.vecmat(t, ad.tensor(w))), x),
            (lambda t: ad.sum_all(ad.vecmat(ad.tensor(x), t)), w),
            (lambda t: ad.sum_all(ad.hadamard(ad.vecmat(t, ad.tensor(w)), mix)), xs),
            (lambda t: ad.sum_all(ad.hadamard(ad.vecmat(ad.tensor(xs), t), mix)), w),
        ]
    if name == "linear":
        m, k, rows = dims(3)
        w = rng.normal(size=(m, k))
        cases = []
        for n in (1, rows):
            x, mix = rng.normal(size=(n, k)), ad.tensor(rng.normal(size=(n, m)))
            cases += [
                (lambda t, x=x, mix=mix: ad.sum_all(ad.hadamard(ad.linear(t, ad.tensor(x)), mix)), w),
                (lambda t, mix=mix: ad.sum_all(ad.hadamard(ad.linear(ad.tensor(w), t), mix)), x),
            ]
        return cases
    if name == "add":
        n, rows = dims(2)
        other = ad.tensor(rng.normal(size=n))
        weights = ad.tensor(rng.normal(size=n))
        block = ad.tensor(rng.normal(size=(rows, n)))
        mix = ad.tensor(rng.normal(size=(rows, n)))
        return [
            (lambda t: ad.sum_all(ad.hadamard(ad.add(t, other), weights)), rng.normal(size=n)),
            (lambda t: ad.sum_all(ad.hadamard(ad.add(block, t), mix)), rng.normal(size=n)),
            (lambda t: ad.sum_all(ad.hadamard(ad.add(t, other), mix)), rng.normal(size=(rows, n))),
        ]
    if name == "scale":
        (n,) = dims()
        c = float(rng.normal())
        weights = ad.tensor(rng.normal(size=n))
        return [(lambda t: ad.sum_all(ad.hadamard(ad.scale(t, c), weights)), rng.normal(size=n))]
    if name == "hadamard":
        (n,) = dims()
        other = ad.tensor(rng.normal(size=n))
        return [
            (lambda t: ad.sum_all(ad.hadamard(t, other)), rng.normal(size=n)),
            (lambda t: ad.sum_all(ad.hadamard(other, t)), rng.normal(size=n)),
        ]
    if name == "sigmoid":
        (n,) = dims()
        weights = ad.tensor(rng.normal(size=n))
        return [(lambda t: ad.sum_all(ad.hadamard(ad.sigmoid(t), weights)), rng.normal(size=n))]
    if name == "tanh":
        (n,) = dims()
        weights = ad.tensor(rng.normal(size=n))
        return [(lambda t: ad.sum_all(ad.hadamard(ad.tanh(t), weights)), rng.normal(size=n))]
    if name in ("softmax", "log_softmax"):
        op = getattr(ad, name)
        n, rows = dims(2)
        weights = ad.tensor(rng.normal(size=n))
        mix = ad.tensor(rng.normal(size=(rows, n)))
        cases = [
            (lambda t: ad.sum_all(ad.hadamard(op(t), weights)), rng.normal(size=n)),
            (lambda t: ad.sum_all(ad.hadamard(op(t), mix)), rng.normal(size=(rows, n))),
        ]
        if name == "softmax":
            # Random masks that keep at least one entry per row.
            mask = rng.random(n) < 0.5
            mask[rng.integers(0, n)] = True
            masks = rng.random((rows, n)) < 0.5
            masks[np.arange(rows), rng.integers(0, n, rows)] = True
            cases += [
                (lambda t: ad.sum_all(ad.hadamard(ad.softmax(t, mask), weights)), rng.normal(size=n)),
                (lambda t: ad.sum_all(ad.hadamard(ad.softmax(t, masks), mix)), rng.normal(size=(rows, n))),
            ]
        return cases
    if name == "concat":
        a, b, rows = dims(3)
        left = ad.tensor(rng.normal(size=a))
        mid = rng.normal(size=b)
        weights = ad.tensor(rng.normal(size=a + b + a))
        left_rows = ad.tensor(rng.normal(size=(rows, a)))
        mix = ad.tensor(rng.normal(size=(rows, a + b + a)))
        return [
            (lambda t: ad.sum_all(ad.hadamard(ad.concat([left, t, left]), weights)), mid),
            (lambda t: ad.sum_all(ad.hadamard(ad.concat([left_rows, t, left_rows]), mix)), rng.normal(size=(rows, b))),
        ]
    if name == "stack_rows":
        n, rows = dims(2)
        other = ad.tensor(rng.normal(size=n))
        mix = ad.tensor(rng.normal(size=(n, 2)))
        other_rows = ad.tensor(rng.normal(size=(2, n)))
        return [
            (lambda t: ad.sum_all(ad.vecmat(ad.stack_rows([t, other]), mix)), rng.normal(size=n)),
            (lambda t: ad.sum_all(ad.vecmat(ad.stack_rows([other_rows, t, other_rows]), mix)), rng.normal(size=(rows, n))),
        ]
    if name == "vslice":
        n = int(rng.integers(2, 9))
        start = int(rng.integers(0, n - 1))
        stop = int(rng.integers(start + 1, n + 1))
        weights = ad.tensor(rng.normal(size=stop - start))
        (rows,) = dims()
        mix = ad.tensor(rng.normal(size=(rows, stop - start)))
        return [
            (lambda t: ad.sum_all(ad.hadamard(ad.vslice(t, start, stop), weights)), rng.normal(size=n)),
            (lambda t: ad.sum_all(ad.hadamard(ad.vslice(t, start, stop), mix)), rng.normal(size=(rows, n))),
        ]
    if name == "embedding_lookup":
        rows, cols = dims(2)
        idx = int(rng.integers(0, rows))
        ids = rng.integers(0, rows, 5)   # repeats accumulate
        weights = ad.tensor(rng.normal(size=cols))
        mix = ad.tensor(rng.normal(size=(5, cols)))
        return [
            (lambda t: ad.sum_all(ad.hadamard(ad.embedding_lookup(t, idx), weights)), rng.normal(size=(rows, cols))),
            (lambda t: ad.sum_all(ad.hadamard(ad.embedding_lookup(t, ids), mix)), rng.normal(size=(rows, cols))),
        ]
    if name == "pick":
        n, rows = dims(2)
        idx = int(rng.integers(0, n))
        per_row = rng.integers(0, n, rows)
        weights = ad.tensor(rng.normal(size=rows))
        return [
            (lambda t: ad.scale(ad.pick(t, idx), 2.5), rng.normal(size=n)),
            (lambda t: ad.sum_all(ad.hadamard(ad.pick(t, per_row), weights)), rng.normal(size=(rows, n))),
        ]
    if name == "sum_all":
        m, n = dims(2)
        return [(lambda t: ad.sum_all(t), rng.normal(size=(m, n)))]
    if name == "lstm_layer":
        # Small sizes: every case probes all four operands.
        hidden, in_dim, steps = (int(v) for v in rng.integers(1, 4, 3))
        ragged = rng.permutation([1, int(rng.integers(2, 5)), int(rng.integers(1, 5))]).tolist()
        layouts = [
            (steps + 1, False, None),             # forward
            (steps + 1, True, None),              # reverse
            (1, bool(rng.integers(2)), None),     # T = 1
            (sum(ragged), False, ragged),         # ragged block, a length-1 sequence in it
            (sum(ragged), True, ragged),
        ]

        def case(operands, probed, reverse, lengths, mix):
            def f(t):
                args = list(operands)
                args[probed] = t
                return ad.sum_all(ad.hadamard(ad.lstm_layer(*args, reverse, lengths), mix))
            return f, operands[probed].array

        cases = []
        for rows, reverse, lengths in layouts:
            operands = [ad.tensor(rng.normal(size=shape)) for shape in
                        ((4 * hidden, in_dim), (4 * hidden, hidden), (4 * hidden,), (rows, in_dim))]
            mix = ad.tensor(rng.normal(size=(rows, hidden)))
            cases += [case(operands, probed, reverse, lengths, mix) for probed in range(4)]
        return cases
    raise AssertionError(name)


PRIMITIVES = [
    "matvec", "vecmat", "linear", "add", "scale", "hadamard",
    "sigmoid", "tanh", "softmax", "log_softmax", "concat", "stack_rows",
    "vslice", "embedding_lookup", "pick", "sum_all", "lstm_layer",
]


@pytest.mark.parametrize("name", PRIMITIVES)
def test_primitive_matches_finite_differences(name):
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng((zlib.crc32(name.encode()), seed))
        for f, theta in _fd_cases(name, rng):
            err = ad.finite_difference_check(f, ad.tensor(theta))
            worst = max(worst, err)
    assert worst < 1e-4, f"{name}: worst relative error {worst:.3e}"


def test_finite_difference_check_exact_on_quadratic():
    err = ad.finite_difference_check(lambda t: ad.sum_all(ad.hadamard(t, t)), ad.tensor([3.0, -1.0]))
    assert err < 1e-9


def test_finite_difference_check_rejects_vector_output():
    with pytest.raises(ad.ShapeError):
        ad.finite_difference_check(lambda t: ad.scale(t, 2.0), ad.tensor([1.0, 2.0]))


class TestTape:
    def test_entries_are_topologically_ordered(self):
        tape = ad.Tape()
        x = watched(tape, [1.0, 2.0])
        y = ad.sigmoid(x)
        z = ad.add(y, y)
        ad.sum_all(z)
        for _name, in_nodes, out_node in tape.entries:
            for nid in in_nodes:
                assert nid is not None and nid < out_node
        assert len(tape) == 3

    def test_identical_programs_record_identically(self):
        def run():
            tape = ad.Tape()
            x = watched(tape, [0.5, -0.5])
            out = ad.sum_all(ad.tanh(ad.scale(x, 3.0)))
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
        ad.hadamard(x, ad.tensor([3.0, 4.0]))
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
        tape = ad.Tape()
        x = watched(tape, np.linspace(-1.0, 1.0, 10_000))
        y = x
        for _ in range(100):
            y = ad.tanh(y)
        out = ad.sum_all(y)
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
    def test_lstm_layer_shape_mismatch(self):
        w_x, w_h, b = ad.zeros((16, 3)), ad.zeros((16, 4)), ad.zeros(16)
        with pytest.raises(ad.ShapeError):
            ad.lstm_layer(w_x, w_h, b, ad.zeros((2, 2)), False)
        with pytest.raises(ad.ShapeError):
            ad.lstm_layer(w_x, ad.zeros((16, 3)), b, ad.zeros((2, 3)), False)
        with pytest.raises(ad.ShapeError):
            ad.lstm_layer(w_x, w_h, ad.zeros(12), ad.zeros((2, 3)), False)
        with pytest.raises(ad.ShapeError):
            ad.lstm_layer(w_x, w_h, b, ad.zeros(3), False)
        with pytest.raises(ad.ShapeError):
            ad.lstm_layer(w_x, w_h, b, ad.zeros((3, 3)), True, [1, 1])
        with pytest.raises(ValueError, match="empty"):
            ad.lstm_layer(w_x, w_h, b, ad.zeros((0, 3)), False)
        with pytest.raises(ValueError, match="empty"):
            ad.lstm_layer(w_x, w_h, b, ad.zeros((2, 3)), False, [2, 0])

    def test_linear_shape_mismatch(self):
        w = ad.zeros((4, 3))
        with pytest.raises(ad.ShapeError):
            ad.linear(w, ad.zeros((2, 4)))
        with pytest.raises(ad.ShapeError):
            ad.linear(w, ad.zeros(3))
        with pytest.raises(ad.ShapeError):
            ad.linear(ad.zeros(3), ad.zeros((2, 3)))

    def test_add_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.add(ad.tensor([1.0]), ad.tensor([1.0, 2.0]))
        with pytest.raises(ad.ShapeError):
            ad.add(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros(2)))
        with pytest.raises(ad.ShapeError):
            ad.add(ad.tensor(np.zeros(3)), ad.tensor(np.zeros((2, 3))))

    def test_softmax_rejects_empty_rows_and_3d(self):
        for op in (ad.softmax, ad.log_softmax):
            with pytest.raises(ValueError):
                op(ad.tensor(np.zeros(0)))
            with pytest.raises(ValueError):
                op(ad.tensor(np.zeros((2, 0))))
            with pytest.raises(ad.ShapeError):
                op(ad.tensor(np.zeros((2, 2, 2))))

    def test_softmax_mask_must_keep_an_entry_per_row(self):
        x = ad.tensor(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="no entries"):
            ad.softmax(x, np.array([[True, False, False], [False, False, False]]))
        with pytest.raises(ad.ShapeError):
            ad.softmax(x, np.ones(3, dtype=bool))

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
            ad.pick(v, 2)
        with pytest.raises(IndexError):
            ad.embedding_lookup(table, 2)
        with pytest.raises(IndexError):
            ad.embedding_lookup(table, [0, 2])
        with pytest.raises(IndexError):
            ad.pick(ad.tensor(np.zeros((2, 2))), [0, -1])
        with pytest.raises(ad.ShapeError):
            ad.pick(ad.tensor(np.zeros((2, 2))), [0])
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
    out = ad.softmax(ad.tensor(values)).array
    assert abs(out.sum() - 1.0) < 1e-12
    assert (out > 0.0).all()


@given(finite_vectors, st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_softmax_shift_invariance(values, shift):
    base = ad.softmax(ad.tensor(values)).array
    shifted = ad.softmax(ad.tensor(np.asarray(values) + shift)).array
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


@given(finite_vectors)
@settings(max_examples=40, deadline=None)
def test_hadamard_commutes(values):
    rng = np.random.default_rng(len(values))
    other = rng.normal(size=len(values))
    ab = ad.hadamard(ad.tensor(values), ad.tensor(other)).array
    ba = ad.hadamard(ad.tensor(other), ad.tensor(values)).array
    assert np.array_equal(ab, ba)
