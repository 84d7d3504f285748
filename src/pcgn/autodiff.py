"""Dense tensors with tape-based reverse-mode automatic differentiation.

Every model computation in this package is assembled from the primitives in
this module.  A :class:`Tensor` wraps a contiguous row-major numpy array.
When an operand is attached to a :class:`Tape`, the primitive records the
application (op name, input node ids, output node ids, and a backward
closure over the cached forward values) so :func:`backprop` can replay the
tape in reverse.  Tensors without a tape attachment are plain values; the
same primitives then run without recording, which keeps decoding and
evaluation allocation-light.

Every value is float64; there is no precision or checking switch.

The primitives the model uses take an optional leading row axis: a 1-D
operand is a single row, and a 2-D operand is a block of independent rows
that share the weights (``matvec``, ``tanh_affine``, ``attention``,
``gated_memory``, ``lstm_cell``, ``concat``, ``vslice``,
``log_softmax_at``).  ``embedding_lookup`` of an id vector returns one
row per id, and ``stack_rows`` stacks row blocks as well as vectors;
``add`` takes equal shapes only.  Beam search steps every live
hypothesis as one such block, so each layer is one numpy call per step.

Every product of a weight with an operand goes through one of two
kernels, ``_mv`` and ``_vm``.  A vector operand is ``w @ x``; a row block
is one matrix product (a GEMM) per weight, whose summation order depends
on the block's size.  So a block's rows match the same rows run one at a
time only to rounding, and a beam row's last bits may depend on the rows
beside it.  For a given block the bits are the same on every run with
the same BLAS thread count.

The encoders do not step: ``bilstm_layer`` runs both directions of one
bidirectional LSTM layer over whole sequences as one tape entry and
returns their joined states.  Each of its steps runs the cell kernel
that ``lstm_cell`` runs once, on both directions' rows together, and
both backwards build the pre-activation gradient from the same factors.

:func:`backprop` keeps one gradient array per node.  It adds row and
dense gradients into the arrays it owns in place, and frees a node's
gradient once its producer has run, so a sweep holds the leaves'
gradients and the few it is still summing, not one per node.  A row
read, ``embedding_lookup``, hands the sweep only its rows' gradient, so
a token lookup allocates no table-sized array, and reading a block's rows
one step at a time costs time linear in its length.

A decoder step is one ``attention`` entry per attention, one two-output
``gated_memory`` entry and one two-output ``lstm_cell`` entry per layer.
Their backwards run the chain rule through their parts in reverse and
hand each operand its gradients in that order (``attention`` lists
``states`` twice: for the context, then the scores).

One finite-check rule: values are checked for NaN and infinity where they
enter the engine and where they leave it, not inside.  They enter through
:class:`Tensor` construction, which raises :class:`NonFiniteError` on a
NaN or infinity.  They leave through the batch loss in
``training.train_epoch``, each gradient in ``training.sgd_update``, the
logits in ``decoding.DecodeSession.step`` and each example's loss in
``training.dataset_perplexity``; each of those raises a
:class:`NonFiniteError` that names the batch, parameter, decode step or
example.  Primitives do not check their outputs, so a NaN made inside a
computation travels to the nearest exit and is reported there.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "GradientSet",
    "ShapeError",
    "NonFiniteError",
    "all_finite",
    "tensor",
    "zeros",
    "matvec",
    "add",
    "scale",
    "tanh_affine",
    "lstm_cell",
    "bilstm_layer",
    "attention",
    "gated_memory",
    "concat",
    "stack_rows",
    "vslice",
    "embedding_lookup",
    "log_softmax_at",
    "sum_all",
    "backprop",
    "finite_difference_check",
]


class ShapeError(ValueError):
    """Operand shapes do not satisfy a primitive's contract."""


class NonFiniteError(ArithmeticError):
    """A NaN or infinity entered or left the engine."""


def all_finite(arr: np.ndarray) -> bool:
    """True when no element is NaN or infinite, also when squares overflow."""
    # The sum of squares is finite exactly when every element is, unless
    # large finite elements overflow it; only then test elementwise.  One
    # reduction is cheaper than isfinite + all on the small arrays here.
    return math.isfinite(np.vdot(arr, arr)) or bool(np.isfinite(arr).all())


class Tensor:
    """Immutable-by-convention dense value; may reference a tape node.

    The wrapped array is shared, not copied: treat it as read-only once the
    tensor exists.  ``tape``/``node`` are set only by :meth:`Tape.watch` and
    by recorded primitives.
    """

    __slots__ = ("array", "tape", "node")

    def __init__(self, values):
        arr = np.ascontiguousarray(values, dtype=np.float64)
        if not all_finite(arr):
            raise NonFiniteError(f"non-finite values in tensor of shape {arr.shape}")
        self.array = arr
        self.tape = None
        self.node = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.array.shape

    def item(self) -> float:
        if self.array.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.array.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = "" if self.node is None else f", node={self.node}"
        return f"Tensor(shape={self.shape}{tag})"


def _wrap(arr: np.ndarray, tape: "Tape | None" = None, node: int | None = None) -> Tensor:
    # Fast path for op outputs: dtype/contiguity already correct, and values
    # made inside the engine are checked where they leave it, not here.
    t = Tensor.__new__(Tensor)
    t.array = arr
    t.tape = tape
    t.node = node
    return t


def tensor(values) -> Tensor:
    return Tensor(values)


def zeros(shape) -> Tensor:
    return _wrap(np.zeros(shape, dtype=np.float64))


class Tape:
    """Append-only record of primitive applications.

    Entries are (op name, input node ids, output node ids, backward): the
    backward takes one gradient per output, None for one nothing read.
    By construction, inputs have smaller ids than outputs.
    """

    __slots__ = ("_entries", "_count", "_leaf_shapes")

    def __init__(self):
        self._entries: list[tuple[str, tuple[int | None, ...], range, Callable]] = []
        self._count = 0
        self._leaf_shapes: dict[int, tuple[int, ...]] = {}

    def watch(self, value: Tensor) -> Tensor:
        """Register a differentiation leaf; returns the attached tensor."""
        if value.tape is not None:
            raise ValueError("tensor is already attached to a tape")
        nid = self._count
        self._count += 1
        self._leaf_shapes[nid] = value.array.shape
        return _wrap(value.array, self, nid)

    def _record(self, name: str, in_nodes: tuple, outs, backward: Callable) -> "Tensor | list[Tensor]":
        """Appends an entry.  ``outs`` is the output array, which returns its
        tensor, or a tuple of several, which returns a list of tensors."""
        first = self._count
        if type(outs) is not tuple:  # one output: every op but two, so no loop
            self._count = first + 1
            self._entries.append((name, in_nodes, range(first, first + 1), backward))
            return _wrap(outs, self, first)
        self._count = first + len(outs)
        self._entries.append((name, in_nodes, range(first, self._count), backward))
        return [_wrap(out, self, nid) for nid, out in enumerate(outs, first)]

    @property
    def entries(self) -> list[tuple[str, tuple[int | None, ...], range]]:
        """(op, input ids, output ids) triples, in application order."""
        return [(name, ins, out) for name, ins, out, _ in self._entries]

    def __len__(self) -> int:
        return len(self._entries)


class GradientSet:
    """Gradients of one scalar w.r.t. every watched leaf of a tape.

    Indexed by leaf tensor (or raw node id); leaves the output does not
    reach hold zeros of the leaf's shape.
    """

    def __init__(self, grads: dict[int, Tensor]):
        self._grads = grads

    def __getitem__(self, key: "Tensor | int") -> Tensor:
        nid = key.node if isinstance(key, Tensor) else key
        if nid not in self._grads:
            raise KeyError(f"node {nid} is not a watched leaf")
        return self._grads[nid]


def _tape_of(*operands: Tensor) -> "Tape | None":
    tape = None
    for t in operands:
        tp = t.tape
        if tp is not None:
            if tape is None:
                tape = tp
            elif tape is not tp:
                raise ValueError("operands belong to different tapes")
    return tape


# ---------------------------------------------------------------------------
# Primitives.  Each validates shapes, computes the forward value, and (when a
# tape is involved) records a backward closure returning one gradient array
# per input, aligned positionally; None marks inputs that need no gradient.
# ---------------------------------------------------------------------------


# The two product kernels.  A vector is one matrix-vector product; a row
# block is one GEMM, whose summation order depends on the block's size, so
# a row's last bits may change with the rows beside it.
def _mv(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """W x for a vector x, or W x_r for each row x_r of a block."""
    return w @ x if x.ndim == 1 else x @ w.T


def _vm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x W for a vector x, or x_r W for each row x_r of a block."""
    return x @ w


def _weight_grad(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of W in ``x @ W.T`` with output gradient g, summed over rows."""
    # multiply.outer: np.outer's products without its Python wrapper.
    return np.multiply.outer(g, x) if g.ndim == 1 else g.T @ x


def matvec(w: Tensor, x: Tensor) -> Tensor:
    """W x for a vector x, or W x_r for each row x_r of a matrix x as one
    GEMM (see :func:`_mv`)."""
    wv, xv = w.array, x.array
    if wv.ndim != 2 or xv.ndim not in (1, 2):
        raise ShapeError(f"matvec expects a matrix and a vector or row block, got shapes {wv.shape} and {xv.shape}")
    if wv.shape[1] != xv.shape[-1]:
        raise ShapeError(f"matvec extents differ: {wv.shape} x {xv.shape}")
    tape = _tape_of(w, x)
    out = _mv(wv, xv)
    if tape is None:
        return _wrap(out)
    nw, nx = w.node, x.node

    def backward(g):
        return (
            _weight_grad(g, xv) if nw is not None else None,
            g @ wv if nx is not None else None,
        )

    return tape._record("matvec", (nw, nx), out, backward)


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b for equal shapes."""
    av, bv = a.array, b.array
    if av.shape != bv.shape:
        raise ShapeError(f"add expects equal shapes, got {av.shape} and {bv.shape}")
    tape = _tape_of(a, b)
    out = av + bv
    if tape is None:
        return _wrap(out)
    na, nb = a.node, b.node

    def backward(g):
        return (g if na is not None else None, g if nb is not None else None)

    return tape._record("add", (na, nb), out, backward)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    tape = _tape_of(a)
    out = a.array * c
    if tape is None:
        return _wrap(out)

    def backward(g):
        return (g * c,)

    return tape._record("scale", (a.node,), out, backward)


# Constant operands as 0-d arrays: a ufunc takes them with less overhead
# than Python floats, and the bits are the same.  For the same reason the
# hot reductions call np.add.reduce and np.maximum.reduce, which
# ndarray.sum and ndarray.max wrap in Python.
_ONE, _HALF = np.array(1.0), np.array(0.5)


def _sigmoid(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sigmoid(v), written into ``out`` when one is given."""
    # (1 + tanh(v / 2)) / 2 saturates to exactly 0 or 1 and, unlike
    # 1 / (1 + exp(-v)), never overflows.
    out = np.multiply(v, _HALF, out=np.empty(v.shape) if out is None else out)
    np.tanh(out, out=out)
    out *= _HALF
    out += _HALF
    return out


def tanh_affine(w: Tensor, b: Tensor, x: Tensor) -> Tensor:
    """tanh(W x + b) for a vector x, or for each row of a block, as one
    tape entry; a block's product is one GEMM (see :func:`_mv`)."""
    wv, bv, xv = w.array, b.array, x.array
    if wv.ndim != 2 or bv.shape != wv.shape[:1] or xv.ndim not in (1, 2) or xv.shape[-1] != wv.shape[1]:
        raise ShapeError(f"tanh_affine expects w, b and x of shapes (K, N), (K,) and (..., N), got {wv.shape}, {bv.shape} and {xv.shape}")
    tape = _tape_of(w, b, x)
    out = _mv(wv, xv) + bv
    np.tanh(out, out=out)
    if tape is None:
        return _wrap(out)
    n_w, n_b, n_x = w.node, b.node, x.node

    def backward(g):
        d = g * (_ONE - out * out)
        return (
            _weight_grad(d, xv) if n_w is not None else None,
            (d if d.ndim == 1 else np.add.reduce(d, axis=0)) if n_b is not None else None,
            d @ wv if n_x is not None else None,
        )

    return tape._record("tanh_affine", (n_w, n_b, n_x), out, backward)


def _lstm_hidden(name: str, w_x: np.ndarray, w_h: np.ndarray, b: np.ndarray, x: np.ndarray, x_ranks: tuple) -> int:
    """Checks an LSTM's weights against its input x; returns the hidden size."""
    if w_x.ndim != 2 or w_h.ndim != 2 or b.ndim != 1 or x.ndim not in x_ranks:
        x_kind = "a vector or row block" if 1 in x_ranks else "a row block"
        raise ShapeError(f"{name} expects matrices w_x, w_h, a vector b, and {x_kind} x, "
                         f"got shapes {w_x.shape}, {w_h.shape}, {b.shape}, {x.shape}")
    hidden = w_h.shape[1]
    if not w_x.shape[0] == w_h.shape[0] == b.shape[0] == 4 * hidden:
        raise ShapeError(f"{name} gate rows differ: w_x {w_x.shape}, w_h {w_h.shape}, b {b.shape}")
    if w_x.shape[1] != x.shape[-1]:
        raise ShapeError(f"{name} input extents differ: {w_x.shape} x {x.shape}")
    return hidden


def _lstm_gates(pre: np.ndarray, c_prev: np.ndarray, act: np.ndarray, h: np.ndarray, c: np.ndarray) -> None:
    """The LSTM cell on pre-activations ``pre``, in place: gate activations
    (input, forget, candidate, output) into ``act``, new states into h and c."""
    h1, h2, h3 = c.shape[-1], 2 * c.shape[-1], 3 * c.shape[-1]
    _sigmoid(pre, out=act)
    np.tanh(pre[..., h2:h3], out=act[..., h2:h3])
    np.multiply(act[..., h1:h2], c_prev, out=c)
    c += act[..., :h1] * act[..., h2:h3]
    np.multiply(act[..., h3:], np.tanh(c), out=h)


def _lstm_factors(act: np.ndarray, c_prev: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(factor, dc_dh) of an LSTM cell: d pre = factor * [d c, d c, d c, d h],
    slab by slab, with d c = d h * dc_dh + c's own gradient.

    Slab by slab, factor is (left * gate) * (1 - right), with left =
    [cand, c_prev, gate_i, tanh c], gate = [gate_i, gate_f, 1, gate_o] and
    right = [gate_i, gate_f, cand^2, gate_o]: each slab's own formula with
    its products in the same order (gate_i * 1 is exact), in a few
    whole-array calls instead of three per slab.  ``factor`` is a new
    array of act's shape, and a backward scales it in place into d pre."""
    hidden = c.shape[-1]
    cand = act[..., 2 * hidden : 3 * hidden]
    tanh_c = np.tanh(c)
    factor = np.concatenate((cand, c_prev, act[..., :hidden], tanh_c), axis=-1)  # left
    gate = act.copy()
    gate[..., 2 * hidden : 3 * hidden] = _ONE
    factor *= gate
    right = act.copy()
    right[..., 2 * hidden : 3 * hidden] *= cand
    factor *= np.subtract(_ONE, right, out=right)
    return factor, act[..., 3 * hidden :] * (_ONE - tanh_c * tanh_c)


def lstm_cell(w_x: Tensor, w_h: Tensor, b: Tensor, x: Tensor, h_prev: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
    """One fused LSTM cell application; returns the new states (h, c).

    Weight rows are four hidden-size slabs: input, forget, candidate and
    output gates.  With pre = W_x x + W_h h_prev + b,

        c = sigmoid(pre_f) * c_prev + sigmoid(pre_i) * tanh(pre_g)
        h = sigmoid(pre_o) * tanh(c)

    x, h_prev and c_prev are vectors, or row blocks with one row per
    independent cell state; h and c have the same rows.  The whole cell is
    one tape entry whose backward is closed-form for all six inputs.
    """
    wxv, whv, bv = w_x.array, w_h.array, b.array
    xv, hv, cv = x.array, h_prev.array, c_prev.array
    hidden = _lstm_hidden("lstm_cell", wxv, whv, bv, xv, (1, 2))
    state_shape = xv.shape[:-1] + (hidden,)
    if hv.shape != state_shape or cv.shape != state_shape:
        raise ShapeError(f"lstm_cell states must have shape {state_shape}, got {hv.shape} and {cv.shape}")
    tape = _tape_of(w_x, w_h, b, x, h_prev, c_prev)
    pre = _mv(wxv, xv) + _mv(whv, hv) + bv
    act = np.empty_like(pre)
    out = np.empty(state_shape[:-1] + (2 * hidden,))  # h and c are its halves
    h, c = out[..., :hidden], out[..., hidden:]
    _lstm_gates(pre, cv, act, h, c)
    if tape is None:
        return _wrap(h), _wrap(c)
    nodes = (w_x.node, w_h.node, b.node, x.node, h_prev.node, c_prev.node)

    def backward(g_h, g_c):
        if g_h is None:  # an unread output's gradient is zero
            g_h = np.zeros(state_shape)
        if g_c is None:
            g_c = np.zeros(state_shape)
        d_pre, dc_dh = _lstm_factors(act, cv, c)
        d_c = g_c + g_h * dc_dh
        d_pre *= np.concatenate((d_c, d_c, d_c, g_h), axis=-1)
        n_wx, n_wh, n_b, n_x, n_h, n_c = nodes
        return (
            _weight_grad(d_pre, xv) if n_wx is not None else None,
            _weight_grad(d_pre, hv) if n_wh is not None else None,
            (d_pre if d_pre.ndim == 1 else np.add.reduce(d_pre, axis=0)) if n_b is not None else None,
            d_pre @ wxv if n_x is not None else None,
            d_pre @ whv if n_h is not None else None,
            d_c * act[..., hidden : 2 * hidden] if n_c is not None else None,
        )

    return tape._record("lstm_cell", nodes, (h, c), backward)


def _layer_plan(rows: int, lengths: Sequence[int] | None) -> tuple:
    """Step-major orders of both LSTM directions over a block of sequences.

    Sequences are taken longest first (ties in block order), so the ones
    still running at step t are a prefix of those that ran at step t - 1.
    Step-major row k is the k-th (step, sequence) pair; both directions
    share that layout and differ only in which input row a pair reads.
    Returns ``orders``, the forward and backward indexes (slices for one
    sequence) that take the input rows to step-major order; ``steps``,
    one (first row, rows, previous-state row) per step, where the previous
    states sit in a buffer whose first rows hold the zero start states and
    whose row ``sequences + k`` holds step-major row k's state; and
    ``prev``, each step-major row's previous-state row in that buffer
    (None when it is row k).
    """
    if lengths is None:
        lengths = (rows,)
    if len(lengths) == 1:
        if rows < 1:
            raise ValueError("cannot run an LSTM over an empty sequence")
        if lengths[0] != rows:
            raise ShapeError(f"sequence length {lengths[0]} differs from the {rows} input rows")
        return (slice(None), slice(None, None, -1)), [(t, 1, t) for t in range(rows)], None
    lens = np.array(lengths, dtype=np.intp)
    if lens.ndim != 1 or lens.size == 0 or lens.min() < 1:
        raise ValueError("cannot run an LSTM over an empty sequence")
    if lens.sum() != rows:
        raise ShapeError(f"sequence lengths sum to {lens.sum()}, but there are {rows} input rows")
    n = lens.size
    by_len = np.argsort(-lens, kind="stable")
    lens_s = lens[by_len]
    starts_s = (np.cumsum(lens) - lens)[by_len]
    t = np.arange(lens_s[0])[:, None]
    running = t < lens_s                                  # steps x sequences, prefixes
    counts = running.sum(axis=1)
    first = np.cumsum(counts) - counts
    orders = ((starts_s + t)[running], (starts_s + lens_s - 1 - t)[running])
    prev_first = np.concatenate(([0], n + first[:-1]))
    prev = (prev_first[:, None] + np.arange(n))[running]
    steps = list(zip(first.tolist(), counts.tolist(), prev_first.tolist()))
    return orders, steps, (None if (lens == lens[0]).all() else prev)


def bilstm_layer(fwd: Sequence[Tensor], bwd: Sequence[Tensor], x: Tensor,
                 lengths: Sequence[int] | None = None) -> Tensor:
    """One bidirectional LSTM layer from zero states over whole sequences.

    ``fwd`` and ``bwd`` are each a (w_x, w_h, b) triple with the same
    hidden size H.  ``x`` holds one sequence's input vectors as its rows,
    or, with ``lengths``, a block of sequences laid one after another.
    The forward direction reads each sequence first row to last, the
    backward one last to first.  Row i of the result is [h_fwd; h_bwd] at
    input row i, so the result has x's rows and 2H columns.  The cell is
    :func:`lstm_cell`'s.

    Each direction's W_x x + b is one matrix product over all its rows;
    only W_h h steps through time, and each step runs both directions'
    cells as one block.  The buffers are step-major, (rows, 2, 4H) and the
    like, so a step's rows of both directions are one contiguous block.
    One sequence steps W_h h on vectors, one matrix-vector product per
    step and direction.  A block of two or more steps it as one GEMM over
    the sequences still running, so its rows match each sequence run alone
    only to rounding.  The whole
    layer is one tape entry over its seven operands: its backward runs
    back-propagation through time for both directions in closed form and
    ends with one matrix product per weight gradient.
    """
    weights = [[t.array for t in fwd], [t.array for t in bwd]]
    xv = x.array
    hidden = _lstm_hidden("bilstm_layer", *weights[0], xv, (2,))
    if _lstm_hidden("bilstm_layer", *weights[1], xv, (2,)) != hidden:
        raise ShapeError(f"bilstm_layer directions' hidden sizes differ: "
                         f"w_h {weights[0][1].shape} and {weights[1][1].shape}")
    rows = xv.shape[0]
    orders, steps, prev = _layer_plan(rows, lengths)
    tape = _tape_of(*fwd, *bwd, x)
    n_seq = steps[0][1]
    vector = n_seq == 1
    xs = [np.ascontiguousarray(xv[order]) for order in orders]
    unorders = [o if isinstance(o, slice) else np.argsort(o) for o in orders]  # a reversal undoes itself
    # Step-major buffers whose second axis is the direction: act holds the
    # gate activations; hs and cs the zero start states, then each
    # step-major row's h and c.
    pre = np.empty((rows, 2, 4 * hidden))
    for d, (w_x, _, b) in enumerate(weights):
        pre[:, d] = xs[d] @ w_x.T
        pre[:, d] += b
    act = np.empty_like(pre)
    hs = np.zeros((n_seq + rows, 2, hidden))
    cs = np.zeros((n_seq + rows, 2, hidden))

    def span(start: int, count: int):
        # One sequence steps one row at a time: an int index, so that each
        # step works on one vector per direction.
        return start if vector else slice(start, start + count)

    for first, count, p in steps:
        z = pre[span(first, count)]
        for d, (_, w_h, _) in enumerate(weights):
            z[..., d, :] += _mv(w_h, hs[span(p, count)][..., d, :])
        at = span(n_seq + first, count)
        _lstm_gates(z, cs[span(p, count)], act[span(first, count)], hs[at], cs[at])
    out = np.concatenate([hs[n_seq:, d][unorder] for d, unorder in enumerate(unorders)], axis=1)
    if tape is None:
        return _wrap(out)
    nodes = tuple(t.node for t in (*fwd, *bwd, x))

    def backward(g):
        # g_h gains each later step's recurrent gradient in place, so it
        # must be a copy: g may be shared.
        g_h = np.stack([g[order, d * hidden : (d + 1) * hidden] for d, order in enumerate(orders)], axis=1)
        h_prev, c_prev = (hs[:rows], cs[:rows]) if prev is None else (hs[prev], cs[prev])
        d_pre, dc_dh = _lstm_factors(act, c_prev, cs[n_seq:])
        slabs = d_pre.reshape(rows, 2, 4, hidden)  # a view: d_pre is built step by step
        g_c = np.zeros((rows, 2, hidden))
        for first, count, p in reversed(steps):
            at = span(first, count)
            d_h, d_c = g_h[at], g_c[at]
            d_c += d_h * dc_dh[at]
            slab = slabs[at]
            slab[..., :3, :] *= d_c[..., None, :]
            slab[..., 3, :] *= d_h
            if p >= n_seq:  # the previous state is a step's, not the zero start
                back = span(p - n_seq, count)
                g_back, d_at = g_h[back], d_pre[at]
                for d, (_, w_h, _) in enumerate(weights):
                    g_back[..., d, :] += d_at[..., d, :] @ w_h
                np.multiply(d_c, act[at][..., hidden : 2 * hidden], out=g_c[back])
        grads = []
        for d in (0, 1):
            n_wx, n_wh, n_b = nodes[3 * d : 3 * d + 3]
            grads += [
                _weight_grad(d_pre[:, d], xs[d]) if n_wx is not None else None,
                _weight_grad(d_pre[:, d], h_prev[:, d]) if n_wh is not None else None,
                np.add.reduce(d_pre[:, d], axis=0) if n_b is not None else None,
            ]
        # Backward direction's term plus forward's: the sum backprop formed
        # when each direction was its own tape entry.
        g_x = None
        if nodes[6] is not None:
            g_x = (d_pre[:, 1] @ weights[1][0])[unorders[1]] + (d_pre[:, 0] @ weights[0][0])[unorders[0]]
        return (*grads, g_x)

    return tape._record("bilstm_layer", nodes, out, backward)


def attention(s: Tensor, states: Tensor, w_a: Tensor, mask: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Bilinear attention: q = s W_a, weights = softmax(states q) and the
    context weights · states, for a query vector or each row of a block.
    Returns (context, weights): one tape entry, and a tape-free value.

    ``mask``, a constant boolean array of the scores' shape, keeps the
    states where it is True; the others get weight exactly 0 and no
    gradient, and every row must keep one.  Rows that attend over one
    joined set of encoder states each keep only their own example's that
    way (``training.gold_log_probs``); beam decoding passes no mask.
    """
    sv, stv, wv = s.array, states.array, w_a.array
    if sv.ndim not in (1, 2) or stv.ndim != 2 or wv.shape != (sv.shape[-1], stv.shape[1]):
        raise ShapeError(f"attention expects a query, states and w_a of shapes (..., H), (T, D) and (H, D), "
                         f"got {sv.shape}, {stv.shape} and {wv.shape}")
    if stv.shape[0] == 0:
        raise ValueError("attention needs at least one encoder state")
    q = _vm(sv, wv)
    scores = _mv(stv, q)
    if mask is not None:
        if mask.shape != scores.shape:
            raise ShapeError(f"attention mask has shape {mask.shape}, expected {scores.shape}")
        if not mask.any(axis=-1).all():
            raise ValueError("attention mask leaves a row with no states")
        scores = np.where(mask, scores, -np.inf)
    e = np.exp(scores - np.maximum.reduce(scores, axis=-1, keepdims=True))
    weights = e / np.add.reduce(e, axis=-1, keepdims=True)
    context = _vm(weights, stv)
    tape = _tape_of(s, states, w_a)
    if tape is None:
        return _wrap(context), _wrap(weights)
    n_st, n_s, n_w = states.node, s.node, w_a.node

    def backward(g):
        g_weights = g @ stv.T
        g_scores = weights * (g_weights - np.add.reduce(g_weights * weights, axis=-1, keepdims=True))
        g_q = g_scores @ stv if n_s is not None or n_w is not None else None
        return (
            _weight_grad(weights, g) if n_st is not None else None,
            _weight_grad(g_scores, q) if n_st is not None else None,
            g_q @ wv.T if n_s is not None else None,
            _weight_grad(sv, g_q) if n_w is not None else None,
        )

    return tape._record("attention", (n_st, n_st, n_s, n_w), context, backward), _wrap(weights)


def gated_memory(w_u: Tensor, w_o: Tensor, s_t: Tensor, s_prev: Tensor, e_prev: Tensor, c_blog: Tensor,
                 m_prev: Tensor) -> tuple[Tensor, Tensor]:
    """The user memory's decay and gated read, for vectors or each row of a
    block, as one tape entry with the two outputs (M_t, M_t^o):

        M_t   = sigmoid(W_u s_t) * M_{t-1}
        M_t^o = sigmoid(W_o [s_prev; e_prev; c_blog]) * M_t

    The gates lie in [0, 1], so no coordinate of |M_t| grows.  The backward
    runs the read gate, the join, then the update gate, so the operands are
    listed as (w_o, s_prev, e_prev, c_blog, m_prev, w_u, s_t)."""
    wuv, wov, sv, mv = w_u.array, w_o.array, s_t.array, m_prev.array
    try:
        z = np.concatenate([s_prev.array, e_prev.array, c_blog.array], axis=-1)
    except ValueError:  # the parts' ranks or row counts differ
        z = None
    if (z is None or sv.ndim not in (1, 2) or wuv.ndim != 2 or wov.ndim != 2 or wuv.shape != (wov.shape[0], sv.shape[-1])
            or mv.shape != sv.shape[:-1] + wuv.shape[:1] or z.shape != sv.shape[:-1] + wov.shape[1:]):
        raise ShapeError(f"gated_memory operand shapes do not fit, in order: {[t.shape for t in (w_u, w_o, s_t, s_prev, e_prev, c_blog, m_prev)]}")
    tape = _tape_of(w_u, w_o, s_t, s_prev, e_prev, c_blog, m_prev)
    # Both gates' pre-activations side by side, so one sigmoid runs them.
    gates = np.concatenate((_mv(wuv, sv), _mv(wov, z)), axis=-1)
    _sigmoid(gates, out=gates)
    act_u, act_o = gates[..., : wuv.shape[0]], gates[..., wuv.shape[0] :]
    m_t = act_u * mv
    m_out = act_o * m_t
    if tape is None:
        return _wrap(m_t), _wrap(m_out)
    n_wo, n_m, n_wu, n_s = w_o.node, m_prev.node, w_u.node, s_t.node
    e_at, c_at = s_prev.shape[-1], s_prev.shape[-1] + e_prev.shape[-1]

    def backward(g_t, g_out):
        read = [None] * 4  # w_o, s_prev, e_prev, c_blog
        if g_out is not None:
            # M_t's gradient: its other readers' sum, then the read's term.
            g_read = g_out * act_o
            g_t = g_read if g_t is None else g_t + g_read
            d_o = g_out * m_t * act_o * (_ONE - act_o)
            g_z = d_o @ wov
            read = [_weight_grad(d_o, z) if n_wo is not None else None, g_z[..., :e_at], g_z[..., e_at:c_at], g_z[..., c_at:]]
        d_u = g_t * mv * act_u * (_ONE - act_u) if n_wu is not None or n_s is not None else None
        return (
            *read,
            g_t * act_u if n_m is not None else None,
            _weight_grad(d_u, sv) if n_wu is not None else None,
            d_u @ wuv if n_s is not None else None,
        )

    nodes = (n_wo, s_prev.node, e_prev.node, c_blog.node, n_m, n_wu, n_s)  # the order of the chain rule
    return tape._record("gated_memory", nodes, (m_t, m_out), backward)


def _log_softmax(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Log-softmax of each row of v, written into ``out`` (which may be v) if given."""
    out = np.subtract(v, np.maximum.reduce(v, axis=-1, keepdims=True), out=out)
    out -= np.log(np.add.reduce(np.exp(out), axis=-1, keepdims=True))
    return out


def concat(parts: Sequence[Tensor]) -> Tensor:
    """Join vectors, or row blocks with equal rows, along the last axis."""
    if len(parts) == 0:
        raise ValueError("concat needs at least one part")
    arrays = [p.array for p in parts]
    try:
        out = np.concatenate(arrays, axis=-1)
    except ValueError as err:  # the parts' ranks or row counts differ
        raise ShapeError(f"concat expects vectors or row blocks with equal rows: {err}") from None
    if out.ndim > 2:
        raise ShapeError(f"concat expects vectors or row blocks, got shape {out.shape}")
    tape = _tape_of(*parts)
    if tape is None:
        return _wrap(out)
    nodes = tuple(p.node for p in parts)
    sizes = [a.shape[-1] for a in arrays]

    def backward(g):
        grads = []
        off = 0
        for n, size in zip(nodes, sizes):
            grads.append(g[..., off : off + size] if n is not None else None)
            off += size
        return tuple(grads)

    return tape._record("concat", nodes, out, backward)


def stack_rows(parts: Sequence[Tensor]) -> Tensor:
    """Vectors as the rows of a matrix, or row blocks one under another."""
    if len(parts) == 0:
        raise ValueError("stack_rows needs at least one row")
    arrays = [p.array for p in parts]
    first = arrays[0]
    for a in arrays:
        if a.ndim not in (1, 2) or a.ndim != first.ndim or a.shape[-1] != first.shape[-1]:
            raise ShapeError("stack_rows expects equal-length vectors or row blocks of equal width")
    tape = _tape_of(*parts)
    vectors = first.ndim == 1
    out = np.array(arrays) if vectors else np.concatenate(arrays)
    if tape is None:
        return _wrap(out)
    nodes = tuple(p.node for p in parts)
    # Each part's rows in the output: a vector part is one row.
    if vectors:
        rows = range(len(arrays))
    else:
        rows = [slice(s - len(a), s) for a, s in zip(arrays, accumulate(len(a) for a in arrays))]

    def backward(g):
        return [None if n is None else g[at] for n, at in zip(nodes, rows)]

    return tape._record("stack_rows", nodes, out, backward)


def vslice(x: Tensor, start: int, stop: int) -> Tensor:
    """Elements [start:stop] of a vector, or of each row of a matrix."""
    v = x.array
    if v.ndim not in (1, 2):
        raise ShapeError(f"vslice expects a vector or row block, got shape {v.shape}")
    if not (0 <= start <= stop <= v.shape[-1]):
        raise IndexError(f"slice [{start}:{stop}] out of range for length {v.shape[-1]}")
    tape = _tape_of(x)
    out = v[..., start:stop]
    if tape is None:
        return _wrap(out)

    def backward(g):
        full = np.zeros(v.shape, dtype=v.dtype)
        full[..., start:stop] = g
        return (full,)

    return tape._record("vslice", (x.node,), out, backward)


def _indices(index, extent: int, what: str):
    """An int, or a vector of ints as an index array; range-checked."""
    if isinstance(index, (int, np.integer)):
        in_range = 0 <= index < extent
    else:
        index = np.asarray(index)
        if index.ndim != 1 or index.dtype.kind not in "iu":
            raise ShapeError(f"{what} index must be an int or a vector of ints, got {index.dtype} of shape {index.shape}")
        # Only negatives need a check here: numpy's own indexing rejects
        # indices past the extent with an IndexError.
        in_range = index.size == 0 or index.min() >= 0
    if not in_range:
        raise IndexError(f"{what} {index} out of range for extent {extent}")
    return index


def embedding_lookup(table: Tensor, index) -> Tensor:
    """Row ``index`` of a matrix (a copy), or one row per id of an id vector."""
    tv = table.array
    if tv.ndim != 2:
        raise ShapeError(f"embedding_lookup expects a matrix table, got shape {tv.shape}")
    idx = _indices(index, tv.shape[0], "row")
    tape = _tape_of(table)
    many = isinstance(idx, np.ndarray)
    out = tv.take(idx, axis=0) if many else tv[idx].copy()  # an int index gives a view
    if tape is None:
        return _wrap(out)

    def backward(g):
        return (_RowGrad(idx, g, tv.shape),)

    return tape._record("embedding_lookup", (table.node,), out, backward)


def log_softmax_at(x: Tensor, index) -> Tensor:
    """Log-softmax of a vector read at the int ``index``, or of each row r
    of a matrix read at ``index[r]``: a gold token's log-probability.

    One tape entry, which keeps the log-softmax.  Its backward writes
    g * (one-hot - softmax) into one array, with the bits of the
    one-hot's gradient run back through a separate log-softmax:
    full - exp(lsm) * sum(full) for the one-hot ``full``."""
    v = x.array
    if v.ndim not in (1, 2):
        raise ShapeError(f"log_softmax_at expects a vector or row block, got shape {v.shape}")
    if v.shape[-1] == 0:
        raise ValueError("log_softmax of an empty vector is undefined")
    idx = _indices(index, v.shape[-1], "element")
    if v.ndim == 1 and not isinstance(idx, np.ndarray):
        at = idx
    elif v.ndim == 2 and isinstance(idx, np.ndarray) and idx.shape[0] == v.shape[0]:
        at = (np.arange(v.shape[0]), idx)
    else:
        raise ShapeError(f"log_softmax_at needs an int for a vector or one index per row for a matrix, got shape {v.shape}")
    tape = _tape_of(x)
    lsm = _log_softmax(v)
    out = np.asarray(lsm[at])
    if tape is None:
        return _wrap(out)
    extent = v.shape[-1]  # the backward keeps lsm, not the logits

    def backward(g):
        # The one-hot's row sum as a reduce over it makes it: g, except
        # that -0.0 plus the other entries' +0.0 is +0.0.  A one-entry
        # row goes through the reduce, whose sign rule numpy sets.
        total = g + 0.0 if extent > 1 else np.add.reduce(g[..., None], axis=-1)
        d = np.exp(lsm)
        d *= total[..., None]
        d_at = d[at]  # a copy
        np.subtract(0.0, d, out=d)
        d[at] = g - d_at
        return (d,)

    return tape._record("log_softmax_at", (x.node,), out, backward)


def sum_all(x: Tensor) -> Tensor:
    v = x.array
    tape = _tape_of(x)
    out = np.asarray(v.sum())
    if tape is None:
        return _wrap(out)

    def backward(g):
        return (g * np.ones_like(v),)

    return tape._record("sum_all", (x.node,), out, backward)


class _RowGrad:
    """The gradient of a row read: ``rows`` added at rows ``index`` of a
    zero array of ``shape``.

    :func:`backprop` adds it into the source's gradient in place, so a
    read costs its own rows, not the whole source: stepping through a
    sequence row by row stays linear in its length, and a token lookup
    does not allocate the embedding table.
    """

    __slots__ = ("index", "rows", "shape")

    def __init__(self, index, rows: np.ndarray, shape: tuple[int, ...]):
        self.index, self.rows, self.shape = index, rows, shape

    def add_to(self, acc: np.ndarray) -> None:
        if isinstance(self.index, np.ndarray):
            np.add.at(acc, self.index, self.rows)  # repeated ids accumulate
        else:
            row = acc[self.index]  # a view: the sum lands in acc
            row += self.rows


def backprop(tape: Tape, output: Tensor) -> GradientSet:
    """Reverse sweep from a scalar output to every watched leaf.

    The sweep keeps one gradient array per node.  It adds row and dense
    gradients into the arrays it owns in place, and frees a node's
    gradient once its producer has run, so only the leaves' gradients
    outlive the sweep.  Each gradient sees the same additions in the same
    order as if every sum allocated a new array, so the result is the
    same to the bit.  An entry none of whose outputs was read is skipped:
    its backward never runs.  A one-output entry, all but the two
    two-output ops, takes its one gradient with a single dict pop.
    """
    if output.tape is not tape or output.node is None:
        raise ValueError("output is not a node of this tape")
    if output.array.size != 1:
        raise ValueError(f"backprop requires a scalar output, got shape {output.shape}")
    acc: dict[int, np.ndarray] = {output.node: np.ones_like(output.array)}
    pop, get = acc.pop, acc.get
    # Nodes whose gradient array the sweep allocated itself.  Only those
    # take gradients in place: a backward may hand on the very array it
    # received (add hands its g to both inputs), so any other array can
    # be shared.  An entry's outputs are read by no entry the sweep has
    # still to run, so their ids may stay in the set.
    owned: set[int] = set()
    for _name, in_nodes, out_nodes, backward in reversed(tape._entries):
        # Every consumer of the entry's outputs ran earlier in the sweep, so
        # their gradients are complete: take them out, and drop them once used.
        if len(out_nodes) == 1:
            g = pop(out_nodes[0], None)
            if g is None:  # nothing read the output
                continue
            in_grads = backward(g)
        elif acc.keys().isdisjoint(out_nodes):  # nothing read any output
            continue
        else:
            in_grads = backward(*[pop(nid, None) for nid in out_nodes])
        for nid, ig in zip(in_nodes, in_grads):
            if nid is None or ig is None:
                continue
            prev = get(nid)
            if type(ig) is _RowGrad:
                if nid not in owned:
                    prev = acc[nid] = np.zeros(ig.shape) if prev is None else prev.copy()
                    owned.add(nid)
                ig.add_to(prev)
            elif prev is None:
                acc[nid] = ig
            elif nid in owned:
                prev += ig
            else:
                # asarray: a sum of 0-d arrays is a numpy scalar, which
                # would not take the next sum in place.
                acc[nid] = np.asarray(prev + ig)
                owned.add(nid)
    leaf_grads: dict[int, Tensor] = {}
    for nid, shape in tape._leaf_shapes.items():
        g = acc.get(nid)
        if g is None:
            leaf_grads[nid] = zeros(shape)
        else:
            leaf_grads[nid] = _wrap(np.ascontiguousarray(g).reshape(shape))
    return GradientSet(leaf_grads)


def finite_difference_check(f: Callable[[Tensor], Tensor], theta: Tensor, eps: float = 1e-5) -> float:
    """Max relative gap between backprop and central finite differences.

    ``f`` must map a tensor to a scalar tensor using only primitives from
    this module.  It runs once under a tape for the analytic gradient and
    2n more times tape-free.  Relative error per coordinate is
    |a - n| / max(|a|, |n|, 1e-8).
    """
    tape = Tape()
    watched = tape.watch(theta)
    out = f(watched)
    if out.array.size != 1:
        raise ShapeError("finite_difference_check needs a scalar-valued function")
    analytic = backprop(tape, out)[watched].array.reshape(-1)

    probe = theta.array.copy()
    flat = probe.reshape(-1)
    base = flat.copy()
    numeric = np.empty(flat.size, dtype=np.float64)
    for i in range(flat.size):
        flat[i] = base[i] + eps
        up = float(f(_wrap(probe)).array)
        flat[i] = base[i] - eps
        down = float(f(_wrap(probe)).array)
        flat[i] = base[i]
        numeric[i] = (up - down) / (2.0 * eps)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0
