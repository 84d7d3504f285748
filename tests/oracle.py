"""Independent numpy reference implementations used to pin expected values.

Everything here is written gate-by-gate with plain numpy and explicit
loops, on purpose: it must not share code paths with the package's tensor
primitives, so agreement between the two is evidence of correctness rather
than tautology.  Parameter arrays are read through the public name table.

Two exceptions keep a superseded form of package code as the reference
for its replacement.  :func:`per_example_walk` is the teacher-forced walk
the package used before it scored blocks of examples, kept on the tensor
primitives so that its gradients can be compared with the block walk's.
:func:`reference_backprop` is the reverse sweep from before it added
gradients in place and freed them early, which must agree with
``autodiff.backprop`` to the bit.
"""

from __future__ import annotations

import numpy as np

from pcgn import autodiff as ad
from pcgn import model as M


def sig(v):
    return 1.0 / (1.0 + np.exp(-v))


def lstm_run(arrs, prefix, xs, hidden):
    """Forward-direction LSTM over xs; returns the list of hidden states."""
    w_x, w_h, b = arrs[f"{prefix}.w_x"], arrs[f"{prefix}.w_h"], arrs[f"{prefix}.b"]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    states = []
    for x in xs:
        pre = w_x @ x + w_h @ h + b
        gate_i = sig(pre[:hidden])
        gate_f = sig(pre[hidden : 2 * hidden])
        cand = np.tanh(pre[2 * hidden : 3 * hidden])
        gate_o = sig(pre[3 * hidden :])
        c = gate_f * c + gate_i * cand
        h = gate_o * np.tanh(c)
        states.append(h)
    return states


def bilstm_run(arrs, base, n_layers, hidden, xs):
    seq = list(xs)
    for layer in range(n_layers):
        fwd = lstm_run(arrs, f"{base}.l{layer}.fwd", seq, hidden)
        bwd = lstm_run(arrs, f"{base}.l{layer}.bwd", list(reversed(seq)), hidden)
        bwd = list(reversed(bwd))
        seq = [np.concatenate([f, b]) for f, b in zip(fwd, bwd)]
    return seq


def attend(s_prev, states, w_a):
    scores = np.array([float(s_prev @ (w_a @ h)) for h in states])
    e = np.exp(scores - scores.max())
    alpha = e / e.sum()
    ctx = np.zeros_like(states[0])
    for a, h in zip(alpha, states):
        ctx = ctx + a * h
    return ctx, alpha


def log_softmax(v):
    m = v.max()
    return v - m - np.log(np.exp(v - m).sum())


def reference_step_scores(params, example):
    """Per-target-position gold log-probabilities for any variant."""
    cfg = params.config
    variant = cfg.variant
    arrs = {name: t.array for name, t in params.named_parameters()}
    emb = arrs["embedding"]
    hidden = cfg.blog_hidden

    blog = bilstm_run(arrs, "blog_enc", cfg.blog_layers, hidden, [emb[i] for i in example.x])
    desc = None
    if variant.use_coattention:
        desc = bilstm_run(arrs, "desc_enc", cfg.desc_layers, cfg.desc_hidden, [emb[i] for i in example.d])
    v_u = None
    if variant.needs_user_vector:
        v_u = np.tanh(arrs["user_proj.w"] @ np.asarray(example.f, dtype=np.float64) + arrs["user_proj.b"])

    summary = np.concatenate([blog[-1][:hidden], blog[0][hidden:]])
    hs, cs = [], []
    for layer in range(cfg.decoder_layers):
        hs.append(np.tanh(arrs[f"init.l{layer}.h.w"] @ summary + arrs[f"init.l{layer}.h.b"]))
        cs.append(np.tanh(arrs[f"init.l{layer}.c.w"] @ summary + arrs[f"init.l{layer}.c.b"]))
    memory = v_u.copy() if variant.use_gated_memory else None

    scores = []
    for t in range(1, len(example.y)):
        s_prev = hs[-1]
        c_x, _ = attend(s_prev, blog, arrs["attn_blog"])
        c_d = attend(s_prev, desc, arrs["attn_desc"])[0] if variant.use_coattention else None
        e_prev = emb[example.y[t - 1]]

        m_read = None
        if variant.use_gated_memory:
            g_u = sig(arrs["mem_update"] @ s_prev)
            memory = g_u * memory
            g_o = sig(arrs["mem_output"] @ np.concatenate([s_prev, e_prev, c_x]))
            m_read = g_o * memory

        parts = [c_x]
        if variant.use_coattention:
            parts.append(c_d)
        parts.append(e_prev)
        if variant.use_user_embedding:
            parts.append(v_u)
        if variant.use_gated_memory:
            parts.append(m_read)
        x = np.concatenate(parts)

        for layer in range(cfg.decoder_layers):
            pre = arrs[f"dec.l{layer}.w_x"] @ x + arrs[f"dec.l{layer}.w_h"] @ hs[layer] + arrs[f"dec.l{layer}.b"]
            gate_i = sig(pre[:hidden])
            gate_f = sig(pre[hidden : 2 * hidden])
            cand = np.tanh(pre[2 * hidden : 3 * hidden])
            gate_o = sig(pre[3 * hidden :])
            cs[layer] = gate_f * cs[layer] + gate_i * cand
            hs[layer] = gate_o * np.tanh(cs[layer])
            x = hs[layer]
        s_t = hs[-1]

        if variant.use_external:
            r_u = arrs["user_mix"] @ np.concatenate([v_u, c_d])
            logits = arrs["out_mix"] @ np.concatenate([s_t, r_u])
        else:
            logits = arrs["out_proj"] @ s_t
        scores.append(float(log_softmax(logits)[example.y[t]]))
    return np.array(scores)


def reference_loss(params, example) -> float:
    return float(-reference_step_scores(params, example).sum())


def _encode_one(params, fwd_cells, bwd_cells, ids):
    """One sequence through a stacked bidirectional encoder, one vector per
    step and one embedding lookup per token; returns the (T, 2H) states."""
    seq = [ad.embedding_lookup(params.embedding, i) for i in ids]
    for fwd, bwd in zip(fwd_cells, bwd_cells):
        h = c = ad.zeros(fwd.hidden)
        fstates = []
        for x in seq:
            h, c = M.lstm_step(fwd, x, h, c)
            fstates.append(h)
        h = c = ad.zeros(bwd.hidden)
        bstates = [None] * len(seq)
        for idx in range(len(seq) - 1, -1, -1):
            h, c = M.lstm_step(bwd, seq[idx], h, c)
            bstates[idx] = h
        seq = [ad.concat([f, b]) for f, b in zip(fstates, bstates)]
    return ad.stack_rows(seq)


def per_example_walk(params, example):
    """Teacher-forced walk of one example on vectors: one log-probability
    tensor per gold target.

    Step t consumes gold token y_{t-1} and is scored on y_t.  Run under a
    tape, it gives the reference gradients for ``training.gold_log_probs``.
    """
    v = params.config.variant
    blog = _encode_one(params, params.blog_fwd, params.blog_bwd, example.x)
    desc = _encode_one(params, params.desc_fwd, params.desc_bwd, example.d) if v.use_coattention else None
    v_u = M.user_vector(params, example.f) if v.needs_user_vector else None
    state = M.init_decoder_state(params, blog, v_u)
    terms = []
    for t in range(1, len(example.y)):
        result = M.decoder_step(params, state, example.y[t - 1], blog, desc, v_u)
        state = result.state
        terms.append(ad.pick(ad.log_softmax(result.logits), example.y[t]))
    return terms


def reference_backprop(tape, output):
    """The reverse sweep that allocates a new array for every sum and keeps
    every node's gradient until it ends.

    The same additions on the same operands in the same order as
    ``autodiff.backprop``, so its gradients must be equal to the bit.
    """
    if output.tape is not tape or output.node is None:
        raise ValueError("output is not a node of this tape")
    if output.array.size != 1:
        raise ValueError(f"backprop requires a scalar output, got shape {output.shape}")
    acc = {output.node: np.ones_like(output.array)}
    # Nodes whose gradient array the sweep allocated itself.  Only those
    # take row gradients in place: a backward may hand on the very array
    # it received, so any other array can be shared.
    owned = set()
    for _name, in_nodes, out_node, backward in reversed(tape._entries):
        g = acc.get(out_node)
        if g is None:
            continue
        for nid, ig in zip(in_nodes, backward(g)):
            if nid is None or ig is None:
                continue
            prev = acc.get(nid)
            if type(ig) is ad._RowGrad:
                if nid not in owned:
                    prev = acc[nid] = np.zeros(ig.shape) if prev is None else prev.copy()
                    owned.add(nid)
                ig.add_to(prev)
            elif prev is None:
                acc[nid] = ig
            else:
                acc[nid] = prev + ig
                owned.add(nid)
    leaf_grads = {}
    for nid, shape in tape._leaf_shapes.items():
        g = acc.get(nid)
        if g is None:
            leaf_grads[nid] = ad.zeros(shape)
        else:
            leaf_grads[nid] = ad._wrap(np.ascontiguousarray(g).reshape(shape))
    return ad.GradientSet(leaf_grads)


def enumerate_finished(step_fn, initial_state, bos_id, eos_id, vocab_size, max_len):
    """Every sequence that emits eos within max_len steps, with its score.

    Exhaustive depth-first walk of the step function; the search oracle for
    small vocabularies.
    """
    results = []

    def walk(state, prev, tokens, total, depth):
        if depth == max_len:
            return
        lp, new_state = step_fn(state, prev)
        for tok in range(vocab_size):
            score = float(lp[tok])
            if score == -np.inf:
                continue
            seq = tokens + (tok,)
            if tok == eos_id:
                results.append((seq, total + score))
            else:
                walk(new_state, tok, seq, total + score, depth + 1)

    walk(initial_state, bos_id, (), 0.0, 0)
    return results


def argmax_walk(step_fn, initial_state, bos_id, eos_id, max_len):
    """Greedy decoding: the most probable token at each step, the lowest id
    on ties (numpy argmax).

    Returns (tokens, summed log-probability, finished).  The reference a
    width-1 beam search must reproduce.
    """
    state = initial_state
    tokens = []
    total = 0.0
    prev = bos_id
    for _ in range(max_len):
        lp, state = step_fn(state, prev)
        tok = int(np.argmax(lp))
        tokens.append(tok)
        total += float(lp[tok])
        if tok == eos_id:
            return tuple(tokens), total, True
        prev = tok
    return tuple(tokens), total, False


def beam_reference(step_fn, initial_state, bos_id, eos_id, vocab_size, config, prune):
    """Beam search by a Python loop over every token and one full sort.

    The selection ``decoding.beam_search_steps`` must reproduce exactly:
    each step builds a candidate for every (live prefix, token) pair whose
    step log-prob is not -inf, sorts all of them by (score descending,
    tokens ascending) and keeps the first beam_size.  ``config`` supplies
    beam_size, max_len and length_norm.  Returns (tokens, log_prob,
    finished) triples in rank order.
    """
    norm = config.length_norm

    def score(tokens, log_prob):
        return log_prob if norm == 0.0 else log_prob / max(len(tokens), 1) ** norm

    beam = [((), 0.0, initial_state)]
    pool = []
    can_prune = prune and norm == 0.0

    for _ in range(config.max_len):
        candidates = []
        for tokens, log_prob, state in beam:
            prev = tokens[-1] if tokens else bos_id
            lp, new_state = step_fn(state, prev)
            for tok in range(vocab_size):
                tlp = float(lp[tok])
                if tlp == -np.inf:
                    continue
                total = log_prob + tlp
                candidates.append((total, tokens + (tok,), total, new_state))
        if not candidates:
            break
        if norm != 0.0:
            candidates = [
                (raw / max(len(toks), 1) ** norm, toks, raw, st)
                for (_, toks, raw, st) in candidates
            ]
        candidates.sort(key=lambda c: (-c[0], c[1]))
        next_beam = []
        for _, toks, raw, st in candidates[: config.beam_size]:
            if toks[-1] == eos_id:
                pool.append((toks, raw))
            else:
                next_beam.append((toks, raw, st))
        beam = next_beam
        if not beam:
            break
        if can_prune and len(pool) >= config.beam_size:
            worst_pooled = sorted(raw for _, raw in pool)[-config.beam_size]
            best_live = max(raw for _, raw, _ in beam)
            if best_live < worst_pooled:
                break

    def rank_key(item):
        return (-score(item[0], item[1]), item[0])

    ranked = [(toks, raw, True) for toks, raw in sorted(pool, key=rank_key)[: config.beam_size]]
    if len(ranked) < config.beam_size and beam:
        leftovers = sorted(((toks, raw) for toks, raw, _ in beam), key=rank_key)
        ranked.extend((toks, raw, False) for toks, raw in leftovers[: config.beam_size - len(ranked)])
    return ranked
