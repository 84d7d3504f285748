"""Acceptance gate: eight behavioral criteria, one PASS/FAIL line each.

Each criterion is a single test with pinned tolerances.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the verdict lines as they
are produced; without ``-s`` pytest shows them for failing tests only.

The whole module is self-contained: it builds its own tiny configurations
and relies on tests/oracle.py for independent reference computations.
"""

from __future__ import annotations

import json
import re
import time
from pathlib import Path

import numpy as np

import oracle
from conftest import ToyExample, random_params
from pcgn import autodiff as ad
from pcgn import cli
from pcgn import model as M
from pcgn import training as T
from pcgn import decoding as dec
from pcgn.checkpoint import load_checkpoint, save_checkpoint
from pcgn.data import build_vocab, encode_records, fit_schema, parse_dataset
from pcgn.decoding import DecodeConfig, DecodeInput, beam_search
from pcgn.metrics import EvalPair, bleu2, meteor_lite
from pcgn.synthetic import USER_TOKEN_INDEX, synthetic_records
from pcgn.training import OptimizerConfig, dataset_perplexity, fit, sequence_loss, token_log_probs


def verdict(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {label}: {detail}")
    assert ok, f"{label}: {detail}"


def desk_config(variant: str, vocab_size: int, feature_dim: int) -> M.ModelConfig:
    return M.ModelConfig.desk(
        vocab_size=vocab_size, feature_dim=feature_dim,
        variant=M.variant_from_name(variant),
    )


def encoded_corpus(records):
    vocab = build_vocab(records, 256)
    schema = fit_schema(records)
    return encode_records(records, vocab, schema), vocab, schema


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients match finite differences
# ---------------------------------------------------------------------------


def _scalar_sum(parts):
    total = parts[0]
    for part in parts[1:]:
        total = ad.add(total, part)
    return total


# Step-size ladder for the derivative probes.  A coordinate whose true
# derivative is ~1e-12 moves the loss by less than one float64 ulp under the
# fine step, so central differences read exactly zero there and the relative
# error formula flags a correct gradient.  Coarser steps resolve such
# coordinates, while a genuinely wrong gradient keeps failing at every step
# size.  The fine probe runs first and the ladder stops as soon as one probe
# is within tolerance.
FD_STEPS = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)


def _fd_check(f, theta) -> float:
    best = None
    for eps in FD_STEPS:
        err = ad.finite_difference_check(f, theta, eps=eps)
        best = err if best is None else min(best, err)
        if best < 1e-4:
            break
    return best


def _lstm_fd(rng) -> float:
    w_x = ad.tensor(rng.normal(0.0, 0.7, size=(12, 3)))
    w_h = ad.tensor(rng.normal(0.0, 0.7, size=(12, 3)))
    b = ad.tensor(rng.normal(0.0, 0.7, size=12))
    xs = [ad.tensor(rng.normal(size=3)) for _ in range(3)]

    def run(cell):
        h, c = ad.tensor(np.zeros(3)), ad.tensor(np.zeros(3))
        parts = []
        for x in xs:
            h, c = M.lstm_step(cell, x, h, c)
            parts.append(ad.add(ad.sum_all(h), ad.sum_all(c)))
        return _scalar_sum(parts)

    return max(
        _fd_check(lambda t: run(M.LSTMCell(w_x=t, w_h=w_h, b=b)), w_x),
        _fd_check(lambda t: run(M.LSTMCell(w_x=w_x, w_h=t, b=b)), w_h),
        _fd_check(lambda t: run(M.LSTMCell(w_x=w_x, w_h=w_h, b=t)), b),
    )


def _attention_fd(rng) -> float:
    states = [ad.tensor(rng.normal(0.0, 0.7, size=4)) for _ in range(3)]
    s_prev = ad.tensor(rng.normal(0.0, 0.7, size=3))
    w_a = ad.tensor(rng.normal(0.0, 0.7, size=(3, 4)))
    return max(
        _fd_check(lambda t: ad.sum_all(M.attention_context(s_prev, states, t).context), w_a),
        _fd_check(lambda t: ad.sum_all(M.attention_context(t, states, w_a).context), s_prev),
    )


def _memory_fd(rng) -> float:
    s = ad.tensor(rng.normal(0.0, 0.7, size=3))
    e_prev = ad.tensor(rng.normal(0.0, 0.7, size=2))
    c_blog = ad.tensor(rng.normal(0.0, 0.7, size=4))
    m_prev = ad.tensor(rng.normal(0.0, 0.7, size=2))
    w_u = ad.tensor(rng.normal(0.0, 0.7, size=(2, 3)))
    w_o = ad.tensor(rng.normal(0.0, 0.7, size=(2, 9)))

    def run(w_update, w_output, m_start):
        m_new, m_read = M.gated_memory_step(w_update, w_output, s, s, e_prev, c_blog, m_start)
        return ad.add(ad.sum_all(m_new), ad.sum_all(m_read))

    return max(
        _fd_check(lambda t: run(t, w_o, m_prev), w_u),
        _fd_check(lambda t: run(w_u, t, m_prev), w_o),
        _fd_check(lambda t: run(w_u, w_o, t), m_prev),
    )


def _user_vector_fd(rng) -> float:
    w = ad.tensor(rng.normal(0.0, 0.7, size=(2, 3)))
    b = ad.tensor(rng.normal(0.0, 0.7, size=2))
    features = ad.tensor(rng.normal(size=3))
    return max(
        _fd_check(lambda t: ad.sum_all(M.user_embed(t, b, features)), w),
        _fd_check(lambda t: ad.sum_all(M.user_embed(w, t, features)), b),
    )


def _c1_config(blog_layers: int) -> M.ModelConfig:
    return M.ModelConfig(
        vocab_size=5, feature_dim=3, variant=M.variant_from_name("PCGN"),
        embed_dim=2, blog_hidden=3, blog_layers=blog_layers,
        desc_hidden=2, desc_layers=1, user_dim=2,
        pad_id=0, unk_id=1, bos_id=2, eos_id=3,
    )


def _c1_examples(config: M.ModelConfig, seed: int) -> tuple[ToyExample, ToyExample]:
    # two examples with different lengths: summing their losses gives every
    # parameter coordinate two chances to influence the output, which keeps
    # the gradient components FD-resolvable far more often than one example
    rng = np.random.default_rng((seed, 7))
    body = lambda n: tuple(int(v) for v in rng.integers(4, config.vocab_size, n))
    first = ToyExample(x=body(2), y=(config.bos_id,) + body(2) + (config.eos_id,),
                       f=rng.normal(size=config.feature_dim), d=body(2))
    second = ToyExample(x=body(3), y=(config.bos_id,) + body(1) + (config.eos_id,),
                        f=rng.normal(size=config.feature_dim), d=body(3))
    return first, second


def _full_loss_fd(seed: int) -> float:
    # healthy-scale parameters: at init scale the attention gradients sit at
    # the round-off floor and central differences measure only noise
    config = _c1_config(blog_layers=2 if seed % 2 else 1)
    params = random_params(config, seed, scale=0.7)
    first, second = _c1_examples(config, seed)
    worst = 0.0
    for name, _ in params.named_parameters():
        def batch_loss(t):
            swapped = params.with_tensors({name: t})
            return ad.add(sequence_loss(swapped, first), sequence_loss(swapped, second))
        worst = max(worst, _fd_check(batch_loss, params.tensor(name)))
    return worst


def test_criterion_1_gradient_checks():
    start = time.perf_counter()
    worst = {"lstm": 0.0, "attention": 0.0, "memory": 0.0, "user_vector": 0.0, "full_loss": 0.0}
    for seed in range(20):
        rng = np.random.default_rng((seed, 11))
        worst["lstm"] = max(worst["lstm"], _lstm_fd(rng))
        worst["attention"] = max(worst["attention"], _attention_fd(rng))
        worst["memory"] = max(worst["memory"], _memory_fd(rng))
        worst["user_vector"] = max(worst["user_vector"], _user_vector_fd(rng))
        worst["full_loss"] = max(worst["full_loss"], _full_loss_fd(seed))
    elapsed = time.perf_counter() - start
    peak = max(worst.values())
    ok = peak < 1e-4 and elapsed < 120.0
    verdict(
        "criterion 1 (gradient checks)", ok,
        f"worst rel err {peak:.3e} across {sorted(worst)} over 20 seeds "
        f"in {elapsed:.1f}s (require <1e-4 within 120s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: the full model can drive training perplexity to ~1 on a
# handful of examples
# ---------------------------------------------------------------------------


def test_criterion_2_overfit_tiny_corpus():
    records = synthetic_records(12, users=4, seed=0)[:8]
    train, vocab, schema = encoded_corpus(records)
    config = desk_config("PCGN", len(vocab), schema.width)
    params = M.build_model(config, 3)
    opt = OptimizerConfig(lr=1.0, batch_size=8, clip_norm=5.0, seed=3)
    start = time.perf_counter()
    final, _, history = fit(params, train, None, opt, epochs=500, stop_below_ppl=1.3)
    elapsed = time.perf_counter() - start
    ppl = dataset_perplexity(final, train)
    ok = ppl < 1.3 and len(history) <= 500 and elapsed < 300.0
    verdict(
        "criterion 2 (overfit capacity)", ok,
        f"train ppl {ppl:.4f} after {len(history)} epochs in {elapsed:.1f}s "
        f"(require <1.3 within 500 epochs and 300s)",
    )


# ---------------------------------------------------------------------------
# criterion 3: only the personalized model resolves the author-determined
# token position
# ---------------------------------------------------------------------------


def _user_position_ppl(params, dataset) -> float:
    logs = [token_log_probs(params, ex)[USER_TOKEN_INDEX] for ex in dataset]
    return float(np.exp(-np.mean(logs)))


def test_criterion_3_user_conditioning():
    records = synthetic_records(32, users=4, seed=0)
    train, vocab, schema = encoded_corpus(records)
    opt = OptimizerConfig(lr=0.5, batch_size=8, clip_norm=5.0, seed=0)
    ppls = {}
    for variant in ("Seq2Seq", "PCGN"):
        config = desk_config(variant, len(vocab), schema.width)
        params = M.build_model(config, 0)
        final, _, _ = fit(params, train, None, opt, epochs=60)
        ppls[variant] = _user_position_ppl(final, train)
    ok = ppls["Seq2Seq"] > 2.5 and ppls["PCGN"] < 1.5
    verdict(
        "criterion 3 (user conditioning)", ok,
        f"author-token ppl: Seq2Seq {ppls['Seq2Seq']:.3f} (require >2.5), "
        f"PCGN {ppls['PCGN']:.3f} (require <1.5)",
    )


# ---------------------------------------------------------------------------
# criterion 4: the baseline is exactly invariant to the user profile
# ---------------------------------------------------------------------------


def test_criterion_4_baseline_user_invariance():
    checked = 0
    for seed in range(5):
        config = M.ModelConfig(
            vocab_size=12, feature_dim=5, variant=M.variant_from_name("Seq2Seq"),
            embed_dim=3, blog_hidden=4, blog_layers=1, desc_hidden=3, desc_layers=1,
            user_dim=2, pad_id=0, unk_id=1, bos_id=2, eos_id=3,
        )
        params = random_params(config, seed, scale=1.0)
        rng = np.random.default_rng((seed, 4))
        x = tuple(int(v) for v in rng.integers(4, 12, 4))
        plain = DecodeInput(x=x, f=np.zeros(5), d=(4, 5), user_id="nobody")
        loud = DecodeInput(x=x, f=rng.normal(0.0, 3.0, size=5), d=(6, 7, 8, 9), user_id="somebody")

        for width in (1, 4):
            beam_cfg = DecodeConfig(beam_size=width, max_len=6)
            for h_a, h_b in zip(beam_search(params, plain, beam_cfg), beam_search(params, loud, beam_cfg)):
                assert h_a.tokens == h_b.tokens and h_a.log_prob == h_b.log_prob

        y = (2, 4, 5, 3)
        loss_a = sequence_loss(params, ToyExample(x=x, y=y, f=plain.f, d=plain.d))
        loss_b = sequence_loss(params, ToyExample(x=x, y=y, f=loud.f, d=loud.d))
        assert float(loss_a.array) == float(loss_b.array)
        checked += 1
    verdict(
        "criterion 4 (baseline user invariance)", checked == 5,
        f"width-1 (greedy) and width-4 beam and loss outputs bit-identical across profiles for {checked}/5 seeds",
    )


# ---------------------------------------------------------------------------
# criterion 5: beam search agrees with exhaustive enumeration on a
# fully-checkable vocabulary
# ---------------------------------------------------------------------------


def _three_token_model(seed: int, variant: str):
    config = M.ModelConfig(
        vocab_size=3, feature_dim=4, variant=M.variant_from_name(variant),
        embed_dim=2, blog_hidden=3, blog_layers=1, desc_hidden=2, desc_layers=1,
        user_dim=2, pad_id=None, unk_id=None, bos_id=0, eos_id=1,
    )
    params = random_params(config, seed, scale=1.0)
    rng = np.random.default_rng((seed, 1))
    example = ToyExample(
        x=tuple(int(v) for v in rng.integers(0, 3, 3)),
        y=(0, 2, 1),
        f=rng.normal(size=4),
        d=tuple(int(v) for v in rng.integers(0, 3, 2)),
    )
    return params, example


def test_criterion_5_beam_matches_enumeration():
    models = 0
    worst_gap = 0.0
    for seed in range(50):
        variant = "PCGN" if seed % 2 else "Seq2Seq"
        params, example = _three_token_model(seed, variant)
        session = dec.DecodeSession(params, example)
        config = params.config
        expected = sorted(
            oracle.enumerate_finished(
                session.step, session.initial_state(), config.bos_id, config.eos_id,
                config.vocab_size, max_len=3,
            ),
            key=lambda item: (-item[1], item[0]),
        )
        results = beam_search(params, example, DecodeConfig(beam_size=40, max_len=3))
        finished = [h for h in results if h.finished]
        assert [h.tokens for h in finished] == [tokens for tokens, _ in expected]
        for hyp, (_, score) in zip(finished, expected):
            worst_gap = max(worst_gap, abs(hyp.log_prob - score))
        assert worst_gap < 1e-9

        tokens, log_prob, finished = oracle.argmax_walk(
            session.step, session.initial_state(), config.bos_id, config.eos_id, max_len=3,
        )
        (only,) = beam_search(params, example, DecodeConfig(beam_size=1, max_len=3))
        assert (only.tokens, only.finished) == (tokens, finished)
        assert abs(only.log_prob - log_prob) < 1e-12
        models += 1
    verdict(
        "criterion 5 (beam exactness)", models == 50,
        f"{models}/50 random models match exhaustive enumeration "
        f"(worst score gap {worst_gap:.2e}); width-1 beam equals the argmax walk",
    )


# ---------------------------------------------------------------------------
# criterion 6: the memory cell is a pure multiplicative decay of its
# initial state
# ---------------------------------------------------------------------------


def test_criterion_6_memory_decay_law():
    worst = 0.0
    for seed in range(100):
        config = M.ModelConfig(
            vocab_size=9, feature_dim=4, variant=M.variant_from_name("PCGN"),
            embed_dim=3, blog_hidden=3, blog_layers=1, desc_hidden=2, desc_layers=1,
            user_dim=3, pad_id=0, unk_id=1, bos_id=2, eos_id=3,
        )
        params = random_params(config, seed, scale=1.0)
        rng = np.random.default_rng((seed, 6))
        blog_states = M.encode_blog(params, [int(v) for v in rng.integers(4, 9, 3)])
        desc_states = M.encode_description(params, [int(v) for v in rng.integers(4, 9, 2)])
        v_u = M.user_vector(params, rng.normal(size=4))
        state = M.init_decoder_state(params, blog_states, v_u)

        w_update = params.tensor("mem_update").array
        decay = np.ones_like(v_u.array)
        for _ in range(5):
            s_prev = state.layers[-1][0].array.copy()
            decay = decay * (1.0 / (1.0 + np.exp(-(w_update @ s_prev))))
            token = int(rng.integers(0, 9))
            state = M.decoder_step(params, state, token, blog_states, desc_states, v_u).state
        gap = float(np.max(np.abs(state.memory.array - decay * v_u.array)))
        worst = max(worst, gap)
    ok = worst <= 1e-10
    verdict(
        "criterion 6 (memory decay law)", ok,
        f"max |M_T - (prod of gates) * M_0| = {worst:.2e} over 100 rollouts of 5 steps "
        f"with independently recomputed gates (require <=1e-10)",
    )


# ---------------------------------------------------------------------------
# criterion 7: metric implementations hit frozen unit values
# ---------------------------------------------------------------------------


def test_criterion_7_metric_unit_values():
    def pair(hyp: str, ref: str) -> EvalPair:
        return EvalPair(hypothesis=tuple(hyp.split()), reference=tuple(ref.split()))

    checks = [
        ("bleu2 identity", bleu2([pair("the cat sat", "the cat sat")]), 1.0),
        ("bleu2 repeated token", bleu2([pair("the the", "the cat")]), 0.0),
        ("bleu2 brevity", bleu2([pair("a b", "a b c d")]), 0.36787944117144233),
        ("meteor identity", meteor_lite([pair("a b c", "a b c")]), 0.9814814814814815),
        ("meteor swap", meteor_lite([pair("b a", "a b")]), 0.5),
    ]

    config = M.ModelConfig(
        vocab_size=12, feature_dim=5, variant=M.variant_from_name("Seq2Seq"),
        embed_dim=3, blog_hidden=4, blog_layers=1, desc_hidden=3, desc_layers=1,
        user_dim=2, pad_id=0, unk_id=1, bos_id=2, eos_id=3,
    )
    params = random_params(config, 0, scale=1.0)
    uniform = params.with_tensors({"out_proj": ad.tensor(np.zeros((12, 4)))})
    examples = [
        ToyExample(x=(4, 5), y=(2, 6, 7, 3), f=np.zeros(5), d=(4,)),
        ToyExample(x=(8, 9), y=(2, 10, 3), f=np.zeros(5), d=(5,)),
        ToyExample(x=(6,), y=(2, 11, 4, 5, 3), f=np.zeros(5), d=(6,)),
    ]
    checks.append(("uniform-model ppl == V", dataset_perplexity(uniform, examples), 12.0))

    worst = max(abs(got - want) for _, got, want in checks)
    ok = worst <= 1e-9
    listing = "; ".join(f"{name} {got:.12f}" for name, got, want in checks)
    verdict(
        "criterion 7 (metric unit values)", ok,
        f"worst deviation {worst:.2e} over {len(checks)} frozen values (require <=1e-9): {listing}",
    )


# ---------------------------------------------------------------------------
# criterion 8: the ablation harness reproduces the four-row report
# byte-for-byte and checkpoints survive a reload
# ---------------------------------------------------------------------------


def test_criterion_8_ablation_harness(tmp_path):
    prep = tmp_path / "prep"
    out = tmp_path / "ablation"
    prepare_args = [
        "prepare", "--synthetic", "24", "--synthetic-users", "3", "--seed", "0",
        "--train-ratio", "0.6", "--dev-ratio", "0.2", "--test-ratio", "0.2",
        "--out-dir", str(prep),
    ]
    ablate_args = [
        "ablate", "--data-dir", str(prep), "--out-dir", str(out),
        "--seed", "0", "--lr", "1.0", "--batch-size", "12", "--epochs", "10",
        "--eval-split", "test",
    ]
    assert cli.main(prepare_args) == 0
    assert cli.main(ablate_args) == 0

    doc = json.loads((out / "ablation.json").read_text(encoding="utf-8"))
    names = [row["variant"] for row in doc["rows"]]
    rows_ok = names == ["Seq2Seq", "+Mem", "+CoAtt", "+External"] and doc["complete"]

    table_lines = (out / "ablation.txt").read_text(encoding="utf-8").splitlines()
    delta_cell = re.compile(r"-?\d+\.\d+ \([+-]\d+\.\d+\)")
    format_ok = (
        len(table_lines) == 5
        and not delta_cell.search(table_lines[1])
        and all(delta_cell.search(line) for line in table_lines[2:])
    )

    report_before = (out / "ablation.json").read_bytes()
    ckpt_before = (out / "checkpoint_external.json").read_bytes()
    assert cli.main(ablate_args) == 0
    rerun_ok = (
        (out / "ablation.json").read_bytes() == report_before
        and (out / "checkpoint_external.json").read_bytes() == ckpt_before
    )

    ckpt = load_checkpoint(out / "checkpoint_external.json")
    test_records = parse_dataset(prep / "test.jsonl")
    example = encode_records(test_records, ckpt.vocab, ckpt.schema)[0]
    decode_cfg = DecodeConfig(beam_size=5, max_len=10)
    before = beam_search(ckpt.params, example, decode_cfg)
    copy_path = tmp_path / "copy.json"
    save_checkpoint(copy_path, ckpt)
    reloaded = load_checkpoint(copy_path)
    after = beam_search(reloaded.params, example, decode_cfg)
    reload_ok = (
        [h.tokens for h in before] == [h.tokens for h in after]
        and [h.log_prob for h in before] == [h.log_prob for h in after]
    )

    ok = rows_ok and format_ok and rerun_ok and reload_ok
    verdict(
        "criterion 8 (ablation harness)", ok,
        f"rows {names}; delta cells formatted like '8.19 (-0.07)'; "
        f"rerun byte-identical: {rerun_ok}; reloaded checkpoint reproduces generation: {reload_ok}",
    )
