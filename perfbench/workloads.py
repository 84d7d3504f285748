"""The three benchmark workloads: set-up, timed closed loops and output checks.

Every workload is one caller driving pcgn's public functions in a closed
loop: the next call starts only after the previous one returns.

* ``train_desk``: ``train_epoch`` on the synthetic grammar at desk dims.
  Tiny arrays, so per-op Python cost in the autodiff engine dominates.
* ``train_wide``: the same loop at widened dims on generated Zipf text.
  Dense kernels (weight-gradient outer products, gradient accumulation)
  dominate.
* ``eval_beam``: mirrors ``pcgn eval``: a briefly trained desk model goes
  through a checkpoint round trip, then beam search, teacher-forced
  perplexity, BLEU-2 and METEOR-lite on held-out pairs.  No tape.

A *unit* is the fixed amount of work that the timed loop repeats: one
training round (a fixed list of epochs, always from the same initial
parameters) or one evaluation pass.  Units always run whole, so every run
of a seed times the same mix of examples.  The first unit gives the
quality numbers, exact for a seed; later units must repeat its results.
Each timed call is scaled to a nominal machine speed by ``calibrate``.
The traced run times exactly one unit.

Train workloads also run, after the timed loop, a checkpoint round trip
and a small evaluation probe of the trained model; those are checked and
traced but not timed, so every layer shows up in every traced run.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from pcgn import checkpoint, data, decoding, metrics, synthetic, training
from pcgn import autodiff as ad
from pcgn import model as M
from pcgn.data import EncodedExample, FeatureSchema, Vocab
from pcgn.decoding import DecodeConfig, Hypothesis
from pcgn.training import OptimizerConfig

import zipf
from calibrate import timed

DECODE = DecodeConfig(beam_size=10, max_len=20)
RESCORE_EVERY = 10   # rescore the top hypothesis of every 10th decode
RESCORE_TOL = 1e-9
SCORE_CHUNK = 10     # held-out pairs per dataset_perplexity call
SCORE_REPEATS = 3    # dataset_perplexity calls per chunk
SETUP_REPEATS = 3
BATCH = 8

WIDE_DIMS = dict(embed_dim=64, blog_hidden=128, desc_hidden=64, user_dim=32)
TINY_DIMS = dict(embed_dim=8, blog_hidden=12, desc_hidden=8, user_dim=4)

# Per workload and size.  ``records``: synthetic_records count (or Zipf
# shards for train_wide); ``shard``: training examples per train_epoch
# call; ``round``: train_epoch calls per training round, each on the next
# shard;
# ``pretrain``: (examples, epochs) of the training before a checkpoint,
# enough that every seed's model ends its comments at the same length, so
# decode cost does not swing with the seed; ``heldout``: pairs the
# evaluation decodes; ``lr``: 0.5 is the CLI's desk-scale default, and at
# wide dims it makes the loss jump between epochs, so train_wide uses 0.1.
SIZES = {
    "train_desk": {
        "full": dict(records=60, users=4, shard=16, round=12, heldout=8, lr=0.5),
        "tiny": dict(records=24, users=4, shard=16, round=1, heldout=2, lr=0.5),
    },
    "train_wide": {
        "full": dict(records=9, shard=zipf.SHARD, round=8, heldout=2, dims=WIDE_DIMS, lr=0.1),
        "tiny": dict(records=2, shard=zipf.SHARD, round=1, heldout=1, dims=TINY_DIMS, lr=0.1),
    },
    "eval_beam": {
        "full": dict(records=2500, users=2, pretrain=(64, 6), heldout=100, lr=0.5),
        "tiny": dict(records=120, users=2, pretrain=(16, 1), heldout=4, lr=0.5),
    },
}
WORKLOADS = tuple(SIZES)


class Ledger:
    """Operations attempted and failed, with a note per failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


class Marker:
    """Tells a tracer which closed-loop call is running; a no-op untraced."""

    example = -1


@dataclass
class Prepared:
    params: M.ModelParams
    epochs: list[list[EncodedExample]]   # one train_epoch dataset per epoch of a round
    heldout: list[EncodedExample]
    vocab: Vocab
    schema: FeatureSchema
    opt: OptimizerConfig
    ckpt_bytes: int = 0


@dataclass
class RoundResult:
    params: M.ModelParams
    seconds: list[float] = field(default_factory=list)
    tokens: list[int] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)


@dataclass
class EvalResult:
    decode_s: list[float]
    hyps: list[list[Hypothesis]]
    score_rates: list[float]   # target tokens per second, per dataset_perplexity call
    ppl: float
    bleu2: float
    meteor: float


# ---------------------------------------------------------------------------
# Set-up.
# ---------------------------------------------------------------------------


def _encode(train_records, heldout_records):
    vocab = data.build_vocab(train_records, max_size=1_000_000)
    schema = data.fit_schema(train_records)
    return vocab, schema, data.encode_records(train_records, vocab, schema), data.encode_records(heldout_records, vocab, schema)


def _synthetic_split(size: dict, seed: int):
    records = synthetic.synthetic_records(size["records"], users=size["users"], seed=seed)
    train, _dev, test = data.split_by_blog(records, seed=seed)
    return train, test


def checkpoint_roundtrip(params, vocab, schema, path, ledger: Ledger) -> tuple[M.ModelParams, int]:
    """save_checkpoint then load_checkpoint; checks the result is bitwise equal."""
    checkpoint.save_checkpoint(path, checkpoint.Checkpoint(params=params, vocab=vocab, schema=schema))
    loaded = checkpoint.load_checkpoint(path).params
    same = loaded.config == params.config and [n for n, _ in loaded.named_parameters()] == [
        n for n, _ in params.named_parameters()
    ]
    for (_, a), (_, b) in zip(params.named_parameters(), loaded.named_parameters()):
        same = same and a.array.dtype == b.array.dtype and a.array.tobytes() == b.array.tobytes()
    ledger.record(same, "checkpoint round trip is not bitwise equal")
    return loaded, os.path.getsize(path)


def setup(workload: str, size: dict, seed: int, ckpt_path, ledger: Ledger, marker: Marker) -> Prepared:
    opt = OptimizerConfig(lr=size["lr"], batch_size=BATCH, seed=seed)
    if workload == "eval_beam":
        train_recs, test_recs = _synthetic_split(size, seed)
        vocab, schema, train, heldout = _encode(train_recs, test_recs)
        params = M.build_model(M.ModelConfig.desk(len(vocab), schema.width), seed)
        n_examples, n_epochs = size["pretrain"]
        pre = Prepared(params, [train[:n_examples]] * n_epochs, heldout[: size["heldout"]], vocab, schema, opt)
        trained = train_round(pre, ledger, marker).params
        pre.params, pre.ckpt_bytes = checkpoint_roundtrip(trained, vocab, schema, ckpt_path, ledger)
        return pre

    if workload == "train_desk":
        train_recs, test_recs = _synthetic_split(size, seed)
        vocab, schema, train, heldout = _encode(train_recs, test_recs)
        params = M.build_model(M.ModelConfig.desk(len(vocab), schema.width), seed)
    else:
        records = zipf.zipf_records(size["records"], seed)
        n_train = (size["records"] - 1) * zipf.SHARD
        vocab, schema, train, heldout = _encode(records[:n_train], records[n_train:])
        params = M.build_model(M.ModelConfig.desk(len(vocab), schema.width, **size["dims"]), seed)
    shards = [train[i : i + size["shard"]] for i in range(0, len(train), size["shard"])]
    epochs = [shards[e % len(shards)] for e in range(size["round"])]
    # Warm-up epoch, result discarded: the first epoch in a process runs
    # slower while numpy's allocator grows; keep it out of the timed loop.
    training.train_epoch(params, epochs[0], opt, 0)
    return Prepared(params, epochs, heldout[: size["heldout"]], vocab, schema, opt)


# ---------------------------------------------------------------------------
# Units of timed work.
# ---------------------------------------------------------------------------


def train_round(prep: Prepared, ledger: Ledger, marker: Marker) -> RoundResult:
    """One train_epoch per entry of ``prep.epochs``, from ``prep.params``."""
    out = RoundResult(prep.params)
    for e, dataset in enumerate(prep.epochs):
        marker.example = e
        (params, stats), spent = timed(training.train_epoch, out.params, dataset, prep.opt, e)
        out.seconds.append(spent)
        ledger.record(math.isfinite(stats.mean_loss), f"epoch {e}: non-finite loss {stats.mean_loss}")
        out.params = params
        out.tokens.append(stats.tokens)
        out.losses.append(stats.mean_loss)
    return out


def _ranked(hyps: list[Hypothesis]) -> bool:
    keys = [(-h.score(DECODE.length_norm), h.tokens) for h in hyps]
    return 1 <= len(hyps) <= DECODE.beam_size and keys == sorted(keys)


def eval_pass(params: M.ModelParams, examples: list[EncodedExample], ledger: Ledger, marker: Marker) -> EvalResult:
    """Decode every example and score it by perplexity, then the corpus metrics.

    Scoring runs on chunks of ``SCORE_CHUNK`` examples, each right after
    its decodes, so both timings sample the same stretch of the run.  Only
    the calls themselves are timed; the checks run afterwards.
    """
    decode_s, hyps, rates = [], [], []
    nll = 0.0
    scored = 0   # target tokens in the chunks run
    for c0 in range(0, len(examples), SCORE_CHUNK):
        chunk = examples[c0 : c0 + SCORE_CHUNK]
        for i, ex in enumerate(chunk, start=c0):
            marker.example = i
            result, spent = timed(decoding.beam_search, params, ex, DECODE)
            decode_s.append(spent)
            hyps.append(result)
        marker.example = -1
        n_tokens = sum(ex.target_len for ex in chunk)
        for _ in range(SCORE_REPEATS):
            chunk_ppl, spent = timed(training.dataset_perplexity, params, chunk)
            rates.append(n_tokens / spent)
        ledger.record(math.isfinite(chunk_ppl), f"dataset_perplexity is {chunk_ppl} on pairs {c0}..")
        nll += math.log(chunk_ppl) * n_tokens
        scored += n_tokens
    ppl = math.exp(nll / scored)
    pairs = [metrics.EvalPair(h[0].content_tokens, ex.y[1:-1]) for h, ex in zip(hyps, examples)]
    bleu = metrics.bleu2(pairs)
    meteor = metrics.meteor_lite(pairs)

    for i, (ex, result) in enumerate(zip(examples, hyps)):
        ok = _ranked(result)
        if ok and i % RESCORE_EVERY == 0:
            ok = abs(decoding.rescore(params, ex, result[0]) - result[0].log_prob) <= RESCORE_TOL
        ledger.record(ok, f"beam_search on held-out pair {i}: bad ranking or rescore mismatch")
    ledger.record(0.0 <= bleu <= 1.0, f"bleu2 is {bleu}")
    ledger.record(0.0 <= meteor <= 1.0, f"meteor_lite is {meteor}")
    return EvalResult(decode_s, hyps, rates, ppl, bleu, meteor)


def run_unit(workload: str, prep: Prepared, ledger: Ledger, marker: Marker):
    if workload == "eval_beam":
        return eval_pass(prep.params, prep.heldout, ledger, marker)
    return train_round(prep, ledger, marker)


def post(workload: str, prep: Prepared, unit, ckpt_path, ledger: Ledger, marker: Marker) -> EvalResult | None:
    """Untimed follow-up for train workloads: checkpoint and evaluate the trained model."""
    if workload == "eval_beam":
        return None
    trained, prep.ckpt_bytes = checkpoint_roundtrip(unit.params, prep.vocab, prep.schema, ckpt_path, ledger)
    return eval_pass(trained, prep.heldout, ledger, marker)


# ---------------------------------------------------------------------------
# End-to-end measurement (untraced).
# ---------------------------------------------------------------------------


def _ms(values: list[float], q: float) -> float:
    return 1000.0 * float(np.percentile(values, q))


def measure(workload: str, prep: Prepared, seconds: float, ledger: Ledger, marker: Marker):
    """Run one unit, then more while the last one's duration still fits in ``seconds``.

    The quality metric comes from the first unit.  Returns the end-to-end
    metrics without setup_s and peak_rss_mb, the first unit, and the
    samples behind the metrics.
    """
    deadline = time.perf_counter() + seconds
    units = []
    unit_wall = 0.0
    while not units or time.perf_counter() + unit_wall <= deadline:
        start = time.perf_counter()
        units.append(run_unit(workload, prep, ledger, marker))
        unit_wall = time.perf_counter() - start
    first = units[0]
    if workload == "eval_beam":
        calls = [s for u in units for s in u.decode_s]
        rates = [r for u in units for r in u.score_rates]
        for u in units[1:]:
            ledger.record(
                [h[0] for h in u.hyps] == [h[0] for h in first.hyps],
                "repeated evaluation pass decoded differently",
            )
        return {
            "tokens_per_s": float(np.median(rates)),
            "call_ms_p50": _ms(calls, 50),
            "call_ms_p90": _ms(calls, 90),
            "nll_per_token": math.log(first.ppl),
        }, first, {"call_s": calls, "score_tokens_per_s": rates, "units": len(units)}
    calls = [s for u in units for s in u.seconds]
    rates = [t / s for u in units for t, s in zip(u.tokens, u.seconds)]
    for u in units[1:]:
        ledger.record(u.losses == first.losses, "repeated training round gave different losses")
    return {
        "tokens_per_s": float(np.median(rates)),
        "call_ms_p50": _ms(calls, 50),
        "call_ms_p90": _ms(calls, 90),
        "nll_per_token": sum(l * t for l, t in zip(first.losses, first.tokens)) / sum(first.tokens),
    }, first, {"call_s": calls, "tokens_per_s": rates, "units": len(units)}


def op_counts(workload: str, prep: Prepared) -> tuple[dict[str, int], float]:
    """Tape entries of one sequence_loss under a fresh Tape: per op name, and per target token."""
    example = prep.heldout[0] if workload == "eval_beam" else prep.epochs[0][0]
    tape = ad.Tape()
    watched = {name: tape.watch(t) for name, t in prep.params.named_parameters()}
    training.sequence_loss(prep.params.with_tensors(watched), example)
    counts: dict[str, int] = {}
    for name, _ins, _out in tape.entries:
        counts[name] = counts.get(name, 0) + 1
    return counts, len(tape) / example.target_len
