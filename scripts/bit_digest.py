#!/usr/bin/env python3
"""SHA-256 digests of the bits that training, scoring and decoding produce.

Two checkouts that print the same overall digest compute the same bits
on this corpus, so a rewrite meant to keep every bit is checked by running
this script before and after it.  For each variant of the ablation ladder,
at one and two layers, the digest covers:

- walk: the gold log-probabilities and every parameter gradient of one
  teacher-forced walk over blocks of 1, 3 and 7 examples; the block of
  3 shares one blog and the block of 7 repeats two blogs and four
  authors, so this section covers the block walk's deduplicated encode;
- batch: a training batch's loss, its example losses and every parameter
  gradient, for two batches: the first 8 training examples (two blogs,
  each commented on by the same four authors), and the corpus's examples
  whose blog and author no earlier pick has (four examples, every blog
  and author distinct, as on ``train_wide``);
- training: the mean loss and every parameter after each of two training
  epochs (the training examples repeat blogs and authors);
- perplexity: the dev perplexity of the trained model;
- beam: each beam hypothesis's tokens, log-probability (as hex) and
  finish flag, from the trained model.

It prints one digest per section for each (variant, layers) pair, then
the overall one, over every section digest.  A rewrite that moves only
training bits shows the same walk lines and moves the others, since
perplexity and beam read the trained model.  One that changes only how a
batch assembles its loss moves the batch line first.
Bits hold per BLAS thread count (see README), so pin it when comparing:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/bit_digest.py
"""

from __future__ import annotations

import hashlib

from pcgn import autodiff as ad
from pcgn import decoding, training
from pcgn import model as M
from pcgn.data import build_vocab, encode_records, fit_schema
from pcgn.synthetic import synthetic_records

VARIANTS = ("Seq2Seq", "Seq2Seq+Emb", "+Mem", "+CoAtt", "PCGN")
BLOCKS = (1, 3, 7)
BATCH = 8
SECTIONS = ("walk", "batch", "training", "perplexity", "beam")


def distinct_batch(examples):
    """The examples, in order, whose blog and author no earlier pick has."""
    blogs, authors, picked = set(), set(), []
    for ex in examples:
        author = (ex.d, ex.f.tobytes())
        if ex.x not in blogs and author not in authors:
            blogs.add(ex.x)
            authors.add(author)
            picked.append(ex)
    return picked


def pair_digests(params: M.ModelParams, train, dev, distinct) -> dict[str, str]:
    """One digest per section, in the order the sections run."""
    h = {name: hashlib.sha256() for name in SECTIONS}
    for n in BLOCKS:
        tape = ad.Tape()
        watched = {name: tape.watch(t) for name, t in params.named_parameters()}
        terms, owner = training.gold_log_probs(params.with_tensors(watched), train[:n])
        grads = ad.backprop(tape, ad.sum_all(terms))
        h["walk"].update(terms.array.tobytes())
        h["walk"].update(owner.tobytes())
        for leaf in watched.values():
            h["walk"].update(grads[leaf].array.tobytes())
    for batch in (train[:BATCH], distinct):
        loss, grads, losses = training._batch_gradients(params, batch, "digest batch")
        h["batch"].update(loss.hex().encode())
        h["batch"].update(" ".join(l.hex() for l in losses).encode())
        for g in grads.values():
            h["batch"].update(g.array.tobytes())
    opt = training.OptimizerConfig(lr=0.5, batch_size=4, seed=0)
    for epoch in range(2):
        params, stats = training.train_epoch(params, train, opt, epoch)
        h["training"].update(stats.mean_loss.hex().encode())
        for _name, t in params.named_parameters():
            h["training"].update(t.array.tobytes())
    h["perplexity"].update(training.dataset_perplexity(params, dev).hex().encode())
    for ex in dev[:2]:
        for hyp in decoding.beam_search(params, ex, decoding.DecodeConfig(beam_size=3, max_len=6)):
            h["beam"].update(f"{hyp.tokens} {hyp.log_prob.hex()} {hyp.finished}".encode())
    return {name: section.hexdigest() for name, section in h.items()}


def main() -> None:
    records = synthetic_records(30, users=4, seed=1)
    vocab, schema = build_vocab(records, max_size=1000), fit_schema(records)
    encoded = encode_records(records, vocab, schema)
    train, dev = encoded[:10], encoded[10:]
    distinct = distinct_batch(encoded)
    overall = hashlib.sha256()
    for name in VARIANTS:
        for layers in (1, 2):
            cfg = M.ModelConfig.desk(len(vocab), schema.width, variant=M.PRESETS[name], blog_layers=layers)
            for section, digest in pair_digests(M.build_model(cfg, 0), train, dev, distinct).items():
                overall.update(digest.encode())
                print(f"{name:<12} layers={layers} {section:<10} {digest}")
    print(f"overall {overall.hexdigest()}")


if __name__ == "__main__":
    main()
