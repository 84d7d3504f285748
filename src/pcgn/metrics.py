"""Corpus metrics: corpus BLEU-2 and a lightweight METEOR.

All metrics operate on token-id or token-string sequences; they never look
at surface text.  BLEU is corpus-level (n-gram counts pooled before the
ratio).  The METEOR variant is exact-match only (no stemming or synonyms)
and averages per-pair scores.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "EvalPair",
    "bleu2",
    "meteor_lite",
    "CorpusScores",
]


@dataclass(frozen=True)
class EvalPair:
    """One (hypothesis, reference) pair; the reference must be non-empty."""

    hypothesis: tuple
    reference: tuple

    def __post_init__(self):
        if len(self.reference) == 0:
            raise ValueError("reference must be non-empty")
        object.__setattr__(self, "hypothesis", tuple(self.hypothesis))
        object.__setattr__(self, "reference", tuple(self.reference))


def _ngrams(tokens: tuple, n: int) -> Counter:
    return Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1))


def bleu2(pairs: Sequence[EvalPair]) -> float:
    """Corpus BLEU with uniform 1/2-gram weights and brevity penalty.

    Clipped matches and totals are pooled over the corpus before the
    precision ratio.  No smoothing: a zero pooled match count at either
    order gives 0.  Empty hypotheses contribute nothing but are legal.
    """
    if len(pairs) == 0:
        raise ValueError("bleu2 needs at least one pair")
    matches = [0, 0]
    totals = [0, 0]
    hyp_len = 0
    ref_len = 0
    for pair in pairs:
        hyp, ref = pair.hypothesis, pair.reference
        hyp_len += len(hyp)
        ref_len += len(ref)
        for order in (1, 2):
            hyp_counts = _ngrams(hyp, order)
            if not hyp_counts:
                continue
            ref_counts = _ngrams(ref, order)
            totals[order - 1] += sum(hyp_counts.values())
            matches[order - 1] += sum(
                min(count, ref_counts.get(gram, 0)) for gram, count in hyp_counts.items()
            )
    if hyp_len == 0 or matches[0] == 0 or matches[1] == 0:
        return 0.0
    log_precision = 0.5 * (
        math.log(matches[0] / totals[0]) + math.log(matches[1] / totals[1])
    )
    brevity = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    return brevity * math.exp(log_precision)


def _align(hyp: tuple, ref: tuple) -> list[tuple[int, int]]:
    """Greedy exact-token alignment, leftmost-first with chunk continuation.

    Walk the hypothesis left to right; when the previous hypothesis token
    was matched at ref position j and the current token equals ref[j+1]
    (still free), extend that run, otherwise take the leftmost free
    occurrence.  Per-token occurrences are disjoint across tokens, so any
    non-wasteful greedy pass reaches the maximum matching size
    sum_w min(count_hyp(w), count_ref(w)).
    """
    positions: dict = {}
    for j, tok in enumerate(ref):
        positions.setdefault(tok, []).append(j)
    taken = [False] * len(ref)
    matches: list[tuple[int, int]] = []
    prev_i = prev_j = None
    for i, tok in enumerate(hyp):
        choice = None
        if prev_i == i - 1 and prev_j is not None:
            follow = prev_j + 1
            if follow < len(ref) and not taken[follow] and ref[follow] == tok:
                choice = follow
        if choice is None:
            for j in positions.get(tok, ()):
                if not taken[j]:
                    choice = j
                    break
        if choice is None:
            prev_i = prev_j = None
            continue
        taken[choice] = True
        matches.append((i, choice))
        prev_i, prev_j = i, choice
    return matches


def _meteor_pair(hyp: tuple, ref: tuple) -> float:
    matches = _align(hyp, ref)
    m = len(matches)
    if m == 0:
        return 0.0
    chunks = 0
    prev_i = prev_j = None
    for i, j in matches:
        if prev_i is None or i != prev_i + 1 or j != prev_j + 1:
            chunks += 1
        prev_i, prev_j = i, j
    precision = m / len(hyp)
    recall = m / len(ref)
    fmean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (chunks / m) ** 3
    return fmean * (1.0 - penalty)


def meteor_lite(pairs: Sequence[EvalPair]) -> float:
    """Mean per-pair METEOR-style score with exact matching only.

    Per pair: greedy alignment, F = 10PR / (R + 9P), fragmentation penalty
    0.5 * (chunks / matches)^3.
    """
    if len(pairs) == 0:
        raise ValueError("meteor_lite needs at least one pair")
    return sum(_meteor_pair(p.hypothesis, p.reference) for p in pairs) / len(pairs)


@dataclass(frozen=True)
class CorpusScores:
    ppl: float
    bleu2: float
    meteor: float
    pairs: int

