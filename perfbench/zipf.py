"""Seeded Zipf long-text records for the ``train_wide`` workload.

Blogs are 20-40 tokens and comments 6-14, drawn from a Zipf-ranked
lexicon, so the vocabulary reaches several hundred to a few thousand
words and the output layer is a dense kernel rather than a toy.  Every
shard of ``SHARD`` consecutive records carries the same multiset of blog
and comment lengths (only their order and the words change with the
seed), so one ``train_epoch`` over a shard does the same amount of work
for every seed and every shard.
"""

from __future__ import annotations

import numpy as np

from pcgn.data import RawRecord

LEXICON = 4000
EXPONENT = 1.0
SHARD = 8
USERS = 8
BLOG_LENGTHS = np.linspace(20, 40, SHARD).round().astype(int)
COMMENT_LENGTHS = np.linspace(6, 14, SHARD).round().astype(int)


def zipf_records(n_shards: int, seed: int) -> list[RawRecord]:
    """``n_shards * SHARD`` records; user ``k % USERS`` writes record ``k``."""
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    rng = np.random.default_rng(seed)
    weights = np.arange(1, LEXICON + 1, dtype=np.float64) ** -EXPONENT
    weights /= weights.sum()
    words = [f"w{i}" for i in rng.permutation(LEXICON)]

    def draw(k: int) -> tuple[str, ...]:
        return tuple(words[i] for i in rng.choice(LEXICON, size=int(k), p=weights))

    profiles = [
        dict(
            user_id=f"z{u:02d}",
            province=f"prov{u % 3}",
            city=f"city{u}",
            gender="F" if u % 2 == 0 else "M",
            age=20 + 4 * u,
            marital_status="single" if u % 3 else "married",
            description_tokens=draw(5),
            common_words=(),
        )
        for u in range(USERS)
    ]
    records = []
    for _ in range(n_shards):
        for blog_len, comment_len in zip(rng.permutation(BLOG_LENGTHS), rng.permutation(COMMENT_LENGTHS)):
            user = profiles[len(records) % USERS]
            records.append(RawRecord(blog_tokens=draw(blog_len), comment_tokens=draw(comment_len), **user))
    return records
