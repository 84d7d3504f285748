"""Deterministic template-grammar corpus for desk-scale experiments.

Every user comments on every blog.  A comment is a four-token template
whose second token is the author's signature word and whose last token is
the blog's topic, so one position is decidable only from the author and
one only from the blog.  Profiles differ in every categorical field and
each description contains the signature word, giving user-conditioned
models everything they need to separate authors.
"""

from __future__ import annotations

import math

import numpy as np

from .data import RawRecord

__all__ = [
    "synthetic_records",
    "USER_TOKEN_INDEX",
    "SIGNATURE_WORDS",
]

# Comment template: ("so", <signature>, "this", <topic>).
USER_TOKEN_INDEX = 1

SIGNATURE_WORDS = (
    "sunny", "mellow", "spicy", "brisk", "gloomy", "vivid", "quiet", "fancy",
    "solemn", "breezy", "crisp", "mild", "bold", "tender", "sharp", "calm",
)

_TOPICS = (
    "music", "soccer", "coffee", "travel", "books", "movies", "cooking",
    "cycling", "gardens", "planes", "rivers", "chess", "paint", "stars",
    "bread", "trains", "lakes", "poems", "maps", "shoes",
)

_PROVINCES = ("north", "south", "east", "west", "plains", "coast")


def _signature(u: int) -> str:
    return SIGNATURE_WORDS[u] if u < len(SIGNATURE_WORDS) else f"style{u}"


def _topic(j: int) -> str:
    return _TOPICS[j] if j < len(_TOPICS) else f"topic{j}"


def _profile(u: int) -> dict:
    sig = _signature(u)
    return dict(
        user_id=f"u{u:02d}",
        province=_PROVINCES[u % len(_PROVINCES)],
        city=f"city{u}",
        gender="F" if u % 2 == 0 else "M",
        age=20 + 3 * u,
        marital_status="single" if u % 2 == 0 else "married",
        description_tokens=("loves", sig),
        common_words=(sig, "really"),
    )


def _blog(j: int, style: int) -> tuple[str, ...]:
    topic = _topic(j)
    if style == 0:
        return ("new", "post", "about", topic, "today")
    return ("thoughts", "on", topic, "again")


def synthetic_records(n: int, users: int = 4, seed: int = 0) -> list[RawRecord]:
    """First n records of a users x blogs grid, blogs shuffled by seed.

    Needs enough records for at least 3 distinct blogs (n > 2*users) so the
    result stays splittable.
    """
    if users < 1:
        raise ValueError(f"users must be >= 1, got {users}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    n_blogs = math.ceil(n / users)
    if n_blogs < 3:
        raise ValueError(
            f"n={n} with users={users} yields {n_blogs} blogs; need at least 3 for splitting"
        )
    rng = np.random.default_rng(seed)
    topic_order = [int(i) for i in rng.permutation(max(n_blogs, 1))]
    profiles = [_profile(u) for u in range(users)]
    records = []
    for j in range(n_blogs):
        topic_id = topic_order[j]
        blog = _blog(topic_id, style=j % 2)
        topic = _topic(topic_id)
        for u, prof in enumerate(profiles):
            if len(records) == n:
                break
            comment = ("so", _signature(u), "this", topic)
            records.append(RawRecord(blog_tokens=blog, comment_tokens=comment, **prof))
    return records
