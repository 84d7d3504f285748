"""Dataset ingestion: parsing, filtering, vocab, user features, splits.

The on-disk format is line-delimited JSON, one record per line, with string
fields ``blog``, ``comment``, ``user_id`` (required) and optional profile
fields ``province``, ``city``, ``gender``, ``age``, ``marital_status``,
``description``, ``common_words``.  Text fields are whitespace-tokenized.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "DataError",
    "RawRecord",
    "Vocab",
    "FeatureSchema",
    "EncodedExample",
    "PAD", "UNK", "BOS", "EOS",
    "PAD_ID", "UNK_ID", "BOS_ID", "EOS_ID",
    "SPECIAL_TOKENS",
    "CATEGORICAL_FIELDS",
    "parse_dataset",
    "parse_record",
    "record_to_dict",
    "filter_records",
    "build_vocab",
    "fit_schema",
    "featurize_user",
    "augment_common_words",
    "split_by_blog",
    "encode_records",
    "encode_record",
    "apply_common_words",
]

PAD, UNK, BOS, EOS = "<pad>", "<unk>", "<bos>", "<eos>"
SPECIAL_TOKENS = (PAD, UNK, BOS, EOS)
PAD_ID, UNK_ID, BOS_ID, EOS_ID = 0, 1, 2, 3

CATEGORICAL_FIELDS = ("province", "city", "gender", "marital_status")


class DataError(ValueError):
    """Malformed or insufficient input data."""


@dataclass(frozen=True)
class RawRecord:
    """One (blog, comment, author profile) triple.  All token tuples are
    whitespace-split and never contain empty strings."""

    blog_tokens: tuple[str, ...]
    comment_tokens: tuple[str, ...]
    user_id: str
    province: str = ""
    city: str = ""
    gender: str = ""
    marital_status: str = ""
    age: int | None = None
    description_tokens: tuple[str, ...] = ()
    common_words: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.user_id:
            raise DataError("record has an empty user_id")
        for name in ("blog_tokens", "comment_tokens", "description_tokens", "common_words"):
            if any(not tok for tok in getattr(self, name)):
                raise DataError(f"record field {name} contains an empty token")
        if self.age is not None and self.age < 0:
            raise DataError(f"record has negative age {self.age}")


def _opt_str(obj: dict, key: str, lineno: int) -> str:
    val = obj.get(key)
    if val is None:
        return ""
    if not isinstance(val, str):
        raise DataError(f"line {lineno}: field {key!r} must be a string")
    return val.strip()


def parse_record(obj: dict, lineno: int = 0) -> RawRecord:
    """Build a RawRecord from one decoded JSON object."""
    if not isinstance(obj, dict):
        raise DataError(f"line {lineno}: record must be a JSON object")
    for key in ("blog", "comment", "user_id"):
        if key not in obj or obj[key] is None:
            raise DataError(f"line {lineno}: missing required field {key!r}")
        if not isinstance(obj[key], str):
            raise DataError(f"line {lineno}: field {key!r} must be a string")
    user_id = obj["user_id"].strip()
    if not user_id:
        raise DataError(f"line {lineno}: user_id is empty")

    age_raw = obj.get("age")
    if age_raw is None or age_raw == "":
        age = None
    elif isinstance(age_raw, bool) or not isinstance(age_raw, (int, float)):
        raise DataError(f"line {lineno}: age must be a number, got {age_raw!r}")
    elif isinstance(age_raw, float) and not age_raw.is_integer():
        raise DataError(f"line {lineno}: age must be an integer, got {age_raw!r}")
    else:
        age = int(age_raw)
        if age < 0:
            raise DataError(f"line {lineno}: age must be non-negative, got {age}")

    common_raw = obj.get("common_words")
    if common_raw is None:
        common: tuple[str, ...] = ()
    elif isinstance(common_raw, list) and all(isinstance(w, str) for w in common_raw):
        common = tuple(w for w in (s.strip() for s in common_raw) if w)
    else:
        raise DataError(f"line {lineno}: common_words must be a list of strings")

    try:
        return RawRecord(
            blog_tokens=tuple(obj["blog"].split()),
            comment_tokens=tuple(obj["comment"].split()),
            user_id=user_id,
            province=_opt_str(obj, "province", lineno),
            city=_opt_str(obj, "city", lineno),
            gender=_opt_str(obj, "gender", lineno),
            marital_status=_opt_str(obj, "marital_status", lineno),
            age=age,
            description_tokens=tuple(_opt_str(obj, "description", lineno).split()),
            common_words=common,
        )
    except DataError as err:
        raise DataError(f"line {lineno}: {err}") from None


def record_to_dict(r: RawRecord) -> dict:
    """The JSON object of one record; ``parse_record`` reads it back."""
    return {
        "blog": " ".join(r.blog_tokens),
        "comment": " ".join(r.comment_tokens),
        "user_id": r.user_id,
        "province": r.province,
        "city": r.city,
        "gender": r.gender,
        "age": r.age,
        "marital_status": r.marital_status,
        "description": " ".join(r.description_tokens),
        "common_words": list(r.common_words),
    }


def parse_dataset(path) -> list[RawRecord]:
    """Read line-delimited JSON records; blank lines are skipped.

    Raises DataError naming the 1-based line number on the first bad line.
    """
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise DataError(f"line {lineno}: malformed JSON ({err.msg})") from None
            records.append(parse_record(obj, lineno))
    return records


def filter_records(records: Sequence[RawRecord], min_tokens: int = 2, min_user_records: int = 2) -> list[RawRecord]:
    """Drop short blogs/comments, then users with too few surviving records.

    User counts are taken on the length-filtered set.  Dropping one user's
    records never shrinks another user's count, so one pass reaches the
    fixed point and the function is idempotent.
    """
    if min_tokens < 1:
        raise ValueError(f"min_tokens must be >= 1, got {min_tokens}")
    if min_user_records < 1:
        raise ValueError(f"min_user_records must be >= 1, got {min_user_records}")
    long_enough = [
        r for r in records
        if len(r.blog_tokens) >= min_tokens and len(r.comment_tokens) >= min_tokens
    ]
    per_user = Counter(r.user_id for r in long_enough)
    return [r for r in long_enough if per_user[r.user_id] >= min_user_records]


@dataclass(frozen=True)
class Vocab:
    """Token <-> id table with four reserved ids: 0 pad, 1 unk, 2 bos, 3 eos."""

    tokens: tuple[str, ...]
    index: dict[str, int] = field(compare=False, repr=False, default_factory=dict)

    def __post_init__(self):
        if tuple(self.tokens[:4]) != SPECIAL_TOKENS:
            raise ValueError(f"vocab must start with {SPECIAL_TOKENS}")
        if not self.index:
            object.__setattr__(self, "index", {tok: i for i, tok in enumerate(self.tokens)})

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, toks: Iterable[str]) -> list[int]:
        idx = self.index
        return [idx.get(t, UNK_ID) for t in toks]

    def decode(self, ids: Iterable[int], keep_specials: bool = False) -> list[str]:
        out = []
        for i in ids:
            if not (0 <= i < len(self.tokens)):
                raise IndexError(f"token id {i} out of range for vocab of {len(self.tokens)}")
            if not keep_specials and i < 4:
                continue
            out.append(self.tokens[i])
        return out

    def to_dict(self) -> dict:
        return {"tokens": list(self.tokens)}

    @classmethod
    def from_dict(cls, obj: dict) -> "Vocab":
        return cls(tokens=tuple(obj["tokens"]))


def build_vocab(train_records: Sequence[RawRecord], max_size: int) -> Vocab:
    """Frequency vocab over train blogs, comments, and descriptions.

    Ranking: descending count, ties broken lexicographically.  Reserved
    tokens keep ids 0..3 and are never re-counted from the corpus.
    """
    if max_size <= 4:
        raise ValueError(f"max_size must exceed the 4 reserved ids, got {max_size}")
    counts: Counter[str] = Counter()
    for r in train_records:
        counts.update(r.blog_tokens)
        counts.update(r.comment_tokens)
        counts.update(r.description_tokens)
    for special in SPECIAL_TOKENS:
        counts.pop(special, None)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = tuple(tok for tok, _ in ranked[: max_size - 4])
    return Vocab(tokens=SPECIAL_TOKENS + kept)


@dataclass(frozen=True)
class FeatureSchema:
    """One-hot layout for the categorical profile fields plus scaled age.

    Category order within each field is first appearance in the fitting
    records; every field carries one extra "unseen" bucket.  Missing age
    maps to 0.
    """

    categories: dict[str, tuple[str, ...]]
    age_divisor: float = 100.0

    @property
    def width(self) -> int:
        return sum(len(cats) + 1 for cats in self.categories.values()) + 1

    def to_dict(self) -> dict:
        return {
            "fields": {f: list(self.categories[f]) for f in CATEGORICAL_FIELDS},
            "age_divisor": self.age_divisor,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "FeatureSchema":
        return cls(
            categories={f: tuple(obj["fields"][f]) for f in CATEGORICAL_FIELDS},
            age_divisor=float(obj["age_divisor"]),
        )


def fit_schema(train_records: Sequence[RawRecord], age_divisor: float = 100.0) -> FeatureSchema:
    if not train_records:
        raise DataError("cannot fit a feature schema on an empty training set")
    if age_divisor <= 0:
        raise ValueError(f"age_divisor must be positive, got {age_divisor}")
    categories: dict[str, tuple[str, ...]] = {}
    for fname in CATEGORICAL_FIELDS:
        seen: dict[str, None] = {}
        for r in train_records:
            val = getattr(r, fname)
            if val:
                seen.setdefault(val, None)
        categories[fname] = tuple(seen)
    return FeatureSchema(categories=categories, age_divisor=age_divisor)


def featurize_user(record: RawRecord, schema: FeatureSchema) -> np.ndarray:
    """Fixed-width float vector: per-field one-hot (+unseen bucket), then age."""
    out = np.zeros(schema.width, dtype=np.float64)
    off = 0
    for fname in CATEGORICAL_FIELDS:
        cats = schema.categories[fname]
        val = getattr(record, fname)
        try:
            pos = cats.index(val) if val else len(cats)
        except ValueError:
            pos = len(cats)  # unseen bucket
        out[off + pos] = 1.0
        off += len(cats) + 1
    out[off] = 0.0 if record.age is None else record.age / schema.age_divisor
    return out


def augment_common_words(record: RawRecord, k: int = 20) -> tuple[str, ...]:
    """Description extended with the author's first min(k, n) common words.

    Never returns an empty tuple: a fully empty result falls back to a
    single unk token so downstream attention always has one state.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    words = record.description_tokens + record.common_words[:k]
    return words if words else (UNK,)


def apply_common_words(records: Sequence[RawRecord], k: int) -> list[RawRecord]:
    """Rewrite descriptions with their augmented form (no-op when k == 0)."""
    if k == 0:
        return list(records)
    return [replace(r, description_tokens=augment_common_words(r, k)) for r in records]


def split_by_blog(
    records: Sequence[RawRecord],
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> tuple[list[RawRecord], list[RawRecord], list[RawRecord]]:
    """Partition records so each distinct blog lands in exactly one split.

    Blog identity is the exact token sequence.  Distinct blogs are shuffled
    with the seed, then cut at floor(n*train) and floor(n*dev); the
    remainder is test.  Record order inside each split follows the input.
    """
    if len(ratios) != 3 or any(r <= 0 for r in ratios):
        raise ValueError(f"ratios must be three positive numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")
    blogs = list(dict.fromkeys(r.blog_tokens for r in records))
    if len(blogs) < 3:
        raise DataError(f"need at least 3 distinct blogs to split, got {len(blogs)}")
    rng = np.random.default_rng(seed)
    order = [blogs[i] for i in rng.permutation(len(blogs))]
    n = len(order)
    n_train = int(n * ratios[0] + 1e-9)
    n_dev = int(n * ratios[1] + 1e-9)
    assign: dict[tuple[str, ...], int] = {}
    for pos, key in enumerate(order):
        assign[key] = 0 if pos < n_train else (1 if pos < n_train + n_dev else 2)
    splits: tuple[list[RawRecord], ...] = ([], [], [])
    for r in records:
        splits[assign[r.blog_tokens]].append(r)
    return splits


@dataclass(frozen=True)
class EncodedExample:
    """Model-ready ids: blog x, comment y (= bos..eos), features f, desc d."""

    x: tuple[int, ...]
    y: tuple[int, ...]
    f: np.ndarray
    d: tuple[int, ...]
    user_id: str = ""

    def __post_init__(self):
        if len(self.x) < 1:
            raise DataError("encoded blog is empty")
        if len(self.y) < 2 or self.y[0] != BOS_ID or self.y[-1] != EOS_ID:
            raise DataError("encoded comment must be <bos> ... <eos>")
        if len(self.d) < 1:
            raise DataError("encoded description is empty")

    @property
    def target_len(self) -> int:
        """Number of supervised positions (comment tokens plus eos)."""
        return len(self.y) - 1


def encode_record(record: RawRecord, vocab: Vocab, schema: FeatureSchema) -> EncodedExample:
    """Ids for one record; common words reach the description only through
    :func:`apply_common_words` beforehand."""
    d_ids = vocab.encode(record.description_tokens) or [UNK_ID]
    return EncodedExample(
        x=tuple(vocab.encode(record.blog_tokens)),
        y=(BOS_ID,) + tuple(vocab.encode(record.comment_tokens)) + (EOS_ID,),
        f=featurize_user(record, schema),
        d=tuple(d_ids),
        user_id=record.user_id,
    )


def encode_records(records: Sequence[RawRecord], vocab: Vocab, schema: FeatureSchema) -> list[EncodedExample]:
    return [encode_record(r, vocab, schema) for r in records]
