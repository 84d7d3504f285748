"""Dataset ingestion: parsing, filtering, vocab, user features, splits.

The on-disk format is line-delimited JSON, one record per line, with string
fields ``blog``, ``comment``, ``user_id`` (required) and optional profile
fields ``province``, ``city``, ``gender``, ``age``, ``marital_status``,
``description``, ``common_words``.  Text fields are whitespace-tokenized.
An author profile, one entry of ``users.json``, is a record without
``blog`` and ``comment``.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, replace
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
    "parse_profile",
    "parse_record",
    "profile_to_dict",
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


_EXCERPT_CHARS = 40


def excerpt(value) -> str:
    """The repr of a user-given value for an error line; past 40 characters,
    its first 40 and its length, so the line stays short."""
    text = repr(value)
    if len(text) <= _EXCERPT_CHARS:
        return text
    return f"{text[:_EXCERPT_CHARS]}... ({len(text)} characters)"


def _opt_str(obj: dict, key: str, where: str) -> str:
    val = obj.get(key)
    if val is None:
        return ""
    if not isinstance(val, str):
        raise DataError(f"{where}: field {key!r} must be a string")
    return val.strip()


def _req_str(obj: dict, key: str, where: str) -> str:
    if obj.get(key) is None:
        raise DataError(f"{where}: missing required field {key!r}")
    return _opt_str(obj, key, where)


def _string_list(val, what: str) -> list[str]:
    """``val`` when it is a JSON list of strings, else a DataError."""
    if not (isinstance(val, list) and all(isinstance(w, str) for w in val)):
        raise DataError(f"{what} must be a list of strings")
    return val


def parse_profile(obj, where: str) -> RawRecord:
    """The author profile of one decoded JSON object, as a RawRecord with
    no blog or comment; ``where`` prefixes every error."""
    if not isinstance(obj, dict):
        raise DataError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    age_raw = obj.get("age")
    if age_raw is None or age_raw == "":
        age = None
    elif isinstance(age_raw, bool) or not isinstance(age_raw, (int, float)):
        raise DataError(f"{where}: age must be a number, got {excerpt(age_raw)}")
    elif isinstance(age_raw, float) and not age_raw.is_integer():
        raise DataError(f"{where}: age must be an integer, got {age_raw!r}")
    else:
        age = int(age_raw)
        try:
            float(age)
        except OverflowError:
            raise DataError(f"{where}: age is too large for a float") from None
    common_raw = obj.get("common_words")
    common = () if common_raw is None else _string_list(common_raw, f"{where}: common_words")

    fields = dict(
        user_id=_req_str(obj, "user_id", where),
        province=_opt_str(obj, "province", where),
        city=_opt_str(obj, "city", where),
        gender=_opt_str(obj, "gender", where),
        marital_status=_opt_str(obj, "marital_status", where),
        age=age,
        description_tokens=tuple(_opt_str(obj, "description", where).split()),
        common_words=tuple(w for w in (s.strip() for s in common) if w),
    )
    try:
        return RawRecord(blog_tokens=(), comment_tokens=(), **fields)
    except DataError as err:
        raise DataError(f"{where}: {err}") from None


def parse_record(obj, lineno: int = 0) -> RawRecord:
    """Build a RawRecord from one decoded JSON object: a profile plus the
    ``blog`` and ``comment`` strings."""
    where = f"line {lineno}"
    return replace(
        parse_profile(obj, where),
        blog_tokens=tuple(_req_str(obj, "blog", where).split()),
        comment_tokens=tuple(_req_str(obj, "comment", where).split()),
    )


def profile_to_dict(r: RawRecord) -> dict:
    """The JSON object of one author profile, a ``users.json`` entry;
    ``parse_profile`` reads it back."""
    return {
        "user_id": r.user_id,
        "province": r.province,
        "city": r.city,
        "gender": r.gender,
        "age": r.age,
        "marital_status": r.marital_status,
        "description": " ".join(r.description_tokens),
        "common_words": list(r.common_words),
    }


def record_to_dict(r: RawRecord) -> dict:
    """The JSON object of one record; ``parse_record`` reads it back."""
    return {"blog": " ".join(r.blog_tokens), "comment": " ".join(r.comment_tokens), **profile_to_dict(r)}


def parse_dataset(path) -> list[RawRecord]:
    """Read line-delimited JSON records; blank lines are skipped.

    Raises DataError naming the 1-based line number on the first bad line,
    or the file when it is not UTF-8 text.
    """
    records = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as err:  # also an integer past the digit limit, or deep nesting
                    raise DataError(f"line {lineno}: malformed JSON ({getattr(err, 'msg', err)})") from None
                records.append(parse_record(obj, lineno))
    except UnicodeDecodeError as err:
        raise DataError(f"{path} is not UTF-8 text: {err}") from None
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
    """Token <-> id table of distinct, non-empty tokens, with four reserved
    ids: 0 pad, 1 unk, 2 bos, 3 eos."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        if tuple(self.tokens[:4]) != SPECIAL_TOKENS:
            raise DataError(f"vocab must start with {SPECIAL_TOKENS}")
        if "" in self.tokens:
            raise DataError(f"vocab token {self.tokens.index('')} is empty")
        index = {tok: i for i, tok in enumerate(self.tokens)}
        if len(index) != len(self.tokens):
            tok = next(t for t, n in Counter(self.tokens).items() if n > 1)
            raise DataError(f"vocab token {excerpt(tok)} is repeated at ids {self.tokens.index(tok)} and {index[tok]}")
        object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, toks: Iterable[str]) -> list[int]:
        idx = self.index
        return [idx.get(t, UNK_ID) for t in toks]

    def decode(self, ids: Iterable[int]) -> list[str]:
        out = []
        for i in ids:
            if not (0 <= i < len(self.tokens)):
                raise IndexError(f"token id {i} out of range for vocab of {len(self.tokens)}")
            out.append(self.tokens[i])
        return out

    def to_dict(self) -> dict:
        return {"tokens": list(self.tokens)}

    @classmethod
    def from_dict(cls, obj: dict) -> "Vocab":
        try:
            tokens = obj["tokens"]
        except (KeyError, TypeError) as err:
            raise DataError(f"malformed vocab: {err!r}") from None
        return cls(tokens=tuple(_string_list(tokens, "vocab tokens")))


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
    records, each category once; every field carries one extra "unseen"
    bucket.  Missing age maps to 0.
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
        try:
            fields = {f: obj["fields"][f] for f in CATEGORICAL_FIELDS}
            age_divisor = obj["age_divisor"]
            number = type(age_divisor) in (int, float) and math.isfinite(age_divisor)
        except (KeyError, TypeError, ValueError, OverflowError) as err:
            raise DataError(f"malformed feature schema: {err!r}") from None
        if not (number and age_divisor > 0):
            raise DataError(f"feature schema: age_divisor must be a finite positive number, got {excerpt(age_divisor)}")
        categories = {f: tuple(_string_list(cats, f"feature schema field {f!r}")) for f, cats in fields.items()}
        repeats = [(f, c) for f, cats in categories.items() for c, n in Counter(cats).items() if n > 1]
        if repeats:
            raise DataError(f"feature schema field {repeats[0][0]!r} repeats the category {excerpt(repeats[0][1])}")
        return cls(categories=categories, age_divisor=float(age_divisor))


def fit_schema(train_records: Sequence[RawRecord]) -> FeatureSchema:
    if not train_records:
        raise DataError("cannot fit a feature schema on an empty training set")
    categories: dict[str, tuple[str, ...]] = {}
    for fname in CATEGORICAL_FIELDS:
        seen: dict[str, None] = {}
        for r in train_records:
            val = getattr(r, fname)
            if val:
                seen.setdefault(val, None)
        categories[fname] = tuple(seen)
    return FeatureSchema(categories=categories)


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
    # Both checks are written so that NaN and infinity fail them.
    if len(ratios) != 3 or not all(0 < r < math.inf for r in ratios):
        raise ValueError(f"ratios must be three positive numbers, got {ratios}")
    if not abs(sum(ratios) - 1.0) <= 1e-9:
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
    :func:`apply_common_words` beforehand.  An empty description is a
    single unk, so description attention always has a state."""
    return EncodedExample(
        x=tuple(vocab.encode(record.blog_tokens)),
        y=(BOS_ID,) + tuple(vocab.encode(record.comment_tokens)) + (EOS_ID,),
        f=featurize_user(record, schema),
        d=tuple(vocab.encode(record.description_tokens)) or (UNK_ID,),
        user_id=record.user_id,
    )


def encode_records(records: Sequence[RawRecord], vocab: Vocab, schema: FeatureSchema) -> list[EncodedExample]:
    return [encode_record(r, vocab, schema) for r in records]
