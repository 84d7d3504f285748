"""Dataset parsing, filtering, vocab, feature, and split tests."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pcgn import data as D
from pcgn.synthetic import synthetic_records


def rec(blog="a nice day", comment="so true", user="u1", description="", **kw):
    return D.RawRecord(
        blog_tokens=tuple(blog.split()),
        comment_tokens=tuple(comment.split()),
        user_id=user,
        description_tokens=tuple(description.split()),
        **kw,
    )


class TestParseRecord:
    def test_full_record(self):
        obj = {
            "blog": "  sunny   day ",
            "comment": "nice one",
            "user_id": " u7 ",
            "province": "zj",
            "city": "hz",
            "gender": "f",
            "age": 25,
            "marital_status": "single",
            "description": "coffee lover",
            "common_words": ["miss", " home ", ""],
        }
        r = D.parse_record(obj, lineno=3)
        assert r.blog_tokens == ("sunny", "day")
        assert r.comment_tokens == ("nice", "one")
        assert r.user_id == "u7"
        assert (r.province, r.city, r.gender, r.marital_status) == ("zj", "hz", "f", "single")
        assert r.age == 25
        assert r.description_tokens == ("coffee", "lover")
        assert r.common_words == ("miss", "home")

    def test_minimal_record_defaults(self):
        r = D.parse_record({"blog": "a b", "comment": "c d", "user_id": "u"})
        assert r.province == "" and r.city == "" and r.gender == "" and r.marital_status == ""
        assert r.age is None
        assert r.description_tokens == () and r.common_words == ()

    def test_age_forms(self):
        base = {"blog": "a b", "comment": "c d", "user_id": "u"}
        assert D.parse_record({**base, "age": None}).age is None
        assert D.parse_record({**base, "age": ""}).age is None
        assert D.parse_record({**base, "age": 30.0}).age == 30

    @pytest.mark.parametrize("bad", ["thirty", 25.5, True, -1, pytest.param(10**400, id="float-overflow")])
    def test_bad_age_rejected_with_line(self, bad):
        with pytest.raises(D.DataError, match="line 9"):
            D.parse_record({"blog": "a b", "comment": "c d", "user_id": "u", "age": bad}, lineno=9)

    @pytest.mark.parametrize("missing", ["blog", "comment", "user_id"])
    def test_missing_required_field(self, missing):
        obj = {"blog": "a b", "comment": "c d", "user_id": "u"}
        del obj[missing]
        with pytest.raises(D.DataError, match=missing):
            D.parse_record(obj, lineno=2)

    def test_null_required_field(self):
        with pytest.raises(D.DataError, match="blog"):
            D.parse_record({"blog": None, "comment": "c d", "user_id": "u"})

    def test_non_object_rejected(self):
        with pytest.raises(D.DataError, match="line 5"):
            D.parse_record([1, 2], lineno=5)

    def test_blank_user_id_rejected(self):
        with pytest.raises(D.DataError, match="user_id"):
            D.parse_record({"blog": "a b", "comment": "c d", "user_id": "  "})

    def test_bad_optional_string_names_the_line_once(self):
        with pytest.raises(D.DataError) as err:
            D.parse_record({"blog": "a b", "comment": "c d", "user_id": "u", "city": 5}, lineno=7)
        assert str(err.value) == "line 7: field 'city' must be a string"

    def test_common_words_must_be_string_list(self):
        with pytest.raises(D.DataError, match="common_words"):
            D.parse_record({"blog": "a b", "comment": "c d", "user_id": "u", "common_words": "x y"})

    def test_raw_record_validation(self):
        with pytest.raises(D.DataError):
            D.RawRecord(blog_tokens=("a",), comment_tokens=("b", ""), user_id="u")
        with pytest.raises(D.DataError):
            D.RawRecord(blog_tokens=("a",), comment_tokens=("b",), user_id="u", age=-3)


# Records as parse_record builds them: profile strings stripped, text
# fields split on whitespace into non-empty tokens.
_stripped = st.text(max_size=6).filter(lambda s: s == s.strip())
_tokens = st.lists(st.text(min_size=1, max_size=6).filter(lambda s: s.split() == [s]), max_size=4).map(tuple)
_records = st.builds(
    D.RawRecord,
    blog_tokens=_tokens,
    comment_tokens=_tokens,
    user_id=_stripped.filter(bool),
    province=_stripped,
    city=_stripped,
    gender=_stripped,
    marital_status=_stripped,
    age=st.none() | st.integers(0, 200),
    description_tokens=_tokens,
    common_words=st.lists(_stripped.filter(bool), max_size=3).map(tuple),
)


@given(_records)
@settings(max_examples=100, deadline=None)
def test_record_to_dict_inverts_parse_record(record):
    line = json.dumps(D.record_to_dict(record), sort_keys=True)
    assert D.parse_record(json.loads(line)) == record
    entry = json.dumps(D.profile_to_dict(record), sort_keys=True)
    assert D.parse_profile(json.loads(entry), "entry") == replace(record, blog_tokens=(), comment_tokens=())


def _json_type(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


def _paths(doc, path=()):
    """Every position in a JSON document, the document itself included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


_PROFILE = rec(province="p", city="c", gender="f", marital_status="m", age=30, description="d e",
               common_words=("w",))
# artifact -> (its reader, a valid document)
_READERS = {
    "vocab.json": (D.Vocab.from_dict, {"tokens": [*D.SPECIAL_TOKENS, "a", "b"]}),
    "schema.json": (D.FeatureSchema.from_dict, D.fit_schema([_PROFILE]).to_dict()),
    "users.json entry": (lambda obj: D.parse_profile(obj, "users.json entry"), D.profile_to_dict(_PROFILE)),
}


@given(st.sampled_from(sorted(_READERS)), st.data())
@settings(max_examples=300, deadline=None)
def test_readers_answer_a_swapped_json_type_with_a_data_error(artifact, data):
    read, doc = _READERS[artifact]
    path = data.draw(st.sampled_from(list(_paths(doc))))
    doc = json.loads(json.dumps(doc))
    parent, old = None, doc
    for key in path:
        parent, old = old, old[key]
    value = data.draw(_json_values.filter(lambda v: _json_type(v) != _json_type(old)))
    if parent is None:
        doc = value
    else:
        parent[path[-1]] = value
    try:
        read(doc)
    except D.DataError:
        pass


class TestParseDataset:
    def test_reads_lines_and_skips_blanks(self, tmp_path):
        path = tmp_path / "data.jsonl"
        lines = [
            json.dumps({"blog": "a b", "comment": "c d", "user_id": "u1"}),
            "",
            json.dumps({"blog": "e f", "comment": "g h", "user_id": "u2"}),
            "   ",
        ]
        path.write_text("\n".join(lines) + "\n")
        records = D.parse_dataset(path)
        assert [r.user_id for r in records] == ["u1", "u2"]

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        good = json.dumps({"blog": "a b", "comment": "c d", "user_id": "u1"})
        path.write_text(good + "\n" + good + "\n{not json\n")
        with pytest.raises(D.DataError, match="line 3"):
            D.parse_dataset(path)

    def test_bad_record_names_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        good = json.dumps({"blog": "a b", "comment": "c d", "user_id": "u1"})
        bad = json.dumps({"blog": "a b", "user_id": "u1"})
        path.write_text(good + "\n\n" + bad + "\n")
        with pytest.raises(D.DataError, match="line 3"):
            D.parse_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("")
        assert D.parse_dataset(path) == []


class TestFilterRecords:
    def test_length_then_user_count(self):
        records = [
            rec(user="a"),                       # kept
            rec(user="a", comment="hm"),         # kept (2 tokens? "hm" is 1) -> dropped
            rec(user="a", blog="x"),             # short blog -> dropped
            rec(user="a", comment="fine words"),  # kept
            rec(user="b", comment="just one ok"),  # only record for b -> dropped
            rec(user="c"), rec(user="c"),        # both kept
        ]
        out = D.filter_records(records, min_tokens=2, min_user_records=2)
        assert [r.user_id for r in out] == ["a", "a", "c", "c"]

    def test_user_counts_taken_after_length_filter(self):
        records = [rec(user="a"), rec(user="a", blog="x")]
        # after dropping the short blog only one record remains for a
        assert D.filter_records(records, 2, 2) == []

    def test_preserves_order(self):
        records = [rec(user="a", comment=f"word {i}") for i in range(4)]
        out = D.filter_records(records)
        assert out == records

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            D.filter_records([], min_tokens=0)
        with pytest.raises(ValueError):
            D.filter_records([], min_user_records=0)


class TestVocab:
    def test_frequency_then_lexicographic(self):
        records = [
            rec(blog="b b a", comment="a c", user="u1"),
            rec(blog="b d", comment="a d", user="u1", description="d"),
        ]
        # counts: a=3, b=3, c=1, d=3 -> ties a,b,d lexicographic
        v = D.build_vocab(records, max_size=10)
        assert v.tokens == D.SPECIAL_TOKENS + ("a", "b", "d", "c")

    def test_truncation(self):
        records = [rec(blog="a a a b b c", comment="x y", user="u")]
        v = D.build_vocab(records, max_size=6)
        assert len(v) == 6
        assert v.tokens[4:] == ("a", "b")

    def test_descriptions_are_counted(self):
        records = [rec(user="u", description="zz zz zz zz")]
        v = D.build_vocab(records, max_size=20)
        assert v.tokens[4] == "zz"

    def test_specials_never_recounted(self):
        records = [rec(blog="<unk> <unk> words here", comment="fine text", user="u")]
        v = D.build_vocab(records, max_size=20)
        assert v.tokens.count("<unk>") == 1
        assert v.index["<unk>"] == D.UNK_ID

    def test_reserved_ids(self):
        v = D.build_vocab([rec()], max_size=10)
        assert v.encode(["<pad>", "<unk>", "<bos>", "<eos>"]) == [0, 1, 2, 3]

    def test_encode_unknown_maps_to_unk(self):
        v = D.build_vocab([rec(blog="a b", comment="c d", user="u")], max_size=10)
        assert v.encode(["a", "zzz"]) == [v.index["a"], D.UNK_ID]

    def test_decode_keeps_specials(self):
        v = D.build_vocab([rec(blog="a b", comment="c d", user="u")], max_size=10)
        ids = [D.BOS_ID, v.index["a"], D.EOS_ID]
        assert v.decode(ids) == ["<bos>", "a", "<eos>"]

    def test_decode_out_of_range(self):
        v = D.build_vocab([rec()], max_size=10)
        with pytest.raises(IndexError):
            v.decode([len(v)])

    def test_roundtrip_dict(self):
        v = D.build_vocab([rec()], max_size=10)
        assert D.Vocab.from_dict(v.to_dict()) == v

    def test_must_start_with_specials(self):
        with pytest.raises(ValueError):
            D.Vocab(tokens=("a", "b", "c", "d", "e"))

    def test_tokens_are_distinct_and_non_empty(self):
        with pytest.raises(D.DataError, match="'a' is repeated at ids 4 and 5"):
            D.Vocab.from_dict({"tokens": list(D.SPECIAL_TOKENS) + ["a", "a"]})
        # A second <bos> would take encode(["<bos>"]) to id 4.
        with pytest.raises(D.DataError, match="'<bos>' is repeated at ids 2 and 4"):
            D.Vocab(tokens=D.SPECIAL_TOKENS + ("<bos>",))
        with pytest.raises(D.DataError, match="vocab token 5 is empty"):
            D.Vocab(tokens=D.SPECIAL_TOKENS + ("a", ""))

    def test_max_size_must_exceed_reserved(self):
        with pytest.raises(ValueError):
            D.build_vocab([rec()], max_size=4)


class TestFeatures:
    def make_schema(self):
        records = [
            rec(user="u1", province="px", city="ca", gender="f", marital_status="m"),
            rec(user="u2", province="py", city="ca", gender="", marital_status=""),
        ]
        return D.fit_schema(records)

    def test_first_appearance_order(self):
        schema = self.make_schema()
        assert schema.categories["province"] == ("px", "py")
        assert schema.categories["city"] == ("ca",)
        assert schema.categories["gender"] == ("f",)
        assert schema.categories["marital_status"] == ("m",)

    def test_width_formula(self):
        schema = self.make_schema()
        # (2+1) + (1+1) + (1+1) + (1+1) + 1
        assert schema.width == 10

    def test_featurize_layout(self):
        schema = self.make_schema()
        r = rec(user="u1", province="py", city="ca", gender="f", marital_status="m", age=25)
        f = D.featurize_user(r, schema)
        assert f.shape == (10,)
        assert f[1] == 1.0  # province py
        assert f[3] == 1.0  # city ca
        assert f[5] == 1.0  # gender f
        assert f[7] == 1.0  # marital m
        assert f[9] == 0.25  # age / 100

    def test_unseen_and_missing_go_to_extra_bucket(self):
        schema = self.make_schema()
        r = rec(user="u9", province="pz", city="", gender="f", marital_status="m")
        f = D.featurize_user(r, schema)
        assert f[2] == 1.0  # unseen province bucket
        assert f[4] == 1.0  # missing city bucket

    def test_missing_age_is_zero(self):
        schema = self.make_schema()
        f = D.featurize_user(rec(user="u1"), schema)
        assert f[-1] == 0.0

    def test_fit_rejects_empty(self):
        with pytest.raises(D.DataError):
            D.fit_schema([])
        doc = D.fit_schema([rec()]).to_dict()
        with pytest.raises(D.DataError, match="age_divisor"):
            D.FeatureSchema.from_dict({**doc, "age_divisor": 0.0})
        with pytest.raises(D.DataError, match="malformed feature schema"):
            D.FeatureSchema.from_dict({**doc, "age_divisor": 10**400})
        # Only a finite, positive JSON number: no string, bool or infinity.
        for bad in ("100", "1e2", True, float("inf"), json.loads("1e400"), json.loads("Infinity"), -1.0):
            with pytest.raises(D.DataError, match="age_divisor must be a finite positive number"):
                D.FeatureSchema.from_dict({**doc, "age_divisor": bad})
        assert D.FeatureSchema.from_dict({**doc, "age_divisor": 50}).age_divisor == 50.0

    def test_repeated_category_rejected(self):
        doc = self.make_schema().to_dict()
        doc["fields"]["province"] = ["x", "x"]
        with pytest.raises(D.DataError, match="field 'province' repeats the category 'x'"):
            D.FeatureSchema.from_dict(doc)

    def test_schema_roundtrip(self):
        schema = self.make_schema()
        again = D.FeatureSchema.from_dict(schema.to_dict())
        assert again == schema


class TestCommonWords:
    def test_augmentation_order_and_cap(self):
        r = rec(user="u", description="likes cats", common_words=("x", "y", "z"))
        assert D.augment_common_words(r, k=2) == ("likes", "cats", "x", "y")
        assert D.augment_common_words(r, k=0) == ("likes", "cats")
        assert D.augment_common_words(r, k=99) == ("likes", "cats", "x", "y", "z")

    def test_empty_falls_back_to_unk(self):
        assert D.augment_common_words(rec(user="u"), k=0) == (D.UNK,)
        assert D.augment_common_words(rec(user="u"), k=5) == (D.UNK,)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            D.augment_common_words(rec(user="u"), k=-1)

    def test_apply_is_noop_at_zero(self):
        records = [rec(user="u", common_words=("w",))]
        assert D.apply_common_words(records, 0) == records

    def test_apply_rewrites_descriptions(self):
        records = [rec(user="u", description="d", common_words=("w", "v"))]
        out = D.apply_common_words(records, 1)
        assert out[0].description_tokens == ("d", "w")
        assert out[0].comment_tokens == records[0].comment_tokens


class TestSplit:
    def corpus(self, n_blogs=10, per_blog=2):
        records = []
        for b in range(n_blogs):
            for u in range(per_blog):
                records.append(rec(blog=f"blog number {b}", comment=f"note {u}", user=f"u{u}"))
        return records

    def test_eight_one_one_blogs(self):
        train, dev, test = D.split_by_blog(self.corpus(10))
        def blogs(split):
            return {r.blog_tokens for r in split}
        assert len(blogs(train)) == 8 and len(blogs(dev)) == 1 and len(blogs(test)) == 1
        assert len(train) + len(dev) + len(test) == 20

    def test_blogs_never_straddle_splits(self):
        train, dev, test = D.split_by_blog(self.corpus(7, per_blog=3))
        sets = [{r.blog_tokens for r in s} for s in (train, dev, test)]
        assert not (sets[0] & sets[1]) and not (sets[0] & sets[2]) and not (sets[1] & sets[2])

    def test_deterministic_per_seed(self):
        a = D.split_by_blog(self.corpus(), seed=5)
        b = D.split_by_blog(self.corpus(), seed=5)
        assert a == b

    def test_seed_changes_assignment(self):
        base = self.corpus(20)
        outcomes = {tuple(r.blog_tokens for r in D.split_by_blog(base, seed=s)[2]) for s in range(6)}
        assert len(outcomes) > 1

    def test_order_preserved_within_split(self):
        records = self.corpus(5)
        train, dev, test = D.split_by_blog(records)
        for split in (train, dev, test):
            positions = [records.index(r) for r in split]
            assert positions == sorted(positions)

    def test_too_few_blogs(self):
        with pytest.raises(D.DataError, match="3 distinct blogs"):
            D.split_by_blog(self.corpus(2))

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            D.split_by_blog(self.corpus(), ratios=(0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            D.split_by_blog(self.corpus(), ratios=(1.0, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_ratios(self, bad):
        for ratios in ((bad, 0.1, 0.1), (0.8, bad, 0.1), (0.8, 0.1, bad)):
            with pytest.raises(ValueError, match="ratios must be three positive numbers"):
                D.split_by_blog(self.corpus(), ratios=ratios)

    @pytest.mark.parametrize("n, users, fragment", [
        (0, 4, "n must be >= 1, got 0"),
        (12, 0, "users must be >= 1, got 0"),
        (8, 4, "yields 2 blogs; need at least 3"),
    ])
    def test_synthetic_corpus_must_be_splittable(self, n, users, fragment):
        with pytest.raises(ValueError, match=fragment):
            synthetic_records(n, users=users)


class TestEncode:
    def setup_method(self):
        self.records = [
            rec(blog="a b c", comment="d e", user="u1", description="f g"),
            rec(blog="a b c", comment="d d", user="u2"),
        ]
        self.vocab = D.build_vocab(self.records, max_size=20)
        self.schema = D.fit_schema(self.records)

    def test_comment_framing(self):
        ex = D.encode_record(self.records[0], self.vocab, self.schema)
        assert ex.y[0] == D.BOS_ID and ex.y[-1] == D.EOS_ID
        assert len(ex.y) == 4
        assert ex.target_len == 3

    def test_unknown_tokens_become_unk(self):
        r = rec(blog="a zzz", comment="d qqq", user="u1")
        ex = D.encode_record(r, self.vocab, self.schema)
        assert ex.x[1] == D.UNK_ID
        assert ex.y[2] == D.UNK_ID

    def test_empty_description_becomes_unk(self):
        ex = D.encode_record(self.records[1], self.vocab, self.schema)
        assert ex.d == (D.UNK_ID,)

    def test_comword_augmentation_feeds_description(self):
        r = rec(blog="a b", comment="d e", user="u1", description="f", common_words=("g",))
        plain = D.encode_record(r, self.vocab, self.schema)
        (augmented_record,) = D.apply_common_words([r], 1)
        augmented = D.encode_record(augmented_record, self.vocab, self.schema)
        assert len(augmented.d) == len(plain.d) + 1

    def test_feature_vector_width(self):
        ex = D.encode_record(self.records[0], self.vocab, self.schema)
        assert ex.f.shape == (self.schema.width,)

    def test_encoded_example_validation(self):
        f = np.zeros(3)
        with pytest.raises(D.DataError):
            D.EncodedExample(x=(), y=(2, 3), f=f, d=(1,))
        with pytest.raises(D.DataError):
            D.EncodedExample(x=(5,), y=(5, 3), f=f, d=(1,))
        with pytest.raises(D.DataError):
            D.EncodedExample(x=(5,), y=(2, 5), f=f, d=(1,))
        with pytest.raises(D.DataError):
            D.EncodedExample(x=(5,), y=(2, 3), f=f, d=())


words = st.text(alphabet="abcde", min_size=1, max_size=3)


@st.composite
def record_lists(draw):
    n = draw(st.integers(1, 12))
    records = []
    for i in range(n):
        blog_id = draw(st.integers(0, 5))
        records.append(
            rec(
                blog=f"entry number {blog_id}",
                comment=draw(words) + " " + draw(words),
                user=f"u{draw(st.integers(0, 3))}",
            )
        )
    return records


@given(record_lists(), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=50, deadline=None)
def test_filter_is_idempotent(records, min_tokens, min_user):
    once = D.filter_records(records, min_tokens, min_user)
    twice = D.filter_records(once, min_tokens, min_user)
    assert once == twice


@given(record_lists(), st.integers(0, 100))
@settings(max_examples=50, deadline=None)
def test_split_partitions_records(records, seed):
    assume(len({r.blog_tokens for r in records}) >= 3)
    train, dev, test = D.split_by_blog(records, seed=seed)
    assert sorted(map(id, train + dev + test)) == sorted(map(id, records))
    blog_sets = [{r.blog_tokens for r in s} for s in (train, dev, test)]
    assert not (blog_sets[0] & blog_sets[1])
    assert not (blog_sets[0] & blog_sets[2])
    assert not (blog_sets[1] & blog_sets[2])


@given(record_lists())
@settings(max_examples=30, deadline=None)
def test_featurize_is_one_hot_per_field(records):
    schema = D.fit_schema(records)
    for r in records:
        f = D.featurize_user(r, schema)
        assert f.shape == (schema.width,)
        # exactly one indicator per categorical field
        assert f[:-1].sum() == len(D.CATEGORICAL_FIELDS)
        assert set(np.unique(f[:-1])) <= {0.0, 1.0}
