"""End-to-end tests for the command-line interface.

Every command runs in-process through ``cli.main`` so exit codes, stdout,
and artifacts can be checked directly.  Training fixtures use tiny
dimensions and few epochs; reruns with identical arguments must reproduce
artifacts byte for byte.
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pcgn import cli
from pcgn.autodiff import NonFiniteError
from pcgn.checkpoint import load_checkpoint, save_checkpoint
from pcgn.data import encode_record, encode_records, parse_dataset, parse_profile
from pcgn.decoding import DecodeConfig, beam_search
from pcgn.metrics import EvalPair, bleu2, meteor_lite
from pcgn.training import dataset_perplexity

from conftest import nan_cell_params

REPO = Path(__file__).resolve().parents[1]
SAMPLE_DATA = REPO / "data" / "sample_dataset.jsonl"

PREPARE_ARGS = [
    "prepare", "--synthetic", "24", "--synthetic-users", "3", "--seed", "0",
    "--train-ratio", "0.6", "--dev-ratio", "0.2", "--test-ratio", "0.2",
]
PREP_ARTIFACTS = (
    "train.jsonl", "dev.jsonl", "test.jsonl", "vocab.json", "schema.json",
    "users.json", "report.json", "report.txt",
)


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def train_args(data_dir, out_dir, variant="PCGN", epochs="60", seed="0"):
    return [
        "train", "--data-dir", str(data_dir), "--out-dir", str(out_dir),
        "--variant", variant, "--seed", seed,
        "--lr", "1.0", "--batch-size", "12", "--epochs", epochs,
    ]


def ablate_args(data_dir, out_dir, comword_data):
    return [
        "ablate", "--data-dir", str(data_dir), "--out-dir", str(out_dir),
        "--seed", "0", "--lr", "1.0", "--batch-size", "12", "--epochs", "10",
        "--eval-split", "test", "--comword-data", str(comword_data),
    ]


@pytest.fixture(scope="module")
def prep_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("prep")
    assert cli.main(PREPARE_ARGS + ["--out-dir", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def prep_cw_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("prep_cw")
    assert cli.main(PREPARE_ARGS + ["--comword-k", "2", "--out-dir", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def pcgn_dir(tmp_path_factory, prep_dir):
    out = tmp_path_factory.mktemp("pcgn_run")
    assert cli.main(train_args(prep_dir, out)) == 0
    return out


@pytest.fixture(scope="module")
def seq2seq_dir(tmp_path_factory, prep_dir):
    out = tmp_path_factory.mktemp("seq2seq_run")
    assert cli.main(train_args(prep_dir, out, variant="Seq2Seq", epochs="12")) == 0
    return out


@pytest.fixture(scope="module")
def ablation_dir(tmp_path_factory, prep_dir, prep_cw_dir):
    out = tmp_path_factory.mktemp("ablation")
    assert cli.main(ablate_args(prep_dir, out, prep_cw_dir)) == 0
    return out


class TestConfigResolution:
    def test_config_file_sets_fields(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# training knobs\n\nepochs = 7\nvariant = Seq2Seq\nlr = 0.25\nwith_emb = yes\n",
            encoding="utf-8",
        )
        cfg = cli.resolve_run_config(argparse.Namespace(config=str(path)))
        assert cfg.epochs == 7
        assert cfg.variant == "Seq2Seq"
        assert cfg.lr == 0.25
        assert cfg.with_emb is True

    def test_flags_override_config_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 5\nsynthetic = 24\nsynthetic_users = 3\n", encoding="utf-8")
        out = tmp_path / "prep"
        rc = cli.main(["prepare", "--config", str(path), "--seed", "6", "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["config"]["seed"] == 6
        assert report["config"]["synthetic"] == 24

    def test_unknown_config_key_exits_1(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("learning_rate = 0.5\n", encoding="utf-8")
        assert cli.main(["prepare", "--config", str(path), "--synthetic", "24"]) == 1
        assert "unknown key" in capsys.readouterr().err

    def test_unparseable_config_value_exits_1(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = three\n", encoding="utf-8")
        assert cli.main(["prepare", "--config", str(path), "--synthetic", "24"]) == 1
        assert "epochs" in capsys.readouterr().err

    def test_config_line_without_equals_exits_1(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("epochs\n", encoding="utf-8")
        assert cli.main(["prepare", "--config", str(path), "--synthetic", "24"]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert cli.main(["prepare", "--config", str(missing), "--synthetic", "24"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_bad_bool_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("with_emb = maybe\n", encoding="utf-8")
        with pytest.raises(cli.UsageError, match="with_emb"):
            cli.resolve_run_config(argparse.Namespace(config=str(path)))

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("command", ["prepare", "train"])
    def test_negative_seed_exits_1(self, command, how, prep_dir, tmp_path, capsys):
        if command == "prepare":
            argv = PREPARE_ARGS + ["--out-dir", str(tmp_path / "out")]
        else:
            argv = train_args(prep_dir, tmp_path / "out", epochs="1")
        del argv[argv.index("--seed") : argv.index("--seed") + 2]
        if how == "flag":
            argv += ["--seed", "-4"]
        else:
            (tmp_path / "run.cfg").write_text("seed = -1\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("usage error: seed must be >= 0")
        assert not (tmp_path / "out").exists()


def _config_mutations():
    """(id, mutate) pairs; mutate maps a valid config file's bytes to bad ones."""
    def append(text):
        return lambda base: base + text.encode()

    cases = [
        ("line without equals", append("epochs 3\n")),
        ("unknown key", append("learning_rate = 0.5\n")),
        ("5000-digit integer", append("epochs = " + "9" * 5000 + "\n")),
        ("non-UTF-8 bytes", lambda base: base + b"variant = PCGN\xff\xfe\n"),
        ("non-UTF-8 key", lambda base: b"\xc3\x28 = 1\n" + base),
    ]
    bad = {"int": ["three", "2.5", "1e3", ""], "float": ["fast", "1,5", ""], "bool": ["maybe", "2", ""]}
    for key, kind in cli._CONFIG_FIELDS.items():
        for value in bad.get(kind, ()):
            cases.append((f"{key}={value!r}", append(f"{key} = {value}\n")))
    return cases


class TestConfigFileMutations:
    """``pcgn train --config`` on a valid file mutated one way at a time:
    each mutation exits 1 with a usage error, never a traceback or exit 3."""

    @pytest.fixture
    def base(self, prep_dir, tmp_path):
        text = (
            f"data_dir = {prep_dir}\nout_dir = {tmp_path / 'out'}\nseed = 0\nvariant = PCGN\n"
            "lr = 1.0\nbatch_size = 12\nepochs = 1\nclip_norm = 5.0\nwith_emb = no\n"
        ).encode()
        path = tmp_path / "run.cfg"
        path.write_bytes(text)
        cfg = cli.resolve_run_config(cli.build_parser().parse_args(["train", "--config", str(path)]))
        assert (cfg.data_dir, cfg.epochs, cfg.with_emb) == (str(prep_dir), 1, False)
        return path, text

    @pytest.mark.parametrize("mutate", [pytest.param(m, id=i) for i, m in _config_mutations()])
    def test_mutation_exits_1(self, mutate, base, tmp_path, capsys):
        path, text = base
        path.write_bytes(mutate(text))
        assert cli.main(["train", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ")  # main() caught it: no traceback
        assert "config" in err.splitlines()[0]  # the message points at the file
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where", ["config", "flag", "line", "key"])
    def test_long_value_is_echoed_cut(self, where, base, capsys):
        # Only the first 40 characters of the value's repr and its length are echoed.
        path, text = base
        digits = "9" * 5000
        cut = f"{repr(digits)[:40]}... (5002 characters)"
        args = ["train", "--config", str(path)]
        if where == "flag":
            args += ["--epochs", digits]
        else:
            path.write_bytes(text + {"config": f"epochs = {digits}", "line": digits, "key": f"{digits} = 1"}[where].encode())
        assert cli.main(args) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == {
            "config": f"usage error: config key 'epochs': cannot parse {cut} as int",
            "flag": f"usage error: config key 'epochs': cannot parse {cut} as int",
            "line": f"usage error: config line 10: expected 'key = value', got {cut}",
            "key": f"usage error: config line 10: unknown key {cut}",
        }[where]


DEEP_JSON = "[" * 100_000 + "]" * 100_000  # json raises RecursionError, not a ValueError
# A value of each JSON type, for swapping a field's type.
JSON_KINDS = {"string": "text", "number": 7, "boolean": True, "array": ["a"], "object": {"a": 1}}


def _json_kind(value) -> str:
    return next(kind for kind, t in (("boolean", bool), ("number", (int, float)), ("string", str),
                                     ("array", list), ("object", dict)) if isinstance(value, t))


def _record_mutations(base: dict, required: tuple[str, ...]):
    """(id, mutate) pairs; mutate(doc, entry) turns a file ``doc`` holding
    ``base`` as the JSON text ``entry`` into a malformed one.  ``required``
    names the keys that may not be dropped."""
    def entry_as(obj_or_text):
        new = obj_or_text if isinstance(obj_or_text, str) else json.dumps(obj_or_text)
        return lambda doc, entry: doc.replace(entry, new.encode(), 1)

    def with_age(literal):
        return entry_as(json.dumps({**base, "age": None}).replace('"age": null', f'"age": {literal}'))

    text = json.dumps(base)
    cases = [(f"drop {key}", entry_as({k: v for k, v in base.items() if k != key})) for key in required]
    for key, val in base.items():
        for kind, other in JSON_KINDS.items():
            if kind != _json_kind(val):
                cases.append((f"{key} as {kind}", entry_as({**base, key: other})))
            elif kind == "array":
                cases.append((f"{key} as array of numbers", entry_as({**base, key: [7]})))
    cases += [
        ("truncated", entry_as(text[: len(text) // 2])),
        ("non-UTF-8 bytes", lambda doc, entry: doc.replace(entry, entry.replace(b': "', b': "\xff\xfe', 1), 1)),
        ("BOM", lambda doc, entry: b"\xef\xbb\xbf" + doc),
        ("age NaN", with_age("NaN")),
        ("age 1e309", with_age("1e309")),
        ("age of 5000 digits", with_age("9" * 5000)),
        ("age as a 5000-character string", entry_as({**base, "age": "9" * 5000})),
        ("nested past the recursion limit", entry_as(DEEP_JSON)),
    ]
    return cases


SAMPLE_FIRST = json.loads(SAMPLE_DATA.read_text(encoding="utf-8").splitlines()[0])
PROFILE_KEYS = ("user_id", "province", "city", "gender", "age", "marital_status", "description", "common_words")


class TestInputMutations:
    """``pcgn prepare --input`` on the sample corpus with its first record
    mutated one way at a time: each mutation exits 2 with one data error
    line, never a traceback or exit 3."""

    def run(self, tmp_path, mutate):
        doc = SAMPLE_DATA.read_bytes()
        entry = doc.splitlines()[0]
        assert json.loads(entry) == SAMPLE_FIRST
        path = tmp_path / "in.jsonl"
        path.write_bytes(mutate(doc, entry))
        return cli.main(["prepare", "--input", str(path), "--out-dir", str(tmp_path / "out")])

    @pytest.mark.parametrize("mutate", [pytest.param(m, id=i) for i, m in
                                        _record_mutations(SAMPLE_FIRST, ("blog", "comment", "user_id"))])
    def test_mutation_exits_2(self, mutate, tmp_path, capsys):
        assert self.run(tmp_path, mutate) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("data error: ") and len(line) < 400
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", [k for k in PROFILE_KEYS if k != "user_id"])
    def test_optional_key_may_be_absent(self, key, tmp_path):
        line = json.dumps({k: v for k, v in SAMPLE_FIRST.items() if k != key})
        assert self.run(tmp_path, lambda doc, entry: doc.replace(entry, line.encode(), 1)) == 0


class TestUsersFileMutations:
    """``pcgn generate --user`` with its ``users.json`` entry mutated one way
    at a time: each mutation exits 2 with one data error line, never a
    traceback or exit 3."""

    BASE = {"user_id": "u00", "province": "north", "city": "city0", "gender": "F", "age": 20,
            "marital_status": "single", "description": "loves sunny", "common_words": ["sunny", "really"]}

    def run(self, pcgn_dir, tmp_path, mutate=lambda doc, entry: doc):
        entry = json.dumps(self.BASE).encode()
        (tmp_path / "users.json").write_bytes(mutate(b'{"u00": ' + entry + b"}", entry))
        return cli.main(["generate", "--checkpoint", str(pcgn_dir / "checkpoint_final.json"),
                         "--data-dir", str(tmp_path), "--blog", "new post", "--user", "u00"])

    def test_base_entry_is_valid(self, pcgn_dir, tmp_path, capsys):
        assert self.run(pcgn_dir, tmp_path) == 0
        assert "u00" in capsys.readouterr().out

    @pytest.mark.parametrize("mutate", [pytest.param(m, id=i) for i, m in
                                        _record_mutations(BASE, ("user_id",))])
    def test_mutation_exits_2(self, mutate, pcgn_dir, tmp_path, capsys):
        assert self.run(pcgn_dir, tmp_path, mutate) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("data error: ") and len(line) < 400


class TestPrepare:
    def test_artifacts_and_checksums(self, prep_dir):
        for name in PREP_ARTIFACTS:
            assert (prep_dir / name).exists(), name
        report = json.loads((prep_dir / "report.json").read_text(encoding="utf-8"))
        for name, digest in report["artifacts"].items():
            assert digest == sha256(prep_dir / name)
        assert report["counts"]["total"] == {"users": 3, "comments": 24, "microblogs": 8}
        assert report["counts"]["train"]["comments"] == 12
        assert report["vocab_size"] > 4
        assert report["feature_dim"] > 0

    def test_report_table(self, prep_dir):
        table = (prep_dir / "report.txt").read_text(encoding="utf-8")
        lines = table.splitlines()
        assert lines[0].split() == ["Statistic", "Train", "Dev", "Test", "Total"]
        assert [ln.split()[0] for ln in lines[1:]] == ["Users", "Comments", "Microblogs"]

    def test_rerun_is_byte_identical(self, prep_dir):
        before = {name: (prep_dir / name).read_bytes() for name in PREP_ARTIFACTS}
        assert cli.main(PREPARE_ARGS + ["--out-dir", str(prep_dir)]) == 0
        for name in PREP_ARTIFACTS:
            assert (prep_dir / name).read_bytes() == before[name], name

    def test_prepare_from_file(self, tmp_path):
        out = tmp_path / "prep"
        rc = cli.main(["prepare", "--input", str(SAMPLE_DATA), "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert report["source"]["sha256"] == sha256(SAMPLE_DATA)
        assert report["counts"]["total"] == {"users": 4, "comments": 20, "microblogs": 5}
        users = json.loads((out / "users.json").read_text(encoding="utf-8"))
        assert set(users) == {"maya", "ravi", "lena", "omar"}
        assert users["lena"]["age"] is None
        assert users["omar"]["common_words"] == []

    def test_input_and_synthetic_are_exclusive(self, tmp_path, capsys):
        args = ["prepare", "--out-dir", str(tmp_path / "x")]
        assert cli.main(args + ["--input", str(SAMPLE_DATA), "--synthetic", "8"]) == 1
        assert cli.main(args) == 1
        assert "exactly one source" in capsys.readouterr().err

    def test_single_blog_corpus_exits_2(self, tmp_path, capsys):
        data = tmp_path / "flat.jsonl"
        rows = [
            {"blog": "same blog here", "comment": f"reply {i} ok", "user_id": f"u{i % 2}"}
            for i in range(4)
        ]
        data.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        rc = cli.main(["prepare", "--input", str(data), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        assert "3 distinct blogs" in capsys.readouterr().err

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        rc = cli.main(["prepare", "--input", str(tmp_path / "gone.jsonl")])
        assert rc == 2
        assert "data error" in capsys.readouterr().err

    def test_bad_ratios_exit_1(self, tmp_path, capsys):
        rc = cli.main(PREPARE_ARGS[:-6] + ["--train-ratio", "0.9", "--dev-ratio", "0.2",
                                           "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        assert "sum to 1" in capsys.readouterr().err

    @pytest.mark.parametrize("ratio", ["nan", "inf", "-inf"])
    def test_non_finite_ratio_exits_1(self, ratio, tmp_path, capsys):
        rc = cli.main(["prepare", "--synthetic", "60", f"--train-ratio={ratio}", "--out-dir", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "ratios must be three positive numbers" in err
        assert "Traceback" not in err

    def test_out_dir_env_fallback_and_flag_override(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("PCGN_OUT_DIR", str(env_dir))
        assert cli.main(PREPARE_ARGS) == 0
        assert (env_dir / "report.json").exists()

        flag_dir = tmp_path / "from_flag"
        assert cli.main(PREPARE_ARGS + ["--out-dir", str(flag_dir)]) == 0
        report = json.loads((flag_dir / "report.json").read_text(encoding="utf-8"))
        assert report["config"]["out_dir"] == str(flag_dir)


class TestTrain:
    def test_artifacts(self, pcgn_dir):
        assert (pcgn_dir / "checkpoint_final.json").exists()
        assert (pcgn_dir / "checkpoint_best.json").exists()  # dev split is non-empty
        log = (pcgn_dir / "train_log.tsv").read_text(encoding="utf-8").splitlines()
        assert len(log) == 60
        for i, line in enumerate(log):
            epoch, loss, ppl, seconds = line.split("\t")
            assert int(epoch) == i
            assert float(loss) >= 0.0
            assert float(ppl) >= 1.0
            assert float(seconds) >= 0.0

    def test_checkpoint_metadata(self, pcgn_dir, prep_dir):
        ckpt = load_checkpoint(pcgn_dir / "checkpoint_final.json")
        assert ckpt.variant_name == "PCGN"
        assert ckpt.step == 60
        assert ckpt.vocab is not None and ckpt.schema is not None
        assert ckpt.extra["epochs_run"] == 60
        assert ckpt.extra["run_config"]["lr"] == 1.0
        assert ckpt.extra["data_checksums"]["train.jsonl"] == sha256(prep_dir / "train.jsonl")

    def test_rerun_reproduces_checkpoint_bytes(self, prep_dir, pcgn_dir):
        def loss_columns(path):
            # drop the wall-clock column, the only nondeterministic artifact field
            return [ln.split("\t")[:3] for ln in Path(path).read_text(encoding="utf-8").splitlines()]
        final_before = (pcgn_dir / "checkpoint_final.json").read_bytes()
        best_before = (pcgn_dir / "checkpoint_best.json").read_bytes()
        log_before = loss_columns(pcgn_dir / "train_log.tsv")
        assert cli.main(train_args(prep_dir, pcgn_dir)) == 0
        assert (pcgn_dir / "checkpoint_final.json").read_bytes() == final_before
        assert (pcgn_dir / "checkpoint_best.json").read_bytes() == best_before
        assert loss_columns(pcgn_dir / "train_log.tsv") == log_before

    def test_seq2seq_checkpoint_has_no_user_parameters(self, seq2seq_dir):
        ckpt = load_checkpoint(seq2seq_dir / "checkpoint_final.json")
        names = [name for name, _ in ckpt.params.named_parameters()]
        banned = ("user_proj", "user_bias", "desc.", "attn_desc", "mem_", "user_mix", "out_mix")
        for name in names:
            assert not name.startswith(banned), name
        assert "out_proj" in names
        assert ckpt.variant_name == "Seq2Seq"

    def test_missing_data_dir_exits_2(self, tmp_path, capsys):
        rc = cli.main(train_args(tmp_path / "absent", tmp_path / "out"))
        assert rc == 2
        assert "run prepare first" in capsys.readouterr().err

    def test_unknown_variant_exits_1(self, prep_dir, tmp_path, capsys):
        rc = cli.main(train_args(prep_dir, tmp_path / "out", variant="Transformer"))
        assert rc == 1
        assert "Transformer" in capsys.readouterr().err

    def test_unknown_preset_exits_1(self, prep_dir, tmp_path, capsys):
        rc = cli.main(train_args(prep_dir, tmp_path / "out") + ["--preset", "laptop"])
        assert rc == 1
        assert "laptop" in capsys.readouterr().err

    def test_numeric_failure_exits_3(self, prep_dir, tmp_path, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise NonFiniteError("non-finite value in gradient")
        monkeypatch.setattr(cli, "fit", explode)
        rc = cli.main(train_args(prep_dir, tmp_path / "out"))
        assert rc == 3
        assert "numeric error" in capsys.readouterr().err


class TestGenerate:
    def test_table_and_json_output(self, pcgn_dir, prep_dir, tmp_path, capsys):
        doc_path = tmp_path / "gen.json"
        rc = cli.main([
            "generate", "--checkpoint", str(pcgn_dir / "checkpoint_final.json"),
            "--data-dir", str(prep_dir), "--blog", "new post about coffee today",
            "--user", "u00", "--top", "2", "--json", str(doc_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["User", "Comment", "LogProb"]
        assert "u00" in out
        doc = json.loads(doc_path.read_text(encoding="utf-8"))
        assert doc["blog"] == ["new", "post", "about", "coffee", "today"]
        assert doc["checkpoint_sha256"] == sha256(pcgn_dir / "checkpoint_final.json")
        (entry,) = doc["users"]
        assert entry["user_id"] == "u00"
        assert len(entry["hypotheses"]) == 2
        for hyp in entry["hypotheses"]:
            assert all(isinstance(t, int) for t in hyp["token_ids"])
            assert len(hyp["tokens"]) == len(hyp["token_ids"])
            assert math.isfinite(hyp["log_prob"])
        # beam output is sorted best-first
        scores = [h["log_prob"] for h in entry["hypotheses"]]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("length_norm", [0.0, 0.5])
    def test_json_matches_library_decode(self, length_norm, pcgn_dir, prep_dir, tmp_path):
        blog = "new post about coffee today"
        adhoc = {"user_id": "adhoc", "gender": "f", "description": ""}
        doc_path = tmp_path / "gen.json"
        rc = cli.main([
            "generate", "--checkpoint", str(pcgn_dir / "checkpoint_final.json"),
            "--data-dir", str(prep_dir), "--blog", blog, "--user", "u00", "--user", "u01",
            "--user-json", json.dumps(adhoc), "--top", "10",
            "--length-norm", str(length_norm), "--json", str(doc_path),
        ])
        assert rc == 0
        doc = json.loads(doc_path.read_text(encoding="utf-8"))

        ckpt = load_checkpoint(pcgn_dir / "checkpoint_final.json")
        users = json.loads((prep_dir / "users.json").read_text(encoding="utf-8"))
        profiles = [parse_profile(users["u00"], "u00"), parse_profile(users["u01"], "u01"),
                    parse_profile(adhoc, "adhoc")]
        decode_cfg = DecodeConfig(beam_size=10, max_len=20, length_norm=length_norm)
        assert [u["user_id"] for u in doc["users"]] == [p.user_id for p in profiles]
        for entry, profile in zip(doc["users"], profiles):
            example = encode_record(replace(profile, blog_tokens=tuple(blog.split())), ckpt.vocab, ckpt.schema)
            expected = [
                {"token_ids": list(h.content_tokens), "tokens": ckpt.vocab.decode(h.content_tokens),
                 "log_prob": h.log_prob, "finished": h.finished}
                for h in beam_search(ckpt.params, example, decode_cfg)
            ]
            assert entry["hypotheses"] == expected

    def test_seq2seq_ignores_user_identity(self, seq2seq_dir, prep_dir, tmp_path):
        doc_path = tmp_path / "gen.json"
        rc = cli.main([
            "generate", "--checkpoint", str(seq2seq_dir / "checkpoint_final.json"),
            "--data-dir", str(prep_dir), "--blog", "thoughts on soccer again",
            "--user", "u00", "--user", "u01", "--user", "u02",
            "--top", "3", "--json", str(doc_path),
        ])
        assert rc == 0
        doc = json.loads(doc_path.read_text(encoding="utf-8"))
        assert [u["user_id"] for u in doc["users"]] == ["u00", "u01", "u02"]
        first = doc["users"][0]["hypotheses"]
        for other in doc["users"][1:]:
            assert other["hypotheses"] == first

    def test_max_len_bounds_output(self, pcgn_dir, prep_dir, tmp_path):
        doc_path = tmp_path / "gen.json"
        rc = cli.main([
            "generate", "--checkpoint", str(pcgn_dir / "checkpoint_final.json"),
            "--data-dir", str(prep_dir), "--blog", "thoughts on soccer again",
            "--user", "u01", "--top", "3", "--max-len", "2", "--json", str(doc_path),
        ])
        assert rc == 0
        doc = json.loads(doc_path.read_text(encoding="utf-8"))
        for hyp in doc["users"][0]["hypotheses"]:
            assert len(hyp["token_ids"]) <= 2

    def test_unknown_user_exits_2_and_lists_known(self, pcgn_dir, prep_dir, capsys):
        rc = cli.main([
            "generate", "--checkpoint", str(pcgn_dir / "checkpoint_final.json"),
            "--data-dir", str(prep_dir), "--blog", "new post", "--user", "nobody",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "nobody" in err
        assert "u00" in err and "u01" in err and "u02" in err

    def test_ad_hoc_profile_via_user_json(self, pcgn_dir, capsys):
        profile = json.dumps({"user_id": "adhoc", "gender": "F", "description": "loves sunny"})
        rc = cli.main([
            "generate", "--checkpoint", str(pcgn_dir / "checkpoint_final.json"),
            "--blog", "new post about coffee today", "--user-json", profile,
        ])
        assert rc == 0
        assert "adhoc" in capsys.readouterr().out

    def test_invalid_user_json_exits_1(self, pcgn_dir, capsys):
        rc = cli.main([
            "generate", "--checkpoint", str(pcgn_dir / "checkpoint_final.json"),
            "--blog", "new post", "--user-json", "{not json",
        ])
        assert rc == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_user_is_echoed_cut(self, pcgn_dir, prep_dir, capsys):
        uid = "x" * 5000
        rc = cli.main([
            "generate", "--checkpoint", str(pcgn_dir / "checkpoint_final.json"),
            "--data-dir", str(prep_dir), "--blog", "new post", "--user", uid,
        ])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"data error: unknown user {repr(uid)[:40]}... (5002 characters); known users: ['u00', 'u01', 'u02']\n")

    def test_deeply_nested_user_json_exits_1(self, pcgn_dir, capsys):
        rc = cli.main([
            "generate", "--checkpoint", str(pcgn_dir / "checkpoint_final.json"),
            "--blog", "new post", "--user-json", DEEP_JSON,
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("usage error: --user-json is not valid JSON: maximum recursion depth")

    @pytest.mark.parametrize("value", ["5", "[1]"])
    def test_non_object_user_json_exits_1(self, value, pcgn_dir, capsys):
        rc = cli.main([
            "generate", "--checkpoint", str(pcgn_dir / "checkpoint_final.json"),
            "--blog", "new post", "--user-json", value,
        ])
        assert rc == 1
        assert capsys.readouterr().err.startswith("usage error: --user-json: expected a JSON object")

    def test_no_user_exits_1(self, pcgn_dir, capsys):
        rc = cli.main([
            "generate", "--checkpoint", str(pcgn_dir / "checkpoint_final.json"),
            "--blog", "new post",
        ])
        assert rc == 1
        assert "at least one" in capsys.readouterr().err

    def test_blank_blog_exits_1(self, pcgn_dir, capsys):
        rc = cli.main([
            "generate", "--checkpoint", str(pcgn_dir / "checkpoint_final.json"),
            "--blog", "   ", "--user", "u00",
        ])
        assert rc == 1
        assert "at least one token" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        rc = cli.main([
            "generate", "--checkpoint", str(tmp_path / "gone.json"),
            "--blog", "new post", "--user", "u00",
        ])
        assert rc == 2


class TestEval:
    def test_report_matches_library_recomputation(self, pcgn_dir, prep_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = cli.main([
            "eval", "--checkpoint", str(pcgn_dir / "checkpoint_final.json"),
            "--data-dir", str(prep_dir), "--split", "train", "--json", str(report_path),
        ])
        assert rc == 0
        assert "split=train" in capsys.readouterr().out
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert set(report) >= {"ppl", "bleu2", "meteor", "pairs", "split",
                               "checkpoint_sha256", "config", "data_checksums"}
        assert report["pairs"] == 12

        ckpt = load_checkpoint(pcgn_dir / "checkpoint_final.json")
        encoded = encode_records(parse_dataset(prep_dir / "train.jsonl"), ckpt.vocab, ckpt.schema)
        assert report["ppl"] == dataset_perplexity(ckpt.params, encoded)
        decode_cfg = DecodeConfig(beam_size=10, max_len=20, length_norm=0.0)
        pairs = [
            EvalPair(hypothesis=beam_search(ckpt.params, ex, decode_cfg)[0].content_tokens,
                     reference=ex.y[1:-1])
            for ex in encoded
        ]
        assert report["bleu2"] == bleu2(pairs)
        assert report["meteor"] == meteor_lite(pairs)
        assert 0.0 <= report["bleu2"] <= 1.0
        assert 0.0 <= report["meteor"] <= 1.0

    def test_dump_pairs(self, pcgn_dir, prep_dir, tmp_path):
        pairs_path = tmp_path / "pairs.tsv"
        rc = cli.main([
            "eval", "--checkpoint", str(pcgn_dir / "checkpoint_final.json"),
            "--data-dir", str(prep_dir), "--split", "train",
            "--dump-pairs", str(pairs_path),
        ])
        assert rc == 0
        lines = pairs_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 12
        for i, line in enumerate(lines):
            index, hyp, ref = line.split("\t")
            assert int(index) == i
            assert ref.strip()

    def test_eval_on_test_split(self, pcgn_dir, prep_dir, tmp_path):
        report_path = tmp_path / "report.json"
        rc = cli.main([
            "eval", "--checkpoint", str(pcgn_dir / "checkpoint_final.json"),
            "--data-dir", str(prep_dir), "--split", "test", "--json", str(report_path),
        ])
        assert rc == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["pairs"] == 9
        assert report["split"] == "test"

    def test_nan_inside_model_exits_3(self, pcgn_dir, prep_dir, tmp_path, capsys):
        ckpt = load_checkpoint(pcgn_dir / "checkpoint_final.json")
        ckpt.params = nan_cell_params(ckpt.params)
        path = tmp_path / "nan_model.json"
        save_checkpoint(path, ckpt)
        with np.errstate(all="ignore"):
            rc = cli.main(["eval", "--checkpoint", str(path), "--data-dir", str(prep_dir)])
        assert rc == 3
        assert "non-finite logits at decode step 0" in capsys.readouterr().err

    def test_unknown_split_exits_1(self, pcgn_dir, prep_dir, capsys):
        rc = cli.main([
            "eval", "--checkpoint", str(pcgn_dir / "checkpoint_final.json"),
            "--data-dir", str(prep_dir), "--split", "validation",
        ])
        assert rc == 1
        assert "validation" in capsys.readouterr().err


class TestAblate:
    def test_rows_and_deltas(self, ablation_dir):
        doc = json.loads((ablation_dir / "ablation.json").read_text(encoding="utf-8"))
        assert doc["complete"] is True
        names = [row["variant"] for row in doc["rows"]]
        assert names == ["Seq2Seq", "+Mem", "+CoAtt", "+External", "PCGN+ComWord"]
        first = doc["rows"][0]
        assert first["delta_ppl"] is None and first["delta_bleu2"] is None
        for prev, row in zip(doc["rows"], doc["rows"][1:]):
            assert row["delta_ppl"] == row["ppl"] - prev["ppl"]
            assert row["delta_bleu2"] == row["bleu2"] - prev["bleu2"]
            assert row["delta_meteor"] == row["meteor"] - prev["meteor"]
        assert doc["comword_data_checksums"] is not None

    def test_checkpoint_per_row(self, ablation_dir):
        expected = {
            "Seq2Seq": "checkpoint_seq2seq.json",
            "+Mem": "checkpoint_mem.json",
            "+CoAtt": "checkpoint_coatt.json",
            "+External": "checkpoint_external.json",
            "PCGN+ComWord": "checkpoint_pcgn_comword.json",
        }
        for variant, filename in expected.items():
            ckpt = load_checkpoint(ablation_dir / filename)
            assert ckpt.variant_name == variant

    def test_table_formatting(self, ablation_dir):
        lines = (ablation_dir / "ablation.txt").read_text(encoding="utf-8").splitlines()
        assert lines[0].split() == ["Variant", "PPL", "B-2", "METEOR"]
        assert len(lines) == 6
        delta_cell = re.compile(r"\d+\.\d{2} \([+-]\d+\.\d{2}\)")
        assert not delta_cell.search(lines[1])  # first row has no previous row
        for line in lines[2:]:
            assert delta_cell.search(line), line

    def test_rerun_is_byte_identical(self, ablation_dir, prep_dir, prep_cw_dir):
        watched = ("ablation.json", "ablation.txt", "checkpoint_external.json")
        before = {name: (ablation_dir / name).read_bytes() for name in watched}
        assert cli.main(ablate_args(prep_dir, ablation_dir, prep_cw_dir)) == 0
        for name in watched:
            assert (ablation_dir / name).read_bytes() == before[name], name

    def test_with_emb_inserts_row(self, prep_dir, tmp_path):
        out = tmp_path / "abl"
        rc = cli.main([
            "ablate", "--data-dir", str(prep_dir), "--out-dir", str(out),
            "--seed", "0", "--lr", "1.0", "--batch-size", "12", "--epochs", "2",
            "--eval-split", "test", "--with-emb",
        ])
        assert rc == 0
        doc = json.loads((out / "ablation.json").read_text(encoding="utf-8"))
        names = [row["variant"] for row in doc["rows"]]
        assert names == ["Seq2Seq", "Seq2Seq+Emb", "+Mem", "+CoAtt", "+External"]
        assert (out / "checkpoint_seq2seq_emb.json").exists()

    def test_bad_eval_split_exits_1(self, prep_dir, tmp_path, capsys):
        rc = cli.main([
            "ablate", "--data-dir", str(prep_dir), "--out-dir", str(tmp_path / "abl"),
            "--eval-split", "holdout",
        ])
        assert rc == 1
        assert "holdout" in capsys.readouterr().err

    def test_row_checkpoint_round_trips(self, ablation_dir, tmp_path):
        src = ablation_dir / "checkpoint_seq2seq.json"
        copy = tmp_path / "copy.json"
        save_checkpoint(copy, load_checkpoint(src))
        assert copy.read_bytes() == src.read_bytes()


def _data_copy(prep_dir, tmp_path, name, content: bytes):
    """A copy of the prepared directory with ``name`` replaced by ``content``."""
    out = tmp_path / "data"
    out.mkdir()
    for artifact in PREP_ARTIFACTS:
        (out / artifact).write_bytes((prep_dir / artifact).read_bytes())
    (out / name).write_bytes(content)
    return out


def _file(tmp_path, name, content: bytes):
    path = tmp_path / name
    path.write_bytes(content)
    return path


def _checkpoint_copy(pcgn_dir, tmp_path, edit):
    doc = json.loads((pcgn_dir / "checkpoint_final.json").read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return path


def _edited_json(path, edit) -> bytes:
    doc = json.loads(path.read_text())
    edit(doc)
    return json.dumps(doc).encode()


def _train_on(prep_dir, tmp_path, name, content):
    return train_args(_data_copy(prep_dir, tmp_path, name, content), tmp_path / "out")


HUGE_AGE = 10**400  # an int that float() cannot hold
# An integer literal past Python's int-string digit limit (4300 digits):
# json raises a plain ValueError for it, not a JSONDecodeError.
LONG_INT = b"9" * 5000


def _reshape_first_param(doc, shape_of, **fields):
    """Give the checkpoint's first parameter ``shape_of(its element count)``."""
    param = doc["params"][min(doc["params"])]
    param.update(shape=shape_of(math.prod(param["shape"])), **fields)


def _set_first_value(param, value):
    """Write ``value`` over a checkpoint parameter's first element."""
    values = np.frombuffer(base64.b64decode(param["data"]), dtype="<f8").copy()
    values[0] = value
    param["data"] = base64.b64encode(values.tobytes()).decode("ascii")


def _generate_with(checkpoint, data_dir=None):
    argv = ["generate", "--checkpoint", str(checkpoint), "--blog", "new post", "--user", "u00"]
    return argv + (["--data-dir", str(data_dir)] if data_dir else [])


# case -> (argv built from (prep_dir, pcgn_dir, tmp_path), words the error names)
MALFORMED_FILES = {
    "truncated vocab": (lambda prep, run, tmp: _train_on(
        prep, tmp, "vocab.json", (prep / "vocab.json").read_bytes()[:20]), "vocab.json"),
    "empty vocab object": (lambda prep, run, tmp: _train_on(prep, tmp, "vocab.json", b"{}"), "vocab"),
    "vocab without the special tokens": (lambda prep, run, tmp: _train_on(
        prep, tmp, "vocab.json", b'{"tokens": ["a", "b"]}'), "vocab must start"),
    "zero age divisor": (lambda prep, run, tmp: _train_on(
        prep, tmp, "schema.json",
        json.dumps({**json.loads((prep / "schema.json").read_text()), "age_divisor": 0}).encode()), "age_divisor"),
    "string age divisor": (lambda prep, run, tmp: _train_on(
        prep, tmp, "schema.json", _edited_json(prep / "schema.json", lambda doc: doc.update(age_divisor="100"))),
        "age_divisor must be a finite positive number, got '100'"),
    "boolean age divisor": (lambda prep, run, tmp: _train_on(
        prep, tmp, "schema.json", _edited_json(prep / "schema.json", lambda doc: doc.update(age_divisor=True))),
        "age_divisor must be a finite positive number, got True"),
    "age divisor of 1e400": (lambda prep, run, tmp: _train_on(prep, tmp, "schema.json", _edited_json(
        prep / "schema.json", lambda doc: doc.update(age_divisor=0.125)).replace(b"0.125", b"1e400")),
        "age_divisor must be a finite positive number, got inf"),
    "infinite age divisor": (lambda prep, run, tmp: _train_on(
        prep, tmp, "schema.json", _edited_json(prep / "schema.json", lambda doc: doc.update(age_divisor=math.inf))),
        "age_divisor must be a finite positive number, got inf"),
    "checkpoint schema with a string age divisor": (lambda prep, run, tmp: _generate_with(
        _checkpoint_copy(run, tmp, lambda doc: doc["schema"].update(age_divisor="1e2")), prep),
        "age_divisor must be a finite positive number, got '1e2'"),
    "truncated users table": (lambda prep, run, tmp: _generate_with(
        run / "checkpoint_final.json",
        _data_copy(prep, tmp, "users.json", (prep / "users.json").read_bytes()[:30])), "users.json"),
    "non-UTF-8 input": (lambda prep, run, tmp: [
        "prepare", "--input", str(_file(tmp, "raw.jsonl", b'{"blog": "\xff\xfe"}\n')),
        "--out-dir", str(tmp / "out")], "raw.jsonl is not UTF-8"),
    "non-UTF-8 checkpoint": (lambda prep, run, tmp: _generate_with(
        _file(tmp, "ckpt.json", b'{"format": "\xff"}'), prep), "not UTF-8"),
    "checkpoint with a null vocab": (lambda prep, run, tmp: _generate_with(
        _checkpoint_copy(run, tmp, lambda doc: doc.update(vocab=None)), prep), "malformed vocab"),
    "schema field holding a string": (lambda prep, run, tmp: _train_on(
        prep, tmp, "schema.json", _edited_json(prep / "schema.json", lambda doc: doc["fields"].update(city="abc"))),
        "field 'city' must be a list of strings"),
    "vocab with a non-string token": (lambda prep, run, tmp: _train_on(
        prep, tmp, "vocab.json", b'{"tokens": ["<pad>", "<unk>", "<bos>", "<eos>", 7]}'),
        "vocab tokens must be a list of strings"),
    "checkpoint vocab with a non-string token": (lambda prep, run, tmp: [
        "eval", "--checkpoint", str(_checkpoint_copy(run, tmp, lambda doc: doc["vocab"]["tokens"].append(7))),
        "--data-dir", str(prep)], "vocab tokens must be a list of strings"),
    "users table that is a list": (lambda prep, run, tmp: _generate_with(
        run / "checkpoint_final.json", _data_copy(prep, tmp, "users.json", b'[{"user_id": "u00"}]')),
        "JSON object of user profiles"),
    "users table entry with an age too large for a float": (lambda prep, run, tmp: _generate_with(
        run / "checkpoint_final.json",
        _data_copy(prep, tmp, "users.json", _edited_json(prep / "users.json", lambda doc: doc["u00"].update(age=HUGE_AGE)))),
        "users.json entry 'u00': age is too large"),
    "input record with an age too large for a float": (lambda prep, run, tmp: [
        "prepare", "--input", str(_file(tmp, "raw.jsonl", SAMPLE_DATA.read_bytes().replace(
            b'"age": 29,', f'"age": {HUGE_AGE},'.encode(), 1))),
        "--out-dir", str(tmp / "out")], "line 1: age is too large"),
    "input record with an integer past the digit limit": (lambda prep, run, tmp: [
        "prepare", "--input", str(_file(tmp, "raw.jsonl", SAMPLE_DATA.read_bytes().replace(
            b'"age": 29,', b'"age": ' + LONG_INT + b",", 1))),
        "--out-dir", str(tmp / "out")], "line 1: malformed JSON"),
    "users table with an integer past the digit limit": (lambda prep, run, tmp: _generate_with(
        run / "checkpoint_final.json",
        _data_copy(prep, tmp, "users.json", b'{"u00": {"user_id": "u00", "age": ' + LONG_INT + b"}}")),
        "users.json is not a readable JSON document"),
    "checkpoint with an integer past the digit limit": (lambda prep, run, tmp: _generate_with(
        _file(tmp, "ckpt.json", b'{"format": ' + LONG_INT + b"}"), prep), "not a JSON document"),
    "checkpoint nested past the recursion limit": (lambda prep, run, tmp: _generate_with(
        _file(tmp, "ckpt.json", DEEP_JSON.encode()), prep), "not a JSON document"),
    "checkpoint parameter with negative dimensions": (lambda prep, run, tmp: _generate_with(
        _checkpoint_copy(run, tmp, lambda doc: _reshape_first_param(doc, lambda n: [-1, -n])), prep),
        "negative dimension"),
    "checkpoint parameter whose dimensions overflow int64": (lambda prep, run, tmp: _generate_with(
        _checkpoint_copy(run, tmp, lambda doc: _reshape_first_param(doc, lambda n: [2**32, 2**32], data="")), prep),
        "shape (4294967296, 4294967296) needs"),
    "checkpoint parameter with an infinite dimension": (lambda prep, run, tmp: _generate_with(
        _checkpoint_copy(run, tmp, lambda doc: _reshape_first_param(doc, lambda n: [math.inf])), prep),
        "infinity"),
    "checkpoint parameter holding a NaN": (lambda prep, run, tmp: _generate_with(
        _checkpoint_copy(run, tmp, lambda doc: _set_first_value(doc["params"]["attn_blog"], math.nan)), prep),
        "parameter 'attn_blog'"),
    "checkpoint with a step of 1e400": (lambda prep, run, tmp: _generate_with(
        _checkpoint_copy(run, tmp, lambda doc: doc.update(step=1e400)), prep), "infinity"),
    "checkpoint with a fractional step": (lambda prep, run, tmp: _generate_with(
        _checkpoint_copy(run, tmp, lambda doc: doc.update(step=7.5)), prep),
        "step must be a non-negative integer, got 7.5"),
    "checkpoint with a string step": (lambda prep, run, tmp: _generate_with(
        _checkpoint_copy(run, tmp, lambda doc: doc.update(step="7")), prep),
        "step must be a non-negative integer, got '7'"),
    "checkpoint with a boolean step": (lambda prep, run, tmp: _generate_with(
        _checkpoint_copy(run, tmp, lambda doc: doc.update(step=True)), prep),
        "step must be a non-negative integer, got True"),
    "checkpoint with a negative step": (lambda prep, run, tmp: _generate_with(
        _checkpoint_copy(run, tmp, lambda doc: doc.update(step=-3)), prep),
        "step must be a non-negative integer, got -3"),
    "checkpoint with a fractional layer count": (lambda prep, run, tmp: _generate_with(
        _checkpoint_copy(run, tmp, lambda doc: doc["model"].update(blog_layers=1.5)), prep),
        "blog_layers must be an integer, got 1.5"),
    "checkpoint with a layer count of 1e308": (lambda prep, run, tmp: [
        "eval", "--checkpoint", str(_checkpoint_copy(run, tmp, lambda doc: doc["model"].update(desc_layers=1e308))),
        "--data-dir", str(prep)], "desc_layers must be an integer, got 1e+308"),
    "checkpoint with a variant flag that is not a boolean": (lambda prep, run, tmp: _generate_with(
        _checkpoint_copy(run, tmp, lambda doc: doc["model"]["variant"].update(use_coattention=1)), prep),
        "use_coattention must be true or false, got 1"),
    "checkpoint parameter with a list dtype": (lambda prep, run, tmp: _generate_with(
        _checkpoint_copy(run, tmp, lambda doc: doc["params"][min(doc["params"])].update(dtype=["float64"])), prep),
        "unsupported dtype ['float64']"),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("case", list(MALFORMED_FILES))
    def test_exits_2_with_a_data_error(self, case, prep_dir, pcgn_dir, tmp_path, capsys):
        build_argv, named = MALFORMED_FILES[case]
        argv = build_argv(prep_dir, pcgn_dir, tmp_path)
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ")
        assert named in err
        assert len(err.splitlines()) == 1

    def test_user_json_age_too_large_for_a_float_exits_1(self, pcgn_dir, capsys):
        profile = json.dumps({"user_id": "adhoc", "age": HUGE_AGE})
        rc = cli.main([
            "generate", "--checkpoint", str(pcgn_dir / "checkpoint_final.json"),
            "--blog", "new post", "--user-json", profile,
        ])
        assert rc == 1
        assert capsys.readouterr().err == "usage error: --user-json: age is too large for a float\n"


LONG = "x" * 5000


def _users_file(tmp_path, doc):
    (tmp_path / "users.json").write_text(json.dumps(doc))
    return tmp_path


def _rename_first_param(doc, name, **fields):
    first = min(doc["params"])
    doc["params"][name] = dict(doc["params"].pop(first), **fields)


# case -> (argv built from (prep_dir, pcgn_dir, tmp_path), exit code)
LONG_VALUES = {
    "variant flag": (lambda prep, run, tmp: train_args(prep, tmp / "out", variant=LONG), 1),
    "preset flag": (lambda prep, run, tmp: train_args(prep, tmp / "out") + ["--preset", LONG], 1),
    "eval split flag": (lambda prep, run, tmp: [
        "eval", "--checkpoint", str(run / "checkpoint_final.json"), "--data-dir", str(prep), "--split", LONG], 1),
    "ablate eval split flag": (lambda prep, run, tmp: [
        "ablate", "--data-dir", str(prep), "--out-dir", str(tmp / "abl"), "--eval-split", LONG], 1),
    "checkpoint format": (lambda prep, run, tmp: _generate_with(
        _checkpoint_copy(run, tmp, lambda doc: doc.update(format=LONG)), prep), 2),
    "checkpoint version": (lambda prep, run, tmp: _generate_with(
        _checkpoint_copy(run, tmp, lambda doc: doc.update(version=[1] * 5000)), prep), 2),
    "checkpoint step": (lambda prep, run, tmp: _generate_with(
        _checkpoint_copy(run, tmp, lambda doc: doc.update(step=LONG)), prep), 2),
    "checkpoint layer count": (lambda prep, run, tmp: _generate_with(
        _checkpoint_copy(run, tmp, lambda doc: doc["model"].update(blog_layers=[1] * 5000)), prep), 2),
    "checkpoint variant flag": (lambda prep, run, tmp: _generate_with(
        _checkpoint_copy(run, tmp, lambda doc: doc["model"]["variant"].update(use_coattention=LONG)), prep), 2),
    "checkpoint parameter name": (lambda prep, run, tmp: _generate_with(
        _checkpoint_copy(run, tmp, lambda doc: _rename_first_param(doc, LONG, dtype="float16")), prep), 2),
    "checkpoint parameter dtype": (lambda prep, run, tmp: _generate_with(
        _checkpoint_copy(run, tmp, lambda doc: doc["params"][min(doc["params"])].update(dtype=LONG)), prep), 2),
    "schema age divisor": (lambda prep, run, tmp: _train_on(prep, tmp, "schema.json", _edited_json(
        prep / "schema.json", lambda doc: doc.update(age_divisor=LONG))), 2),
    "users.json id": (lambda prep, run, tmp: [
        "generate", "--checkpoint", str(run / "checkpoint_final.json"), "--blog", "new post", "--user", LONG,
        "--data-dir", str(_users_file(tmp, {LONG: {"user_id": "u", "age": "old"}}))], 2),
}


class TestLongValues:
    """A long user value is echoed as its repr's first 40 characters and
    the repr's length, wherever an error line names it."""

    @pytest.mark.parametrize("case", list(LONG_VALUES))
    def test_error_line_stays_short(self, case, prep_dir, pcgn_dir, tmp_path, capsys):
        build_argv, code = LONG_VALUES[case]
        argv = build_argv(prep_dir, pcgn_dir, tmp_path)
        capsys.readouterr()
        assert cli.main(argv) == code
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(("usage error: ", "data error: ")[code - 1])
        assert len(line) < 200 and "characters)" in line


class TestArtifactWrites:
    def test_failed_json_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "report.json"
        cli._write_json(path, {"ppl": 1.5})
        before = path.read_bytes()
        # a lone surrogate cannot be encoded, so the text write itself fails
        monkeypatch.setattr(cli.json, "dumps", lambda obj, **kwargs: '{"ppl": "\ud800"}')
        with pytest.raises(UnicodeEncodeError):
            cli._write_json(path, {"ppl": 2.5})
        assert path.read_bytes() == before
        assert json.loads(path.read_text(encoding="utf-8")) == {"ppl": 1.5}
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("table", ["report.txt", "ablation.txt"])
    def test_failed_table_write_keeps_previous_file(self, table, prep_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / table).write_bytes(b"previous table\n")
        real_replace = os.replace

        def replace(src, dst):
            if Path(dst).name == table:
                raise OSError("disk full")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        if table == "report.txt":
            argv = PREPARE_ARGS + ["--out-dir", str(out)]
        else:
            argv = [
                "ablate", "--data-dir", str(prep_dir), "--out-dir", str(out),
                "--seed", "0", "--lr", "1.0", "--batch-size", "12", "--epochs", "1",
                "--eval-split", "test",
            ]
        assert cli.main(argv) == 2
        assert "disk full" in capsys.readouterr().err
        assert (out / table).read_bytes() == b"previous table\n"
        assert list(out.glob("*.tmp")) == []

    def test_interrupted_rerun_keeps_the_finished_log(self, prep_dir, tmp_path, monkeypatch, capsys):
        out = tmp_path / "run"
        assert cli.main(train_args(prep_dir, out, epochs="3")) == 0
        log_before = (out / "train_log.tsv").read_bytes()
        real_fit = cli.fit

        def interrupted_fit(*args, on_epoch, **kwargs):
            def log_then_stop(*epoch_args):
                on_epoch(*epoch_args)
                raise KeyboardInterrupt

            return real_fit(*args, on_epoch=log_then_stop, **kwargs)

        monkeypatch.setattr(cli, "fit", interrupted_fit)
        with pytest.raises(KeyboardInterrupt):
            cli.main(train_args(prep_dir, out, epochs="50"))
        assert "epoch 0:" in capsys.readouterr().out  # the rerun logged an epoch
        assert (out / "train_log.tsv").read_bytes() == log_before
        assert list(out.glob("*.tmp")) == []


class TestNonFiniteFlags:
    def test_generate_with_a_nan_length_norm_exits_1(self, prep_dir, pcgn_dir, capsys):
        argv = _generate_with(pcgn_dir / "checkpoint_final.json", prep_dir) + ["--length-norm", "nan"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("usage error: length_norm")

    def test_train_with_a_nan_lr_exits_1(self, prep_dir, tmp_path, capsys):
        argv = train_args(prep_dir, tmp_path / "out", epochs="1")
        argv[argv.index("--lr") + 1] = "nan"
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("usage error: lr")

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("top", ["0", "-3"])
    def test_generate_with_top_below_1_exits_1(self, top, how, prep_dir, pcgn_dir, tmp_path, capsys):
        argv = _generate_with(pcgn_dir / "checkpoint_final.json", prep_dir)
        if how == "flag":
            argv += [f"--top={top}"]
        else:
            (tmp_path / "run.cfg").write_text(f"top = {top}\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("usage error: top")

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_train_with_a_bad_stop_below_ppl_exits_1(self, value, how, prep_dir, tmp_path, capsys):
        argv = train_args(prep_dir, tmp_path / "out", epochs="1")
        if how == "flag":
            argv += [f"--stop-below-ppl={value}"]
        else:
            (tmp_path / "run.cfg").write_text(f"stop_below_ppl = {value}\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("usage error: stop_below_ppl")


class TestDispatch:
    def test_no_command_exits_1(self, capsys):
        assert cli.main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_exits_1(self, capsys):
        assert cli.main(["prepare", "--synthetic", "24", "--bogus"]) == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("module", ["pcgn", "pcgn.cli"])
    def test_python_dash_m_runs_the_cli(self, module):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p
        )}
        done = subprocess.run(
            [sys.executable, "-m", module, "--help"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "RuntimeWarning" not in done.stderr
        assert done.stdout.startswith("usage: pcgn ")
        assert "{prepare,train,generate,eval,ablate}" in done.stdout
