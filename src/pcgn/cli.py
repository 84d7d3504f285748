"""Command-line interface: prepare | train | generate | eval | ablate.

Configuration is a flat ``key = value`` file (``--config``) whose keys are
exactly the RunConfig field names; command-line flags override file values.
The ``PCGN_OUT_DIR`` environment variable supplies a default output
directory when neither flag nor file sets one.

Exit codes: 0 success, 1 usage error, 2 unreadable/insufficient data or
checkpoint, 3 numeric failure (NaN/Inf).  All artifacts embed the run
configuration and input checksums and contain no timestamps, so reruns
with equal inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .autodiff import NonFiniteError
from .checkpoint import (
    Checkpoint,
    CheckpointError,
    atomic_write,
    load_checkpoint,
    save_checkpoint,
)
from .data import (
    UNK_ID,
    DataError,
    FeatureSchema,
    RawRecord,
    Vocab,
    apply_common_words,
    augment_common_words,
    build_vocab,
    encode_records,
    featurize_user,
    filter_records,
    fit_schema,
    parse_dataset,
    parse_record,
    record_to_dict,
    split_by_blog,
)
from .decoding import DecodeConfig, DecodeInput, beam_search
from .metrics import CorpusScores, EvalPair, bleu2, meteor_lite
from .model import ModelConfig, build_model, variant_from_name
from .synthetic import synthetic_records
from .training import OptimizerConfig, dataset_perplexity, fit

__all__ = ["RunConfig", "main", "entrypoint", "UsageError"]


class UsageError(Exception):
    """Bad invocation: unknown keys, missing flags, invalid settings."""


@dataclass
class RunConfig:
    """Every file-configurable knob.  Field names are the config-file keys.

    Zero means "preset default" for lr/batch_size and "keep preset value"
    for the model dimensions.
    """

    # data / prepare
    input: str = ""
    synthetic: int = 0
    synthetic_users: int = 4
    data_dir: str = "runs/data"
    out_dir: str = ""
    seed: int = 13
    train_ratio: float = 0.8
    dev_ratio: float = 0.1
    test_ratio: float = 0.1
    min_tokens: int = 2
    min_user_records: int = 2
    comword_k: int = 0
    vocab_size: int = 256
    # model
    variant: str = "PCGN"
    preset: str = "desk"
    embed_dim: int = 0
    blog_hidden: int = 0
    blog_layers: int = 0
    desc_hidden: int = 0
    desc_layers: int = 0
    user_dim: int = 0
    # training
    lr: float = 0.0
    batch_size: int = 0
    epochs: int = 30
    clip_norm: float = 5.0
    stop_below_ppl: float = 0.0
    # decoding / eval
    beam_size: int = 10
    max_len: int = 20
    length_norm: float = 0.0
    top: int = 1
    split: str = "test"
    # ablation
    with_emb: bool = False
    comword_data: str = ""
    eval_split: str = "test"


_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def parse_config_file(path) -> dict:
    """Flat ``key = value`` lines; blank lines and #-comments ignored."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise UsageError(f"cannot read config file {path}: {err}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_FIELDS:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        values[key] = raw.strip()
    return values


def _coerce(key: str, raw):
    kind = _CONFIG_FIELDS[key]
    if not isinstance(raw, str):
        return raw
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError:
        raise UsageError(f"config key {key!r}: cannot parse {raw!r} as {kind}") from None


def resolve_run_config(namespace: argparse.Namespace) -> RunConfig:
    """Defaults, then config-file values, then explicit flags."""
    values = dataclasses.asdict(RunConfig())
    config_path = getattr(namespace, "config", None)
    if config_path:
        for key, raw in parse_config_file(config_path).items():
            values[key] = _coerce(key, raw)
    for key, val in vars(namespace).items():
        if key in _CONFIG_FIELDS:
            values[key] = _coerce(key, val)
    return RunConfig(**values)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, obj) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _decode_config(cfg: RunConfig) -> DecodeConfig:
    return DecodeConfig(beam_size=cfg.beam_size, max_len=cfg.max_len, length_norm=cfg.length_norm)


def _format_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    return "\n".join([fmt(headers)] + [fmt(r) for r in rows]) + "\n"


def _out_dir(cfg: RunConfig, fallback: str) -> Path:
    chosen = cfg.out_dir or os.environ.get("PCGN_OUT_DIR", "") or fallback
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _profile_record(obj: dict) -> RawRecord:
    """A RawRecord carrying only profile fields (for featurize/description)."""
    merged = {"blog": "", "comment": "", **obj}
    return parse_record(merged, lineno=0)


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------


def _split_counts(records: list[RawRecord]) -> dict:
    return {
        "users": len({r.user_id for r in records}),
        "comments": len(records),
        "microblogs": len({r.blog_tokens for r in records}),
    }


def cmd_prepare(cfg: RunConfig) -> int:
    if bool(cfg.input) == (cfg.synthetic > 0):
        raise UsageError("prepare needs exactly one source: --input FILE or --synthetic N")
    if cfg.input:
        records = parse_dataset(cfg.input)
        source = {"input": cfg.input, "sha256": _sha256(cfg.input)}
    else:
        records = synthetic_records(cfg.synthetic, users=cfg.synthetic_users, seed=cfg.seed)
        source = {"synthetic": cfg.synthetic, "users": cfg.synthetic_users, "seed": cfg.seed}

    records = filter_records(records, cfg.min_tokens, cfg.min_user_records)
    records = apply_common_words(records, cfg.comword_k)
    ratios = (cfg.train_ratio, cfg.dev_ratio, cfg.test_ratio)
    train, dev, test = split_by_blog(records, ratios, cfg.seed)
    if not train:
        raise DataError("training split is empty after filtering and splitting")

    vocab = build_vocab(train, cfg.vocab_size)
    schema = fit_schema(train)

    out = _out_dir(cfg, "runs/prep")
    for name, split in (("train", train), ("dev", dev), ("test", test)):
        with atomic_write(out / f"{name}.jsonl") as fh:
            for r in split:
                fh.write(json.dumps(record_to_dict(r), sort_keys=True) + "\n")
    _write_json(out / "vocab.json", vocab.to_dict())
    _write_json(out / "schema.json", schema.to_dict())

    users: dict[str, dict] = {}
    for r in records:
        if r.user_id not in users:
            profile = record_to_dict(r)
            del profile["blog"], profile["comment"]
            users[r.user_id] = profile
    _write_json(out / "users.json", users)

    counts = {
        "train": _split_counts(train),
        "dev": _split_counts(dev),
        "test": _split_counts(test),
        "total": _split_counts(records),
    }
    artifacts = {
        name: _sha256(out / name)
        for name in ("train.jsonl", "dev.jsonl", "test.jsonl", "vocab.json", "schema.json", "users.json")
    }
    report = {
        "config": dataclasses.asdict(cfg),
        "source": source,
        "counts": counts,
        "vocab_size": len(vocab),
        "feature_dim": schema.width,
        "artifacts": artifacts,
    }
    _write_json(out / "report.json", report)

    headers = ["Statistic", "Train", "Dev", "Test", "Total"]
    rows = [
        [label] + [str(counts[s][key]) for s in ("train", "dev", "test", "total")]
        for label, key in (("Users", "users"), ("Comments", "comments"), ("Microblogs", "microblogs"))
    ]
    table = _format_table(headers, rows)
    with atomic_write(out / "report.txt") as fh:
        fh.write(table)
    sys.stdout.write(table)
    print(f"prepared {len(records)} records -> {out}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _load_prepared(data_dir) -> tuple[Vocab, FeatureSchema, dict[str, list[RawRecord]]]:
    base = Path(data_dir)
    for needed in ("vocab.json", "schema.json", "train.jsonl"):
        if not (base / needed).exists():
            raise DataError(f"{base / needed} not found; run prepare first")
    vocab = Vocab.from_dict(json.loads((base / "vocab.json").read_text(encoding="utf-8")))
    schema = FeatureSchema.from_dict(json.loads((base / "schema.json").read_text(encoding="utf-8")))
    splits = {}
    for name in ("train", "dev", "test"):
        path = base / f"{name}.jsonl"
        splits[name] = parse_dataset(path) if path.exists() else []
    return vocab, schema, splits


def _data_checksums(data_dir) -> dict:
    base = Path(data_dir)
    names = ("train.jsonl", "dev.jsonl", "test.jsonl", "vocab.json", "schema.json")
    return {n: _sha256(base / n) for n in names if (base / n).exists()}


def _model_config(cfg: RunConfig, variant_name: str, vocab_size: int, feature_dim: int) -> ModelConfig:
    try:
        variant = variant_from_name(variant_name)
    except ValueError as err:
        raise UsageError(str(err)) from None
    if cfg.preset not in ("desk", "paper"):
        raise UsageError(f"unknown preset {cfg.preset!r}; expected 'desk' or 'paper'")
    overrides = {}
    for dim in ("embed_dim", "blog_hidden", "blog_layers", "desc_hidden", "desc_layers", "user_dim"):
        val = getattr(cfg, dim)
        if val:
            overrides[dim] = val
    maker = ModelConfig.desk if cfg.preset == "desk" else ModelConfig.paper
    return maker(vocab_size=vocab_size, feature_dim=feature_dim, variant=variant, **overrides)


def _optimizer_config(cfg: RunConfig) -> OptimizerConfig:
    paper = cfg.preset == "paper"
    lr = cfg.lr or (0.001 if paper else 0.5)
    batch = cfg.batch_size or (128 if paper else 8)
    return OptimizerConfig(lr=lr, batch_size=batch, clip_norm=cfg.clip_norm, seed=cfg.seed)


def _train_variant(cfg: RunConfig, variant_name: str, data_dir, log_path=None, echo=True):
    """Shared by cmd_train and cmd_ablate: returns (checkpoint, datasets)."""
    vocab, schema, splits = _load_prepared(data_dir)
    encoded = {name: encode_records(recs, vocab, schema) for name, recs in splits.items()}
    if not encoded["train"]:
        raise DataError(f"training split in {data_dir} is empty")
    config = _model_config(cfg, variant_name, len(vocab), schema.width)
    params = build_model(config, cfg.seed)
    opt = _optimizer_config(cfg)

    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None

    def on_epoch(epoch, stats, dev_ppl):
        if log_fh is not None:
            log_fh.write(f"{epoch}\t{stats.mean_loss:.6f}\t{stats.ppl:.6f}\t{stats.seconds:.3f}\n")
            log_fh.flush()
        if echo:
            extra = f"  dev_ppl={dev_ppl:.4f}" if dev_ppl is not None else ""
            print(f"epoch {epoch}: loss/token={stats.mean_loss:.4f} ppl={stats.ppl:.4f}{extra}")

    try:
        final, best, history = fit(
            params,
            encoded["train"],
            encoded["dev"] or None,
            opt,
            epochs=cfg.epochs,
            on_epoch=on_epoch,
            stop_below_ppl=cfg.stop_below_ppl or None,
        )
    finally:
        if log_fh is not None:
            log_fh.close()

    extra = {
        "run_config": dataclasses.asdict(cfg),
        "variant": variant_name,
        "data_dir": str(data_dir),
        "data_checksums": _data_checksums(data_dir),
        "epochs_run": len(history),
    }
    ckpt = Checkpoint(
        params=final,
        step=len(history),
        variant_name=variant_name,
        vocab=vocab,
        schema=schema,
        extra=extra,
    )
    best_ckpt = dataclasses.replace(ckpt, params=best)
    return ckpt, best_ckpt, encoded


def cmd_train(cfg: RunConfig) -> int:
    out = _out_dir(cfg, "runs/train")
    ckpt, best_ckpt, encoded = _train_variant(
        cfg, cfg.variant, cfg.data_dir, log_path=out / "train_log.tsv"
    )
    save_checkpoint(out / "checkpoint_final.json", ckpt)
    if encoded["dev"]:
        save_checkpoint(out / "checkpoint_best.json", best_ckpt)
    train_ppl = dataset_perplexity(ckpt.params, encoded["train"])
    print(f"final train ppl={train_ppl:.4f}; artifacts in {out}")
    return 0


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def _load_users_file(data_dir) -> dict[str, dict]:
    path = Path(data_dir) / "users.json"
    if not path.exists():
        raise DataError(f"{path} not found; run prepare first or pass --user-json")
    return json.loads(path.read_text(encoding="utf-8"))


def _decode_input(profile: RawRecord, blog_ids, vocab: Vocab, schema: FeatureSchema) -> DecodeInput:
    d_tokens = augment_common_words(profile, 0)
    d_ids = vocab.encode(d_tokens) or [UNK_ID]
    return DecodeInput(
        x=tuple(blog_ids),
        f=featurize_user(profile, schema),
        d=tuple(d_ids),
        user_id=profile.user_id,
    )


def cmd_generate(cfg: RunConfig, args: argparse.Namespace) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    if ckpt.vocab is None or ckpt.schema is None:
        raise DataError("checkpoint lacks an embedded vocab/schema; cannot generate")
    vocab, schema = ckpt.vocab, ckpt.schema

    blog_tokens = args.blog.split()
    if not blog_tokens:
        raise UsageError("--blog must contain at least one token")
    blog_ids = vocab.encode(blog_tokens)

    profiles: list[RawRecord] = []
    user_ids = list(args.user or [])
    if user_ids:
        table = _load_users_file(cfg.data_dir)
        for uid in user_ids:
            if uid not in table:
                known = ", ".join(sorted(table)) or "(none)"
                raise DataError(f"unknown user {uid!r}; known users: {known}")
            profiles.append(_profile_record(table[uid]))
    for raw in args.user_json or []:
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as err:
            raise UsageError(f"--user-json is not valid JSON: {err.msg}") from None
        profiles.append(_profile_record(obj))
    if not profiles:
        raise UsageError("generate needs at least one --user or --user-json")

    decode_cfg = _decode_config(cfg)
    top = max(1, cfg.top)
    outputs = []
    for profile in profiles:
        hyps = beam_search(ckpt.params, _decode_input(profile, blog_ids, vocab, schema), decode_cfg)
        outputs.append((profile.user_id, hyps[:top]))

    headers = ["User", "Comment", "LogProb"]
    rows = []
    for uid, hyps in outputs:
        for rank, h in enumerate(hyps):
            words = vocab.decode(h.content_tokens, keep_specials=True)
            label = uid if rank == 0 else ""
            rows.append([label, " ".join(words) or "(empty)", f"{h.log_prob:.4f}"])
    sys.stdout.write(_format_table(headers, rows))

    if args.json:
        doc = {
            "blog": blog_tokens,
            "checkpoint_sha256": _sha256(args.checkpoint),
            "config": dataclasses.asdict(cfg),
            "users": [
                {
                    "user_id": uid,
                    "hypotheses": [
                        {
                            "token_ids": list(h.content_tokens),
                            "tokens": vocab.decode(h.content_tokens, keep_specials=True),
                            "log_prob": h.log_prob,
                            "finished": h.finished,
                        }
                        for h in hyps
                    ],
                }
                for uid, hyps in outputs
            ],
        }
        _write_json(args.json, doc)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _score_split(params, encoded_split, decode_cfg: DecodeConfig):
    pairs = []
    for ex in encoded_split:
        hyps = beam_search(params, ex, decode_cfg)
        best = hyps[0]
        pairs.append(EvalPair(hypothesis=best.content_tokens, reference=ex.y[1:-1]))
    scores = CorpusScores(
        ppl=dataset_perplexity(params, encoded_split),
        bleu2=bleu2(pairs),
        meteor=meteor_lite(pairs),
        pairs=len(pairs),
    )
    return scores, pairs


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    if ckpt.vocab is None or ckpt.schema is None:
        raise DataError("checkpoint lacks an embedded vocab/schema; cannot evaluate")
    if cfg.split not in ("train", "dev", "test"):
        raise UsageError(f"unknown split {cfg.split!r}; expected train, dev, or test")
    _, _, splits = _load_prepared(cfg.data_dir)
    records = splits[cfg.split]
    if not records:
        raise DataError(f"split {cfg.split!r} is empty")
    encoded = encode_records(records, ckpt.vocab, ckpt.schema)

    decode_cfg = _decode_config(cfg)
    scores, pairs = _score_split(ckpt.params, encoded, decode_cfg)

    report = dataclasses.asdict(scores)
    report.update({
        "split": cfg.split,
        "checkpoint_sha256": _sha256(args.checkpoint),
        "config": dataclasses.asdict(cfg),
        "data_checksums": _data_checksums(cfg.data_dir),
    })
    print(f"split={cfg.split} pairs={scores.pairs} ppl={scores.ppl:.4f} "
          f"bleu2={scores.bleu2:.4f} meteor={scores.meteor:.4f}")
    if args.json:
        _write_json(args.json, report)
    if args.dump_pairs:
        with atomic_write(args.dump_pairs) as fh:
            for i, pair in enumerate(pairs):
                hyp = " ".join(ckpt.vocab.decode(pair.hypothesis, keep_specials=True))
                ref = " ".join(ckpt.vocab.decode(pair.reference, keep_specials=True))
                fh.write(f"{i}\t{hyp}\t{ref}\n")
    return 0


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------


def _safe_name(variant_name: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in variant_name.lower()).strip("_")


def cmd_ablate(cfg: RunConfig) -> int:
    out = _out_dir(cfg, "runs/ablation")
    if cfg.eval_split not in ("train", "dev", "test"):
        raise UsageError(f"unknown eval_split {cfg.eval_split!r}")
    row_names = ["Seq2Seq"]
    if cfg.with_emb:
        row_names.append("Seq2Seq+Emb")
    row_names += ["+Mem", "+CoAtt", "+External"]

    decode_cfg = _decode_config(cfg)
    rows: list[dict] = []

    def write_report(final: bool):
        doc = {
            "config": dataclasses.asdict(cfg),
            "data_checksums": _data_checksums(cfg.data_dir),
            "comword_data_checksums": _data_checksums(cfg.comword_data) if cfg.comword_data else None,
            "eval_split": cfg.eval_split,
            "complete": final,
            "rows": rows,
        }
        _write_json(out / "ablation.json", doc)

    def run_row(name: str, data_dir):
        ckpt, _, encoded = _train_variant(cfg, name, data_dir, echo=False)
        eval_set = encoded[cfg.eval_split]
        if not eval_set:
            raise DataError(f"eval split {cfg.eval_split!r} in {data_dir} is empty")
        scores, _ = _score_split(ckpt.params, eval_set, decode_cfg)
        save_checkpoint(out / f"checkpoint_{_safe_name(name)}.json", ckpt)
        prev = rows[-1] if rows else None
        row = {
            "variant": name,
            "ppl": scores.ppl,
            "bleu2": scores.bleu2,
            "meteor": scores.meteor,
            "delta_ppl": scores.ppl - prev["ppl"] if prev else None,
            "delta_bleu2": scores.bleu2 - prev["bleu2"] if prev else None,
            "delta_meteor": scores.meteor - prev["meteor"] if prev else None,
        }
        rows.append(row)
        write_report(final=False)
        print(f"ablate: {name}: ppl={scores.ppl:.4f} bleu2={scores.bleu2:.4f} meteor={scores.meteor:.4f}")

    for name in row_names:
        run_row(name, cfg.data_dir)
    if cfg.comword_data:
        run_row("PCGN+ComWord", cfg.comword_data)
    write_report(final=True)

    def cell(val, delta, digits):
        txt = f"{val:.{digits}f}"
        if delta is not None:
            txt += f" ({delta:+.{digits}f})"
        return txt

    headers = ["Variant", "PPL", "B-2", "METEOR"]
    table_rows = [
        [
            r["variant"],
            cell(r["ppl"], r["delta_ppl"], 2),
            cell(r["bleu2"], r["delta_bleu2"], 3),
            cell(r["meteor"], r["delta_meteor"], 3),
        ]
        for r in rows
    ]
    table = _format_table(headers, table_rows)
    with atomic_write(out / "ablation.txt") as fh:
        fh.write(table)
    sys.stdout.write(table)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit code 1
        raise UsageError(message)


def _add_cfg_flags(parser: argparse.ArgumentParser, names: list[str]) -> None:
    for name in names:
        kind = _CONFIG_FIELDS[name]
        flag = "--" + name.replace("_", "-")
        if kind == "bool":
            parser.add_argument(flag, dest=name, action="store_true", default=argparse.SUPPRESS)
        else:
            parser.add_argument(flag, dest=name, default=argparse.SUPPRESS)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pcgn", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="split, vocab, schema, and user table from raw or synthetic data")
    p.add_argument("--config")
    _add_cfg_flags(p, [
        "input", "synthetic", "synthetic_users", "out_dir", "seed",
        "train_ratio", "dev_ratio", "test_ratio", "min_tokens",
        "min_user_records", "comword_k", "vocab_size",
    ])

    p = sub.add_parser("train", help="train one variant on a prepared directory")
    p.add_argument("--config")
    _add_cfg_flags(p, [
        "data_dir", "out_dir", "seed", "variant", "preset",
        "embed_dim", "blog_hidden", "blog_layers", "desc_hidden", "desc_layers", "user_dim",
        "lr", "batch_size", "epochs", "clip_norm", "stop_below_ppl",
    ])

    p = sub.add_parser("generate", help="beam-decode comments for one blog across users")
    p.add_argument("--config")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--blog", required=True)
    p.add_argument("--user", action="append")
    p.add_argument("--user-json", dest="user_json", action="append")
    p.add_argument("--json")
    _add_cfg_flags(p, ["data_dir", "beam_size", "max_len", "length_norm", "top"])

    p = sub.add_parser("eval", help="perplexity, BLEU-2, METEOR on a prepared split")
    p.add_argument("--config")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--json")
    p.add_argument("--dump-pairs", dest="dump_pairs")
    _add_cfg_flags(p, ["data_dir", "split", "beam_size", "max_len", "length_norm"])

    p = sub.add_parser("ablate", help="train and score the variant ladder on one prepared directory")
    p.add_argument("--config")
    _add_cfg_flags(p, [
        "data_dir", "out_dir", "seed", "preset",
        "embed_dim", "blog_hidden", "blog_layers", "desc_hidden", "desc_layers", "user_dim",
        "lr", "batch_size", "epochs", "clip_norm",
        "beam_size", "max_len", "length_norm",
        "with_emb", "comword_data", "eval_split",
    ])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_run_config(args)
        if args.command == "prepare":
            return cmd_prepare(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "generate":
            return cmd_generate(cfg, args)
        if args.command == "eval":
            return cmd_eval(cfg, args)
        if args.command == "ablate":
            return cmd_ablate(cfg)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (DataError, CheckpointError, OSError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except (NonFiniteError, ArithmeticError) as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
