"""Checkpoint serialization: one JSON file, parameters as base64 blobs.

Array bytes are little-endian IEEE-754 regardless of host byte order,
row-major element order.  Files are written as float64 ("<f8"); float32
("<f4") blobs from older files still load, widened to float64.  Saving the
same model twice yields byte-identical files; load(save(p)) reproduces
every parameter bitwise.
"""

from __future__ import annotations

import base64
import json
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import NonFiniteError, Tensor
from .data import FeatureSchema, Vocab, excerpt
from .model import ModelConfig, ModelParams

__all__ = [
    "CheckpointError",
    "CheckpointVersionError",
    "CheckpointShapeError",
    "CheckpointCorruptError",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "FORMAT_NAME",
    "FORMAT_VERSION",
]

FORMAT_NAME = "pcgn.checkpoint"
FORMAT_VERSION = 1

_DTYPE_CODES = {"float64": "<f8", "float32": "<f4"}


class CheckpointError(ValueError):
    """Base class for unusable checkpoint files."""


class CheckpointVersionError(CheckpointError):
    """Unknown format name or unsupported version."""


class CheckpointShapeError(CheckpointError):
    """Parameter names/shapes disagree with the embedded config."""


class CheckpointCorruptError(CheckpointError):
    """File is not decodable as a checkpoint at all."""


@dataclass
class Checkpoint:
    params: ModelParams
    vocab: Vocab
    schema: FeatureSchema
    step: int = 0
    variant_name: str = ""
    extra: dict = field(default_factory=dict)


def _encode_array(arr: np.ndarray) -> dict:
    blob = arr.astype("<f8", copy=False).tobytes(order="C")
    return {
        "shape": list(arr.shape),
        "dtype": "float64",
        "data": base64.b64encode(blob).decode("ascii"),
    }


def _decode_tensor(obj: dict, name: str) -> Tensor:
    try:
        shape = tuple(int(d) for d in obj["shape"])
        dtype = obj["dtype"]
        blob = base64.b64decode(obj["data"], validate=True)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise CheckpointCorruptError(f"parameter {excerpt(name)}: {err}") from None
    if any(d < 0 for d in shape):
        raise CheckpointCorruptError(f"parameter {excerpt(name)}: negative dimension in shape {shape}")
    if not isinstance(dtype, str) or dtype not in _DTYPE_CODES:
        raise CheckpointCorruptError(f"parameter {excerpt(name)}: unsupported dtype {excerpt(dtype)}")
    try:
        arr = np.frombuffer(blob, dtype=_DTYPE_CODES[dtype])
    except ValueError as err:
        raise CheckpointCorruptError(f"parameter {excerpt(name)}: {err}") from None
    expected = math.prod(shape)
    if arr.size != expected:
        raise CheckpointCorruptError(
            f"parameter {excerpt(name)}: payload holds {arr.size} elements, shape {shape} needs {expected}"
        )
    try:  # the one NaN/Inf scan of this array is Tensor's
        return Tensor(arr.reshape(shape).astype(np.float64))
    except NonFiniteError:
        raise CheckpointCorruptError(f"parameter {excerpt(name)}: payload holds NaN or infinity") from None


@contextmanager
def atomic_write(path):
    """Open a text file whose contents replace ``path`` only once complete.

    Writes go to a sibling ``<name>.tmp`` that ``os.replace`` moves over the
    target after the block finishes, so an interrupted write leaves the
    previous file intact.  On any failure the temp file is removed.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(path, checkpoint: Checkpoint) -> None:
    """Write a checkpoint; deterministic bytes for identical inputs."""
    params = checkpoint.params
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "step": int(checkpoint.step),
        "variant_name": checkpoint.variant_name,
        "model": params.config.to_dict(),
        "vocab": checkpoint.vocab.to_dict(),
        "schema": checkpoint.schema.to_dict(),
        "extra": checkpoint.extra,
        "params": {name: _encode_array(t.array) for name, t in params.named_parameters()},
    }
    with atomic_write(path) as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_checkpoint(path) -> Checkpoint:
    """Read and validate a checkpoint.

    Raises CheckpointCorruptError for undecodable files (the embedded
    vocab and schema included), CheckpointVersionError for foreign/newer
    formats, and CheckpointShapeError when parameters disagree with the
    config.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as err:
        raise CheckpointCorruptError(f"not UTF-8 text: {err}") from None
    except (ValueError, RecursionError) as err:  # also an integer past the digit limit, or deep nesting
        raise CheckpointCorruptError(f"not a JSON document: {getattr(err, 'msg', err)}") from None
    if not isinstance(doc, dict) or "format" not in doc:
        raise CheckpointCorruptError("missing format marker")
    if doc.get("format") != FORMAT_NAME:
        raise CheckpointVersionError(f"format {excerpt(doc.get('format'))} is not {FORMAT_NAME!r}")
    if doc.get("version") != FORMAT_VERSION:
        raise CheckpointVersionError(
            f"version {excerpt(doc.get('version'))} unsupported; this build reads version {FORMAT_VERSION}"
        )
    try:
        config = ModelConfig.from_dict(doc["model"])
        raw_params = dict(doc["params"])
        step = doc.get("step", 0)
        if type(step) is not int or step < 0:
            shown = "infinity" if isinstance(step, float) and math.isinf(step) else excerpt(step)
            raise ValueError(f"step must be a non-negative integer, got {shown}")
        variant_name = str(doc.get("variant_name", ""))
        vocab = Vocab.from_dict(doc["vocab"])
        schema = FeatureSchema.from_dict(doc["schema"])
        extra = doc.get("extra") or {}
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise CheckpointCorruptError(f"bad checkpoint structure: {err}") from None

    tensors = {name: _decode_tensor(obj, name) for name, obj in raw_params.items()}
    try:
        params = ModelParams(config, tensors)
    except ValueError as err:
        raise CheckpointShapeError(str(err)) from None
    return Checkpoint(params, vocab, schema, step=step, variant_name=variant_name, extra=extra)
