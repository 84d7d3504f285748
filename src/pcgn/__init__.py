"""Personalized comment generation with a gated user memory, blog/profile
co-attention, and an external personality output head, plus the seq2seq
baselines it ablates against.  Training runs on the package's own
reverse-mode autodiff engine; numpy supplies array storage and kernels.

The command-line interface lives in :mod:`pcgn.cli` and is not imported
here, so ``python -m pcgn.cli`` loads it only once, as ``__main__``.
"""

from . import autodiff, checkpoint, data, decoding, metrics, model, synthetic, training
from .autodiff import GradientSet, NonFiniteError, ShapeError, Tape, Tensor
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (
    DataError,
    EncodedExample,
    FeatureSchema,
    RawRecord,
    Vocab,
    augment_common_words,
    build_vocab,
    encode_records,
    featurize_user,
    filter_records,
    fit_schema,
    parse_dataset,
    split_by_blog,
)
from .decoding import DecodeConfig, DecodeInput, Hypothesis, beam_search
from .metrics import EvalPair, bleu2, meteor_lite
from .model import ModelConfig, ModelParams, PRESETS, Variant, build_model
from .training import OptimizerConfig, dataset_perplexity, fit, sequence_loss, sgd_update, train_epoch

__version__ = "0.1.0"

__all__ = [
    "autodiff", "checkpoint", "data", "decoding", "metrics", "model",
    "synthetic", "training",
    "GradientSet", "NonFiniteError", "ShapeError", "Tape", "Tensor",
    "Checkpoint", "load_checkpoint", "save_checkpoint",
    "DataError", "EncodedExample", "FeatureSchema", "RawRecord", "Vocab",
    "augment_common_words", "build_vocab", "encode_records", "featurize_user",
    "filter_records", "fit_schema", "parse_dataset", "split_by_blog",
    "DecodeConfig", "DecodeInput", "Hypothesis", "beam_search",
    "EvalPair", "bleu2", "meteor_lite",
    "ModelConfig", "ModelParams", "PRESETS", "Variant", "build_model",
    "OptimizerConfig", "dataset_perplexity", "fit", "sequence_loss", "sgd_update", "train_epoch",
    "__version__",
]
