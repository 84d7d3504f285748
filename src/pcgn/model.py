"""Model core: LSTM layers, attention, gated user memory, decoder wiring.

The full network reads a blog token sequence X, a user profile vector F,
and a user description token sequence D, and decodes a comment:

* X goes through a stacked bidirectional LSTM encoder.
* F maps to a dense user vector v_u; D goes through its own (smaller)
  bidirectional LSTM encoder.
* The decoder is a stacked unidirectional LSTM.  Per step it attends over
  the blog states and (co-attention) the description states, consults a
  multiplicatively decaying user memory initialized from v_u, and emits a
  distribution either straight from its state or through an output head
  that mixes in a user representation derived from v_u and the
  description context.

Four flags select which pieces exist; every baseline in the ablation is a
flag subset of the full model (see :data:`PRESETS`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import excerpt

__all__ = [
    "Variant",
    "PRESETS",
    "variant_from_name",
    "ModelConfig",
    "LSTMCell",
    "AttentionResult",
    "DecoderState",
    "StepResult",
    "ModelParams",
    "param_spec",
    "build_model",
    "lstm_step",
    "bilstm_encode",
    "user_embed",
    "attention_context",
    "gated_memory_step",
    "encode_blog",
    "encode_description",
    "user_vector",
    "init_decoder_state",
    "initial_layers",
    "decoder_advance",
    "output_layer",
    "decoder_step",
]


@dataclass(frozen=True)
class Variant:
    """Which optional user-conditioning pieces the model carries."""

    use_user_embedding: bool = False
    use_gated_memory: bool = False
    use_coattention: bool = False
    use_external: bool = False

    def __post_init__(self):
        for f in fields(self):
            flag = getattr(self, f.name)
            if not isinstance(flag, bool):
                raise ValueError(f"variant flag {f.name} must be true or false, got {excerpt(flag)}")
        if self.use_external and not self.use_coattention:
            raise ValueError("use_external requires use_coattention (the output head reads the description context)")

    @property
    def needs_user_vector(self) -> bool:
        return self.use_user_embedding or self.use_gated_memory or self.use_external



_PCGN = Variant(use_gated_memory=True, use_coattention=True, use_external=True)

PRESETS: dict[str, Variant] = {
    "Seq2Seq": Variant(),
    "Seq2Seq+Emb": Variant(use_user_embedding=True),
    "+Mem": Variant(use_gated_memory=True),
    "+CoAtt": Variant(use_gated_memory=True, use_coattention=True),
    "+External": _PCGN,
    "PCGN": _PCGN,
    # Same network as PCGN; the difference is data-side (descriptions are
    # augmented with the author's frequent comment words during prepare).
    "PCGN+ComWord": _PCGN,
}


def variant_from_name(name: str) -> Variant:
    if name not in PRESETS:
        raise ValueError(f"unknown variant {excerpt(name)}; expected one of {sorted(PRESETS)}")
    return PRESETS[name]


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions, variant flags, and reserved token ids.

    ``unk_id``/``pad_id`` may be None for toy vocabularies; ``bos_id`` and
    ``eos_id`` are always required.  Decoder depth and width follow the
    blog encoder.
    """

    vocab_size: int
    feature_dim: int
    variant: Variant = field(default_factory=Variant)
    embed_dim: int = 300
    blog_hidden: int = 512
    blog_layers: int = 2
    desc_hidden: int = 200
    desc_layers: int = 1
    user_dim: int = 100
    pad_id: int | None = 0
    unk_id: int | None = 1
    bos_id: int = 2
    eos_id: int = 3

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if f.name == "variant" or (val is None and f.name in ("pad_id", "unk_id")):
                continue
            if not isinstance(val, int) or isinstance(val, bool):
                raise ValueError(f"{f.name} must be an integer, got {excerpt(val)}")
        for name in ("vocab_size", "embed_dim", "blog_hidden", "blog_layers",
                     "desc_hidden", "desc_layers", "user_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.feature_dim < 1 and self.variant.needs_user_vector:
            raise ValueError("feature_dim must be positive when the variant reads user features")
        for name in ("pad_id", "unk_id", "bos_id", "eos_id"):
            val = getattr(self, name)
            if val is not None and not (0 <= val < self.vocab_size):
                raise ValueError(f"{name}={val} out of range for vocab_size={self.vocab_size}")

    @classmethod
    def paper(cls, vocab_size: int, feature_dim: int, variant: Variant = PRESETS["PCGN"], **over) -> "ModelConfig":
        """Full-scale dimensions, the field defaults (40k vocab caps apply upstream)."""
        return cls(vocab_size=vocab_size, feature_dim=feature_dim, variant=variant, **over)

    @classmethod
    def desk(cls, vocab_size: int, feature_dim: int, variant: Variant = PRESETS["PCGN"], **over) -> "ModelConfig":
        """Laptop-scale dimensions for tests and the synthetic corpus."""
        base = dict(embed_dim=16, blog_hidden=32, blog_layers=1,
                    desc_hidden=16, desc_layers=1, user_dim=8)
        base.update(over)
        return cls(vocab_size=vocab_size, feature_dim=feature_dim, variant=variant, **base)

    @property
    def decoder_hidden(self) -> int:
        return self.blog_hidden

    @property
    def decoder_layers(self) -> int:
        return self.blog_layers

    @property
    def decoder_input_dim(self) -> int:
        v = self.variant
        dim = 2 * self.blog_hidden + self.embed_dim
        if v.use_coattention:
            dim += 2 * self.desc_hidden
        if v.use_user_embedding:
            dim += self.user_dim
        if v.use_gated_memory:
            dim += self.user_dim
        return dim

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ModelConfig":
        obj, variant = dict(obj), dict(obj["variant"])
        for kind, given, where in ((cls, obj, "model"), (Variant, variant, "model.variant")):
            unknown = [key for key in given if key not in kind.__dataclass_fields__]
            if unknown:  # named cut: Python's own message would hold the whole key
                raise ValueError(f"{where} has an unknown key {excerpt(unknown[0])}")
        return cls(**dict(obj, variant=Variant(**variant)))


@dataclass
class LSTMCell:
    """Packed single-cell parameters: the rows hold the input, forget,
    candidate and output gates, in that order, each a hidden-size slab."""

    w_x: Tensor  # (4H, in_dim)
    w_h: Tensor  # (4H, H)
    b: Tensor    # (4H,)

    @property
    def hidden(self) -> int:
        return self.w_h.shape[1]


class AttentionResult(NamedTuple):
    context: Tensor
    weights: Tensor


class DecoderState(NamedTuple):
    """Per-layer (h, c) pairs plus the user memory cell and step count."""

    layers: tuple[tuple[Tensor, Tensor], ...]
    memory: Tensor | None
    step: int = 0

    @property
    def top_h(self) -> Tensor:
        return self.layers[-1][0]


class StepResult(NamedTuple):
    logits: Tensor
    state: DecoderState
    blog_attention: Tensor
    desc_attention: Tensor | None


def param_spec(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Canonical (name, shape) list; also the allocation/serialization order."""
    v = config.variant
    spec: list[tuple[str, tuple[int, ...]]] = []
    spec.append(("embedding", (config.vocab_size, config.embed_dim)))

    def cell(prefix: str, in_dim: int, hidden: int):
        spec.append((f"{prefix}.w_x", (4 * hidden, in_dim)))
        spec.append((f"{prefix}.w_h", (4 * hidden, hidden)))
        spec.append((f"{prefix}.b", (4 * hidden,)))

    in_dim = config.embed_dim
    for layer in range(config.blog_layers):
        cell(f"blog_enc.l{layer}.fwd", in_dim, config.blog_hidden)
        cell(f"blog_enc.l{layer}.bwd", in_dim, config.blog_hidden)
        in_dim = 2 * config.blog_hidden

    if v.use_coattention:
        in_dim = config.embed_dim
        for layer in range(config.desc_layers):
            cell(f"desc_enc.l{layer}.fwd", in_dim, config.desc_hidden)
            cell(f"desc_enc.l{layer}.bwd", in_dim, config.desc_hidden)
            in_dim = 2 * config.desc_hidden

    if v.needs_user_vector:
        spec.append(("user_proj.w", (config.user_dim, config.feature_dim)))
        spec.append(("user_proj.b", (config.user_dim,)))

    spec.append(("attn_blog", (config.decoder_hidden, 2 * config.blog_hidden)))
    if v.use_coattention:
        spec.append(("attn_desc", (config.decoder_hidden, 2 * config.desc_hidden)))

    if v.use_gated_memory:
        spec.append(("mem_update", (config.user_dim, config.decoder_hidden)))
        gate_in = config.decoder_hidden + config.embed_dim + 2 * config.blog_hidden
        spec.append(("mem_output", (config.user_dim, gate_in)))

    in_dim = config.decoder_input_dim
    for layer in range(config.decoder_layers):
        cell(f"dec.l{layer}", in_dim, config.decoder_hidden)
        in_dim = config.decoder_hidden

    summary = 2 * config.blog_hidden
    for layer in range(config.decoder_layers):
        spec.append((f"init.l{layer}.h.w", (config.decoder_hidden, summary)))
        spec.append((f"init.l{layer}.h.b", (config.decoder_hidden,)))
        spec.append((f"init.l{layer}.c.w", (config.decoder_hidden, summary)))
        spec.append((f"init.l{layer}.c.b", (config.decoder_hidden,)))

    if v.use_external:
        spec.append(("user_mix", (config.user_dim, config.user_dim + 2 * config.desc_hidden)))
        spec.append(("out_mix", (config.vocab_size, config.decoder_hidden + config.user_dim)))
    else:
        spec.append(("out_proj", (config.vocab_size, config.decoder_hidden)))
    return spec


class ModelParams:
    """Structured view over a flat name -> Tensor mapping.

    The mapping is the single source of truth (serialization order =
    :func:`param_spec` order); the structured attributes alias the same
    tensors for forward-pass convenience.
    """

    def __init__(self, config: ModelConfig, tensors: dict[str, Tensor]):
        expected = param_spec(config)
        names = {n for n, _ in expected}
        missing = [n for n, _ in expected if n not in tensors]
        extra = [n for n in tensors if n not in names]
        if missing or extra:
            raise ValueError(f"parameter names mismatch: missing={missing} extra={extra}")
        for name, shape in expected:
            got = tensors[name].shape
            if got != shape:
                raise ValueError(f"parameter {name} has shape {got}, expected {shape}")
        self.config = config
        self._tensors = {name: tensors[name] for name, _ in expected}
        self._build_views()

    def _cell(self, prefix: str) -> LSTMCell:
        t = self._tensors
        return LSTMCell(w_x=t[f"{prefix}.w_x"], w_h=t[f"{prefix}.w_h"], b=t[f"{prefix}.b"])

    def _build_views(self):
        cfg, t = self.config, self._tensors
        v = cfg.variant
        self.embedding = t["embedding"]
        self.blog_fwd = [self._cell(f"blog_enc.l{i}.fwd") for i in range(cfg.blog_layers)]
        self.blog_bwd = [self._cell(f"blog_enc.l{i}.bwd") for i in range(cfg.blog_layers)]
        self.desc_fwd = [self._cell(f"desc_enc.l{i}.fwd") for i in range(cfg.desc_layers)] if v.use_coattention else None
        self.desc_bwd = [self._cell(f"desc_enc.l{i}.bwd") for i in range(cfg.desc_layers)] if v.use_coattention else None
        self.user_proj = (t["user_proj.w"], t["user_proj.b"]) if v.needs_user_vector else None
        self.attn_blog = t["attn_blog"]
        self.attn_desc = t["attn_desc"] if v.use_coattention else None
        self.mem_update = t["mem_update"] if v.use_gated_memory else None
        self.mem_output = t["mem_output"] if v.use_gated_memory else None
        self.decoder = [self._cell(f"dec.l{i}") for i in range(cfg.decoder_layers)]
        self.state_init = [
            ((t[f"init.l{i}.h.w"], t[f"init.l{i}.h.b"]), (t[f"init.l{i}.c.w"], t[f"init.l{i}.c.b"]))
            for i in range(cfg.decoder_layers)
        ]
        self.user_mix = t["user_mix"] if v.use_external else None
        self.out_mix = t["out_mix"] if v.use_external else None
        self.out_proj = t["out_proj"] if not v.use_external else None

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self._tensors.items())

    def tensor(self, name: str) -> Tensor:
        return self._tensors[name]

    def with_tensors(self, tensors: dict[str, Tensor]) -> "ModelParams":
        merged = dict(self._tensors)
        merged.update(tensors)
        return ModelParams(self.config, merged)



def build_model(config: ModelConfig, seed: int) -> ModelParams:
    """Allocate and initialize all parameters for the configured variant.

    Uniform [-0.08, 0.08] from a seeded generator, consumed in param_spec
    order (so equal seeds give bitwise-equal models); forget-gate bias
    slabs are then set to 1.
    """
    rng = np.random.default_rng(seed)
    tensors: dict[str, Tensor] = {}
    for name, shape in param_spec(config):
        tensors[name] = Tensor(rng.uniform(-0.08, 0.08, size=shape))
    params = ModelParams(config, tensors)
    for stack in (params.blog_fwd, params.blog_bwd, params.desc_fwd or (),
                  params.desc_bwd or (), params.decoder):
        for cell in stack:
            cell.b.array[cell.hidden : 2 * cell.hidden] = 1.0
    return params


# ---------------------------------------------------------------------------
# Layer computations.
# ---------------------------------------------------------------------------


def lstm_step(cell: LSTMCell, x: Tensor, h_prev: Tensor, c_prev: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM cell application -> (h, c), one ``ad.lstm_cell`` entry."""
    return ad.lstm_cell(cell.w_x, cell.w_h, cell.b, x, h_prev, c_prev)


def bilstm_encode(
    fwd_cells: Sequence[LSTMCell],
    bwd_cells: Sequence[LSTMCell],
    inputs: Tensor,
    lengths: Sequence[int] | None = None,
) -> Tensor:
    """Stacked bidirectional encoding of one sequence or a block of them.

    ``inputs`` holds the input vectors as rows: one sequence, or with
    ``lengths`` a block of sequences, one after another.  Row i of the
    result is [h_fwd; h_bwd] at input row i.  Both directions start from
    zero states.  Each layer is one ``ad.bilstm_layer`` tape entry, which
    runs both directions and joins their states, for one sequence or a
    block.  Layer l+1 consumes layer l's outputs.  Every sequence must be
    non-empty, and a layer's two directions must have the same hidden size.
    """
    if len(fwd_cells) != len(bwd_cells) or len(fwd_cells) == 0:
        raise ValueError("encoder needs matching non-empty forward/backward stacks")
    seq = inputs
    for fwd, bwd in zip(fwd_cells, bwd_cells):
        seq = ad.bilstm_layer((fwd.w_x, fwd.w_h, fwd.b), (bwd.w_x, bwd.w_h, bwd.b), seq, lengths)
    return seq


def user_embed(w: Tensor, b: Tensor, features: Tensor) -> Tensor:
    """Dense user vector v_u = tanh(W F + b), one ``ad.tanh_affine`` entry."""
    return ad.tanh_affine(w, b, features)


def attention_context(
    s_prev: Tensor, states: Tensor, w_a: Tensor, mask: np.ndarray | None = None
) -> AttentionResult:
    """Bilinear attention, one ``ad.attention`` entry: score_j = s' W h_j,
    weights = softmax, context = the weighted sum of the states.  ``states``
    is the encoder's (T, 2H) matrix, ``s_prev`` one decoder state or a
    (B, H) block, and ``mask`` (B, T) keeps each row to the states where it
    is True.  The weights are tape-free: no loss reads them."""
    context, weights = ad.attention(s_prev, states, w_a, mask)
    return AttentionResult(context=context, weights=weights)


def gated_memory_step(
    w_update: Tensor,
    w_output: Tensor,
    s_t: Tensor,
    s_prev: Tensor,
    e_prev: Tensor,
    c_blog: Tensor,
    m_prev: Tensor,
) -> tuple[Tensor, Tensor]:
    """Decay the user memory and gate what the decoder may read.

    update gate  g_u = sigmoid(W_u s_t)        -> M_t   = g_u * M_{t-1}
    output gate  g_o = sigmoid(W_o [s_prev; e_prev; c_blog]) -> M_t^o = g_o * M_t

    Both gates and their products are one ``ad.gated_memory`` entry.  The
    gates lie in [0, 1], exactly 0 or 1 once the argument reaches 38 in
    size, so no coordinate of |M_t| grows; one may stay or hit 0.
    The caller decides which state to pass as ``s_t``; the decoder passes
    the previous step's state in both slots because the new state does not
    exist until after the memory read feeds the LSTM.
    """
    return ad.gated_memory(w_update, w_output, s_t, s_prev, e_prev, c_blog, m_prev)


# ---------------------------------------------------------------------------
# Full-network forward pieces.
# ---------------------------------------------------------------------------


def encode_blog(params: ModelParams, x_ids: Sequence[int], lengths: Sequence[int] | None = None) -> Tensor:
    """The blog encoder's states as one (T, 2H) matrix, row t = [h_fwd; h_bwd].

    ``x_ids`` is one blog, or a block of blogs one after another with
    ``lengths`` their lengths; one embedding lookup reads all the ids.
    """
    ids = np.asarray(x_ids, dtype=np.intp)
    return bilstm_encode(params.blog_fwd, params.blog_bwd, ad.embedding_lookup(params.embedding, ids), lengths)


def encode_description(params: ModelParams, d_ids: Sequence[int], lengths: Sequence[int] | None = None) -> Tensor:
    """The description encoder's states as one (T, 2H) matrix; ids as for
    :func:`encode_blog`."""
    if params.desc_fwd is None:
        raise ValueError("this variant has no description encoder")
    ids = np.asarray(d_ids, dtype=np.intp)
    return bilstm_encode(params.desc_fwd, params.desc_bwd, ad.embedding_lookup(params.embedding, ids), lengths)


def user_vector(params: ModelParams, features: Tensor | np.ndarray) -> Tensor:
    """v_u for one user's features, or one row per row of a (B, F) block."""
    if params.user_proj is None:
        raise ValueError("this variant has no user projection")
    if not isinstance(features, Tensor):
        features = Tensor(features)
    feature_dim = params.config.feature_dim
    if features.array.ndim not in (1, 2) or features.shape[-1] != feature_dim:
        raise ad.ShapeError(f"user features have shape {features.shape}, expected ({feature_dim},) or (B, {feature_dim})")
    return user_embed(*params.user_proj, features)


def init_decoder_state(
    params: ModelParams,
    blog_states: Tensor,
    v_u: Tensor | None,
    lengths: Sequence[int] | None = None,
) -> DecoderState:
    """Initial per-layer (h, c) from the encoder's final states; M_0 = v_u.

    With s the blog summary [h_fwd at the last position; h_bwd at the
    first], each layer's h = tanh(W_h s + b_h) and c = tanh(W_c s + b_c),
    one ``ad.tanh_affine`` entry each.  Without ``lengths``, ``blog_states`` is one example's and the state is
    one row of vectors.  With ``lengths`` (each example's rows of
    ``blog_states``, as for :func:`encode_blog`) the state is a block with
    one row per example, and so is ``v_u``.
    """
    cfg = params.config
    if cfg.variant.use_gated_memory and v_u is None:
        raise ValueError("gated memory needs a user vector for M_0")
    memory = v_u if cfg.variant.use_gated_memory else None
    return DecoderState(layers=initial_layers(params, blog_states, lengths), memory=memory, step=0)


def initial_layers(
    params: ModelParams, blog_states: Tensor, lengths: Sequence[int] | None = None
) -> tuple[tuple[Tensor, Tensor], ...]:
    """The (h, c) layers of :func:`init_decoder_state`, which need no v_u:
    vectors for one blog, or with ``lengths`` one row per blog."""
    hidden = params.config.blog_hidden
    if lengths is None:
        first, last = 0, blog_states.shape[0] - 1
    else:
        last = np.cumsum(lengths, dtype=np.intp) - 1
        first = last - np.asarray(lengths, dtype=np.intp) + 1
    # Rows of the (T, 2H) states are [fwd; bwd]: the forward summary sits
    # at an example's last position, the backward summary at its first.
    summary = ad.concat([
        ad.vslice(ad.embedding_lookup(blog_states, last), 0, hidden),
        ad.vslice(ad.embedding_lookup(blog_states, first), hidden, 2 * hidden),
    ])
    return tuple((ad.tanh_affine(*h, summary), ad.tanh_affine(*c, summary)) for h, c in params.state_init)


def decoder_advance(
    params: ModelParams,
    state: DecoderState,
    y_prev: int | np.ndarray,
    blog_states: Tensor,
    desc_states: Tensor | None,
    v_u: Tensor | None,
    blog_mask: np.ndarray | None = None,
    desc_mask: np.ndarray | None = None,
) -> tuple[DecoderState, AttentionResult, AttentionResult | None]:
    """The recurrent part of a decoder step: previous token ids -> new state.

    Runs one row (vector state tensors, an int ``y_prev``) or a block of B
    independent rows ((B, .) state tensors, B ids in ``y_prev``, and a
    (B, U) ``v_u``); every row attends over the same (T, 2H) encoder
    states, and each layer is one primitive call for the whole block.
    When the rows come from several examples, the encoder states join
    theirs and the (B, T) masks keep each row to its own example's states
    (see :func:`attention_context`).  A block applies each weight as one
    GEMM, so its rows match stepping each row alone only to rounding.
    All step-t gates and attention read the previous top state; the
    memory read M_t^o joins the LSTM input.  Returns the new state and the
    step's blog and description attention (None without co-attention).
    """
    cfg = params.config
    v = cfg.variant
    if len(state.layers) != cfg.decoder_layers:
        raise ValueError("decoder state does not match the configured depth")
    if v.use_gated_memory != (state.memory is not None):
        raise ValueError("decoder state memory does not match the variant")
    if v.use_coattention != (desc_states is not None):
        raise ValueError("description states do not match the variant")
    if v.needs_user_vector != (v_u is not None):
        raise ValueError("user vector does not match the variant")

    s_prev = state.top_h
    blog_attn = attention_context(s_prev, blog_states, params.attn_blog, blog_mask)
    desc_attn = attention_context(s_prev, desc_states, params.attn_desc, desc_mask) if v.use_coattention else None
    e_prev = ad.embedding_lookup(params.embedding, y_prev)

    new_memory = None
    m_read = None
    if v.use_gated_memory:
        new_memory, m_read = gated_memory_step(
            params.mem_update, params.mem_output,
            s_prev, s_prev, e_prev, blog_attn.context, state.memory,
        )

    parts = [blog_attn.context]
    if v.use_coattention:
        parts.append(desc_attn.context)
    parts.append(e_prev)
    if v.use_user_embedding:
        parts.append(v_u)
    if v.use_gated_memory:
        parts.append(m_read)
    x = ad.concat(parts)

    new_layers = []
    for cell, (h_prev, c_prev) in zip(params.decoder, state.layers):
        h, c = lstm_step(cell, x, h_prev, c_prev)
        new_layers.append((h, c))
        x = h
    new_state = DecoderState(layers=tuple(new_layers), memory=new_memory, step=state.step + 1)
    return new_state, blog_attn, desc_attn


def output_layer(
    params: ModelParams,
    s_t: Tensor,
    v_u: Tensor | None,
    desc_context: Tensor | None,
) -> Tensor:
    """Logits from the decoder's new top state: W_out s_t, or for the
    external variants W_out [s_t; W_mix [v_u; c_desc]].

    ``v_u`` and ``desc_context`` have s_t's rows and are read only by the
    external variants.  Each weight is one ``ad.matvec``: one GEMM over a
    block's rows.
    """
    if params.config.variant.use_external:
        r_u = ad.matvec(params.user_mix, ad.concat([v_u, desc_context]))
        return ad.matvec(params.out_mix, ad.concat([s_t, r_u]))
    return ad.matvec(params.out_proj, s_t)


def decoder_step(
    params: ModelParams,
    state: DecoderState,
    y_prev: int | np.ndarray,
    blog_states: Tensor,
    desc_states: Tensor | None,
    v_u: Tensor | None,
) -> StepResult:
    """One decoding step: :func:`decoder_advance`, then the new top state
    through :func:`output_layer`.  A block of rows takes one GEMM per
    weight, so a row's logits match stepping that row alone to rounding."""
    new_state, blog_attn, desc_attn = decoder_advance(params, state, y_prev, blog_states, desc_states, v_u)
    desc_context = None if desc_attn is None else desc_attn.context
    return StepResult(
        logits=output_layer(params, new_state.top_h, v_u, desc_context),
        state=new_state,
        blog_attention=blog_attn.weights,
        desc_attention=desc_attn.weights if desc_attn is not None else None,
    )
