"""Model variants: CNN and LSTM baselines plus the graph models.

Every variant ends the same way: max-pool over its representation rows,
then a linear projection to class logits. Graph variants share the
pipeline encoder -> document graph -> graph layer -> pool -> project;
the baselines flatten the document to one token sequence. ``SPECS``
holds every per-variant fact; the code below branches on its fields,
never on variant names. ``param_layout`` lists the tensors a variant
owns; initialization, checkpoint validation and the forward pass all
follow it, and its names appear nowhere else: the encoder and the layers
take bare tensors. The encoder LSTM is three fused tensors, gate columns i|f|o|g.
The graph part is the paper's single unnormalized convolution (or attention
layer), and every leaky ReLU uses the fixed slope ``LEAKY_SLOPE``.

Single-sentence documents have no neighbors, so graph variants bypass
the propagation step and project the lone node feature through the
layer weights directly.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Tensor
from .corpus import DEFAULT_MAX_SENTENCES, DEFAULT_MAX_TOKENS, ClassSet, Document
from .encoder import embed, encode_document, flat_tokens, lstm_last_hidden
from .errors import ModelError, is_count, is_finite_real, is_int
from .graph import EdgeWeightSet, build_graph
from .layers import gcn_layer, multi_head, self_attention

CNN_WIDTH = 3
LEAKY_SLOPE = 0.2


@dataclass(frozen=True)
class VariantSpec:
    """What sets one variant apart: the representation it pools (``kind``:
    cnn, lstm, gcn or gat), its attention heads, a self-attention layer
    after the convolution, and similarity-weighted edges."""

    kind: str
    heads: int = 1
    self_attn: bool = False
    edge_weights: bool = False

    @property
    def is_graph(self) -> bool:
        return self.kind in ("gcn", "gat")

    @property
    def produces_attention(self) -> bool:
        return self.kind == "gat" or self.self_attn


SPECS: dict[str, VariantSpec] = {
    "cnn": VariantSpec("cnn"),
    "lstm": VariantSpec("lstm"),
    "gcn": VariantSpec("gcn"),
    "gcn_ss": VariantSpec("gcn", edge_weights=True),
    "gcn_attn": VariantSpec("gcn", self_attn=True),
    "gcn_attn_ss": VariantSpec("gcn", self_attn=True, edge_weights=True),
    "gat": VariantSpec("gat"),
    "gat2": VariantSpec("gat", heads=2),
}
VARIANTS = tuple(SPECS)


@dataclass(frozen=True)
class ModelConfig:
    """Variant selector, dimensions, and training hyperparameters."""

    variant: str
    vocab_size: int
    class_names: tuple[str, ...]
    embed_dim: int = 100
    hidden_dim: int = 100
    node_dim: int = 32
    seed: int = 0
    lr: float = AdamState.lr
    max_epochs: int = 10
    max_sentences: int = DEFAULT_MAX_SENTENCES
    max_tokens: int = DEFAULT_MAX_TOKENS

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ModelError(f"unknown variant '{self.variant}'; choose from {VARIANTS}")
        if len(self.class_names) < 2:
            raise ModelError("a model needs at least 2 classes")
        if (not all(isinstance(c, str) and c for c in self.class_names)
                or len(set(self.class_names)) != len(self.class_names)):
            raise ModelError("class_names must be unique non-empty strings")
        for name in ("vocab_size", "embed_dim", "hidden_dim", "node_dim", "max_sentences",
                     "max_tokens"):
            value = getattr(self, name)
            if not is_count(value):
                raise ModelError(f"{name} must be a positive integer up to {sys.maxsize}")
        for name in ("seed", "max_epochs"):
            value = getattr(self, name)
            if not is_int(value) or value < 0:
                raise ModelError(f"{name} must be a non-negative integer")
        if not is_finite_real(self.lr) or self.lr <= 0:
            raise ModelError("lr must be a finite number above 0")
        object.__setattr__(self, "class_names", tuple(self.class_names))

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def spec(self) -> VariantSpec:
        return SPECS[self.variant]

    @property
    def pool_dim(self) -> int:
        if not self.spec.is_graph:
            return self.hidden_dim
        return self.node_dim * self.spec.heads

    @property
    def class_set(self) -> ClassSet:
        return ClassSet(self.class_names)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ModelError(f"unknown config fields: {sorted(unknown)}")
        data = dict(data)
        # a JSON string or object would iterate into other class names
        if not isinstance(data["class_names"], list):
            raise ModelError("class_names must be a list")
        data["class_names"] = tuple(data["class_names"])
        return cls(**data)


def _require_weights(config: ModelConfig, weights: EdgeWeightSet | None) -> None:
    """Raise ModelError if the variant reads edge weights and ``weights`` is None."""
    if config.spec.edge_weights and weights is None:
        raise ModelError(f"variant '{config.variant}' requires an edge-weight set")


def check_documents(docs: list[Document], config: ModelConfig,
                    weights: EdgeWeightSet | None, error: type[Exception]) -> None:
    """The rule for a document that can be trained on or scored, checked in
    order so the first bad document is named: its label is a class index of
    ``config`` (``error`` if not) and, for a variant that reads edge weights,
    ``weights`` holds a matrix that fits it under ``config.max_sentences``
    (``matrix_for``'s GraphError if not)."""
    _require_weights(config, weights)
    for doc in docs:
        if doc.label is None:  # encoded without a class set
            raise error(f"document '{doc.id}' has no label")
        if not (is_int(doc.label) and 0 <= doc.label < config.n_classes):
            raise error(f"document '{doc.id}' has label {doc.label!r}, not a class "
                        f"index below {config.n_classes}")
        if config.spec.edge_weights:
            weights.matrix_for(doc.id, doc.n_sentences, config.max_sentences)


@dataclass
class ModelParams:
    """All learned tensors for one variant, keyed by their ``param_layout`` name."""

    tensors: dict[str, Tensor]


def param_layout(config: ModelConfig) -> dict[str, tuple[tuple[int, ...], str]]:
    """Every tensor a variant owns, in draw order: name -> (shape, init).

    ``init`` is "xavier", "zeros" or "lstm" (the three fused LSTM
    tensors, drawn together by ``_draw_lstm``); a 1-D xavier vector draws as
    a column (the GAT pair-scoring vector scores a 2*node concatenation).
    """
    spec = config.spec
    embed, hidden, node = config.embed_dim, config.hidden_dim, config.node_dim
    layout = {"embedding": ((config.vocab_size, embed), "xavier")}
    if spec.kind == "cnn":
        for k in range(CNN_WIDTH):
            layout[f"cnn.w{k}"] = ((embed, hidden), "xavier")
        layout["cnn.b"] = ((hidden,), "zeros")
    else:
        layout["lstm.w_x"] = ((embed, 4 * hidden), "lstm")
        layout["lstm.w_h"] = ((hidden, 4 * hidden), "lstm")
        layout["lstm.b"] = ((4 * hidden,), "lstm")
    if spec.kind == "gcn":
        layout["gcn.0.w"] = ((hidden, node), "xavier")
    if spec.self_attn:
        for name in ("q", "k", "v"):
            layout[f"attn.{name}"] = ((node, node), "xavier")
    if spec.kind == "gat":
        for h in range(spec.heads):
            layout[f"gat.{h}.w"] = ((hidden, node), "xavier")
            layout[f"gat.{h}.a"] = ((2 * node,), "xavier")
    layout["proj.w"] = ((config.pool_dim, config.n_classes), "xavier")
    layout["proj.b"] = ((config.n_classes,), "zeros")
    return layout


def check_layout(config: ModelConfig, shapes: list[tuple[str, tuple[int, ...]]]) -> None:
    """Raise ModelError unless ``shapes`` (name, shape pairs) lists the
    variant's tensors in layout order with the layout's shapes."""
    layout = param_layout(config)
    names = [name for name, _ in shapes]
    if names != list(layout):
        raise ModelError(
            f"parameters {names} do not match variant '{config.variant}' "
            f"(expected {list(layout)})"
        )
    for name, shape in shapes:
        expected = layout[name][0]
        if tuple(shape) != expected:
            raise ModelError(f"parameter '{name}' has shape {tuple(shape)}, "
                             f"expected {expected}")


def xavier_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    a = np.sqrt(6.0 / (rows + cols))
    out = rng.random((rows, cols))  # rng.uniform(-a, a)'s bytes: low + (high - low) * u
    out *= a - -a
    out += -a
    return out


def _draw(rng: np.random.Generator, shape: tuple[int, ...], init: str) -> np.ndarray:
    if init == "zeros":
        return np.zeros(shape)
    rows, cols = shape if len(shape) == 2 else (shape[0], 1)
    return xavier_uniform(rng, rows, cols).reshape(shape)


def _draw_lstm(rng: np.random.Generator, embed: int, hidden: int) -> dict[str, np.ndarray]:
    """The fused encoder LSTM, gate columns i|f|o|g. Each gate's w_x block, then
    its w_h block, is drawn with its own xavier bound, gate by gate in i, f, g, o
    order as checkpoint format 1 drew them, so a seed gives the same values."""
    w_x, w_h = np.empty((embed, 4 * hidden)), np.empty((hidden, 4 * hidden))
    for column in (0, 1, 3, 2):  # gates i, f, g, o
        block = slice(column * hidden, (column + 1) * hidden)
        w_x[:, block] = xavier_uniform(rng, embed, hidden)
        w_h[:, block] = xavier_uniform(rng, hidden, hidden)
    b = np.repeat([0.0, 1.0, 0.0, 0.0], hidden)  # forget gate at 1 keeps early cell state open
    return {"lstm.w_x": w_x, "lstm.w_h": w_h, "lstm.b": b}


def init_params(config: ModelConfig, rng: np.random.Generator | None = None) -> ModelParams:
    """Draw every tensor of ``param_layout`` in order and bind them."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    values: dict[str, np.ndarray] = {}
    for name, (shape, init) in param_layout(config).items():
        if init != "lstm":
            values[name] = _draw(rng, shape, init)
        elif name not in values:  # the first of the three draws all three
            values.update(_draw_lstm(rng, config.embed_dim, config.hidden_dim))
    return bind_params(config, values)


def bind_params(config: ModelConfig, values: dict[str, np.ndarray]) -> ModelParams:
    """Wrap ``values`` (checked against ``param_layout``; the arrays are
    used, not copied) as trainable tensors."""
    check_layout(config, [(name, np.shape(v)) for name, v in values.items()])
    return ModelParams({name: Tensor(v) for name, v in values.items()})


def _project(pooled: Tensor, params: ModelParams, n_classes: int) -> Tensor:
    row = ad.reshape(pooled, (1, pooled.shape[0]))
    logits = ad.matmul(row, params.tensors["proj.w"], params.tensors["proj.b"])
    return ad.reshape(logits, (n_classes,))


def cnn_forward(doc: Document, params: ModelParams, config: ModelConfig) -> Tensor:
    """Width-3 convolution over the flattened document, max-pooled over time."""
    t = params.tensors
    tokens = flat_tokens(doc)
    x = embed(tokens, t["embedding"])
    padded = ad.pad_rows(x, 1, 1)  # 'same' padding keeps one output per token
    n = len(tokens)
    conv = ad.matmul(ad.slice_rows(padded, 0, n), t["cnn.w0"])
    for k in range(1, CNN_WIDTH):
        conv = ad.add(conv, ad.matmul(ad.slice_rows(padded, k, n + k), t[f"cnn.w{k}"]))
    conv = ad.add(conv, t["cnn.b"])
    activated = ad.leaky_relu(conv, LEAKY_SLOPE)
    return _project(ad.max_over_rows(activated), params, config.n_classes)


def lstm_forward(doc: Document, params: ModelParams, config: ModelConfig) -> Tensor:
    """Document-level LSTM over the flattened token sequence."""
    t = params.tensors
    x = embed(flat_tokens(doc), t["embedding"])
    hidden = lstm_last_hidden(x, t["lstm.w_x"], t["lstm.w_h"], t["lstm.b"])
    return _project(hidden, params, config.n_classes)


def _graph_forward(
    doc: Document,
    params: ModelParams,
    config: ModelConfig,
    weights: EdgeWeightSet | None,
) -> tuple[Tensor, list[Tensor] | None]:
    t = params.tensors
    features = encode_document(doc, t["embedding"], t["lstm.w_x"], t["lstm.w_h"], t["lstm.b"])
    spec = config.spec
    adjacency = build_graph(doc, features, weights if spec.edge_weights else None,
                            config.max_sentences)
    attentions: list[Tensor] | None = None
    # no neighbors to propagate over: project the node through the layer weights
    single = doc.n_sentences == 1

    if spec.kind == "gat":
        heads = [(t[f"gat.{h}.w"], t[f"gat.{h}.a"]) for h in range(spec.heads)]
        if single:
            z = ad.concat_cols([ad.matmul(features, weight) for weight, _ in heads])
        else:
            z, attentions = multi_head(adjacency, features, heads, LEAKY_SLOPE)
    else:
        weight = t["gcn.0.w"]
        z = (ad.matmul(features, weight) if single
             else gcn_layer(adjacency, features, weight, LEAKY_SLOPE))
        if spec.self_attn:
            z, attention = self_attention(z, t["attn.q"], t["attn.k"], t["attn.v"])
            attentions = [attention]

    logits = _project(ad.max_over_rows(z), params, config.n_classes)
    return logits, attentions


def forward(
    doc: Document,
    params: ModelParams,
    config: ModelConfig,
    weights: EdgeWeightSet | None = None,
) -> tuple[Tensor, list[Tensor] | None]:
    """Class logits for one document, plus attention matrices when the
    variant produces them (one per head for gat2)."""
    check_layout(config, [(name, t.shape) for name, t in params.tensors.items()])
    _require_weights(config, weights)
    if config.spec.kind == "cnn":
        return cnn_forward(doc, params, config), None
    if config.spec.kind == "lstm":
        return lstm_forward(doc, params, config), None
    return _graph_forward(doc, params, config, weights)


def loss(logits: Tensor, label: int) -> Tensor:
    return ad.cross_entropy_logits(logits, label)
