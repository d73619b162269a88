"""Graph layers: graph convolution, post-convolution self-attention, and
graph attention with multi-head concatenation.

The convolution is the literal unnormalized form sigma(E Z W) with a
leaky-ReLU activation; no self-loops are added (the adjacency diagonal
is zero) and no degree normalization is applied unless explicitly
requested. The graph attention layer treats the adjacency purely as a
0/1 connectivity mask and learns the edge weights; attention matrices
are returned so callers can export them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import xavier_uniform
from .errors import GraphError

LEAKY_SLOPE = 0.2


@dataclass
class GcnParams:
    """One convolution layer's weight matrix and activation slope."""

    weight: Tensor
    slope: float = LEAKY_SLOPE


@dataclass
class SelfAttnParams:
    """Square query/key/value projections over node-embedding space."""

    query: Tensor
    key: Tensor
    value: Tensor


@dataclass
class GatHeadParams:
    """One attention head: node projection plus the pair-scoring vector."""

    weight: Tensor
    attn: Tensor  # scores the concatenated pair [Wh_i || Wh_j]
    slope: float = LEAKY_SLOPE

    @classmethod
    def init(cls, rng: np.random.Generator, in_dim: int, out_dim: int,
             slope: float = LEAKY_SLOPE) -> "GatHeadParams":
        weight = Tensor(xavier_uniform(rng, in_dim, out_dim), requires_grad=True)
        attn = Tensor(xavier_uniform(rng, 2 * out_dim, 1).ravel(), requires_grad=True)
        return cls(weight, attn, slope)


def row_normalize(adjacency: Tensor) -> Tensor:
    """Optional ablation: divide each adjacency row by its sum (zero rows stay)."""
    sums = adjacency.values.sum(axis=1, keepdims=True)
    scaled = np.divide(adjacency.values, sums, out=np.zeros_like(adjacency.values),
                       where=sums > 0)
    return Tensor(scaled)


def gcn_layer(adjacency: Tensor, nodes: Tensor, params: GcnParams) -> Tensor:
    """sigma(E Z W): propagate node features over the adjacency, project, activate."""
    if adjacency.shape != (nodes.shape[0], nodes.shape[0]):
        raise GraphError(
            f"adjacency {adjacency.shape} does not match {nodes.shape[0]} nodes")
    pre = ad.matmul(ad.matmul(adjacency, nodes), params.weight)
    return ad.leaky_relu(pre, params.slope)


def self_attention(nodes: Tensor, params: SelfAttnParams) -> tuple[Tensor, Tensor]:
    """Scaled dot-product self-attention over node embeddings.

    Returns (output, attention); attention rows sum to 1 and include self.
    """
    dim = nodes.shape[1]
    q = ad.matmul(nodes, params.query)
    k = ad.matmul(nodes, params.key)
    v = ad.matmul(nodes, params.value)
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(dim))
    attention = ad.softmax_rows(scores)
    return ad.matmul(attention, v), attention


def gat_layer(
    adjacency: Tensor,
    nodes: Tensor,
    params: GatHeadParams,
) -> tuple[Tensor, Tensor]:
    """One graph-attention head over the adjacency's nonzero entries.

    Pair (i, j) with adjacency[i, j] > 0 is scored by
    leaky_relu(a . [Wh_i || Wh_j]); scores softmax-normalize over each
    node's neighbors, and outputs are the activated attention-weighted
    sums of projected neighbors. Returns (output, attention).
    """
    n = nodes.shape[0]
    if adjacency.shape != (n, n):
        raise GraphError(f"adjacency {adjacency.shape} does not match {n} nodes")
    mask = adjacency.values > 0
    if np.any(np.diagonal(adjacency.values) != 0.0):
        raise GraphError("graph attention expects a zero-diagonal adjacency")
    if not mask.any(axis=1).all():
        raise GraphError("isolated node: every node needs at least one neighbor")

    out_dim = params.weight.shape[1]
    projected = ad.matmul(nodes, params.weight)  # (n, d)
    # a . [Wh_i || Wh_j] splits into source and destination halves
    a_src = ad.reshape(ad.slice_rows(params.attn, 0, out_dim), (out_dim, 1))
    a_dst = ad.reshape(ad.slice_rows(params.attn, out_dim, 2 * out_dim), (out_dim, 1))
    src = ad.matmul(projected, a_src)  # (n, 1)
    dst = ad.matmul(projected, a_dst)  # (n, 1)
    ones_row = Tensor(np.ones((1, n)))
    ones_col = Tensor(np.ones((n, 1)))
    pair_scores = ad.add(ad.matmul(src, ones_row), ad.matmul(ones_col, ad.transpose(dst)))
    scores = ad.leaky_relu(pair_scores, params.slope)
    attention = ad.softmax_rows(scores, mask=mask)
    out = ad.leaky_relu(ad.matmul(attention, projected), params.slope)
    return out, attention


def multi_head(
    adjacency: Tensor,
    nodes: Tensor,
    heads: list[GatHeadParams],
) -> tuple[Tensor, list[Tensor]]:
    """Concatenate per-head outputs column-wise, in head order."""
    if not heads:
        raise GraphError("multi_head needs at least one head")
    outputs = []
    attentions = []
    for head in heads:
        out, attention = gat_layer(adjacency, nodes, head)
        outputs.append(out)
        attentions.append(attention)
    if len(outputs) == 1:
        return outputs[0], attentions
    return ad.concat_cols(outputs), attentions
