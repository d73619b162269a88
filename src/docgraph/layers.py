"""Graph layers: graph convolution, post-convolution self-attention, and
graph attention with multi-head concatenation.

Every layer takes its weights as bare tensors and the activation's slope
from its caller (the model passes ``model.LEAKY_SLOPE``). The
convolution is the literal unnormalized form sigma(E Z W) with a
leaky-ReLU activation: no self-loops are added (the adjacency diagonal
is zero) and no degree normalization is applied. The graph attention
layer treats the adjacency purely as a 0/1 connectivity mask and learns
the edge weights; attention matrices are returned so callers can export
them.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import GraphError


def gcn_layer(adjacency: Tensor, nodes: Tensor, weight: Tensor, slope: float) -> Tensor:
    """sigma(E Z W): propagate node features over the adjacency, project, and
    apply a leaky ReLU with negative-side ``slope``."""
    if adjacency.shape != (nodes.shape[0], nodes.shape[0]):
        raise GraphError(
            f"adjacency {adjacency.shape} does not match {nodes.shape[0]} nodes")
    pre = ad.matmul(ad.matmul(adjacency, nodes), weight)
    return ad.leaky_relu(pre, slope)


def self_attention(nodes: Tensor, query: Tensor, key: Tensor,
                   value: Tensor) -> tuple[Tensor, Tensor]:
    """Scaled dot-product self-attention over node embeddings.

    Returns (output, attention); attention rows sum to 1 and include self.
    """
    dim = nodes.shape[1]
    q = ad.matmul(nodes, query)
    k = ad.matmul(nodes, key)
    v = ad.matmul(nodes, value)
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / np.sqrt(dim))
    attention = ad.softmax_rows(scores)
    return ad.matmul(attention, v), attention


def gat_layer(
    adjacency: Tensor,
    nodes: Tensor,
    weight: Tensor,
    attn: Tensor,
    slope: float,
) -> tuple[Tensor, Tensor]:
    """One graph-attention head over the adjacency's nonzero entries.

    Pair (i, j) with adjacency[i, j] > 0 is scored by
    leaky_relu(a . [Wh_i || Wh_j], slope) with W = ``weight`` and
    a = ``attn``; scores softmax-normalize over each node's neighbors,
    and outputs are the activated attention-weighted sums of projected
    neighbors. Returns (output, attention).
    """
    n = nodes.shape[0]
    if adjacency.shape != (n, n):
        raise GraphError(f"adjacency {adjacency.shape} does not match {n} nodes")
    mask = adjacency.values > 0
    if np.any(np.diagonal(adjacency.values) != 0.0):
        raise GraphError("graph attention expects a zero-diagonal adjacency")
    if not mask.any(axis=1).all():
        raise GraphError("isolated node: every node needs at least one neighbor")

    out_dim = weight.shape[1]
    projected = ad.matmul(nodes, weight)  # (n, d)
    # a . [Wh_i || Wh_j] splits into source and destination halves
    a_src = ad.reshape(ad.slice_rows(attn, 0, out_dim), (out_dim, 1))
    a_dst = ad.reshape(ad.slice_rows(attn, out_dim, 2 * out_dim), (out_dim, 1))
    src = ad.matmul(projected, a_src)  # (n, 1)
    dst = ad.matmul(projected, a_dst)  # (n, 1)
    # (i, j) -> src_i + dst_j: the (1, n) row dst^T adds to every row
    pair_scores = ad.add(ad.matmul(src, Tensor(np.ones((1, n)))), ad.transpose(dst))
    scores = ad.leaky_relu(pair_scores, slope)
    attention = ad.softmax_rows(scores, mask=mask)
    out = ad.leaky_relu(ad.matmul(attention, projected), slope)
    return out, attention


def multi_head(
    adjacency: Tensor,
    nodes: Tensor,
    heads: list[tuple[Tensor, Tensor]],
    slope: float,
) -> tuple[Tensor, list[Tensor]]:
    """Run one ``gat_layer`` per (weight, attn) head and concatenate the
    outputs column-wise, in head order."""
    if not heads:
        raise GraphError("multi_head needs at least one head")
    outputs = []
    attentions = []
    for weight, attn in heads:
        out, attention = gat_layer(adjacency, nodes, weight, attn, slope)
        outputs.append(out)
        attentions.append(attention)
    return ad.concat_cols(outputs), attentions
