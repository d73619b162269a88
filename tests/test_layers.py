"""Graph-layer tests against hand values and brute-force loop oracles."""

import math

import numpy as np
import pytest

from docgraph import layers
from docgraph.autodiff import Tensor
from docgraph.model import LEAKY_SLOPE as SLOPE, xavier_uniform
from docgraph.errors import GraphError


def gat_head(rng, d_in, d_out):
    """A GAT head's (weight, attn), drawn like the model draws them: projection,
    then scoring vector."""
    return (Tensor(xavier_uniform(rng, d_in, d_out)),
            Tensor(xavier_uniform(rng, 2 * d_out, 1).ravel()))


def gcn_brute_force(adjacency, nodes, weight, slope):
    """Straight-line loop computation of sigma(E Z W)."""
    n, d_in = nodes.shape
    d_out = weight.shape[1]
    out = np.zeros((n, d_out))
    for i in range(n):
        for o in range(d_out):
            acc = 0.0
            for j in range(n):
                for k in range(d_in):
                    acc += adjacency[i, j] * nodes[j, k] * weight[k, o]
            out[i, o] = acc if acc > 0 else slope * acc
    return out


def gat_brute_force(adjacency, nodes, weight, attn, slope):
    """Straight-line loop computation of one attention head."""
    n, d_in = nodes.shape
    d_out = weight.shape[1]
    projected = [[sum(nodes[i, k] * weight[k, o] for k in range(d_in))
                  for o in range(d_out)] for i in range(n)]
    scores = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            raw = sum(attn[t] * projected[i][t] for t in range(d_out)) + \
                sum(attn[d_out + t] * projected[j][t] for t in range(d_out))
            scores[i, j] = raw if raw > 0 else slope * raw
    alpha = np.zeros((n, n))
    for i in range(n):
        neighbors = [j for j in range(n) if adjacency[i, j] > 0]
        m = max(scores[i, j] for j in neighbors)
        denom = sum(math.exp(scores[i, j] - m) for j in neighbors)
        for j in neighbors:
            alpha[i, j] = math.exp(scores[i, j] - m) / denom
    out = np.zeros((n, d_out))
    for i in range(n):
        for o in range(d_out):
            acc = sum(alpha[i, j] * projected[j][o] for j in range(n))
            out[i, o] = acc if acc > 0 else slope * acc
    return out, alpha


class TestGcnLayer:
    def test_single_node_yields_zeros(self):
        out = layers.gcn_layer(Tensor([[0.0]]), Tensor([[1.0, 2.0, 3.0]]),
                               Tensor(np.ones((3, 2))), SLOPE)
        assert np.array_equal(out.values, [[0.0, 0.0]])

    def test_two_node_swap(self):
        out = layers.gcn_layer(Tensor([[0.0, 1.0], [1.0, 0.0]]),
                               Tensor([[1.0, 0.0], [0.0, 1.0]]), Tensor(np.eye(2)), SLOPE)
        assert np.array_equal(out.values, [[0.0, 1.0], [1.0, 0.0]])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for trial in range(20):
            n = int(rng.integers(1, 6))
            d_in, d_out = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            e = rng.uniform(size=(n, n))
            e = (e + e.T) / 2
            np.fill_diagonal(e, 0.0)
            z = rng.normal(size=(n, d_in))
            w = rng.normal(size=(d_in, d_out))
            out = layers.gcn_layer(Tensor(e), Tensor(z), Tensor(w), SLOPE)
            expected = gcn_brute_force(e, z, w, SLOPE)
            assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_linear_in_adjacency_without_activation(self):
        # slope 1 makes the activation the identity, exposing E Z W itself
        rng = np.random.default_rng(22)
        e = rng.uniform(size=(4, 4))
        np.fill_diagonal(e, 0.0)
        z = rng.normal(size=(4, 3))
        w = Tensor(rng.normal(size=(3, 2)))
        once = layers.gcn_layer(Tensor(e), Tensor(z), w, 1.0).values
        twice = layers.gcn_layer(Tensor(2.0 * e), Tensor(z), w, 1.0).values
        assert np.max(np.abs(twice - 2.0 * once)) < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(23)
        n = 5
        e = rng.uniform(size=(n, n))
        e = (e + e.T) / 2
        np.fill_diagonal(e, 0.0)
        z = rng.normal(size=(n, 3))
        w = Tensor(rng.normal(size=(3, 4)))
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        base = layers.gcn_layer(Tensor(e), Tensor(z), w, SLOPE).values
        permuted = layers.gcn_layer(Tensor(p @ e @ p.T), Tensor(z[perm]), w, SLOPE).values
        assert np.max(np.abs(permuted - base[perm])) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(GraphError):
            layers.gcn_layer(Tensor(np.zeros((3, 3))), Tensor(np.zeros((2, 2))),
                             Tensor(np.eye(2)), SLOPE)


class TestSelfAttention:
    def test_single_node_returns_value_projection(self):
        rng = np.random.default_rng(24)
        query, key, value = (Tensor(rng.normal(size=(3, 3))) for _ in range(3))
        z = Tensor(rng.normal(size=(1, 3)))
        out, attention = layers.self_attention(z, query, key, value)
        assert np.array_equal(attention.values, [[1.0]])
        assert np.allclose(out.values, z.values @ value.values, atol=1e-12)

    def test_zero_query_key_gives_uniform_attention(self):
        rng = np.random.default_rng(25)
        zero = Tensor(np.zeros((3, 3)))
        value = Tensor(rng.normal(size=(3, 3)))
        z = Tensor(rng.normal(size=(4, 3)))
        out, attention = layers.self_attention(z, zero, zero, value)
        assert np.allclose(attention.values, 0.25, atol=1e-15)
        zv = z.values @ value.values
        assert np.allclose(out.values, np.tile(zv.mean(axis=0), (4, 1)), atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(26)
        query, key, value = (Tensor(rng.normal(size=(4, 4))) for _ in range(3))
        _, attention = layers.self_attention(Tensor(rng.normal(size=(5, 4))), query, key, value)
        assert np.max(np.abs(attention.values.sum(axis=1) - 1.0)) < 1e-12


class TestGatLayer:
    def make(self, rng, n, d_in=3, d_out=4):
        e = np.ones((n, n)) - np.eye(n)
        h = rng.normal(size=(n, d_in))
        return e, h, gat_head(rng, d_in, d_out)

    def test_two_nodes_attend_only_to_each_other(self):
        rng = np.random.default_rng(27)
        e, h, (weight, attn) = self.make(rng, 2)
        _, attention = layers.gat_layer(Tensor(e), Tensor(h), weight, attn, SLOPE)
        assert np.array_equal(attention.values, [[0.0, 1.0], [1.0, 0.0]])

    def test_zero_scoring_vector_gives_uniform_attention(self):
        rng = np.random.default_rng(28)
        e, h, (weight, attn) = self.make(rng, 4)
        attn.values[:] = 0.0
        _, attention = layers.gat_layer(Tensor(e), Tensor(h), weight, attn, SLOPE)
        expected = (np.ones((4, 4)) - np.eye(4)) / 3.0
        assert np.allclose(attention.values, expected, atol=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(29)
        for trial in range(20):
            n = int(rng.integers(2, 6))
            e, h, (weight, attn) = self.make(rng, n,
                                             d_in=int(rng.integers(2, 5)),
                                             d_out=int(rng.integers(2, 5)))
            out, attention = layers.gat_layer(Tensor(e), Tensor(h), weight, attn, SLOPE)
            exp_out, exp_alpha = gat_brute_force(
                e, h, weight.values, attn.values, SLOPE)
            assert np.max(np.abs(out.values - exp_out)) < 1e-12
            assert np.max(np.abs(attention.values - exp_alpha)) < 1e-12
            sums = attention.values.sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) < 1e-12
            assert np.all(np.diagonal(attention.values) == 0.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(30)
        e, h, (weight, attn) = self.make(rng, 5)
        perm = rng.permutation(5)
        p = np.eye(5)[perm]
        out, attention = layers.gat_layer(Tensor(e), Tensor(h), weight, attn, SLOPE)
        out_p, attention_p = layers.gat_layer(
            Tensor(p @ e @ p.T), Tensor(h[perm]), weight, attn, SLOPE)
        assert np.max(np.abs(out_p.values - out.values[perm])) < 1e-12
        assert np.max(np.abs(attention_p.values - p @ attention.values @ p.T)) < 1e-12

    def test_isolated_node_rejected(self):
        rng = np.random.default_rng(31)
        e = np.zeros((2, 2))
        weight, attn = gat_head(rng, 3, 2)
        with pytest.raises(GraphError, match="isolated"):
            layers.gat_layer(Tensor(e), Tensor(rng.normal(size=(2, 3))), weight, attn, SLOPE)


    @pytest.mark.parametrize("adjacency, message", [
        (np.ones((3, 3)) - np.eye(3), "adjacency (3, 3) does not match 2 nodes"),
        (np.ones((2, 2)), "graph attention expects a zero-diagonal adjacency"),
    ], ids=["mismatched", "nonzero diagonal"])
    def test_bad_adjacency_rejected(self, adjacency, message):
        rng = np.random.default_rng(35)
        weight, attn = gat_head(rng, 3, 2)
        with pytest.raises(GraphError) as excinfo:
            layers.gat_layer(Tensor(adjacency), Tensor(rng.normal(size=(2, 3))), weight, attn,
                             SLOPE)
        assert str(excinfo.value) == message


class TestMultiHead:
    def test_single_head_identity(self):
        rng = np.random.default_rng(32)
        e = np.ones((3, 3)) - np.eye(3)
        h = rng.normal(size=(3, 4))
        head = gat_head(rng, 4, 5)
        single, _ = layers.gat_layer(Tensor(e), Tensor(h), *head, SLOPE)
        multi, attentions = layers.multi_head(Tensor(e), Tensor(h), [head], SLOPE)
        assert np.array_equal(multi.values, single.values)
        assert len(attentions) == 1

    def test_identical_heads_duplicate_columns(self):
        rng = np.random.default_rng(33)
        e = np.ones((3, 3)) - np.eye(3)
        h = rng.normal(size=(3, 4))
        head = gat_head(rng, 4, 5)
        out, _ = layers.multi_head(Tensor(e), Tensor(h), [head, head], SLOPE)
        assert np.array_equal(out.values[:, :5], out.values[:, 5:])

    def test_two_heads_width_64(self):
        rng = np.random.default_rng(34)
        e = np.ones((3, 3)) - np.eye(3)
        h = rng.normal(size=(3, 100))
        heads = [gat_head(rng, 100, 32) for _ in range(2)]
        out, attentions = layers.multi_head(Tensor(e), Tensor(h), heads, SLOPE)
        assert out.shape == (3, 64)
        assert len(attentions) == 2

    def test_no_heads_rejected(self):
        e = np.ones((3, 3)) - np.eye(3)
        with pytest.raises(GraphError) as excinfo:
            layers.multi_head(Tensor(e), Tensor(np.ones((3, 4))), [], SLOPE)
        assert str(excinfo.value) == "multi_head needs at least one head"
