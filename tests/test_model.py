"""Variant assembly tests: shapes, invariances, degenerate paths, gradients."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docgraph import autodiff as ad
from docgraph import model
from docgraph.autodiff import Tensor
from docgraph.corpus import Document, RawDocument, build_vocab, encode_document
from docgraph.errors import ModelError
from docgraph.graph import EdgeWeightSet, build_graph

from test_autodiff import fd_grad, max_rel_err

CLASSES = ("satire", "trusted")


def tiny_config(variant, **overrides):
    defaults = dict(variant=variant, vocab_size=12, class_names=CLASSES,
                    embed_dim=4, hidden_dim=4, node_dim=3, seed=9)
    defaults.update(overrides)
    return model.ModelConfig(**defaults)


def make_doc(rng, n_sentences, max_len=5, vocab=12, doc_id="d"):
    sentences = tuple(
        tuple(int(t) for t in rng.integers(2, vocab, size=rng.integers(2, max_len + 1)))
        for _ in range(n_sentences)
    )
    return Document(doc_id, 0, sentences)


def symmetric_weights(rng, n):
    m = rng.uniform(0.1, 1.0, size=(n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return m


class TestForwardContracts:
    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_logits_shape_and_determinism(self, variant):
        rng = np.random.default_rng(1)
        config = tiny_config(variant)
        params = model.init_params(config)
        doc = make_doc(rng, 3)
        weights = EdgeWeightSet({"d": symmetric_weights(rng, 3)})
        logits1, att1 = model.forward(doc, params, config, weights)
        logits2, _ = model.forward(doc, params, config, weights)
        assert logits1.shape == (2,)
        assert np.array_equal(logits1.values, logits2.values)
        if config.spec.produces_attention:
            assert att1 is not None
            assert len(att1) == config.spec.heads if variant.startswith("gat") else 1
            for a in att1:
                assert a.shape == (3, 3)
                assert np.max(np.abs(a.values.sum(axis=1) - 1.0)) < 1e-12
        else:
            assert att1 is None

    def test_gat2_attention_zero_diagonal(self):
        rng = np.random.default_rng(2)
        config = tiny_config("gat2")
        params = model.init_params(config)
        _, attentions = model.forward(make_doc(rng, 4), params, config)
        for a in attentions:
            assert np.all(np.diagonal(a.values) == 0.0)

    def test_ss_variant_without_weights(self):
        config = tiny_config("gcn_ss")
        params = model.init_params(config)
        with pytest.raises(ModelError, match="edge-weight"):
            model.forward(make_doc(np.random.default_rng(3), 2), params, config)

    def test_params_variant_mismatch(self):
        gcn_params = model.init_params(tiny_config("gcn"))
        gat_config = tiny_config("gat")
        with pytest.raises(ModelError, match="gat"):
            model.forward(make_doc(np.random.default_rng(4), 2), gcn_params, gat_config)


class TestDegenerateSingleSentence:
    def test_gcn_single_node_projects_through_layer_weight(self):
        rng = np.random.default_rng(5)
        config = tiny_config("gcn")
        params = model.init_params(config)
        doc = make_doc(rng, 1)
        logits, _ = model.forward(doc, params, config)
        from docgraph.encoder import encode_document
        t = params.tensors
        s = encode_document(doc, t["embedding"], model.lstm_gates(params)).values
        z = s @ t["gcn.0.w"].values
        expected = z @ t["proj.w"].values + t["proj.b"].values
        assert np.allclose(logits.values, expected.ravel(), atol=1e-12)

    def test_gat_single_node_has_no_attention(self):
        rng = np.random.default_rng(6)
        config = tiny_config("gat2")
        params = model.init_params(config)
        logits, attentions = model.forward(make_doc(rng, 1), params, config)
        assert logits.shape == (2,)
        assert attentions is None

    def test_gcn_attn_single_node_attention_is_one(self):
        rng = np.random.default_rng(7)
        config = tiny_config("gcn_attn")
        params = model.init_params(config)
        _, attentions = model.forward(make_doc(rng, 1), params, config)
        assert np.array_equal(attentions[0].values, [[1.0]])


class TestPermutationBehaviour:
    def permuted(self, doc, perm):
        return Document(doc.id, doc.label, tuple(doc.sentences[i] for i in perm))

    @pytest.mark.parametrize("variant", model.GRAPH_VARIANTS)
    def test_graph_variants_invariant(self, variant):
        rng = np.random.default_rng(8)
        config = tiny_config(variant)
        params = model.init_params(config)
        for _ in range(5):
            n = int(rng.integers(3, 8))
            doc = make_doc(rng, n)
            perm = rng.permutation(n)
            m = symmetric_weights(rng, n)
            p = np.eye(n)[perm]
            base, _ = model.forward(doc, params, config, EdgeWeightSet({"d": m}))
            shuffled, _ = model.forward(
                self.permuted(doc, perm), params, config,
                EdgeWeightSet({"d": p @ m @ p.T}))
            assert np.max(np.abs(base.values - shuffled.values)) < 1e-9

    @pytest.mark.parametrize("variant", model.GRAPH_VARIANTS)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), data=st.data())
    def test_random_graphs_invariant_with_stochastic_attention(self, variant, seed, n, data):
        # 1..9 sentences, so the single-sentence bypass is covered too
        rng = np.random.default_rng(seed)
        config = tiny_config(variant)
        params = model.init_params(config, rng)
        doc = make_doc(rng, n)
        perm = data.draw(st.permutations(range(n)))
        m = symmetric_weights(rng, n)
        base, attentions = model.forward(doc, params, config, EdgeWeightSet({"d": m}))
        shuffled, shuffled_attentions = model.forward(
            self.permuted(doc, perm), params, config,
            EdgeWeightSet({"d": m[np.ix_(perm, perm)]}))
        assert np.max(np.abs(base.values - shuffled.values)) < 1e-12
        for attention in (attentions or []) + (shuffled_attentions or []):
            assert np.max(np.abs(attention.values.sum(axis=1) - 1.0)) < 1e-12

    @pytest.mark.parametrize("variant", ["cnn", "lstm"])
    def test_baselines_are_order_sensitive(self, variant):
        rng = np.random.default_rng(9)
        config = tiny_config(variant)
        params = model.init_params(config)
        found_witness = False
        for _ in range(5):
            doc = make_doc(rng, 4)
            reordered = self.permuted(doc, [3, 1, 0, 2])
            a, _ = model.forward(doc, params, config)
            b, _ = model.forward(reordered, params, config)
            if np.max(np.abs(a.values - b.values)) > 1e-9:
                found_witness = True
                break
        assert found_witness


class TestEdgeWeightTruncation:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 9), data=st.data())
    def test_capped_document_uses_the_leading_submatrix(self, seed, n, data):
        k = data.draw(st.integers(1, n), label="max_sentences")
        rng = np.random.default_rng(seed)
        raw = RawDocument("d", CLASSES[0], "src",
                          " ".join(f"Sentence number {i} here." for i in range(n)))
        vocab = build_vocab([raw], min_frequency=1)
        config = tiny_config("gcn_ss", vocab_size=len(vocab), max_sentences=k)
        doc = encode_document(raw, vocab, config.class_set, config.max_sentences,
                              config.max_tokens)
        assert doc.n_sentences == k
        m = symmetric_weights(rng, n)
        adjacency = build_graph(doc, Tensor(np.zeros((k, 1))), EdgeWeightSet({"d": m}))
        assert np.array_equal(adjacency.values, m[:k, :k])
        params = model.init_params(config, rng)
        full, _ = model.forward(doc, params, config, EdgeWeightSet({"d": m}))
        leading, _ = model.forward(doc, params, config,
                                   EdgeWeightSet({"d": m[:k, :k].copy()}))
        assert np.array_equal(full.values, leading.values)


class TestBaselines:
    def test_cnn_single_token_document(self):
        config = tiny_config("cnn")
        params = model.init_params(config)
        logits, _ = model.forward(Document("d", 0, ((3,),)), params, config)
        assert logits.shape == (2,)

    def test_cnn_zero_filters_yield_projection_bias(self):
        rng = np.random.default_rng(10)
        config = tiny_config("cnn")
        params = model.init_params(config)
        for name in ("cnn.w0", "cnn.w1", "cnn.w2", "cnn.b"):
            params.tensors[name].values[:] = 0.0
        params.tensors["proj.b"].values[:] = [0.3, -0.7]
        logits, _ = model.forward(make_doc(rng, 2), params, config)
        assert np.allclose(logits.values, [0.3, -0.7], atol=1e-15)

    def test_lstm_zero_weights_yield_projection_bias(self):
        rng = np.random.default_rng(11)
        config = tiny_config("lstm")
        params = model.init_params(config)
        for name, tensor in params.tensors.items():
            if name.startswith("lstm.") or name == "embedding":
                tensor.values[:] = 0.0
        params.tensors["proj.b"].values[:] = [1.5, -0.5]
        logits, _ = model.forward(make_doc(rng, 3), params, config)
        assert np.allclose(logits.values, [1.5, -0.5], atol=1e-15)

    def test_lstm_single_token(self):
        config = tiny_config("lstm")
        params = model.init_params(config)
        logits, _ = model.forward(Document("d", 0, ((5,),)), params, config)
        assert logits.shape == (2,)


class TestConfigOptions:
    def test_stacked_gcn_layers(self):
        rng = np.random.default_rng(14)
        config = tiny_config("gcn", gcn_layers=2)
        params = model.init_params(config)
        assert "gcn.1.w" in params.tensors
        assert params.tensors["gcn.0.w"].shape == (4, 3)
        assert params.tensors["gcn.1.w"].shape == (3, 3)
        logits, _ = model.forward(make_doc(rng, 3), params, config)
        assert logits.shape == (2,)

    def test_normalized_adjacency_divides_by_degree(self):
        # complete graph on 4 nodes: every row of E sums to 3, and with the
        # activation removed (slope 1) and a zero projection bias the whole
        # pipeline is 1/3-homogeneous in E
        rng = np.random.default_rng(15)
        doc = make_doc(rng, 4)
        plain = tiny_config("gcn", leaky_slope=1.0)
        normalized = tiny_config("gcn", leaky_slope=1.0, normalize_adjacency=True)
        params = model.init_params(plain)
        params.tensors["proj.b"].values[:] = 0.0
        a, _ = model.forward(doc, params, plain)
        b, _ = model.forward(doc, params, normalized)
        assert np.allclose(b.values, a.values / 3.0, atol=1e-12)

    @pytest.mark.parametrize("field", ["lr", "leaky_slope", "clip_norm"])
    def test_huge_integer_setting_rejected(self, field):
        # 10**400 has no float: it must be a ModelError, not an OverflowError
        with pytest.raises(ModelError, match=f"{field} must be"):
            tiny_config("gcn", **{field: 10**400})


class TestLoss:
    def test_uniform_four_way(self):
        value = model.loss(Tensor([0.0, 0.0, 0.0, 0.0]), 1).values[0]
        assert value == pytest.approx(math.log(4.0), abs=1e-12)

    def test_confident_correct_near_zero(self):
        assert model.loss(Tensor([12.0, -12.0]), 0).values[0] < 1e-9

    def test_matches_independent_softmax_log(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(size=5)
        label = 3
        m = logits.max()
        expected = -math.log(math.exp(logits[label] - m) /
                             sum(math.exp(v - m) for v in logits))
        got = model.loss(Tensor(logits), label).values[0]
        assert got == pytest.approx(expected, abs=1e-12)


class TestParameterAccounting:
    def test_exact_count_default_two_way_gat2(self):
        vocab_size = 50
        config = model.ModelConfig(variant="gat2", vocab_size=vocab_size,
                                   class_names=CLASSES)
        params = model.init_params(config)
        embedding = vocab_size * 100
        lstm = 4 * (100 * 100 + 100 * 100 + 100)
        gat = 2 * (100 * 32 + 64)
        projection = 64 * 2 + 2
        assert params.total_parameters() == embedding + lstm + gat + projection

    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_names_unique_and_ordered(self, variant):
        for gcn_layers in (1, 2):
            config = tiny_config(variant, gcn_layers=gcn_layers)
            params = model.init_params(config)
            layout = model.param_layout(config)
            names = list(params.tensors)
            assert names == list(layout)
            assert len(set(names)) == len(names)
            for name, (shape, init) in layout.items():
                values = params.tensors[name].values
                assert values.shape == shape, name
                if init == "xavier":
                    fans = sum(shape) if len(shape) == 2 else shape[0] + 1
                    assert np.all(np.abs(values) <= math.sqrt(6.0 / fans)), name
                else:
                    assert np.all(values == (1.0 if init == "ones" else 0.0)), name


# SHA-256 over each tensor's name and little-endian float64 bytes, in
# order, of init_params at vocab 50, seed 3 and default dimensions, with
# gcn_layers 1 and 2. Pins the draw order: checkpoints and every seeded
# result depend on it.
INIT_DIGESTS = {
    "cnn": ("28408601501dd45fe1bcc01c70a955e50d9ccb96af455da8d2af5d7e4f5d0a7e",
            "28408601501dd45fe1bcc01c70a955e50d9ccb96af455da8d2af5d7e4f5d0a7e"),
    "lstm": ("01632f6712309d9468f560a4e700220d8bfd6e203e82710da2354546acf310e0",
             "01632f6712309d9468f560a4e700220d8bfd6e203e82710da2354546acf310e0"),
    "gcn": ("88f46d6bcbbb4a3e762eeef6fb44c231547d6ca239bef9c7fe8ebbb93ff2f1e1",
            "3aba83bdb21eb76953502858b59de74f5b740836eb4f6eaaaaccfa17a3ff4f37"),
    "gcn_ss": ("88f46d6bcbbb4a3e762eeef6fb44c231547d6ca239bef9c7fe8ebbb93ff2f1e1",
               "3aba83bdb21eb76953502858b59de74f5b740836eb4f6eaaaaccfa17a3ff4f37"),
    "gcn_attn": ("64e31af4fac7e6692369797a3b3257ce387e52ec9106c011cb01643e8f022de8",
                 "f1cb9b3f40dba9e7bb860d9c4d4db7cc2240683799e34191d50f545abd23dadf"),
    "gcn_attn_ss": ("64e31af4fac7e6692369797a3b3257ce387e52ec9106c011cb01643e8f022de8",
                    "f1cb9b3f40dba9e7bb860d9c4d4db7cc2240683799e34191d50f545abd23dadf"),
    "gat": ("b44bde571d65bcd8598fc9f54030f38848f90b9aa6d3e3f8ed7b7826e5d4be24",
            "b44bde571d65bcd8598fc9f54030f38848f90b9aa6d3e3f8ed7b7826e5d4be24"),
    "gat2": ("5e79941494c99fa2a325e0039ef3ba3464859035bb73a56821e59e83b41febeb",
             "5e79941494c99fa2a325e0039ef3ba3464859035bb73a56821e59e83b41febeb"),
}


class TestInitDrawOrder:
    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_init_params_digest(self, variant):
        for gcn_layers, expected in zip((1, 2), INIT_DIGESTS[variant]):
            config = model.ModelConfig(variant=variant, vocab_size=50, class_names=CLASSES,
                                       seed=3, gcn_layers=gcn_layers)
            digest = hashlib.sha256()
            for name, tensor in model.init_params(config).tensors.items():
                digest.update(name.encode("utf-8"))
                digest.update(tensor.values.astype("<f8").tobytes())
            assert digest.hexdigest() == expected, gcn_layers


class TestEndToEndGradients:
    @pytest.mark.parametrize("variant", ["gat2", "gcn_attn_ss"])
    def test_every_parameter_matches_finite_differences(self, variant):
        rng = np.random.default_rng(13)
        config = tiny_config(variant)
        params = model.init_params(config)
        doc = make_doc(rng, 3)
        weights = EdgeWeightSet({"d": symmetric_weights(rng, 3)})

        with ad.Tape() as tape:
            logits, _ = model.forward(doc, params, config, weights)
            out = model.loss(logits, doc.label)
        ad.backward(tape, out)

        for name, tensor in params.tensors.items():
            analytic = tensor.grad
            if analytic is None:
                analytic = np.zeros_like(tensor.values)
            elif isinstance(analytic, ad.RowSparseGrad):
                analytic = analytic.dense()

            def f(v, tensor=tensor):
                saved = tensor.values
                tensor.values = v
                logits, _ = model.forward(doc, params, config, weights)
                tensor.values = saved
                return float(model.loss(logits, doc.label).values[0])

            numeric = fd_grad(f, tensor.values.copy())
            assert max_rel_err(analytic, numeric) < 1e-4, name


class TestVariantTable:
    def test_variant_order_is_stable(self):
        # checkpoints, the gradcheck report and the benchmark iterate this order
        assert model.VARIANTS == ("cnn", "lstm", "gcn", "gcn_ss", "gcn_attn",
                                  "gcn_attn_ss", "gat", "gat2")
        assert model.GRAPH_VARIANTS == model.VARIANTS[2:]

    def test_every_op_but_the_helpers_is_recorded_by_some_variant(self):
        rng = np.random.default_rng(5)
        recorded = set()
        for n_sentences in (1, 3):
            doc = make_doc(rng, n_sentences)
            weights = EdgeWeightSet({"d": symmetric_weights(rng, n_sentences)})
            for variant in model.VARIANTS:
                config = tiny_config(variant)
                with ad.Tape() as tape:
                    logits, _ = model.forward(doc, model.init_params(config), config,
                                              weights)
                    model.loss(logits, doc.label)
                recorded |= {entry.op for entry in tape.entries}
        # sum_all and mul weight an op's output in the gradcheck fixtures;
        # sigmoid, tanh, mul and concat_rows are wrapped by the benchmark's
        # tracer (bench/tracing.py MODEL_OPS) and go when it is refreshed.
        assert set(ad.OP_NAMES) - recorded == {"sum_all", "mul", "sigmoid", "tanh",
                                               "concat_rows"}
