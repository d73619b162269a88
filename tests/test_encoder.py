"""Sentence-encoder tests: lookups, LSTM recurrence, shared parameters."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docgraph import autodiff as ad
from docgraph import encoder, model
from docgraph.autodiff import Tensor
from docgraph.corpus import Document
from docgraph.errors import ShapeError

from test_autodiff import fd_grad, max_rel_err, piecewise_sigmoid


VOCAB = 30


def reference_encode(doc, embedding, gate_list):
    """Straight-line numpy LSTM, one sentence and one token at a time."""
    hidden = gate_list[0][0].shape[1]
    emb = embedding.values
    gates = {g: tuple(t.values for t in gate) for g, gate in zip(encoder.GATES, gate_list)}

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    rows = []
    for sentence in doc.sentences:
        h = np.zeros(hidden)
        c = np.zeros(hidden)
        for token in sentence:
            pre = {g: emb[token] @ w_x + h @ w_h + b for g, (w_x, w_h, b) in gates.items()}
            c = sig(pre["f"]) * c + sig(pre["i"]) * np.tanh(pre["g"])
            h = sig(pre["o"]) * np.tanh(c)
        rows.append(h)
    return np.array(rows)


def oracle_lstm_last(xw, w, lengths, grad):
    """``lstm_last`` and its BPTT rule in their first fused form (``np.split``
    gates, the piecewise sigmoid over all four blocks, every step kept, one
    ``dw`` product per step), with its columns permuted into i|f|o|g, as an
    oracle: the forward value and, for an upstream gradient ``grad``,
    (dxw, dw)."""
    hidden = w.shape[0]
    lens = np.asarray(lengths, dtype=np.intp)
    order = np.argsort(-lens, kind="stable")
    sorted_lens = lens[order]
    starts = (np.cumsum(lens) - lens)[order]
    batch = [int(np.count_nonzero(sorted_lens > t)) for t in range(int(sorted_lens[0]))]
    packed_rows = np.concatenate([starts[:n] + t for t, n in enumerate(batch)])
    packed = xw[packed_rows]
    h = np.zeros((lens.size, hidden))
    c = np.zeros((lens.size, hidden))
    last = np.empty((lens.size, hidden))
    steps = []
    offset = 0
    for n in batch:
        pre = packed[offset : offset + n] + h[:n] @ w
        offset += n
        gates = piecewise_sigmoid(pre)
        gates[:, 3 * hidden :] = np.tanh(pre[:, 3 * hidden :])
        i, f, o, g = np.split(gates, 4, axis=1)
        c_prev, h_prev = c[:n], h[:n]
        c = f * c_prev + i * g
        tanh_c = np.tanh(c)
        h = o * tanh_c
        steps.append((gates, c_prev, tanh_c, h_prev))
        last[:n] = h
    out = np.empty_like(last)
    out[order] = last

    dh = grad[order]
    dc = np.zeros_like(dh)
    dw = np.zeros_like(w)
    dpacked = np.empty_like(xw)
    offset = xw.shape[0]
    for gates, c_prev, tanh_c, h_prev in reversed(steps):
        n = gates.shape[0]
        offset -= n
        i, f, o, g = np.split(gates, 4, axis=1)
        dh_n = dh[:n]
        dc_n = dc[:n] + dh_n * o * (1.0 - tanh_c * tanh_c)
        dpre = dpacked[offset : offset + n]
        di, df, do, dg = np.split(dpre, 4, axis=1)
        di[...] = dc_n * g * i * (1.0 - i)
        df[...] = dc_n * c_prev * f * (1.0 - f)
        dg[...] = dc_n * i * (1.0 - g * g)
        do[...] = dh_n * tanh_c * o * (1.0 - o)
        dw += h_prev.T @ dpre
        dh[:n] = dpre @ w.T
        dc[:n] = dc_n * f
    dxw = np.empty_like(dpacked)
    dxw[packed_rows] = dpacked
    return out, dxw, dw


sentences_strategy = st.lists(
    st.lists(st.integers(0, VOCAB - 1), min_size=1, max_size=12).map(tuple),
    min_size=1, max_size=8,
).map(tuple)


def lstm_params(rng, vocab_size, embed_dim, hidden_dim):
    """An lstm model's parameters; ``model.lstm_gates`` gives the encoder's gates."""
    config = model.ModelConfig(variant="lstm", vocab_size=vocab_size,
                               class_names=("a", "b"), embed_dim=embed_dim,
                               hidden_dim=hidden_dim)
    return model.init_params(config, rng)


@pytest.fixture
def model_params():
    return lstm_params(np.random.default_rng(0), vocab_size=12, embed_dim=4, hidden_dim=4)


@pytest.fixture
def embedding(model_params):
    return model_params.tensors["embedding"]


@pytest.fixture
def gates(model_params):
    return model.lstm_gates(model_params)


class TestEmbed:
    def test_single_lookup(self, embedding):
        out = encoder.embed([5], embedding)
        assert np.array_equal(out.values, embedding.values[[5]])

    def test_tied_lookup_gradients_sum(self, embedding):
        with ad.Tape() as tape:
            out = encoder.embed([5, 5], embedding)
            loss = ad.sum_all(out)
        assert np.array_equal(out.values[0], out.values[1])
        ad.backward(tape, loss)
        assert np.array_equal(embedding.grad.dense()[5], 2.0 * np.ones(4))

    def test_out_of_range(self, embedding):
        with pytest.raises(ShapeError):
            encoder.embed([12], embedding)

    def test_gradient_matches_finite_differences(self, embedding):
        with ad.Tape() as tape:
            loss = ad.sum_all(encoder.embed([2, 7], embedding))
        ad.backward(tape, loss)
        f = fd_grad(lambda v: float(v[[2, 7]].sum()), embedding.values.copy())
        assert max_rel_err(embedding.grad.dense(), f) < 1e-6


class TestLstm:
    def test_zero_weights_give_zero_hidden(self):
        zero = lambda r, c: Tensor(np.zeros((r, c)))
        gates = [(zero(3, 2), zero(2, 2), Tensor(np.zeros(2))) for _ in encoder.GATES]
        out = encoder.lstm_last_hidden(Tensor(np.ones((4, 3))), gates)
        assert np.array_equal(out.values, np.zeros(2))

    def test_single_step_matches_hand_computation(self):
        # straight-line recomputation of one LSTM cell with 2-d weights
        wx = {
            "i": [[0.1, 0.2], [0.3, -0.1]],
            "f": [[0.2, 0.0], [0.1, 0.4]],
            "g": [[0.3, -0.2], [0.05, 0.15]],
            "o": [[-0.1, 0.25], [0.2, 0.1]],
        }
        bias = {"i": [0.05, -0.05], "f": [1.0, 1.0], "g": [0.0, 0.0], "o": [0.1, -0.1]}
        gates = [(Tensor(wx[g]), Tensor([[0.7, -0.3], [0.2, 0.9]]), Tensor(bias[g]))
                 for g in encoder.GATES]
        x = [1.0, -1.0]
        out = encoder.lstm_last_hidden(Tensor([x]), gates)

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        expected = []
        for j in range(2):
            pre = {g: x[0] * wx[g][0][j] + x[1] * wx[g][1][j] + bias[g][j]
                   for g in encoder.GATES}
            c1 = sig(pre["f"]) * 0.0 + sig(pre["i"]) * math.tanh(pre["g"])
            expected.append(sig(pre["o"]) * math.tanh(c1))
        assert np.allclose(out.values, expected, atol=1e-12)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        model_params = lstm_params(rng, vocab_size=4, embed_dim=3, hidden_dim=2)
        gates = model.lstm_gates(model_params)
        x_vals = rng.normal(size=(3, 3))
        w = rng.normal(size=2)

        def loss_value():
            with ad.Tape() as tape:
                out = encoder.lstm_last_hidden(Tensor(x_vals), gates)
                loss = ad.sum_all(ad.mul(out, Tensor(w)))
            return tape, loss

        tape, loss = loss_value()
        ad.backward(tape, loss)
        for name, tensor in model_params.tensors.items():
            if not name.startswith("lstm."):
                continue
            analytic = tensor.grad

            def f(v, tensor=tensor):
                saved = tensor.values
                tensor.values = v
                out = encoder.lstm_last_hidden(Tensor(x_vals), gates)
                tensor.values = saved
                return float(np.sum(w * out.values))

            numeric = fd_grad(f, tensor.values.copy())
            assert max_rel_err(analytic, numeric) < 1e-5, name


class TestEncodeDocument:
    def test_identical_sentences_identical_rows(self, embedding, gates):
        doc = Document("d", 0, ((1, 2, 3), (1, 2, 3)))
        out = encoder.encode_document(doc, embedding, gates)
        assert out.shape == (2, 4)
        assert np.array_equal(out.values[0], out.values[1])

    def test_single_sentence_shape(self, embedding, gates):
        out = encoder.encode_document(Document("d", 0, ((4, 5),)), embedding, gates)
        assert out.shape == (1, 4)

    def test_permutation_permutes_rows_exactly(self, embedding, gates):
        sentences = ((1, 2), (3, 4, 5), (6,), (7, 8))
        perm = (2, 0, 3, 1)
        s = encoder.encode_document(Document("d", 0, sentences), embedding, gates)
        s_perm = encoder.encode_document(
            Document("d", 0, tuple(sentences[i] for i in perm)), embedding, gates)
        assert np.array_equal(s_perm.values, s.values[list(perm)])

    def test_shared_parameter_gradients_accumulate(self, model_params, embedding, gates):
        doc = Document("d", 0, ((1, 2), (1, 2)))
        single = Document("d", 0, ((1, 2),))
        with ad.Tape() as tape:
            loss = ad.sum_all(encoder.encode_document(doc, embedding, gates))
        ad.backward(tape, loss)
        double_grad = embedding.grad.dense()
        ad.zero_grads(model_params.tensors)
        with ad.Tape() as tape:
            loss = ad.sum_all(encoder.encode_document(single, embedding, gates))
        ad.backward(tape, loss)
        assert np.allclose(double_grad, 2.0 * embedding.grad.dense(), atol=1e-12)


class TestBatchedEncoderProperties:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sentences=sentences_strategy, data=st.data())
    def test_matches_reference_and_permutes_exactly(self, seed, sentences, data):
        params = lstm_params(np.random.default_rng(seed), vocab_size=VOCAB,
                             embed_dim=5, hidden_dim=4)
        embedding, gates = params.tensors["embedding"], model.lstm_gates(params)
        doc = Document("d", 0, sentences)
        out = encoder.encode_document(doc, embedding, gates).values
        assert out.shape == (len(sentences), 4)
        assert np.max(np.abs(out - reference_encode(doc, embedding, gates))) < 1e-12

        perm = data.draw(st.permutations(range(len(sentences))))
        permuted = encoder.encode_document(
            Document("d", 0, tuple(sentences[i] for i in perm)), embedding, gates).values
        assert np.array_equal(permuted, out[list(perm)])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), steps=st.integers(1, 12))
    def test_single_sequence_lstm_last_is_lstm_last_hidden(self, seed, steps):
        rng = np.random.default_rng(seed)
        gates = model.lstm_gates(lstm_params(rng, vocab_size=VOCAB, embed_dim=5, hidden_dim=4))
        x = rng.normal(size=(steps, 5))
        by_name = dict(zip(encoder.GATES, gates))
        columns = [by_name[name] for name in encoder.GATE_COLUMNS]
        w_x, w_h, b = (np.concatenate([np.atleast_2d(gate[k].values) for gate in columns],
                                      axis=1) for k in range(3))
        h = ad.lstm_last(Tensor(x @ w_x + b), Tensor(w_h), [steps])
        expected = encoder.lstm_last_hidden(Tensor(x), gates)
        assert np.array_equal(h.values[0], expected.values)


# Largest difference from the oracle, relative to the largest magnitude of
# the oracle's array but never to less than 1: every entry is built from
# gates in [0, 1] and N(0, 1) draws, so rounding scales with those terms
# even where a result cancels to near 0. Measured over 30,000 draws of the
# strategy below: 8.1e-16 (out), 2.8e-15 (dxw), 1.5e-15 (dw).
LSTM_MAX_ERR = {"out": 2e-15, "dxw": 5e-15, "dw": 5e-15}


def err_to_largest(got, expected):
    return float(np.max(np.abs(got - expected))) / max(1.0, float(np.max(np.abs(expected))))


class TestLstmLastKernel:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), hidden=st.integers(1, 8),
           lengths=st.lists(st.integers(1, 9), min_size=1, max_size=7),
           scale=st.sampled_from([0.5, 3.0, 40.0]))
    def test_within_bounds_of_the_first_fused_kernel(self, seed, hidden, lengths, scale):
        rng = np.random.default_rng(seed)
        xw = scale * rng.normal(size=(sum(lengths), 4 * hidden))
        w = rng.normal(size=(hidden, 4 * hidden))
        grad = rng.normal(size=(len(lengths), hidden))
        expected = dict(zip(("out", "dxw", "dw"), oracle_lstm_last(xw, w, lengths, grad)))
        with ad.Tape() as tape:
            out = ad.lstm_last(Tensor(xw), Tensor(w), lengths)
        out.grad = grad
        dxw, dw = ad.BACKWARD_RULES["lstm_last"](tape.entries[-1])
        for name, got in (("out", out.values), ("dxw", dxw), ("dw", dw)):
            assert got.shape == expected[name].shape
            assert err_to_largest(got, expected[name]) <= LSTM_MAX_ERR[name], name

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), hidden=st.integers(1, 8),
           lengths=st.lists(st.integers(1, 9), min_size=1, max_size=7),
           scale=st.sampled_from([0.5, 3.0, 40.0, 800.0]))
    def test_taped_and_tape_free_forwards_give_the_same_bytes(self, seed, hidden, lengths,
                                                             scale):
        # a training step's forward runs taped, dev scoring and predict run
        # tape-free: one document must get the same bytes from both
        rng = np.random.default_rng(seed)
        xw = Tensor(scale * rng.normal(size=(sum(lengths), 4 * hidden)))
        w_h = Tensor(rng.normal(size=(hidden, 4 * hidden)))
        free = ad.lstm_last(xw, w_h, lengths)
        with ad.Tape():
            taped = ad.lstm_last(xw, w_h, lengths)
        assert taped.values.tobytes() == free.values.tobytes()

    def test_tape_free_call_keeps_no_per_step_activations(self):
        # a 30-sentence document of 20-token sentences
        rng = np.random.default_rng(11)
        hidden, lengths = 16, [20] * 30
        xw = Tensor(rng.normal(size=(sum(lengths), 4 * hidden)))
        w_h = Tensor(0.1 * rng.normal(size=(hidden, 4 * hidden)))

        def peak(taped):
            tracemalloc.start()
            try:
                if taped:
                    with ad.Tape():
                        ad.lstm_last(xw, w_h, lengths)
                else:
                    ad.lstm_last(xw, w_h, lengths)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(taped=False) < 0.5 * peak(taped=True)


def test_tape_size_does_not_grow_with_sentence_length(embedding, gates):
    # one batched recurrence per document, never a per-token loop on the tape
    rng = np.random.default_rng(5)
    sizes = set()
    for max_len in (1, 4, 12, 30):
        doc = Document("d", 0, tuple(
            tuple(int(t) for t in rng.integers(0, 12, size=rng.integers(1, max_len + 1)))
            for _ in range(10)))
        with ad.Tape() as tape:
            encoder.encode_document(doc, embedding, gates)
        sizes.add(len(tape))
    assert len(sizes) == 1
    assert sizes.pop() <= 16
