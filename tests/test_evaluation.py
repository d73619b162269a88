"""Metric arithmetic and evaluation-path tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docgraph import autodiff as ad
from docgraph import evaluation, model, training
from docgraph.corpus import RawDocument
from docgraph.errors import (CorpusError, EvaluationError, GraphError, ModelError, NumericError,
                             TrainingError)
from docgraph.graph import EdgeWeightSet

from conftest import encode_planted, planted_corpus


class TestComputeMetrics:
    def test_perfect_diagonal(self):
        m = evaluation.compute_metrics(np.diag([5, 5]))
        assert m.macro_precision == m.macro_recall == m.macro_f1 == 1.0
        assert m.accuracy == 1.0
        assert m.n_documents == 10

    def test_hand_computed_two_class(self):
        # gold rows, predicted cols: class0 P=1, R=1/2; class1 P=2/3, R=1
        m = evaluation.compute_metrics(np.array([[1, 1], [0, 2]]))
        assert m.precision == (1.0, 2.0 / 3.0)
        assert m.recall == (0.5, 1.0)
        assert m.macro_precision == pytest.approx(5.0 / 6.0, abs=1e-15)
        assert m.macro_recall == pytest.approx(0.75, abs=1e-15)
        assert m.macro_f1 == pytest.approx((2.0 / 3.0 + 4.0 / 5.0) / 2.0, abs=1e-15)

    def test_hand_computed_second_fixture(self):
        # per-class F1: 2/3 and 8/11, so macro F1 = 23/33
        m = evaluation.compute_metrics(np.array([[3, 2], [1, 4]]))
        assert m.macro_f1 == pytest.approx(23.0 / 33.0, abs=1e-15)

    def test_never_predicted_class_has_zero_precision(self):
        m = evaluation.compute_metrics(np.array([[0, 3], [0, 5]]))
        assert m.precision[0] == 0.0
        assert m.f1[0] == 0.0
        assert np.isfinite(m.macro_f1)

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(EvaluationError, match="no documents"):
            evaluation.compute_metrics(np.zeros((2, 2), dtype=np.int64))

    def test_non_square_rejected(self):
        with pytest.raises(EvaluationError):
            evaluation.compute_metrics(np.zeros((2, 3), dtype=np.int64))

    @pytest.mark.parametrize("confusion", [
        [["a"]], [["1", "2"], ["3", "4"]], [[None]], np.array([[1, 2], [3, 4]], dtype=object),
        np.array([[1 + 0j, 0j], [0j, 1 + 0j]]), np.array([[1.0, 0.0], [0.0, 1.0]]),
    ], ids=["str", "numeric_str", "none", "object_ints", "complex", "float"])
    def test_non_integer_matrix_rejected_at_the_boundary(self, confusion):
        with pytest.raises(EvaluationError, match="non-negative integers"):
            evaluation.compute_metrics(confusion)

    def test_relabeling_leaves_macro_values_unchanged(self):
        rng = np.random.default_rng(0)
        confusion = rng.integers(0, 9, size=(4, 4))
        perm = rng.permutation(4)
        base = evaluation.compute_metrics(confusion)
        shuffled = evaluation.compute_metrics(confusion[np.ix_(perm, perm)])
        assert shuffled.macro_precision == pytest.approx(base.macro_precision, abs=1e-15)
        assert shuffled.macro_recall == pytest.approx(base.macro_recall, abs=1e-15)
        assert shuffled.macro_f1 == pytest.approx(base.macro_f1, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), c=st.integers(2, 5))
    def test_matches_the_per_class_loop_bit_for_bit(self, data, c):
        counts = st.integers(0, 10**6) | st.just(0)
        confusion = np.array(data.draw(st.lists(st.lists(counts, min_size=c, max_size=c),
                                                min_size=c, max_size=c)), dtype=np.int64)
        # a class never predicted: a zero precision denominator
        for j in data.draw(st.lists(st.integers(0, c - 1), max_size=2)):
            confusion[:, j] = 0
        if confusion.sum() == 0:
            confusion[0, 0] = 1
        oracle = {"precision": [], "recall": [], "f1": []}
        for i in range(c):
            tp = float(confusion[i, i])
            fp = float(confusion[:, i].sum()) - tp
            fn = float(confusion[i, :].sum()) - tp
            p = tp / (tp + fp) if tp + fp > 0 else evaluation.ZERO_DENOMINATOR_VALUE
            r = tp / (tp + fn) if tp + fn > 0 else evaluation.ZERO_DENOMINATOR_VALUE
            f = 2 * p * r / (p + r) if p + r > 0 else evaluation.ZERO_DENOMINATOR_VALUE
            for name, value in (("precision", p), ("recall", r), ("f1", f)):
                oracle[name].append(value)
        m = evaluation.compute_metrics(confusion)
        for name, values in oracle.items():
            assert [v.hex() for v in getattr(m, name)] == [v.hex() for v in values], name
            assert all(type(v) is float for v in getattr(m, name))
            assert getattr(m, f"macro_{name}").hex() == float(np.mean(values)).hex()

    def test_dict_output_documents_zero_denominator_convention(self):
        m = evaluation.compute_metrics(np.diag([1, 1]))
        d = m.to_dict(("a", "b"))
        assert d["zero_denominator_value"] == 0.0
        assert d["per_class"]["a"]["f1"] == 1.0


class TestEvaluateDocuments:
    def setup_method(self):
        raw = planted_corpus(seed=1, n_docs=8)
        self.vocab, self.class_set, self.docs = encode_planted(raw, ("satire", "trusted"))
        self.config = model.ModelConfig(
            variant="gcn", vocab_size=len(self.vocab),
            class_names=self.class_set.names, embed_dim=4, hidden_dim=4,
            node_dim=3, seed=3)
        self.params = model.init_params(self.config)

    def test_deterministic_and_read_only(self):
        before = {n: t.values.copy() for n, t in self.params.tensors.items()}
        m1 = evaluation.evaluate_documents(self.params, self.config, self.docs)
        m2 = evaluation.evaluate_documents(self.params, self.config, self.docs)
        assert np.array_equal(m1.confusion, m2.confusion)
        for name, tensor in self.params.tensors.items():
            assert np.array_equal(tensor.values, before[name])

    def test_empty_set_rejected(self):
        with pytest.raises(EvaluationError, match="no documents"):
            evaluation.evaluate_documents(self.params, self.config, [])

    def test_document_encoded_without_a_class_set_rejected(self):
        # a None label would index the confusion matrix as a new axis
        unlabelled = dataclasses.replace(self.docs[1], label=None)
        with pytest.raises(EvaluationError, match=f"document '{unlabelled.id}' has no label"):
            evaluation.evaluate_documents(self.params, self.config,
                                          [self.docs[0], unlabelled])

    def test_confusion_totals_match_document_count(self):
        m = evaluation.evaluate_documents(self.params, self.config, self.docs)
        assert int(m.confusion.sum()) == len(self.docs)

    @pytest.mark.parametrize("score", [
        lambda params, config, docs: evaluation.predict_label(docs[0], params, config),
        lambda params, config, docs: evaluation.predict_probabilities(docs[0], params, config),
        evaluation.evaluate_documents,
    ], ids=["predict_label", "predict_probabilities", "evaluate_documents"])
    def test_non_finite_logits_are_refused_naming_the_document(self, score):
        # finite weights of max |w| = 1e300 overflow on the way to the logits;
        # the overflow must not surface as a RuntimeWarning, which tier-1 raises
        for name in ("gcn.0.w", "proj.w"):
            w = self.params.tensors[name].values
            w *= 1e300 / np.abs(w).max()
        with pytest.raises(NumericError, match=f"^non-finite logits on document "
                                               f"'{self.docs[0].id}'$"):
            score(self.params, self.config, self.docs)


class TestEvaluateCheckpoint:
    def make_checkpoint(self):
        raw = planted_corpus(seed=2, n_docs=8)
        vocab, class_set, _ = encode_planted(raw, ("satire", "trusted"))
        config = model.ModelConfig(
            variant="gcn", vocab_size=len(vocab), class_names=class_set.names,
            embed_dim=4, hidden_dim=4, node_dim=3, seed=5)
        params = model.init_params(config)
        return training.Checkpoint(
            config=config, vocab=vocab,
            values={n: t.values.copy() for n, t in params.tensors.items()},
            metadata={"seed": 5, "best_epoch": 1, "best_dev_macro_f1": 0.0},
        ), raw

    def test_out_of_domain_tokens_map_to_unk(self):
        ckpt, _ = self.make_checkpoint()
        unseen = [RawDocument("x", "satire", "", "Completely unseen vocabulary entries."),
                  RawDocument("y", "trusted", "", "More unfamiliar phrasing arrives.")]
        metrics = evaluation.evaluate(ckpt, unseen)
        assert metrics.n_documents == 2

    def test_class_set_mismatch_rejected(self):
        ckpt, _ = self.make_checkpoint()
        bad = [RawDocument("x", "hoax", "", "Label outside the checkpoint classes.")]
        with pytest.raises(CorpusError, match="hoax"):
            evaluation.evaluate(ckpt, bad)

    def test_unlabelled_document_rejected(self):
        ckpt, _ = self.make_checkpoint()
        with pytest.raises(CorpusError, match="document 'x' has no label"):
            evaluation.evaluate(ckpt, [RawDocument("x", None, "", "No label here.")])

    def test_argmax_tie_goes_to_lowest_class(self):
        # zeroed model: logits equal the zero projection bias for every doc
        ckpt, raw = self.make_checkpoint()
        for name in ckpt.values:
            ckpt.values[name][:] = 0.0
        metrics = evaluation.evaluate(ckpt, raw)
        assert int(metrics.confusion[:, 0].sum()) == len(raw)


THREE_CLASSES = ("hoax", "satire", "trusted")
# class indices, as Python and numpy integers, and what is not one
VALID_LABELS = st.one_of(st.integers(0, 2), st.integers(0, 2).map(np.int64))
BAD_LABELS = st.sampled_from([None, -1, 3, True, 1.0])


class FirstStep(Exception):
    """Raised by a patched ``adam_step``: training reached its first update."""


def first_step(*args):
    raise FirstStep


class TestOneDocumentRule:
    """``train`` and ``evaluate_documents`` refuse, before their first step or
    forward, a document whose label is not a class index or, for a variant
    that reads edge weights, that has no matrix; the first such is named."""

    def setup_method(self):
        raw = planted_corpus(seed=4, n_docs=6, class_names=THREE_CLASSES)
        self.vocab, _, self.docs = encode_planted(raw, THREE_CLASSES)
        self.dev = [dataclasses.replace(d, id=f"dev-{d.id}") for d in self.docs]
        rng = np.random.default_rng(0)
        self.matrices = {}
        for d in [*self.docs, *self.dev]:
            m = rng.uniform(0.1, 1.0, size=(d.n_sentences, d.n_sentences))
            self.matrices[d.id] = (m + m.T) / 2 * (1 - np.eye(d.n_sentences))

    def config(self, variant):
        return model.ModelConfig(variant=variant, vocab_size=len(self.vocab),
                                 class_names=THREE_CLASSES, embed_dim=4, hidden_dim=4,
                                 node_dim=3, seed=3, max_epochs=1)

    def draw_weights(self, data, variant):
        """None for a variant without edge weights; for gcn_ss, a set missing
        some ids. Also the ids the set holds."""
        if variant == "gcn":
            return None, set()
        missing = data.draw(st.sets(st.sampled_from(sorted(self.matrices)), max_size=3),
                            label="missing")
        held = {i: m for i, m in self.matrices.items() if i not in missing}
        return EdgeWeightSet(held), set(held)

    @staticmethod
    def first_bad(docs, config, held):
        """The error the rule raises and a part of its message, by brute force."""
        for d in docs:
            label = d.label
            if not (isinstance(label, (int, np.integer)) and not isinstance(label, bool)
                    and 0 <= label < config.n_classes):
                return "label", f"document '{d.id}' has "
            if config.spec.edge_weights and d.id not in held:
                return GraphError, f"no edge weights for document '{d.id}'"
        return None, None

    def relabel(self, data, docs):
        """``docs`` with drawn class indices, and a bad label at a few of them."""
        bad = data.draw(st.sets(st.integers(0, len(docs) - 1), max_size=2), label="bad")
        return [dataclasses.replace(d, label=data.draw(BAD_LABELS if k in bad else VALID_LABELS,
                                                       label=d.id))
                for k, d in enumerate(docs)]

    @pytest.mark.parametrize("call", ["evaluate", "train"])
    def test_a_missing_weight_set_is_refused_before_the_first_step(self, monkeypatch, call):
        monkeypatch.setattr(ad, "adam_step", first_step)
        config = self.config("gcn_ss")
        with pytest.raises(ModelError, match="variant 'gcn_ss' requires an edge-weight set"):
            if call == "evaluate":
                evaluation.evaluate_documents(model.init_params(config), config, self.dev)
            else:
                training.train(self.docs, self.dev, config, self.vocab)

    @pytest.mark.parametrize("label", [-1, 3, True, 1.0])
    def test_evaluate_names_a_label_that_is_not_a_class_index(self, label):
        config = self.config("gcn")
        docs = [self.docs[0], dataclasses.replace(self.docs[1], label=label)]
        with pytest.raises(EvaluationError) as excinfo:
            evaluation.evaluate_documents(model.init_params(config), config, docs)
        assert str(excinfo.value) == (
            f"document 'doc-1' has label {label!r}, not a class index below 3")

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_evaluate_refuses_or_counts_exactly(self, data):
        variant = data.draw(st.sampled_from(["gcn", "gcn_ss"]), label="variant")
        config = self.config(variant)
        params = model.init_params(config)
        weights, held = self.draw_weights(data, variant)
        docs = self.relabel(data, self.dev)
        error, message = self.first_bad(docs, config, held)
        if error is None:
            expected = np.zeros((3, 3), dtype=np.int64)
            for d in docs:
                logits, _ = model.forward(d, params, config, weights)
                expected[int(d.label), int(np.argmax(logits.values))] += 1
            metrics = evaluation.evaluate_documents(params, config, docs, weights)
            assert np.array_equal(metrics.confusion, expected)
            return
        with pytest.raises(EvaluationError if error == "label" else error) as excinfo:
            evaluation.evaluate_documents(params, config, docs, weights)
        assert message in str(excinfo.value)

    @pytest.mark.parametrize("case", ["label -1", "label True", "no matrix"])
    def test_train_refuses_a_bad_dev_document_before_its_first_step(self, monkeypatch, case):
        monkeypatch.setattr(ad, "adam_step", first_step)
        dev, weights = list(self.dev), None
        if case == "no matrix":
            weights = EdgeWeightSet({i: m for i, m in self.matrices.items() if i != "dev-doc-2"})
            error, message = GraphError, "no edge weights for document 'dev-doc-2'"
        else:
            label = -1 if case == "label -1" else True
            dev[2] = dataclasses.replace(dev[2], label=label)
            error, message = TrainingError, f"document 'dev-doc-2' has label {label!r}"
        config = self.config("gcn" if weights is None else "gcn_ss")
        with pytest.raises(error, match=message):
            training.train(self.docs, dev, config, self.vocab, weights)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_train_refuses_before_its_first_step(self, data):
        variant = data.draw(st.sampled_from(["gcn", "gcn_ss"]), label="variant")
        config = self.config(variant)
        weights, held = self.draw_weights(data, variant)
        train_docs = self.docs
        if data.draw(st.booleans(), label="relabel the training set"):
            train_docs = self.relabel(data, train_docs)
        dev_docs = self.relabel(data, self.dev)
        error, message = self.first_bad([*train_docs, *dev_docs], config, held)
        if error == "label":
            error = TrainingError
        elif error is None and {d.label for d in train_docs} != {0, 1, 2}:
            error, message = TrainingError, "no training documents for class"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ad, "adam_step", first_step)
            with pytest.raises(error or FirstStep) as excinfo:
                training.train(train_docs, dev_docs, config, self.vocab, weights)
        assert message is None or message in str(excinfo.value)
