"""Metric arithmetic and evaluation-path tests."""

import dataclasses

import numpy as np
import pytest

from docgraph import evaluation, model, training
from docgraph.corpus import RawDocument
from docgraph.errors import CorpusError, EvaluationError

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
