"""Confusion matrices and macro-averaged precision/recall/F1.

Predictions are argmax over logits (lowest class index on ties).
Zero-denominator precision/recall/F1 are defined as 0, which is the
conservative convention and is recorded in the JSON output so reported
macro averages are unambiguous.

Out-of-domain corpora are re-encoded with the checkpoint's vocabulary;
unknown tokens map to UNK.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .corpus import Document, RawDocument, encode_corpus
from .errors import EvaluationError, NumericError
from .graph import EdgeWeightSet
from .model import ModelConfig, ModelParams, forward

if TYPE_CHECKING:  # pragma: no cover
    from .training import Checkpoint

ZERO_DENOMINATOR_VALUE = 0.0


@dataclass(frozen=True)
class Metrics:
    """Per-class and macro-averaged scores for one evaluation."""

    confusion: np.ndarray  # rows = gold, cols = predicted
    precision: tuple[float, ...]
    recall: tuple[float, ...]
    f1: tuple[float, ...]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    accuracy: float
    n_documents: int

    def to_dict(self, class_names: tuple[str, ...] | None = None) -> dict:
        names = class_names or tuple(str(i) for i in range(len(self.precision)))
        return {
            "accuracy": self.accuracy,
            "confusion": [[int(v) for v in row] for row in self.confusion],
            "documents": self.n_documents,
            "macro": {
                "f1": self.macro_f1,
                "precision": self.macro_precision,
                "recall": self.macro_recall,
            },
            "per_class": {
                name: {
                    "f1": self.f1[i],
                    "precision": self.precision[i],
                    "recall": self.recall[i],
                }
                for i, name in enumerate(names)
            },
            "zero_denominator_value": ZERO_DENOMINATOR_VALUE,
        }


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, and ZERO_DENOMINATOR_VALUE where den is 0."""
    return np.divide(num, den, out=np.full(num.shape, ZERO_DENOMINATOR_VALUE), where=den > 0)


def compute_metrics(confusion: np.ndarray) -> Metrics:
    """Macro-averaged metrics from a gold-by-predicted confusion matrix."""
    confusion = np.asarray(confusion)
    if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1]:
        raise EvaluationError(f"confusion matrix must be square, got {confusion.shape}")
    # the dtype first: ``<`` on a str, object or complex matrix raises a numpy error
    if not np.issubdtype(confusion.dtype, np.integer) or np.any(confusion < 0):
        raise EvaluationError("confusion matrix must hold non-negative integers")
    total = int(confusion.sum())
    if total == 0:
        raise EvaluationError("no documents to evaluate")

    tp = np.diag(confusion).astype(float)
    precision = _ratio(tp, confusion.sum(axis=0).astype(float))
    recall = _ratio(tp, confusion.sum(axis=1).astype(float))
    f1 = _ratio(2 * precision * recall, precision + recall)

    return Metrics(
        confusion=confusion.copy(),
        precision=tuple(precision.tolist()),
        recall=tuple(recall.tolist()),
        f1=tuple(f1.tolist()),
        macro_precision=float(np.mean(precision)),
        macro_recall=float(np.mean(recall)),
        macro_f1=float(np.mean(f1)),
        accuracy=float(np.trace(confusion)) / total,
        n_documents=total,
    )


def checked_forward(
    doc: Document,
    params: ModelParams,
    config: ModelConfig,
    weights: EdgeWeightSet | None = None,
) -> tuple[ad.Tensor, list[ad.Tensor]]:
    """``forward`` under training's ``np.errstate``; raises ``NumericError``
    naming the document if a logit is not finite, which finite parameters
    large enough to overflow on the way give."""
    with np.errstate(over="ignore", invalid="ignore"):
        logits, attentions = forward(doc, params, config, weights)
    if not np.isfinite(logits.values).all():
        raise NumericError(f"non-finite logits on document '{doc.id}'")
    return logits, attentions


def predict_label(
    doc: Document,
    params: ModelParams,
    config: ModelConfig,
    weights: EdgeWeightSet | None = None,
) -> int:
    logits, _ = checked_forward(doc, params, config, weights)
    return int(np.argmax(logits.values))  # lowest index wins ties


def predict_probabilities(
    doc: Document,
    params: ModelParams,
    config: ModelConfig,
    weights: EdgeWeightSet | None = None,
) -> np.ndarray:
    logits, _ = checked_forward(doc, params, config, weights)
    row = ad.reshape(logits, (1, logits.shape[0]))
    with np.errstate(over="ignore"):  # logits further apart than the float range
        return ad.softmax_rows(row).values[0]


def evaluate_documents(
    params: ModelParams,
    config: ModelConfig,
    docs: list[Document],
    weights: EdgeWeightSet | None = None,
) -> Metrics:
    """Score already-encoded documents against their gold labels."""
    if not docs:
        raise EvaluationError("no documents to evaluate")
    unlabelled = [d.id for d in docs if d.label is None]
    if unlabelled:  # encoded without a class set
        raise EvaluationError(f"document '{unlabelled[0]}' has no label")
    predicted = [predict_label(d, params, config, weights) for d in docs]
    c = config.n_classes
    confusion = np.zeros((c, c), dtype=np.int64)
    for doc, pred in zip(docs, predicted):
        confusion[doc.label, pred] += 1
    return compute_metrics(confusion)


def evaluate(
    ckpt: "Checkpoint",
    docs: list[RawDocument],
    weights: EdgeWeightSet | None = None,
) -> Metrics:
    """Re-encode raw documents with the checkpoint's vocabulary and score them.

    A document without a label, or with one outside the checkpoint's class
    set, raises ``CorpusError``; unknown tokens map to UNK, which is how
    unseen publication sources are handled.
    """
    config = ckpt.config
    encoded = encode_corpus(docs, ckpt.vocab, config.class_set,
                            config.max_sentences, config.max_tokens)
    return evaluate_documents(ckpt.to_params(), config, encoded, weights)
