"""Sentence encoder: embedding lookup plus a shared LSTM.

A document's node feature matrix has one row per sentence: the last
hidden state of an LSTM run over that sentence's word embeddings. The
same parameters are shared by every sentence, so gradients from all
rows accumulate into one parameter set.

A document is one batched recurrence: one embedding lookup and one
input projection for all of its tokens, then one ``lstm_last`` op over
all of its sentences. Rows still depend only on their own sentence (no
cross-sentence interaction before the graph layer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Document

GATES = ("i", "f", "g", "o")


def xavier_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    a = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-a, a, size=(rows, cols))


@dataclass
class EncoderParams:
    """Embedding matrix plus per-gate LSTM weights (input, hidden, bias)."""

    embedding: Tensor
    gates: dict[str, tuple[Tensor, Tensor, Tensor]]

    @property
    def hidden_dim(self) -> int:
        return self.gates["i"][0].shape[1]


def embed(token_ids: Sequence[int], embedding: Tensor) -> Tensor:
    """Look up embedding rows for a token-id sequence; shape (T, embed_dim)."""
    return ad.gather_rows(embedding, token_ids)


def _lstm(x: Tensor, params: EncoderParams, lengths: Sequence[int]) -> Tensor:
    """Last hidden states, shape (len(lengths), hidden), of the LSTM over
    consecutive runs of x's rows; the gates are joined in i|f|g|o order."""
    hidden = params.hidden_dim
    w_x = ad.concat_cols([params.gates[gate][0] for gate in GATES])
    w_h = ad.concat_cols([params.gates[gate][1] for gate in GATES])
    bias = ad.concat_cols([ad.reshape(params.gates[gate][2], (1, hidden)) for gate in GATES])
    xw = ad.add(ad.matmul(x, w_x), bias)
    return ad.lstm_last(xw, w_h, lengths)


def lstm_last_hidden(x: Tensor, params: EncoderParams) -> Tensor:
    """Last hidden state of the LSTM over x's rows, as a flat vector."""
    h = _lstm(x, params, [x.shape[0]])
    return ad.reshape(h, (params.hidden_dim,))


def flat_tokens(doc: Document) -> list[int]:
    """The document's token ids, sentence after sentence."""
    return [token for sentence in doc.sentences for token in sentence]


def encode_document(doc: Document, params: EncoderParams) -> Tensor:
    """Node feature matrix: row i is the LSTM encoding of sentence i."""
    x = embed(flat_tokens(doc), params.embedding)
    return _lstm(x, params, [len(sentence) for sentence in doc.sentences])
