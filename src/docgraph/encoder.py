"""Sentence encoder: embedding lookup plus a shared LSTM.

A document's node feature matrix has one row per sentence: the last
hidden state of an LSTM run over that sentence's word embeddings. The
same parameters are shared by every sentence, so gradients from all
rows accumulate into one parameter set. The LSTM's ``gates`` are the
per-gate ``(w_x, w_h, b)`` triples, listed in ``GATES`` order.

A document is one batched recurrence: one embedding lookup and one
input projection for all of its tokens, then one ``lstm_last`` op over
all of its sentences. Rows still depend only on their own sentence (no
cross-sentence interaction before the graph layer).
"""

from __future__ import annotations

from typing import Sequence

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Document

GATES = ("i", "f", "g", "o")

Gates = Sequence[tuple[Tensor, Tensor, Tensor]]


def embed(token_ids: Sequence[int], embedding: Tensor) -> Tensor:
    """Look up embedding rows for a token-id sequence; shape (T, embed_dim)."""
    return ad.gather_rows(embedding, token_ids)


def _lstm(x: Tensor, gates: Gates, lengths: Sequence[int]) -> Tensor:
    """Last hidden states, shape (len(lengths), hidden), of the LSTM over
    consecutive runs of x's rows; the gates are joined in i|f|g|o order."""
    hidden = gates[0][0].shape[1]
    w_x = ad.concat_cols([w_x for w_x, _, _ in gates])
    w_h = ad.concat_cols([w_h for _, w_h, _ in gates])
    bias = ad.concat_cols([ad.reshape(b, (1, hidden)) for _, _, b in gates])
    xw = ad.add(ad.matmul(x, w_x), bias)
    return ad.lstm_last(xw, w_h, lengths)


def lstm_last_hidden(x: Tensor, gates: Gates) -> Tensor:
    """Last hidden state of the LSTM over x's rows, as a flat vector."""
    h = _lstm(x, gates, [x.shape[0]])
    return ad.reshape(h, (h.shape[1],))


def flat_tokens(doc: Document) -> list[int]:
    """The document's token ids, sentence after sentence."""
    return [token for sentence in doc.sentences for token in sentence]


def encode_document(doc: Document, embedding: Tensor, gates: Gates) -> Tensor:
    """Node feature matrix: row i is the LSTM encoding of sentence i."""
    x = embed(flat_tokens(doc), embedding)
    return _lstm(x, gates, [len(sentence) for sentence in doc.sentences])
