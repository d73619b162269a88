"""Sentence encoder: embedding lookup plus a shared LSTM.

A document's node feature matrix has one row per sentence: the last
hidden state of an LSTM run over that sentence's word embeddings. The
same parameters are shared by every sentence, so gradients from all
rows accumulate into one parameter set. The LSTM is stored fused: the
input weights ``w_x`` (E, 4H), the recurrent weights ``w_h`` (H, 4H) and
the bias ``b`` (4H,), each with its gate columns in i|f|o|g order, the
order ``lstm_last`` reads, so the three sigmoid gates are contiguous.

A document is one batched recurrence: one embedding lookup and one
input projection for all of its tokens, the bias added into the
projection's own array (``matmul``'s ``bias``), then one ``lstm_last``
op over all of its sentences. Rows still depend only on their own
sentence (no cross-sentence interaction before the graph layer). A
tape-free call over one sequence (the ``lstm`` baseline, a one-sentence
document) runs the recurrence on plain vectors, to the same bytes.
"""

from __future__ import annotations

from typing import Sequence

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import Document


def embed(token_ids: Sequence[int], embedding: Tensor) -> Tensor:
    """Look up embedding rows for a token-id sequence; shape (T, embed_dim)."""
    return ad.gather_rows(embedding, token_ids)


def _lstm(x: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor, lengths: Sequence[int]) -> Tensor:
    """Last hidden states, shape (len(lengths), hidden), of the LSTM over
    consecutive runs of x's rows: ``x @ w_x + b`` as one fused ``matmul``
    (two tape entries with ``lstm_last``), then the recurrence."""
    return ad.lstm_last(ad.matmul(x, w_x, b), w_h, lengths)


def lstm_last_hidden(x: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor) -> Tensor:
    """Last hidden state of the LSTM over x's rows, as a flat vector."""
    h = _lstm(x, w_x, w_h, b, [x.shape[0]])
    return ad.reshape(h, (h.shape[1],))


def flat_tokens(doc: Document) -> list[int]:
    """The document's token ids, sentence after sentence."""
    return [token for sentence in doc.sentences for token in sentence]


def encode_document(doc: Document, embedding: Tensor, w_x: Tensor, w_h: Tensor,
                    b: Tensor) -> Tensor:
    """Node feature matrix: row i is the LSTM encoding of sentence i."""
    x = embed(flat_tokens(doc), embedding)
    return _lstm(x, w_x, w_h, b, [len(sentence) for sentence in doc.sentences])
