"""Per-document graphs: dense adjacency over sentences, optional similarity weights.

The default adjacency is fully connected with a zero diagonal. When a
precomputed sentence-similarity file is supplied, its per-document matrix
replaces the 0/1 values; scores must already be normalized to [0, 1].
The JSONL file is read by ``corpus.read_lines``, as the corpus is.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .corpus import Document, json_id, read_lines
from .errors import GraphError, is_int

SYMMETRY_TOL = 1e-9


class EdgeWeightSet:
    """Validated similarity matrices keyed by document id."""

    def __init__(self, weights: dict[str, np.ndarray]):
        self._weights = weights

    def __len__(self) -> int:
        return len(self._weights)

    def matrix_for(self, doc_id: str, n: int, max_sentences: int | None = None) -> np.ndarray:
        """The document's n-by-n weights. ``max_sentences`` is the sentence
        cap the document was encoded under, if any. A larger matrix is cut
        to its leading principal submatrix only for a document of exactly
        that many sentences, as encoding keeps the leading sentences; any
        other size is an error.
        """
        if doc_id not in self._weights:
            raise GraphError(f"no edge weights for document '{doc_id}'")
        m = self._weights[doc_id]
        size = m.shape[0]
        if size != n and not (size > n and n == max_sentences):
            raise GraphError(f"edge-weight matrix for '{doc_id}' is {size}x{size} "
                             f"but the document has {n} sentences")
        return m[:n, :n]


def _validate_weights(doc_id: str, matrix: np.ndarray) -> None:
    if np.any(matrix < 0.0) or np.any(matrix > 1.0):
        raise GraphError(f"weights for '{doc_id}' must lie in [0, 1]")
    if np.any(np.abs(matrix - matrix.T) > SYMMETRY_TOL):
        raise GraphError(f"weights for '{doc_id}' must be symmetric")
    if np.any(np.diagonal(matrix) != 0.0):
        raise GraphError(f"weights for '{doc_id}' must have a zero diagonal")


def load_edge_weights(path: str | Path) -> EdgeWeightSet:
    """Parse and validate an edge-weight JSONL file (see ``corpus.read_lines``).

    Each line holds {"id": str, "n": int, "weights": [[...], ...]} with a
    symmetric, zero-diagonal n-by-n matrix of finite scores in [0, 1], each a
    JSON number, and no id appears twice. An integer id is kept as its
    ``str()``, as the corpus loader keeps it.
    """
    path = Path(path)
    weights: dict[str, np.ndarray] = {}
    first_line: dict[str, int] = {}
    for lineno, rec in read_lines(path, GraphError, "edge-weight file"):
        if not isinstance(rec, dict) or not {"id", "n", "weights"} <= rec.keys():
            raise GraphError(f"{path}:{lineno}: record needs 'id', 'n' and 'weights'")
        doc_id = json_id(rec["id"])
        if doc_id is None:
            raise GraphError(f"{path}:{lineno}: 'id' must be a string or an integer, "
                             f"got {type(rec['id']).__name__}")
        if doc_id in first_line:
            raise GraphError(f"{path}:{lineno}: duplicate id '{doc_id}' "
                             f"(first on line {first_line[doc_id]})")
        first_line[doc_id] = lineno
        n = rec["n"]
        if not is_int(n):
            raise GraphError(f"{path}:{lineno}: 'n' must be an integer, got {n!r}")
        rows = rec["weights"]
        # numpy would cast true to 1.0 and "0.5" to 0.5
        if not (isinstance(rows, list) and all(
                isinstance(row, list) and {*map(type, row)} <= {int, float} for row in rows)):
            raise GraphError(f"{path}:{lineno}: weights must be rows of JSON numbers, "
                             f"not booleans, strings or deeper lists")
        try:
            matrix = np.asarray(rows, dtype=np.float64)
        except (OverflowError, ValueError) as err:  # an integer past float range, ragged rows
            raise GraphError(
                f"{path}:{lineno}: weights are not a numeric matrix: {err}") from err
        if matrix.shape != (n, n):
            raise GraphError(
                f"{path}:{lineno}: weights shape {matrix.shape} does not match n={n}"
            )
        if not np.all(np.isfinite(matrix)):
            raise GraphError(f"{path}:{lineno}: weights for '{doc_id}' must be finite")
        _validate_weights(doc_id, matrix)
        weights[doc_id] = matrix
    return EdgeWeightSet(weights)


def build_adjacency(n: int) -> Tensor:
    """Fully connected adjacency: ones everywhere, zero diagonal."""
    if n < 1:
        raise GraphError("a graph needs at least one node")
    values = np.ones((n, n)) - np.eye(n)
    return Tensor(values)


def build_graph(
    doc: Document,
    features: Tensor,
    weights: EdgeWeightSet | None = None,
    max_sentences: int | None = None,
) -> Tensor:
    """The document's adjacency (not learned): fully connected, or the
    document's edge weights (``matrix_for`` under ``max_sentences``) when a
    weight set is given. ``features`` must hold one row per sentence."""
    n = doc.n_sentences
    if features.shape[0] != n:
        raise GraphError(
            f"feature rows ({features.shape[0]}) != sentence count ({n}) "
            f"for document '{doc.id}'"
        )
    if weights is None:
        return build_adjacency(n)
    return Tensor(weights.matrix_for(doc.id, n, max_sentences))
