"""Per-document graphs: dense adjacency over sentences, optional similarity weights.

The default adjacency is fully connected with a zero diagonal. When a
precomputed sentence-similarity file is supplied, its per-document matrix
replaces the 0/1 values; scores must already be normalized to [0, 1].
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .corpus import Document, json_id
from .errors import GraphError

SYMMETRY_TOL = 1e-9


class EdgeWeightSet:
    """Validated similarity matrices keyed by document id."""

    def __init__(self, weights: dict[str, np.ndarray]):
        self._weights = weights

    def __len__(self) -> int:
        return len(self._weights)

    def matrix_for(self, doc_id: str, n: int) -> np.ndarray:
        """The document's weights, truncated to its (possibly capped) size.

        Truncation keeps the leading principal submatrix, consistent with
        sentence truncation keeping the leading sentences.
        """
        if doc_id not in self._weights:
            raise GraphError(f"no edge weights for document '{doc_id}'")
        m = self._weights[doc_id]
        if m.shape[0] < n:
            raise GraphError(
                f"edge-weight matrix for '{doc_id}' is {m.shape[0]}x{m.shape[0]} "
                f"but the document has {n} sentences"
            )
        return m[:n, :n]


def _validate_weights(doc_id: str, matrix: np.ndarray) -> None:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise GraphError(f"weights for '{doc_id}' must be a square matrix")
    if np.any(matrix < 0.0) or np.any(matrix > 1.0):
        raise GraphError(f"weights for '{doc_id}' must lie in [0, 1]")
    if np.any(np.abs(matrix - matrix.T) > SYMMETRY_TOL):
        raise GraphError(f"weights for '{doc_id}' must be symmetric")
    if np.any(np.diagonal(matrix) != 0.0):
        raise GraphError(f"weights for '{doc_id}' must have a zero diagonal")


def load_edge_weights(path: str | Path) -> EdgeWeightSet:
    """Parse and validate an edge-weight JSONL file.

    Each line holds {"id": str, "n": int, "weights": [[...], ...]} with a
    symmetric, zero-diagonal n-by-n matrix of finite scores in [0, 1], and
    no id appears twice. An integer id is kept as its ``str()``, as the
    corpus loader keeps it.
    """
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as err:
        raise GraphError(f"cannot read edge-weight file {path}: {err}") from err
    except UnicodeDecodeError as err:
        raise GraphError(
            f"{path}: not UTF-8 at byte offset {err.start}: {err.reason}") from err
    weights: dict[str, np.ndarray] = {}
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except ValueError as err:  # JSONDecodeError, or an int of over 4300 digits
            raise GraphError(f"{path}:{lineno}: invalid JSON: {err}") from err
        if not isinstance(rec, dict) or not {"id", "n", "weights"} <= rec.keys():
            raise GraphError(f"{path}:{lineno}: record needs 'id', 'n' and 'weights'")
        doc_id = json_id(rec["id"])
        if doc_id is None:
            raise GraphError(f"{path}:{lineno}: 'id' must be a string or an integer, "
                             f"got {type(rec['id']).__name__}")
        if doc_id in weights:
            raise GraphError(f"{path}:{lineno}: duplicate id '{doc_id}'")
        n = rec["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise GraphError(f"{path}:{lineno}: 'n' must be an integer, got {n!r}")
        try:
            matrix = np.asarray(rec["weights"], dtype=np.float64)
        except (TypeError, ValueError) as err:
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
) -> Tensor:
    """The document's adjacency (not learned): fully connected, or the
    document's edge weights when a weight set is given. ``features`` must
    hold one row per sentence."""
    n = doc.n_sentences
    if features.shape[0] != n:
        raise GraphError(
            f"feature rows ({features.shape[0]}) != sentence count ({n}) "
            f"for document '{doc.id}'"
        )
    if weights is None:
        return build_adjacency(n)
    return Tensor(weights.matrix_for(doc.id, n))
