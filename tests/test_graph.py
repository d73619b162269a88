"""Document-graph construction and edge-weight ingestion tests."""

import json

import numpy as np
import pytest

from docgraph import graph
from docgraph.autodiff import Tensor
from docgraph.corpus import Document, load_corpus
from docgraph.errors import GraphError


def weights_file(tmp_path, records):
    p = tmp_path / "weights.jsonl"
    p.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")
    return p


class TestBuildAdjacency:
    def test_single_node(self):
        assert np.array_equal(graph.build_adjacency(1).values, [[0.0]])

    def test_three_nodes(self):
        expected = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        assert np.array_equal(graph.build_adjacency(3).values, expected)

    def test_symmetry_and_range(self):
        for n in (2, 5, 9):
            e = graph.build_adjacency(n).values
            assert np.array_equal(e, e.T)
            assert np.all(np.diagonal(e) == 0.0)
            assert np.all((e >= 0.0) & (e <= 1.0))

    def test_zero_nodes_rejected(self):
        with pytest.raises(GraphError):
            graph.build_adjacency(0)


class TestLoadEdgeWeights:
    def test_parse(self, tmp_path):
        p = weights_file(tmp_path, [{"id": "d1", "n": 2, "weights": [[0, 0.8], [0.8, 0]]}])
        ws = graph.load_edge_weights(p)
        assert len(ws) == 1
        assert np.array_equal(ws.matrix_for("d1", 2), [[0.0, 0.8], [0.8, 0.0]])

    def test_range_error(self, tmp_path):
        p = weights_file(tmp_path, [{"id": "d1", "n": 2, "weights": [[0, 1.2], [1.2, 0]]}])
        with pytest.raises(GraphError, match=r"\[0, 1\]"):
            graph.load_edge_weights(p)

    def test_symmetry_error(self, tmp_path):
        p = weights_file(tmp_path, [{"id": "d1", "n": 2, "weights": [[0, 0.3], [0.4, 0]]}])
        with pytest.raises(GraphError, match="symmetric"):
            graph.load_edge_weights(p)

    def test_nonzero_diagonal_error(self, tmp_path):
        p = weights_file(tmp_path, [{"id": "d1", "n": 2, "weights": [[0.1, 0.3], [0.3, 0]]}])
        with pytest.raises(GraphError, match="diagonal"):
            graph.load_edge_weights(p)

    @pytest.mark.parametrize("record, message", [
        ({"id": "d2", "n": 2, "weights": [[0, float("nan")], [float("nan"), 0]]}, "finite"),
        ({"id": "d2", "n": 2.0, "weights": [[0, 0.5], [0.5, 0]]}, "'n' must be an integer"),
        ({"id": "d2", "n": True, "weights": [[0]]}, "'n' must be an integer"),
        ({"id": "d2", "n": 2, "weights": [[0, 0.5], [0.5]]}, "not a numeric matrix"),
        # a valid record, but the first line's id: not a silent overwrite
        ({"id": "d1", "n": 2, "weights": [[0, 0.5], [0.5, 0]]}, "duplicate id 'd1'"),
        *(({"id": bad, "n": 1, "weights": [[0]]},
           f"'id' must be a string or an integer, got {type(bad).__name__}")
          for bad in (None, 7.0, True, ["d2"], {"d": 2})),
    ], ids=["nan_weight", "float_n", "bool_n", "ragged_weights", "duplicate_id", "null_id",
            "float_id", "bool_id", "list_id", "dict_id"])
    def test_bad_record_error_names_its_line(self, tmp_path, record, message):
        p = weights_file(tmp_path, [{"id": "d1", "n": 1, "weights": [[0]]}, record])
        with pytest.raises(GraphError, match=rf"weights\.jsonl:2: .*{message}"):
            graph.load_edge_weights(p)

    def test_integer_id_matches_the_corpus_id(self, tmp_path):
        docs = tmp_path / "c.jsonl"
        docs.write_text('{"id":7,"label":"x","text":"One."}\n', encoding="utf-8")
        [doc] = load_corpus(docs, "jsonl")
        ws = graph.load_edge_weights(weights_file(tmp_path, [{"id": 7, "n": 1,
                                                              "weights": [[0]]}]))
        assert np.array_equal(ws.matrix_for(doc.id, 1), [[0.0]])

    def test_non_utf8_bytes_rejected_with_offset(self, tmp_path):
        p = tmp_path / "weights.jsonl"
        p.write_bytes(b'{"id": "d1", "n": 1, "weights": [[0]]}\n{"id": "\xff\xfe"}\n')
        with pytest.raises(GraphError, match=r"weights\.jsonl: not UTF-8 at byte offset 47"):
            graph.load_edge_weights(p)

    def test_declared_size_mismatch(self, tmp_path):
        p = weights_file(tmp_path, [{"id": "d1", "n": 3, "weights": [[0, 0.3], [0.3, 0]]}])
        with pytest.raises(GraphError, match="n=3"):
            graph.load_edge_weights(p)


class TestBuildGraph:
    def doc(self, n):
        return Document("d1", 0, tuple((1, 2) for _ in range(n)))

    def test_default_dense(self):
        g = graph.build_graph(self.doc(2), Tensor(np.zeros((2, 4))))
        assert np.array_equal(g.values, [[0.0, 1.0], [1.0, 0.0]])

    def test_weights_substitution(self, tmp_path):
        p = weights_file(tmp_path, [{"id": "d1", "n": 2, "weights": [[0, 0.8], [0.8, 0]]}])
        ws = graph.load_edge_weights(p)
        g = graph.build_graph(self.doc(2), Tensor(np.zeros((2, 4))), ws)
        assert np.array_equal(g.values, [[0.0, 0.8], [0.8, 0.0]])

    def test_missing_id_names_document(self, tmp_path):
        ws = graph.load_edge_weights(weights_file(
            tmp_path, [{"id": "other", "n": 2, "weights": [[0, 0.5], [0.5, 0]]}]))
        with pytest.raises(GraphError, match="'d1'"):
            graph.build_graph(self.doc(2), Tensor(np.zeros((2, 4))), ws)

    def test_truncation_uses_leading_principal_submatrix(self, tmp_path):
        m = [[0, 0.1, 0.2], [0.1, 0, 0.3], [0.2, 0.3, 0]]
        ws = graph.load_edge_weights(weights_file(
            tmp_path, [{"id": "d1", "n": 3, "weights": m}]))
        g = graph.build_graph(self.doc(2), Tensor(np.zeros((2, 4))), ws)
        assert np.array_equal(g.values, [[0.0, 0.1], [0.1, 0.0]])

    def test_undersized_weights_error(self, tmp_path):
        ws = graph.load_edge_weights(weights_file(
            tmp_path, [{"id": "d1", "n": 2, "weights": [[0, 0.5], [0.5, 0]]}]))
        with pytest.raises(GraphError, match="3 sentences"):
            graph.build_graph(self.doc(3), Tensor(np.zeros((3, 4))), ws)

    def test_feature_row_mismatch(self):
        with pytest.raises(GraphError, match="feature rows"):
            graph.build_graph(self.doc(3), Tensor(np.zeros((2, 4))))
