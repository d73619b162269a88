"""Tests of the benchmark itself: generator, span arithmetic, tracing.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import synth  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from docgraph import autodiff, corpus, evaluation, graph, model  # noqa: E402
from tracing import Span, Tracer, self_times, wrapped_names  # noqa: E402

TINY = {
    "train_long": synth.CorpusSpec(block_sentences=(3, 4, 5, 6), train_blocks=3,
                                   dev_sentences=(3, 4, 5, 6), token_range=(4, 8),
                                   lexicon_size=50),
    "train_short": synth.CorpusSpec(block_sentences=(1, 2, 3, 2), train_blocks=4,
                                    dev_sentences=(1, 2, 3, 2), token_range=(4, 8),
                                    lexicon_size=50),
    "score": synth.CorpusSpec(block_sentences=(1, 3, 5, 7), train_blocks=3,
                              heldout_sentences=(1, 3, 5, 7), token_range=(4, 8),
                              lexicon_size=50),
}


def tiny(name):
    return replace(workloads.WORKLOADS[name], spec=TINY[name])


def benchmark_names(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[section]]


def file_bytes(files):
    return {name: path.read_bytes() for name, path in vars(files).items() if path}


class TestGenerator:
    @pytest.mark.parametrize("name", sorted(TINY))
    def test_same_seed_same_files_other_seed_other_files(self, tmp_path, name):
        a = file_bytes(synth.generate(TINY[name], 7, tmp_path / "a"))
        b = file_bytes(synth.generate(TINY[name], 7, tmp_path / "b"))
        c = file_bytes(synth.generate(TINY[name], 8, tmp_path / "c"))
        assert a == b
        assert all(a[k] != c[k] for k in a)

    def test_program_reads_back_the_planned_shapes(self, tmp_path):
        spec = TINY["score"]
        files = synth.generate(spec, 3, tmp_path)
        class_set = corpus.ClassSet(synth.CLASS_NAMES)
        train = corpus.load_corpus(files.train, "tsv", class_set)
        vocab = corpus.build_vocab(train)
        docs = corpus.encode_corpus(train, vocab, class_set)
        k = len(spec.block_sentences)
        for start in range(0, len(docs), k):
            block = docs[start:start + k]
            assert sorted(d.n_sentences for d in block) == sorted(spec.block_sentences)
            assert sorted(d.label for d in block) == sorted(i % 4 for i in range(k))
            for d in block:
                assert sorted(len(s) for s in d.sentences) == sorted(
                    synth.sentence_lengths(d.n_sentences, spec.token_range))
        heldout = corpus.load_corpus(files.heldout, "jsonl", class_set)
        weights = graph.load_edge_weights(files.heldout_weights)
        assert len(weights) == len(heldout)
        unseen = [t for d in heldout for s in corpus.split_sentences(d.text)
                  for t in corpus.tokenize(s) if t not in vocab.token_to_id]
        assert unseen, "held-out documents should contain out-of-vocabulary words"

    @pytest.mark.parametrize("seed", [1, 2])
    def test_vocabulary_size_does_not_depend_on_the_seed(self, tmp_path, seed):
        spec = TINY["train_long"]
        files = synth.generate(spec, seed, tmp_path)
        vocab = corpus.build_vocab(corpus.load_corpus(files.train, "tsv"))
        # PAD, UNK, the period and one marker per class join the lexicon
        assert len(vocab) == spec.lexicon_size + 3 + len(synth.MARKERS)

    def test_every_document_carries_its_class_marker(self, tmp_path):
        files = synth.generate(TINY["train_short"], 5, tmp_path)
        for raw in corpus.load_corpus(files.train, "tsv"):
            marker = synth.MARKERS[synth.CLASS_NAMES.index(raw.label)]
            assert any(marker in corpus.tokenize(s) for s in corpus.split_sentences(raw.text))

    def test_sentence_lengths_stay_in_range_around_the_midpoint(self):
        for n in (1, 2, 3, 15, 40):
            lengths = synth.sentence_lengths(n, (15, 30))
            assert len(lengths) == n
            assert all(15 <= x <= 30 for x in lengths)
            assert abs(sum(lengths) / n - 22.5) <= 1


class TestSelfTime:
    def test_hand_built_tree(self):
        spans = [
            Span("root", 0.0, 10.0, None, "other", 0, 1),
            Span("a", 1.0, 3.0, 0, "other", 0, 1),
            Span("b", 4.0, 6.5, 0, "other", 0, 1),
            Span("a1", 1.5, 2.0, 1, "other", 0, 1),
            Span("a2", 2.0, 2.75, 1, "other", 0, 1),
            Span("leaf", 11.0, 11.5, None, "other", 0, 1),
        ]
        assert self_times(spans) == pytest.approx([10 - 2 - 2.5, 2 - 0.5 - 0.75, 2.5,
                                                   0.5, 0.75, 0.5])


def random_doc(rng, n_sentences, vocab_size):
    return corpus.Document("d", 1, tuple(
        tuple(int(t) for t in rng.integers(2, vocab_size, size=rng.integers(2, 6)))
        for _ in range(n_sentences)))


class TestTracer:
    def test_model_ops_are_exactly_the_ops_the_variants_record(self):
        rng = np.random.default_rng(0)
        docs = [random_doc(rng, 1, 40), random_doc(rng, 4, 40)]
        weights = graph.EdgeWeightSet({"d": np.ones((4, 4)) - np.eye(4)})
        recorded = set()
        for variant in model.VARIANTS:
            config = model.ModelConfig(variant=variant, vocab_size=40, class_names=("a", "b"),
                                       embed_dim=4, hidden_dim=4, node_dim=3)
            params = model.init_params(config)
            for doc in docs:
                with autodiff.Tape() as tape:
                    logits, _ = model.forward(doc, params, config, weights)
                    model.loss(logits, doc.label)
                recorded |= {e.op for e in tape.entries}
        assert recorded == set(tracing.MODEL_OPS)

    def test_tracing_leaves_logits_unchanged_and_restores_every_wrapper(self):
        rng = np.random.default_rng(1)
        doc = random_doc(rng, 5, 60)
        before = wrapped_names()
        for variant in model.VARIANTS:
            config = model.ModelConfig(variant=variant, vocab_size=60, class_names=("a", "b"))
            params = model.init_params(config)
            weights = graph.EdgeWeightSet({"d": np.full((5, 5), 0.5) - 0.5 * np.eye(5)})
            plain = evaluation.predict_probabilities(doc, params, config, weights)
            tracer = Tracer()
            with tracer.active():
                traced = evaluation.predict_probabilities(doc, params, config, weights)
            assert np.array_equal(plain, traced)
            assert tracer.spans, "the tracer recorded nothing"
        assert wrapped_names() == before

    def test_wrappers_restored_when_the_block_raises(self):
        before = wrapped_names()
        with pytest.raises(RuntimeError):
            with Tracer().active():
                raise RuntimeError("boom")
        assert wrapped_names() == before


class TestWorkloads:
    @pytest.mark.parametrize("name", sorted(TINY))
    def test_untraced_run_reports_every_end_to_end_metric(self, tmp_path, name):
        result = workloads.run_untraced(tiny(name), 4, 0.0, tmp_path)
        assert list(result.metrics) == benchmark_names("end_to_end")
        assert result.failed == 0 and result.attempted > 0
        assert all(value > 0 for value, _ in result.metrics.values())

    @pytest.mark.parametrize("name", sorted(TINY))
    def test_traced_run_reports_every_per_layer_metric(self, tmp_path, name):
        spans = tmp_path / "spans.jsonl"
        result = workloads.run_traced(tiny(name), 4, 0.0, tmp_path, spans)
        assert sorted(result.metrics) == sorted(benchmark_names("per_layer"))
        assert result.failed == 0
        assert spans.read_text().count("\n") == result.info["spans"]

    @pytest.mark.parametrize("name", ["train_long", "train_short"])
    def test_traced_training_fills_the_roadmap_baseline_columns(self, tmp_path, name):
        m = workloads.run_traced(tiny(name), 2, 0.0, tmp_path, None).metrics
        for column in ("autodiff.tape_entries", "model.forward_ms", "autodiff.backward_ms",
                       "autodiff.adam_ms", "training.step_ms_p50", "evaluation.predict_ms"):
            assert m[column][0] > 0, column

    def test_scoring_records_no_backward_or_adam(self, tmp_path):
        m = workloads.run_traced(tiny("score"), 2, 0.0, tmp_path, None).metrics
        assert m["autodiff.backward_ms"][0] == 0 and m["autodiff.adam_ms"][0] == 0
        assert m["autodiff.tape_entries"][0] == 0
        assert m["evaluation.predict_ms"][0] > 0

    def test_wrong_probabilities_fail_the_run(self, tmp_path, monkeypatch):
        real = evaluation.predict_probabilities
        monkeypatch.setattr(evaluation, "predict_probabilities",
                            lambda *args: real(*args) * 1.001)
        with pytest.raises(workloads.CheckFailed, match="sum to"):
            workloads.run_untraced(tiny("score"), 1, 0.0, tmp_path)

    def test_a_model_that_does_not_learn_fails_the_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(autodiff, "adam_step", lambda *args: None)
        with pytest.raises(workloads.CheckFailed, match="did not learn"):
            workloads.run_untraced(tiny("train_short"), 1, 0.0, tmp_path)


def test_command_fails_without_the_program(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_bytes(path.read_bytes())
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "score", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
