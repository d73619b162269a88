"""End-to-end command-line tests, run in-process (the BLAS thread count is
fixed when numpy loads, so comparing thread counts takes a subprocess each)."""

import argparse
import dataclasses
import io
import json
import os
import subprocess
import sys
import weakref
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import docgraph
from docgraph import autodiff as ad
from docgraph import cli, evaluation, model, training
from docgraph.corpus import build_vocab, encode_document, load_corpus
from docgraph.errors import CheckpointError

from conftest import HalfWriter, planted_corpus

SVG_NS = "{http://www.w3.org/2000/svg}"


def write_tsv(path, docs):
    path.write_text("".join(f"{d.label}\t{d.text}\n" for d in docs), encoding="utf-8")
    return str(path)


def write_jsonl(path, docs):
    """``docs`` as JSONL records; a ``None`` label is left out of its record."""
    records = [{"id": d.id, "label": d.label, "source": d.source, "text": d.text}
               for d in docs]
    lines = [json.dumps({k: v for k, v in r.items() if v is not None}) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def without_labels(docs, ids):
    """``docs`` with the label of each document in ``ids`` removed."""
    return [dataclasses.replace(d, label=None) if d.id in ids else d for d in docs]


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def criterion_6_bytes(tmp_path, **env) -> tuple[bytes, bytes]:
    """The checkpoint and run-log bytes of criterion 6's train command, run in
    a fresh process with ``env`` added to the environment."""
    train = write_tsv(tmp_path / "train.tsv", planted_corpus(seed=6, n_docs=12))
    dev = write_tsv(tmp_path / "dev.tsv", planted_corpus(seed=7, n_docs=6))
    src = str(Path(docgraph.__file__).parents[1])
    out = tmp_path / "c6.ckpt"
    subprocess.run([
        sys.executable, "-m", "docgraph.cli", "train", "--protocol", "two_way",
        "--train", train, "--dev", dev, "--model", "gcn", "--seed", "5",
        "--epochs", "2", "--out", str(out),
    ], env=dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))), check=True, capture_output=True)
    return out.read_bytes(), (tmp_path / "c6.ckpt.runlog.json").read_bytes()


@pytest.fixture
def corpus_files(tmp_path):
    train = planted_corpus(seed=0, n_docs=16)
    dev = planted_corpus(seed=1, n_docs=8)
    return {
        "train": write_tsv(tmp_path / "train.tsv", train),
        "dev": write_tsv(tmp_path / "dev.tsv", dev),
        "dev_jsonl": write_jsonl(tmp_path / "dev.jsonl", dev),
        "dev_docs": dev,
        "tmp": tmp_path,
    }


def train_checkpoint(capsys, corpus_files, model_name="gat2", epochs="2"):
    out = str(corpus_files["tmp"] / f"{model_name}.ckpt")
    code, stdout, _ = run_cli(capsys, [
        "train", "--protocol", "two_way",
        "--train", corpus_files["train"], "--dev", corpus_files["dev"],
        "--model", model_name, "--seed", "42", "--epochs", epochs,
        "--out", out,
    ])
    assert code == 0
    return out, json.loads(stdout)


class TestTrainCommand:
    def test_missing_train_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["train", "--model", "gcn", "--out", "x.ckpt"])
        assert excinfo.value.code == 2

    def test_ss_model_without_edge_weights(self, capsys, corpus_files):
        code, _, err = run_cli(capsys, [
            "train", "--protocol", "two_way",
            "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--model", "gcn_ss", "--out", str(corpus_files["tmp"] / "x.ckpt"),
        ])
        assert code == 1
        assert "--edge-weights" in err

    def test_four_way_rejects_explicit_dev(self, capsys, corpus_files):
        code, _, err = run_cli(capsys, [
            "train", "--protocol", "four_way",
            "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--model", "gcn", "--out", str(corpus_files["tmp"] / "x.ckpt"),
        ])
        assert code == 1
        assert "80:20" in err

    def test_train_writes_checkpoint_and_log(self, capsys, corpus_files):
        out, summary = train_checkpoint(capsys, corpus_files, "gcn")
        assert summary["best_epoch"] >= 1
        assert len(summary["epochs"]) == 2
        ckpt = training.load_checkpoint(out)
        assert ckpt.config.variant == "gcn"
        log = json.loads((corpus_files["tmp"] / "gcn.ckpt.runlog.json").read_text())
        assert log["epochs"] == summary["epochs"]

    def test_model_choices_are_the_variant_table(self):
        commands = next(a for a in cli.build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction))
        model_flag = next(a for a in commands.choices["train"]._actions
                          if a.dest == "model")
        assert tuple(model_flag.choices) == model.VARIANTS

    def test_interrupted_run_log_write_keeps_previous_log(self, capsys, corpus_files,
                                                          monkeypatch):
        train_checkpoint(capsys, corpus_files, "cnn", epochs="1")
        log_path = corpus_files["tmp"] / "cnn.ckpt.runlog.json"
        before = log_path.read_bytes()
        real_replace = os.replace

        def replace(src, dst):
            if str(dst).endswith(".runlog.json"):
                raise KeyboardInterrupt
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(KeyboardInterrupt):
            train_checkpoint(capsys, corpus_files, "cnn", epochs="2")
        assert log_path.read_bytes() == before
        assert not list(corpus_files["tmp"].glob("*.tmp"))

    @pytest.mark.parametrize("failing", ["checkpoint", "run log"])
    def test_failed_temp_write_keeps_previous_checkpoint_and_log(self, capsys, corpus_files,
                                                                 monkeypatch, failing):
        train_checkpoint(capsys, corpus_files, "cnn", epochs="1")
        paths = [corpus_files["tmp"] / "cnn.ckpt", corpus_files["tmp"] / "cnn.ckpt.runlog.json"]
        before = [p.read_bytes() for p in paths]

        def failing_open(path, mode):
            f = open(path, mode)
            return HalfWriter(f) if ("runlog" in path.name) == (failing == "run log") else f

        monkeypatch.setattr(training, "open", failing_open, raising=False)
        code, stdout, err = run_cli(capsys, [
            "train", "--protocol", "two_way",
            "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--model", "cnn", "--seed", "42", "--epochs", "2", "--out", str(paths[0]),
        ])
        assert code == 1 and stdout == "" and "disk full" in err
        assert [p.read_bytes() for p in paths] == before
        assert not list(corpus_files["tmp"].glob("*.tmp"))

    @pytest.mark.parametrize("existing, error", [
        ((), "output directory {tmp}/missing does not exist"),
        (("missing", "missing/x.ckpt"), "output path {tmp}/missing/x.ckpt is a directory"),
        (("missing", "missing/x.ckpt.runlog.json"),
         "output path {tmp}/missing/x.ckpt.runlog.json is a directory"),
    ], ids=["missing parent", "out is a directory", "run log is a directory"])
    def test_missing_output_directory_fails_before_training(self, capsys, corpus_files,
                                                            monkeypatch, existing, error):
        def never(*args, **kwargs):
            raise AssertionError("training ran")

        monkeypatch.setattr(training, "train", never)
        tmp = corpus_files["tmp"]
        for name in existing:
            (tmp / name).mkdir()
        code, stdout, err = run_cli(capsys, [
            "train", "--protocol", "two_way",
            "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--model", "cnn", "--out", str(tmp / "missing" / "x.ckpt"),
        ])
        assert code == 1
        assert stdout == ""
        assert err == f"error: {error.format(tmp=tmp)}\n"

    @pytest.mark.parametrize("case", [
        "unlabelled test record", "unreadable test path", "test label outside the classes",
        "test emptied by the protocol", "weights miss a dev document",
        "weights miss a test document"])
    def test_bad_input_fails_before_training(self, capsys, corpus_files, monkeypatch, case):
        monkeypatch.setattr(training, "train", lambda *args: pytest.fail("training ran"))
        tmp = corpus_files["tmp"]
        dev = [dataclasses.replace(d, id=f"dev-{d.id}") for d in corpus_files["dev_docs"]]
        test = [dataclasses.replace(d, id=f"test-{d.id}") for d in planted_corpus(seed=5, n_docs=6)]
        test_file = str(tmp / "test.jsonl")
        protocol, edge = ["--protocol", "two_way"], []
        if case == "unlabelled test record":
            test = without_labels(test, {"test-doc-2"})
            error = f"{test_file}: document 'test-doc-2' has no label"
        elif case == "unreadable test path":
            test_file = str(tmp / "missing.jsonl")
            error = (f"cannot read corpus file {test_file}: "
                     f"[Errno 2] No such file or directory: '{test_file}'")
        elif case == "test label outside the classes":
            protocol, test = [], [*test[:3], dataclasses.replace(test[3], label="hoax")]
            error = "label 'hoax' not in class set ['satire', 'trusted']"
        elif case == "test emptied by the protocol":
            test = [dataclasses.replace(d, label="hoax") for d in test]
            error = "no documents to evaluate"
        else:
            missing = "dev" if "dev" in case else "test"
            # the TSV training file's documents are row-0 ... row-15
            covered = [f"row-{k}" for k in range(16)] + [
                d.id for d in (test if missing == "dev" else dev)]
            matrix = [[0, 0.5, 0.25], [0.5, 0, 1], [0.25, 1, 0]]
            (tmp / "weights.jsonl").write_text("".join(
                json.dumps({"id": i, "n": 3, "weights": matrix}) + "\n" for i in covered))
            edge = ["--edge-weights", str(tmp / "weights.jsonl")]
            error = f"no edge weights for document '{missing}-doc-0'"
        if case != "unreadable test path":
            write_jsonl(tmp / "test.jsonl", test)
        code, stdout, err = run_cli(capsys, [
            "train", *protocol, "--train", corpus_files["train"],
            "--dev", write_jsonl(tmp / "dev_ids.jsonl", dev), "--test", test_file,
            "--model", "gcn_ss" if edge else "gcn", *edge, "--out", str(tmp / "x.ckpt"),
        ])
        assert code == 1 and stdout == ""
        assert err == f"error: {error}\n"
        assert not list(tmp.glob("x.ckpt*"))

    def test_diverging_run_ends_with_its_error_alone(self, capsys, corpus_files):
        # the overflow on the way to a non-finite loss is not reported as
        # numpy warnings (which tier-1 turns into errors) before the error
        code, stdout, err = run_cli(capsys, [
            "train", "--protocol", "two_way",
            "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--model", "cnn", "--seed", "42", "--lr", "1e150",
            "--out", str(corpus_files["tmp"] / "cnn.ckpt"),
        ])
        assert code == 1 and stdout == ""
        assert err.splitlines()[-1].startswith("error: non-finite loss on document '")
        assert "Warning" not in err

    @pytest.mark.parametrize("flag", ["--max-sentences", "--max-tokens"])
    def test_huge_length_cap_is_an_error(self, capsys, corpus_files, flag):
        # str.split's maxsplit is a C ssize_t, so this was an OverflowError
        code, stdout, err = run_cli(capsys, [
            "train", "--protocol", "two_way",
            "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--model", "cnn", flag, str(10**30),
            "--out", str(corpus_files["tmp"] / "cnn.ckpt"),
        ])
        assert code == 1 and stdout == ""
        field = flag[2:].replace("-", "_")
        assert err.splitlines() == [
            f"error: {field} must be a positive integer up to {sys.maxsize}"]

    def test_determinism_byte_identical_outputs(self, capsys, corpus_files):
        out1, _ = train_checkpoint(capsys, corpus_files, "lstm")
        log1 = (corpus_files["tmp"] / "lstm.ckpt.runlog.json").read_bytes()
        ckpt1 = Path(out1).read_bytes()
        out2, _ = train_checkpoint(capsys, corpus_files, "lstm")
        assert Path(out2).read_bytes() == ckpt1
        assert (corpus_files["tmp"] / "lstm.ckpt.runlog.json").read_bytes() == log1

    def test_raw_documents_are_released_before_training(self, capsys, corpus_files,
                                                        monkeypatch):
        refs = []
        load_corpus, train = cli.load_corpus, training.train

        def tracked_load(*args):
            docs = load_corpus(*args)
            refs.extend(weakref.ref(d) for d in docs)
            return docs

        def checked_train(*args):
            # train, dev and test are all read, and released, before the first step
            assert len(refs) == 16 + 8 + 6 and all(r() is None for r in refs)
            return train(*args)

        monkeypatch.setattr(cli, "load_corpus", tracked_load)
        monkeypatch.setattr(training, "train", checked_train)
        test = write_tsv(corpus_files["tmp"] / "test.tsv", planted_corpus(seed=5, n_docs=6))
        code, _, _ = run_cli(capsys, [
            "train", "--protocol", "two_way",
            "--train", corpus_files["train"], "--dev", corpus_files["dev"], "--test", test,
            "--model", "gcn", "--epochs", "1", "--out", str(corpus_files["tmp"] / "gcn.ckpt"),
        ])
        assert code == 0

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 12: backward products whose "
                       "inner dimension exceeds 100 change bytes with the BLAS thread count")
    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity")
                        else (os.cpu_count() or 1) < 2,
                        reason="OpenBLAS runs at most one thread per available CPU")
    def test_checkpoint_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        assert (criterion_6_bytes(tmp_path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
                == criterion_6_bytes(tmp_path, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2"))

    def test_checkpoint_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        # iterating a set of strings would order by hash, which this seed sets
        assert (criterion_6_bytes(tmp_path, PYTHONHASHSEED="1")
                == criterion_6_bytes(tmp_path, PYTHONHASHSEED="2"))

    @pytest.mark.parametrize("protocol", [[], ["--protocol", "two_way"]])
    def test_unlabelled_document_is_an_error(self, capsys, corpus_files, protocol):
        # two_way would otherwise drop it with the labels it filters out
        tmp = corpus_files["tmp"]
        train = write_jsonl(tmp / "train.jsonl",
                            without_labels(planted_corpus(seed=0, n_docs=16), {"doc-3"}))
        code, stdout, err = run_cli(capsys, [
            "train", *protocol, "--train", train, "--dev", corpus_files["dev"],
            "--model", "gcn", "--epochs", "1", "--out", str(tmp / "x.ckpt"),
        ])
        assert code == 1 and stdout == ""
        assert err == f"error: {train}: document 'doc-3' has no label\n"
        assert not (tmp / "x.ckpt").exists()

    def test_four_way_protocol_runs(self, capsys, tmp_path):
        docs = planted_corpus(seed=3, n_docs=24,
                              class_names=("hoax", "propaganda", "satire", "trusted"))
        train_file = write_tsv(tmp_path / "lun.tsv", docs)
        out = str(tmp_path / "four.ckpt")
        code, stdout, _ = run_cli(capsys, [
            "train", "--protocol", "four_way", "--train", train_file,
            "--model", "gcn", "--seed", "7", "--epochs", "1", "--out", out,
        ])
        assert code == 0
        ckpt = training.load_checkpoint(out)
        assert ckpt.config.class_names == ("hoax", "propaganda", "satire", "trusted")

    def test_optional_test_set_is_scored(self, capsys, corpus_files, tmp_path):
        test_file = write_tsv(tmp_path / "test.tsv", planted_corpus(seed=5, n_docs=6))
        out = str(tmp_path / "t.ckpt")
        code, stdout, _ = run_cli(capsys, [
            "train", "--protocol", "two_way",
            "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--test", test_file, "--model", "gcn", "--seed", "1",
            "--epochs", "1", "--out", out,
        ])
        assert code == 0
        summary = json.loads(stdout)
        assert summary["test"]["documents"] == 6
        # the same scores as re-encoding the file with the saved checkpoint
        assert summary["test"] == evaluation.evaluate(
            training.load_checkpoint(out), load_corpus(test_file, "tsv")).to_dict(
            cli.TWO_WAY_CLASSES)


class TestEvalCommand:
    def test_metrics_json(self, capsys, corpus_files):
        ckpt, _ = train_checkpoint(capsys, corpus_files, "gcn")
        code, stdout, _ = run_cli(capsys, ["eval", "--ckpt", ckpt,
                                           "--data", corpus_files["dev"]])
        assert code == 0
        metrics = json.loads(stdout)
        assert metrics["documents"] == 8
        assert set(metrics["per_class"]) == {"satire", "trusted"}
        assert 0.0 <= metrics["macro"]["f1"] <= 1.0

    def test_empty_data_file(self, capsys, corpus_files, tmp_path):
        ckpt, _ = train_checkpoint(capsys, corpus_files, "gcn")
        empty = tmp_path / "empty.tsv"
        empty.write_text("", encoding="utf-8")
        code, _, err = run_cli(capsys, ["eval", "--ckpt", ckpt, "--data", str(empty)])
        assert code == 1
        assert "no documents" in err

    def test_class_set_mismatch(self, capsys, corpus_files, tmp_path):
        ckpt, _ = train_checkpoint(capsys, corpus_files, "gcn")
        four = planted_corpus(seed=2, n_docs=8,
                              class_names=("hoax", "propaganda", "satire", "trusted"))
        data = write_tsv(tmp_path / "four.tsv", four)
        code, _, err = run_cli(capsys, ["eval", "--ckpt", ckpt, "--data", data])
        assert code == 1
        assert "hoax" in err

    def test_unlabelled_document_is_an_error(self, capsys, corpus_files, tmp_path):
        ckpt, _ = train_checkpoint(capsys, corpus_files, "gcn", epochs="1")
        data = write_jsonl(tmp_path / "dev.jsonl",
                           without_labels(corpus_files["dev_docs"], {"doc-1"}))
        code, stdout, err = run_cli(capsys, ["eval", "--ckpt", ckpt, "--data", data])
        assert code == 1 and stdout == ""
        assert err == "error: document 'doc-1' has no label\n"


class TestPredictCommand:
    def test_one_line_per_document_probabilities_sum_to_one(self, capsys, corpus_files):
        ckpt, _ = train_checkpoint(capsys, corpus_files, "gcn")
        code, stdout, _ = run_cli(capsys, ["predict", "--ckpt", ckpt,
                                           "--data", corpus_files["dev_jsonl"]])
        assert code == 0
        lines = [json.loads(line) for line in stdout.strip().splitlines()]
        assert len(lines) == len(corpus_files["dev_docs"])
        assert [l["id"] for l in lines] == [d.id for d in corpus_files["dev_docs"]]
        for line in lines:
            total = sum(line["probabilities"].values())
            assert total == pytest.approx(1.0, abs=1e-9)
            assert line["predicted"] in ("satire", "trusted")

    def test_probabilities_match_library_forward(self, capsys, corpus_files):
        ckpt_path, _ = train_checkpoint(capsys, corpus_files, "gcn")
        code, stdout, _ = run_cli(capsys, ["predict", "--ckpt", ckpt_path,
                                           "--data", corpus_files["dev_jsonl"]])
        assert code == 0
        lines = [json.loads(line) for line in stdout.strip().splitlines()]
        ckpt = training.load_checkpoint(ckpt_path)
        params = ckpt.to_params()
        for raw, line in zip(corpus_files["dev_docs"], lines):
            doc = encode_document(raw, ckpt.vocab, ckpt.config.class_set,
                                  ckpt.config.max_sentences, ckpt.config.max_tokens)
            expected = evaluation.predict_probabilities(doc, params, ckpt.config)
            got = [line["probabilities"][name] for name in ckpt.config.class_names]
            assert np.allclose(got, expected, atol=1e-12)


    def test_labels_are_not_read(self, capsys, corpus_files, tmp_path):
        ckpt, _ = train_checkpoint(capsys, corpus_files, "gcn", epochs="1")
        docs = corpus_files["dev_docs"]
        docs = without_labels([dataclasses.replace(docs[0], label="zzz"), *docs[1:]],
                              {"doc-1"})
        data = write_jsonl(tmp_path / "unlabelled.jsonl", docs)
        code, stdout, _ = run_cli(capsys, ["predict", "--ckpt", ckpt, "--data", data])
        assert code == 0
        _, labelled, _ = run_cli(capsys, ["predict", "--ckpt", ckpt,
                                          "--data", corpus_files["dev_jsonl"]])
        assert stdout == labelled

    def test_bad_document_leaves_no_partial_output(self, capsys, ss_checkpoint, tmp_path):
        # the second document has no edge weights, which only scoring finds
        _, ckpt = ss_checkpoint
        data, weights = tmp_path / "data.jsonl", tmp_path / "weights.jsonl"
        data.write_bytes(SS_DATA)
        weights.write_bytes(SS_WEIGHTS.splitlines(keepends=True)[0])
        code, stdout, err = run_cli(capsys, ["predict", "--ckpt", ckpt, "--data", str(data),
                                             "--edge-weights", str(weights)])
        assert code == 1
        assert stdout == ""
        assert "doc-1" in err


class TestExportAttentionCommand:
    def test_svg_values_match_forward_pass(self, capsys, corpus_files):
        ckpt_path, _ = train_checkpoint(capsys, corpus_files, "gat2")
        doc_id = corpus_files["dev_docs"][0].id
        out = str(corpus_files["tmp"] / "attention.svg")
        code, stdout, _ = run_cli(capsys, [
            "export-attention", "--ckpt", ckpt_path,
            "--data", corpus_files["dev_jsonl"], "--doc-id", doc_id, "--out", out,
        ])
        assert code == 0
        info = json.loads(stdout)
        assert info["heads"] == 2

        ckpt = training.load_checkpoint(ckpt_path)
        raw = corpus_files["dev_docs"][0]
        doc = encode_document(raw, ckpt.vocab, ckpt.config.class_set,
                              ckpt.config.max_sentences, ckpt.config.max_tokens)
        _, attentions = model.forward(doc, ckpt.to_params(), ckpt.config)
        root = ET.parse(out).getroot()
        for rect in root.iter(f"{SVG_NS}rect"):
            head = int(rect.get("data-head"))
            i, j = int(rect.get("data-row")), int(rect.get("data-col"))
            value = float(rect.get("data-value"))
            assert abs(value - attentions[head].values[i, j]) < 1e-9

    def test_two_sentence_document_attention_is_forced(self, capsys, corpus_files,
                                                       tmp_path):
        # with exactly one neighbor each, attention is [[0,1],[1,0]] for any
        # features, so the grid has white diagonal and full-hue off-diagonal
        ckpt_path, _ = train_checkpoint(capsys, corpus_files, "gat")
        data = tmp_path / "pair.jsonl"
        data.write_text(json.dumps({
            "id": "pair", "label": "satire",
            "text": "First sentence here. Second sentence follows.",
        }) + "\n", encoding="utf-8")
        out = str(tmp_path / "pair.svg")
        code, _, _ = run_cli(capsys, [
            "export-attention", "--ckpt", ckpt_path, "--data", str(data),
            "--doc-id", "pair", "--out", out,
        ])
        assert code == 0
        root = ET.parse(out).getroot()
        cells = {(int(r.get("data-row")), int(r.get("data-col"))):
                 (float(r.get("data-value")), r.get("fill"))
                 for r in root.iter(f"{SVG_NS}rect")}
        assert cells[(0, 0)][0] == 0.0 and cells[(1, 1)][0] == 0.0
        assert cells[(0, 1)][0] == 1.0 and cells[(1, 0)][0] == 1.0
        assert cells[(0, 0)][1] == "rgb(255,255,255)"
        assert cells[(0, 1)][1] == cells[(1, 0)][1] != "rgb(255,255,255)"

    def test_labels_are_not_read(self, capsys, corpus_files):
        ckpt, _ = train_checkpoint(capsys, corpus_files, "gat", epochs="1")
        tmp = corpus_files["tmp"]
        data = write_jsonl(tmp / "unlabelled.jsonl",
                           without_labels(corpus_files["dev_docs"], {"doc-0"}))
        svgs = []
        for name, source in (("unlabelled", data), ("labelled", corpus_files["dev_jsonl"])):
            out = tmp / f"{name}.svg"
            code, _, _ = run_cli(capsys, ["export-attention", "--ckpt", ckpt, "--data", source,
                                          "--doc-id", "doc-0", "--out", str(out)])
            assert code == 0
            svgs.append(out.read_bytes())
        assert svgs[0] == svgs[1]

    def test_variant_without_attention(self, capsys, corpus_files):
        ckpt, _ = train_checkpoint(capsys, corpus_files, "gcn")
        code, _, err = run_cli(capsys, [
            "export-attention", "--ckpt", ckpt,
            "--data", corpus_files["dev_jsonl"], "--doc-id", "doc-0",
            "--out", str(corpus_files["tmp"] / "x.svg"),
        ])
        assert code == 1
        assert "gcn" in err and "attention" in err

    def test_unknown_doc_id(self, capsys, corpus_files):
        ckpt, _ = train_checkpoint(capsys, corpus_files, "gat2")
        code, _, err = run_cli(capsys, [
            "export-attention", "--ckpt", ckpt,
            "--data", corpus_files["dev_jsonl"], "--doc-id", "nope",
            "--out", str(corpus_files["tmp"] / "x.svg"),
        ])
        assert code == 1
        assert "nope" in err


    def test_unwritable_output_is_an_error(self, capsys, corpus_files):
        ckpt, _ = train_checkpoint(capsys, corpus_files, "gat", epochs="1")
        code, stdout, err = run_cli(capsys, [
            "export-attention", "--ckpt", ckpt,
            "--data", corpus_files["dev_jsonl"], "--doc-id", "doc-0",
            "--out", str(corpus_files["tmp"] / "missing" / "x.svg"),
        ])
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: ")

    def test_failed_svg_write_leaves_no_file(self, capsys, corpus_files, monkeypatch):
        ckpt, _ = train_checkpoint(capsys, corpus_files, "gat", epochs="1")
        out = corpus_files["tmp"] / "attention.svg"

        def failing_open(path, mode):
            f = open(path, mode)
            return HalfWriter(f) if "w" in mode else f

        monkeypatch.setattr(training, "open", failing_open, raising=False)
        code, stdout, err = run_cli(capsys, [
            "export-attention", "--ckpt", ckpt,
            "--data", corpus_files["dev_jsonl"], "--doc-id", "doc-0", "--out", str(out),
        ])
        assert code == 1 and stdout == "" and "disk full" in err
        assert not out.exists()
        assert not list(corpus_files["tmp"].glob(".*.tmp"))


class TestNonFiniteScores:
    @pytest.fixture
    def overflowing(self, capsys, tmp_path):
        """A trained gcn checkpoint whose graph and projection weights are
        rescaled to max |w| = 1e300: every value is finite, so it loads,
        but a forward pass overflows to non-finite logits."""
        train = write_tsv(tmp_path / "train.tsv", planted_corpus(seed=6, n_docs=12))
        dev = write_tsv(tmp_path / "dev.tsv", planted_corpus(seed=7, n_docs=6))
        out = str(tmp_path / "gcn.ckpt")
        code, _, _ = run_cli(capsys, [
            "train", "--protocol", "two_way", "--train", train, "--dev", dev,
            "--model", "gcn", "--seed", "3", "--epochs", "2", "--out", out,
        ])
        assert code == 0
        ckpt = training.load_checkpoint(out)
        ckpt.values = dict(ckpt.values)
        for name in ("gcn.0.w", "proj.w"):
            w = ckpt.values[name]
            ckpt.values[name] = w * (1e300 / np.abs(w).max())
        training.save_checkpoint(ckpt, out)
        return out, dev

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_scoring_rejects_non_finite_logits(self, overflowing, command):
        # NaN probabilities are not JSON, and eval would count them as
        # class 0; numpy's overflow warnings must not precede the error
        ckpt, data = overflowing
        src = str(Path(docgraph.__file__).parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([
            sys.executable, "-W", "error::RuntimeWarning", "-m", "docgraph.cli", command,
            "--ckpt", ckpt, "--data", data,
        ], env=env, capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["error: non-finite logits on document 'row-0'"]


# Where a checkpoint manifest holds an integer: (section, key).
MANIFEST_INTEGERS = [("config", key) for key in (
    "vocab_size", "embed_dim", "hidden_dim", "node_dim", "seed", "max_epochs",
    "max_sentences", "max_tokens")] + [("vocabulary", "min_frequency")]


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A one-epoch gcn checkpoint and a corpus it can score."""
    tmp = tmp_path_factory.mktemp("tiny")
    train = write_tsv(tmp / "train.tsv", planted_corpus(seed=0, n_docs=8))
    dev = write_tsv(tmp / "dev.tsv", planted_corpus(seed=1, n_docs=4))
    out = tmp / "gcn.ckpt"
    assert cli.main(["train", "--protocol", "two_way", "--train", train, "--dev", dev,
                     "--model", "gcn", "--epochs", "1", "--out", str(out)]) == 0
    return out, dev


class TestMutatedManifest:
    @settings(max_examples=100, deadline=None)
    @given(where=st.sampled_from(MANIFEST_INTEGERS),
           value=st.sampled_from([-1, 0, 2.5, True, "3", sys.maxsize + 1, 10**30]))
    def test_is_rejected_on_load_or_scores_without_raising(self, tiny_checkpoint, where,
                                                           value):
        ckpt, data = tiny_checkpoint
        head, rest = ckpt.read_bytes().split(b"\n", 1)
        manifest = json.loads(head)
        section, key = where
        manifest[section][key] = value
        mutant = ckpt.with_name("mutant.ckpt")
        mutant.write_bytes(json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
                           + b"\n" + rest)
        try:
            training.load_checkpoint(mutant)
        except CheckpointError:
            return
        assert cli.main(["predict", "--ckpt", str(mutant), "--data", data]) in (0, 1)


def _ss_records():
    """A 4-document JSONL corpus and its edge weights: 3 sentences each."""
    docs = planted_corpus(seed=1, n_docs=4)
    data = "".join(json.dumps({"id": d.id, "label": d.label, "source": d.source,
                               "text": d.text}) + "\n" for d in docs)
    weights = "".join(json.dumps({"id": d.id, "n": 3, "weights": [[0, 0.5, 0.25], [0.5, 0, 1],
                                                                  [0.25, 1, 0]]}) + "\n"
                      for d in docs)
    return data.encode(), weights.encode()


SS_DATA, SS_WEIGHTS = _ss_records()
# fragments that reach the loaders' rules: escapes, JSON literals, brackets,
# line breaks, bytes that are not UTF-8, numbers past float range
FRAGMENTS = [b"\\ud800", b"\\udfff", b"\\ud83d\\ude00", b"\\u00e9", b"true", b"null", b'"0.5"',
             b"[", b"]", b"{", b"}", b'"', b",", b":", b"\\", b"\n", b"\xff", b"\xe2\x80\xa8",
             b"\x85", b"1e400", b"-1", b"NaN", b"9" * 400, b"7" * 5000]
EDITS = st.lists(st.tuples(st.integers(0, len(SS_DATA)), st.integers(0, 3),
                           st.sampled_from(FRAGMENTS) | st.binary(max_size=3)),
                 min_size=1, max_size=3)


def mutate(raw: bytes, edits) -> bytes:
    """Replace ``cut`` bytes at each position (wrapped to the data) by ``insert``."""
    for pos, cut, insert in edits:
        pos %= len(raw) + 1
        raw = raw[:pos] + insert + raw[pos + cut:]
    return raw


def untrained_checkpoint(path, variant):
    """An untrained checkpoint of ``variant`` of tiny dimensions over the
    SS_DATA documents' vocabulary, written to ``path``."""
    vocab = build_vocab(planted_corpus(seed=1, n_docs=4), min_frequency=1)
    config = model.ModelConfig(variant=variant, vocab_size=len(vocab),
                               class_names=("satire", "trusted"), embed_dim=3, hidden_dim=3,
                               node_dim=2)
    values = {name: t.values for name, t in model.init_params(config).tensors.items()}
    training.save_checkpoint(training.Checkpoint(config, vocab, values, metadata={}), path)
    return str(path)


@pytest.fixture(scope="module")
def ss_checkpoint(tmp_path_factory):
    """A tiny gcn_attn_ss checkpoint and a directory for mutated inputs."""
    tmp = tmp_path_factory.mktemp("ss")
    return tmp, untrained_checkpoint(tmp / "ss.ckpt", "gcn_attn_ss")


@pytest.mark.parametrize("reads_weights", [False, True], ids=["refused", "required"])
@pytest.mark.parametrize("command", ["train", "eval", "predict", "export-attention"])
def test_edge_weights_are_given_exactly_to_the_variants_that_read_them(
        capsys, tmp_path, monkeypatch, command, reads_weights):
    monkeypatch.setattr(training, "train", lambda *args: pytest.fail("training ran"))
    variant = "gcn_attn_ss" if reads_weights else "gcn_attn"
    data, weights, out = tmp_path / "data.jsonl", tmp_path / "weights.jsonl", tmp_path / "out"
    data.write_bytes(SS_DATA)
    # one matrix, for a document in no corpus
    weights.write_text(json.dumps({"id": "elsewhere", "n": 2, "weights": [[0, 1], [1, 0]]}))
    if command == "train":
        argv = ["train", "--protocol", "two_way", "--train", str(data), "--dev", str(data),
                "--model", variant, "--out", str(out)]
    else:
        argv = [command, "--ckpt", untrained_checkpoint(tmp_path / "x.ckpt", variant),
                "--data", str(data)]
    if command == "export-attention":
        argv += ["--doc-id", "doc-0", "--out", str(out)]
    before = sorted(tmp_path.iterdir())
    code, stdout, err = run_cli(capsys, argv if reads_weights else
                                [*argv, "--edge-weights", str(weights)])
    assert code == 1 and stdout == ""
    assert err == (f"error: model '{variant}' requires --edge-weights (precomputed "
                   f"sentence-similarity scores)\n" if reads_weights else
                   f"error: model '{variant}' reads no edge weights; do not pass "
                   f"--edge-weights\n")
    assert sorted(tmp_path.iterdir()) == before


class TestMutatedInputFiles:
    # a lone surrogate escape is valid JSON that no UTF-8 output can hold, and
    # a true among the weights is a JSON bool, not a number
    @example(command="export-attention", target="data",
             edits=[(SS_DATA.index(b'"text": "') + 9, 0, b"\\ud800")])
    @example(command="eval", target="weights", edits=[(SS_WEIGHTS.index(b"0.5"), 3, b"true")])
    @settings(max_examples=300, deadline=None)
    @given(command=st.sampled_from(["predict", "eval", "export-attention", "stats"]),
           target=st.sampled_from(["data", "weights"]), edits=EDITS)
    def test_every_command_exits_0_or_1_and_leaves_no_partial_output(self, ss_checkpoint,
                                                                       command, target, edits):
        tmp, ckpt = ss_checkpoint
        data, weights, svg = tmp / "data.jsonl", tmp / "weights.jsonl", tmp / "a.svg"
        data.write_bytes(mutate(SS_DATA, edits) if target == "data" else SS_DATA)
        weights.write_bytes(mutate(SS_WEIGHTS, edits) if target == "weights" else SS_WEIGHTS)
        svg.unlink(missing_ok=True)
        inputs = ["--ckpt", ckpt, "--data", str(data), "--edge-weights", str(weights)]
        argv = {"stats": [command, "--data", str(data)],
                "export-attention": [command, *inputs, "--doc-id", "doc-0", "--out", str(svg)],
                }.get(command, [command, *inputs])
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        assert code in (0, 1)
        if command == "export-attention" and code == 0:
            assert ET.parse(svg).getroot().tag == f"{SVG_NS}svg"
        else:
            assert not svg.exists()
        assert not list(tmp.glob(".*.tmp"))


class TestGradcheckCommand:
    def test_fresh_build_passes_and_lists_every_op_once(self, capsys):
        code, stdout, err = run_cli(capsys, ["gradcheck"])
        assert code == 0
        report = json.loads(stdout)
        names = [entry["name"] for entry in report["ops"]]
        assert names == sorted(ad.OP_NAMES)
        assert len(names) == len(set(names))
        assert [e["name"] for e in report["variants"]] == [
            f"variant:{v}" for v in model.VARIANTS]
        assert report["passed"] is True
        assert err.count("PASS") == len(names) + len(model.VARIANTS)

    def test_corrupted_backward_rule_is_caught_and_named(self, capsys, monkeypatch):
        def wrong_tanh_rule(entry):
            return (entry.output.grad * 0.5,)

        monkeypatch.setitem(ad.BACKWARD_RULES, "tanh", wrong_tanh_rule)
        code, stdout, err = run_cli(capsys, ["gradcheck"])
        assert code == 1
        report = json.loads(stdout)
        failed = [e["name"] for e in report["ops"] + report["variants"]
                  if not e["passed"]]
        assert "tanh" in failed
        assert "FAIL tanh" in err


class TestStatsCommand:
    def test_hand_counted_fixture(self, capsys, tmp_path):
        rows = [
            ("satire", "One two three. Four five!"),
            ("satire", "Single sentence here."),
            ("trusted", "Alpha beta. Gamma delta. Epsilon zeta."),
            ("trusted", "Short one."),
            ("hoax", "A b. C d."),
            ("hoax", "Longer piece follows. It has two."),
        ]
        path = tmp_path / "six.tsv"
        path.write_text("".join(f"{l}\t{t}\n" for l, t in rows), encoding="utf-8")
        code, stdout, _ = run_cli(capsys, ["stats", "--data", str(path)])
        assert code == 0
        stats = json.loads(stdout)
        assert stats["documents"] == 6
        assert stats["by_class"] == {"hoax": 2, "satire": 2, "trusted": 2}
        # sentence counts: 2,1,3,1,2,2 -> {1: 2, 2: 3, 3: 1}
        assert stats["sentences_per_document"] == [[1, 2], [2, 3], [3, 1]]

    def test_unlabelled_documents_are_counted_apart(self, capsys, tmp_path):
        docs = without_labels(planted_corpus(seed=0, n_docs=4), {"doc-1", "doc-2"})
        data = write_jsonl(tmp_path / "c.jsonl", docs)
        code, stdout, _ = run_cli(capsys, ["stats", "--data", data])
        assert code == 0
        stats = json.loads(stdout)
        assert stats["by_class"] == {"satire": 1, "trusted": 1}
        assert stats["unlabelled"] == 2 and stats["documents"] == 4

    def test_empty_file_reports_zeros_with_warning(self, capsys, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        code, stdout, err = run_cli(capsys, ["stats", "--data", str(path)])
        assert code == 0
        stats = json.loads(stdout)
        assert stats["documents"] == 0
        assert "warning" in err
