"""End-to-end command-line tests, run in-process (the BLAS thread count is
fixed when numpy loads, so comparing thread counts takes a subprocess each)."""

import argparse
import json
import os
import subprocess
import sys
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import docgraph
from docgraph import autodiff as ad
from docgraph import cli, evaluation, model, training
from docgraph.corpus import encode_document

from conftest import HalfWriter, planted_corpus

SVG_NS = "{http://www.w3.org/2000/svg}"


def write_tsv(path, docs):
    path.write_text("".join(f"{d.label}\t{d.text}\n" for d in docs), encoding="utf-8")
    return str(path)


def write_jsonl(path, docs):
    lines = [json.dumps({"id": d.id, "label": d.label, "source": d.source,
                         "text": d.text}) for d in docs]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_missing_output_directory_fails_before_training(self, capsys, corpus_files,
                                                            monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("training ran")

        monkeypatch.setattr(training, "train", never)
        code, stdout, err = run_cli(capsys, [
            "train", "--protocol", "two_way",
            "--train", corpus_files["train"], "--dev", corpus_files["dev"],
            "--model", "cnn", "--out", str(corpus_files["tmp"] / "missing" / "x.ckpt"),
        ])
        assert code == 1
        assert stdout == ""
        assert "missing" in err and "does not exist" in err

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
            assert refs and all(r() is None for r in refs)
            return train(*args)

        monkeypatch.setattr(cli, "load_corpus", tracked_load)
        monkeypatch.setattr(training, "train", checked_train)
        train_checkpoint(capsys, corpus_files, "gcn", epochs="1")

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 12: backward products whose "
                       "inner dimension exceeds 100 change bytes with the BLAS thread count")
    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity")
                        else (os.cpu_count() or 1) < 2,
                        reason="OpenBLAS runs at most one thread per available CPU")
    def test_checkpoint_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # criterion 6's command, in a fresh process per thread count
        train = write_tsv(tmp_path / "train.tsv", planted_corpus(seed=6, n_docs=12))
        dev = write_tsv(tmp_path / "dev.tsv", planted_corpus(seed=7, n_docs=6))
        src = str(Path(docgraph.__file__).parents[1])
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.ckpt"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([
                sys.executable, "-m", "docgraph.cli", "train", "--protocol", "two_way",
                "--train", train, "--dev", dev, "--model", "gcn", "--seed", "5",
                "--epochs", "2", "--out", str(out),
            ], env=env, check=True, capture_output=True)
            outputs.append((out.read_bytes(),
                            (tmp_path / f"threads{threads}.ckpt.runlog.json").read_bytes()))
        assert outputs[0] == outputs[1]

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


    def test_bad_document_leaves_no_partial_output(self, capsys, corpus_files, tmp_path):
        ckpt, _ = train_checkpoint(capsys, corpus_files, "gcn", epochs="1")
        first, second = corpus_files["dev_docs"][:2]
        data = tmp_path / "mixed.jsonl"
        data.write_text(
            json.dumps({"id": first.id, "label": first.label, "text": first.text}) + "\n"
            + json.dumps({"id": second.id, "label": "hoax", "text": second.text}) + "\n",
            encoding="utf-8")
        code, stdout, err = run_cli(capsys, ["predict", "--ckpt", ckpt, "--data", str(data)])
        assert code == 1
        assert stdout == ""
        assert "hoax" in err


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

    def test_empty_file_reports_zeros_with_warning(self, capsys, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        code, stdout, err = run_cli(capsys, ["stats", "--data", str(path)])
        assert code == 0
        stats = json.loads(stdout)
        assert stats["documents"] == 0
        assert "warning" in err
