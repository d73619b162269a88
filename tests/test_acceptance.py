"""Acceptance suite: one test per release criterion, with a printed verdict line.

Criterion 9 is data-dependent and runs only when the environment points
at externally supplied 4-class corpus files (DOCGRAPH_LUN_TRAIN and
DOCGRAPH_LUN_TEST); everything else is self-contained and fast.
"""

import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from docgraph import autodiff as ad
from docgraph import cli, evaluation, gradcheck, model, training
from docgraph.autodiff import AdamState, Tape
from docgraph.corpus import (
    ClassSet,
    Document,
    build_vocab,
    encode_corpus,
    load_corpus,
    split_train_dev,
)
from docgraph.graph import EdgeWeightSet
from docgraph.layers import gat_layer, gcn_layer

from conftest import encode_planted, planted_corpus
from test_layers import gat_brute_force, gat_head, gcn_brute_force

GRAPH_VARIANTS = ("gcn", "gcn_ss", "gcn_attn", "gcn_attn_ss", "gat", "gat2")


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL {description}")
        raise
    print(f"[criterion {number}] PASS {description}")


def small_config(variant, vocab_size=30, classes=("satire", "trusted"), **overrides):
    defaults = dict(variant=variant, vocab_size=vocab_size, class_names=classes,
                    embed_dim=8, hidden_dim=8, node_dim=4, seed=17)
    defaults.update(overrides)
    return model.ModelConfig(**defaults)


def random_document(rng, n_sentences, vocab=30, doc_id="d"):
    return Document(
        doc_id, 0,
        tuple(tuple(int(t) for t in rng.integers(2, vocab, size=rng.integers(2, 7)))
              for _ in range(n_sentences)),
    )


def symmetric_matrix(rng, n):
    m = rng.uniform(0.05, 1.0, size=(n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    return m


def test_criterion_1_gradient_suite():
    with criterion(1, "finite-difference gradients: ops < 1e-6, variants < 1e-4, "
                      "variants at full size < 1e-6, under 2 minutes"):
        start = time.time()
        ops = gradcheck.check_ops()
        variants = gradcheck.check_variants()
        full_size = [gradcheck.check_variant_full(v) for v in model.VARIANTS]
        elapsed = time.time() - start
        assert [r.name for r in ops] == sorted(ad.OP_NAMES)
        for result in ops:
            assert result.max_rel_err < 1e-6, f"{result.name}: {result.max_rel_err}"
        assert [r.name for r in variants] == [f"variant:{v}" for v in model.VARIANTS]
        for result in variants:
            assert result.max_rel_err < 1e-4, f"{result.name}: {result.max_rel_err}"
        for result in full_size:
            assert result.max_rel_err < 1e-6, f"{result.name}: {result.max_rel_err}"
        assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_2_layer_brute_force_oracle():
    with criterion(2, "graph layers match brute-force loops to 1e-12 and the "
                      "convolution is linear in the adjacency"):
        rng = np.random.default_rng(100)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            d_in, d_out = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            e = symmetric_matrix(rng, n)
            z = rng.normal(size=(n, d_in))
            w = rng.normal(size=(d_in, d_out))
            out = gcn_layer(ad.Tensor(e), ad.Tensor(z), ad.Tensor(w), 0.2)
            assert np.max(np.abs(out.values - gcn_brute_force(e, z, w, 0.2))) < 1e-12

        for _ in range(20):
            n = int(rng.integers(2, 6))
            d_in, d_out = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            e = np.ones((n, n)) - np.eye(n)
            h = rng.normal(size=(n, d_in))
            weight, attn = gat_head(rng, d_in, d_out)
            out, attention = gat_layer(ad.Tensor(e), ad.Tensor(h), weight, attn, 0.2)
            expected_out, expected_alpha = gat_brute_force(
                e, h, weight.values, attn.values, 0.2)
            assert np.max(np.abs(out.values - expected_out)) < 1e-12
            assert np.max(np.abs(attention.values - expected_alpha)) < 1e-12

        # slope 1 removes the activation, exposing the unnormalized E Z W form
        e = symmetric_matrix(rng, 5)
        z = rng.normal(size=(5, 3))
        w = ad.Tensor(rng.normal(size=(3, 4)))
        once = gcn_layer(ad.Tensor(e), ad.Tensor(z), w, 1.0).values
        twice = gcn_layer(ad.Tensor(2.0 * e), ad.Tensor(z), w, 1.0).values
        assert np.max(np.abs(twice - 2.0 * once)) < 1e-12


def test_criterion_3_permutation_invariance():
    with criterion(3, "sentence shuffles move graph-variant logits < 1e-9 and "
                      "change baseline logits for a witness"):
        rng = np.random.default_rng(200)
        docs = [random_document(rng, int(rng.integers(3, 21)), doc_id=f"d{k}")
                for k in range(100)]
        perms = [rng.permutation(d.n_sentences) for d in docs]
        matrices = {d.id: symmetric_matrix(rng, d.n_sentences) for d in docs}

        params_by_variant = {
            variant: model.init_params(small_config(variant))
            for variant in GRAPH_VARIANTS + ("cnn", "lstm")
        }
        for variant in GRAPH_VARIANTS:
            config = small_config(variant)
            params = params_by_variant[variant]
            for doc, perm in zip(docs, perms):
                p = np.eye(doc.n_sentences)[perm]
                weights = EdgeWeightSet({doc.id: matrices[doc.id]})
                shuffled_weights = EdgeWeightSet(
                    {doc.id: p @ matrices[doc.id] @ p.T})
                shuffled_doc = Document(
                    doc.id, doc.label, tuple(doc.sentences[i] for i in perm))
                base, _ = model.forward(doc, params, config, weights)
                moved, _ = model.forward(shuffled_doc, params, config,
                                         shuffled_weights)
                diff = np.max(np.abs(base.values - moved.values))
                assert diff < 1e-9, f"{variant} drifted {diff:.2e} on {doc.id}"

        for variant in ("cnn", "lstm"):
            config = small_config(variant)
            params = params_by_variant[variant]
            witnessed = False
            for doc, perm in zip(docs, perms):
                shuffled_doc = Document(
                    doc.id, doc.label, tuple(doc.sentences[i] for i in perm))
                base, _ = model.forward(doc, params, config)
                moved, _ = model.forward(shuffled_doc, params, config)
                if np.max(np.abs(base.values - moved.values)) > 1e-9:
                    witnessed = True
                    break
            assert witnessed, f"{variant} never changed under sentence shuffles"


def test_criterion_4_attention_stochasticity():
    with criterion(4, "attention rows sum to 1 within 1e-12; graph-attention "
                      "diagonals are zero"):
        rng = np.random.default_rng(300)
        for variant in ("gat", "gat2", "gcn_attn", "gcn_attn_ss"):
            config = small_config(variant)
            params = model.init_params(config)
            for k in range(40):
                doc = random_document(rng, int(rng.integers(2, 11)), doc_id=f"a{k}")
                weights = EdgeWeightSet(
                    {doc.id: symmetric_matrix(rng, doc.n_sentences)})
                _, attentions = model.forward(doc, params, config, weights)
                assert attentions
                for attention in attentions:
                    rows = attention.values.sum(axis=1)
                    assert np.max(np.abs(rows - 1.0)) < 1e-12
                    if variant.startswith("gat"):
                        assert np.all(np.diagonal(attention.values) == 0.0)


def test_criterion_5_overfit_sanity():
    with criterion(5, "gat2 overfits the planted corpus at lr 0.01 within 500 "
                      "epochs; at lr 0.001 loss falls by epoch 10; under 1 minute"):
        start = time.time()
        raw = planted_corpus(seed=4, n_docs=16)
        vocab, class_set, docs = encode_planted(raw, ("satire", "trusted"))

        config = model.ModelConfig(variant="gat2", vocab_size=len(vocab),
                                   class_names=class_set.names, seed=11, lr=0.01)
        rng = np.random.default_rng(config.seed)
        params = model.init_params(config, rng)
        optimizer = AdamState.for_params(params.tensors, lr=config.lr)
        solved_at = None
        for epoch in range(1, 501):
            for idx in rng.permutation(len(docs)):
                doc = docs[idx]
                with Tape() as tape:
                    logits, _ = model.forward(doc, params, config)
                    step_loss = model.loss(logits, doc.label)
                ad.zero_grads(params.tensors)
                ad.backward(tape, step_loss)
                grads = {n: (t.grad if t.grad is not None else np.zeros_like(t.values))
                         for n, t in params.tensors.items()}
                ad.adam_step(params.tensors, grads, optimizer)
            correct = sum(
                int(np.argmax(model.forward(d, params, config)[0].values)) == d.label
                for d in docs)
            if correct == len(docs):
                solved_at = epoch
                break
        assert solved_at is not None, "train accuracy never reached 1.0"

        literal = model.ModelConfig(variant="gat2", vocab_size=len(vocab),
                                    class_names=class_set.names, seed=11,
                                    lr=0.001, max_epochs=10)
        run = training.train(docs, docs, literal, vocab)
        assert run.epochs[9].train_loss < run.epochs[0].train_loss
        elapsed = time.time() - start
        assert elapsed < 60.0, f"overfit check took {elapsed:.1f}s"


def test_criterion_6_determinism(tmp_path, capsys):
    with criterion(6, "identical train commands produce byte-identical "
                      "checkpoints and logs; forward is bitwise stable across "
                      "save/load"):
        raw_train = planted_corpus(seed=6, n_docs=12)
        raw_dev = planted_corpus(seed=7, n_docs=6)
        train_file = tmp_path / "train.tsv"
        dev_file = tmp_path / "dev.tsv"
        train_file.write_text(
            "".join(f"{d.label}\t{d.text}\n" for d in raw_train), encoding="utf-8")
        dev_file.write_text(
            "".join(f"{d.label}\t{d.text}\n" for d in raw_dev), encoding="utf-8")

        outputs = []
        for name in ("first", "second"):
            out = tmp_path / f"{name}.ckpt"
            code = cli.main([
                "train", "--protocol", "two_way", "--train", str(train_file),
                "--dev", str(dev_file), "--model", "gcn", "--seed", "5",
                "--epochs", "2", "--out", str(out),
            ])
            capsys.readouterr()
            assert code == 0
            outputs.append((out.read_bytes(),
                            (tmp_path / f"{name}.ckpt.runlog.json").read_bytes()))
        assert outputs[0] == outputs[1]

        ckpt = training.load_checkpoint(tmp_path / "first.ckpt")
        params = ckpt.to_params()
        reloaded = training.load_checkpoint(tmp_path / "first.ckpt").to_params()
        vocab, class_set, docs = encode_planted(raw_dev, ("satire", "trusted"))
        encoded = encode_corpus(raw_dev, ckpt.vocab, ckpt.config.class_set)
        for doc in encoded:
            a, _ = model.forward(doc, params, ckpt.config)
            b, _ = model.forward(doc, reloaded, ckpt.config)
            assert np.array_equal(a.values, b.values)


def test_criterion_7_metrics_oracle():
    with criterion(7, "macro metrics reproduce hand-computed confusion fixtures "
                      "exactly"):
        # class 0: P = 1/(1+0), R = 1/(1+1); class 1: P = 2/(2+1), R = 2/(2+0)
        m = evaluation.compute_metrics(np.array([[1, 1], [0, 2]]))
        assert m.precision == (1.0, 2.0 / 3.0)
        assert m.recall == (1.0 / 2.0, 1.0)
        assert m.macro_precision == (1.0 + 2.0 / 3.0) / 2.0
        assert m.macro_recall == (1.0 / 2.0 + 1.0) / 2.0
        assert m.macro_f1 == (2.0 / 3.0 + 4.0 / 5.0) / 2.0
        # the same values as plain fractions, to within float rounding
        assert m.macro_precision == pytest.approx(5.0 / 6.0, abs=1e-15)
        assert m.macro_recall == pytest.approx(3.0 / 4.0, abs=1e-15)
        m2 = evaluation.compute_metrics(np.array([[3, 2], [1, 4]]))
        assert m2.macro_f1 == pytest.approx(23.0 / 33.0, abs=1e-15)
        perfect = evaluation.compute_metrics(np.diag([7, 9]))
        assert perfect.macro_f1 == perfect.accuracy == 1.0


def test_criterion_8_protocol_wiring(tmp_path, capsys):
    with criterion(8, "the four-way preset yields an exact stratified 80:20 "
                      "split and best-dev epoch selection"):
        classes = ("hoax", "propaganda", "satire", "trusted")
        docs = planted_corpus(seed=8, n_docs=1000, class_names=classes,
                              sentences_per_doc=2)
        corpus_file = tmp_path / "four.tsv"
        corpus_file.write_text(
            "".join(f"{d.label}\t{d.text}\n" for d in docs), encoding="utf-8")

        seed = 9
        loaded = load_corpus(corpus_file, "tsv")
        train_raw, dev_raw = split_train_dev(loaded, seed)
        assert len(train_raw) == 800 and len(dev_raw) == 200
        for label in classes:
            n_train = sum(d.label == label for d in train_raw)
            n_dev = sum(d.label == label for d in dev_raw)
            assert abs(n_train - 200) <= 1 and abs(n_dev - 50) <= 1
            assert n_train + n_dev == 250

        out = tmp_path / "four.ckpt"
        code = cli.main([
            "train", "--protocol", "four_way", "--train", str(corpus_file),
            "--model", "gcn", "--seed", str(seed), "--epochs", "2",
            "--out", str(out),
        ])
        capsys.readouterr()
        assert code == 0
        log = json.loads((tmp_path / "four.ckpt.runlog.json").read_text())
        scores = [e["dev_macro_f1"] for e in log["epochs"]]
        assert len(scores) <= 2
        assert log["best_epoch"] == scores.index(max(scores)) + 1
        assert log["best_dev_macro_f1"] == max(scores)


LUN_TRAIN = os.environ.get("DOCGRAPH_LUN_TRAIN")
LUN_TEST = os.environ.get("DOCGRAPH_LUN_TEST")


@pytest.mark.skipif(
    not (LUN_TRAIN and LUN_TEST),
    reason="optional dataset smoke: set DOCGRAPH_LUN_TRAIN and DOCGRAPH_LUN_TEST",
)
def test_criterion_9_dataset_smoke():
    with criterion(9, "4-way subsample training reaches dev macro-F1 >= 0.80"):
        classes = ("hoax", "propaganda", "satire", "trusted")
        class_set = ClassSet(classes)
        raw = load_corpus(LUN_TRAIN, None or "tsv")
        rng = np.random.default_rng(0)
        subsample = []
        for label in classes:
            members = [d for d in raw if d.label == label]
            take = min(2000, len(members))
            subsample.extend(members[i] for i in rng.permutation(len(members))[:take])
        train_raw, dev_raw = split_train_dev(subsample, seed=0)
        vocab = build_vocab(train_raw)
        config = model.ModelConfig(
            variant="gcn", vocab_size=len(vocab), class_names=classes,
            seed=0, max_epochs=2, max_sentences=32, max_tokens=32)
        train_docs = encode_corpus(train_raw, vocab, class_set,
                                   config.max_sentences, config.max_tokens)
        dev_docs = encode_corpus(dev_raw, vocab, class_set,
                                 config.max_sentences, config.max_tokens)
        run = training.train(train_docs, dev_docs, config, vocab)
        assert run.best_dev_macro_f1 >= 0.80
