"""Training-loop and checkpoint tests."""

import dataclasses
import itertools
import json
import math
import os
import re
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docgraph import autodiff as ad
from docgraph import model, training
from docgraph.corpus import Document, Vocabulary
from docgraph.errors import CheckpointError, CorpusError, NumericError, TrainingError
from docgraph.graph import EdgeWeightSet

from conftest import HalfWriter, encode_planted, planted_corpus


def setup_corpus(seed=0, n_docs=16):
    raw = planted_corpus(seed=seed, n_docs=n_docs)
    return encode_planted(raw, ("satire", "trusted"))


def tiny_config(variant, vocab, class_set, **overrides):
    defaults = dict(variant=variant, vocab_size=len(vocab),
                    class_names=class_set.names, embed_dim=6, hidden_dim=6,
                    node_dim=4, seed=13, lr=0.01, max_epochs=2)
    defaults.update(overrides)
    return model.ModelConfig(**defaults)


def checkpoint_bytes(ckpt):
    """The bytes ``save_checkpoint`` writes for ``ckpt``."""
    return b"".join(training.checkpoint_buffers(ckpt))


def edge_weights_for(docs, seed=0):
    rng = np.random.default_rng(seed)
    out = {}
    for d in docs:
        n = d.n_sentences
        m = rng.uniform(0.1, 1.0, size=(n, n))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0.0)
        out[d.id] = m
    return EdgeWeightSet(out)


class TestTrainValidation:
    def test_zero_epochs_rejected(self):
        vocab, class_set, docs = setup_corpus()
        config = tiny_config("gcn", vocab, class_set, max_epochs=0)
        with pytest.raises(TrainingError, match="epoch"):
            training.train(docs, docs, config, vocab)

    def test_empty_sets_rejected(self):
        vocab, class_set, docs = setup_corpus()
        config = tiny_config("gcn", vocab, class_set)
        with pytest.raises(TrainingError):
            training.train([], docs, config, vocab)

    def test_missing_class_rejected(self):
        vocab, class_set, docs = setup_corpus()
        config = tiny_config("gcn", vocab, class_set)
        only_first = [d for d in docs if d.label == 0]
        with pytest.raises(TrainingError, match="trusted"):
            training.train(only_first, docs, config, vocab)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_names_document(self):
        vocab, class_set, docs = setup_corpus()
        config = tiny_config("gcn", vocab, class_set, lr=1e300)
        with pytest.raises(NumericError, match="doc-"):
            training.train(docs, docs, config, vocab)


class TestDeterminism:
    def test_same_seed_identical_logs_and_checkpoints(self, tmp_path):
        vocab, class_set, docs = setup_corpus()
        config = tiny_config("gat", vocab, class_set)

        def run(path):
            result = training.train(docs, docs, config, vocab)
            training.save_checkpoint(result.checkpoint, path)
            return result.log_dict(), path.read_bytes()

        log1, bytes1 = run(tmp_path / "a.ckpt")
        log2, bytes2 = run(tmp_path / "b.ckpt")
        assert log1 == log2
        assert bytes1 == bytes2

    def test_train_runs_at_one_blas_thread_and_restores_the_count(self, monkeypatch):
        # the bytes across thread counts are criterion 6's subprocess test in test_cli
        lib = training.openblas()
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if get is None:
            pytest.skip("numpy's BLAS has no scipy-openblas thread-count functions")
        set_threads = lib.scipy_openblas_set_num_threads64_
        seen, forward = [], training.forward
        monkeypatch.setattr(training, "forward",
                            lambda *args: seen.append(get()) or forward(*args))
        vocab, class_set, docs = setup_corpus(n_docs=4)
        before = get()
        set_threads(2)
        try:
            training.train(docs, docs, tiny_config("gcn", vocab, class_set, max_epochs=1), vocab)
            assert get() == 2
        finally:
            set_threads(before)
        assert seen and set(seen) == {1}

    @pytest.mark.parametrize("maps", [
        PermissionError("/proc/self/maps"),
        "7f00-7f01 r-xp 00000000 08:01 17 /usr/lib/libm.so.6\n",
        "7f00-7f01 r-xp 00000000 08:01 17 {tmp}/libscipy_openblas64_.so\n",
    ], ids=["maps_unreadable", "no_openblas_mapped", "openblas_does_not_load"])
    def test_without_a_loadable_openblas_one_blas_thread_changes_nothing(self, monkeypatch,
                                                                        tmp_path, maps):
        lib = training.openblas()
        get = getattr(lib, "scipy_openblas_get_num_threads64_", lambda: None)
        set_threads = getattr(lib, "scipy_openblas_set_num_threads64_", lambda n: None)

        def read_text():
            if isinstance(maps, OSError):
                raise maps
            return maps.format(tmp=tmp_path)  # a path where no library is

        monkeypatch.setattr(training, "Path", lambda path: SimpleNamespace(read_text=read_text))
        before = get()
        set_threads(2)
        expected, seen = get(), []  # 2 where numpy's OpenBLAS has the functions
        training.openblas.cache_clear()
        try:
            assert training.openblas() is None
            with training.one_blas_thread():
                seen.append(get())
        finally:
            training.openblas.cache_clear()
            set_threads(before)
        assert seen == [expected]


class TestModelSelection:
    def test_tie_goes_to_earliest_epoch(self, monkeypatch):
        vocab, class_set, docs = setup_corpus()
        config = tiny_config("gcn", vocab, class_set, max_epochs=3)
        scores = iter([0.5, 0.7, 0.7])
        snapshots = []

        def scripted_evaluate(params, config, docs, weights=None):
            snapshots.append({n: t.values.copy() for n, t in params.tensors.items()})
            return SimpleNamespace(macro_f1=next(scores))

        monkeypatch.setattr(training, "evaluate_documents", scripted_evaluate)
        run = training.train(docs, docs, config, vocab)
        assert run.best_epoch == 2
        assert run.best_dev_macro_f1 == 0.7
        assert run.checkpoint.metadata["best_epoch"] == 2
        for name, values in run.checkpoint.values.items():
            assert values.tobytes() == snapshots[1][name].tobytes()
        assert any(values.tobytes() != snapshots[2][name].tobytes()
                   for name, values in run.checkpoint.values.items())

    def test_best_epoch_is_argmax_of_log(self):
        vocab, class_set, docs = setup_corpus()
        config = tiny_config("gcn", vocab, class_set, max_epochs=4)
        run = training.train(docs, docs, config, vocab)
        scores = [e.dev_macro_f1 for e in run.epochs]
        assert run.best_epoch == scores.index(max(scores)) + 1
        assert run.best_dev_macro_f1 == max(scores)
        assert run.checkpoint.metadata["best_epoch"] == run.best_epoch


class TestLearningSignal:
    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_loss_after_first_epoch_below_uniform(self, variant):
        vocab, class_set, docs = setup_corpus()
        config = tiny_config(variant, vocab, class_set, max_epochs=2)
        weights = edge_weights_for(docs) if config.spec.edge_weights else None
        run = training.train(docs, docs, config, vocab, weights)
        # mean loss over the epoch following the first round of updates
        assert run.epochs[1].train_loss < math.log(len(class_set.names))


class TestGradientAdoption:
    """``backward`` adopts the arrays rules return as ``.grad`` without
    copying, and Adam updates parameters in place: a parameter's gradient
    must share no memory with a parameter or another parameter's gradient,
    and nothing may write into a gradient."""

    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_parameter_gradients_share_no_memory(self, variant):
        vocab, class_set, docs = setup_corpus()
        config = tiny_config(variant, vocab, class_set)
        weights = edge_weights_for(docs) if config.spec.edge_weights else None
        params = model.init_params(config)
        with ad.Tape() as tape:
            logits, _ = model.forward(docs[0], params, config, weights)
            step_loss = model.loss(logits, docs[0].label)
        ad.backward(tape, step_loss)
        arrays = [t.grad.rows if isinstance(t.grad, ad.RowSparseGrad) else t.grad
                  for t in params.tensors.values() if t.grad is not None]
        arrays += [t.values for t in params.tensors.values()]
        assert len(arrays) > len(params.tensors)
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("variant", model.VARIANTS)
    def test_adam_step_leaves_every_gradient_unchanged(self, variant):
        vocab, class_set, docs = setup_corpus()
        config = tiny_config(variant, vocab, class_set)
        weights = edge_weights_for(docs) if config.spec.edge_weights else None
        params = model.init_params(config)
        with ad.Tape() as tape:
            logits, _ = model.forward(docs[0], params, config, weights)
            step_loss = model.loss(logits, docs[0].label)
        ad.backward(tape, step_loss)
        tensors = {id(t): t for e in tape.entries for t in (*e.inputs, e.output)}
        grads = [t.grad for t in tensors.values() if t.grad is not None]

        def snapshot():
            return [(g.ids.tobytes(), g.rows.tobytes()) if isinstance(g, ad.RowSparseGrad)
                    else g.tobytes() for g in grads]

        before = snapshot()
        ad.adam_step(params.tensors, {n: t.grad for n, t in params.tensors.items()},
                     ad.AdamState.for_params(params.tensors))
        assert snapshot() == before


class TestStepAllocations:
    def test_no_embedding_sized_temporaries_in_backward_or_adam(self):
        config = model.ModelConfig(variant="gcn_attn", vocab_size=20000,
                                   class_names=("a", "b", "c", "d"), seed=3)
        params = model.init_params(config)
        doc = Document("d", 1, ((5, 17, 300, 19999), (2, 3, 4), (7, 7, 19000, 11, 12)))
        state = ad.AdamState.for_params(params.tensors)
        with ad.Tape() as tape:
            logits, _ = model.forward(doc, params, config)
            step_loss = model.loss(logits, doc.label)
        tracemalloc.start()
        try:
            ad.backward(tape, step_loss)
            backward_peak = tracemalloc.get_traced_memory()[1]
            grads = {n: t.grad for n, t in params.tensors.items()}
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            ad.adam_step(params.tensors, grads, state)
            adam_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # the embedding gradient holds the touched rows only, and Adam works
        # in chunks: neither comes near the 16 MB embedding. Backward keeps
        # about 0.77 MiB, mostly the dense gradients of the fused LSTM
        # weights (E, 4H) and (H, 4H), which stay on the parameters.
        assert backward_peak < 1 * 2**20
        assert adam_peak < 4 * 2**20

    @pytest.mark.parametrize("start", ["zero", "live"])
    def test_no_embedding_sized_temporaries_in_sync(self, start):
        config = model.ModelConfig(variant="gcn_attn", vocab_size=20000,
                                   class_names=("a", "b", "c", "d"), seed=3)
        params = model.init_params(config)
        state = ad.AdamState.for_params(params.tensors)
        if start == "live":
            # nonzero moments in every embedding row: the sync replays them all
            rng = np.random.default_rng(8)
            state.m["embedding"][:] = rng.normal(size=state.m["embedding"].shape) * 1e-3
            np.multiply(state.m["embedding"], state.m["embedding"], out=state.v["embedding"])
        docs = [Document("d", 1, ((5, 17, 300, 19999), (2, 3, 4))),
                Document("e", 0, ((7, 7, 19000, 11, 12),)),
                Document("f", 2, ((5, 40, 41), (19999, 8))),
                Document("g", 3, ((900, 901, 902, 3),))]
        for doc in docs:
            with ad.Tape() as tape:
                logits, _ = model.forward(doc, params, config)
                step_loss = model.loss(logits, doc.label)
            ad.zero_grads(params.tensors)
            ad.backward(tape, step_loss)
            ad.adam_step(params.tensors, {n: t.grad for n, t in params.tensors.items()}, state)
        assert len(state.window) == len(docs)  # every step was deferred
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            ad.adam_sync(params.tensors, state)
            sync_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        # the replay copies the rows that owe a step a chunk at a time, so
        # a sync that replays every row allocates no more than one that
        # replays the touched rows only
        assert not state.window
        assert sync_peak < 4 * 2**20


class TestCheckpointPersistence:
    def trained(self, tmp_path, variant="gcn"):
        vocab, class_set, docs = setup_corpus()
        config = tiny_config(variant, vocab, class_set, max_epochs=1)
        run = training.train(docs, docs, config, vocab)
        path = tmp_path / "model.ckpt"
        training.save_checkpoint(run.checkpoint, path)
        return run, path, docs

    def test_save_load_save_is_byte_identical(self, tmp_path):
        _, path, _ = self.trained(tmp_path)
        loaded = training.load_checkpoint(path)
        second = tmp_path / "again.ckpt"
        training.save_checkpoint(loaded, second)
        assert path.read_bytes() == second.read_bytes()

    def test_forward_after_round_trip_is_bitwise_identical(self, tmp_path):
        run, path, docs = self.trained(tmp_path)
        loaded = training.load_checkpoint(path)
        params_a = run.checkpoint.to_params()
        params_b = loaded.to_params()
        for doc in docs[:4]:
            la, _ = model.forward(doc, params_a, run.config)
            lb, _ = model.forward(doc, params_b, loaded.config)
            assert np.array_equal(la.values, lb.values)

    def test_missing_path_is_a_checkpoint_error(self, tmp_path):
        path = tmp_path / "missing.ckpt"
        with pytest.raises(CheckpointError) as excinfo:
            training.load_checkpoint(path)
        assert str(excinfo.value) == (f"cannot read checkpoint {path}: [Errno 2] "
                                      f"No such file or directory: '{path}'")

    def test_truncated_file_rejected(self, tmp_path):
        _, path, _ = self.trained(tmp_path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(CheckpointError, match="truncated|trailing"):
            training.load_checkpoint(path)

    def test_version_mismatch_rejected(self, tmp_path):
        _, path, _ = self.trained(tmp_path)
        raw = path.read_bytes()
        current = f'"format_version":{training.CHECKPOINT_FORMAT_VERSION}'.encode()
        assert current in raw
        path.write_bytes(raw.replace(current, b'"format_version":99', 1))
        with pytest.raises(CheckpointError, match="version"):
            training.load_checkpoint(path)

    def test_version_1_per_gate_file_rejected_by_version(self, tmp_path):
        # format 1 stored the LSTM as 12 per-gate tensors; such a file is
        # refused for its version, before its parameter names are read
        run, _, _ = self.trained(tmp_path, variant="lstm")
        ckpt = run.checkpoint
        hidden = ckpt.config.hidden_dim
        values = {"embedding": ckpt.values["embedding"]}
        for gate in "ifgo":
            k = "ifog".index(gate) * hidden
            for name in ("w_x", "w_h", "b"):
                values[f"lstm.{gate}.{name}"] = ckpt.values[f"lstm.{name}"][..., k : k + hidden]
        values.update({n: v for n, v in ckpt.values.items() if not n.startswith("lstm.")})
        manifest = json.loads(checkpoint_bytes(ckpt).split(b"\n", 1)[0])
        manifest["format_version"] = 1
        manifest["parameters"] = [{"name": n, "shape": list(v.shape)} for n, v in values.items()]
        header = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
        path = tmp_path / "v1.ckpt"
        path.write_bytes(header + b"\n" + b"".join(v.astype("<f8").tobytes()
                                                   for v in values.values()))
        with pytest.raises(CheckpointError) as err:
            training.load_checkpoint(path)
        assert re.search(r"version 1\b", str(err.value))

    @pytest.mark.parametrize("version, removed", [
        (2, {"leaky_slope": 0.2, "gcn_layers": 1, "normalize_adjacency": False,
             "clip_norm": None}),
        (3, {"clip_norm": None}),
    ])
    def test_version_2_file_with_removed_settings_rejected_by_version(self, tmp_path, version,
                                                                       removed):
        # formats 2 and 3 stored config keys whose values this tree can no
        # longer vary; such a file is refused for its version
        run, _, _ = self.trained(tmp_path)
        header, blob = checkpoint_bytes(run.checkpoint).split(b"\n", 1)
        manifest = json.loads(header)
        manifest["format_version"] = version
        manifest["config"].update(removed)
        path = tmp_path / f"v{version}.ckpt"
        path.write_bytes(json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
                         + b"\n" + blob)
        with pytest.raises(CheckpointError) as err:
            training.load_checkpoint(path)
        assert re.search(rf"version {version}\b", str(err.value))

    def test_version_4_file_rejected_by_version(self, tmp_path):
        # format 4 stored the vocabulary as an object with its frequency
        # cutoff, and the seed again in the metadata
        run, _, _ = self.trained(tmp_path)
        header, blob = checkpoint_bytes(run.checkpoint).split(b"\n", 1)
        manifest = json.loads(header)
        manifest["format_version"] = 4
        manifest["vocabulary"] = {"id_to_token": manifest["vocabulary"], "min_frequency": 2}
        manifest["metadata"]["seed"] = run.config.seed
        path = tmp_path / "v4.ckpt"
        path.write_bytes(json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
                         + b"\n" + blob)
        with pytest.raises(CheckpointError, match=r"unsupported format version 4 \(expected 5\)"):
            training.load_checkpoint(path)

    def test_config_keys_pinned_to_format_version(self, tmp_path):
        # the manifest's config is ModelConfig.to_dict(): a field added or
        # removed changes what a file holds, so it needs a new format version
        # and a new entry here
        keys = {5: ["class_names", "embed_dim", "hidden_dim", "lr", "max_epochs",
                    "max_sentences", "max_tokens", "node_dim", "seed", "variant",
                    "vocab_size"]}
        _, path, _ = self.trained(tmp_path)
        manifest = json.loads(path.read_bytes().split(b"\n", 1)[0])
        expected = keys[training.CHECKPOINT_FORMAT_VERSION]
        assert manifest["format_version"] == training.CHECKPOINT_FORMAT_VERSION
        assert sorted(manifest["config"]) == expected
        assert sorted(f.name for f in dataclasses.fields(model.ModelConfig)) == expected

    def test_missing_parameter_rejected(self, tmp_path):
        run, _, _ = self.trained(tmp_path)
        ckpt = run.checkpoint
        ckpt.values.pop("proj.b")
        with pytest.raises(CheckpointError, match="proj.b|do not match"):
            ckpt.to_params()

    def test_metadata_preserved(self, tmp_path):
        run, path, _ = self.trained(tmp_path)
        loaded = training.load_checkpoint(path)
        assert loaded.metadata == run.checkpoint.metadata
        assert loaded.config == run.config
        assert loaded.vocab.id_to_token == run.checkpoint.vocab.id_to_token

    def test_non_finite_parameter_rejected(self, tmp_path):
        run, path, _ = self.trained(tmp_path)
        raw = path.read_bytes()
        run.checkpoint.values["embedding"][3, 1] = np.nan
        with pytest.raises(CheckpointError, match="'embedding' has non-finite"):
            training.save_checkpoint(run.checkpoint, path)
        assert path.read_bytes() == raw and list(tmp_path.iterdir()) == [path]
        # the same NaN, written into the file's bytes: the embedding comes first
        start = raw.index(b"\n") + 1 + 8 * (3 * run.config.embed_dim + 1)
        path.write_bytes(raw[:start] + np.array(np.nan, "<f8").tobytes() + raw[start + 8:])
        with pytest.raises(CheckpointError, match="'embedding' has non-finite"):
            training.load_checkpoint(path)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda raw: b"[1]" + raw[raw.index(b"\n"):], "not a JSON object"),
        (lambda raw: raw.replace(b'"proj.w","shape":[', b'"proj.w","shape":[-', 1),
         r"parameter 'proj.w' has shape \(-4, 2\), expected \(4, 2\)"),
        (lambda raw: raw.replace(b'"embed_dim":6,', b'"embed_dim":6.0,', 1),
         "embed_dim must be a positive integer"),
        (lambda raw: raw.replace(b'"<unk>",', b'"<unk>","x1","x2",', 1),
         "vocabulary has"),
        (lambda raw: re.sub(rb'("<unk>",)"[^"]*"', rb"\g<1>7", raw, count=1),
         "tokens must be strings"),
        (lambda raw: re.sub(rb'("<unk>",)"[^"]*"', rb"\g<1>null", raw, count=1),
         "tokens must be strings"),
        (lambda raw: raw.replace(b'"proj.w","shape":[4,2]', b'"proj.w","shape":[4.7,2]', 1),
         "expected an integer, got 4.7"),
        (lambda raw: raw.replace(b'"proj.w","shape":[4,2]', b'"proj.w","shape":["4","2"]', 1),
         "expected an integer, got '4'"),
        (lambda raw: raw.replace(b'"lr":0.01', b'"lr":-1', 1), "lr must be a finite number"),
        (lambda raw: raw.replace(b'"lr":0.01', b'"lr":NaN', 1), "lr must be a finite number"),
        (lambda raw: raw.replace(b'"lr":0.01', b'"lr":' + b"9" * 400, 1),
         "lr must be a finite number"),
        (lambda raw: raw.replace(b'"class_names":', b'"clip_norm":null,"class_names":', 1),
         "unknown config fields"),
        (lambda raw: raw.replace(b'"class_names":["satire","trusted"]',
                                 b'"class_names":[7,null]', 1),
         "class_names must be unique non-empty strings"),
        (lambda raw: raw.replace(b'"class_names":["satire","trusted"]',
                                 b'"class_names":["a","a"]', 1),
         "class_names must be unique non-empty strings"),
        # both would load as the classes ("a", "b") and save back differently
        (lambda raw: raw.replace(b'"class_names":["satire","trusted"]',
                                 b'"class_names":"ab"', 1),
         "class_names must be a list"),
        (lambda raw: raw.replace(b'"class_names":["satire","trusted"]',
                                 b'"class_names":{"a":1,"b":2}', 1),
         "class_names must be a list"),
        (lambda raw: raw.replace(b'"seed":13,', b'"seed":"s",', 1),
         "seed must be a non-negative integer"),
        # str.split's maxsplit is a C ssize_t: predict would raise OverflowError
        (lambda raw: re.sub(rb'"max_tokens":\d+', b'"max_tokens":1' + b"0" * 30, raw, count=1),
         "max_tokens must be a positive integer up to"),
        (lambda raw: re.sub(rb'"max_sentences":\d+',
                            b'"max_sentences":%d' % (sys.maxsize + 1), raw, count=1),
         "max_sentences must be a positive integer up to"),
    ], ids=["non_object_manifest", "negative_shape", "float_dimension", "vocabulary_size",
            "integer_token", "null_token", "float_shape", "string_shape",
            "negative_lr", "nan_lr", "huge_integer_lr",
            "stale_clip_norm", "non_string_class_names", "duplicate_class_names",
            "string_class_names", "object_class_names", "string_seed", "huge_max_tokens",
            "max_sentences_past_ssize_t"])
    def test_malformed_manifest_rejected(self, tmp_path, corrupt, message):
        _, path, _ = self.trained(tmp_path)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(CheckpointError, match=message):
            training.load_checkpoint(path)

    @pytest.mark.parametrize("head", [b"[" * 100_000 + b"]" * 100_000,
                                      b'{"format_version":' + b"4" * 5000 + b"}"],
                             ids=["nested_too_deep", "integer_of_5000_digits"])
    def test_manifest_json_cannot_parse_rejected(self, tmp_path, head):
        # json.loads raises RecursionError and a bare ValueError for these
        path = tmp_path / "bad.ckpt"
        path.write_bytes(head + b"\n")
        with pytest.raises(CheckpointError, match="invalid manifest"):
            training.load_checkpoint(path)

    def test_huge_claimed_vocabulary_rejected_before_allocating(self, tmp_path):
        run, path, _ = self.trained(tmp_path)
        size = run.config.vocab_size
        raw = path.read_bytes().replace(b'"vocab_size":%d' % size,
                                        b'"vocab_size":10000000000000', 1)
        path.write_bytes(raw)
        with pytest.raises(CheckpointError, match="'embedding' has shape"):
            training.load_checkpoint(path)

    def test_write_failing_midway_keeps_previous_file(self, tmp_path, monkeypatch):
        run, path, _ = self.trained(tmp_path)
        before = path.read_bytes()
        run.checkpoint.metadata["best_epoch"] = 7
        monkeypatch.setattr(training, "open", lambda p, mode: HalfWriter(open(p, mode)),
                            raising=False)
        with pytest.raises(OSError, match="disk full"):
            training.save_checkpoint(run.checkpoint, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_write_failing_after_any_buffer_keeps_previous_checkpoint_and_log(
            self, tmp_path, monkeypatch):
        # the checkpoint goes out as its manifest line and then one buffer per
        # value, the run log after it; a failure at any write keeps both files
        run, path, _ = self.trained(tmp_path)
        log_path = tmp_path / "model.ckpt.runlog.json"
        log_path.write_bytes(b'{"previous": true}\n')
        before = [path.read_bytes(), log_path.read_bytes()]
        run.checkpoint.metadata["best_epoch"] = 7
        files = {path: training.checkpoint_buffers(run.checkpoint),
                 log_path: [b'{"next": true}\n']}
        n_writes = sum(len(buffers) for buffers in files.values())
        assert n_writes == len(run.checkpoint.values) + 2
        for fail_at in range(n_writes):
            writes = itertools.count()

            class FailingFile:
                def __init__(self, f):
                    self.f = f

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    self.f.close()

                def write(self, data):
                    if next(writes) == fail_at:
                        raise OSError("disk full")
                    return self.f.write(data)

            monkeypatch.setattr(training, "open", lambda p, mode: FailingFile(open(p, mode)),
                                raising=False)
            with pytest.raises(OSError, match="disk full"):
                training.write_files_atomic(files)
            assert [path.read_bytes(), log_path.read_bytes()] == before
            assert sorted(tmp_path.iterdir()) == sorted([path, log_path])

    def test_saved_file_is_checkpoint_bytes_for_any_array_layout(self, tmp_path):
        # values as training hands them over are native float64, but a caller
        # may pass any layout: every one is written as C-ordered <f8
        run, path, _ = self.trained(tmp_path)
        native = run.checkpoint.values
        reference = checkpoint_bytes(run.checkpoint)

        def strided(v):
            wide = np.zeros((2 * v.shape[0],) + v.shape[1:])
            wide[::2] = v
            return wide[::2]

        layouts = {"float32": lambda v: v.astype(np.float32),
                   "fortran": np.asfortranarray,
                   "strided": strided,
                   "big_endian": lambda v: v.astype(">f8")}
        for name, layout in layouts.items():
            ckpt = dataclasses.replace(
                run.checkpoint, values={n: layout(v) for n, v in native.items()})
            saved = tmp_path / f"{name}.ckpt"
            training.save_checkpoint(ckpt, saved)
            header = reference.split(b"\n", 1)[0]  # the same shapes
            blob = b"".join(v.astype("<f8").tobytes() for v in ckpt.values.values())
            assert saved.read_bytes() == checkpoint_bytes(ckpt) == header + b"\n" + blob
            if name != "float32":
                assert saved.read_bytes() == reference
            loaded = training.load_checkpoint(saved)
            assert all(np.array_equal(loaded.values[n], v) for n, v in ckpt.values.items())


def saved_checkpoint(path, vocab_size):
    """An initialised (untrained) checkpoint over ``vocab_size`` tokens,
    saved to ``path``; returns its config."""
    vocab = Vocabulary(["<pad>", "<unk>"] + [f"w{k}" for k in range(vocab_size - 2)])
    config = model.ModelConfig(variant="gcn", vocab_size=vocab_size,
                               class_names=("satire", "trusted"), seed=5)
    values = {n: t.values for n, t in model.init_params(config).tensors.items()}
    training.save_checkpoint(training.Checkpoint(config, vocab, values, {"seed": 5}), path)
    return config


def load_through_fifo(tmp_path, data):
    """``load_checkpoint`` on a named pipe that a thread fills with ``data``."""
    fifo = tmp_path / "ckpt.fifo"
    os.mkfifo(fifo)

    def write():
        try:
            with open(fifo, "wb") as f:
                f.write(data)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return training.load_checkpoint(fifo)
    finally:
        writer.join()


class TestCheckpointLoading:
    def test_load_allocates_each_parameter_once(self, tmp_path):
        path = tmp_path / "big.ckpt"
        saved_checkpoint(path, 20000)
        tracemalloc.start()
        try:
            ckpt = training.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the values themselves, plus the manifest's 20,000 tokens and the
        # finite check's mask of one parameter; a whole-file read, or a
        # second copy of each parameter, would take the peak past 2x
        param_bytes = sum(v.nbytes for v in ckpt.values.values())
        assert param_bytes > 15 * 2**20
        assert peak < 1.5 * param_bytes

    def test_bound_tensors_share_values_and_training_leaves_them(self, tmp_path):
        path = tmp_path / "model.ckpt"
        config = saved_checkpoint(path, 50)
        ckpt = training.load_checkpoint(path)
        before = {n: v.tobytes() for n, v in ckpt.values.items()}
        params = ckpt.to_params()
        for name, t in params.tensors.items():
            assert np.shares_memory(t.values, ckpt.values[name])
            assert not t.values.flags.writeable
        state = ad.AdamState.for_params(params.tensors)
        for doc in (Document("d", 0, ((5, 17, 3), (2, 3))), Document("e", 1, ((7, 8),))):
            with ad.Tape() as tape:
                logits, _ = model.forward(doc, params, config)
                step_loss = model.loss(logits, doc.label)
            ad.zero_grads(params.tensors)
            ad.backward(tape, step_loss)
            ad.adam_step(params.tensors, {n: t.grad for n, t in params.tensors.items()}, state)
        ad.adam_sync(params.tensors, state)
        assert all(t.values.tobytes() != before[n] for n, t in params.tensors.items())
        assert {n: v.tobytes() for n, v in ckpt.values.items()} == before

    def test_pipe_loads_the_values_of_the_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        saved_checkpoint(path, 2000)  # 1.6 MB: many pipe-buffer fills
        regular = training.load_checkpoint(path)
        piped = load_through_fifo(tmp_path, path.read_bytes())
        assert piped.config == regular.config and piped.metadata == regular.metadata
        assert list(piped.values) == list(regular.values)
        assert all(np.array_equal(piped.values[n], v) for n, v in regular.values.items())
        assert checkpoint_bytes(piped) == path.read_bytes()

    def test_short_read_rejected(self, tmp_path, monkeypatch):
        # a file cut after its size was taken reads short: that must not
        # leave the rest of the array uninitialised
        path = tmp_path / "model.ckpt"
        saved_checkpoint(path, 50)

        class ShortReads:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def __getattr__(self, name):
                return getattr(self.f, name)

            def readinto(self, buffer):
                return self.f.readinto(memoryview(buffer)[: len(buffer) // 2])

        monkeypatch.setattr(training, "open", lambda p, mode: ShortReads(open(p, mode)),
                            raising=False)
        with pytest.raises(CheckpointError, match="truncated parameter data at 'embedding'"):
            training.load_checkpoint(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda raw: raw[: raw.index(b"\n") + 1 + 8 * 1000 + 3],
         "truncated parameter data at 'embedding'"),
        (lambda raw: raw[:-5], "truncated parameter data at 'proj.b'"),
        (lambda raw: raw + b"\0" * 9, "9 trailing bytes"),
    ], ids=["cut_in_embedding", "cut_in_last", "trailing"])
    def test_pipe_cut_or_extended_rejected(self, tmp_path, edit, message):
        path = tmp_path / "model.ckpt"
        saved_checkpoint(path, 2000)
        with pytest.raises(CheckpointError, match=message):
            load_through_fifo(tmp_path, edit(path.read_bytes()))


@pytest.fixture(scope="module")
def tiny_checkpoint_bytes(tmp_path_factory):
    vocab = Vocabulary(["<pad>", "<unk>", "zebra", "quokka"])
    config = model.ModelConfig(variant="gat2", vocab_size=len(vocab),
                               class_names=("satire", "trusted"), embed_dim=3,
                               hidden_dim=3, node_dim=2)
    params = model.init_params(config)
    values = {name: t.values for name, t in params.tensors.items()}
    ckpt = training.Checkpoint(config, vocab, values, metadata={"best_epoch": 1, "seed": 0})
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    training.save_checkpoint(ckpt, path)
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_any_single_byte_manifest_change_loads_or_raises_checkpoint_error(
        tiny_checkpoint_bytes, tmp_path_factory, data):
    raw = tiny_checkpoint_bytes
    manifest_len = raw.index(b"\n") + 1
    pos = data.draw(st.integers(0, manifest_len - 1), label="position")
    byte = data.draw(st.integers(0, 255), label="byte")
    path = tmp_path_factory.getbasetemp() / "mutated.ckpt"
    path.write_bytes(raw[:pos] + bytes([byte]) + raw[pos + 1:])
    try:
        training.load_checkpoint(path)
    except CheckpointError:
        pass


@settings(max_examples=100, deadline=None)
@given(variant=st.sampled_from(model.VARIANTS), seed=st.integers(0, 2**32 - 1))
def test_checkpoint_save_load_save_round_trips(tmp_path_factory, variant, seed):
    vocab = Vocabulary(["<pad>", "<unk>", "zebra", "quokka"])
    config = model.ModelConfig(variant=variant, vocab_size=len(vocab),
                               class_names=("satire", "trusted"), embed_dim=3,
                               hidden_dim=3, node_dim=2, seed=seed)
    values = {name: t.values for name, t in model.init_params(config).tensors.items()}
    ckpt = training.Checkpoint(config, vocab, values, metadata={"best_epoch": 1, "seed": seed})
    path = tmp_path_factory.getbasetemp() / "round-trip.ckpt"
    training.save_checkpoint(ckpt, path)
    loaded = training.load_checkpoint(path)
    assert loaded.config == config and loaded.metadata == ckpt.metadata
    assert checkpoint_bytes(loaded) == path.read_bytes()


DEFECTS = {
    "none": None,
    "token": "tokens must be strings",
    "long_vocabulary": "malformed manifest: vocabulary has 5 tokens, config.vocab_size is 4",
    "shape": "malformed manifest: parameter '.*' has shape",
    "order": "malformed manifest: parameters .* do not match",
    "non_finite": "parameter '.*' has non-finite values",
}


@settings(max_examples=150, deadline=None)
@given(variant=st.sampled_from(model.VARIANTS), defect=st.sampled_from(list(DEFECTS)),
       data=st.data())
def test_save_refuses_what_load_refuses_and_writes_nothing(tmp_path_factory, variant, defect,
                                                            data):
    # the token rule lives in Vocabulary; vocabulary size, layout and
    # finiteness in the one check that saving and loading both apply
    tokens = ["<pad>", "<unk>", "zebra", "quokka"]
    config = model.ModelConfig(variant=variant, vocab_size=len(tokens),
                               class_names=("satire", "trusted"), embed_dim=3,
                               hidden_dim=3, node_dim=2, seed=data.draw(st.integers(0, 99)))
    values = {name: t.values for name, t in model.init_params(config).tensors.items()}
    names = list(values)
    if defect == "token":
        tokens[data.draw(st.integers(2, 3))] = data.draw(
            st.one_of(st.integers(), st.none(), st.floats(), st.binary(), st.lists(st.text())))
        with pytest.raises(CorpusError, match=DEFECTS[defect]):
            Vocabulary(tokens)
        return
    if defect == "long_vocabulary":
        tokens.append("emu")
    elif defect == "shape":
        name = data.draw(st.sampled_from(names))
        shape = list(values[name].shape)
        axis = data.draw(st.integers(0, len(shape)))  # len(shape): one axis more
        shape[axis:axis + 1] = [shape[axis] + data.draw(st.sampled_from([-1, 1]))
                                if axis < len(shape) else 1]
        values[name] = np.zeros(shape)
    elif defect == "order":
        k = data.draw(st.integers(0, len(names) - 2))
        names[k:k + 2] = names[k + 1], names[k]
        values = {name: values[name] for name in names}
    elif defect == "non_finite":
        name = data.draw(st.sampled_from(names))
        values[name] = values[name].copy()
        values[name].flat[data.draw(st.integers(0, values[name].size - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
    ckpt = training.Checkpoint(config, Vocabulary(tokens), values, metadata={"best_epoch": 1})
    directory = tmp_path_factory.mktemp("save")
    path, log = directory / "model.ckpt", directory / "model.ckpt.runlog.json"
    if defect == "none":
        training.save_checkpoint(ckpt, path)
        loaded = training.load_checkpoint(path)
        assert (loaded.config, loaded.vocab, loaded.metadata) == (config, ckpt.vocab,
                                                                  ckpt.metadata)
        assert list(loaded.values) == names
        assert all(np.array_equal(loaded.values[n], v) for n, v in values.items())
        assert checkpoint_bytes(loaded) == path.read_bytes()
        return
    with pytest.raises(CheckpointError, match=DEFECTS[defect]):
        training.save_checkpoint(ckpt, path)
    # the train command's write of the checkpoint and its run log together
    with pytest.raises(CheckpointError, match=DEFECTS[defect]):
        training.write_files_atomic({path: training.checkpoint_buffers(ckpt), log: [b"{}\n"]})
    assert list(directory.iterdir()) == []


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_parameter_byte_changes_load_exactly_or_raise_checkpoint_error(
        tiny_checkpoint_bytes, tmp_path_factory, data):
    raw = bytearray(tiny_checkpoint_bytes)
    manifest_len = raw.index(b"\n") + 1
    # whole values, NaN and infinities included, then single bytes
    slots = st.integers(0, (len(raw) - manifest_len) // 8 - 1)
    for slot, value in data.draw(st.lists(st.tuples(slots, st.floats()), max_size=3),
                                 label="values"):
        start = manifest_len + 8 * slot
        raw[start:start + 8] = np.array(value, dtype="<f8").tobytes()
    for pos, byte in data.draw(st.lists(st.tuples(st.integers(manifest_len, len(raw) - 1),
                                                  st.integers(0, 255)), max_size=8),
                               label="bytes"):
        raw[pos] = byte
    path = tmp_path_factory.getbasetemp() / "mutated-params.ckpt"
    path.write_bytes(bytes(raw))
    try:
        loaded = training.load_checkpoint(path)
    except CheckpointError as err:
        assert "non-finite" in str(err)
    else:
        assert all(np.isfinite(v).all() for v in loaded.values.values())
        assert checkpoint_bytes(loaded) == bytes(raw)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_truncation_raises_checkpoint_error(tiny_checkpoint_bytes, tmp_path_factory, data):
    raw = tiny_checkpoint_bytes
    cut = data.draw(st.integers(0, len(raw) - 1), label="length")
    path = tmp_path_factory.getbasetemp() / "truncated.ckpt"
    path.write_bytes(raw[:cut])
    with pytest.raises(CheckpointError):
        training.load_checkpoint(path)
