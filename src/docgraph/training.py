"""Training loop, dev-set model selection, and checkpoint persistence.

Updates are per-document (batch size 1) with Adam; documents are
reshuffled every epoch from a seeded stream, so a (data, config, seed)
triple fully determines the run, including the checkpoint bytes.
Adam defers the zero-gradient update of the embedding rows a document did
not touch (see ``autodiff.adam_step``); every forward still sees the dense
update's bytes, and each epoch ends with ``autodiff.adam_sync``, which
brings the whole table up to date. Then the dev set is scored with
macro-F1 and the best epoch's parameters are kept (ties go to the earliest
epoch).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Tape
from .corpus import Document, Vocabulary
from .errors import CheckpointError, CorpusError, ModelError, NumericError, TrainingError
from .evaluation import evaluate_documents
from .graph import EdgeWeightSet
from .model import (
    ModelConfig,
    ModelParams,
    bind_params,
    check_layout,
    forward,
    init_params,
    loss,
)

CHECKPOINT_FORMAT_VERSION = 3


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    dev_macro_f1: float


@dataclass
class Checkpoint:
    """A trained model: config, vocabulary, named values, run metadata."""

    config: ModelConfig
    vocab: Vocabulary
    values: dict[str, np.ndarray]
    metadata: dict

    def to_params(self) -> ModelParams:
        """Parameter tensors over copies of the stored values, checked
        against the config's parameter layout."""
        try:
            return bind_params(self.config, {n: v.copy() for n, v in self.values.items()})
        except ModelError as err:
            raise CheckpointError(f"checkpoint does not fit its config: {err}") from err


@dataclass
class TrainRun:
    """Per-epoch log plus the best checkpoint of one training run."""

    config: ModelConfig
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0
    checkpoint: Checkpoint | None = None

    @property
    def best_dev_macro_f1(self) -> float:
        return self.epochs[self.best_epoch - 1].dev_macro_f1

    def log_dict(self) -> dict:
        return {
            "best_epoch": self.best_epoch,
            "best_dev_macro_f1": self.best_dev_macro_f1,
            "epochs": [
                {"epoch": e.epoch, "train_loss": e.train_loss,
                 "dev_macro_f1": e.dev_macro_f1}
                for e in self.epochs
            ],
            "seed": self.config.seed,
            "variant": self.config.variant,
        }


def _clip_gradients(grads: dict[str, np.ndarray | ad.RowSparseGrad], max_norm: float) -> None:
    # a row-sparse gradient is zero outside its rows, so they carry its norm
    arrays = [g.rows if isinstance(g, ad.RowSparseGrad) else g for g in grads.values()]
    total = np.sqrt(sum(float(np.sum(a * a)) for a in arrays))
    if total > max_norm:
        factor = max_norm / total
        for a in arrays:
            a *= factor


def train(
    train_docs: list[Document],
    dev_docs: list[Document],
    config: ModelConfig,
    vocab: Vocabulary,
    weights: EdgeWeightSet | None = None,
) -> TrainRun:
    if config.max_epochs < 1:
        raise TrainingError("training requires at least one epoch")
    if not train_docs or not dev_docs:
        raise TrainingError("training and dev sets must be non-empty")
    present = {d.label for d in train_docs}
    missing = [name for i, name in enumerate(config.class_names) if i not in present]
    if missing:
        raise TrainingError(f"no training documents for class(es): {missing}")

    rng = np.random.default_rng(config.seed)
    params = init_params(config, rng)
    optimizer = AdamState.for_params(params.tensors, lr=config.lr)
    run = TrainRun(config=config)

    best_values: dict[str, np.ndarray] | None = None
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(train_docs))
        total_loss = 0.0
        for idx in order:
            doc = train_docs[idx]
            with Tape() as tape:
                logits, _ = forward(doc, params, config, weights)
                step_loss = loss(logits, doc.label)
            value = float(step_loss.values[0])
            if not np.isfinite(value):
                raise NumericError(f"non-finite loss on document '{doc.id}'")
            ad.zero_grads(params.tensors)
            ad.backward(tape, step_loss)
            grads = {
                name: t.grad if t.grad is not None else np.zeros_like(t.values)
                for name, t in params.tensors.items()
            }
            if config.clip_norm is not None:
                _clip_gradients(grads, config.clip_norm)
            ad.adam_step(params.tensors, grads, optimizer)
            total_loss += value

        ad.adam_sync(params.tensors, optimizer)
        dev_metrics = evaluate_documents(params, config, dev_docs, weights)
        stats = EpochStats(
            epoch=epoch,
            train_loss=total_loss / len(train_docs),
            dev_macro_f1=dev_metrics.macro_f1,
        )
        run.epochs.append(stats)
        # strictly better only: ties keep the earliest epoch
        if best_values is None or stats.dev_macro_f1 > run.best_dev_macro_f1:
            run.best_epoch = epoch
            best_values = {n: t.values.copy() for n, t in params.tensors.items()}

    run.checkpoint = Checkpoint(
        config=config,
        vocab=vocab,
        values=best_values,
        metadata={
            "seed": config.seed,
            "best_epoch": run.best_epoch,
            "best_dev_macro_f1": run.best_dev_macro_f1,
        },
    )
    return run


def write_files_atomic(files: dict[str | Path, list]) -> None:
    """Replace each path with its contents, a list of buffers written in
    order, through a temporary file in the same directory. Every temporary
    file is written before the first rename, so a failed or interrupted write
    leaves all the previous files intact; only an interruption between the
    back-to-back renames can replace some of them."""
    pending: list[tuple[Path, Path]] = []
    try:
        for path, buffers in files.items():
            path = Path(path)
            tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
            pending.append((tmp, path))
            with open(tmp, "wb") as f:
                for buffer in buffers:
                    f.write(buffer)
        for tmp, path in pending:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in pending:
            tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# checkpoint persistence
#
# One file: a single JSON manifest line (sorted keys), then the parameter
# values as little-endian float64 in manifest directory order. The layout
# round-trips byte-exactly.

def checkpoint_buffers(ckpt: Checkpoint) -> list:
    """The checkpoint file's contents in order: the manifest line, then each
    value as a C-ordered little-endian float64 array (the value itself, not a
    copy, when it already is one)."""
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": ckpt.config.to_dict(),
        "vocabulary": {
            "id_to_token": ckpt.vocab.id_to_token,
            "min_frequency": ckpt.vocab.min_frequency,
        },
        "parameters": [
            {"name": name, "shape": list(values.shape)}
            for name, values in ckpt.values.items()
        ],
        "metadata": ckpt.metadata,
    }
    header = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return [header.encode("utf-8") + b"\n",
            *(np.ascontiguousarray(v, dtype="<f8") for v in ckpt.values.values())]


def checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    """The checkpoint file's contents."""
    return b"".join(checkpoint_buffers(ckpt))


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    write_files_atomic({path: checkpoint_buffers(ckpt)})


def _json_int(value) -> int:
    """``value`` itself if it is a JSON integer: converting 2.9 or "2" would
    load a checkpoint that saves back to different bytes."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def load_checkpoint(path: str | Path) -> Checkpoint:
    try:
        raw = Path(path).read_bytes()
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err
    newline = raw.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"{path}: missing manifest line")
    try:
        manifest = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"{path}: invalid manifest: {err}") from err
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: invalid manifest: not a JSON object")
    version = manifest.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {version!r} "
            f"(expected {CHECKPOINT_FORMAT_VERSION})"
        )
    # A manifest can hold any JSON, so every value-level failure while
    # building the config and vocabulary from it, or checking the parameter
    # directory against the config's layout, is a bad file.
    malformed = (KeyError, TypeError, ValueError, ModelError, CorpusError)
    try:
        config = ModelConfig.from_dict(manifest["config"])
        tokens = manifest["vocabulary"]["id_to_token"]
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise ValueError("vocabulary tokens must be strings")
        vocab = Vocabulary(id_to_token=tokens,
                           min_frequency=_json_int(manifest["vocabulary"]["min_frequency"]))
        directory = [(str(p["name"]), tuple(_json_int(s) for s in p["shape"]))
                     for p in manifest["parameters"]]
        metadata = manifest["metadata"]
        for name, shape in directory:
            if any(d < 0 for d in shape):
                raise CheckpointError(f"{path}: negative shape {shape} for '{name}'")
        # before any allocation: a manifest may claim arbitrarily large shapes
        check_layout(config, directory)
        if len(vocab) != config.vocab_size:
            raise ValueError(f"vocabulary has {len(vocab)} tokens, "
                             f"config.vocab_size is {config.vocab_size}")
    except malformed as err:
        raise CheckpointError(f"{path}: malformed manifest: {err}") from err

    blob = memoryview(raw)[newline + 1:]
    values: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in directory:
        count = math.prod(shape)  # exact: a claimed shape may overflow int64
        nbytes = count * 8
        if offset + nbytes > len(blob):
            raise CheckpointError(f"{path}: truncated parameter data at '{name}'")
        values[name] = np.frombuffer(
            blob, dtype="<f8", count=count, offset=offset
        ).reshape(shape).astype(np.float64)
        if not np.all(np.isfinite(values[name])):
            raise CheckpointError(f"{path}: parameter '{name}' has non-finite values")
        offset += nbytes
    if offset != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - offset} trailing bytes")
    return Checkpoint(config=config, vocab=vocab, values=values, metadata=metadata)
