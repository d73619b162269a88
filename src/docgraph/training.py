"""Training loop, dev-set model selection, and checkpoint persistence.

Updates are per-document (batch size 1) with Adam; documents are
reshuffled every epoch from a seeded stream, so a (data, config, seed)
triple fully determines the run, including the checkpoint bytes.
Adam defers the zero-gradient update of the embedding rows a document did
not touch (see ``autodiff.adam_step``); every forward still sees the dense
update's bytes, and each epoch ends with ``autodiff.adam_sync``, which
brings the whole table up to date. Then the dev set is scored with
macro-F1 and the best epoch's parameters are kept (ties go to the earliest
epoch). ``train`` holds OpenBLAS at one thread, so the checkpoint's bytes do
not follow the host's core count.
"""

from __future__ import annotations

import ctypes
import io
import json
import math
import os
import stat
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import AdamState, Tape
from .corpus import Document, Vocabulary
from .errors import CheckpointError, CorpusError, ModelError, NumericError, TrainingError, is_int
from .evaluation import evaluate_documents
from .graph import EdgeWeightSet
from .model import (
    ModelConfig,
    ModelParams,
    bind_params,
    check_documents,
    check_layout,
    forward,
    init_params,
    loss,
)

CHECKPOINT_FORMAT_VERSION = 5


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
        """Parameter tensors over read-only views of the stored values,
        checked against the config's parameter layout. Nothing is copied:
        ``autodiff.adam_step`` copies a read-only array before its first
        update, so training the tensors leaves the checkpoint's values as
        they are."""
        views = {n: v.view() for n, v in self.values.items()}
        for view in views.values():
            view.flags.writeable = False
        try:
            return bind_params(self.config, views)
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


def check_inputs(
    train_docs: list[Document],
    dev_docs: list[Document],
    config: ModelConfig,
    weights: EdgeWeightSet | None = None,
) -> None:
    """Raise what ``train`` would refuse before its first step: no epoch, an
    empty set, a document ``check_documents`` refuses, or a class without a
    training document."""
    if config.max_epochs < 1:
        raise TrainingError("training requires at least one epoch")
    if not train_docs or not dev_docs:
        raise TrainingError("training and dev sets must be non-empty")
    check_documents([*train_docs, *dev_docs], config, weights, TrainingError)
    present = {d.label for d in train_docs}
    missing = [name for i, name in enumerate(config.class_names) if i not in present]
    if missing:
        raise TrainingError(f"no training documents for class(es): {missing}")


@cache
def openblas() -> ctypes.CDLL | None:
    """The OpenBLAS library numpy has mapped into this process, found once,
    or ``None`` where ``/proc/self/maps`` names none or it does not load."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    path = next((line.split()[-1] for line in maps if "openblas" in line.split()[-1]), None)
    try:
        return None if path is None else ctypes.CDLL(path)
    except OSError:
        return None


@contextmanager
def one_blas_thread():
    """Hold OpenBLAS at one thread, and put the old count back on exit: at
    two threads the backward products whose inner dimension exceeds 100 sum
    in another order, and a checkpoint's bytes would follow the thread count.
    Does nothing where the library lacks the thread-count functions."""
    lib = openblas()
    try:
        get, set_ = (lib.scipy_openblas_get_num_threads64_,
                     lib.scipy_openblas_set_num_threads64_)
    except AttributeError:  # no library, or another build of it
        yield
        return
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)


@one_blas_thread()
def train(
    train_docs: list[Document],
    dev_docs: list[Document],
    config: ModelConfig,
    vocab: Vocabulary,
    weights: EdgeWeightSet | None = None,
) -> TrainRun:
    check_inputs(train_docs, dev_docs, config, weights)
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
            # a diverging run overflows on its way to a non-finite loss or
            # gradient, which the checks below and adam_step's turn into
            # a NumericError; numpy's warnings would only precede it
            with np.errstate(over="ignore", invalid="ignore"):
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
            # allocated once and overwritten, so at most one snapshot lives
            # beside the parameters
            if best_values is None:
                best_values = {n: np.empty(t.values.shape) for n, t in params.tensors.items()}
            for n, t in params.tensors.items():
                np.copyto(best_values[n], t.values)

    run.checkpoint = Checkpoint(
        config=config,
        vocab=vocab,
        values=best_values,
        metadata={
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

def _check_checkpoint(ckpt: Checkpoint, where: str = "") -> None:
    """Raise CheckpointError, its message led by ``where``, for what no
    checkpoint file may hold: a vocabulary of other than ``config.vocab_size``
    tokens, values off the config's parameter layout, or a non-finite value."""
    try:
        if len(ckpt.vocab) != ckpt.config.vocab_size:
            raise ValueError(f"vocabulary has {len(ckpt.vocab)} tokens, "
                             f"config.vocab_size is {ckpt.config.vocab_size}")
        check_layout(ckpt.config, [(n, v.shape) for n, v in ckpt.values.items()])
    except (ValueError, ModelError) as err:
        raise CheckpointError(f"{where}malformed manifest: {err}") from err
    for name, value in ckpt.values.items():
        if not np.all(np.isfinite(value)):
            raise CheckpointError(f"{where}parameter '{name}' has non-finite values")


def checkpoint_buffers(ckpt: Checkpoint) -> list:
    """The checkpoint file's contents in order: the manifest line, then each
    value as a C-ordered little-endian float64 array (the value itself, not a
    copy, when it already is one). Refuses what ``load_checkpoint`` would."""
    _check_checkpoint(ckpt)
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": ckpt.config.to_dict(),
        "vocabulary": ckpt.vocab.id_to_token,
        "parameters": [
            {"name": name, "shape": list(values.shape)}
            for name, values in ckpt.values.items()
        ],
        "metadata": ckpt.metadata,
    }
    header = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return [header.encode("utf-8") + b"\n",
            *(np.ascontiguousarray(v, dtype="<f8") for v in ckpt.values.values())]


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    write_files_atomic({path: checkpoint_buffers(ckpt)})


def _json_int(value) -> int:
    """``value`` itself if it is a JSON integer: converting 2.9 or "2" would
    load a checkpoint that saves back to different bytes."""
    if not is_int(value):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Read a checkpoint file. Each parameter is allocated once, as a
    little-endian float64 array, and filled straight from the file; a pipe
    or other non-regular file is read into memory first, as its length is
    unknown until then."""
    try:
        with open(path, "rb") as f:
            return _read_checkpoint(f, path)
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from err


def _read_checkpoint(f, path: str | Path) -> Checkpoint:
    line = f.readline()
    if not line.endswith(b"\n"):
        raise CheckpointError(f"{path}: missing manifest line")
    try:
        manifest = json.loads(line.decode("utf-8"))
    # bad UTF-8 or JSON, an int of over 4300 digits, or nesting too deep
    except (ValueError, RecursionError) as err:
        raise CheckpointError(f"{path}: invalid manifest: {err}") from err
    if not isinstance(manifest, dict):
        raise CheckpointError(f"{path}: invalid manifest: not a JSON object")
    version = manifest.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version!r} "
                              f"(expected {CHECKPOINT_FORMAT_VERSION})")
    # A manifest can hold any JSON, so every value-level failure while
    # building the config and vocabulary from it, or checking the parameter
    # directory against the config's layout, is a bad file.
    try:
        config = ModelConfig.from_dict(manifest["config"])
        vocab = Vocabulary(id_to_token=manifest["vocabulary"])
        directory = [(str(p["name"]), tuple(_json_int(s) for s in p["shape"]))
                     for p in manifest["parameters"]]
        metadata = manifest["metadata"]
        # before any allocation: a manifest may claim arbitrarily large shapes
        check_layout(config, directory)
    except (KeyError, TypeError, ValueError, ModelError, CorpusError) as err:
        raise CheckpointError(f"{path}: malformed manifest: {err}") from err

    st = os.fstat(f.fileno())
    if stat.S_ISREG(st.st_mode):
        size = st.st_size - f.tell()
    else:
        rest = f.read()
        size, f = len(rest), io.BytesIO(rest)
    values: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in directory:
        nbytes = math.prod(shape) * 8  # exact: a claimed shape may overflow int64
        # before allocating: the claim is bounded by the bytes present
        if offset + nbytes > size:
            raise CheckpointError(f"{path}: truncated parameter data at '{name}'")
        values[name] = value = np.empty(shape, dtype="<f8")  # native on little-endian hosts
        if f.readinto(memoryview(value).cast("B")) != nbytes:
            raise CheckpointError(f"{path}: truncated parameter data at '{name}'")
        offset += nbytes
    if offset != size:
        raise CheckpointError(f"{path}: {size - offset} trailing bytes")
    ckpt = Checkpoint(config=config, vocab=vocab, values=values, metadata=metadata)
    _check_checkpoint(ckpt, f"{path}: ")
    return ckpt
