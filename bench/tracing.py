"""Spans and counters recorded around calls into ``docgraph``'s modules.

A :class:`Tracer` replaces public module attributes (and the entries of
``autodiff.BACKWARD_RULES``) with timing wrappers while it is active, and
puts every original back when it leaves. Nothing under ``src/`` changes:
the wrappers sit on the names the calling module looks up, which is
where the layer boundary is.

Layer calls become :class:`Span` records kept in memory. Per-op autodiff
timings are too frequent for spans (tens of thousands per training step),
so they only add to counters. Spans and counters are filed under the
current *operation*: a training step, a scored (document, variant) pair,
a dev evaluation, or a setup; everything else goes under ``other``.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from docgraph import autodiff, corpus, evaluation, graph, model, training

# Every autodiff op that some model variant records on the tape.
MODEL_OPS = (
    "add", "concat_cols", "concat_rows", "cross_entropy_logits", "gather_rows",
    "leaky_relu", "matmul", "max_over_rows", "mul", "pad_rows", "reshape",
    "scale", "sigmoid", "slice_rows", "softmax_rows", "tanh", "transpose",
)

# (module, attribute, span name): the layer boundaries, named as the caller
# looks them up. ``model`` imports the encoder, graph and layer functions
# by name, and ``training``/``evaluation`` import ``forward`` by name.
LAYER_CALLS = (
    (corpus, "load_corpus", "corpus.load"),
    (corpus, "build_vocab", "corpus.vocab"),
    (corpus, "encode_document", "corpus.encode"),
    (model, "encode_document", "encoder.fwd"),
    (model, "embed", "encoder.fwd"),
    (model, "lstm_last_hidden", "encoder.fwd"),
    (model, "build_graph", "graph.build"),
    (graph, "load_edge_weights", "graph.load_weights"),
    (model, "gcn_layer", "layers.gcn"),
    (model, "multi_head", "layers.gat"),
    (model, "self_attention", "layers.self_attn"),
    (training, "forward", "model.forward"),
    (evaluation, "forward", "model.forward"),
    (training, "loss", "model.loss"),
    (autodiff, "backward", "autodiff.backward"),
    (autodiff, "adam_step", "autodiff.adam"),
    (training, "evaluate_documents", "training.dev_eval"),
    (training, "save_checkpoint", "training.save_ckpt"),
    (training, "load_checkpoint", "training.load_ckpt"),
    (evaluation, "predict_label", "evaluation.predict"),
    (evaluation, "predict_probabilities", "evaluation.predict"),
)

# Spans that start an operation: what runs inside is filed under it.
OPERATIONS = ("training.step", "training.dev_eval", "score.pair", "setup")
# A training step has no function of its own: it runs from the training
# loop's call to ``forward`` until ``adam_step`` returns.
STEP = "training.step"
STEP_BEGIN = (training, "forward")
STEP_END = "autodiff.adam"


@dataclass
class Span:
    """One timed call: seconds since the tracer started, parent span index,
    the operation it belongs to and that operation's id."""

    name: str
    start: float
    end: float
    parent: int | None
    operation: str
    op_id: int
    thread: int


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus its children's durations.

    The span stack is per thread, so children run inside their parent
    and one after another: their durations never overlap.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


class Tracer:
    """Records spans and counters while active; see the module docstring."""

    def __init__(self):
        self.t0 = perf_counter()
        self.spans: list[Span] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.values: dict[str, float] = {}
        self._local = threading.local()
        self._op_ids: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.operation = ("other", 0)
        return local

    @property
    def operation(self) -> str:
        return self._state().operation[0]

    def open(self, name: str) -> int:
        state = self._state()
        if name in OPERATIONS:
            state.operation = (name, self._op_ids[name])
            self._op_ids[name] += 1
        operation, op_id = state.operation
        parent = state.stack[-1] if state.stack else None
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter() - self.t0, 0.0, parent, operation,
                               op_id, threading.get_ident()))
        state.stack.append(index)
        return index

    def close(self, index: int) -> None:
        state = self._state()
        self.spans[index].end = perf_counter() - self.t0
        state.stack.pop()
        if self.spans[index].name in OPERATIONS:
            outer = [self.spans[i] for i in state.stack if self.spans[i].name in OPERATIONS]
            state.operation = ((outer[-1].name, outer[-1].op_id) if outer else ("other", 0))

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[(self.operation, name)] += value

    @contextmanager
    def span(self, name: str):
        """Record one span around a block of the benchmark's own code."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    # -- wrappers ---------------------------------------------------------

    def _patch(self, owner, key, replacement) -> None:
        if isinstance(owner, dict):
            self._saved.append((owner, key, owner[key]))
            owner[key] = replacement
        else:
            self._saved.append((owner, key, getattr(owner, key)))
            setattr(owner, key, replacement)

    def _layer_wrapper(self, fn, name: str, begins_step: bool):
        tracer = self
        extra = _EXTRA.get(name)
        ends_step = name == STEP_END

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if begins_step:
                tracer._begin_step()
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if extra is not None:
                extra(tracer, args, result)
            if ends_step:
                tracer._end_step()
            return result

        return wrapper

    def _begin_step(self) -> None:
        state = self._state()
        if getattr(state, "step", None) is not None:
            self.close(state.step)
        state.step = self.open(STEP)

    def _end_step(self) -> None:
        state = self._state()
        if getattr(state, "step", None) is not None:
            self.close(state.step)
            state.step = None

    def _op_wrapper(self, fn, op: str):
        tracer = self
        calls_key, s_key = f"autodiff.fwd.{op}.calls", f"autodiff.fwd.{op}.s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            operation = tracer.operation
            tracer.counters[(operation, calls_key)] += 1
            tracer.counters[(operation, s_key)] += elapsed
            return result

        return wrapper

    def _rule_wrapper(self, rule, op: str):
        tracer = self
        calls_key, s_key = f"autodiff.bwd.{op}.calls", f"autodiff.bwd.{op}.s"

        @functools.wraps(rule)
        def wrapper(entry):
            start = perf_counter()
            grads = rule(entry)
            elapsed = perf_counter() - start
            operation = tracer.operation
            counters = tracer.counters
            counters[(operation, calls_key)] += 1
            counters[(operation, s_key)] += elapsed
            counters[(operation, "autodiff.bwd.grad_bytes")] += sum(
                g.nbytes for g in grads if g is not None)
            if op == "gather_rows":
                counters[(operation, "gather_rows.rows_used")] += np.unique(entry.ctx["ids"]).size
                counters[(operation, "gather_rows.rows_alloc")] += entry.inputs[0].shape[0]
            elif op == "slice_rows":
                counters[(operation, "slice_rows.rows_used")] += entry.ctx["stop"] - entry.ctx["start"]
                counters[(operation, "slice_rows.rows_alloc")] += entry.inputs[0].shape[0]
            return grads

        return wrapper

    def install(self) -> None:
        """Wrap every layer boundary, model op and backward rule."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name in LAYER_CALLS:
            self._patch(owner, attr, self._layer_wrapper(
                getattr(owner, attr), name, (owner, attr) == STEP_BEGIN))
        for op in MODEL_OPS:
            self._patch(autodiff, op, self._op_wrapper(getattr(autodiff, op), op))
            self._patch(autodiff.BACKWARD_RULES, op,
                        self._rule_wrapper(autodiff.BACKWARD_RULES[op], op))

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._end_step()

    @contextmanager
    def active(self):
        """Installed inside the block, restored on leaving it."""
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(asdict(s), sort_keys=True) + "\n")


def wrapped_names() -> dict:
    """The current object behind every name a tracer wraps."""
    out = {(owner.__name__, attr): getattr(owner, attr) for owner, attr, _ in LAYER_CALLS}
    for op in MODEL_OPS:
        out[("autodiff", op)] = getattr(autodiff, op)
        out[("BACKWARD_RULES", op)] = autodiff.BACKWARD_RULES[op]
    return out


# -- counts taken from a call's arguments or result ---------------------------

def _encoder_counts(tracer: Tracer, args, result) -> None:
    first = args[0]
    tracer.count("encoder.calls")
    if isinstance(first, corpus.Document):  # encode_document(doc, params)
        tracer.count("encoder.sentences", first.n_sentences)
        tracer.count("encoder.tokens", sum(len(s) for s in first.sentences))
    elif isinstance(first, autodiff.Tensor):  # lstm_last_hidden(x, params)
        tracer.count("encoder.sentences")
    else:  # embed(token_ids, embedding)
        tracer.count("encoder.tokens", len(first))


def _corpus_encode_counts(tracer: Tracer, args, result) -> None:
    tracer.count("corpus.documents")
    if result is not None:
        tracer.count("corpus.tokens", sum(len(s) for s in result.sentences))


def _vocab_size(tracer: Tracer, args, result) -> None:
    tracer.values["corpus.vocab_size"] = len(result)


def _tape_entries(tracer: Tracer, args, result) -> None:
    tracer.count("autodiff.tape_entries", len(args[0]))


def _checkpoint_bytes(tracer: Tracer, args, result) -> None:
    tracer.count("training.ckpt_bytes", Path(args[1]).stat().st_size)
    tracer.count("training.ckpts_saved")


_EXTRA = {
    "encoder.fwd": _encoder_counts,
    "corpus.encode": _corpus_encode_counts,
    "corpus.vocab": _vocab_size,
    "autodiff.backward": _tape_entries,
    "training.save_ckpt": _checkpoint_bytes,
}
