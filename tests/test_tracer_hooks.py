"""The benchmark tracer's hooks into the library still hold.

``bench/tracing.py`` wraps library functions by the module attribute the
caller looks up, and its encoder counters key on the first argument of
``encode_document``, ``embed`` and ``lstm_last_hidden``; its backward
counters read ``nbytes`` from every gradient a rule returns. A library
change that renames, drops or reorders one of these would break
``bench/run.py --trace 1`` without failing a library test; these tests
fail instead.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402
from docgraph import autodiff, model, training  # noqa: E402
from docgraph.corpus import Document  # noqa: E402

DOC = Document("d", 0, ((2, 3), (4, 5, 6), (7, 8)))  # 3 sentences, 7 tokens


def test_every_wrapped_name_resolves():
    names = tracing.wrapped_names()  # raises if a name is gone
    for owner, attr, _ in tracing.LAYER_CALLS:
        assert callable(names[(owner.__name__, attr)]), attr
    for op in tracing.MODEL_OPS:
        assert callable(names[("autodiff", op)]) and callable(names[("BACKWARD_RULES", op)])


@pytest.mark.parametrize("variant, layer_span, counts", [
    ("lstm", None, {"encoder.calls": 2, "encoder.sentences": 1, "encoder.tokens": 7}),
    ("gcn", "layers.gcn", {"encoder.calls": 1, "encoder.sentences": 3, "encoder.tokens": 7}),
    ("gcn_attn", "layers.self_attn", {"encoder.calls": 1, "encoder.sentences": 3}),
    ("gat2", "layers.gat", {"encoder.calls": 1, "encoder.sentences": 3}),
])
def test_forward_runs_through_the_wrapped_names(variant, layer_span, counts):
    config = model.ModelConfig(variant=variant, vocab_size=10, class_names=("a", "b"),
                               embed_dim=3, hidden_dim=3, node_dim=2)
    params = model.init_params(config)
    tracer = tracing.Tracer()
    with tracer.active():
        traced = model.forward(DOC, params, config)[0].values
    assert np.array_equal(model.forward(DOC, params, config)[0].values, traced)
    spans = {s.name for s in tracer.spans}
    assert "encoder.fwd" in spans
    if layer_span is not None:
        assert {"graph.build", layer_span} <= spans
    for name, expected in counts.items():
        assert tracer.counters[("other", name)] == expected, name


def test_traced_training_step_counts_sparse_embedding_gradient_bytes():
    config = model.ModelConfig(variant="gcn_attn", vocab_size=20000, class_names=("a", "b"))
    params = model.init_params(config)
    state = autodiff.AdamState.for_params(params.tensors)
    tracer = tracing.Tracer()
    with tracer.active():  # the step calls the names the tracer wraps
        with autodiff.Tape() as tape:
            logits, _ = training.forward(DOC, params, config)
            step_loss = training.loss(logits, DOC.label)
        autodiff.backward(tape, step_loss)
        autodiff.adam_step(params.tensors, {n: t.grad for n, t in params.tensors.items()},
                           state)
    assert state.t == 1
    assert "autodiff.adam" in {s.name for s in tracer.spans}
    grad_bytes = sum(value for (_, name), value in tracer.counters.items()
                     if name == "autodiff.bwd.grad_bytes")
    assert 0 < grad_bytes < params.tensors["embedding"].values.nbytes
