"""Finite-difference verification of every backward rule and model variant.

Every check is one comparison: along each direction it walks, the tape
gradient's slope against the central difference, with relative error
|a - f| / max(1, |a|, |f|). Each differentiable op gets one deterministic
fixture, walked along every coordinate's unit vector (h = 1e-5). Every model
variant is additionally walked the same way on a tiny configuration, and at
the default sizes along one random direction per parameter, where products
have the inner dimensions of a real model and sentences are ragged.

This is the release gate behind the ``gradcheck`` CLI command; the test
suite calls the same entry points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .corpus import Document
from .graph import EdgeWeightSet
from .model import VARIANTS, ModelConfig, forward, init_params
from .model import loss as model_loss

# the one seed of every fixture, model, document and direction
SEED = 0
FD_STEP = 1e-5
OP_TOLERANCE = 1e-6
VARIANT_TOLERANCE = 1e-4

TINY_VOCAB = 20
TINY_SIZES = {"embed_dim": 6, "hidden_dim": 6, "node_dim": 4}

# the full-size check: a central-difference step, and the smaller one a
# failing tensor is measured again at
FULL_STEPS = (1e-6, 1e-7)
FULL_TOLERANCE = 1e-6
# no product's inner dimension depends on the vocabulary, so it stays small
FULL_VOCAB = 1000
# sentence lengths of its ragged document: a one-token sentence among them
RAGGED_LENGTHS = (1, 7, 30, 2, 19, 30, 4)
SINGLE_LENGTH = 12


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_err: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tolerance

    def to_dict(self) -> dict:
        return {
            "max_rel_err": self.max_rel_err,
            "name": self.name,
            "passed": self.passed,
            "tolerance": self.tolerance,
        }


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """The worst elementwise error; a NaN on either side errs infinitely,
    since ``max`` would otherwise drop it and pass the check."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.nan_to_num(np.max(np.abs(analytic - numeric) / denom), nan=np.inf))


def _central_difference(t: Tensor, delta: np.ndarray, forward_fn: Callable[[], Tensor]) -> float:
    """Half the change in ``forward_fn``'s scalar from ``t - delta`` to
    ``t + delta``; ``t`` keeps its values."""
    orig = t.values.copy()
    np.add(orig, delta, out=t.values)
    up = float(forward_fn().values[0])
    np.subtract(orig, delta, out=t.values)
    down = float(forward_fn().values[0])
    np.copyto(t.values, orig)
    return (up - down) / 2


def _unit_directions(t: Tensor):
    """Every coordinate's unit vector in ``t``'s shape, one at a time in one
    buffer: all of them at once would take ``t.size`` squared floats."""
    direction = np.zeros(t.shape)
    for idx in np.ndindex(t.shape):
        direction[idx] = 1.0
        yield direction
        direction[idx] = 0.0


def _compare(tensors: Sequence[Tensor], forward_fn: Callable[[], Tensor],
             directions: Callable[[Tensor], Iterable[np.ndarray]], steps: Sequence[float],
             tolerance: float) -> float:
    """Worst relative error between each tensor's tape gradient along each of
    ``directions(t)`` and the central difference along it. A direction that
    errs by ``tolerance`` or more at the first of ``steps`` is measured again
    at the next, and the last error stands: a step across a leaky-ReLU or
    max-pool kink errs less at a smaller step, a wrong rule does not."""
    for t in tensors:
        t.zero_grad()
    with Tape() as tape:
        out = forward_fn()
    ad.backward(tape, out)
    grads = [np.zeros_like(t.values) if t.grad is None else ad._dense(t.grad) for t in tensors]
    worst = 0.0
    for t, analytic in zip(tensors, grads):
        for direction in directions(t):
            slope = float(np.vdot(analytic, direction))
            for step in steps:
                err = _rel_err(slope, _central_difference(t, step * direction, forward_fn) / step)
                if err < tolerance:
                    break
            worst = max(worst, err)
    return worst


def _weighted(out: Tensor, weights: np.ndarray) -> Tensor:
    """sum(out * weights) as a length-1 tensor, through ops the models record."""
    n = out.size
    return ad.reshape(ad.matmul(ad.reshape(out, (1, n)), Tensor(weights.reshape(n, 1))), (1,))


def _op_fixtures(rng: np.random.Generator) -> dict[str, tuple[list[Tensor], Callable]]:
    """One deterministic gradient fixture per differentiable op.

    A fixture gives its input tensors and its op call. ``register`` makes a
    non-scalar output a scalar loss, weighting it by a random array drawn in
    the output's own shape.
    """
    fixtures: dict[str, tuple[list[Tensor], Callable]] = {}

    def register(name, tensors, op):
        out = op(*tensors)
        if out.size == 1:
            fixtures[name] = (tensors, lambda: op(*tensors))
            return
        weights = rng.normal(size=out.shape)
        fixtures[name] = (tensors, lambda: _weighted(op(*tensors), weights))

    def normal(*shape):
        return Tensor(rng.normal(size=shape))

    away = rng.normal(size=(3, 3))
    mask = np.ones((3, 4), dtype=bool)
    mask[0, 1] = mask[2, 3] = False
    for name, tensors, op in (
        # the plain product and the fused bias in both of its shapes
        ("matmul", [normal(4, 5), normal(5, 3), normal(3), normal(1, 3)],
         lambda a, b, bias, row: ad.add(ad.matmul(a, b), ad.add(ad.matmul(a, b, bias),
                                                                ad.matmul(a, b, row)))),
        # equal shapes, plus a row-broadcast bias
        ("add", [normal(3, 4), normal(3, 4), normal(4)],
         lambda x, y, row: ad.add(ad.add(x, y), ad.add(x, row))),
        ("mul", [normal(3, 4), normal(3, 4), normal(4)],
         lambda x, y, row: ad.add(ad.mul(x, y), ad.mul(x, row))),
        ("sigmoid", [normal(3, 3)], ad.sigmoid),
        ("tanh", [normal(3, 3)], ad.tanh),
        # unsorted, uneven lengths: the op batches sequences longest first
        ("lstm_last", [normal(6, 8), normal(2, 8)],
         lambda xw, w_h: ad.lstm_last(xw, w_h, [3, 1, 2])),
        # inputs kept at least 0.05 from the kink at 0
        ("leaky_relu", [Tensor(away + np.sign(away) * 0.05)], lambda x: ad.leaky_relu(x, 0.2)),
        ("softmax_rows", [normal(3, 4)],
         lambda x: ad.add(ad.softmax_rows(x), ad.softmax_rows(x, mask=mask))),
        ("max_over_rows", [normal(5, 3)], ad.max_over_rows),
        ("concat_cols", [normal(3, 2), normal(3, 3)], lambda *parts: ad.concat_cols(parts)),
        ("concat_rows", [normal(2, 3), normal(1, 3)], lambda *parts: ad.concat_rows(parts)),
        ("cross_entropy_logits", [normal(5)], lambda x: ad.cross_entropy_logits(x, 2)),
        # a repeated id sums two gradients into one row
        ("gather_rows", [normal(6, 3)], lambda x: ad.gather_rows(x, [0, 2, 2, 5])),
        ("transpose", [normal(3, 4)], ad.transpose),
        ("reshape", [normal(3, 4)], lambda x: ad.reshape(x, (2, 6))),
        ("slice_rows", [normal(5, 3)], lambda x: ad.slice_rows(x, 1, 4)),
        ("pad_rows", [normal(2, 3)], lambda x: ad.pad_rows(x, 1, 2)),
        ("scale", [normal(3, 3)], lambda x: ad.scale(x, 0.7)),
    ):
        register(name, tensors, op)
    return fixtures


def check_ops() -> list[CheckResult]:
    """One finite-difference check per differentiable op, sorted by name."""
    fixtures = _op_fixtures(np.random.default_rng(SEED))
    missing = set(ad.OP_NAMES) - set(fixtures)
    if missing:
        raise AssertionError(f"ops without gradient fixtures: {sorted(missing)}")
    extra = set(fixtures) - set(ad.OP_NAMES)
    if extra:
        raise AssertionError(f"fixtures for unknown ops: {sorted(extra)}")
    results = []
    for name in sorted(fixtures):
        tensors, fn = fixtures[name]
        err = _compare(tensors, fn, _unit_directions, (FD_STEP,), OP_TOLERANCE)
        results.append(CheckResult(name, err, OP_TOLERANCE))
    return results


def _edge_weights(rng: np.random.Generator, docs: list[Document]) -> EdgeWeightSet:
    """A symmetric, zero-diagonal similarity matrix for each document."""
    matrices = {}
    for doc in docs:
        m = rng.uniform(0.1, 1.0, size=(doc.n_sentences, doc.n_sentences))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0.0)
        matrices[doc.id] = m
    return EdgeWeightSet(matrices)


def _build(variant: str, vocab_size: int, docs: Sequence[tuple[str, int, Sequence[int]]],
           **sizes):
    """The generator seeded with ``SEED``, the tensors of a model of
    ``variant`` it draws, and one loss function per document it then draws
    (each given as id, label and sentence lengths). For a variant that reads
    edge weights, the documents' matrices are drawn last."""
    rng = np.random.default_rng(SEED)
    config = ModelConfig(variant=variant, vocab_size=vocab_size,
                         class_names=("satire", "trusted"), seed=SEED, **sizes)
    params = init_params(config, rng)
    documents = [Document(doc_id, label, tuple(
        tuple(int(t) for t in rng.integers(2, vocab_size, n)) for n in lengths))
        for doc_id, label, lengths in docs]
    weights = _edge_weights(rng, documents) if config.spec.edge_weights else None

    def loss_fn(doc):
        return lambda: model_loss(forward(doc, params, config, weights)[0], doc.label)
    return rng, list(params.tensors.values()), [loss_fn(doc) for doc in documents]


def check_variant(variant: str) -> CheckResult:
    """End-to-end gradient check of one variant on a tiny model."""
    _, tensors, [loss_fn] = _build(variant, TINY_VOCAB, [("tiny", 1, (4, 4, 4))], **TINY_SIZES)
    err = _compare(tensors, loss_fn, _unit_directions, (FD_STEP,), VARIANT_TOLERANCE)
    return CheckResult(f"variant:{variant}", err, VARIANT_TOLERANCE)


def check_variants() -> list[CheckResult]:
    return [check_variant(v) for v in VARIANTS]


def check_variant_full(variant: str) -> CheckResult:
    """End-to-end gradient check of one variant at the default sizes, on a
    document of ragged sentences, one of them a single token, and on a
    one-sentence document, which graph variants project without propagation."""
    rng, tensors, losses = _build(
        variant, FULL_VOCAB, [("ragged", 1, RAGGED_LENGTHS), ("single", 0, (SINGLE_LENGTH,))])

    def random_direction(t: Tensor) -> list[np.ndarray]:
        direction = rng.normal(size=t.shape)
        return [direction / np.linalg.norm(direction)]
    worst = max(_compare(tensors, loss_fn, random_direction, FULL_STEPS, FULL_TOLERANCE)
                for loss_fn in losses)
    return CheckResult(f"variant_full:{variant}", worst, FULL_TOLERANCE)


def run_all() -> dict:
    """The full gradient suite; report dict is JSON-serializable."""
    ops = check_ops()
    variants = check_variants()
    full_size = [check_variant_full(v) for v in VARIANTS]
    return {
        "full_size": [r.to_dict() for r in full_size],
        "ops": [r.to_dict() for r in ops],
        "passed": all(r.passed for r in ops + variants + full_size),
        "variants": [r.to_dict() for r in variants],
    }
