"""Finite-difference verification of every backward rule and model variant.

Each differentiable op gets one deterministic fixture; its analytic
gradients are compared elementwise against central finite differences
(h = 1e-5) with relative error |a - f| / max(1, |a|, |f|). Every model
variant is additionally checked end-to-end on a tiny configuration,
differentiating the loss against every named parameter.

This is the release gate behind the ``gradcheck`` CLI command; the test
suite calls the same entry points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .corpus import Document
from .graph import EdgeWeightSet
from .model import VARIANTS, ModelConfig, forward, init_params
from .model import loss as model_loss

FD_STEP = 1e-5
OP_TOLERANCE = 1e-6
VARIANT_TOLERANCE = 1e-4

TINY_VOCAB = 20
TINY_EMBED = 6
TINY_HIDDEN = 6
TINY_NODE = 4


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
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def _compare(tensors: Sequence[Tensor], forward_fn: Callable[[], Tensor]) -> float:
    """Worst relative error between tape gradients and finite differences."""
    for t in tensors:
        t.zero_grad()
    with Tape() as tape:
        out = forward_fn()
    ad.backward(tape, out)
    worst = 0.0
    for t in tensors:
        if t.grad is None:
            analytic = np.zeros_like(t.values)
        elif isinstance(t.grad, ad.RowSparseGrad):
            analytic = t.grad.dense()
        else:
            analytic = t.grad
        numeric = np.zeros_like(t.values)
        it = np.nditer(t.values, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = t.values[idx]
            t.values[idx] = orig + FD_STEP
            up = float(forward_fn().values[0])
            t.values[idx] = orig - FD_STEP
            down = float(forward_fn().values[0])
            t.values[idx] = orig
            numeric[idx] = (up - down) / (2 * FD_STEP)
            it.iternext()
        worst = max(worst, _rel_err(analytic, numeric))
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


def check_ops(seed: int = 0) -> list[CheckResult]:
    """One finite-difference check per differentiable op, sorted by name."""
    fixtures = _op_fixtures(np.random.default_rng(seed))
    missing = set(ad.OP_NAMES) - set(fixtures)
    if missing:
        raise AssertionError(f"ops without gradient fixtures: {sorted(missing)}")
    extra = set(fixtures) - set(ad.OP_NAMES)
    if extra:
        raise AssertionError(f"fixtures for unknown ops: {sorted(extra)}")
    results = []
    for name in sorted(fixtures):
        tensors, fn = fixtures[name]
        results.append(CheckResult(name, _compare(tensors, fn), OP_TOLERANCE))
    return results


def _tiny_setup(variant: str, seed: int):
    rng = np.random.default_rng(seed)
    config = ModelConfig(
        variant=variant, vocab_size=TINY_VOCAB,
        class_names=("satire", "trusted"), embed_dim=TINY_EMBED,
        hidden_dim=TINY_HIDDEN, node_dim=TINY_NODE, seed=seed,
    )
    params = init_params(config, rng)
    n = 3
    doc = Document(
        "tiny", 1,
        tuple(tuple(int(t) for t in rng.integers(2, TINY_VOCAB, size=4))
              for _ in range(n)),
    )
    m = rng.uniform(0.1, 1.0, size=(n, n))
    m = (m + m.T) / 2
    np.fill_diagonal(m, 0.0)
    weights = EdgeWeightSet({"tiny": m}) if config.spec.edge_weights else None
    return config, params, doc, weights


def check_variant(variant: str, seed: int = 0) -> CheckResult:
    """End-to-end gradient check of one variant on a tiny model."""
    config, params, doc, weights = _tiny_setup(variant, seed)

    def forward_fn():
        logits, _ = forward(doc, params, config, weights)
        return model_loss(logits, doc.label)

    worst = _compare(list(params.tensors.values()), forward_fn)
    return CheckResult(f"variant:{variant}", worst, VARIANT_TOLERANCE)


def check_variants(seed: int = 0) -> list[CheckResult]:
    return [check_variant(v, seed) for v in VARIANTS]


def run_all(seed: int = 0) -> dict:
    """The full gradient suite; report dict is JSON-serializable."""
    ops = check_ops(seed)
    variants = check_variants(seed)
    return {
        "ops": [r.to_dict() for r in ops],
        "passed": all(r.passed for r in ops + variants),
        "variants": [r.to_dict() for r in variants],
    }
