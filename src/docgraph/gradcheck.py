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
from typing import Callable

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


def _compare(tensors: dict[str, Tensor], forward_fn: Callable[[], Tensor]) -> float:
    """Worst relative error between tape gradients and finite differences."""
    for t in tensors.values():
        t.zero_grad()
    with Tape() as tape:
        out = forward_fn()
    ad.backward(tape, out)
    worst = 0.0
    for t in tensors.values():
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


def _op_fixtures(rng: np.random.Generator) -> dict[str, tuple[dict[str, Tensor], Callable]]:
    """One deterministic gradient fixture per differentiable op."""
    fixtures: dict[str, tuple[dict[str, Tensor], Callable]] = {}

    def register(name, tensors, fn):
        fixtures[name] = (tensors, fn)

    a = Tensor(rng.normal(size=(4, 5)))
    b = Tensor(rng.normal(size=(5, 3)))
    bias = Tensor(rng.normal(size=3))
    bias_row = Tensor(rng.normal(size=(1, 3)))
    w_ab = rng.normal(size=(3, 4, 3))
    # the plain product and the fused bias in both of its shapes
    register("matmul", {"a": a, "b": b, "bias": bias, "bias_row": bias_row},
             lambda bias=bias, bias_row=bias_row: ad.add(
                 _weighted(ad.matmul(a, b), w_ab[0]),
                 ad.add(_weighted(ad.matmul(a, b, bias), w_ab[1]),
                        _weighted(ad.matmul(a, b, bias_row), w_ab[2]))))

    for name, op in (("add", ad.add), ("mul", ad.mul)):
        x = Tensor(rng.normal(size=(3, 4)))
        y = Tensor(rng.normal(size=(3, 4)))
        bias = Tensor(rng.normal(size=4))
        w = rng.normal(size=(3, 4))
        register(
            name,
            {"x": x, "y": y, "bias": bias},
            lambda op=op, x=x, y=y, bias=bias, w=w: ad.add(
                _weighted(op(x, y), w), _weighted(op(x, bias), w)),
        )

    for name, fn in (("sigmoid", ad.sigmoid), ("tanh", ad.tanh)):
        x = Tensor(rng.normal(size=(3, 3)))
        w = rng.normal(size=(3, 3))
        register(name, {"x": x}, lambda fn=fn, x=x, w=w: _weighted(fn(x), w))

    # unsorted, uneven lengths: the op batches sequences longest first
    lengths = [3, 1, 2]
    xw = Tensor(rng.normal(size=(sum(lengths), 8)))
    w_h = Tensor(rng.normal(size=(2, 8)))
    w_lstm = rng.normal(size=(3, 2))
    register("lstm_last", {"xw": xw, "w_h": w_h},
             lambda: _weighted(ad.lstm_last(xw, w_h, lengths), w_lstm))

    x_lr = Tensor(rng.normal(size=(3, 3)) + np.sign(rng.normal(size=(3, 3))) * 0.05)
    w_lr = rng.normal(size=(3, 3))
    register("leaky_relu", {"x": x_lr},
             lambda: _weighted(ad.leaky_relu(x_lr, 0.2), w_lr))

    x_sm = Tensor(rng.normal(size=(3, 4)))
    mask = np.ones((3, 4), dtype=bool)
    mask[0, 1] = mask[2, 3] = False
    w_sm = rng.normal(size=(3, 4))
    register(
        "softmax_rows", {"x": x_sm},
        lambda: ad.add(_weighted(ad.softmax_rows(x_sm), w_sm),
                       _weighted(ad.softmax_rows(x_sm, mask=mask), w_sm)),
    )

    x_max = Tensor(rng.normal(size=(5, 3)))
    w_max = rng.normal(size=3)
    register("max_over_rows", {"x": x_max},
             lambda: _weighted(ad.max_over_rows(x_max), w_max))

    c1 = Tensor(rng.normal(size=(3, 2)))
    c2 = Tensor(rng.normal(size=(3, 3)))
    w_cc = rng.normal(size=(3, 5))
    register("concat_cols", {"a": c1, "b": c2},
             lambda: _weighted(ad.concat_cols([c1, c2]), w_cc))

    r1 = Tensor(rng.normal(size=(2, 3)))
    r2 = Tensor(rng.normal(size=(1, 3)))
    w_cr = rng.normal(size=(3, 3))
    register("concat_rows", {"a": r1, "b": r2},
             lambda: _weighted(ad.concat_rows([r1, r2]), w_cr))

    logits = Tensor(rng.normal(size=5))
    register("cross_entropy_logits", {"logits": logits},
             lambda: ad.cross_entropy_logits(logits, 2))

    m_g = Tensor(rng.normal(size=(6, 3)))
    w_g = rng.normal(size=(4, 3))
    register("gather_rows", {"m": m_g},
             lambda: _weighted(ad.gather_rows(m_g, [0, 2, 2, 5]), w_g))

    x_t = Tensor(rng.normal(size=(3, 4)))
    w_t = rng.normal(size=(4, 3))
    register("transpose", {"x": x_t}, lambda: _weighted(ad.transpose(x_t), w_t))

    x_r = Tensor(rng.normal(size=(3, 4)))
    w_r = rng.normal(size=(2, 6))
    register("reshape", {"x": x_r}, lambda: _weighted(ad.reshape(x_r, (2, 6)), w_r))

    x_s = Tensor(rng.normal(size=(5, 3)))
    w_s = rng.normal(size=(3, 3))
    register("slice_rows", {"x": x_s},
             lambda: _weighted(ad.slice_rows(x_s, 1, 4), w_s))

    x_p = Tensor(rng.normal(size=(2, 3)))
    w_p = rng.normal(size=(5, 3))
    register("pad_rows", {"x": x_p}, lambda: _weighted(ad.pad_rows(x_p, 1, 2), w_p))

    x_sc = Tensor(rng.normal(size=(3, 3)))
    w_sc = rng.normal(size=(3, 3))
    register("scale", {"x": x_sc}, lambda: _weighted(ad.scale(x_sc, 0.7), w_sc))

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

    worst = _compare(params.tensors, forward_fn)
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
