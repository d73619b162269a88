"""Dense-tensor computation with reverse-mode differentiation and Adam.

Everything numeric in this package runs through the small op set defined
here: 64-bit float tensors (1-D or 2-D), a tape that records executed ops
in order, a reverse pass that accumulates gradients, and the Adam update.

Design rules:

* ops compute with numpy but the tape, every backward rule, and the
  optimizer are implemented here;
* an op records onto the active tape (see :class:`Tape`) only when one
  is active, so evaluation-time forwards carry no graph overhead;
* gradients accumulate into ``Tensor.grad``; zeroing between steps is
  the caller's job; ``gather_rows`` gives its input a :class:`RowSparseGrad`
  holding the touched rows only;
* no broadcasting beyond adding/multiplying a 1-by-n (or flat n) row
  against an m-by-n matrix, which keeps every backward rule explicit.

Backward rules live in the module-level ``BACKWARD_RULES`` registry keyed
by op name, which also lets the gradient self-check suite inject a broken
rule as a negative control.
"""

from __future__ import annotations

import contextvars
import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError, ShapeError, is_finite_real, is_int

__all__ = [
    "Tensor",
    "RowSparseGrad",
    "Tape",
    "TapeEntry",
    "AdamState",
    "BACKWARD_RULES",
    "OP_NAMES",
    "matmul",
    "add",
    "mul",
    "sigmoid",
    "tanh",
    "lstm_last",
    "leaky_relu",
    "softmax_rows",
    "max_over_rows",
    "concat_cols",
    "concat_rows",
    "cross_entropy_logits",
    "gather_rows",
    "transpose",
    "reshape",
    "slice_rows",
    "pad_rows",
    "scale",
    "backward",
    "zero_grads",
    "adam_step",
    "adam_sync",
]


class Tensor:
    """A 1-D or 2-D array of 64-bit floats, optionally carrying a gradient.

    :func:`backward` fills ``grad`` on every tensor it reaches from the
    loss, parameters and intermediate results alike. Values supplied from
    outside must be finite. ``pending`` links a parameter to the optimizer
    that gave it its first row-sparse step (see :func:`adam_step`), for
    that optimizer's life, so :func:`gather_rows` can catch up the rows it
    reads; it is ``None`` otherwise.
    """

    __slots__ = ("values", "grad", "pending")

    def __init__(self, values):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim not in (1, 2):
            raise ShapeError(f"tensors are 1-D or 2-D, got ndim={arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor values must be finite")
        self.values = arr
        self.grad: np.ndarray | RowSparseGrad | None = None
        self.pending: tuple[AdamState, str] | None = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Fast path for op outputs: skips the finite check on the hot loop.
        t = cls.__new__(cls)
        t.values = arr
        t.grad = None
        t.pending = None
        return t

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def zero_grad(self) -> None:
        self.grad = None


@dataclass(eq=False)
class RowSparseGrad:
    """The gradient of a 2-D tensor that is zero outside a few rows.

    ``ids`` holds the sorted, unique indices of those rows and ``rows`` their
    values, one row per id; ``shape`` is the full tensor's shape.
    """

    ids: np.ndarray
    rows: np.ndarray
    shape: tuple[int, int]

    @property
    def nbytes(self) -> int:
        return self.ids.nbytes + self.rows.nbytes

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.ids] = self.rows
        return out


def _dense(g: np.ndarray | RowSparseGrad) -> np.ndarray:
    return g.dense() if isinstance(g, RowSparseGrad) else g


@dataclass
class TapeEntry:
    """One executed op: inputs, output, and whatever backward needs."""

    op: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    ctx: dict


_ACTIVE_TAPE: contextvars.ContextVar["Tape | None"] = contextvars.ContextVar(
    "docgraph_active_tape", default=None
)


class Tape:
    """Ordered record of executed ops, in execution (topological) order.

    Use as a context manager around a forward pass; ops executed inside
    the ``with`` block are recorded. A tape and its tensors are owned by
    one forward/backward pass. Activation is tracked per execution context,
    but passes on distinct tapes must not run in parallel over one model:
    :func:`gather_rows` catches up the lagging rows of a parameter that
    Adam updates row-sparsely in place (see ``Tensor.pending``).
    """

    def __init__(self):
        self.entries: list[TapeEntry] = []

    def __enter__(self) -> "Tape":
        self._token = _ACTIVE_TAPE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        _ACTIVE_TAPE.reset(self._token)
        return False

    def __len__(self) -> int:
        return len(self.entries)


def _record(op: str, inputs: tuple[Tensor, ...], output: Tensor, **ctx) -> Tensor:
    tape = _ACTIVE_TAPE.get()
    if tape is not None:
        tape.entries.append(TapeEntry(op, inputs, output, ctx))
    return output


BACKWARD_RULES: dict[str, Callable[[TapeEntry], tuple]] = {}


def _rule(name: str):
    def register(fn):
        BACKWARD_RULES[name] = fn
        return fn

    return register


# ---------------------------------------------------------------------------
# matmul

def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product of two 2-D tensors; c[i,j] = sum_k a[i,k] b[k,j].

    An optional ``bias`` row, of shape (n,) or (1, n) for an (m, n) product,
    is added to every row of the product in place, in the product's own
    array: the bytes of ``add(matmul(a, b), bias)`` without its second
    (m, n) array. The op is then one tape entry with inputs (a, b, bias),
    and its rule returns the gradients of those two ops.
    """
    if a.values.ndim != 2 or b.values.ndim != 2:
        raise ShapeError("matmul requires 2-D tensors")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} x {b.shape}")
    if bias is None:
        return _record("matmul", (a, b), Tensor._wrap(a.values @ b.values))
    if bias.shape not in ((b.shape[1],), (1, b.shape[1])):
        raise ShapeError(f"matmul bias must be ({b.shape[1]},) or (1, {b.shape[1]}), "
                         f"got {bias.shape}")
    out_v = a.values @ b.values
    out_v += bias.values
    return _record("matmul", (a, b, bias), Tensor._wrap(out_v))


@_rule("matmul")
def _matmul_bwd(e: TapeEntry):
    a, b = e.inputs[:2]
    g = e.output.grad
    grads = g @ b.values.T, a.values.T @ g
    if len(e.inputs) == 3:
        return grads + (_broadcast_grad(e.inputs[2], g),)
    return grads


# ---------------------------------------------------------------------------
# elementwise binary ops (equal shapes, plus row-broadcast of a 1-by-n bias)

def _check_binary(a: Tensor, b: Tensor) -> bool:
    """Validate shapes; returns True when b row-broadcasts over a."""
    if a.shape == b.shape:
        return False
    if a.values.ndim == 2 and b.shape in ((a.shape[1],), (1, a.shape[1])):
        return True
    raise ShapeError(f"incompatible shapes for elementwise op: {a.shape} vs {b.shape}")


def _broadcast_grad(b: Tensor, g: np.ndarray) -> np.ndarray:
    return g.sum(axis=0).reshape(b.shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    bcast = _check_binary(a, b)
    out = Tensor._wrap(a.values + b.values)
    return _record("add", (a, b), out, bcast=bcast)


@_rule("add")
def _add_bwd(e: TapeEntry):
    _, b = e.inputs
    g = e.output.grad
    return g, _broadcast_grad(b, g) if e.ctx["bcast"] else g


def mul(a: Tensor, b: Tensor) -> Tensor:
    bcast = _check_binary(a, b)
    out = Tensor._wrap(a.values * b.values)
    return _record("mul", (a, b), out, bcast=bcast)


@_rule("mul")
def _mul_bwd(e: TapeEntry):
    a, b = e.inputs
    g = e.output.grad
    db = g * a.values
    return g * b.values, _broadcast_grad(b, db) if e.ctx["bcast"] else db


# ---------------------------------------------------------------------------
# elementwise unary ops

def _sigmoid(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """1/(1+exp(-v)) written into ``out`` (which may be ``v``) and returned.

    For v < -709.78 exp(-v) overflows to inf and the result is exactly 0;
    the true value there is below the smallest normal float. The caller
    runs it under ``np.errstate(over="ignore")``.
    """
    np.negative(v, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    np.divide(1.0, out, out=out)
    return out


def sigmoid(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        out = Tensor._wrap(_sigmoid(x.values, np.empty(x.shape)))
    return _record("sigmoid", (x,), out)


@_rule("sigmoid")
def _sigmoid_bwd(e: TapeEntry):
    y = e.output.values
    return (e.output.grad * y * (1.0 - y),)


def tanh(x: Tensor) -> Tensor:
    out = Tensor._wrap(np.tanh(x.values))
    return _record("tanh", (x,), out)


@_rule("tanh")
def _tanh_bwd(e: TapeEntry):
    y = e.output.values
    return (e.output.grad * (1.0 - y * y),)


def leaky_relu(x: Tensor, slope: float) -> Tensor:
    v = x.values
    out = Tensor._wrap(np.where(v > 0, v, slope * v))
    return _record("leaky_relu", (x,), out, slope=slope)


@_rule("leaky_relu")
def _leaky_relu_bwd(e: TapeEntry):
    # Derivative at exactly 0 is defined as the slope.
    x = e.inputs[0].values
    slope = e.ctx["slope"]
    return (e.output.grad * np.where(x > 0, 1.0, slope),)


# ---------------------------------------------------------------------------
# LSTM over a batch of sequences, keeping each sequence's last hidden state

def lstm_last(xw: Tensor, w_h: Tensor, lengths: Sequence[int]) -> Tensor:
    """Last hidden state of an LSTM run over each of several sequences.

    ``xw`` stacks every sequence's input projection ``x @ W_x + b``, one
    sequence after another, with gate columns in i|f|o|g order (the three
    sigmoid gates first): it has ``sum(lengths)`` rows and 4H columns.
    ``w_h`` is the (H, 4H) recurrent weight, columns in the same order.
    ``lengths`` must convert to a 1-D integer array and hold no bool.
    Row s of the (len(lengths), H) result is h_T of sequence s and depends
    on that sequence's rows alone.

    The sequences run as one batch, longest first (packed-sequence
    layout), so step t updates exactly the sequences longer than t. The
    per-step activations that backpropagation needs, and every step's
    h_{t-1} packed into one (sum(lengths), H) array, are kept only while a
    tape is recording, so a tape-free call holds one step's arrays at a
    time. Both calls compute the same bytes. A step writes its sigmoid
    gates into one contiguous (3, n, H) array and its tanh gate into
    another. The loop runs under one ``np.errstate(over="ignore")`` for the
    sigmoid's ``exp``. It also hides the overflow warning of an ``h @ w_h``
    that overflows; that changes no value, only the warning is gone.

    A tape-free call with one sequence (the ``lstm`` baseline, a
    one-sentence document) needs no packing and runs on 1-D vectors
    instead, in one (4H,) gate buffer reused by every step: ``pre = h @
    w_h; pre += xw[t]``, then the same ufuncs in place on its contiguous
    i|f|o block and its g block, and ``c = f*c + i*g`` in c's own array.
    Its bytes are the packed loop's: float addition and multiplication are
    commutative, numpy computes a 1-D ``h @ w_h`` and a (1, H) one with the
    same gemv, and every other step is elementwise.
    """
    if w_h.values.ndim != 2 or w_h.shape[1] != 4 * w_h.shape[0]:
        raise ShapeError(f"lstm_last recurrent weight must be (H, 4H), got {w_h.shape}")
    hidden = w_h.shape[0]
    lens = np.asarray(lengths)
    if (lens.ndim != 1 or lens.size == 0 or lens.dtype.kind not in "iu" or lens.min() < 1
            or _holds_bool(lengths)):
        raise ShapeError("lstm_last requires at least one sequence, each of integer "
                         "length >= 1")
    # a length above xw's row count is refused before the sum, which could wrap
    if (xw.values.ndim != 2 or lens.max() > xw.shape[0]
            or xw.shape != (int(lens.sum()), 4 * hidden)):
        raise ShapeError(f"lstm_last input must be ({sum(lens.tolist())}, {4 * hidden}), "
                         f"got {xw.shape}")
    lens = lens.astype(np.intp, copy=False)
    taped = _ACTIVE_TAPE.get() is not None
    if lens.size == 1 and not taped:
        return Tensor._wrap(_lstm_one(xw.values, w_h.values).reshape(1, hidden))
    order = np.argsort(-lens, kind="stable")
    sorted_lens = lens[order]
    starts = (np.cumsum(lens) - lens)[order]
    step_ids = np.arange(sorted_lens[0])[:, None]
    live = sorted_lens > step_ids  # (T, S): sequence s is still running at step t
    batch = live.sum(axis=1).tolist()
    packed_rows = (starts + step_ids)[live]
    w = w_h.values
    h = np.zeros((lens.size, hidden))
    c = np.zeros((lens.size, hidden))
    last = np.empty((lens.size, hidden))
    steps = []
    h_packed = np.empty((xw.shape[0], hidden)) if taped else None
    offset = 0
    with np.errstate(over="ignore"):
        for n in batch:
            pre = xw.values[packed_rows[offset : offset + n]]  # a copy of step t's rows
            c_prev, h_prev = c[:n], h[:n]
            if taped:
                h_packed[offset : offset + n] = h_prev
            offset += n
            pre += h_prev @ w
            i, f, o = _sigmoid(pre[:, : 3 * hidden].reshape(n, 3, hidden).transpose(1, 0, 2),
                               np.empty((3, n, hidden)))
            g = np.tanh(pre[:, 3 * hidden :])
            c = f * c_prev + i * g
            tanh_c = np.tanh(c)
            h = o * tanh_c
            if taped:
                steps.append((i, f, o, g, c_prev, tanh_c))
            last[:n] = h  # rows from n on have ended and keep their final h
    out_v = np.empty_like(last)
    out_v[order] = last
    out = Tensor._wrap(out_v)
    return _record("lstm_last", (xw, w_h), out, order=order, packed_rows=packed_rows,
                   steps=steps, h_packed=h_packed)


def _lstm_one(xw: np.ndarray, w: np.ndarray) -> np.ndarray:
    """h_T of the LSTM over the rows of ``xw`` as one sequence, on 1-D
    vectors (see :func:`lstm_last`)."""
    hidden = w.shape[0]
    h = np.zeros(hidden)
    c = np.zeros(hidden)
    ig, tanh_c = np.empty(hidden), np.empty(hidden)
    pre = np.empty(4 * hidden)  # the step's gates, overwritten in place
    ifo, g = pre[: 3 * hidden], pre[3 * hidden :]
    i, f, o = ifo.reshape(3, hidden)
    with np.errstate(over="ignore"):
        for row in xw:
            np.dot(h, w, out=pre)
            pre += row
            _sigmoid(ifo, ifo)
            np.tanh(g, out=g)
            c *= f
            np.multiply(i, g, out=ig)
            c += ig
            np.multiply(o, np.tanh(c, out=tanh_c), out=h)
    return h


@_rule("lstm_last")
def _lstm_last_bwd(e: TapeEntry):
    # Backpropagation through time over the packed steps, newest first; the
    # recurrent weight's gradient is one product over all steps at the end.
    xw, w_h = e.inputs
    w = w_h.values
    hidden = w.shape[0]
    order = e.ctx["order"]
    dh = e.output.grad[order]
    dc = np.zeros_like(dh)
    dpacked = np.empty_like(xw.values)
    offset = xw.shape[0]
    for i, f, o, g, c_prev, tanh_c in reversed(e.ctx["steps"]):
        n = g.shape[0]
        offset -= n
        dh_n = dh[:n]
        dc_n = dc[:n] + dh_n * o * (1.0 - tanh_c * tanh_c)
        dpre = dpacked[offset : offset + n]
        di, df, do, dg = dpre.reshape(n, 4, hidden).transpose(1, 0, 2)
        di[...] = dc_n * g * i * (1.0 - i)
        df[...] = dc_n * c_prev * f * (1.0 - f)
        do[...] = dh_n * tanh_c * o * (1.0 - o)
        dg[...] = dc_n * i * (1.0 - g * g)
        dh[:n] = dpre @ w.T
        dc[:n] = dc_n * f
    dw = e.ctx["h_packed"].T @ dpacked
    dxw = np.empty_like(dpacked)
    dxw[e.ctx["packed_rows"]] = dpacked
    return dxw, dw


# ---------------------------------------------------------------------------
# softmax over rows with optional boolean mask

def softmax_rows(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Row-wise softmax with max-subtraction; masked entries are exactly 0.

    ``mask`` is a boolean array of x's shape (True = keep). Every row must
    keep at least one entry.
    """
    if x.values.ndim != 2:
        raise ShapeError("softmax_rows requires a 2-D tensor")
    v = x.values
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != v.shape:
            raise ShapeError("mask shape must match input shape")
        if not mask.any(axis=1).all():
            raise NumericError("softmax row is fully masked")
        shifted = np.where(mask, v, -np.inf)
        shifted = shifted - shifted.max(axis=1, keepdims=True)
        ev = np.exp(shifted, where=mask, out=np.zeros_like(v))
    else:
        shifted = v - v.max(axis=1, keepdims=True)
        ev = np.exp(shifted)
    out_v = ev / ev.sum(axis=1, keepdims=True)
    out = Tensor._wrap(out_v)
    return _record("softmax_rows", (x,), out)


@_rule("softmax_rows")
def _softmax_rows_bwd(e: TapeEntry):
    # dx_j = y_j * (g_j - sum_k g_k y_k); masked entries have y = 0.
    y = e.output.values
    g = e.output.grad
    dot = (g * y).sum(axis=1, keepdims=True)
    return (y * (g - dot),)


# ---------------------------------------------------------------------------
# pooling / structural ops

def max_over_rows(x: Tensor) -> Tensor:
    """Column-wise maximum of a 2-D tensor; gradient goes to the argmax row
    per column (lowest index on ties)."""
    if x.values.ndim != 2:
        raise ShapeError("max_over_rows requires a 2-D tensor")
    if x.shape[0] < 1:
        raise ShapeError("max_over_rows requires at least one row")
    argmax = np.argmax(x.values, axis=0)  # first occurrence wins ties
    out = Tensor._wrap(x.values[argmax, np.arange(x.shape[1])])
    return _record("max_over_rows", (x,), out, argmax=argmax)


@_rule("max_over_rows")
def _max_over_rows_bwd(e: TapeEntry):
    x = e.inputs[0]
    g = e.output.grad
    dx = np.zeros_like(x.values)
    dx[e.ctx["argmax"], np.arange(x.shape[1])] = g
    return (dx,)


def _concat(op: str, parts: Sequence[Tensor], axis: int) -> Tensor:
    """Concatenation of 2-D tensors along ``axis``; every other size must match."""
    if not parts:
        raise ShapeError(f"{op} requires at least one part")
    kept = parts[0].shape[1 - axis] if parts[0].values.ndim == 2 else None
    for p in parts:
        if p.values.ndim != 2 or p.shape[1 - axis] != kept:
            raise ShapeError(f"{op} parts must be 2-D with equal "
                             f"{'row' if axis else 'column'} counts")
    out = Tensor._wrap(np.concatenate([p.values for p in parts], axis=axis))
    return _record(op, tuple(parts), out, axis=axis, sizes=[p.shape[axis] for p in parts])


def concat_cols(parts: Sequence[Tensor]) -> Tensor:
    """Column-wise concatenation of 2-D tensors with equal row counts."""
    return _concat("concat_cols", parts, axis=1)


def concat_rows(parts: Sequence[Tensor]) -> Tensor:
    """Row-wise concatenation of 2-D tensors with equal column counts."""
    return _concat("concat_rows", parts, axis=0)


@_rule("concat_cols")
@_rule("concat_rows")
def _concat_bwd(e: TapeEntry):
    g = e.output.grad
    ends = list(accumulate(e.ctx["sizes"]))
    return tuple(g[:, a:b] if e.ctx["axis"] else g[a:b] for a, b in zip([0, *ends], ends))


def gather_rows(matrix: Tensor, ids: Sequence[int]) -> Tensor:
    """Select rows of a 2-D tensor by index; repeated ids sum gradients.

    ``ids`` must convert to a 1-D integer array; float, string or bool ids,
    and a ``True`` among integers, raise ``ShapeError`` instead of being
    cast. Rows of a parameter that lag behind its optimizer are caught up in
    place first, so the result holds the dense Adam update's bytes; two
    threads must not gather from one lagging parameter at once."""
    if matrix.values.ndim != 2:
        raise ShapeError("gather_rows requires a 2-D tensor")
    if not isinstance(ids, np.ndarray):
        ids = list(ids)
    idx = np.asarray(ids)
    if idx.size == 0:
        raise ShapeError("gather_rows requires at least one index")
    if idx.ndim != 1 or idx.dtype.kind not in "iu":
        raise ShapeError(f"gather_rows ids must be integers, got {idx.dtype} of shape "
                         f"{idx.shape}")
    if _holds_bool(ids):
        raise ShapeError("gather_rows ids must be integers, got a bool among them")
    if idx.min() < 0 or idx.max() >= matrix.shape[0]:
        raise ShapeError(
            f"row index out of range: max id {int(idx.max())} for {matrix.shape[0]} rows"
        )
    idx = idx.astype(np.intp, copy=False)
    if matrix.pending is not None:
        state, name = matrix.pending
        _catch_up((matrix.values, state.m[name], state.v[name]), state.rows[name], idx,
                  state.window, state.t)
    out = Tensor._wrap(matrix.values[idx])
    return _record("gather_rows", (matrix,), out, ids=idx)


@_rule("gather_rows")
def _gather_rows_bwd(e: TapeEntry):
    # np.add.at walks the ids in order, so each row's terms are summed in the
    # order a dense zero gradient would sum them, to the byte
    ids, inverse = np.unique(e.ctx["ids"], return_inverse=True)
    rows = np.zeros((ids.size, e.output.shape[1]))
    np.add.at(rows, inverse, e.output.grad)
    return (RowSparseGrad(ids, rows, e.inputs[0].shape),)


def transpose(x: Tensor) -> Tensor:
    if x.values.ndim != 2:
        raise ShapeError("transpose requires a 2-D tensor")
    out = Tensor._wrap(x.values.T.copy())
    return _record("transpose", (x,), out)


@_rule("transpose")
def _transpose_bwd(e: TapeEntry):
    return (e.output.grad.T,)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    """View of x with a 1-D or 2-D ``shape`` of non-negative integers
    (not bools) whose exact product is x's size."""
    if not isinstance(shape, (tuple, list)) or len(shape) not in (1, 2):
        raise ShapeError(f"reshape target must be a 1-D or 2-D shape, got {shape!r}")
    # the product of Python ints cannot wrap around to x's size
    if not all(is_int(d) and d >= 0 for d in shape) or math.prod(map(int, shape)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    out = Tensor._wrap(x.values.reshape(shape))
    return _record("reshape", (x,), out, shape=x.shape)


@_rule("reshape")
def _reshape_bwd(e: TapeEntry):
    return (e.output.grad.reshape(e.ctx["shape"]),)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous row slice (element slice for 1-D tensors); the bounds are
    integers, not bools."""
    n = x.shape[0]
    if not (is_int(start) and is_int(stop) and 0 <= start < stop <= n):
        raise ShapeError(f"invalid slice [{start}:{stop}] of {n} rows")
    out = Tensor._wrap(x.values[start:stop].copy())
    return _record("slice_rows", (x,), out, start=start, stop=stop)


@_rule("slice_rows")
def _slice_rows_bwd(e: TapeEntry):
    dx = np.zeros_like(e.inputs[0].values)
    dx[e.ctx["start"] : e.ctx["stop"]] = e.output.grad
    return (dx,)


def pad_rows(x: Tensor, before: int, after: int) -> Tensor:
    """Prepend/append zero rows to a 2-D tensor; the counts are non-negative
    integers, not bools."""
    if x.values.ndim != 2:
        raise ShapeError("pad_rows requires a 2-D tensor")
    if not (is_int(before) and is_int(after) and before >= 0 and after >= 0):
        raise ShapeError(f"pad counts must be non-negative integers, got {before!r}, "
                         f"{after!r}")
    before, after = int(before), int(after)
    out_v = np.zeros((x.shape[0] + before + after, x.shape[1]))
    out_v[before : before + x.shape[0]] = x.values
    out = Tensor._wrap(out_v)
    return _record("pad_rows", (x,), out, before=before, rows=x.shape[0])


@_rule("pad_rows")
def _pad_rows_bwd(e: TapeEntry):
    b, r = e.ctx["before"], e.ctx["rows"]
    return (e.output.grad[b : b + r],)


def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a Python float constant."""
    out = Tensor._wrap(x.values * c)
    return _record("scale", (x,), out, c=c)


@_rule("scale")
def _scale_bwd(e: TapeEntry):
    return (e.output.grad * e.ctx["c"],)


# ---------------------------------------------------------------------------
# classification loss

def cross_entropy_logits(logits: Tensor, label: int) -> Tensor:
    """-log softmax(logits)[label], computed stably; returns a scalar tensor."""
    if logits.values.ndim != 1:
        raise ShapeError("cross_entropy_logits requires a 1-D logits tensor")
    c = logits.shape[0]
    if not (is_int(label) and 0 <= label < c):
        raise ShapeError(f"label {label!r} out of range for {c} classes")
    v = logits.values
    m = v.max()
    lse = m + np.log(np.exp(v - m).sum())
    out = Tensor._wrap(np.array([lse - v[label]]))
    return _record("cross_entropy_logits", (logits,), out, label=label)


@_rule("cross_entropy_logits")
def _cross_entropy_bwd(e: TapeEntry):
    v = e.inputs[0].values
    m = v.max()
    ev = np.exp(v - m)
    p = ev / ev.sum()
    p[e.ctx["label"]] -= 1.0
    return (p * e.output.grad[0],)


# Every differentiable op, for the gradient self-check suite.
OP_NAMES: tuple[str, ...] = tuple(sorted(BACKWARD_RULES))


# ---------------------------------------------------------------------------
# reverse pass

def backward(tape: Tape, loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) for every tensor reachable from ``loss``.

    The tape is walked once in reverse execution order; entries whose
    output received no gradient are skipped. Gradients add to a tensor's
    existing ``grad``; callers zero parameters between optimizer steps.

    A tensor's first gradient is adopted as its rule returned it, which may
    be a view of, or the same array as, another tensor's gradient; every
    later gradient is added out of place, and nothing writes into a
    gradient. A :class:`RowSparseGrad` (``gather_rows``' embedding gradient)
    is adopted the same way; adding any later gradient to it, or it to a
    dense one, gives the dense sum, so a tensor gathered twice ends with the
    same bytes as when every gradient was dense.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss.grad is None:
        loss.grad = np.ones_like(loss.values)
    else:
        loss.grad = loss.grad + np.ones_like(loss.values)
    for entry in reversed(tape.entries):
        if entry.output.grad is None:
            continue
        grads = BACKWARD_RULES[entry.op](entry)
        for t, g in zip(entry.inputs, grads, strict=True):
            if t.grad is None:
                t.grad = g
            else:
                t.grad = _dense(t.grad) + _dense(g)


def zero_grads(params: dict[str, Tensor]) -> None:
    for t in params.values():
        t.zero_grad()


# ---------------------------------------------------------------------------
# Adam

# Floats per chunk of the in-place Adam update (256 KB): one chunk each of
# p, m, v and g plus the two scratch rows, 1.5 MB, stay in L2 across the
# chunk's twelve ufuncs.
ADAM_CHUNK = 32768

# Steps the untouched rows of a row-sparse parameter may lag behind before
# adam_step brings the whole table up to date. A catch-up replays up to this
# many steps over the rows it reads, so the cap bounds its cost.
ADAM_WINDOW = 32

# Kingma & Ba's default decay rates and epsilon.
ADAM_B1 = 0.9
ADAM_B2 = 0.999
ADAM_EPS = 1e-8

# AdamState.rows' step for a row that no zero-gradient step changes.
FIXED = np.iinfo(np.intp).max

# (step, eps_hat): everything one Adam step's update of a float depends on
# besides that float's p, m, v and gradient (see _adam_pass).
Scalars = tuple[float, float]


@dataclass
class AdamState:
    """Per-parameter Adam moments, the shared step counter, and the steps
    that rows of row-sparse parameters have yet to take. A state serves
    exactly the parameters ``m`` holds moments for.

    ``rows[name]`` exists for a parameter from its first row-sparse step
    in :func:`adam_step` on. It holds, for each row, the step its p, m and
    v are at, or ``FIXED`` for a row whose m and v hold no bit other than
    +0.0: the zero-gradient step leaves such a row as it is (see
    ``_live_rows``), so it is never behind. One scan of m and v builds the
    array at that first step and rebuilds it in place after each dense
    gradient; each row-sparse step sets its ids to the step. So write
    ``m`` or ``v`` of a parameter only before its first row-sparse step.
    A row at step ``t`` holds the dense update's bytes in p, m and v;
    :func:`gather_rows`, :func:`adam_step` and :func:`adam_sync` bring rows
    there through one replay of the steps they owe (``_catch_up``).
    ``window`` holds the scalars of the steps since the last sync, oldest
    first, as they were when each ran, so a later change to ``lr`` does not
    reach back. ``lr`` is the one settable hyperparameter; the decay rates
    and epsilon are ``ADAM_B1``, ``ADAM_B2`` and ``ADAM_EPS``.
    """

    lr: float = 0.001
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    rows: dict[str, np.ndarray] = field(default_factory=dict)
    window: list[Scalars] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: dict[str, Tensor], lr: float | None = None) -> "AdamState":
        """Zero C-ordered moments for every parameter; ``lr`` defaults to the field's."""
        state = cls() if lr is None else cls(lr=lr)
        for name, p in params.items():
            state.m[name] = np.zeros(p.values.shape)
            state.v[name] = np.zeros(p.values.shape)
        return state


def _updatable(a: np.ndarray) -> bool:
    """Whether ``a`` can be updated in place through a flat view."""
    return a.flags.c_contiguous and a.flags.writeable


def _check_row_grad(name: str, g: RowSparseGrad, shape: tuple[int, ...]) -> None:
    ids, rows = g.ids, g.rows
    if len(shape) != 2 or tuple(g.shape) != shape:
        raise ShapeError(f"row-sparse gradient shape {g.shape} != parameter shape "
                         f"{shape} for '{name}'")
    if not isinstance(ids, np.ndarray) or ids.ndim != 1 or ids.dtype.kind not in "iu":
        raise ShapeError(f"row-sparse gradient ids for '{name}' must be a 1-D integer array")
    if ids.size and (ids[0] < 0 or ids[-1] >= shape[0] or np.any(ids[1:] <= ids[:-1])):
        raise ShapeError(f"row-sparse gradient ids for '{name}' must be sorted, unique "
                         f"and below {shape[0]}")
    if rows.shape != (ids.size, shape[1]):
        raise ShapeError(f"row-sparse gradient rows for '{name}' must have shape "
                         f"{(ids.size, shape[1])}")


def _check_moments(name: str, p: Tensor, state: AdamState) -> None:
    for a in (state.m.get(name), state.v.get(name)):
        if not (isinstance(a, np.ndarray) and a.dtype == np.float64
                and a.shape == p.values.shape):
            raise ShapeError(f"Adam moments of '{name}' must be float64 arrays of its shape")


def _holds_bool(values) -> bool:
    """Whether a sequence of indices that is not an array holds a bool: numpy
    takes ``[True, 2]`` as the integer array [1, 2], so no dtype shows it."""
    return not isinstance(values, np.ndarray) and any(
        issubclass(t, (bool, np.bool_)) for t in set(map(type, values)))


def _check_state(params: dict[str, Tensor], state: AdamState) -> None:
    """Raise ``ShapeError`` unless ``params`` are the names ``state`` has
    moments for, and ``NumericError`` naming an out-of-domain setting."""
    if params.keys() != state.m.keys():
        raise ShapeError(f"Adam parameters must be the ones it has moments for: missing "
                         f"{sorted(state.m.keys() - params.keys())}, "
                         f"extra {sorted(params.keys() - state.m.keys())}")
    if not (is_finite_real(state.lr) and state.lr > 0):
        raise NumericError(f"Adam lr must be a finite number above 0, got {state.lr!r}")
    # below FIXED - 1, so the step's t + 1 fits AdamState.rows and is not FIXED
    if not (is_int(state.t) and 0 <= state.t < FIXED - 1):
        raise NumericError(f"Adam t must be a non-negative integer below {FIXED - 1}, "
                           f"got {state.t!r}")


def _scalars(state: AdamState) -> Scalars:
    """The scalars of step ``state.t``."""
    root_bc2 = math.sqrt(1.0 - ADAM_B2 ** state.t)
    return state.lr * root_bc2 / (1.0 - ADAM_B1 ** state.t), ADAM_EPS * root_bc2


def _adam_pass(p: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray | None,
               step: float, eps_hat: float) -> None:
    """Run one Adam step on the flat arrays ``p``, ``m`` and ``v`` in place,
    ``ADAM_CHUNK`` floats at a time. The step runs the operations of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*(g*g)`` and
    ``p = p - (m*step) / (sqrt(v) + eps_hat)`` in that order, where b1, b2
    and eps are ``ADAM_B1``, ``ADAM_B2`` and ``ADAM_EPS``,
    ``step = lr*sqrt(bc2)/bc1`` and ``eps_hat = eps*sqrt(bc2)`` (Kingma &
    Ba's reordered form, algebraically ``lr*(m/bc1) / (sqrt(v/bc2) + eps)``).
    ``g = None`` stands for an all-(+0.0) gradient and runs 8 of the 12
    ufuncs, to the same bytes. Each float goes through the same operations
    in the same order whatever the chunking, so the bytes do not depend
    on it."""
    scratch = np.empty((2, min(ADAM_CHUNK, p.size)))
    for lo in range(0, p.size, ADAM_CHUNK):
        pc = p[lo : lo + ADAM_CHUNK]
        mc = m[lo : lo + ADAM_CHUNK]
        vc = v[lo : lo + ADAM_CHUNK]
        s = scratch[0, : pc.size]
        u = scratch[1, : pc.size]
        np.multiply(mc, ADAM_B1, out=mc)
        np.multiply(vc, ADAM_B2, out=vc)
        if g is None:
            # (1-b1)*g is +0.0, and m + 0.0 turns a -0.0 in m into +0.0 as
            # the full formula does. v needs no + 0.0: it starts at +0.0 and
            # only ever adds (1-b2)*(g*g) >= +0.0, so it never holds -0.0.
            np.add(mc, 0.0, out=mc)
        else:
            gc = g[lo : lo + ADAM_CHUNK]
            np.multiply(gc, 1.0 - ADAM_B1, out=s)
            np.add(mc, s, out=mc)
            np.multiply(gc, gc, out=s)
            np.multiply(s, 1.0 - ADAM_B2, out=s)
            np.add(vc, s, out=vc)
        np.sqrt(vc, out=u)
        np.add(u, eps_hat, out=u)
        np.multiply(mc, step, out=s)
        np.divide(s, u, out=s)
        np.subtract(pc, s, out=pc)


def _catch_up(arrays: Sequence[np.ndarray], at: np.ndarray, ids: np.ndarray,
              window: list[Scalars], now: int) -> None:
    """Bring rows ``ids`` (which may repeat) of p, m and v from the steps
    ``at`` holds for them to step ``now``, and record that in ``at``;
    ``window`` holds the scalars of steps ``now - len(window) + 1`` to
    ``now``. The rows that owe a step are replayed on copies of
    ``ADAM_CHUNK`` floats per array at a time, which stay in cache across
    the steps however many rows a sync catches up. A copy's rows are in
    ascending order of their steps, so the rows that owe step k are a
    prefix: one slice per step."""
    behind = ids[at[ids] < now]
    if behind.size == 0:
        return
    behind = behind[np.lexsort((behind, at[behind]))]  # a repeated id is adjacent
    behind = behind[np.concatenate(([True], behind[1:] != behind[:-1]))]
    per = max(1, ADAM_CHUNK // max(1, arrays[0].shape[1]))
    for part in np.split(behind, range(per, behind.size, per)):
        rows = [a[part] for a in arrays]
        part_at = at[part]
        for k in range(int(part_at[0]) + 1, now + 1):
            owing = int(np.searchsorted(part_at, k))
            _adam_pass(*(r[:owing].reshape(-1) for r in rows), None, *window[k - now - 1])
        for a, r in zip(arrays, rows):
            a[part] = r
    at[behind] = now


def _live_rows(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether each row of the 2-D float64 ``m`` or ``v`` holds a bit other
    than +0.0. A row that does not is a fixed point of the zero-gradient
    step: m and v stay +0.0 and p moves by ``(+0.0*step) / (sqrt(+0.0) +
    eps_hat)``, +0.0, so it keeps its bytes, a -0.0 included. A -0.0 in m
    counts, as the step turns it into +0.0."""
    return m.view(np.uint64).any(axis=1) | v.view(np.uint64).any(axis=1)


def _own_arrays(name: str, p: Tensor, state: AdamState) -> tuple[np.ndarray, ...]:
    """p, m and v of parameter ``name``, each first replaced by a copy if it
    cannot be updated in place through a flat view."""
    if not _updatable(p.values):
        p.values = p.values.copy()
    for moments in (state.m, state.v):
        if not _updatable(moments[name]):
            moments[name] = moments[name].copy()
    return p.values, state.m[name], state.v[name]


def adam_sync(params: dict[str, Tensor], state: AdamState) -> None:
    """Bring every row of every parameter up to step ``state.t``.

    Afterwards ``p.values``, ``state.m`` and ``state.v`` hold the bytes of
    the dense per-step update, as if every step had updated every row, and
    ``state.window`` is empty. Call it before reading a row-sparse
    parameter's values or moments other than through :func:`gather_rows`.
    Aborts before any update, as :func:`adam_step` does, if ``params`` does
    not name exactly the parameters ``state`` has moments for, a setting is
    out of domain or a row-sparse parameter's moments do not match it. Only
    the rows that ``state.rows`` has behind ``state.t`` are replayed,
    through the same catch-up as :func:`gather_rows`'; the step arrays stay.
    """
    _check_state(params, state)
    for name in state.rows:
        _check_moments(name, params[name], state)
    for name, at in state.rows.items():
        _catch_up(_own_arrays(name, params[name], state), at, np.flatnonzero(at < state.t),
                  state.window, state.t)
    state.window.clear()


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray | RowSparseGrad],
    state: AdamState,
) -> None:
    """One Adam update with bias correction over every parameter of ``state``.

    ``p.values``, ``state.m[name]`` and ``state.v[name]`` are updated in
    place, so training changes the arrays handed to ``model.bind_params``.
    An array that is not C-contiguous and writable (Fortran-ordered, a
    transposed view, read-only) is first replaced by a copy that is. The
    update runs ``ADAM_CHUNK`` floats at a time (see ``_adam_pass``), so no
    array of a parameter's size is allocated and every value is the one the
    unchunked formula gives. That formula is Kingma & Ba's reordered form:
    one divide per float instead of the textbook
    ``lr*(m/bc1) / (sqrt(v/bc2) + eps)``'s three, the same ``m`` and ``v``
    bytes, and ``p`` within a few ulp of the textbook's.

    A :class:`RowSparseGrad` updates every row as its dense form would, but
    the rows outside its ids are deferred: they take the zero-gradient
    update later, in a replay of the steps they owe with each step's own
    scalars, which gives the same bytes. The parameter's first row-sparse
    step builds its ``state.rows`` array (see :class:`AdamState`) and links
    its ``Tensor.pending`` to ``state``, so :func:`gather_rows` catches up
    exactly the rows it reads and every forward sees the dense update's
    bytes. Each row-sparse step catches up the rows in ``ids`` to the
    previous step, gives them the full update and sets their entries to
    ``state.t``; the step's scalars join ``state.window``. :func:`adam_sync`
    brings the whole table up to date; the step calls it once the window
    reaches ``ADAM_WINDOW`` steps. A dense gradient catches up every row of
    its parameter to the previous step, updates them all and rebuilds the
    array in place with the same scan. Read ``p.values``, ``state.m`` or
    ``state.v`` of a row-sparse parameter only after a sync.

    Aborts before touching any parameter or moment if ``params`` does not
    name exactly the parameters ``state`` has moments for, ``lr`` is not
    finite and above 0, ``t`` is not a non-negative integer below
    ``FIXED - 1``, a gradient (a row-sparse one's rows) is missing, not an
    integer or float array, non-finite or mis-shaped, a row-sparse
    gradient's ids are not sorted, unique and in range, or the moments are
    not float64 arrays of the parameter's shape, so a failed step leaves
    the model and the optimizer unchanged, lagging rows included.
    """
    _check_state(params, state)
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            raise NumericError(f"missing gradient for parameter '{name}'")
        values = g.rows if isinstance(g, RowSparseGrad) else g
        if not (isinstance(values, np.ndarray) and values.dtype.kind in "iuf"):
            raise NumericError(f"gradient for '{name}' must be an integer or float array")
        if isinstance(g, RowSparseGrad):
            _check_row_grad(name, g, p.values.shape)
        elif g.shape != p.values.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape "
                             f"{p.values.shape} for '{name}'")
        _check_moments(name, p, state)
        if not np.all(np.isfinite(values)):
            raise NumericError(f"non-finite gradient for parameter '{name}'")
    state.t += 1
    scalars = _scalars(state)
    for name, p in params.items():
        arrays = _own_arrays(name, p, state)
        g = grads[name]
        at = state.rows.get(name)
        # the catch-ups run before this step's scalars join the window
        if isinstance(g, RowSparseGrad):
            if at is None:
                at = state.rows[name] = np.where(_live_rows(*arrays[1:]), state.t - 1, FIXED)
                p.pending = (state, name)
            _catch_up(arrays, at, g.ids, state.window, state.t - 1)
            touched = [a[g.ids] for a in arrays]
            _adam_pass(*(a.reshape(-1) for a in touched), g.rows.reshape(-1), *scalars)
            for a, rows in zip(arrays, touched):
                a[g.ids] = rows
            at[g.ids] = state.t
        else:
            if at is not None:
                _catch_up(arrays, at, np.flatnonzero(at < state.t - 1), state.window,
                          state.t - 1)
            _adam_pass(*(a.reshape(-1) for a in arrays), g.reshape(-1), *scalars)
            if at is not None:
                at[:] = np.where(_live_rows(*arrays[1:]), state.t, FIXED)
    state.window.append(scalars)
    if len(state.window) >= ADAM_WINDOW:
        adam_sync(params, state)
