"""Tensor/tape/op contracts, checked against hand values and finite differences."""

import contextlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docgraph import autodiff as ad
from docgraph import gradcheck
from docgraph.errors import NumericError, ShapeError
from docgraph.gradcheck import _weighted


def fd_grad(f, x, h=1e-5):
    """Central finite differences of scalar f at x, elementwise."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + h
        up = f(x)
        x[i] = orig - h
        down = f(x)
        x[i] = orig
        g[i] = (up - down) / (2 * h)
        it.iternext()
    return g


def weighted_sum(out, weights=None):
    """sum(weights * out) on the tape, as gradcheck weights an op's output;
    sum(out) without weights."""
    return _weighted(out, np.ones(out.shape) if weights is None else weights)


def max_rel_err(a, f):
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
    return float(np.max(np.abs(a - f) / denom))


def analytic_grad(op, x, *, weights):
    """Gradient of sum(weights * op(x)) via the tape."""
    t = ad.Tensor(x)
    with ad.Tape() as tape:
        out = op(t)
        loss = weighted_sum(out, weights)
    ad.backward(tape, loss)
    return t.grad.dense() if isinstance(t.grad, ad.RowSparseGrad) else t.grad


def check_op_gradient(op, x, tol=1e-6, seed=0):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=opshape(op, x))
    a = analytic_grad(op, x.copy(), weights=w)
    f = fd_grad(lambda v: float(np.sum(w * op_values(op, v))), x.copy())
    assert max_rel_err(a, f) < tol


def opshape(op, x):
    return op_values(op, x).shape


def op_values(op, x):
    return op(ad.Tensor(x)).values


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(ad.Tensor([[1.0, 0.0], [0.0, 1.0]]), ad.Tensor([[3.0, 4.0], [5.0, 6.0]]))
        assert np.array_equal(out.values, [[3.0, 4.0], [5.0, 6.0]])

    def test_dot_product(self):
        out = ad.matmul(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.values, [[11.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[1.0, 2.0]]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        a = ad.Tensor(rng.normal(size=(4, 5)))
        b = ad.Tensor(rng.normal(size=(5, 3)))
        w = rng.normal(size=(4, 3))
        with ad.Tape() as tape:
            loss = weighted_sum(ad.matmul(a, b), w)
        ad.backward(tape, loss)
        fa = fd_grad(lambda v: float(np.sum(w * (v @ b.values))), a.values.copy())
        fb = fd_grad(lambda v: float(np.sum(w * (a.values @ v))), b.values.copy())
        assert max_rel_err(a.grad, fa) < 1e-6
        assert max_rel_err(b.grad, fb) < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 6), k=st.integers(1, 6),
           n=st.integers(1, 6), row=st.booleans(), taped=st.booleans())
    def test_fused_bias_gives_the_bytes_of_matmul_then_add(self, seed, m, k, n, row, taped):
        rng = np.random.default_rng(seed)
        a_v, b_v = rng.normal(size=(m, k)), rng.normal(size=(k, n))
        bias_v = rng.normal(size=(1, n) if row else n)
        out_grad = rng.normal(size=(m, n))

        def run(fused):
            a, b, bias = ad.Tensor(a_v), ad.Tensor(b_v), ad.Tensor(bias_v)
            with ad.Tape() if taped else contextlib.nullcontext() as tape:
                out = (ad.matmul(a, b, bias) if fused
                       else ad.add(ad.matmul(a, b), bias))
                loss = weighted_sum(out, out_grad)
            if taped:
                ad.backward(tape, loss)
                assert len(tape) == (1 if fused else 2) + 3  # weighted_sum records 3
            return [out.values] + ([a.grad, b.grad, bias.grad] if taped else [])

        fused, unfused = run(fused=True), run(fused=False)
        for got, expected in zip(fused, unfused, strict=True):
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bias_shape", [(4,), (2,), (1, 2), (2, 3), (3, 1), (1, 1, 3)])
    def test_a_mis_shaped_bias_is_rejected_before_any_work(self, bias_shape):
        a, b = ad.Tensor(np.ones((2, 4))), ad.Tensor(np.ones((4, 3)))
        bias = ad.Tensor.__new__(ad.Tensor)
        bias.values = np.ones(bias_shape)
        with ad.Tape() as tape, mock.patch.object(ad.Tensor, "_wrap") as wrap:
            with pytest.raises(ShapeError, match="bias"):
                ad.matmul(a, b, bias)
        assert len(tape) == 0
        wrap.assert_not_called()


# Inputs that stress the sigmoid: signed zeros, exp overflow and underflow
# thresholds, and the largest finite magnitudes.
SIGMOID_FIXED_VALUES = (0.0, -0.0, 710.0, -710.0, -745.0, 1e308, -1e308)
EXTREME_PREACTIVATIONS = (710.0, -710.0, 745.0, -745.0, 1e308, -1e308)

# Largest distance in units in the last place between the direct sigmoid
# and the piecewise form where the result is a normal float (measured: 4).
SIGMOID_MAX_ULPS = 4


def piecewise_sigmoid(v):
    """The boolean-mask form of the stable sigmoid, as an oracle."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def ulps_apart(a, b):
    """Elementwise distance in units in the last place of non-negative floats."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestElementwise:
    def test_leaky_relu_values(self):
        out = ad.leaky_relu(ad.Tensor([-1.0, 0.0, 2.0]), 0.2)
        assert np.allclose(out.values, [-0.2, 0.0, 2.0], atol=0, rtol=0)

    def test_leaky_relu_derivative_at_zero_is_slope(self):
        t = ad.Tensor([0.0])
        with ad.Tape() as tape:
            loss = weighted_sum(ad.leaky_relu(t, 0.2))
        ad.backward(tape, loss)
        assert t.grad[0] == 0.2

    def test_sigmoid_zero(self):
        assert ad.sigmoid(ad.Tensor([0.0])).values[0] == 0.5

    def test_sigmoid_extreme_values_stable(self):
        out = ad.sigmoid(ad.Tensor([800.0, -800.0])).values
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-300)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1.0, 10.0, 800.0]),
           shape=st.sampled_from(["1-D", "2-D", "column slice"]),
           fixed=st.lists(st.sampled_from(SIGMOID_FIXED_VALUES), max_size=8))
    def test_sigmoid_is_within_ulps_of_the_piecewise_form(self, seed, scale, shape, fixed):
        rng = np.random.default_rng(seed)
        v = scale * rng.normal(size=(int(rng.integers(1, 7)), int(rng.integers(1, 13))))
        flat = v.reshape(-1)
        flat[rng.choice(flat.size, size=min(len(fixed), flat.size), replace=False)] = \
            fixed[: flat.size]
        if shape == "1-D":
            v = flat
        elif shape == "column slice":
            v = v[:, int(rng.integers(0, v.shape[1])) :: int(rng.integers(1, 3))]
        expected = piecewise_sigmoid(v)
        tiny = np.finfo(float).tiny
        normal = expected >= tiny
        with warnings.catch_warnings(), np.errstate(over="raise", divide="raise",
                                                    invalid="raise"):
            warnings.simplefilter("error")
            op_out = ad.sigmoid(ad.Tensor(v)).values
            with np.errstate(over="ignore"):  # the helper's callers set this
                out = ad._sigmoid(v, np.empty(v.shape))
        assert op_out.tobytes() == out.tobytes()
        assert out.shape == v.shape and out.dtype == np.float64
        assert np.all(ulps_apart(out[normal], expected[normal]) <= SIGMOID_MAX_ULPS)
        # below v = log(tiny) ~ -708.4 the true value is subnormal: the
        # direct form gives it or, once exp(-v) overflows, exactly 0
        assert np.all(np.abs(out[~normal] - expected[~normal]) <= tiny)

    def test_tanh_gradient(self):
        rng = np.random.default_rng(1)
        check_op_gradient(ad.tanh, rng.normal(size=(3, 3)))

    def test_unary_gradients(self):
        rng = np.random.default_rng(2)
        check_op_gradient(ad.sigmoid, rng.normal(size=(2, 4)))
        check_op_gradient(lambda t: ad.leaky_relu(t, 0.2), rng.normal(size=(3, 3)) + 0.01)

    def test_binary_gradients_and_broadcast(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4))
        bias = rng.normal(size=4)
        for op in (ad.add, ad.mul):
            ta = ad.Tensor(a)
            tb = ad.Tensor(b)
            w = rng.normal(size=(3, 4))
            with ad.Tape() as tape:
                loss = weighted_sum(op(ta, tb), w)
            ad.backward(tape, loss)
            np_op = {ad.add: np.add, ad.mul: np.multiply}[op]
            fa = fd_grad(lambda v: float(np.sum(w * np_op(v, b))), a.copy())
            fb = fd_grad(lambda v: float(np.sum(w * np_op(a, v))), b.copy())
            assert max_rel_err(ta.grad, fa) < 1e-6
            assert max_rel_err(tb.grad, fb) < 1e-6
            # row-broadcast bias form
            ta = ad.Tensor(a)
            tbias = ad.Tensor(bias)
            with ad.Tape() as tape:
                loss = weighted_sum(op(ta, tbias))
            ad.backward(tape, loss)
            fbias = fd_grad(lambda v: float(np.sum(np_op(a, v))), bias.copy())
            assert max_rel_err(tbias.grad, fbias) < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.add(ad.Tensor([[1.0, 2.0]]), ad.Tensor([[1.0], [2.0]]))


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = ad.softmax_rows(ad.Tensor([[0.0, 0.0, 0.0]]))
        assert np.allclose(out.values, 1.0 / 3.0)

    def test_large_values_no_overflow(self):
        out = ad.softmax_rows(ad.Tensor([[1000.0, 0.0]])).values
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-300)

    def test_masked_row_hand_computation(self):
        # independent straight-line computation of softmax over the kept pair
        e1, e2 = math.exp(1.0), math.exp(2.0)
        expected = [e1 / (e1 + e2), e2 / (e1 + e2), 0.0]
        out = ad.softmax_rows(
            ad.Tensor([[1.0, 2.0, 3.0]]), mask=np.array([[True, True, False]])
        )
        assert np.allclose(out.values[0], expected, atol=1e-12)
        assert out.values[0, 2] == 0.0

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.normal(scale=5.0, size=(6, 7)))
        mask = rng.uniform(size=(6, 7)) > 0.3
        mask[:, 0] = True
        for out in (ad.softmax_rows(x), ad.softmax_rows(x, mask=mask)):
            sums = out.values.sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) < 1e-12
            assert np.all(out.values >= 0.0) and np.all(out.values <= 1.0)

    def test_fully_masked_row_error(self):
        with pytest.raises(NumericError):
            ad.softmax_rows(ad.Tensor([[1.0, 2.0]]), mask=np.array([[False, False]]))

    def test_gradient(self):
        rng = np.random.default_rng(6)
        check_op_gradient(ad.softmax_rows, rng.normal(size=(3, 4)))


class TestMaxOverRows:
    def test_basic(self):
        out = ad.max_over_rows(ad.Tensor([[1.0, 5.0], [3.0, 2.0]]))
        assert np.array_equal(out.values, [3.0, 5.0])

    def test_single_row(self):
        out = ad.max_over_rows(ad.Tensor([[7.0, -2.0]]))
        assert np.array_equal(out.values, [7.0, -2.0])

    def test_tie_routes_gradient_to_first_row(self):
        t = ad.Tensor([[2.0], [2.0]])
        with ad.Tape() as tape:
            loss = weighted_sum(ad.max_over_rows(t))
        ad.backward(tape, loss)
        assert np.array_equal(t.grad, [[1.0], [0.0]])

    def test_row_permutation_invariance_exact(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 4))
        perm = rng.permutation(6)
        a = ad.max_over_rows(ad.Tensor(x)).values
        b = ad.max_over_rows(ad.Tensor(x[perm])).values
        assert np.array_equal(a, b)

    def test_gradient(self):
        rng = np.random.default_rng(8)
        check_op_gradient(ad.max_over_rows, rng.normal(size=(5, 3)))


class TestConcat:
    def test_concat_cols(self):
        out = ad.concat_cols([ad.Tensor([[1.0], [2.0]]), ad.Tensor([[3.0], [4.0]])])
        assert np.array_equal(out.values, [[1.0, 3.0], [2.0, 4.0]])

    def test_single_part_identity(self):
        x = ad.Tensor([[1.0, 2.0]])
        assert np.array_equal(ad.concat_cols([x]).values, x.values)

    @pytest.mark.parametrize("op, a_shape, b_shape, a_part, b_part", [
        (ad.concat_cols, (2, 1), (2, 2), np.s_[:, :1], np.s_[:, 1:]),
        (ad.concat_rows, (1, 2), (2, 2), np.s_[:1], np.s_[1:]),
    ], ids=["concat_cols", "concat_rows"])
    def test_gradient_splits(self, op, a_shape, b_shape, a_part, b_part):
        a, b = ad.Tensor(np.ones(a_shape)), ad.Tensor(np.ones(b_shape))
        w = np.arange(6.0).reshape(op([a, b]).shape)
        with ad.Tape() as tape:
            loss = weighted_sum(op([a, b]), w)
        ad.backward(tape, loss)
        assert np.array_equal(a.grad, w[a_part])
        assert np.array_equal(b.grad, w[b_part])

    def test_concat_rows(self):
        out = ad.concat_rows([ad.Tensor([[1.0, 2.0]]), ad.Tensor([[3.0, 4.0]])])
        assert np.array_equal(out.values, [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("op, shapes, message", [
        (ad.concat_cols, [], "concat_cols requires at least one part"),
        (ad.concat_rows, [], "concat_rows requires at least one part"),
        (ad.concat_cols, [(1, 1), (2, 1)], "concat_cols parts must be 2-D with equal row counts"),
        (ad.concat_cols, [(2,)], "concat_cols parts must be 2-D with equal row counts"),
        (ad.concat_rows, [(1, 1), (1, 2)],
         "concat_rows parts must be 2-D with equal column counts"),
        (ad.concat_rows, [(2,), (1, 2)], "concat_rows parts must be 2-D with equal column counts"),
        (ad.concat_rows, [(1, 2), (2,)], "concat_rows parts must be 2-D with equal column counts"),
    ])
    def test_shape_errors_name_the_op_and_the_axis(self, op, shapes, message):
        with pytest.raises(ShapeError) as excinfo:
            op([ad.Tensor(np.ones(shape)) for shape in shapes])
        assert str(excinfo.value) == message


class TestStructuralOps:
    def test_gather_rows_and_gradient_accumulation(self):
        m = ad.Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        with ad.Tape() as tape:
            out = ad.gather_rows(m, [1, 1])
            loss = weighted_sum(out)
        assert np.array_equal(out.values, [[3.0, 4.0], [3.0, 4.0]])
        ad.backward(tape, loss)
        assert np.array_equal(m.grad.dense(), [[0.0, 0.0], [2.0, 2.0], [0.0, 0.0]])

    def test_gather_out_of_range(self):
        with pytest.raises(ShapeError):
            ad.gather_rows(ad.Tensor([[1.0]]), [1])

    @pytest.mark.parametrize("shape", [(4,), (2, 4), (6, 1, 1), (-2, -3), (-6,), (-1, 6),
                                       (2.0, 3), (True, 6), (6, False), ("2", 3),
                                       (np.float64(6),), (np.bool_(True), 6), 6, None])
    def test_reshape_to_a_bad_target(self, shape):
        with pytest.raises(ShapeError, match="reshape"):
            ad.reshape(ad.Tensor(np.ones((2, 3))), shape)

    @pytest.mark.parametrize("shape", [(2**32, 2**32), (2**63, 2), (2**64,),
                                       (np.int64(2**32), np.int64(2**32))])
    def test_reshape_of_an_empty_tensor_to_a_size_that_wraps(self, shape):
        # a product that wraps to 0 in 64 bits must not pass for an empty tensor's size
        with pytest.raises(ShapeError, match="reshape"):
            ad.reshape(ad.Tensor(np.zeros(0)), shape)

    def test_reshape_takes_numpy_integer_dimensions(self):
        out = ad.reshape(ad.Tensor(np.arange(6.0)), (np.int64(2), np.uint8(3)))
        assert out.shape == (2, 3)
        assert all(type(d) is int for d in out.shape)

    @pytest.mark.parametrize("start, stop", [(0.5, 2), (0, 2.0), (True, 2), (0, "2"),
                                             (None, 2)])
    def test_slice_rows_requires_integer_bounds(self, start, stop):
        with pytest.raises(ShapeError, match="slice"):
            ad.slice_rows(ad.Tensor(np.ones((3, 2))), start, stop)

    @pytest.mark.parametrize("before, after", [(1.5, 0), (0, 1.0), (True, 0), (0, None),
                                               (-1, 0)])
    def test_pad_rows_requires_non_negative_integer_counts(self, before, after):
        with pytest.raises(ShapeError, match="pad counts"):
            ad.pad_rows(ad.Tensor(np.ones((3, 2))), before, after)

    def test_integer_bounds_and_counts_of_any_integer_type_are_taken(self):
        x = ad.Tensor(np.arange(6.0).reshape(3, 2))
        assert np.array_equal(ad.slice_rows(x, np.int64(1), np.uint8(3)).values, x.values[1:])
        assert ad.pad_rows(x, np.int32(1), np.uint64(2)).shape == (6, 2)

    @pytest.mark.parametrize("ids", [[1.7, 2.2], [1.0], ["1"], [True, False],
                                     np.array([1.0, 2.0]), [[0, 1]], [None]])
    def test_gather_rows_rejects_ids_that_are_not_integers(self, ids):
        with pytest.raises(ShapeError, match="gather_rows ids"):
            ad.gather_rows(ad.Tensor(np.ones((3, 2))), ids)

    @pytest.mark.parametrize("ids", [[True, 2], [0, False], (2, np.True_), [np.False_, 1]])
    def test_gather_rows_rejects_a_bool_among_integer_ids(self, ids):
        # np.asarray([True, 2]) is an int64 array: its dtype cannot show the bool
        with pytest.raises(ShapeError, match="gather_rows ids must be integers, got a bool"):
            ad.gather_rows(ad.Tensor(np.ones((3, 2))), ids)

    @pytest.mark.parametrize("ids", [np.array([2, 0], dtype=np.uint8),
                                     np.array([2, 0], dtype=np.int32), (2, 0),
                                     [np.int64(2), np.int16(0)]])
    def test_gather_rows_takes_ids_of_any_integer_type(self, ids):
        matrix = ad.Tensor(np.arange(6.0).reshape(3, 2))
        with ad.Tape() as tape:
            out = ad.gather_rows(matrix, ids)
        assert np.array_equal(out.values, matrix.values[[2, 0]])
        assert tape.entries[0].ctx["ids"].dtype == np.intp

    def test_structural_gradients(self):
        rng = np.random.default_rng(9)
        check_op_gradient(ad.transpose, rng.normal(size=(3, 4)))
        check_op_gradient(lambda t: ad.reshape(t, (2, 6)), rng.normal(size=(3, 4)))
        check_op_gradient(lambda t: ad.slice_rows(t, 1, 3), rng.normal(size=(4, 2)))
        check_op_gradient(lambda t: ad.pad_rows(t, 1, 2), rng.normal(size=(2, 3)))
        check_op_gradient(lambda t: ad.scale(t, 0.37), rng.normal(size=(2, 5)))
        check_op_gradient(lambda t: ad.gather_rows(t, [0, 2, 2]), rng.normal(size=(3, 2)))


class TestLstmLast:
    def test_bad_shapes_and_empty_sequences_rejected(self):
        xw = ad.Tensor(np.zeros((3, 8)))
        w_h = ad.Tensor(np.zeros((2, 8)))
        assert ad.lstm_last(xw, w_h, [1, 2]).shape == (2, 2)
        cases = [
            (xw, ad.Tensor(np.zeros((2, 6))), [1, 2]),  # w_h is not (H, 4H)
            (ad.Tensor(np.zeros((3, 6))), w_h, [1, 2]),  # xw is not 4H wide
            (xw, w_h, [2, 2]),  # xw rows != sum(lengths)
            (xw, w_h, [3, 0]),  # zero-length sequence
            (xw, w_h, []),
            (xw, w_h, [[1, 2]]),
        ]
        for bad_xw, bad_w_h, lengths in cases:
            with pytest.raises(ShapeError):
                ad.lstm_last(bad_xw, bad_w_h, lengths)

    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("lengths", [[2.7], [1.0, 2.0], [True, True], ["3"], [None],
                                         np.array([3.0])])
    def test_lengths_that_are_not_integers_are_rejected(self, lengths, taped):
        xw = ad.Tensor(np.zeros((3, 8)))
        w_h = ad.Tensor(np.zeros((2, 8)))
        with ad.Tape() if taped else contextlib.nullcontext():
            with pytest.raises(ShapeError, match="integer length"):
                ad.lstm_last(xw, w_h, lengths)

    @pytest.mark.parametrize("taped", [False, True])
    @pytest.mark.parametrize("lengths", [[True, 2], (2, np.True_), [1, True, 1]])
    def test_a_bool_among_integer_lengths_is_rejected(self, lengths, taped):
        xw = ad.Tensor(np.zeros((3, 8)))
        w_h = ad.Tensor(np.zeros((2, 8)))
        with ad.Tape() if taped else contextlib.nullcontext():
            with pytest.raises(ShapeError, match="integer length"):
                ad.lstm_last(xw, w_h, lengths)

    def test_lengths_whose_sum_wraps_are_rejected(self):
        # four lengths of 2**62 sum to 0 in 64 bits, the row count of an empty xw
        xw = ad.Tensor(np.zeros((0, 8)))
        with pytest.raises(ShapeError, match="lstm_last input"):
            ad.lstm_last(xw, ad.Tensor(np.zeros((2, 8))), [2**62] * 4)

    def test_lengths_of_any_integer_type_are_taken(self):
        rng = np.random.default_rng(4)
        xw = ad.Tensor(rng.normal(size=(3, 8)))
        w_h = ad.Tensor(rng.normal(size=(2, 8)))
        expected = ad.lstm_last(xw, w_h, [1, 2]).values
        for lengths in (np.array([1, 2], dtype=np.uint8), (np.int32(1), np.int64(2))):
            assert ad.lstm_last(xw, w_h, lengths).values.tobytes() == expected.tobytes()

    def test_extreme_preactivations_stay_finite(self):
        xw = ad.Tensor(np.tile([800.0, -800.0], (3, 4)))
        out = ad.lstm_last(xw, ad.Tensor(np.ones((2, 8))), [2, 1])
        assert np.all(np.isfinite(out.values))

    @pytest.mark.parametrize("taped", [False, True])
    def test_extreme_preactivations_are_bounded_and_warn_nothing(self, taped):
        v = np.array(EXTREME_PREACTIVATIONS)
        sig_in = ad.Tensor(v.copy())
        xw = ad.Tensor(np.resize(v, (5, 8)))  # every value reaches every gate block
        w_h = ad.Tensor(np.ones((2, 8)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with ad.Tape() if taped else contextlib.nullcontext() as tape:
                s = ad.sigmoid(sig_in)
                h = ad.lstm_last(xw, w_h, [3, 2])
                loss = ad.add(weighted_sum(s), weighted_sum(h))
            if taped:
                ad.backward(tape, loss)
        assert np.all((s.values >= 0.0) & (s.values <= 1.0))
        assert np.all(np.abs(h.values) <= 1.0)
        if taped:
            for t in (sig_in, xw, w_h):
                assert np.all(np.isfinite(t.grad))


class TestCrossEntropy:
    def test_uniform_two_way(self):
        loss = ad.cross_entropy_logits(ad.Tensor([0.0, 0.0]), 0)
        assert loss.values[0] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_confident_correct(self):
        loss = ad.cross_entropy_logits(ad.Tensor([10.0, -10.0]), 0)
        assert loss.values[0] < 1e-8

    @pytest.mark.parametrize("label", [2, -1, 1.0, 0.5, True, None])
    def test_label_out_of_range_or_not_an_integer(self, label):
        with pytest.raises(ShapeError, match="label"):
            ad.cross_entropy_logits(ad.Tensor([0.0, 0.0]), label)

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(10)
        v = rng.normal(size=4)
        t = ad.Tensor(v)
        with ad.Tape() as tape:
            loss = ad.cross_entropy_logits(t, 2)
        ad.backward(tape, loss)
        f = fd_grad(lambda x: float(
            np.log(np.exp(x - x.max()).sum()) + x.max() - x[2]), v.copy())
        assert max_rel_err(t.grad, f) < 1e-6


class TestBackward:
    def test_sum_gives_ones(self):
        w = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        with ad.Tape() as tape:
            loss = weighted_sum(w)
        ad.backward(tape, loss)
        assert np.array_equal(w.grad, np.ones((2, 2)))

    def test_reuse_accumulates(self):
        w = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        x = ad.Tensor([[1.0], [1.0]])
        with ad.Tape() as tape:
            branch1 = ad.matmul(w, x)
            branch2 = ad.matmul(w, x)
            loss = weighted_sum(ad.add(branch1, branch2))
        ad.backward(tape, loss)
        assert np.array_equal(w.grad, 2.0 * np.ones((2, 2)))

    def test_non_scalar_loss_rejected(self):
        t = ad.Tensor([[1.0, 2.0]])
        with ad.Tape() as tape:
            out = ad.scale(t, 2.0)
        with pytest.raises(ShapeError):
            ad.backward(tape, out)

    def test_grads_accumulate_across_backward_calls(self):
        w = ad.Tensor([1.0, 2.0])
        for _ in range(2):
            with ad.Tape() as tape:
                loss = weighted_sum(w)
            ad.backward(tape, loss)
        assert np.array_equal(w.grad, [2.0, 2.0])

    def test_tape_determinism_bitwise(self):
        def run():
            rng = np.random.default_rng(11)
            a = ad.Tensor(rng.normal(size=(3, 3)))
            b = ad.Tensor(rng.normal(size=(3, 3)))
            with ad.Tape() as tape:
                out = ad.tanh(ad.matmul(a, b))
                loss = weighted_sum(out)
            ad.backward(tape, loss)
            return out.values.tobytes(), a.grad.tobytes(), b.grad.tobytes()

        assert run() == run()


def halved(rule):
    """``rule`` with every gradient it returns halved, a RowSparseGrad's rows too."""
    def halved_rule(entry):
        return tuple(
            None if g is None
            else ad.RowSparseGrad(g.ids, g.rows * 0.5, g.shape) if isinstance(g, ad.RowSparseGrad)
            else g * 0.5
            for g in rule(entry))
    return halved_rule


@pytest.mark.parametrize("op", ad.OP_NAMES)
def test_gradcheck_fails_an_op_whose_rule_halves_its_gradients(op, monkeypatch):
    monkeypatch.setitem(ad.BACKWARD_RULES, op, halved(ad.BACKWARD_RULES[op]))
    failed = [r.name for r in gradcheck.check_ops() if not r.passed]
    assert op in failed


class TestAdam:
    def test_first_step_hand_computed(self):
        # m_hat/sqrt(v_hat) = 1 on the first step, so theta moves by lr/(1+eps)
        p = {"w": ad.Tensor([5.0])}
        state = ad.AdamState.for_params(p, lr=0.001)
        ad.adam_step(p, {"w": np.array([1.0])}, state)
        expected = 5.0 - 0.001 * 1.0 / (1.0 + 1e-8)
        assert p["w"].values[0] == pytest.approx(expected, abs=1e-15)

    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = {"w": ad.Tensor([[1.0, -2.0]])}
        state = ad.AdamState.for_params(p)
        before = p["w"].values.copy()
        ad.adam_step(p, {"w": np.zeros((1, 2))}, state)
        assert np.array_equal(p["w"].values, before)

    def test_determinism_bitwise(self):
        def run():
            rng = np.random.default_rng(12)
            p = {"w": ad.Tensor(rng.normal(size=(2, 2)))}
            state = ad.AdamState.for_params(p, lr=0.01)
            for _ in range(5):
                ad.adam_step(p, {"w": rng.normal(size=(2, 2))}, state)
            return p["w"].values.tobytes()

        assert run() == run()

    def test_non_finite_gradient_aborts_with_name(self):
        p = {"w": ad.Tensor([1.0]), "b": ad.Tensor([0.0])}
        state = ad.AdamState.for_params(p)
        before = p["w"].values.copy()
        moments = {n: (state.m[n].copy(), state.v[n].copy()) for n in p}
        with pytest.raises(NumericError, match="'b'"):
            ad.adam_step(p, {"w": np.array([1.0]), "b": np.array([np.nan])}, state)
        assert np.array_equal(p["w"].values, before)
        assert state.t == 0
        for n in p:
            assert np.array_equal(state.m[n], moments[n][0])
            assert np.array_equal(state.v[n], moments[n][1])

    def test_misshaped_last_gradient_aborts_before_any_update(self):
        rng = np.random.default_rng(5)
        p = {"w": ad.Tensor(rng.normal(size=(3, 2))),
             "b": ad.Tensor(rng.normal(size=4))}
        state = ad.AdamState.for_params(p)
        ad.adam_step(p, {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=4)}, state)
        snapshot = {n: (p[n].values.tobytes(), state.m[n].tobytes(), state.v[n].tobytes())
                    for n in p}
        with pytest.raises(ShapeError, match="'b'"):
            ad.adam_step(p, {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=5)}, state)
        assert state.t == 1
        assert {n: (p[n].values.tobytes(), state.m[n].tobytes(), state.v[n].tobytes())
                for n in p} == snapshot

    @pytest.mark.parametrize("layout", ["fortran", "transposed", "read_only"])
    def test_non_contiguous_or_read_only_parameter_is_updated(self, layout):
        rng = np.random.default_rng(6)
        base = rng.normal(size=(5, 3))
        if layout == "fortran":
            values = np.asfortranarray(base)
        elif layout == "transposed":
            values = base.T.copy().T  # a transposed view of a C array
        else:
            values = base.copy()
            values.flags.writeable = False
        p = {"w": ad.Tensor(values)}
        state = ad.AdamState.for_params(p, lr=0.01)
        expected = (base.copy(), np.zeros_like(base), np.zeros_like(base))
        for t in range(1, 4):
            g = rng.normal(size=(5, 3))
            ad.adam_step(p, {"w": g}, state)
            expected = adam_oracle(*expected, g, t, lr=0.01)
        assert p["w"].values.tobytes() == expected[0].tobytes()
        assert state.m["w"].tobytes() == expected[1].tobytes()
        assert state.v["w"].tobytes() == expected[2].tobytes()

    @pytest.mark.parametrize("cols, make", [
        (3, lambda a: a.astype(np.float32)),
        (2, lambda a: a.astype(np.float32)),
        (3, lambda a: a.astype(np.int64)),
        (3, lambda a: a.tolist()),
    ], ids=["float32_odd_cols", "float32_even_cols", "int64", "list"])
    def test_moments_that_are_not_float64_arrays_abort_before_any_update(self, cols, make):
        # float32 moments used to reach the sync's row scan, whose uint64
        # view fails on an odd column count and misreads rows on an even one
        p = {"w": ad.Tensor([1.0, 2.0]), "e": ad.Tensor(np.ones((4, cols)))}
        state = ad.AdamState.for_params(p)
        state.m["e"] = make(np.zeros((4, cols)))
        g = ad.RowSparseGrad(np.array([1]), np.ones((1, cols)), (4, cols))
        with pytest.raises(ShapeError, match="'e'"):
            ad.adam_step(p, {"w": np.ones(2), "e": g}, state)
        assert state.t == 0 and not state.rows
        assert np.array_equal(p["w"].values, [1.0, 2.0])
        assert not state.m["w"].any() and p["e"].pending is None

    def test_mismatched_moments_abort_before_any_update(self):
        p = {"w": ad.Tensor([1.0, 2.0]),
             "b": ad.Tensor([3.0])}
        state = ad.AdamState.for_params(p)
        state.v["b"] = np.zeros(2)
        with pytest.raises(ShapeError, match="'b'"):
            ad.adam_step(p, {"w": np.ones(2), "b": np.ones(1)}, state)
        assert state.t == 0
        assert np.array_equal(p["w"].values, [1.0, 2.0])
        assert not state.m["w"].any()

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 40), rows=st.integers(1, 9), cols=st.integers(1, 9),
           steps=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           lr=st.sampled_from([0.001, 0.01, 0.3]))
    def test_chunked_update_is_bit_identical_to_the_formula(self, n, rows, cols, steps,
                                                             seed, lr):
        rng = np.random.default_rng(seed)
        # the last one spans three chunks and an uneven tail
        shapes = {"flat": (n,), "row": (1, n), "matrix": (rows, cols),
                  "big": (3 * ad.ADAM_CHUNK // 64 + 1, 64)}
        values = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        params = {name: ad.Tensor(v.copy()) for name, v in values.items()}
        state = ad.AdamState.for_params(params, lr=lr)
        expected = {name: (v, np.zeros_like(v), np.zeros_like(v))
                    for name, v in values.items()}
        for t in range(1, steps + 1):
            grads = {name: rng.normal(size=shape) * rng.choice([1e-6, 1.0, 1e3])
                     for name, shape in shapes.items()}
            ad.adam_step(params, grads, state)
            expected = {name: adam_oracle(*expected[name], grads[name], t, lr=lr)
                        for name in shapes}
        assert state.t == steps
        for name, (p, m, v) in expected.items():
            assert params[name].values.tobytes() == p.tobytes()
            assert state.m[name].tobytes() == m.tobytes()
            assert state.v[name].tobytes() == v.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 9), cols=st.integers(1, 9), steps=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1), lr=st.sampled_from([0.001, 0.01, 0.3]))
    def test_update_is_within_ulps_of_the_textbook(self, rows, cols, steps, seed, lr):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(rows, cols))
        p = {"w": ad.Tensor(values.copy())}
        state = ad.AdamState.for_params(p, lr=lr)
        expected = (values, np.zeros_like(values), np.zeros_like(values))
        for t in range(1, steps + 1):
            g = rng.normal(size=(rows, cols)) * rng.choice([0.0, 1e-6, 1.0, 1e3],
                                                           size=(rows, cols))
            ad.adam_step(p, {"w": g}, state)
            expected = adam_textbook(*expected, g, t, lr=lr)
        assert state.m["w"].tobytes() == expected[1].tobytes()
        assert state.v["w"].tobytes() == expected[2].tobytes()
        # the reordered form rounds differently; the worst of 300 random
        # trials was 1.6 of these units
        bound = 8 * steps * (np.spacing(np.abs(expected[0])) + np.spacing(lr))
        assert np.all(np.abs(p["w"].values - expected[0]) <= bound)

    @pytest.mark.parametrize("field, value", [
        ("lr", 0.0), ("lr", -0.001), ("lr", math.inf), ("lr", math.nan), ("lr", "0.1"),
        ("lr", 10**400),
        ("t", -1), ("t", 1.0), ("t", True), ("t", None), ("t", int(ad.FIXED) - 1),
    ])
    def test_out_of_domain_setting_aborts_with_name(self, field, value):
        rng = np.random.default_rng(9)
        p = {"w": ad.Tensor(rng.normal(size=(2, 3)))}
        state = ad.AdamState.for_params(p)
        ad.adam_step(p, {"w": rng.normal(size=(2, 3))}, state)
        snapshot = (p["w"].values.tobytes(), state.m["w"].tobytes(), state.v["w"].tobytes())
        setattr(state, field, value)
        with pytest.raises(NumericError, match=f"Adam {field} "):
            ad.adam_step(p, {"w": rng.normal(size=(2, 3))}, state)
        assert getattr(state, field) is value
        assert (p["w"].values.tobytes(), state.m["w"].tobytes(),
                state.v["w"].tobytes()) == snapshot


def dense_gather_rows_bwd(e):
    """The dense ``gather_rows`` rule the row-sparse one replaced: a zero
    gradient of the input's size with each id's output rows added in order."""
    dm = np.zeros_like(e.inputs[0].values)
    np.add.at(dm, e.ctx["ids"], e.output.grad)
    return (dm,)


def gather_step(values, ids, out_grad):
    """Backward through ``gather_rows`` with ``out_grad`` as the output's
    gradient: the tensor's row-sparse gradient and the dense reference."""
    matrix = ad.Tensor(values)
    with ad.Tape() as tape:
        loss = weighted_sum(ad.gather_rows(matrix, ids), out_grad)
    ad.backward(tape, loss)
    return matrix.grad, dense_gather_rows_bwd(tape.entries[0])[0]


@st.composite
def sparse_steps(draw):
    """A (rows, cols) parameter, its starting moments and several steps of
    (ids, output gradient). The ids repeat, hit both ends, or are single;
    gradients and m hold -0.0; the largest parameter spans several chunks."""
    cols = draw(st.integers(1, 4))
    rows = draw(st.sampled_from([1, 2, 7, ad.ADAM_CHUNK // cols + 3]))
    ids = st.one_of(
        st.just([0, rows - 1, 0]),
        st.integers(0, rows - 1).map(lambda i: [i]),
        st.lists(st.integers(0, min(rows - 1, 9)), min_size=1, max_size=8),
    )
    value = st.sampled_from([-0.0, 0.0, 1e-300, -2.5, 0.75, 1e3])
    steps = []
    for _ in range(draw(st.integers(1, 4))):
        step_ids = draw(ids)
        grad = draw(st.lists(value, min_size=len(step_ids) * cols,
                             max_size=len(step_ids) * cols))
        steps.append((step_ids, np.array(grad).reshape(len(step_ids), cols)))
    m0 = draw(st.sampled_from([0.0, -0.0, -1e-300, 0.5]))
    v0 = draw(st.sampled_from([0.0, 1e-300, 0.25]))
    return rows, cols, m0, v0, steps


class TestRowSparseGradient:
    """``gather_rows`` backward and Adam on its row-sparse gradient give the
    bytes of the dense rule and a dense ``adam_step``."""

    @settings(max_examples=40, deadline=None)
    @given(case=sparse_steps(), seed=st.integers(0, 2**32 - 1),
           lr=st.sampled_from([0.001, 0.3]))
    def test_steps_match_the_dense_rule_and_update(self, case, seed, lr):
        rows, cols, m0, v0, steps = case
        values = np.random.default_rng(seed).normal(size=(rows, cols))
        sparse = {"e": ad.Tensor(values.copy())}
        dense = {"e": ad.Tensor(values.copy())}
        states = []
        for params in (sparse, dense):
            state = ad.AdamState.for_params(params, lr=lr)
            state.m["e"][:] = m0
            state.v["e"][:] = v0
            states.append(state)
        for ids, out_grad in steps:
            grad, reference = gather_step(sparse["e"].values, ids, out_grad)
            assert isinstance(grad, ad.RowSparseGrad)
            assert grad.nbytes == grad.ids.nbytes + grad.rows.nbytes
            assert grad.dense().tobytes() == reference.tobytes()
            ad.adam_step(sparse, {"e": grad}, states[0])
            ad.adam_step(dense, {"e": reference}, states[1])
            ad.adam_sync(sparse, states[0])
            assert sparse["e"].values.tobytes() == dense["e"].values.tobytes()
            assert states[0].m["e"].tobytes() == states[1].m["e"].tobytes()
            assert states[0].v["e"].tobytes() == states[1].v["e"].tobytes()

    def test_gathering_twice_gives_the_dense_sum(self):
        rng = np.random.default_rng(3)
        matrix = ad.Tensor(rng.normal(size=(6, 3)))
        w1, w2 = rng.normal(size=(4, 3)), rng.normal(size=(2, 3))
        with ad.Tape() as tape:
            first = ad.gather_rows(matrix, [5, 0, 5, 2])
            second = ad.gather_rows(matrix, [2, 3])
            loss = ad.add(weighted_sum(first, w1), weighted_sum(second, w2))
        ad.backward(tape, loss)
        # the later gather's gradient arrives first, as with the dense rule
        expected = (dense_gather_rows_bwd(tape.entries[1])[0]
                    + dense_gather_rows_bwd(tape.entries[0])[0])
        assert isinstance(matrix.grad, np.ndarray)
        assert matrix.grad.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("ids, rows, error", [
        ([0, 4], np.ones((2, 2)), ShapeError),  # out of range
        ([-1, 2], np.ones((2, 2)), ShapeError),  # out of range
        ([2, 1], np.ones((2, 2)), ShapeError),  # unsorted
        ([1, 1], np.ones((2, 2)), ShapeError),  # duplicate
        ([[1, 2]], np.ones((2, 2)), ShapeError),  # not 1-D
        ([1, 2], np.ones((2, 3)), ShapeError),  # wrong rows shape
        ([1, 2], np.ones((3, 2)), ShapeError),  # wrong rows shape
        ([1, 2], np.array([[1.0, np.inf], [0.0, 0.0]]), NumericError),
        ([1, 2], np.array([[1.0, 0.0], [np.nan, 0.0]]), NumericError),
    ], ids=["id_too_large", "negative_id", "unsorted", "duplicate", "ids_2d",
            "wrong_cols", "wrong_row_count", "inf", "nan"])
    def test_malformed_gradient_aborts_before_any_update(self, ids, rows, error):
        p, state = lagging_model()
        assert p["e"].pending is not None
        raw = snapshot(p, state)
        bad = ad.RowSparseGrad(np.array(ids, dtype=np.intp), rows, (4, 2))
        with pytest.raises(error, match="'e'"):
            ad.adam_step(p, {"w": np.ones(3), "e": bad}, state)
        assert state.t == 2
        assert snapshot(p, state) == raw
        ad.adam_sync(p, state)
        twin, twin_state = lagging_model()
        ad.adam_sync(twin, twin_state)
        assert snapshot(p, state) == snapshot(twin, twin_state)

    @pytest.mark.parametrize("kind", ["dense", "row_sparse"])
    @pytest.mark.parametrize("make", [
        lambda shape: np.ones(shape, dtype=complex),
        lambda shape: np.ones(shape, dtype=object),
        lambda shape: np.full(shape, "1.0"),
        lambda shape: np.ones(shape).tolist(),
    ], ids=["complex", "object", "str", "list"])
    def test_gradient_that_is_not_a_real_array_aborts_before_any_update(self, kind, make):
        # "w" comes first, so a step that failed only in "e"'s arithmetic
        # would already have moved "w" and the step counter
        p, state = lagging_model()
        raw = snapshot(p, state)
        bad = make((4, 2)) if kind == "dense" else ad.RowSparseGrad(
            np.array([1, 3]), make((2, 2)), (4, 2))
        with pytest.raises(NumericError, match="'e'"):
            ad.adam_step(p, {"w": np.ones(3), "e": bad}, state)
        assert state.t == 2
        assert snapshot(p, state) == raw

    def test_out_of_range_gather_raises_before_any_catch_up(self):
        p = {"e": ad.Tensor(np.random.default_rng(4).normal(size=(4, 2)))}
        state = ad.AdamState.for_params(p)
        state.m["e"][:] = 0.5  # so a replayed step changes every byte of a row
        state.v["e"][:] = 0.25
        ad.adam_step(p, {"e": ad.RowSparseGrad(np.array([0]), np.ones((1, 2)), (4, 2))},
                     state)
        raw = snapshot(p, state)
        with pytest.raises(ShapeError, match="out of range"):
            ad.gather_rows(p["e"], [1, 4])
        assert snapshot(p, state) == raw
        ad.gather_rows(p["e"], [1, 3])  # and an in-range gather does catch up
        assert snapshot(p, state) != raw


def lagging_model():
    """A dense "w" and a (4, 2) "e" after a dense step and a row-sparse one
    that leaves rows 0, 2 and 3 of "e" lagging."""
    rng = np.random.default_rng(8)
    p = {"w": ad.Tensor(rng.normal(size=3)), "e": ad.Tensor(rng.normal(size=(4, 2)))}
    state = ad.AdamState.for_params(p)
    ad.adam_step(p, {"w": rng.normal(size=3), "e": rng.normal(size=(4, 2))}, state)
    ad.adam_step(p, {"w": rng.normal(size=3), "e": ad.RowSparseGrad(
        np.array([1]), rng.normal(size=(1, 2)), (4, 2))}, state)
    return p, state


@st.composite
def deferred_runs(draw):
    """An embedding-like parameter "e" (possibly read-only or Fortran-ordered,
    which ``adam_step`` replaces by a copy), a pattern of starting moments
    that its rows repeat (see ``start_moments``), and a run of actions:
    steps that give "e" a row-sparse gradient (built directly or by backward
    through ``gather_rows``) or a dense one while a dense "w" always gets a
    dense one, gathers, syncs, changes of ``lr`` and steps given "w" alone,
    which must be rejected. Runs are long enough to cross ``ADAM_WINDOW``;
    gradients hold -0.0 and +-1e-300. Small tables may run with a tiny
    ``ADAM_CHUNK``, so that a catch-up replays its rows in many copies of a
    few rows each."""
    cols = draw(st.integers(1, 4))
    rows = draw(st.sampled_from([1, 3, 40, ad.ADAM_CHUNK // cols + 3]))
    chunk = draw(st.sampled_from([ad.ADAM_CHUNK, 3, 8])) if rows <= 40 else ad.ADAM_CHUNK
    layout = draw(st.sampled_from(["c", "fortran", "read_only"]))
    some_ids = st.one_of(
        st.just([0, rows - 1, 0]),
        st.integers(0, rows - 1).map(lambda i: [i]),
        st.lists(st.integers(0, min(rows - 1, 12)), min_size=1, max_size=6),
    )
    value = st.sampled_from([-0.0, 0.0, 1e-300, -1e-300, -2.5, 0.75, 1e3])
    kinds = ["sparse"] * 4 + ["taped"] * 3 + ["gather", "gather", "lr", "subset"]
    if draw(st.booleans()):  # else the run ends as one window
        kinds += ["dense", "sync"]
    actions = []
    for _ in range(draw(st.one_of(st.integers(1, 12),
                                  st.integers(2 * ad.ADAM_WINDOW - 8, 2 * ad.ADAM_WINDOW)))):
        kind = draw(st.sampled_from(kinds))
        if kind == "lr":
            actions.append((kind, draw(st.sampled_from([0.001, 0.05, 0.3]))))
        elif kind in ("sync", "dense", "subset"):  # their gradients are drawn in the test
            actions.append((kind, None))
        else:
            ids = draw(some_ids)
            grad = draw(st.lists(value, min_size=len(ids) * cols, max_size=len(ids) * cols))
            actions.append((kind, (ids, np.array(grad).reshape(len(ids), cols))))
    starts = draw(st.lists(st.sampled_from(ROW_STARTS), min_size=1, max_size=8))
    return rows, cols, chunk, layout, starts, actions


# How a row's moments start. Only "zero" is a fixed point of the
# zero-gradient step: a -0.0 in m turns into +0.0, and a nonzero v decays.
ROW_STARTS = ("zero", "lone_negative_zero_in_m", "v_only", "tiny_m", "live")


def start_moments(starts, rows, cols):
    """(m, v) of a (rows, cols) table whose row i starts as
    ``starts[i % len(starts)]``; a lone entry sits in column ``i % cols``."""
    m, v = np.zeros((rows, cols)), np.zeros((rows, cols))
    for i in range(rows):
        kind, j = starts[i % len(starts)], i % cols
        if kind == "lone_negative_zero_in_m":
            m[i, j] = -0.0
        elif kind == "v_only":
            v[i, j] = 1e-300 if i % 2 else 0.25
        elif kind == "tiny_m":
            m[i, j] = 1e-300 if i % 2 else -1e-300
        elif kind == "live":
            m[i], v[i] = 0.5, 0.25
    return m, v


class TestDeferredAdam:
    """Row-sparse steps defer the untouched rows, and every read through
    ``gather_rows`` or after ``adam_sync`` sees the eager dense bytes."""

    @settings(max_examples=100, deadline=None)
    @given(case=deferred_runs(), seed=st.integers(0, 2**32 - 1))
    def test_reads_match_an_eager_dense_oracle(self, case, seed):
        rows, cols, chunk, layout, starts, actions = case
        with mock.patch.object(ad, "ADAM_CHUNK", chunk):
            self.check_run(rows, cols, layout, start_moments(starts, rows, cols), actions, seed)

    def check_run(self, rows, cols, layout, moments, actions, seed):
        rng = np.random.default_rng(seed)
        start = {"e": rng.normal(size=(rows, cols)), "w": rng.normal(size=3)}
        e_values = start["e"].copy()
        if layout == "fortran":
            e_values = np.asfortranarray(e_values)
        elif layout == "read_only":
            e_values.flags.writeable = False
        params = {"e": ad.Tensor(e_values), "w": ad.Tensor(start["w"].copy())}
        state = ad.AdamState.for_params(params, lr=0.01)
        oracle_state = ad.AdamState(lr=0.01)
        oracle = {n: (v.copy(), np.zeros_like(v), np.zeros_like(v)) for n, v in start.items()}
        for m, v in ((state.m["e"], state.v["e"]), oracle["e"][1:]):
            m[:], v[:] = moments

        def assert_synced():
            for n in params:
                assert params[n].values.tobytes() == oracle[n][0].tobytes()
                assert state.m[n].tobytes() == oracle[n][1].tobytes()
                assert state.v[n].tobytes() == oracle[n][2].tobytes()

        def assert_rows(ids):
            for array, expected in zip(
                    (params["e"].values, state.m["e"], state.v["e"]), oracle["e"]):
                assert array[ids].tobytes() == expected[ids].tobytes()

        for kind, arg in actions:
            if kind == "lr":
                state.lr = oracle_state.lr = arg
            elif kind == "sync":
                ad.adam_sync(params, state)
                assert not state.window
                assert all(np.all(at >= state.t) for at in state.rows.values())
                assert_synced()
            elif kind == "subset":
                before = snapshot(params, state), state.t, list(state.window)
                with pytest.raises(ShapeError, match=r"missing \['e'\]"):
                    ad.adam_step({"w": params["w"]}, {"w": rng.normal(size=3)}, state)
                assert (snapshot(params, state), state.t, state.window) == before
            elif kind == "gather":
                ids = arg[0]
                out = ad.gather_rows(params["e"], ids)
                assert out.values.tobytes() == oracle["e"][0][ids].tobytes()
                assert_rows(ids)
            else:
                w_grad = rng.normal(size=3)
                if kind == "dense":
                    e_grad = rng.choice([-0.0, 1e-300, 0.75, -2.5], size=(rows, cols))
                elif kind == "sparse":
                    ids, rows_grad = arg
                    unique = np.unique(ids)
                    e_grad = ad.RowSparseGrad(unique, rows_grad[: unique.size], (rows, cols))
                else:
                    ids, rows_grad = arg
                    with ad.Tape() as tape:
                        out = ad.gather_rows(params["e"], ids)
                        loss = weighted_sum(out, rows_grad)
                    assert out.values.tobytes() == oracle["e"][0][ids].tobytes()
                    ad.backward(tape, loss)
                    e_grad = params["e"].grad
                    params["e"].zero_grad()
                ad.adam_step(params, {"e": e_grad, "w": w_grad}, state)
                oracle_state.t += 1
                scalars = (ad._scalars(oracle_state),)
                for n, g in (("e", e_grad), ("w", w_grad)):
                    dense = g.dense() if isinstance(g, ad.RowSparseGrad) else g
                    ad._adam_pass(*(a.reshape(-1) for a in oracle[n]), dense.reshape(-1),
                                  scalars)
                assert len(state.window) < ad.ADAM_WINDOW
                assert params["w"].values.tobytes() == oracle["w"][0].tobytes()
                if isinstance(e_grad, ad.RowSparseGrad):
                    assert_rows(e_grad.ids)
        ad.adam_sync(params, state)
        assert state.t == oracle_state.t
        assert_synced()

    @pytest.mark.parametrize("start", ["zero", "live"])
    def test_sync_replays_only_the_rows_a_step_can_change(self, start):
        # an embedding-sized table and a handful of ids per step: a sync over
        # zero moments replays the touched rows only, and one over a table
        # whose every row has nonzero m replays them all; both give the
        # eager dense bytes
        rows, cols, steps = 20000, 100, 5
        rng = np.random.default_rng(6)
        values = rng.normal(size=(rows, cols))
        m = rng.normal(size=(rows, cols)) * 1e-3 if start == "live" else np.zeros((rows, cols))
        v = m * m
        p = {"e": ad.Tensor(values.copy())}
        state = ad.AdamState.for_params(p)
        state.m["e"][:], state.v["e"][:] = m, v
        touched = set()
        for t in range(1, steps + 1):
            ids = np.unique(rng.integers(0, rows, size=4))
            touched.update(ids.tolist())
            g = ad.RowSparseGrad(ids, rng.normal(size=(ids.size, cols)), (rows, cols))
            ad.adam_step(p, {"e": g}, state)
            values, m, v = adam_oracle(values, m, v, g.dense(), t)
        assert len(state.window) == steps
        floats = []
        adam_pass = ad._adam_pass

        def counting_pass(p, m, v, g, scalars):
            floats.append(p.size * len(scalars))
            adam_pass(p, m, v, g, scalars)

        with mock.patch.object(ad, "_adam_pass", counting_pass):
            ad.adam_sync(p, state)
        assert (p["e"].values.tobytes(), state.m["e"].tobytes(), state.v["e"].tobytes()) \
            == (values.tobytes(), m.tobytes(), v.tobytes())
        if start == "zero":
            # only the touched rows that owe a step are replayed, each from
            # its own step onward (the bound leaves room for twice that)
            assert 0 < sum(floats) <= 2 * len(touched) * cols * steps
        else:
            assert sum(floats) >= rows * cols
            # every row is replayed, and none of them twice
            assert sum(floats) <= rows * cols * steps

    def test_each_row_sparse_parameter_is_scanned_once(self):
        # the per-row step array outlives syncs: a parameter's moments are
        # scanned at its first row-sparse step, and again only at the first
        # one after a dense gradient updated it
        rng = np.random.default_rng(4)
        shapes = {"e": (50, 3), "f": (9, 2)}
        p = {name: ad.Tensor(rng.normal(size=shape)) for name, shape in shapes.items()}
        p["w"] = ad.Tensor(rng.normal(size=3))
        state = ad.AdamState.for_params(p)
        scanned = []
        live_rows = ad._live_rows

        def counting_scan(m, v):
            scanned.append(next(n for n in shapes if state.m[n] is m))
            return live_rows(m, v)

        def step(dense=()):
            grads = {"w": rng.normal(size=3)}
            for name, (rows, cols) in shapes.items():
                ids = np.unique(rng.integers(0, rows, size=3))
                grads[name] = rng.normal(size=(rows, cols)) if name in dense else \
                    ad.RowSparseGrad(ids, rng.normal(size=(ids.size, cols)), (rows, cols))
            ad.adam_step(p, grads, state)

        with mock.patch.object(ad, "_live_rows", counting_scan):
            for _ in range(3):
                for _ in range(5):
                    step()
                ad.adam_sync(p, state)
            for _ in range(ad.ADAM_WINDOW + 2):  # one sync inside a step
                step()
            assert sorted(scanned) == ["e", "f"]
            step(dense=("e",))
            for _ in range(4):
                step()
            ad.adam_sync(p, state)
        assert sorted(scanned) == ["e", "e", "f"]

    def test_rows_a_dense_gradient_made_live_are_synced(self):
        # row-sparse steps, a dense gradient that makes every row live, then
        # row-sparse steps on a few rows: at the sync every other row still
        # owes the later steps, although no row-sparse step touched it
        rng = np.random.default_rng(12)
        rows, cols = 200, 3
        values = rng.normal(size=(rows, cols))
        p = {"e": ad.Tensor(values.copy())}
        state = ad.AdamState.for_params(p, lr=0.01)
        expected = (values, np.zeros_like(values), np.zeros_like(values))
        for t, ids in enumerate([[1, 2], [3], None, [5], [1, 7], [7]], start=1):
            if ids is None:
                g = dense = rng.normal(size=(rows, cols))
            else:
                g = ad.RowSparseGrad(np.array(ids), rng.normal(size=(len(ids), cols)),
                                     (rows, cols))
                dense = g.dense()
            ad.adam_step(p, {"e": g}, state)
            expected = adam_oracle(*expected, dense, t, lr=0.01)
        ad.adam_sync(p, state)
        assert (p["e"].values.tobytes(), state.m["e"].tobytes(), state.v["e"].tobytes()) \
            == tuple(a.tobytes() for a in expected)

    def test_the_step_that_fills_the_window_syncs(self):
        p = {"e": ad.Tensor(np.random.default_rng(2).normal(size=(5, 3)))}
        state = ad.AdamState.for_params(p)
        expected = p["e"].values.copy()
        m, v = np.zeros_like(expected), np.zeros_like(expected)
        for t in range(1, ad.ADAM_WINDOW + 3):
            g = ad.RowSparseGrad(np.array([t % 2]), np.full((1, 3), 0.5), (5, 3))
            ad.adam_step(p, {"e": g}, state)
            expected, m, v = adam_oracle(expected, m, v, g.dense(), t)
            if t == ad.ADAM_WINDOW:
                assert not state.window and np.all(state.rows["e"] >= t)
                assert p["e"].values.tobytes() == expected.tobytes()
            else:
                assert len(state.window) == t % ad.ADAM_WINDOW
        ad.adam_sync(p, state)
        assert (p["e"].values.tobytes(), state.m["e"].tobytes(), state.v["e"].tobytes()) \
            == (expected.tobytes(), m.tobytes(), v.tobytes())

    def test_a_subset_or_superset_of_the_parameters_is_rejected(self):
        # a state serves exactly the parameters it has moments for: a step
        # given "w" alone used to put its scalars in the window, which "e"'s
        # rows then replayed at the next sync although they never took it
        rng = np.random.default_rng(21)
        p = {"e": ad.Tensor(rng.normal(size=(4, 2))), "w": ad.Tensor(rng.normal(size=3))}
        state = ad.AdamState.for_params(p, lr=0.01)
        expected = {n: (t.values.copy(), np.zeros(t.shape), np.zeros(t.shape))
                    for n, t in p.items()}
        extra = ad.Tensor(np.ones(2))
        calls = [
            (r"missing \['e'\], extra \[\]",
             lambda: ad.adam_step({"w": p["w"]}, {"w": np.ones(3)}, state)),
            (r"missing \['w'\], extra \[\]", lambda: ad.adam_sync({"e": p["e"]}, state)),
            (r"missing \[\], extra \['x'\]", lambda: ad.adam_step(
                {**p, "x": extra}, {"e": np.ones((4, 2)), "w": np.ones(3), "x": np.ones(2)},
                state)),
            (r"missing \[\], extra \['x'\]",
             lambda: ad.adam_sync({**p, "x": extra}, state)),
        ]
        for ids in ([1], [2, 3]):  # after a sync, then with rows lagging
            grads = {"e": ad.RowSparseGrad(np.array(ids), rng.normal(size=(len(ids), 2)), (4, 2)),
                     "w": rng.normal(size=3)}
            ad.adam_step(p, grads, state)
            for n, g in grads.items():
                dense = g.dense() if isinstance(g, ad.RowSparseGrad) else g
                expected[n] = adam_oracle(*expected[n], dense, state.t, lr=0.01)
            if ids == [1]:
                ad.adam_sync(p, state)
            before = snapshot(p, state), state.t, list(state.window)
            for match, call in calls:
                with pytest.raises(ShapeError, match=match):
                    call()
                assert (snapshot(p, state), state.t, state.window) == before
        ad.adam_sync(p, state)
        for n in p:
            assert (p[n].values.tobytes(), state.m[n].tobytes(), state.v[n].tobytes()) \
                == tuple(a.tobytes() for a in expected[n])


def snapshot(params, state):
    """The raw bytes of every parameter, its moments and its lagging rows."""
    return {n: (params[n].values.tobytes(), state.m[n].tobytes(), state.v[n].tobytes(),
                state.rows[n].tobytes() if n in state.rows else None) for n in params}


def adam_oracle(p, m, v, g, t, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    """The allocate-everything Adam update in Kingma & Ba's reordered form:
    new (p, m, v) after step ``t``."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * (g * g)
    root_bc2 = math.sqrt(1.0 - beta2 ** t)
    step = lr * root_bc2 / (1.0 - beta1 ** t)
    return p - m * step / (np.sqrt(v) + eps * root_bc2), m, v


def adam_textbook(p, m, v, g, t, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
    """The textbook Adam update (Kingma & Ba, Algorithm 1): new (p, m, v)
    after step ``t``."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * (g * g)
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return p - lr * m_hat / (np.sqrt(v_hat) + eps), m, v
