"""Tensor/tape/op contracts, checked against hand values and finite differences."""

import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docgraph import autodiff as ad
from docgraph.errors import NumericError, ShapeError


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


def max_rel_err(a, f):
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
    return float(np.max(np.abs(a - f) / denom))


def analytic_grad(op, x, *, weights):
    """Gradient of sum(weights * op(x)) via the tape."""
    t = ad.Tensor(x)
    with ad.Tape() as tape:
        out = op(t)
        loss = ad.sum_all(ad.mul(out, ad.Tensor(weights)))
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
            loss = ad.sum_all(ad.mul(ad.matmul(a, b), ad.Tensor(w)))
        ad.backward(tape, loss)
        fa = fd_grad(lambda v: float(np.sum(w * (v @ b.values))), a.values.copy())
        fb = fd_grad(lambda v: float(np.sum(w * (a.values @ v))), b.values.copy())
        assert max_rel_err(a.grad, fa) < 1e-6
        assert max_rel_err(b.grad, fb) < 1e-6


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
            loss = ad.sum_all(ad.leaky_relu(t, 0.2))
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
            out = ad._sigmoid(v, np.empty(v.shape))
            op_out = ad.sigmoid(ad.Tensor(v)).values
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
                loss = ad.sum_all(ad.mul(op(ta, tb), ad.Tensor(w)))
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
                loss = ad.sum_all(op(ta, tbias))
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
            loss = ad.sum_all(ad.max_over_rows(t))
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

    def test_gradient_splits(self):
        a = ad.Tensor([[1.0], [2.0]])
        b = ad.Tensor([[3.0], [4.0]])
        with ad.Tape() as tape:
            loss = ad.sum_all(ad.concat_cols([a, b]))
        ad.backward(tape, loss)
        assert np.array_equal(a.grad, [[1.0], [1.0]])
        assert np.array_equal(b.grad, [[1.0], [1.0]])

    def test_concat_rows(self):
        out = ad.concat_rows([ad.Tensor([[1.0, 2.0]]), ad.Tensor([[3.0, 4.0]])])
        assert np.array_equal(out.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_row_mismatch(self):
        with pytest.raises(ShapeError):
            ad.concat_cols([ad.Tensor([[1.0]]), ad.Tensor([[1.0], [2.0]])])


class TestStructuralOps:
    def test_gather_rows_and_gradient_accumulation(self):
        m = ad.Tensor([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        with ad.Tape() as tape:
            out = ad.gather_rows(m, [1, 1])
            loss = ad.sum_all(out)
        assert np.array_equal(out.values, [[3.0, 4.0], [3.0, 4.0]])
        ad.backward(tape, loss)
        assert np.array_equal(m.grad.dense(), [[0.0, 0.0], [2.0, 2.0], [0.0, 0.0]])

    def test_gather_out_of_range(self):
        with pytest.raises(ShapeError):
            ad.gather_rows(ad.Tensor([[1.0]]), [1])

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
        ]
        for bad_xw, bad_w_h, lengths in cases:
            with pytest.raises(ShapeError):
                ad.lstm_last(bad_xw, bad_w_h, lengths)

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
                loss = ad.add(ad.sum_all(s), ad.sum_all(h))
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

    def test_label_out_of_range(self):
        with pytest.raises(ShapeError):
            ad.cross_entropy_logits(ad.Tensor([0.0, 0.0]), 2)

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
            loss = ad.sum_all(w)
        ad.backward(tape, loss)
        assert np.array_equal(w.grad, np.ones((2, 2)))

    def test_reuse_accumulates(self):
        w = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        x = ad.Tensor([[1.0], [1.0]])
        with ad.Tape() as tape:
            branch1 = ad.matmul(w, x)
            branch2 = ad.matmul(w, x)
            loss = ad.sum_all(ad.add(branch1, branch2))
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
                loss = ad.sum_all(w)
            ad.backward(tape, loss)
        assert np.array_equal(w.grad, [2.0, 2.0])

    def test_first_gradients_own_their_memory(self):
        # add hands its output's gradient to both inputs; reshape returns a view
        a = ad.Tensor(np.ones((2, 3)))
        b = ad.Tensor(np.ones((2, 3)))
        with ad.Tape() as tape:
            total = ad.add(a, b)
            flat = ad.reshape(total, (6,))
            loss = ad.sum_all(flat)
        ad.backward(tape, loss)
        grads = [t.grad for t in (a, b, total, flat, loss)]
        for i, g in enumerate(grads):
            for h in grads[i + 1:]:
                assert not np.shares_memory(g, h)
        assert np.array_equal(a.grad, np.ones((2, 3)))

    def test_tape_determinism_bitwise(self):
        def run():
            rng = np.random.default_rng(11)
            a = ad.Tensor(rng.normal(size=(3, 3)))
            b = ad.Tensor(rng.normal(size=(3, 3)))
            with ad.Tape() as tape:
                out = ad.tanh(ad.matmul(a, b))
                loss = ad.sum_all(out)
            ad.backward(tape, loss)
            return out.values.tobytes(), a.grad.tobytes(), b.grad.tobytes()

        assert run() == run()


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
        ("eps", 0.0), ("eps", -1e-8), ("eps", math.inf), ("eps", math.nan),
        ("beta1", 1.0), ("beta1", -0.1), ("beta1", 1.5), ("beta1", math.nan),
        ("beta2", 1.0), ("beta2", -0.1), ("beta2", math.inf), ("beta2", math.nan),
        ("t", -1), ("t", 1.0), ("t", True), ("t", None),
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
        loss = ad.sum_all(ad.mul(ad.gather_rows(matrix, ids), ad.Tensor(out_grad)))
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
            loss = ad.add(ad.sum_all(ad.mul(first, ad.Tensor(w1))),
                          ad.sum_all(ad.mul(second, ad.Tensor(w2))))
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
        rng = np.random.default_rng(8)
        p = {"w": ad.Tensor(rng.normal(size=3)), "e": ad.Tensor(rng.normal(size=(4, 2)))}
        state = ad.AdamState.for_params(p)
        ad.adam_step(p, {"w": rng.normal(size=3), "e": rng.normal(size=(4, 2))}, state)
        snapshot = {n: (p[n].values.tobytes(), state.m[n].tobytes(), state.v[n].tobytes())
                    for n in p}
        bad = ad.RowSparseGrad(np.array(ids, dtype=np.intp), rows, (4, 2))
        with pytest.raises(error, match="'e'"):
            ad.adam_step(p, {"w": rng.normal(size=3), "e": bad}, state)
        assert state.t == 1
        assert {n: (p[n].values.tobytes(), state.m[n].tobytes(), state.v[n].tobytes())
                for n in p} == snapshot


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
