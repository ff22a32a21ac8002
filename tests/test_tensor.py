import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthstream import tensor as T
from depthstream.tensor import (NonFiniteError, ShapeError, Tape, Tensor,
                                gradcheck)


class TestMatmul:
    def test_identity(self):
        out = T.matmul(Tensor(np.eye(2)), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_allclose(out.data, [[5, 6], [7, 8]])

    def test_scalar_formula(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_allclose(out.data, [[11.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_grad_of_sum_is_ones_times_bt(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 4)),
                   requires_grad=True)
        b = Tensor(np.random.default_rng(1).normal(size=(4, 2)))
        with Tape() as tape:
            loss = T.sum_(T.matmul(a, b))
            tape.backward(loss)
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T,
                                   rtol=1e-5)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_associativity(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.uniform(-1, 1, (m, k)), rng.uniform(-1, 1, (k, n)),
                   rng.uniform(-1, 1, (n, 2)))
        lhs = T.matmul(T.matmul(Tensor(a), Tensor(b)), Tensor(c)).data
        rhs = T.matmul(Tensor(a), T.matmul(Tensor(b), Tensor(c))).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax_rows(Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_stabilized(self):
        out = T.softmax_rows(Tensor([[1000.0, 0.0]]))
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-6)

    def test_row_sums(self):
        x = np.random.default_rng(2).normal(size=(4, 7))
        out = T.softmax_rows(Tensor(x))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4),
                                   atol=1e-6)

    @given(st.integers(0, 500), st.floats(-50, 50))
    @settings(max_examples=40, deadline=None)
    def test_shift_invariance(self, seed, shift):
        x = np.random.default_rng(seed).normal(size=(3, 5))
        a = T.softmax_rows(Tensor(x)).data
        b = T.softmax_rows(Tensor(x + shift)).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_empty(self):
        out = T.softmax_rows(Tensor(np.zeros((0, 4))))
        assert out.data.shape == (0, 4)

    def test_gradcheck_with_masked_entries(self):
        # -1e30 entries, as the attention kernel's age mask adds them
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        mask = np.where(np.arange(4) > np.arange(3)[:, None], -1e30, 0.0)
        w = rng.normal(size=(2, 3, 4))
        rep = gradcheck(
            lambda: T.sum_(T.mul(T.softmax_rows(T.add(x, mask)), w)), [x])
        assert rep["passed"], rep


ROW_SHAPES = [(16, 1, 1), (16, 1, 5), (16, 48, 16), (3, 7, 5)]


class TestRowReductions:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", ROW_SHAPES)
    def test_row_max_is_numpy_max(self, dtype, shape):
        a = np.random.default_rng(5).normal(size=shape).astype(dtype)
        out = T._row_max(a)
        assert out.dtype == dtype
        np.testing.assert_array_equal(out, np.max(a, axis=-1, keepdims=True))

    def test_row_max_propagates_nan(self):
        a = np.random.default_rng(6).normal(size=(3, 7, 5))
        a[1, 2, 3] = np.nan
        out = T._row_max(a)
        assert np.isnan(out[1, 2, 0]) and np.isnan(out).sum() == 1

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", ROW_SHAPES)
    def test_row_sum_matches_numpy_sum(self, dtype, shape):
        rng = np.random.default_rng(8)
        positive = rng.uniform(0.5, 1.5, shape).astype(dtype)
        out = T._row_sum(positive)
        assert out.dtype == dtype
        np.testing.assert_allclose(out, positive.sum(-1, keepdims=True),
                                   rtol=1e-6)
        # signed rows: the error is relative to the sum of magnitudes
        signed = rng.normal(size=shape).astype(dtype)
        err = np.abs(T._row_sum(signed) - signed.sum(-1, keepdims=True))
        assert (err <= 1e-6 * np.abs(signed).sum(-1, keepdims=True)).all()


class TestLayerNorm:
    def test_constant_vector_maps_to_zero(self):
        x = Tensor(np.full((1, 4), 3.0))
        out = T.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-4)

    def test_two_point_normalization(self):
        out = T.layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)),
                           Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(16, 1, 16), (64, 16, 16), (3, 7, 5),
                                       (16, 1, 64)])
    def test_bit_identical_to_numpy_var(self, dtype, shape):
        x = np.random.default_rng(4).normal(2.0, 3.0, shape).astype(dtype)
        # the gain and bias are constants, so they take x's precision
        out = T.layer_norm(Tensor(x), np.ones(shape[-1]),
                           np.zeros(shape[-1])).data
        mu = x.mean(axis=-1, keepdims=True)
        eps = np.asarray(1e-5, dtype=dtype)
        ref = (x - mu) * (1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps))
        assert out.dtype == ref.dtype == dtype
        np.testing.assert_array_equal(out, ref)

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        g = Tensor(rng.normal(size=5), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        rep = gradcheck(lambda: T.sum_(T.abs_(T.layer_norm(x, g, b))),
                        [x, g, b])
        assert rep["passed"], rep


class TestLinear:
    def test_identity(self):
        out = T.linear(Tensor([[1.0, 1.0]]), Tensor(np.eye(2)),
                       Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[1.0, 1.0]])

    def test_scalar_case(self):
        out = T.linear(Tensor([[1.0, 2.0]]), Tensor([[1.0], [1.0]]),
                       Tensor([3.0]))
        np.testing.assert_allclose(out.data, [[6.0]])

    def test_gradcheck_all_args(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        rep = gradcheck(lambda: T.sum_(T.mul(T.linear(x, w, b),
                                             T.linear(x, w, b))), [x, w, b])
        assert rep["passed"], rep


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            tape.backward(T.sum_(x))
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_half_square_grad_is_x(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        with Tape() as tape:
            tape.backward(T.mul(T.sum_(T.mul(x, x)), 0.5))
        np.testing.assert_allclose(x.grad, x.data, rtol=1e-6)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, 2.0)
            with pytest.raises(ShapeError):
                tape.backward(y)

    def test_non_finite_loss_rejected(self):
        x = Tensor([np.inf])
        with Tape() as tape:
            with pytest.raises(NonFiniteError):
                tape.backward(x)

    @pytest.mark.parametrize("idx", [
        slice(1, None), slice(None, -1), 2, np.int64(-1),
        (Ellipsis, slice(0, 3)), (None, 1, slice(None, None, 2)),
        np.array([0, 2, 0, 0]), (np.array([1, 1]), np.array([3, 3])),
    ], ids=["slice_from_1", "slice_to_-1", "int", "numpy_int", "ellipsis",
            "newaxis_int_step", "repeated_rows", "repeated_element"])
    def test_getitem_grad_scatters_each_use(self, idx):
        # basic indices assign, fancy ones accumulate: both must equal
        # adding g into zeros once per use of an element
        data = np.random.default_rng(0).normal(size=(4, 5)).astype(
            np.float32)
        x = Tensor(data, requires_grad=True)
        g = np.random.default_rng(1).normal(size=data[idx].shape).astype(
            np.float32)
        with Tape() as tape:
            tape.backward(T.sum_(T.mul(x[idx], g)))
        expected = np.zeros_like(data)
        np.add.at(expected, idx, g)
        assert x.grad.dtype == expected.dtype
        np.testing.assert_array_equal(x.grad, expected)


    def test_intermediate_grad_stays_none(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, 3.0)
            tape.backward(T.sum_(y))
        assert y.grad is None
        np.testing.assert_array_equal(x.grad, np.full(4, 3.0))

    def test_shared_and_read_only_gradients_are_not_written(self):
        # add hands one array to both operands, and sum_ a read-only view:
        # a's later contributions must not land in b's gradient or the view
        rng = np.random.default_rng(3)
        u, v, w = (rng.normal(size=(2, 3)) for _ in range(3))
        # float64 operands, so every op runs in float64
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        with Tape() as tape:
            uses = [T.sum_(a), T.sum_(T.mul(a, u)), T.sum_(T.mul(a, v))]
            loss = T.sum_(T.mul(T.add(a, b), w))
            for use in uses:
                loss = T.add(loss, use)
            tape.backward(loss)
        np.testing.assert_array_equal(b.grad, w)
        np.testing.assert_allclose(a.grad, w + v + u + 1.0, rtol=1e-12)


class TestTapeRecording:
    def test_tape_records_only_what_needs_grad(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            T.add(Tensor(np.ones(3)), Tensor(np.ones(3)))
            out = T.mul(x, 2.0)
        assert len(tape) == 1 and out.requires_grad


class TestNonFiniteDetection:
    def test_ops_carry_non_finite_values(self):
        # ops do not check; NonFiniteError comes from where a value would
        # persist (cache banks, outputs, the loss), see test_model
        out = T.div(Tensor([1.0]), Tensor([0.0]))
        assert np.isinf(out.data).all()


class TestGradcheck:
    def test_quadratic_bowl(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        rep = gradcheck(lambda: T.mul(T.sum_(T.mul(x, x)), 0.5), [x],
                        tol=1e-8)
        assert rep["passed"], rep
        assert rep["max_rel_err"] < 1e-8

    def test_softmax_attention_composite(self):
        rng = np.random.default_rng(5)
        q = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        k = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        v = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

        def f():
            scores = T.matmul(q, T.transpose(k, (1, 0)))
            return T.sum_(T.abs_(T.matmul(T.softmax_rows(scores), v)))

        rep = gradcheck(f, [q, k, v])
        assert rep["passed"], rep

    @pytest.mark.parametrize("seed", range(5))
    def test_random_composites(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)

        def f():
            h = T.relu(T.linear(x, w, Tensor(np.zeros(4))))
            h = T.layer_norm(h, Tensor(np.ones(4)), Tensor(np.zeros(4)))
            return T.mean_(T.mul(h, h))

        rep = gradcheck(f, [x, w])
        assert rep["passed"], rep


class TestShapeOps:
    def test_upsample_nearest_roundtrip_gradient(self):
        x = Tensor(np.arange(4.0).reshape(1, 2, 2), requires_grad=True)
        with Tape() as tape:
            y = T.upsample_nearest(x, 3)
            assert y.data.shape == (1, 6, 6)
            tape.backward(T.sum_(y))
        np.testing.assert_allclose(x.grad, np.full((1, 2, 2), 9.0))

    @pytest.mark.parametrize("shape", [(3, 2, 5), (2, 3, 4, 2)])
    def test_upsample_nearest_gradient_sums_each_block(self, shape):
        factor = 3
        x = Tensor(np.zeros(shape), requires_grad=True)
        up = (*shape[:-2], shape[-2] * factor, shape[-1] * factor)
        # integers, so every order of summation gives the same float32
        g = np.random.default_rng(0).integers(-50, 50, up).astype(np.float32)
        with Tape() as tape:
            tape.backward(T.sum_(T.mul(T.upsample_nearest(x, factor), g)))
        expected = np.zeros(shape, dtype=np.float32)
        for idx in np.ndindex(*up):
            *lead, i, j = idx
            expected[(*lead, i // factor, j // factor)] += g[idx]
        np.testing.assert_array_equal(x.grad, expected)


def _skew_gather(x):
    """The kernel's former position-score gather: per-age values [B, N, a]
    to per-key values [B, N, N] by a fancy index, 0 outside the band."""
    _, n, a = x.shape
    rows = np.arange(n)[:, None]
    age = rows - np.arange(n)
    visible = (age >= 0) & (age < a)
    return np.where(visible, x[:, rows, np.where(visible, age, 0)], 0)


def _unskew_gather(y, ages):
    """The kernel's former per-age weight gather from [B, N, N]; an age
    older than the first key reads the next key, in the future."""
    n = y.shape[1]
    pos = np.arange(n)[:, None]
    key = pos - np.arange(ages)
    return y[:, pos, np.where(key >= 0, key, pos + 1)]


class TestSkew:
    @pytest.mark.parametrize("n", [1, 2, 7, 16, 64])
    def test_skew_equals_the_gather(self, n):
        rng = np.random.default_rng(n)
        for a in range(1, n + 1):
            x = rng.normal(size=(3, n, a)).astype(np.float32)
            np.testing.assert_array_equal(T.skew(Tensor(x)).data,
                                          _skew_gather(x))

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 64])
    def test_unskew_equals_the_gather(self, n):
        # the gather read a future key for an age older than the first key,
        # whose attention weight is 0: a causal y keeps the two equal
        rng = np.random.default_rng(n)
        for a in range(1, n + 1):
            y = np.tril(rng.normal(size=(3, n, n))).astype(np.float32)
            np.testing.assert_array_equal(T.unskew(Tensor(y), a).data,
                                          _unskew_gather(y, a))

    @pytest.mark.parametrize("n,a", [(1, 1), (5, 2), (7, 7), (16, 9)])
    def test_unskew_inverts_skew(self, n, a):
        # ages older than the first key have no key, so they are 0 in x
        x = np.random.default_rng(a).normal(size=(2, n, a)).astype(np.float32)
        x[:, np.arange(n)[:, None] < np.arange(a)] = 0
        np.testing.assert_array_equal(
            T.unskew(T.skew(Tensor(x)), a).data, x)

    @pytest.mark.parametrize("n,a", [(1, 1), (4, 2), (4, 4)])
    def test_gradcheck(self, n, a):
        rng = np.random.default_rng(n + a)
        x = Tensor(rng.normal(size=(2, n, a)), requires_grad=True)
        y = Tensor(rng.normal(size=(2, n, n)), requires_grad=True)
        wx, wy = rng.normal(size=(2, n, n)), rng.normal(size=(2, n, a))

        def f():
            return T.add(T.sum_(T.mul(T.skew(x), wx)),
                         T.sum_(T.mul(T.unskew(y, a), wy)))

        rep = gradcheck(f, [x, y])
        assert rep["passed"], rep


def _operands(shapes, constant):
    rng = np.random.default_rng(len(shapes))
    return [Tensor(rng.normal(size=s), requires_grad=i != constant)
            for i, s in enumerate(shapes)]


CONSTANT_OPERAND_OPS = {
    "add": (T.add, [(2, 3), (3,)]),
    "sub": (T.sub, [(2, 3), (2, 3)]),
    "mul": (T.mul, [(2, 3), (2, 1)]),
    "div": (T.div, [(2, 3), (2, 3)]),
    "matmul": (T.matmul, [(2, 3), (3, 4)]),
    "bmm": (T.bmm, [(2, 2, 3), (2, 3, 4)]),
    "linear": (T.linear, [(2, 3), (3, 4), (4,)]),
    "layer_norm": (T.layer_norm, [(2, 3), (3,), (3,)]),
    "concat": (lambda *ts: T.concat(ts), [(2, 3), (1, 3), (4, 3)]),
}


class TestConstantOperands:
    @pytest.mark.parametrize("name", CONSTANT_OPERAND_OPS)
    def test_backward_skips_each_constant(self, name):
        op, shapes = CONSTANT_OPERAND_OPS[name]
        for constant in range(len(shapes)):
            ts = _operands(shapes, constant)
            with Tape() as tape:
                out = op(*ts)
            ((node_out, inputs, back),) = tape._nodes
            grads = back(np.ones_like(node_out.data))
            assert node_out is out and inputs == tuple(ts)
            assert [g is None for g in grads] == [
                not t.requires_grad for t in ts]
            for t, g in zip(ts, grads):
                assert g is None or g.shape == t.shape


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", CONSTANT_OPERAND_OPS)
    def test_a_constant_takes_its_tensor_operands_precision(self, name,
                                                            dtype):
        # a plain array of the other precision, at each position in turn
        op, shapes = CONSTANT_OPERAND_OPS[name]
        other = np.float64 if dtype == np.float32 else np.float32
        for constant in range(len(shapes)):
            args = [t.data.astype(other) if i == constant
                    else Tensor(t.data.astype(dtype))
                    for i, t in enumerate(_operands(shapes, constant))]
            assert op(*args).data.dtype == dtype
        assert T.mul(2.0, Tensor(np.ones(2, dtype))).data.dtype == dtype

    @pytest.mark.parametrize("data, dtype", [
        (np.ones(2), np.float64), (1.0, np.float64),
        (np.ones(2, np.float16), np.float32), (np.arange(2), np.float32),
        (np.arange(2, dtype=">f4"), np.float32),
        (np.arange(2, dtype=">f8"), np.float64)])
    def test_float64_stays_and_other_data_becomes_float32(self, data, dtype):
        # in native byte order, also after an op
        t = Tensor(data)
        assert t.data.dtype == dtype
        assert T.reshape(t, (-1,)).data.dtype == dtype
        np.testing.assert_array_equal(t.data, data)


class TestWeightedAbsSum:
    def _x_and_w(self, dtype):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 4, 5)).astype(dtype)
        w = rng.uniform(0, 2, x.shape).astype(dtype)
        w[:, 0] = 0
        return x, w

    def test_gradcheck_with_zero_weights(self):
        x, w = self._x_and_w(np.float64)
        x = Tensor(x, requires_grad=True)
        rep = gradcheck(lambda: T.weighted_abs_sum(x, w), [x])
        assert rep["passed"], rep

    def test_matches_abs_mul_sum(self):
        x, w = self._x_and_w(np.float32)
        outs, grads = [], []
        for f in (T.weighted_abs_sum,
                  lambda t, w: T.sum_(T.mul(T.abs_(t), w))):
            t = Tensor(x, requires_grad=True)
            with Tape() as tape:
                outs.append(f(t, w))
                tape.backward(outs[-1])
            grads.append(t.grad)
        assert outs[0].shape == (1,) and outs[0].data.dtype == np.float32
        np.testing.assert_allclose(outs[0].data, outs[1].data, rtol=1e-6)
        np.testing.assert_array_equal(*grads)


class TestDiff0:
    def test_gradcheck(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(4, 2, 3)), requires_grad=True)
        wts = rng.normal(size=(3, 2, 3))
        rep = gradcheck(lambda: T.sum_(T.mul(T.diff0(x), wts)), [x])
        assert rep["passed"], rep

    @pytest.mark.parametrize("frames", [2, 5])
    def test_equals_the_slice_difference(self, frames):
        x = np.random.default_rng(frames).normal(size=(frames, 3, 2)).astype(
            np.float32)
        np.testing.assert_array_equal(T.diff0(x).data, x[1:] - x[:-1])
