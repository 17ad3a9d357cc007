"""Tensor op semantics and backward-vs-finite-difference agreement."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from reranklab import tensor as T
from reranklab.tensor import RowGrad, ShapeError, Tape, Tensor

from conftest import max_rel_err, same_bits


class TestMatmul:
    def test_identity(self):
        out = T.matmul(Tensor(np.eye(2)), Tensor([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_hand_computed_product(self):
        out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_zero_annihilates(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        out = T.matmul(a, Tensor(np.zeros((4, 2))))
        np.testing.assert_array_equal(out.data, np.zeros((3, 2)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_associativity(self, rng):
        for _ in range(20):
            a, b, c = (Tensor(rng.normal(size=(4, 4))) for _ in range(3))
            left = T.matmul(T.matmul(a, b), c).data
            right = T.matmul(a, T.matmul(b, c)).data
            assert max_rel_err(left, right) < 1e-9

    def test_backward_rules(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 2)))
        with Tape() as tape:
            loss = oracles.reduce_sum(T.matmul(a, b))
        tape.backward(loss)
        fd_a = oracles.finite_diff_grad(lambda t: oracles.reduce_sum(T.matmul(t, b)), a)
        fd_b = oracles.finite_diff_grad(lambda t: oracles.reduce_sum(T.matmul(a, t)), b)
        assert max_rel_err(a.grad, fd_a.data) < 1e-4
        assert max_rel_err(b.grad, fd_b.data) < 1e-4

    @pytest.mark.parametrize("b_shape", [(4, 2), (3, 4, 2)])
    def test_batched_product_and_backward(self, rng, b_shape):
        a = Tensor(rng.normal(size=(3, 5, 4)))
        b = Tensor(rng.normal(size=b_shape))
        out = T.matmul(a, b)
        for i in range(3):
            rhs = b.data if b.data.ndim == 2 else b.data[i]
            np.testing.assert_allclose(out.data[i], a.data[i] @ rhs, rtol=1e-12)
        weights = rng.normal(size=(3, 5, 2))
        with Tape() as tape:
            loss = oracles.reduce_sum(oracles.mul(T.matmul(a, b), weights))
        tape.backward(loss)
        assert b.grad.shape == b_shape
        fd_a = oracles.finite_diff_grad(lambda t: oracles.reduce_sum(oracles.mul(T.matmul(t, b), weights)), a)
        fd_b = oracles.finite_diff_grad(lambda t: oracles.reduce_sum(oracles.mul(T.matmul(a, t), weights)), b)
        assert max_rel_err(a.grad, fd_a.data) < 1e-4
        assert max_rel_err(b.grad, fd_b.data) < 1e-4

    def test_folded_product_matches_numpy(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 5, 4)))
        b = Tensor(rng.normal(size=(4, 6)))
        out = T.matmul(a, b)
        assert out.shape == (2, 3, 5, 6)
        np.testing.assert_allclose(out.data, np.matmul(a.data, b.data), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("trained", ["a", "b"])
    def test_folded_backward_with_one_constant_operand(self, rng, trained):
        # One operand is a plain array: matmul wraps it in a Tensor, and that Tensor gets a gradient too.
        a, b = rng.normal(size=(2, 3, 5, 4)), rng.normal(size=(4, 3))
        a, b = (Tensor(a), b) if trained == "a" else (a, Tensor(b))
        weights = rng.normal(size=(2, 3, 5, 3))
        with Tape() as tape:
            loss = oracles.reduce_sum(oracles.mul(T.matmul(a, b), weights))
        tape.backward(loss)
        a, b = tape.nodes[0].inputs
        fd_a = oracles.finite_diff_grad(lambda t: oracles.reduce_sum(oracles.mul(T.matmul(t, b), weights)), a)
        fd_b = oracles.finite_diff_grad(lambda t: oracles.reduce_sum(oracles.mul(T.matmul(a, t), weights)), b)
        assert a.grad.shape == a.shape and b.grad.shape == b.shape
        assert max_rel_err(a.grad, fd_a.data) < 1e-4
        assert max_rel_err(b.grad, fd_b.data) < 1e-4

    def test_batch_axes_must_broadcast(self):
        with pytest.raises(ShapeError, match="batch axes.*do not broadcast"):
            T.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 2))))


class TestLinear:
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_forward_and_backward_on_3d_input(self, rng, with_bias):
        x = Tensor(rng.normal(size=(3, 5, 4)))
        w = Tensor(rng.normal(size=(4, 6)))
        b = Tensor(rng.normal(size=6)) if with_bias else None
        out = T.linear(x, w, b)
        expected = np.matmul(x.data, w.data) + (b.data if with_bias else 0.0)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)
        weights = rng.normal(size=(3, 5, 6))
        with Tape() as tape:
            loss = oracles.reduce_sum(oracles.mul(T.linear(x, w, b), weights))
        tape.backward(loss)
        leaves = {"x": x, "w": w} if b is None else {"x": x, "w": w, "b": b}
        for name, leaf in leaves.items():
            args = {"x": x, "w": w, "b": b}

            def f(t, name=name, args=args):
                return oracles.reduce_sum(oracles.mul(T.linear(**{**args, name: t}), weights))

            assert max_rel_err(leaf.grad, oracles.finite_diff_grad(f, leaf).data) < 1e-4, name

    def test_bias_shape_checked(self):
        with pytest.raises(ShapeError, match="bias"):
            T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(3)))


class TestAttention:
    B, L, H, DH = 4, 5, 2, 2
    REAL_LENGTHS = (5, 3, 2, 1)  # the last has only its CLS token: a one-hot softmax

    def _mask(self):
        return np.arange(self.L)[None, :] < np.array(self.REAL_LENGTHS)[:, None]

    def _leaves(self, rng):
        d = self.H * self.DH
        x = Tensor(rng.normal(size=(self.B, self.L, d)))
        w_qkv = Tensor(rng.normal(size=(d, 3 * d)))
        return x, w_qkv

    def _check_finite_differences(self, rng, first_query_only):
        real = self._mask()
        d = self.H * self.DH
        for n_heads in (1, 2, 4):
            x, w_qkv = self._leaves(rng)
            weights = rng.normal(size=(self.B, d) if first_query_only else (self.B, self.L, d))

            def f(x, w_qkv):
                out = T.attention(x, w_qkv, real, n_heads, first_query_only=first_query_only)
                return oracles.reduce_sum(oracles.mul(out, weights))

            with Tape() as tape:
                loss = f(x, w_qkv)
            tape.backward(loss)
            assert max_rel_err(x.grad, oracles.finite_diff_grad(lambda t: f(t, w_qkv), x).data) < 1e-4, n_heads
            assert max_rel_err(w_qkv.grad, oracles.finite_diff_grad(lambda t: f(x, t), w_qkv).data) < 1e-4, n_heads
            yield x, w_qkv

    def test_backward_matches_finite_differences(self, rng):
        real = self._mask()
        assert min(self.REAL_LENGTHS) < self.L
        for x, w_qkv in self._check_finite_differences(rng, first_query_only=False):
            # padded keys get no weight, so no real row's output reads a padded position
            moved = x.data.copy()
            moved[~real] = rng.normal(size=moved[~real].shape)
            before = T.attention(x, w_qkv, real, self.H).data
            after = T.attention(moved, w_qkv, real, self.H).data
            np.testing.assert_array_equal(after[real], before[real])

    def test_matches_per_head_composition(self, rng):
        d = self.H * self.DH
        real = self._mask()
        a, w_qkv = self._leaves(rng)
        w_out = Tensor(rng.normal(size=(d, d)))
        weights = rng.normal(size=(self.B, self.L, d))
        with Tape() as tape:
            fused = T.linear(T.attention(a, w_qkv, real, self.H), w_out)
            loss = oracles.reduce_sum(oracles.mul(fused, weights))
        tape.backward(loss)

        ref = {name: Tensor(t.data) for name, t in (("a", a), ("w_qkv", w_qkv), ("w_out", w_out))}
        with Tape() as tape:
            attended = oracles.per_head_attention(T.linear(ref["a"], ref["w_qkv"]), real, self.H)
            composed = T.linear(attended, ref["w_out"])
            ref_loss = oracles.reduce_sum(oracles.mul(composed, weights))
        tape.backward(ref_loss)

        np.testing.assert_allclose(fused.data, composed.data, rtol=0, atol=1e-12)
        for name, t in (("a", a), ("w_qkv", w_qkv), ("w_out", w_out)):
            np.testing.assert_allclose(t.grad, ref[name].grad, rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize(
        "n_heads, desk", [(1, False), (2, False), (4, False), (2, True)], ids=["1", "2", "4", "desk"]
    )
    def test_first_query_only_is_row_zero_of_full_attention(self, rng, n_heads, desk):
        if desk:  # the desk model's B 64, L 16, d 64 with random padding, at its init's weight scale
            batch, length, d = 64, 16, 64
            real = np.arange(length) < rng.integers(1, length + 1, size=(batch, 1))
            full_x = Tensor(rng.normal(size=(batch, length, d)))
            full_w = Tensor(rng.normal(size=(d, 3 * d)) / np.sqrt(d))
        else:
            real, (full_x, full_w) = self._mask(), self._leaves(rng)
        batch, length, d = full_x.shape
        x, w_qkv = Tensor(full_x.data), Tensor(full_w.data)
        weights = rng.normal(size=(batch, d))
        row0 = np.zeros((batch, length, d))
        row0[:, 0] = weights  # the full loss reads row 0 only
        with Tape() as tape:
            full = T.attention(full_x, full_w, real, n_heads)
            tape.backward(oracles.reduce_sum(oracles.mul(full, row0)))
        with Tape() as tape:
            first = T.attention(x, w_qkv, real, n_heads, first_query_only=True)
            tape.backward(oracles.reduce_sum(oracles.mul(first, weights)))
        assert first.shape == (batch, d)
        np.testing.assert_allclose(first.data, full.data[:, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(x.grad, full_x.grad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w_qkv.grad, full_w.grad, rtol=0, atol=1e-12)

    def test_first_query_only_backward_matches_finite_differences(self, rng):
        assert min(self.REAL_LENGTHS) < self.L
        for x, _ in self._check_finite_differences(rng, first_query_only=True):
            # only position 0 queries and padded keys get no weight, so padded rows get no gradient
            for b, n in enumerate(self.REAL_LENGTHS):
                assert not x.grad[b, n:].any()

    def test_sequence_without_real_token_rejected(self, rng):
        real = self._mask()
        real[1] = False
        with pytest.raises(ValueError, match="no real token"):
            T.attention(*self._leaves(rng), real, self.H)

    def test_shapes_checked(self):
        x = Tensor(np.zeros((self.B, self.L, 4)))
        with pytest.raises(ShapeError, match="heads"):
            T.attention(x, Tensor(np.zeros((4, 10))), self._mask(), self.H)
        with pytest.raises(ShapeError, match="heads"):
            T.attention(x, Tensor(np.zeros((5, 12))), self._mask(), self.H)
        with pytest.raises(ShapeError, match="key mask"):
            T.attention(x, Tensor(np.zeros((4, 12))), self._mask()[:, :3], self.H)


class TestFirstRow:
    def test_row_zero_of_each_sequence(self, rng):
        a = Tensor(rng.normal(size=(3, 5, 4)))
        out = T.first_row(a)
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out.data, a.data[:, 0])

    def test_backward_matches_finite_differences(self, rng):
        a = Tensor(rng.normal(size=(3, 5, 4)))
        weights = rng.normal(size=(3, 4))

        def f(t):
            return oracles.reduce_sum(oracles.mul(T.first_row(t), weights))

        with Tape() as tape:
            loss = f(a)
        tape.backward(loss)
        assert max_rel_err(a.grad, oracles.finite_diff_grad(f, a).data) < 1e-4
        np.testing.assert_array_equal(a.grad[:, 0], weights)
        assert not a.grad[:, 1:].any()

    def test_rank_one_rejected(self):
        with pytest.raises(ShapeError, match="row 0"):
            T.first_row(Tensor(np.ones(3)))


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert T.sigmoid(Tensor(0.0)).item() == 0.5

    def test_sigmoid_symmetry(self, rng):
        x = rng.normal(size=32) * 5
        total = T.sigmoid(Tensor(x)).data + T.sigmoid(Tensor(-x)).data
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_sigmoid_stable_for_extremes(self):
        out = T.sigmoid(Tensor([-1e4, 1e4]))
        assert out.data[0] == 0.0 and out.data[1] == 1.0

    def test_relu_definition(self):
        assert T.relu(Tensor(-3.5)).item() == 0.0
        assert T.relu(Tensor(2.25)).item() == 2.25

    def test_add_broadcasts_trailing_axis(self):
        out = T.add(Tensor(np.ones((2, 3))), Tensor([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(out.data, [[2.0, 3.0, 4.0], [2.0, 3.0, 4.0]])

    def test_non_broadcastable_shapes_error(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\) and \(2,\)"):
            T.add(Tensor(np.ones((2, 3))), Tensor(np.ones(2)))

    def test_scalar_operands(self):
        x = Tensor([1.0, 2.0])
        np.testing.assert_array_equal(T.add(oracles.mul(x, 2.0), 1.0).data, [3.0, 5.0])
        np.testing.assert_array_equal(oracles.mul(x, -1.0).data, [-1.0, -2.0])

    @pytest.mark.parametrize(
        "op,shapes",
        [
            (T.add, ((3, 4), (4,))),
            (oracles.mul, ((3, 4), (4,))),
        ],
    )
    def test_binary_backward_matches_oracle(self, rng, op, shapes):
        a = Tensor(rng.normal(size=shapes[0]))
        b = Tensor(rng.normal(size=shapes[1]))
        with Tape() as tape:
            loss = oracles.reduce_sum(oracles.mul(op(a, b), op(a, b)))
        tape.backward(loss)
        fd_a = oracles.finite_diff_grad(lambda t: oracles.reduce_sum(oracles.mul(op(t, b), op(t, b))), a)
        fd_b = oracles.finite_diff_grad(lambda t: oracles.reduce_sum(oracles.mul(op(a, t), op(a, t))), b)
        assert max_rel_err(a.grad, fd_a.data) < 1e-4
        assert max_rel_err(b.grad, fd_b.data) < 1e-4

    @pytest.mark.parametrize("op", [T.relu, T.sigmoid])
    def test_unary_backward_matches_oracle(self, rng, op):
        x = Tensor(rng.normal(size=(3, 5)) + 0.3)
        with Tape() as tape:
            loss = oracles.reduce_sum(op(x))
        tape.backward(loss)
        fd = oracles.finite_diff_grad(lambda t: oracles.reduce_sum(op(t)), x)
        assert max_rel_err(x.grad, fd.data) < 1e-4


class TestSoftmax:
    """The reference softmax in ``oracles``, which the per-head attention reference composes."""

    def test_uniform_input(self):
        out = oracles.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
        np.testing.assert_allclose(out.data, 1 / 3, atol=1e-15)

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(4, 6))
        base = oracles.softmax(Tensor(x), axis=1).data
        shifted = oracles.softmax(Tensor(x + 123.456), axis=1).data
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    def test_log_ratio_inputs(self):
        out = oracles.softmax(Tensor(np.log([1.0, 2.0, 3.0])), axis=0)
        np.testing.assert_allclose(out.data, [1 / 6, 2 / 6, 3 / 6], atol=1e-12)

    def test_rows_sum_to_one(self, rng):
        out = oracles.softmax(Tensor(rng.normal(size=(8, 5)) * 10), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-9)
        assert (out.data >= 0).all()

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            oracles.softmax(Tensor(np.ones((2, 2))), axis=5)

    def test_backward_matches_oracle(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        w = Tensor(rng.normal(size=(3, 4)))

        def f(t):
            return oracles.reduce_sum(oracles.mul(oracles.softmax(t, axis=1), w))

        with Tape() as tape:
            loss = f(x)
        tape.backward(loss)
        fd = oracles.finite_diff_grad(f, x)
        assert max_rel_err(x.grad, fd.data) < 1e-4


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        out = T.layer_norm(Tensor([[5.0, 5.0, 5.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_two_point_row(self):
        out = T.layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-3)

    def test_output_mean_equals_bias(self, rng):
        bias = rng.normal(size=6)
        out = T.layer_norm(Tensor(rng.normal(size=(5, 6))), Tensor(np.ones(6)), Tensor(bias))
        np.testing.assert_allclose(out.data.mean(axis=1), bias.mean(), atol=1e-6)

    def test_mismatched_affine_shapes_error(self):
        with pytest.raises(ShapeError):
            T.layer_norm(Tensor(np.ones((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))

    def test_backward_matches_oracle(self, rng):
        x = Tensor(rng.normal(size=(4, 6)))
        gain = Tensor(rng.normal(size=6))
        bias = Tensor(rng.normal(size=6))
        w = Tensor(rng.normal(size=(4, 6)))

        def f(_):
            return oracles.reduce_sum(oracles.mul(T.layer_norm(x, gain, bias), w))

        with Tape() as tape:
            loss = f(None)
        tape.backward(loss)
        for t in (x, gain, bias):
            fd = oracles.finite_diff_grad(f, t)
            assert max_rel_err(t.grad, fd.data) < 1e-4


class TestEmbeddingLookup:
    def test_duplicate_ids(self, rng):
        table = Tensor(rng.normal(size=(5, 3)))
        out = T.embedding_lookup(table, [0, 0])
        np.testing.assert_array_equal(out.data[0], out.data[1])
        np.testing.assert_array_equal(out.data[0], table.data[0])

    def test_keeps_shape_of_id_array(self, rng):
        table = Tensor(rng.normal(size=(5, 3)))
        ids = np.array([[0, 4, 4], [2, 0, 1]])
        out = T.embedding_lookup(table, ids)
        assert out.shape == (2, 3, 3)
        np.testing.assert_array_equal(out.data[1, 2], table.data[1])
        with Tape() as tape:
            loss = oracles.reduce_sum(T.embedding_lookup(table, ids))
        tape.backward(loss)
        np.testing.assert_array_equal(np.asarray(table.grad)[:, 0], [2.0, 1.0, 1.0, 0.0, 2.0])

    def test_empty_ids(self, rng):
        out = T.embedding_lookup(Tensor(rng.normal(size=(5, 3))), [])
        assert out.shape == (0, 3)

    def test_out_of_range_id_named(self, rng):
        with pytest.raises(IndexError, match="7"):
            T.embedding_lookup(Tensor(rng.normal(size=(5, 3))), [1, 7])

    def test_gradient_scatters_additively(self, rng):
        table = Tensor(rng.normal(size=(4, 3)))
        with Tape() as tape:
            loss = oracles.reduce_sum(T.embedding_lookup(table, [1, 1]))
        tape.backward(loss)
        fd = oracles.finite_diff_grad(lambda t: oracles.reduce_sum(T.embedding_lookup(t, [1, 1])), table)
        assert max_rel_err(np.asarray(table.grad), fd.data) < 1e-4
        np.testing.assert_array_equal(np.asarray(table.grad)[1], [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(np.asarray(table.grad)[0], 0.0)


class TestRowGrad:
    """An embedding table's gradient, against a dense scatter row by row in id order."""

    SHAPE = (40, 6)

    def _upstream(self, rng, shape):
        g = rng.normal(size=shape + (self.SHAPE[1],))
        g[..., 0] = -0.0  # 0.0 + -0.0 is +0.0, so the sign of a sum depends on its start
        return g

    def test_one_lookup_holds_touched_rows(self, rng):
        table = Tensor(rng.normal(size=self.SHAPE))
        ids = np.array([[7, 3, 7, 39], [0, 7, 3, 7], [12, 12, 12, 12]])
        g = self._upstream(rng, ids.shape)
        with Tape() as tape:
            loss = oracles.reduce_sum(oracles.mul(T.embedding_lookup(table, ids), g))
        (grad,) = tape.nodes[0].rule(g)  # the lookup's own gradient, before backward densifies it
        tape.backward(loss)
        assert isinstance(grad, RowGrad)
        np.testing.assert_array_equal(grad.rows, [0, 3, 7, 12, 39])
        assert grad.values.shape == (5, self.SHAPE[1]) and grad.shape == self.SHAPE
        assert same_bits(np.asarray(grad), oracles.dense_scatter(self.SHAPE, ids, g))
        assert isinstance(table.grad, np.ndarray) and same_bits(table.grad, np.asarray(grad))

    def test_table_looked_up_twice_on_one_tape(self, rng):
        table = Tensor(rng.normal(size=self.SHAPE))
        ids1, ids2 = rng.integers(0, 40, size=(3, 5)), rng.integers(0, 40, size=7)
        g1, g2 = self._upstream(rng, ids1.shape), self._upstream(rng, ids2.shape)
        with Tape() as tape:
            loss = T.add(
                oracles.reduce_sum(oracles.mul(T.embedding_lookup(table, ids1), g1)),
                oracles.reduce_sum(oracles.mul(T.embedding_lookup(table, ids2), g2)),
            )
        tape.backward(loss)
        want = oracles.dense_scatter(self.SHAPE, ids1, g1) + oracles.dense_scatter(self.SHAPE, ids2, g2)
        assert same_bits(table.grad, want)

    def test_table_also_read_densely_on_one_tape(self, rng):
        table = Tensor(rng.normal(size=self.SHAPE))
        ids, w = rng.integers(0, 40, size=9), rng.normal(size=self.SHAPE)
        g = self._upstream(rng, ids.shape)
        with Tape() as tape:
            loss = T.add(
                oracles.reduce_sum(oracles.mul(T.embedding_lookup(table, ids), g)),
                oracles.reduce_sum(oracles.mul(table, w)),
            )
        tape.backward(loss)
        assert same_bits(table.grad, w + oracles.dense_scatter(self.SHAPE, ids, g))

    def test_two_backward_calls_without_zero_grad(self, rng):
        table = Tensor(rng.normal(size=self.SHAPE))
        want = None
        for _ in range(3):
            ids = rng.integers(0, 40, size=(2, 6))
            g = self._upstream(rng, ids.shape)
            with Tape() as tape:
                loss = oracles.reduce_sum(oracles.mul(T.embedding_lookup(table, ids), g))
            tape.backward(loss)
            scatter = oracles.dense_scatter(self.SHAPE, ids, g)
            want = scatter if want is None else want + scatter
        assert same_bits(table.grad, want)


@st.composite
def _lookups(draw):
    """(rows, ids, upstream gradient) of one lookup: few rows, so ids repeat."""
    rows = draw(st.integers(1, 6))
    shape = draw(st.sampled_from([(1,), (7,), (3, 4)]))
    ids = draw(hnp.arrays(np.intp, shape, elements=st.integers(0, rows - 1)))
    values = st.floats(-1e300, 1e300) | st.sampled_from([-0.0, 0.0, 5e-324, 1e300])
    return rows, ids, draw(hnp.arrays(np.float64, shape + (draw(st.integers(1, 5)),), elements=values))


class TestEmbeddingScatter:
    """The lookup's backward against ``np.add.at`` into zeros, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(lookup=_lookups())
    @example(lookup=(3, np.array([1]), np.array([[-0.0]])))  # one id, width 1
    @example(lookup=(2, np.ones((3, 4), dtype=np.intp), np.linspace(-1.0, 1.0, 36).reshape(3, 4, 3) * 1e17))  # all equal
    def test_matches_add_at_into_zeros(self, lookup):
        rows, ids, g = lookup
        width = g.shape[-1]
        table = Tensor(np.zeros((rows, width)))
        with Tape() as tape:
            out = T.embedding_lookup(table, ids)
        (grad,) = tape.nodes[0].rule(g)
        touched, inverse = np.unique(ids.reshape(-1), return_inverse=True)
        want = np.zeros((touched.size, width))
        np.add.at(want, inverse.reshape(-1), g.reshape(-1, width))
        np.testing.assert_array_equal(grad.rows, touched)
        assert out.shape == g.shape and same_bits(grad.values, want)


class TestReduce:
    def test_sum(self):
        assert oracles.reduce_sum(Tensor([1.0, 2.0, 3.0])).item() == 6.0

    def test_axis_reduction_backward(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))

        def f(t):
            return oracles.reduce_sum(oracles.mul(oracles.reduce_sum(t, axis=0), oracles.reduce_sum(t, axis=0)))

        with Tape() as tape:
            loss = f(x)
        tape.backward(loss)
        fd = oracles.finite_diff_grad(f, x)
        assert max_rel_err(x.grad, fd.data) < 1e-4


class TestBCE:
    def test_value_is_mean_pair_loss_in_one_node(self, rng):
        p = rng.uniform(0.05, 0.95, size=(6, 1))
        y = np.array([[1.0], [0.0], [0.0], [1.0], [1.0], [0.0]])
        x = Tensor(p)
        with Tape() as tape:
            loss = T.bce(x, y, 1e-12)
        assert len(tape) == 1
        expected = -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
        assert abs(loss.item() - expected) < 1e-15

    def test_backward_matches_oracle_under_upstream_gradient(self, rng):
        x = Tensor(rng.uniform(0.05, 0.95, size=(4, 3)))
        y = (rng.uniform(size=(4, 3)) < 0.5).astype(float)
        with Tape() as tape:
            loss = oracles.mul(T.bce(x, y, 1e-12), 3.0)
        tape.backward(loss)
        fd = oracles.finite_diff_grad(lambda t: oracles.mul(T.bce(t, y, 1e-12), 3.0), x)
        assert max_rel_err(x.grad, fd.data) < 1e-6

    def test_wide_clamp_zeroes_gradient_outside(self, rng):
        x = Tensor([0.05, 0.2, 0.5, 0.8, 0.95])
        y = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        with Tape() as tape:
            loss = T.bce(x, y, 0.1)
        tape.backward(loss)
        # clamped to 0.1 and 0.9, whatever lies past them
        assert loss.item() == T.bce(Tensor([0.1, 0.2, 0.5, 0.8, 0.9]), y, 0.1).item()
        np.testing.assert_array_equal(x.grad[[0, 4]], 0.0)
        fd = oracles.finite_diff_grad(lambda t: T.bce(t, y, 0.1), x)
        assert max_rel_err(x.grad[1:4], fd.data[1:4]) < 1e-6

    def test_label_shape_must_match(self):
        with pytest.raises(ShapeError, match=r"\(2,\).*\(2, 1\)"):
            T.bce(Tensor(np.full((2, 1), 0.5)), np.array([1.0, 0.0]), 1e-12)


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = Tensor(rng.normal(size=(2, 3)))
        with Tape() as tape:
            loss = oracles.reduce_sum(x)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_sum_gradient(self):
        x = Tensor([1.0, 2.0])
        with Tape() as tape:
            loss = oracles.reduce_sum(oracles.mul(x, x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)

    def test_backward_twice_doubles(self):
        x = Tensor([1.0, 2.0])
        with Tape() as tape:
            loss = oracles.reduce_sum(oracles.mul(x, x))
        tape.backward(loss)
        first = x.grad.copy()
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2 * first, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0])
        with Tape() as tape:
            y = oracles.mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)

    def test_empty_tape_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Tape().backward(Tensor(1.0))

    def test_each_node_visited_once(self, rng):
        x = Tensor(rng.normal(size=(3, 3)))
        with Tape() as tape:
            y = T.sigmoid(T.matmul(x, x))
            loss = oracles.reduce_sum(oracles.mul(y, y))
        calls = [0] * len(tape.nodes)
        for idx, node in enumerate(tape.nodes):

            def counted(g, rule=node.rule, idx=idx):
                calls[idx] += 1
                return rule(g)

            node.rule = counted
        tape.backward(loss)
        assert calls == [1] * len(tape.nodes)

    def test_gradients_reach_leaves_only(self, rng):
        x = Tensor(rng.normal(size=(2, 5, 4)))
        w1 = Tensor(rng.normal(size=(4, 3)))
        w2 = Tensor(rng.normal(size=(3, 1)))

        def f(_=None):
            return oracles.reduce_sum(T.sigmoid(T.matmul(T.relu(T.matmul(x, w1)), w2)))

        with Tape() as tape:
            loss = f()
        tape.backward(loss)
        assert len(tape.nodes) == 5
        assert all(node.output.grad is None for node in tape.nodes)
        for leaf in (x, w1, w2):
            assert max_rel_err(leaf.grad, oracles.finite_diff_grad(f, leaf).data) < 1e-4

    def test_shared_input_accumulates(self):
        x = Tensor([3.0])
        with Tape() as tape:
            loss = oracles.reduce_sum(T.add(oracles.mul(x, x), x))  # d/dx = 2x + 1
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [7.0], atol=1e-12)


class TestTapePasses:
    """Each entry of a tape is a pass: it forgets the last pass's nodes and lends its buffers again."""

    def test_second_entry_records_only_its_own_pass(self):
        x = Tensor([1.0, -2.0])
        tape = Tape()
        with tape:
            T.relu(x)
            T.sigmoid(x)
        with tape:
            y = T.relu(x)
        assert len(tape) == 1
        assert tape.nodes[0].output is y

    def test_second_tape_rejected_while_one_is_active(self):
        x = Tensor([1.0, -2.0])
        with Tape() as tape:
            with pytest.raises(RuntimeError, match="a tape is already active"):
                with Tape():
                    T.sigmoid(x)
            T.relu(x)  # records on the tape that stayed active
        assert len(tape) == 1
        with Tape() as other:  # once none is active, any tape may be entered
            T.relu(x)
        assert len(other) == 1

    def test_loss_from_the_previous_pass_rejected(self):
        x = Tensor([1.0, -2.0])
        tape = Tape()
        with tape:
            old = oracles.reduce_sum(x)
        with tape:
            new = oracles.reduce_sum(T.relu(x))
        with pytest.raises(ValueError, match="loss was not produced on this tape"):
            tape.backward(old)
        tape.backward(new)
        np.testing.assert_array_equal(x.grad, [1.0, 0.0])

    def test_entry_lends_the_last_pass_buffers_and_no_tape_lends_none(self):
        x = Tensor([1.0, -2.0])
        tape = Tape()
        with tape:
            first = T.relu(x).data
        with tape:
            second = T.relu(x).data
        assert second is first
        assert not np.shares_memory(T.relu(x).data, first)
        with Tape():
            assert not np.shares_memory(T.relu(x).data, first)  # a fresh tape has a pool of its own

class TestFiniteDiff:
    def test_sum_function(self, rng):
        x = Tensor(rng.normal(size=(2, 3)))
        fd = oracles.finite_diff_grad(lambda t: oracles.reduce_sum(t), x)
        np.testing.assert_allclose(fd.data, 1.0, atol=1e-8)

    def test_square_at_three(self):
        fd = oracles.finite_diff_grad(lambda t: oracles.mul(t, t).item(), Tensor(3.0), h=1e-4)
        assert abs(fd.item() - 6.0) < 1e-6

    def test_restores_input(self, rng):
        x = Tensor(rng.normal(size=4))
        before = x.data.copy()
        oracles.finite_diff_grad(lambda t: oracles.reduce_sum(oracles.mul(t, t)), x)
        np.testing.assert_array_equal(x.data, before)

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            oracles.finite_diff_grad(lambda t: oracles.reduce_sum(t), Tensor([1.0]), h=0.0)

    def test_agrees_with_backward_on_two_layer_network(self, rng):
        w1 = Tensor(rng.normal(size=(4, 8)) * 0.5)
        w2 = Tensor(rng.normal(size=(8, 1)) * 0.5)
        x = Tensor(rng.normal(size=(5, 4)))

        def f(_):
            hidden = T.sigmoid(T.matmul(x, w1))
            return oracles.reduce_sum(T.sigmoid(T.matmul(hidden, w2)))

        with Tape() as tape:
            loss = f(None)
        tape.backward(loss)
        for t in (w1, w2):
            fd = oracles.finite_diff_grad(f, t)
            assert max_rel_err(t.grad, fd.data) < 1e-4


class TestTensorBasics:
    def test_data_length_matches_shape(self, rng):
        t = Tensor(rng.normal(size=(3, 5)))
        assert t.size == 15 and t.shape == (3, 5)

    def test_grad_matches_data_length(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        with Tape() as tape:
            loss = oracles.reduce_sum(x)
        tape.backward(loss)
        assert x.grad.shape == x.data.shape

    def test_constructor_copies_its_data(self):
        arr = np.array([1.0, 2.0])
        t = Tensor(arr)
        arr += 1.0
        np.testing.assert_array_equal(t.data, [1.0, 2.0])

    def test_item_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_tensor_backward_method(self):
        x = Tensor([2.0])
        with Tape() as tape:
            loss = oracles.reduce_sum(oracles.mul(x, x))
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [4.0], atol=1e-12)

    def test_backward_off_tape_rejected(self):
        x = Tensor([2.0])
        with Tape() as tape:
            oracles.reduce_sum(oracles.mul(x, x))
        with Tape():
            other = oracles.reduce_sum(oracles.mul(x, x))
        for loss in (Tensor(1.0), other):
            with pytest.raises(ValueError, match="this tape"):
                tape.backward(loss)
