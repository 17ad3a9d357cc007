"""Tensor op semantics and backward-vs-finite-difference agreement."""

import numpy as np
import pytest

import oracles
from reranklab import tensor as T
from reranklab.tensor import RowGrad, ShapeError, Tape, Tensor, finite_diff_grad

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
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        with Tape() as tape:
            loss = T.matmul(a, b).sum()
        tape.backward(loss)
        fd_a = finite_diff_grad(lambda t: T.matmul(t, b).sum(), a)
        fd_b = finite_diff_grad(lambda t: T.matmul(a, t).sum(), b)
        assert max_rel_err(a.grad, fd_a.data) < 1e-4
        assert max_rel_err(b.grad, fd_b.data) < 1e-4

    @pytest.mark.parametrize("b_shape", [(4, 2), (3, 4, 2)])
    def test_batched_product_and_backward(self, rng, b_shape):
        a = Tensor(rng.normal(size=(3, 5, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=b_shape), requires_grad=True)
        out = T.matmul(a, b)
        for i in range(3):
            rhs = b.data if b.data.ndim == 2 else b.data[i]
            np.testing.assert_allclose(out.data[i], a.data[i] @ rhs, rtol=1e-12)
        weights = rng.normal(size=(3, 5, 2))
        with Tape() as tape:
            loss = T.mul(T.matmul(a, b), weights).sum()
        tape.backward(loss)
        assert b.grad.shape == b_shape
        fd_a = finite_diff_grad(lambda t: T.mul(T.matmul(t, b), weights).sum(), a)
        fd_b = finite_diff_grad(lambda t: T.mul(T.matmul(a, t), weights).sum(), b)
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
        a = Tensor(rng.normal(size=(2, 3, 5, 4)), requires_grad=trained == "a")
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=trained == "b")
        weights = rng.normal(size=(2, 3, 5, 3))
        with Tape() as tape:
            loss = T.mul(T.matmul(a, b), weights).sum()
        tape.backward(loss)
        if trained == "a":
            fd = finite_diff_grad(lambda t: T.mul(T.matmul(t, b), weights).sum(), a)
            assert b.grad is None and a.grad.shape == a.shape
            assert max_rel_err(a.grad, fd.data) < 1e-4
        else:
            fd = finite_diff_grad(lambda t: T.mul(T.matmul(a, t), weights).sum(), b)
            assert a.grad is None and b.grad.shape == b.shape
            assert max_rel_err(b.grad, fd.data) < 1e-4

    def test_batch_axes_must_broadcast(self):
        with pytest.raises(ShapeError, match="batch axes.*do not broadcast"):
            T.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 2))))


class TestLinear:
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_forward_and_backward_on_3d_input(self, rng, with_bias):
        x = Tensor(rng.normal(size=(3, 5, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        b = Tensor(rng.normal(size=6), requires_grad=True) if with_bias else None
        out = T.linear(x, w, b)
        expected = np.matmul(x.data, w.data) + (b.data if with_bias else 0.0)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)
        weights = rng.normal(size=(3, 5, 6))
        with Tape() as tape:
            loss = T.mul(T.linear(x, w, b), weights).sum()
        tape.backward(loss)
        leaves = {"x": x, "w": w} if b is None else {"x": x, "w": w, "b": b}
        for name, leaf in leaves.items():
            args = {"x": x, "w": w, "b": b}

            def f(t, name=name, args=args):
                return T.mul(T.linear(**{**args, name: t}), weights).sum()

            assert max_rel_err(leaf.grad, finite_diff_grad(f, leaf).data) < 1e-4, name

    def test_bias_shape_checked(self):
        with pytest.raises(ShapeError, match="bias"):
            T.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(3)))


def _per_head_block(a, w_query, w_key_t, w_value, w_out, a_t, real):
    """The encoder's attention as it was composed of separate ops, one head at a time.

    Keys come in transposed, as leaves of their own (``w_key_t``, ``a_t``),
    because there is no transpose op.
    """
    scale = 1.0 / np.sqrt(w_query[0].shape[1])
    key_mask = np.where(real, 0.0, -np.inf)[:, None, :]
    total = None
    for wq, wkt, wv, wo in zip(w_query, w_key_t, w_value, w_out):
        scores = T.add(T.mul(T.matmul(T.matmul(a, wq), T.matmul(wkt, a_t)), scale), key_mask)
        head = T.matmul(T.matmul(oracles.softmax(scores, axis=-1), T.matmul(a, wv)), wo)
        total = head if total is None else T.add(total, head)
    return total


class TestAttention:
    B, L, H, DH = 3, 5, 2, 2
    REAL_LENGTHS = (5, 3, 2)

    def _mask(self):
        return np.arange(self.L)[None, :] < np.array(self.REAL_LENGTHS)[:, None]

    def test_backward_matches_finite_differences(self, rng):
        real = self._mask()
        qkv = Tensor(rng.normal(size=(self.B, self.L, 3 * self.H * self.DH)), requires_grad=True)
        weights = rng.normal(size=(self.B, self.L, self.H * self.DH))
        with Tape() as tape:
            loss = T.mul(T.attention(qkv, real, self.H), weights).sum()
        tape.backward(loss)
        fd = finite_diff_grad(lambda t: T.mul(T.attention(t, real, self.H), weights).sum(), qkv)
        assert max_rel_err(qkv.grad, fd.data) < 1e-4
        # padded keys get no weight, so their key and value columns get no gradient
        d = self.H * self.DH
        for b, n in enumerate(self.REAL_LENGTHS):
            assert not qkv.grad[b, n:, d:].any()

    def test_matches_per_head_composition(self, rng):
        d = self.H * self.DH
        real = self._mask()
        a = Tensor(rng.normal(size=(self.B, self.L, d)), requires_grad=True)
        heads = {
            name: [rng.normal(size=shape) for _ in range(self.H)]
            for name, shape in (("q", (d, self.DH)), ("k", (d, self.DH)), ("v", (d, self.DH)), ("o", (self.DH, d)))
        }
        # The fused leaves: all heads' queries, then keys, then values; output rows head by head.
        w_qkv = Tensor(np.concatenate(heads["q"] + heads["k"] + heads["v"], axis=1), requires_grad=True)
        w_out = Tensor(np.concatenate(heads["o"], axis=0), requires_grad=True)
        weights = rng.normal(size=(self.B, self.L, d))
        with Tape() as tape:
            fused = T.linear(T.attention(T.linear(a, w_qkv), real, self.H), w_out)
            loss = T.mul(fused, weights).sum()
        tape.backward(loss)

        a_t = Tensor(np.swapaxes(a.data, 1, 2), requires_grad=True)
        w_key_t = [Tensor(w.T, requires_grad=True) for w in heads["k"]]
        ref_a = Tensor(a.data, requires_grad=True)
        ref = {name: [Tensor(w, requires_grad=True) for w in ws] for name, ws in heads.items()}
        with Tape() as tape:
            composed = _per_head_block(ref_a, ref["q"], w_key_t, ref["v"], ref["o"], a_t, real)
            ref_loss = T.mul(composed, weights).sum()
        tape.backward(ref_loss)

        np.testing.assert_allclose(fused.data, composed.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.grad, ref_a.grad + np.swapaxes(a_t.grad, 1, 2), rtol=0, atol=1e-12)
        blocks = {
            name: np.split(w_qkv.grad[:, j * d : (j + 1) * d], self.H, axis=1)
            for j, name in enumerate(("q", "k", "v"))
        }
        blocks["o"] = np.split(w_out.grad, self.H, axis=0)
        for name in ("q", "v", "o"):
            for g, r in zip(blocks[name], ref[name]):
                np.testing.assert_allclose(g, r.grad, rtol=0, atol=1e-12)
        for g, r in zip(blocks["k"], w_key_t):
            np.testing.assert_allclose(g, r.grad.T, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_first_query_only_is_row_zero_of_full_attention(self, rng, n_heads):
        real = self._mask()
        d = self.H * self.DH
        data = rng.normal(size=(self.B, self.L, 3 * d))
        weights = rng.normal(size=(self.B, d))
        full_qkv = Tensor(data, requires_grad=True)
        row0 = np.zeros((self.B, self.L, d))
        row0[:, 0] = weights  # the full loss reads row 0 only
        with Tape() as tape:
            full = T.attention(full_qkv, real, n_heads)
            tape.backward(T.mul(full, row0).sum())
        qkv = Tensor(data, requires_grad=True)
        with Tape() as tape:
            first = T.attention(qkv, real, n_heads, first_query_only=True)
            tape.backward(T.mul(first, weights).sum())
        assert first.shape == (self.B, d)
        np.testing.assert_allclose(first.data, full.data[:, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(qkv.grad, full_qkv.grad, rtol=0, atol=1e-12)

    def test_first_query_only_backward_matches_finite_differences(self, rng):
        real = self._mask()
        d = self.H * self.DH
        qkv = Tensor(rng.normal(size=(self.B, self.L, 3 * d)), requires_grad=True)
        weights = rng.normal(size=(self.B, d))

        def f(t):
            return T.mul(T.attention(t, real, self.H, first_query_only=True), weights).sum()

        with Tape() as tape:
            loss = f(qkv)
        tape.backward(loss)
        fd = finite_diff_grad(f, qkv)
        assert max_rel_err(qkv.grad, fd.data) < 1e-4
        # only position 0 queries, so the other positions' query columns get no gradient
        assert not qkv.grad[:, 1:, :d].any()
        # padded keys get no weight, so their key and value columns get no gradient
        assert min(self.REAL_LENGTHS) < self.L
        for b, n in enumerate(self.REAL_LENGTHS):
            assert not qkv.grad[b, n:, d:].any()

    def test_sequence_without_real_token_rejected(self):
        real = self._mask()
        real[1] = False
        with pytest.raises(ValueError, match="no real token"):
            T.attention(Tensor(np.zeros((self.B, self.L, 3 * self.H * self.DH))), real, self.H)

    def test_shapes_checked(self):
        with pytest.raises(ShapeError, match="heads"):
            T.attention(Tensor(np.zeros((self.B, self.L, 10))), self._mask(), self.H)
        with pytest.raises(ShapeError, match="key mask"):
            T.attention(Tensor(np.zeros((self.B, self.L, 12))), self._mask()[:, :3], self.H)


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
        np.testing.assert_array_equal(T.add(T.mul(x, 2.0), 1.0).data, [3.0, 5.0])
        np.testing.assert_array_equal(T.mul(x, -1.0).data, [-1.0, -2.0])

    @pytest.mark.parametrize(
        "op,shapes",
        [
            (T.add, ((3, 4), (4,))),
            (T.mul, ((3, 4), (4,))),
        ],
    )
    def test_binary_backward_matches_oracle(self, rng, op, shapes):
        a = Tensor(rng.normal(size=shapes[0]), requires_grad=True)
        b = Tensor(rng.normal(size=shapes[1]), requires_grad=True)
        with Tape() as tape:
            loss = T.mul(op(a, b), op(a, b)).sum()
        tape.backward(loss)
        fd_a = finite_diff_grad(lambda t: T.mul(op(t, b), op(t, b)).sum(), a)
        fd_b = finite_diff_grad(lambda t: T.mul(op(a, t), op(a, t)).sum(), b)
        assert max_rel_err(a.grad, fd_a.data) < 1e-4
        assert max_rel_err(b.grad, fd_b.data) < 1e-4

    @pytest.mark.parametrize("op", [T.relu, T.sigmoid])
    def test_unary_backward_matches_oracle(self, rng, op):
        x = Tensor(rng.normal(size=(3, 5)) + 0.3, requires_grad=True)
        with Tape() as tape:
            loss = op(x).sum()
        tape.backward(loss)
        fd = finite_diff_grad(lambda t: op(t).sum(), x)
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
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)))

        def f(t):
            return T.mul(oracles.softmax(t, axis=1), w).sum()

        with Tape() as tape:
            loss = f(x)
        tape.backward(loss)
        fd = finite_diff_grad(f, x)
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
        x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        gain = Tensor(rng.normal(size=6), requires_grad=True)
        bias = Tensor(rng.normal(size=6), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 6)))

        def f(_):
            return T.mul(T.layer_norm(x, gain, bias), w).sum()

        with Tape() as tape:
            loss = f(None)
        tape.backward(loss)
        for t in (x, gain, bias):
            fd = finite_diff_grad(f, t)
            assert max_rel_err(t.grad, fd.data) < 1e-4


class TestEmbeddingLookup:
    def test_duplicate_ids(self, rng):
        table = Tensor(rng.normal(size=(5, 3)))
        out = T.embedding_lookup(table, [0, 0])
        np.testing.assert_array_equal(out.data[0], out.data[1])
        np.testing.assert_array_equal(out.data[0], table.data[0])

    def test_keeps_shape_of_id_array(self, rng):
        table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        ids = np.array([[0, 4, 4], [2, 0, 1]])
        out = T.embedding_lookup(table, ids)
        assert out.shape == (2, 3, 3)
        np.testing.assert_array_equal(out.data[1, 2], table.data[1])
        with Tape() as tape:
            loss = T.embedding_lookup(table, ids).sum()
        tape.backward(loss)
        np.testing.assert_array_equal(np.asarray(table.grad)[:, 0], [2.0, 1.0, 1.0, 0.0, 2.0])

    def test_empty_ids(self, rng):
        out = T.embedding_lookup(Tensor(rng.normal(size=(5, 3))), [])
        assert out.shape == (0, 3)

    def test_out_of_range_id_named(self, rng):
        with pytest.raises(IndexError, match="7"):
            T.embedding_lookup(Tensor(rng.normal(size=(5, 3))), [1, 7])

    def test_gradient_scatters_additively(self, rng):
        table = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        with Tape() as tape:
            loss = T.embedding_lookup(table, [1, 1]).sum()
        tape.backward(loss)
        fd = finite_diff_grad(lambda t: T.embedding_lookup(t, [1, 1]).sum(), table)
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
        table = Tensor(rng.normal(size=self.SHAPE), requires_grad=True)
        ids = np.array([[7, 3, 7, 39], [0, 7, 3, 7], [12, 12, 12, 12]])
        g = self._upstream(rng, ids.shape)
        with Tape() as tape:
            loss = T.mul(T.embedding_lookup(table, ids), g).sum()
        tape.backward(loss)
        grad = table.grad
        assert isinstance(grad, RowGrad)
        np.testing.assert_array_equal(grad.rows, [0, 3, 7, 12, 39])
        assert grad.values.shape == (5, self.SHAPE[1]) and grad.shape == self.SHAPE
        assert same_bits(np.asarray(grad), oracles.dense_scatter(self.SHAPE, ids, g))

    def test_table_looked_up_twice_on_one_tape(self, rng):
        table = Tensor(rng.normal(size=self.SHAPE), requires_grad=True)
        ids1, ids2 = rng.integers(0, 40, size=(3, 5)), rng.integers(0, 40, size=7)
        g1, g2 = self._upstream(rng, ids1.shape), self._upstream(rng, ids2.shape)
        with Tape() as tape:
            loss = T.add(
                T.mul(T.embedding_lookup(table, ids1), g1).sum(),
                T.mul(T.embedding_lookup(table, ids2), g2).sum(),
            )
        tape.backward(loss)
        want = oracles.dense_scatter(self.SHAPE, ids1, g1) + oracles.dense_scatter(self.SHAPE, ids2, g2)
        assert same_bits(table.grad, want)

    def test_table_also_read_densely_on_one_tape(self, rng):
        table = Tensor(rng.normal(size=self.SHAPE), requires_grad=True)
        ids, w = rng.integers(0, 40, size=9), rng.normal(size=self.SHAPE)
        g = self._upstream(rng, ids.shape)
        with Tape() as tape:
            loss = T.add(T.mul(T.embedding_lookup(table, ids), g).sum(), T.mul(table, w).sum())
        tape.backward(loss)
        assert same_bits(table.grad, w + oracles.dense_scatter(self.SHAPE, ids, g))

    def test_two_backward_calls_without_zero_grad(self, rng):
        table = Tensor(rng.normal(size=self.SHAPE), requires_grad=True)
        want = None
        for _ in range(3):
            ids = rng.integers(0, 40, size=(2, 6))
            g = self._upstream(rng, ids.shape)
            with Tape() as tape:
                loss = T.mul(T.embedding_lookup(table, ids), g).sum()
            tape.backward(loss)
            scatter = oracles.dense_scatter(self.SHAPE, ids, g)
            want = scatter if want is None else want + scatter
        assert same_bits(table.grad, want)


class TestReduce:
    def test_sum(self):
        assert T.reduce_sum(Tensor([1.0, 2.0, 3.0])).item() == 6.0

    def test_axis_reduction_backward(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        with Tape() as tape:
            loss = T.mul(x.sum(axis=0), x.sum(axis=0)).sum()
        tape.backward(loss)
        fd = finite_diff_grad(lambda t: T.mul(t.sum(axis=0), t.sum(axis=0)).sum(), x)
        assert max_rel_err(x.grad, fd.data) < 1e-4


class TestBCE:
    def test_value_is_mean_pair_loss_in_one_node(self, rng):
        p = rng.uniform(0.05, 0.95, size=(6, 1))
        y = np.array([[1.0], [0.0], [0.0], [1.0], [1.0], [0.0]])
        x = Tensor(p, requires_grad=True)
        with Tape() as tape:
            loss = T.bce(x, y, 1e-12)
        assert len(tape) == 1
        expected = -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
        assert abs(loss.item() - expected) < 1e-15

    def test_backward_matches_oracle_under_upstream_gradient(self, rng):
        x = Tensor(rng.uniform(0.05, 0.95, size=(4, 3)), requires_grad=True)
        y = (rng.uniform(size=(4, 3)) < 0.5).astype(float)
        with Tape() as tape:
            loss = T.mul(T.bce(x, y, 1e-12), 3.0)
        tape.backward(loss)
        fd = finite_diff_grad(lambda t: T.mul(T.bce(t, y, 1e-12), 3.0), x)
        assert max_rel_err(x.grad, fd.data) < 1e-6

    def test_wide_clamp_zeroes_gradient_outside(self, rng):
        x = Tensor([0.05, 0.2, 0.5, 0.8, 0.95], requires_grad=True)
        y = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        with Tape() as tape:
            loss = T.bce(x, y, 0.1)
        tape.backward(loss)
        # clamped to 0.1 and 0.9, whatever lies past them
        assert loss.item() == T.bce(Tensor([0.1, 0.2, 0.5, 0.8, 0.9]), y, 0.1).item()
        np.testing.assert_array_equal(x.grad[[0, 4]], 0.0)
        fd = finite_diff_grad(lambda t: T.bce(t, y, 0.1), x)
        assert max_rel_err(x.grad[1:4], fd.data[1:4]) < 1e-6

    def test_label_shape_must_match(self):
        with pytest.raises(ShapeError, match=r"\(2,\).*\(2, 1\)"):
            T.bce(Tensor(np.full((2, 1), 0.5)), np.array([1.0, 0.0]), 1e-12)


class TestBackward:
    def test_sum_gives_ones(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        with Tape() as tape:
            loss = x.sum()
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_square_sum_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = T.mul(x, x).sum()
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)

    def test_backward_twice_doubles(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            loss = T.mul(x, x).sum()
        tape.backward(loss)
        first = x.grad.copy()
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, 2 * first, atol=1e-12)

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = T.mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)

    def test_empty_tape_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Tape().backward(Tensor(1.0))

    def test_each_node_visited_once(self, rng):
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        with Tape() as tape:
            y = T.sigmoid(T.matmul(x, x))
            loss = T.mul(y, y).sum()
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
        w1 = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(3, 1)), requires_grad=True)

        def f(_=None):
            return T.sigmoid(T.matmul(T.relu(T.matmul(x, w1)), w2)).sum()

        with Tape() as tape:
            loss = f()
        tape.backward(loss)
        assert len(tape.nodes) == 5
        assert all(node.output.grad is None for node in tape.nodes)
        assert x.grad is None
        for w in (w1, w2):
            assert max_rel_err(w.grad, finite_diff_grad(f, w).data) < 1e-4

    def test_shared_input_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = T.add(T.mul(x, x), x).sum()  # d/dx = 2x + 1
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [7.0], atol=1e-12)


class TestFiniteDiff:
    def test_sum_function(self, rng):
        x = Tensor(rng.normal(size=(2, 3)))
        fd = finite_diff_grad(lambda t: t.sum(), x)
        np.testing.assert_allclose(fd.data, 1.0, atol=1e-8)

    def test_square_at_three(self):
        fd = finite_diff_grad(lambda t: T.mul(t, t).item(), Tensor(3.0), h=1e-4)
        assert abs(fd.item() - 6.0) < 1e-6

    def test_restores_input(self, rng):
        x = Tensor(rng.normal(size=4))
        before = x.data.copy()
        finite_diff_grad(lambda t: T.mul(t, t).sum(), x)
        np.testing.assert_array_equal(x.data, before)

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            finite_diff_grad(lambda t: t.sum(), Tensor([1.0]), h=0.0)

    def test_agrees_with_backward_on_two_layer_network(self, rng):
        w1 = Tensor(rng.normal(size=(4, 8)) * 0.5, requires_grad=True)
        w2 = Tensor(rng.normal(size=(8, 1)) * 0.5, requires_grad=True)
        x = Tensor(rng.normal(size=(5, 4)))

        def f(_):
            hidden = T.sigmoid(T.matmul(x, w1))
            return T.sigmoid(T.matmul(hidden, w2)).sum()

        with Tape() as tape:
            loss = f(None)
        tape.backward(loss)
        for t in (w1, w2):
            fd = finite_diff_grad(f, t)
            assert max_rel_err(t.grad, fd.data) < 1e-4


class TestTensorBasics:
    def test_data_length_matches_shape(self, rng):
        t = Tensor(rng.normal(size=(3, 5)))
        assert t.size == 15 and t.shape == (3, 5)

    def test_grad_matches_data_length(self, rng):
        x = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        with Tape() as tape:
            loss = x.sum()
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
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            loss = T.mul(x, x).sum()
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [4.0], atol=1e-12)

    def test_backward_off_tape_rejected(self):
        x = Tensor([2.0], requires_grad=True)
        with Tape() as tape:
            T.mul(x, x).sum()
        with Tape():
            other = T.mul(x, x).sum()
        for loss in (Tensor(1.0), other):
            with pytest.raises(ValueError, match="this tape"):
                tape.backward(loss)
