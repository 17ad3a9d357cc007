"""Dense float64 tensors with reverse-mode automatic differentiation.

Ops compute eagerly with numpy. When a :class:`Tape` is active and the
result requires gradients, the op records a node carrying its local
backward rule. ``Tape.backward`` walks the node list once in reverse
(forward execution order is already topological). Gradients reach leaves
only: ``.grad`` is written to the ``requires_grad`` tensors that no node on
the tape produced (parameters and inputs), and an intermediate's gradient
is freed as soon as its node has run. Leaf gradients accumulate across
backward calls; callers zero them between steps.

A leaf's ``.grad`` is an ndarray, or a :class:`RowGrad` when the leaf is a
table read only by one ``embedding_lookup``: the rows that lookup touched
and their summed gradients, so the backward pass and an optimizer update
cost the rows a batch touches rather than the whole table. ``np.asarray``
of a ``RowGrad`` is the dense gradient.

Op outputs own C-contiguous buffers that alias no input; the public
``Tensor(data)`` constructor copies the data it is given. Inside an active
:class:`Workspace`, op outputs and backward temporaries are lent by it and
overwritten once it is entered again; outside one they are fresh. Leaf
gradients are copied out, so ``.grad`` never aliases a lent buffer.

Tensors and tapes are single-context objects: independent tapes may run
in parallel, but one tape must never be shared across threads.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

__all__ = [
    "ShapeError",
    "Tensor",
    "RowGrad",
    "Tape",
    "Workspace",
    "as_tensor",
    "matmul",
    "linear",
    "attention",
    "add",
    "first_row",
    "relu",
    "sigmoid",
    "layer_norm",
    "embedding_lookup",
    "bce",
    "finite_diff_grad",
]


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested op."""


_TAPE_STACK: list["Tape"] = []


class _Node:
    __slots__ = ("inputs", "output", "rule")

    def __init__(self, inputs, output, rule):
        self.inputs = inputs
        self.output = output
        self.rule = rule


class Tape:
    """Ordered record of differentiable ops for one backward pass.

    Used as a context manager::

        with Tape() as tape:
            loss = f(params)
        tape.backward(loss)

    The tape references its nodes and their tensors, never the reverse,
    so a step's graph is freed by reference counting once the caller
    drops the tape and the loss.
    """

    def __init__(self):
        self.nodes: list[_Node] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _TAPE_STACK.pop()
        return False

    def __len__(self) -> int:
        return len(self.nodes)

    def _record(self, inputs, output, rule):
        output.node_id = len(self.nodes)
        self.nodes.append(_Node(inputs, output, rule))

    def backward(self, loss: "Tensor") -> None:
        """Accumulate d(loss)/d(leaf) into ``.grad`` of every reachable leaf.

        A leaf is a ``requires_grad`` tensor that no node on this tape
        produced. Op outputs get no ``.grad``: each one's gradient is
        dropped once its node has passed it on. ``loss`` must be a
        single-element tensor produced on this tape.

        A leaf whose only gradient is one lookup's :class:`RowGrad` keeps
        it as ``.grad``. Any sum with another gradient, from a second
        lookup of the same table on this tape or from an earlier backward
        call not cleared by ``zero_grad``, is dense, and equal bit for bit
        to summing the dense gradients.
        """
        if loss.size != 1:
            raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
        if not self.nodes:
            raise ValueError("backward on an empty tape")
        node_id = loss.node_id
        if node_id is None or node_id >= len(self.nodes) or self.nodes[node_id].output is not loss:
            raise ValueError("loss was not produced on this tape")

        # id(tensor) -> (tensor, accumulated gradient); entries are never
        # mutated in place, only rebound, so aliasing rule outputs is safe.
        pending: dict[int, tuple["Tensor", np.ndarray]] = {
            id(loss): (loss, np.ones_like(loss.data))
        }

        for idx in range(len(self.nodes) - 1, -1, -1):
            node = self.nodes[idx]
            entry = pending.pop(id(node.output), None)
            if entry is None:
                continue  # node did not contribute to the loss
            out_grad = entry[1]
            for tensor, grad in zip(node.inputs, node.rule(out_grad)):
                if grad is None or not tensor.requires_grad:
                    continue
                prev = pending.get(id(tensor))
                if prev is None:
                    pending[id(tensor)] = (tensor, grad)
                else:  # np.add densifies a RowGrad as its __add__ does
                    pending[id(tensor)] = (tensor, np.add(prev[1], grad, out=_buffer(tensor.data.shape)))

        # Every op output has been popped, so what is left are the leaves. A
        # RowGrad's values are its rule's own array, so it needs no copy.
        for tensor, grad in pending.values():
            if tensor.grad is not None:
                tensor.grad = tensor.grad + grad
            elif isinstance(grad, RowGrad):
                tensor.grad = grad
            else:
                tensor.grad = grad.copy()


_WORKSPACE_STACK: list["Workspace"] = []


class Workspace:
    """Output buffers that ops reuse from one pass to the next.

    Used as a context manager around a forward and backward pass::

        workspace = Workspace()
        for batch in batches:
            with Tape() as tape, workspace:
                loss = f(params, batch)
                tape.backward(loss)

    While it is active, every op takes its output buffer (and any
    activation its backward rule keeps) from here instead of allocating
    one, as do backward rules for their large temporaries and the
    backward pass for its gradient sums; leaf gradients are copied out.
    Buffers are pooled by shape and lent in request order, so a pass
    with the same shapes as the last one gets the same buffers back and
    the memory stays mapped. No buffer is lent twice within one pass, so
    a backward temporary never overwrites an activation a rule reads. A
    lent buffer is valid until the workspace is entered again.
    """

    def __init__(self):
        self._pool: dict[tuple[int, ...], list[np.ndarray]] = {}
        self._lent: dict[tuple[int, ...], int] = {}

    def __enter__(self) -> "Workspace":
        if self in _WORKSPACE_STACK:
            raise RuntimeError("workspace is already active")
        self._lent = {}
        _WORKSPACE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        _WORKSPACE_STACK.pop()
        return False

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        """A float64 buffer of ``shape`` not yet lent in this pass (contents undefined)."""
        pool = self._pool.setdefault(shape, [])
        index = self._lent.get(shape, 0)
        if index == len(pool):
            pool.append(np.empty(shape))
        self._lent[shape] = index + 1
        return pool[index]


def _buffer(shape: tuple[int, ...]) -> np.ndarray:
    """An op's output buffer or a backward temporary: lent by the active workspace, else fresh."""
    return _WORKSPACE_STACK[-1].take(shape) if _WORKSPACE_STACK else np.empty(shape)


class Tensor:
    """N-dimensional float64 array with an attached gradient slot.

    The shape is fixed at construction. ``grad`` starts as None and is
    filled (and thereafter accumulated into) by ``Tape.backward``, with an
    ndarray or a :class:`RowGrad`.
    """

    __slots__ = ("data", "requires_grad", "grad", "node_id")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.array(data, dtype=np.float64, order="C")
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray | RowGrad] = None
        self.node_id: Optional[int] = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class RowGrad:
    """Gradient of a rank-2 table that is zero outside some rows.

    ``rows`` holds the touched row indices, sorted and unique; ``values``
    is their (len(rows), d) block of gradients; ``shape`` is the table's.
    ``np.asarray`` gives the dense gradient, and adding another gradient
    gives a dense sum.
    """

    __slots__ = ("rows", "values", "shape")

    def __init__(self, rows: np.ndarray, values: np.ndarray, shape: tuple[int, int]):
        self.rows = rows
        self.values = values
        self.shape = shape

    def __array__(self, dtype=None, copy=None):
        # ``copy`` is numpy 2's protocol argument; the result is always new.
        dense = np.zeros(self.shape)
        dense[self.rows] = self.values
        return dense if dtype is None else dense.astype(dtype, copy=False)

    def __add__(self, other):
        return np.asarray(self) + np.asarray(other)


def as_tensor(x) -> Tensor:
    """Wrap scalars/arrays as constant tensors; pass tensors through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _emit(inputs: tuple[Tensor, ...], data: np.ndarray, rule) -> Tensor:
    # ``data`` is the op's own result buffer, so it is wrapped without a copy.
    out = Tensor.__new__(Tensor)
    out.data = np.asarray(data, dtype=np.float64, order="C")
    out.requires_grad = any(t.requires_grad for t in inputs)
    out.grad = None
    out.node_id = None
    if _TAPE_STACK and out.requires_grad:
        _TAPE_STACK[-1]._record(inputs, out, rule)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _broadcast_shapes(a: tuple[int, ...], b: tuple[int, ...], op: str) -> tuple[int, ...]:
    try:
        return np.broadcast_shapes(a, b)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a} and {b} do not broadcast") from None


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes, broadcasting leading axes.

    A 2-D ``b`` (a weight) is :func:`linear` without a bias.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul requires operands of rank >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} x {b.shape}")
    batch = _broadcast_shapes(a.shape[:-2], b.shape[:-2], "matmul batch axes")
    if b.data.ndim == 2:
        return linear(a, b)

    def rule(g):
        return (
            _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape) if a.requires_grad else None,
            _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape) if b.requires_grad else None,
        )

    out = _buffer(batch + (a.shape[-2], b.shape[-1]))
    return _emit((a, b), np.matmul(a.data, b.data, out=out), rule)


def linear(x, w, b=None) -> Tensor:
    """``x @ w + b`` over the last axis of ``x``, as one node.

    ``x`` is (..., K), ``w`` is (K, N) and the optional bias ``b`` is (N,).
    The leading axes of ``x`` fold into rows, so the forward and each
    gradient are one GEMM (general matrix multiply); the bias gradient is
    a column sum.
    """
    x, w = as_tensor(x), as_tensor(w)
    bias = None if b is None else as_tensor(b)
    if w.data.ndim != 2 or x.data.ndim < 1 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: input {x.shape} does not match weight {w.shape}")
    k, n = w.shape
    if bias is not None and bias.shape != (n,):
        raise ShapeError(f"linear: bias {bias.shape} does not match weight {w.shape}")
    x2 = x.data.reshape(-1, k)
    out = _buffer(x.shape[:-1] + (n,))
    np.matmul(x2, w.data, out=out.reshape(-1, n))
    if bias is not None:
        out += bias.data

    def rule(g):
        g2 = g.reshape(-1, n)
        dx = np.matmul(g2, w.data.T, out=_buffer(x2.shape)).reshape(x.shape) if x.requires_grad else None
        dw = np.matmul(x2.T, g2, out=_buffer(w.shape)) if w.requires_grad else None
        if bias is None:
            return dx, dw
        return dx, dw, g2.sum(axis=0) if bias.requires_grad else None

    return _emit((x, w) if bias is None else (x, w, bias), out, rule)


def attention(x, w_qkv, key_mask, n_heads: int, first_query_only: bool = False) -> Tensor:
    """Multi-head scaled dot-product self-attention with its input projection, as one node.

    ``x`` is (B, L, K) and ``w_qkv`` is (K, 3d): the query, key and value
    columns side by side, each split into ``n_heads`` consecutive blocks
    of d / n_heads columns, one per head. ``key_mask`` is a (B, L) array,
    true on real tokens; padded keys get zero weight, and every sequence
    needs at least one real token. Returns the heads' outputs side by side,
    (B, L, d).

    Without ``first_query_only`` the projection is the one GEMM
    ``x @ w_qkv`` over all B * L rows. With it only position 0 queries,
    still over every position, and the result is that row alone, (B, d).
    Keys and values are then never formed: with one query q_h per sequence
    and head, the key and value weights are absorbed into it, so the scores
    are ``(q_h W_k,h^T) . x_l`` and the output is ``(sum_l w_l x_l) W_v,h``
    (the weight absorption of DeepSeek-V2's decoding, arXiv:2405.04434).
    No product with ``w_qkv`` then reads more than B rows per head, forward
    or backward. Both backward rules are written out by hand, softmax and
    mask included.
    """
    x, w = as_tensor(x), as_tensor(w_qkv)
    if n_heads < 1 or x.data.ndim != 3 or w.data.ndim != 2 or w.shape[0] != x.shape[-1] or w.shape[1] % (3 * n_heads):
        raise ShapeError(f"attention: input {x.shape} and weight {w.shape} do not give q, k, v of {n_heads} heads")
    batch, length = x.shape[:2]
    real = np.asarray(key_mask, dtype=bool)
    if real.shape != (batch, length):
        raise ShapeError(f"attention: key mask {real.shape} does not match (B, L) = {(batch, length)}")
    if not real.any(axis=1).all():
        raise ValueError("attention: a sequence has no real token to attend to")
    mask = np.where(real, 0.0, -np.inf)
    scale = 1.0 / np.sqrt(w.shape[1] // (3 * n_heads))
    return (_first_query_attention if first_query_only else _full_attention)(x, w, mask, n_heads, scale)


def _heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """(..., rows, d) as (..., n_heads, rows, d / n_heads): one view per head."""
    return a.reshape(*a.shape[:-1], n_heads, -1).swapaxes(-3, -2)


def _softmax(scores: np.ndarray, mask: np.ndarray, scale: float) -> None:
    """Scale, mask (-inf on padded keys) and normalize scores over the last axis, in place."""
    scores *= scale
    scores += mask
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)


def _softmax_backward(dweights: np.ndarray, weights: np.ndarray, scale: float) -> np.ndarray:
    """The scores' gradient, (dw - sum(dw * w)) * w * scale, in place; masked keys have w = 0."""
    dweights -= np.sum(np.multiply(dweights, weights, out=_buffer(weights.shape)), axis=-1, keepdims=True)
    dweights *= weights
    dweights *= scale
    return dweights


def _full_attention(x: Tensor, w: Tensor, mask: np.ndarray, n_heads: int, scale: float) -> Tensor:
    batch, length, k_in = x.shape
    x2 = x.data.reshape(-1, k_in)
    proj = np.matmul(x2, w.data, out=_buffer((len(x2), w.shape[1])))
    # (B, L, 3, H, dh) as one (B, H, L, dh) view per kind
    q, k, v = proj.reshape(batch, length, 3, n_heads, -1).transpose(2, 0, 3, 1, 4)
    weights = np.matmul(q, k.swapaxes(-1, -2), out=_buffer((batch, n_heads, length, length)))
    _softmax(weights, mask[:, None, None, :], scale)
    out = _buffer((batch, length, w.shape[1] // 3))
    np.matmul(weights, v, out=_heads(out, n_heads))

    def rule(g):
        g_heads = _heads(g, n_heads)
        dproj = _buffer(proj.shape)
        dq, dk, dv = dproj.reshape(batch, length, 3, n_heads, -1).transpose(2, 0, 3, 1, 4)
        np.matmul(weights.swapaxes(-1, -2), g_heads, out=dv)
        dscores = _softmax_backward(np.matmul(g_heads, v.swapaxes(-1, -2), out=_buffer(weights.shape)), weights, scale)
        np.matmul(dscores.swapaxes(-1, -2), q, out=dk)
        np.matmul(dscores, k, out=dq)
        dx = np.matmul(dproj, w.data.T, out=_buffer(x2.shape)).reshape(x.shape)
        return dx, np.matmul(x2.T, dproj, out=_buffer(w.shape))

    return _emit((x, w), out, rule)


def _first_query_attention(x: Tensor, w: Tensor, mask: np.ndarray, n_heads: int, scale: float) -> Tensor:
    xs, d = x.data, w.shape[1] // 3
    batch, length, k_in = xs.shape
    w_k, w_v = (_heads(w.data[:, i * d : (i + 1) * d], n_heads) for i in (1, 2))  # (H, K, dh) each
    x0 = xs[:, 0]
    q = np.matmul(x0, w.data[:, :d], out=_buffer((batch, d)))
    # qk[b, h] = q_h W_k,h^T, the head's query read back in input space: (H, B, dh) @ (H, dh, K)
    qk = _buffer((batch, n_heads, k_in))
    np.matmul(_heads(q, n_heads), w_k.swapaxes(-1, -2), out=qk.swapaxes(0, 1))
    weights = np.matmul(qk, xs.swapaxes(-1, -2), out=_buffer((batch, n_heads, length)))
    _softmax(weights, mask[:, None, :], scale)
    xw = np.matmul(weights, xs, out=_buffer(qk.shape))  # sum_l w_l x_l per sequence and head
    out = _buffer((batch, d))
    np.matmul(xw.swapaxes(0, 1), w_v, out=_heads(out, n_heads))

    def rule(g):
        g_heads = _heads(g, n_heads)
        dw = _buffer(w.shape)
        dw_k, dw_v = (_heads(dw[:, i * d : (i + 1) * d], n_heads) for i in (1, 2))
        np.matmul(xw.transpose(1, 2, 0), g_heads, out=dw_v)
        dxw = _buffer(xw.shape)
        np.matmul(g_heads, w_v.swapaxes(-1, -2), out=dxw.swapaxes(0, 1))
        dscores = _softmax_backward(np.matmul(dxw, xs.swapaxes(-1, -2), out=_buffer(weights.shape)), weights, scale)
        dx = np.matmul(weights.swapaxes(-1, -2), dxw, out=_buffer(xs.shape))
        dx += np.matmul(dscores.swapaxes(-1, -2), qk, out=_buffer(xs.shape))
        dqk = np.matmul(dscores, xs, out=dxw)  # dxw is spent
        np.matmul(dqk.transpose(1, 2, 0), _heads(q, n_heads), out=dw_k)
        dq = _buffer(q.shape)
        np.matmul(dqk.swapaxes(0, 1), w_k, out=_heads(dq, n_heads))
        np.matmul(x0.T, dq, out=dw[:, :d])
        dx[:, 0] += np.matmul(dq, w.data[:, :d].T, out=_buffer(x0.shape))
        return dx, dw

    return _emit((x, w), out, rule)


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    shape = _broadcast_shapes(a.shape, b.shape, "add")

    def rule(g):
        return (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))

    return _emit((a, b), np.add(a.data, b.data, out=_buffer(shape)), rule)


def first_row(a) -> Tensor:
    """``a[:, 0]``: row 0 of each sequence in a (B, L, ...) tensor.

    The backward rule writes the gradient into row 0 of a zero (B, L, ...)
    array.
    """
    a = as_tensor(a)
    if a.data.ndim < 2 or a.shape[1] < 1:
        raise ShapeError(f"first_row: shape {a.shape} has no row 0 on axis 1")

    def rule(g):
        da = _buffer(a.shape)
        da[:, 1:] = 0.0
        da[:, 0] = g
        return (da,)

    out = _buffer(a.shape[:1] + a.shape[2:])
    np.copyto(out, a.data[:, 0])
    return _emit((a,), out, rule)


def relu(a) -> Tensor:
    a = as_tensor(a)

    def rule(g):
        return (np.multiply(g, a.data > 0, out=_buffer(a.shape)),)

    return _emit((a,), np.maximum(a.data, 0.0, out=_buffer(a.shape)), rule)


def sigmoid(a) -> Tensor:
    """Logistic function, numerically stable for large |x|."""
    a = as_tensor(a)
    x = a.data
    out = _buffer(x.shape)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def rule(g):
        return (g * out * (1.0 - out),)

    return _emit((a,), out, rule)


# ---------------------------------------------------------------------------
# normalization and gathering


def layer_norm(a, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    a, gain, bias = as_tensor(a), as_tensor(gain), as_tensor(bias)
    if a.data.ndim < 1 or a.shape[-1] < 1:
        raise ShapeError(f"layer_norm: normalized axis empty in shape {a.shape}")
    n = a.shape[-1]
    if gain.shape != (n,) or bias.shape != (n,):
        raise ShapeError(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} do not match axis length {n}"
        )
    xhat = np.subtract(a.data, np.mean(a.data, axis=-1, keepdims=True), out=_buffer(a.shape))
    out = np.multiply(xhat, xhat, out=_buffer(a.shape))  # squared deviations, then the output
    inv = 1.0 / np.sqrt(np.mean(out, axis=-1, keepdims=True) + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def rule(g):
        g_xhat = np.multiply(g, xhat, out=_buffer(xhat.shape))
        dgain = g_xhat.reshape(-1, n).sum(axis=0) if gain.requires_grad else None
        dbias = g.reshape(-1, n).sum(axis=0) if bias.requires_grad else None
        if not a.requires_grad:
            return (None, dgain, dbias)
        # With dxhat = g * gain: da = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)).
        da = np.multiply(g, gain.data, out=_buffer(a.shape))
        da -= np.mean(da, axis=-1, keepdims=True)
        g_xhat *= gain.data
        np.multiply(xhat, np.mean(g_xhat, axis=-1, keepdims=True), out=g_xhat)
        da -= g_xhat
        da *= inv
        return (da, dgain, dbias)

    return _emit((a, gain, bias), out, rule)


def embedding_lookup(table, ids) -> Tensor:
    """Gather rows of a rank-2 table, keeping the shape of ``ids``.

    The backward rule returns a :class:`RowGrad` over the looked-up rows,
    each the sum of its ids' gradients in id order: one ``np.bincount``
    over (row, column) slots adds every element into its slot one by one,
    starting from 0.0, so the bits are those of a scatter-add
    (``np.add.at``) into a dense zero table.
    """
    table = as_tensor(table)
    if table.data.ndim != 2:
        raise ShapeError(f"embedding_lookup requires a rank-2 table, got {table.shape}")
    ids = np.asarray(ids, dtype=np.intp)
    rows = table.shape[0]
    if ids.size:
        bad = ids[(ids < 0) | (ids >= rows)]
        if bad.size:
            raise IndexError(f"embedding_lookup: id {int(bad[0])} out of range [0, {rows})")

    def rule(g):
        # Flat ids: numpy 2.0 changed return_inverse's shape for n-d input.
        touched, inverse = np.unique(ids.reshape(-1), return_inverse=True)
        width = table.shape[1]
        slots = (inverse.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
        values = np.bincount(slots, weights=g.reshape(-1), minlength=touched.size * width)
        return (RowGrad(touched, values.reshape(touched.size, width), table.shape),)

    # mode="clip" skips numpy's own bounds pass (and its buffered copy); ids are checked above.
    out = _buffer(ids.shape + table.shape[1:])
    return _emit((table,), np.take(table.data, ids, axis=0, out=out, mode="clip"), rule)


# ---------------------------------------------------------------------------
# loss


def bce(p, labels, eps: float) -> Tensor:
    """Mean binary cross-entropy -mean(y log(q) + (1-y) log(1-q)), as one node.

    ``labels`` is a 0/1 array of p's shape, and ``q`` is ``p`` clamped to
    [eps, 1 - eps], so the loss stays finite; the gradient is zero where
    ``p`` lies outside that interval. Keep the order of the arithmetic in
    both passes: it is that of a clamp -> log -> mul -> add -> mean ->
    negate graph of separate ops, so loss logs and checkpoints stay
    byte-identical to those such a graph wrote.
    """
    p = as_tensor(p)
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != p.shape:
        raise ShapeError(f"bce: labels {y.shape} do not match predictions {p.shape}")
    lo, hi = eps, 1.0 - eps
    q = np.clip(p.data, lo, hi)
    q_neg = 1.0 - q
    y_neg = 1.0 - y
    out = np.mean(y * np.log(q) + y_neg * np.log(q_neg), out=_buffer(()))
    out *= -1.0

    def rule(g):
        g_pair = g * -1.0 / p.size
        dq = g_pair * y / q - g_pair * y_neg / q_neg
        return (dq * ((p.data >= lo) & (p.data <= hi)),)

    return _emit((p,), out, rule)


# ---------------------------------------------------------------------------
# independent gradient oracle


def finite_diff_grad(f: Callable[[Tensor], object], x: Tensor, h: float = 1e-5) -> Tensor:
    """Central-difference gradient of a scalar function at ``x``.

    ``f`` must be pure; it is called with ``x`` whose buffer is perturbed
    one coordinate at a time and restored afterwards. Serves as the
    independent oracle for checking ``Tape.backward``.
    """
    if h <= 0:
        raise ValueError("finite_diff_grad requires h > 0")

    def evaluate() -> float:
        out = f(x)
        return out.item() if isinstance(out, Tensor) else float(out)

    base = x.data.copy()
    grad = np.zeros_like(base)
    flat = x.data.reshape(-1)
    try:
        for i in range(flat.size):
            orig = base.reshape(-1)[i]
            flat[i] = orig + h
            fp = evaluate()
            flat[i] = orig - h
            fm = evaluate()
            flat[i] = orig
            grad.reshape(-1)[i] = (fp - fm) / (2.0 * h)
    finally:
        x.data[...] = base
    return Tensor(grad)
