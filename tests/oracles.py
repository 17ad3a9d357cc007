"""Brute-force reference implementations of the ranking metrics, of the
gradient of a scalar function, of the checkpoint v1 writer, of the
optimizer updates and embedding gradient, of the tape ops the encoder no
longer calls (elementwise product, sum, softmax, slicing, transposition)
and of the encoder's full-length forward pass.

Deliberately naive and independent of the production code paths: the
ideal DCG is found by enumerating orderings of the positively judged
documents, precision values are recounted from scratch at every rank, a
gradient is a central difference of two calls per coordinate,
checkpoint values are printed with one float.hex() call each, optimizer
updates are the plain whole-array formulas with fresh temporaries, an
embedding gradient is a dense zero table that each id's gradient row is
added to in turn, and the forward pass runs every layer over every
position, each head's attention composed from separate ops, before it
keeps the CLS row. Only suitable for small cases.
"""

import dataclasses
import itertools
import math
from typing import Callable

import numpy as np

from reranklab import tensor as T
from reranklab.tensor import Tensor
from reranklab.model import PAD_ID, checkpoint_views


def dcg(grades_in_rank_order, k, exponential=False):
    total = 0.0
    for i, g in enumerate(grades_in_rank_order[:k]):
        gain = (2**g - 1) if exponential else g
        total += gain / math.log2(i + 2)
    return total


def brute_ndcg(ranking, grades, k=10, exponential=False):
    """NDCG@k with the ideal ordering found by exhaustive search.

    Zero-grade documents never improve DCG, so permutations run over the
    positively graded documents only.
    """
    positives = [g for g in grades.values() if g > 0]
    best = 0.0
    for perm in itertools.permutations(positives):
        best = max(best, dcg(list(perm), k, exponential))
    if best == 0.0:
        return None
    return dcg([grades.get(d, 0) for d in ranking], k, exponential) / best


def _relevant(grades, binarize_at):
    return {d for d, g in grades.items() if g >= binarize_at}


def brute_average_precision(ranking, grades, binarize_at=1):
    relevant = _relevant(grades, binarize_at)
    if not relevant:
        return None
    total = 0.0
    for i in range(len(ranking)):
        if ranking[i] in relevant:
            hits_so_far = sum(1 for j in range(i + 1) if ranking[j] in relevant)
            total += hits_so_far / (i + 1)
    return total / len(relevant)


def brute_reciprocal_rank(ranking, grades, k=10, binarize_at=1):
    relevant = _relevant(grades, binarize_at)
    if not relevant:
        return None
    for i in range(min(k, len(ranking))):
        if ranking[i] in relevant:
            return 1.0 / (i + 1)
    return 0.0


def brute_precision_at_k(ranking, grades, k=10, binarize_at=1):
    relevant = _relevant(grades, binarize_at)
    if not relevant:
        return None
    hits = 0
    for i in range(min(k, len(ranking))):
        if ranking[i] in relevant:
            hits += 1
    return hits / k


def brute_recall_at_k(ranking, grades, k=10, binarize_at=1):
    relevant = _relevant(grades, binarize_at)
    if not relevant:
        return None
    hits = 0
    for i in range(min(k, len(ranking))):
        if ranking[i] in relevant:
            hits += 1
    return hits / len(relevant)


def brute_r_precision(ranking, grades, binarize_at=1):
    relevant = _relevant(grades, binarize_at)
    if not relevant:
        return None
    r = len(relevant)
    hits = 0
    for i in range(min(r, len(ranking))):
        if ranking[i] in relevant:
            hits += 1
    return hits / r


def random_case(rng, max_docs=8, max_grade=3, zero_bias=True):
    """One randomized (ranking, grades) pair for oracle comparison.

    Judged documents may be missing from the ranking and vice versa; a
    zero-heavy grade distribution keeps the permutation search small.
    """
    n_docs = int(rng.integers(1, max_docs + 1))
    docids = [f"d{i}" for i in range(n_docs)]
    grades = {}
    for d in docids:
        if zero_bias and rng.random() < 0.5:
            grades[d] = 0
        else:
            grades[d] = int(rng.integers(0, max_grade + 1))
    judged = list(docids)
    rng.shuffle(judged)
    # drop some judged docs from the ranking, add some unjudged ones
    ranked = [d for d in judged if rng.random() < 0.85]
    for i in range(int(rng.integers(0, 3))):
        ranked.insert(int(rng.integers(0, len(ranked) + 1)), f"u{i}")
    return ranked, grades


def brute_ranking(pairs):
    """Docids of ``(docid, score)`` pairs, score descending, ties by docid descending.

    Selection by pairwise comparison: each round takes the pair no other
    remaining pair beats. ``0.0`` and ``-0.0`` compare equal, so they tie.
    """
    remaining = list(pairs)
    ranking = []
    while remaining:
        best = remaining[0]
        for docid, value in remaining[1:]:
            if value > best[1] or (value == best[1] and docid > best[0]):
                best = (docid, value)
        remaining.remove(best)
        ranking.append(best[0])
    return ranking


def float_hex_section(header, name, data):
    """One ``[<header> <dims>] <name>`` checkpoint section, one float.hex() call per value.

    A 0-d array is one row of one value; an n-d array is one row per
    index of its leading dimensions.
    """
    dims = "x".join(str(n) for n in data.shape) if data.shape else "scalar"
    rows = data.reshape(-1, data.shape[-1]) if data.ndim > 1 else data.reshape(1, -1)
    lines = [f"[{header} {dims}] {name}"]
    lines += [" ".join(v.hex() for v in row.tolist()) for row in rows]
    return "\n".join(lines) + "\n"


def v1_checkpoint_text(model, vocab, optimizer=None):
    """The state as a checkpoint v1 file: float.hex() rows, attention weights per head.

    Arrays go under the names and in the order of ``checkpoint_views``.
    The config, vocab and optimizer lines are the same as in v2.
    """
    parts = ["reranklab checkpoint v1\n[config]\n"]
    parts += [f"{f.name}={getattr(model.config, f.name)}\n" for f in dataclasses.fields(model.config)]
    parts += ["[vocab]\n"] + [f"tok {tok}\n" for tok in vocab.tokens]
    n_heads = model.config.n_heads
    views = checkpoint_views({name: p.data for name, p in model.params.items()}, n_heads)
    parts += [float_hex_section("param", name, data) for name, data in views.items()]
    if optimizer is not None:
        parts.append(f"[optimizer {optimizer.name}]\n")
        parts += [f"{key}={float(getattr(optimizer, key)).hex()}\n" for key in optimizer.HYPERS]
        if optimizer.COUNTS_STEPS:
            parts.append(f"step={optimizer.step_count}\n")
        views = checkpoint_views(optimizer.buffers(), n_heads)
        parts += [float_hex_section("state", key, buf) for key, buf in views.items()]
    parts.append("[end]\n")
    return "".join(parts)


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


def dense_scatter(shape, ids, grad):
    """Gradient of a (rows, d) table looked up at ``ids``: row by row, in id order."""
    table = np.zeros(shape)
    for row, g in zip(np.asarray(ids).reshape(-1).tolist(), np.asarray(grad).reshape(-1, shape[1])):
        table[row] = table[row] + g
    return table


def lion_dense(theta, m, g, lr, beta1, beta2, weight_decay):
    """One Lion step as the whole-array formula; returns the new (theta, m)."""
    c = beta1 * m + (1.0 - beta1) * g
    theta = theta - lr * (np.sign(c) + weight_decay * theta)
    m = beta2 * m + (1.0 - beta2) * g
    return theta, m


def adamw_dense(theta, m, v, g, t, lr, beta1, beta2, eps, weight_decay):
    """AdamW step ``t`` (1-based) as the whole-array formula; returns the new (theta, m, v)."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    step = (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps) + weight_decay * theta
    return theta - lr * step, m, v


def mul(a, b):
    """Elementwise product with broadcasting, as one tape node."""
    a, b = T.as_tensor(a), T.as_tensor(b)
    shape = T._broadcast_shapes(a.shape, b.shape, "mul")

    def rule(g):
        return (
            T._unbroadcast(g * b.data, a.shape),
            T._unbroadcast(g * a.data, b.shape),
        )

    return T._emit((a, b), np.multiply(a.data, b.data, out=np.empty(shape)), rule)


def reduce_sum(a, axis=None):
    """Sum over one axis, or over all of them, as one tape node."""
    a = T.as_tensor(a)
    if axis is not None:
        if not -a.data.ndim <= axis < a.data.ndim:
            raise T.ShapeError(f"axis {axis} invalid for rank {a.data.ndim}")
        axis %= a.data.ndim

    def rule(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),)

    return T._emit((a,), np.asarray(np.sum(a.data, axis=axis)), rule)


def take(a, key):
    """``a[key]`` for a basic index ``key``; the gradient lands in a zero array at ``key``."""
    a = T.as_tensor(a)

    def rule(g):
        grad = np.zeros(a.shape)
        grad[key] = g
        return (grad,)

    return T._emit((a,), a.data[key].copy(), rule)


def swap_last_axes(a):
    """The last two axes of ``a`` exchanged, as one tape node."""
    a = T.as_tensor(a)
    return T._emit((a,), np.swapaxes(a.data, -1, -2).copy(), lambda g: (np.swapaxes(g, -1, -2),))


def softmax(a, axis):
    """Softmax along ``axis`` as one tape node, stabilized by max subtraction."""
    a = T.as_tensor(a)
    if not -a.data.ndim <= axis < a.data.ndim:
        raise T.ShapeError(f"softmax: axis {axis} invalid for shape {a.shape}")
    out = np.exp(a.data - np.max(a.data, axis=axis, keepdims=True))
    out /= np.sum(out, axis=axis, keepdims=True)

    def rule(g):
        inner = np.sum(g * out, axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return T._emit((a,), out, rule)


def per_head_attention(qkv, real, n_heads):
    """``tensor.attention`` of a (B, L, 3d) projection, over every position.

    Each head slices its query, key and value columns out of ``qkv``,
    scores, softmaxes and mixes as separate ops, and lands in its own
    columns of the (B, L, d) result through a constant 0/1 placement
    matrix.
    """
    d = qkv.shape[-1] // 3
    dh = d // n_heads
    key_mask = np.where(real, 0.0, -np.inf)[:, None, :]
    total = None
    for h in range(n_heads):
        q, k, v = (take(qkv, (Ellipsis, slice(j * d + h * dh, j * d + (h + 1) * dh))) for j in range(3))
        scores = T.add(mul(T.matmul(q, swap_last_axes(k)), 1.0 / np.sqrt(dh)), key_mask)
        head = T.linear(T.matmul(softmax(scores, axis=-1), v), np.eye(d)[h * dh : (h + 1) * dh])
        total = head if total is None else T.add(total, head)
    return total


def full_length_forward(model, ids):
    """``CrossEncoder.forward`` with every layer over all L positions, then the CLS row.

    Every layer projects queries, keys and values for every position with
    ``linear`` and attends through :func:`per_head_attention`. The last
    layer's output projection, residual adds and feed-forward run on rows
    the head never reads; the result and every gradient are the model's.
    """
    cfg, P = model.config, model.params
    ids = np.asarray(ids, dtype=np.intp)
    real = ids != PAD_ID
    x = T.add(
        T.embedding_lookup(P["token_embedding"], ids),
        T.embedding_lookup(P["position_embedding"], np.arange(cfg.max_len)),
    )
    for i in range(cfg.n_layers):
        pre = f"layers.{i}"
        a = T.layer_norm(x, P[f"{pre}.attn_norm.gain"], P[f"{pre}.attn_norm.bias"])
        attended = per_head_attention(T.linear(a, P[f"{pre}.attn.w_qkv"]), real, cfg.n_heads)
        x = T.add(x, T.linear(attended, P[f"{pre}.attn.w_out"], P[f"{pre}.attn.out_bias"]))
        f = T.layer_norm(x, P[f"{pre}.ff_norm.gain"], P[f"{pre}.ff_norm.bias"])
        f = T.relu(T.linear(f, P[f"{pre}.ff.w1"], P[f"{pre}.ff.b1"]))
        x = T.add(x, T.linear(f, P[f"{pre}.ff.w2"], P[f"{pre}.ff.b2"]))
    cls_state = reduce_sum(mul(x, np.eye(cfg.max_len, 1)), axis=1)
    return T.sigmoid(T.linear(cls_state, P["head.weight"], P["head.bias"]))
