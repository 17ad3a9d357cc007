"""Brute-force reference implementations of the ranking metrics, of the
checkpoint array writer, of the optimizer updates and embedding gradient,
and of the encoder's softmax and full-length forward pass.

Deliberately naive and independent of the production code paths: the
ideal DCG is found by enumerating orderings of the positively judged
documents, precision values are recounted from scratch at every rank,
checkpoint values are printed with one float.hex() call each, optimizer
updates are the plain whole-array formulas with fresh temporaries, an
embedding gradient is a dense zero table that each id's gradient row is
added to in turn, and the forward pass runs every layer over every
position before it keeps the CLS row. Only suitable for small cases.
"""

import itertools
import math

import numpy as np

from reranklab import tensor as T
from reranklab.model import PAD_ID


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


def full_length_forward(model, ids):
    """``CrossEncoder.forward`` with every layer over all L positions, then the CLS row.

    The last layer's output projection, residual adds and feed-forward run
    on rows the head never reads; the result and every gradient are the
    model's.
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
        attended = T.attention(T.linear(a, P[f"{pre}.attn.w_qkv"]), real, cfg.n_heads)
        x = T.add(x, T.linear(attended, P[f"{pre}.attn.w_out"], P[f"{pre}.attn.out_bias"]))
        f = T.layer_norm(x, P[f"{pre}.ff_norm.gain"], P[f"{pre}.ff_norm.bias"])
        f = T.relu(T.linear(f, P[f"{pre}.ff.w1"], P[f"{pre}.ff.b1"]))
        x = T.add(x, T.linear(f, P[f"{pre}.ff.w2"], P[f"{pre}.ff.b2"]))
    cls_state = T.reduce_sum(T.mul(x, np.eye(cfg.max_len, 1)), axis=1)
    return T.sigmoid(T.linear(cls_state, P["head.weight"], P["head.bias"]))
