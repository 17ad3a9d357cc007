"""Brute-force reference implementations of the ranking metrics and of the
checkpoint array writer.

Deliberately naive and independent of the production code paths: the
ideal DCG is found by enumerating orderings of the positively judged
documents, precision values are recounted from scratch at every rank, and
checkpoint values are printed with one float.hex() call each. Only suitable
for small cases.
"""

import itertools
import math


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
