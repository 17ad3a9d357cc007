"""Synthetic corpus structure: separability, determinism, matching splits."""

import pytest

from reranklab.ir_eval import format_run
from reranklab.synth import NEG_MARKER, POS_MARKER, SynthConfig, generate


def test_triplets_are_separable_by_marker():
    data = generate(SynthConfig(n_triplets=50))
    for t in data.triplets:
        assert POS_MARKER in t.positive.split()
        assert NEG_MARKER in t.negative.split()
        assert POS_MARKER not in t.negative.split()


def test_positive_passages_echo_query():
    data = generate(SynthConfig(n_triplets=20))
    for t in data.triplets:
        assert set(t.query.split()) <= set(t.positive.split())


def test_eval_split_matches_qrels():
    config = SynthConfig(n_eval_queries=4, n_candidates=6, n_relevant=2)
    data = generate(config)
    assert len(data.queries) == 4
    assert len(data.passages) == 4 * 6
    for qid in data.queries:
        grades = data.qrels[qid]
        relevant = [d for d, g in grades.items() if g >= 1]
        assert len(relevant) == 2
        for docid in relevant:
            assert POS_MARKER in data.passages[docid].split()
        candidate_docs = {docid for _, docid in data.candidates[qid]}
        assert candidate_docs == set(grades)


def test_candidate_ranks_are_contiguous():
    data = generate(SynthConfig(n_eval_queries=2, n_candidates=5))
    lines = [line.split() for line in format_run(data.candidates, "synth-first-stage").splitlines()]
    for qid in data.queries:
        ranks = sorted(int(fields[3]) for fields in lines if fields[0] == qid)
        assert ranks == [1, 2, 3, 4, 5]
        # the written ranks follow the scores
        scores = [value for value, _ in data.candidates[qid]]
        assert scores == sorted(scores, reverse=True)


def test_vocab_budget_respected():
    data = generate(SynthConfig(vocab_size=100, n_triplets=200))
    tokens = set()
    for t in data.triplets:
        tokens.update(t.query.split(), t.positive.split(), t.negative.split())
    for text in list(data.queries.values()) + list(data.passages.values()):
        tokens.update(text.split())
    # distinct corpus tokens + 4 reserved ids never exceed the budget
    assert len(tokens) + 4 <= 100


def test_same_seed_same_data():
    a, b = generate(SynthConfig(seed=5)), generate(SynthConfig(seed=5))
    assert a.triplets == b.triplets
    assert a.queries == b.queries
    assert a.candidates == b.candidates


@pytest.mark.parametrize(
    "field, value, low",
    [("n_triplets", -5, 0), ("n_eval_queries", -3, 0), ("n_candidates", -1, 1), ("n_candidates", 0, 1),
     ("query_len", 0, 1),
     ("marker_repeats", 0, 1)],
)
def test_out_of_range_size_rejected_naming_the_field(field, value, low):
    with pytest.raises(ValueError) as info:
        SynthConfig(**{field: value})
    assert str(info.value) == f"{field} must be >= {low}, got {value}"


def test_no_triplets_and_no_eval_queries_are_valid():
    data = generate(SynthConfig(n_triplets=0, n_eval_queries=0))
    assert data.triplets == [] and data.queries == {} and data.candidates == {}
