"""TREC formats, reranking, and the metric suite against brute-force oracles."""

import copy
import logging
import math
import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reranklab import ir_eval
from reranklab.ir_eval import (
    ParseError,
    evaluate,
    format_qrels,
    format_run,
    parse_qrels,
    parse_run,
    rerank,
    report_table,
    report_tsv_lines,
)
from reranklab.model import CrossEncoderConfig, Vocab, init_params, score, tokenize_pair

import oracles
from conftest import query_metrics

# No per-example deadline: example times swing with machine load.
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)
ID_TOKENS = st.text(string.ascii_letters + string.digits + "-_.", min_size=1, max_size=6)


class TestParseRun:
    def test_format_definition(self):
        run = parse_run(["q1 Q0 d7 1 9.5 bm25"])
        assert run == {"q1": [(9.5, "d7")]}

    def test_empty_input(self):
        assert parse_run([]) == {}
        assert parse_run(["", "   "]) == {}

    def test_malformed_lines_listed(self):
        lines = ["q1 Q0 d1 1 1.0 t", "q1 Q0 d2 oops 1.0 t", "q1 Q0 d3", "q1 Q0 d4 2 2.0 t"]
        with pytest.raises(ParseError, match=r"\[2, 3\]"):
            parse_run(lines)

    def test_nonpositive_rank_rejected(self):
        with pytest.raises(ParseError):
            parse_run(["q1 Q0 d1 0 1.0 t"])

    def test_whitespace_variants_accepted(self):
        lines = [
            "q1\tQ0\td1\t1\t2.5\tt\n",
            "   q1 Q0  d2 2 -0.0 t   \n",
            "\n",
            " \t \r\n",
            "q1 Q0 d3 3 1e-3 t\r\n",
            "\x0bq2\x0cQ0 d1 1 -1.25 run-a",
        ]
        assert parse_run(lines) == {
            "q1": [(2.5, "d1"), (-0.0, "d2"), (1e-3, "d3")],
            "q2": [(-1.25, "d1")],
        }

    def test_bad_lines_listed_in_order(self):
        lines = [
            "q1 Q0 d1 1 1.0 t",
            "q1 Q0 d2 2 1.0",  # 5 fields
            "q1 Q0 d3 3 1.0 t extra",  # 7 fields
            "",
            "q1 Q0 d4 0 1.0 t",  # rank 0
            "q1 Q0 d5 5 nan t",
            "q1 Q0 d6 6 inf t",
            "q1 Q0 d7 7 -inf t",
            "q1 Q0 d8 1.0 1.0 t",  # non-integer rank
            "q1 Q0 d9 9 ten t",
            "   ",
            "q1 Q0 d10 10 1.0 t",
        ]
        with pytest.raises(ParseError) as info:
            parse_run(lines, source="x.run")
        assert str(info.value) == "x.run: malformed run lines [2, 3, 5, 6, 7, 8, 9, 10]"

    def test_many_bad_lines_counted(self):
        lines = ["q1 Q0 d1 1 1.0 t"] + [f"q1 Q0 d{i} {i} nan t" for i in range(2, 1002)]
        with pytest.raises(ParseError) as info:
            parse_run(lines, source="x.run")
        assert str(info.value) == "x.run: malformed run lines [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, ...] (1000 lines)"

    def test_pairs_in_file_order_grouped_by_query(self):
        # ranks are checked, not kept: file order is what a query's list holds
        lines = ["q2 Q0 d1 9 1.0 a", "q1 Q0 d5 3 2.0 b", "q2 Q0 d3 1 3.0 c", "q2 Q0 d1 2 0.5 a"]
        run = parse_run(lines)
        assert list(run) == ["q2", "q1"]
        assert run["q2"] == [(1.0, "d1"), (3.0, "d3"), (0.5, "d1")]
        assert run["q1"] == [(2.0, "d5")]


class TestParseQrels:
    def test_basic(self):
        qrels = parse_qrels(["q1 0 d1 2", "q1 0 d2 0", "q2 0 d1 1"])
        assert qrels["q1"]["d1"] == 2
        assert qrels["q1"]["d2"] == 0
        assert sum(map(len, qrels.values())) == 3

    def test_duplicate_last_wins_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            qrels = parse_qrels(["q1 0 d1 1", "q1 0 d1 3"])
        assert qrels["q1"]["d1"] == 3
        assert "duplicate" in caplog.text

    def test_negative_grade_rejected(self):
        with pytest.raises(ParseError, match=r"\[1\]"):
            parse_qrels(["q1 0 d1 -2"])

    def test_malformed_lines_listed(self):
        with pytest.raises(ParseError, match=r"\[2\]"):
            parse_qrels(["q1 0 d1 1", "q1 0 d1"])

    def test_whitespace_variants_accepted(self):
        qrels = parse_qrels(["q1\t0\td1\t2\n", "  q1 0 d2 0  \r\n", "\t\n", "", "q2 0 d1 1"])
        assert qrels == parse_qrels(["q1 0 d1 2", "q1 0 d2 0", "q2 0 d1 1"])
        assert list(qrels) == ["q1", "q2"]
        assert qrels["q1"] == {"d1": 2, "d2": 0}

    def test_bad_lines_listed_in_order(self):
        lines = ["q1 0 d1 1", "q1 0 d2 1.5", "q1 0 d3 x", "q1 0 d4 -1", "q1 0 d5", "q1 0 d6 1 extra", " "]
        with pytest.raises(ParseError) as info:
            parse_qrels(lines, source="x.qrels")
        assert str(info.value) == "x.qrels: malformed qrels lines [2, 3, 4, 5, 6]"

    def test_many_bad_lines_counted(self):
        with pytest.raises(ParseError) as info:
            parse_qrels([f"q1 0 d{i}" for i in range(11)], source="x.qrels")
        assert str(info.value) == "x.qrels: malformed qrels lines [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, ...] (11 lines)"

    def test_duplicates_counted_in_one_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            qrels = parse_qrels(["q1 0 d1 1", "q1 0 d1 2", "q2 0 d1 1", "q1 0 d1 3"], source="x.qrels")
        assert qrels["q1"] == {"d1": 3}
        assert sum(map(len, qrels.values())) == 2
        assert [r.getMessage() for r in caplog.records] == [
            "x.qrels: 2 duplicate (qid, docid) judgment(s), last value kept"
        ]


class TestRoundTrips:
    def test_run_round_trip(self):
        lines = ["q1 Q0 d2 1 3.25 tagA", "q1 Q0 d1 2 1.5 tagA", "q2 Q0 d9 1 -0.125 tagA"]
        once = parse_run(lines)
        again = parse_run(format_run(once, "tagA").splitlines())
        assert once == again

    def test_qrels_round_trip(self):
        qrels = parse_qrels(["q1 0 d1 2", "q1 0 d2 0", "q2 0 d7 3"])
        again = parse_qrels(format_qrels(qrels).splitlines())
        assert qrels == again

    def test_qrels_round_trip_after_duplicates(self, caplog):
        with caplog.at_level(logging.WARNING):
            qrels = parse_qrels(["q1 0 d1 1", "q1 0 d1 2"])
        again = parse_qrels(format_qrels(qrels).splitlines())
        assert again["q1"]["d1"] == 2

    @PROPERTY_SETTINGS
    @given(
        st.dictionaries(
            ID_TOKENS,
            st.lists(
                # multiples of 1e-6 survive the 6-decimal format exactly
                st.tuples(st.integers(-10**9, 10**9).map(lambda n: n / 10**6), ID_TOKENS),
                min_size=1,
                max_size=8,
            ),
            max_size=5,
        ),
        ID_TOKENS,
    )
    def test_format_then_parse_returns_run(self, run, tag):
        text = format_run(run, tag)
        assert parse_run(text.splitlines()) == run
        ranks = [int(line.split()[3]) for line in text.splitlines()]
        assert ranks == [r for pairs in run.values() for r in range(1, len(pairs) + 1)]
        assert all(line.split()[5] == tag for line in text.splitlines())

    def test_run_scores_six_decimals(self):
        text = format_run({"q1": [(1 / 3, "d1")]}, "t")
        assert text == "q1 Q0 d1 1 0.333333 t\n"


def _constant_model(vocab):
    config = CrossEncoderConfig(vocab_size=vocab.size, d_model=8, n_layers=1, n_heads=2, d_ff=16, max_len=8)
    model = init_params(config)
    model.params["head.weight"].data[...] = 0.0
    model.params["head.bias"].data[...] = 0.0
    return model


def _written_ranks(run, tag="t"):
    """qid -> the ranks ``format_run`` writes for it, in line order."""
    ranks = {}
    for line in format_run(run, tag).splitlines():
        qid, _, _, rank, _, _ = line.split()
        ranks.setdefault(qid, []).append(int(rank))
    return ranks


class TestRerank:
    def test_single_candidate_gets_rank_one(self, tiny_vocab, tiny_model):
        out = rerank(tiny_model, tiny_vocab, {"q1": "t0"}, {"d1": "t1"}, {"q1": [(-3.0, "d1")]})
        assert [docid for _, docid in out["q1"]] == ["d1"]
        fields = format_run(out, "new").split()
        assert fields[3] == "1" and fields[5] == "new"

    def test_constant_scores_order_by_docid_descending(self, tiny_vocab):
        model = _constant_model(tiny_vocab)
        candidates = {"q1": [(0.0, d) for d in ["da", "dc", "db"]]}
        out = rerank(model, tiny_vocab, {"q1": "t0"}, {d: "t1" for d in ("da", "db", "dc")}, candidates)
        assert [docid for _, docid in out["q1"]] == ["dc", "db", "da"]
        assert _written_ranks(out) == {"q1": [1, 2, 3]}

    def test_output_is_permutation_per_query(self, tiny_vocab, tiny_model, rng):
        queries = {f"q{i}": f"t{i}" for i in range(3)}
        passages = {f"d{i}": f"t{i % 8} t{(i + 1) % 8}" for i in range(12)}
        candidates = {}
        for qid in queries:
            docs = [f"d{i}" for i in rng.permutation(12)[:4]]
            candidates[qid] = [(float(rng.random()), d) for d in docs]
        out = rerank(tiny_model, tiny_vocab, queries, passages, candidates)
        assert list(out) == list(queries)
        for qid in queries:
            got = sorted(docid for _, docid in out[qid])
            expected = sorted(docid for _, docid in candidates[qid])
            assert got == expected
        assert _written_ranks(out) == {qid: [1, 2, 3, 4] for qid in queries}

    def test_scores_match_model(self, tiny_vocab, tiny_model):
        out = rerank(tiny_model, tiny_vocab, {"q1": "t0 t1"}, {"d1": "t2"}, {"q1": [(0.0, "d1")]})
        seq = tokenize_pair(tiny_vocab, "t0 t1", "t2", tiny_model.config.max_len)
        assert out["q1"][0][0] == round(score(tiny_model, seq), 6)

    def test_scores_that_print_equal_rank_by_docid(self, tiny_vocab, tiny_model, monkeypatch):
        # at full precision da > db > dc; all three print as 0.500000
        monkeypatch.setattr(ir_eval, "score_batch", lambda model, seqs: [0.5000003, 0.5000001, 0.4999996])
        candidates = {"q1": [(0.0, "da"), (0.0, "db"), (0.0, "dc")]}
        out = rerank(tiny_model, tiny_vocab, {"q1": "t0"}, {d: "t1" for d in ("da", "db", "dc")}, candidates)
        assert out == {"q1": [(0.5, "dc"), (0.5, "db"), (0.5, "da")]}
        text = format_run(out, "t")
        assert [line.split()[2] for line in text.splitlines()] == ["dc", "db", "da"]
        # eval reads the written file in the order of its ranks
        report = evaluate(parse_run(text.splitlines()), {"q1": {"dc": 1, "db": 0, "da": 0}})
        assert report.per_query["mrr@10"]["q1"] == 1.0

    @PROPERTY_SETTINGS
    @given(st.lists(st.sampled_from([0.5, 0.5000004, 0.4999996, 0.0, -0.0]) | st.floats(-1e3, 1e3), min_size=1, max_size=12))
    def test_written_run_reads_back_as_returned(self, scores):
        vocab = Vocab(["t0"])
        docids = [f"d{i}" for i in range(len(scores))]
        with mock.patch.object(ir_eval, "score_batch", lambda model, seqs: list(scores)):
            out = rerank(_constant_model(vocab), vocab, {"q1": "t0"}, dict.fromkeys(docids, "t0"),
                         {"q1": [(0.0, d) for d in docids]})
        assert parse_run(format_run(out, "t").splitlines()) == out
        assert [docid for _, docid in out["q1"]] == oracles.brute_ranking([(d, v) for v, d in out["q1"]])

    def test_unresolvable_ids_named(self, tiny_vocab, tiny_model):
        with pytest.raises(ValueError, match="q9"):
            rerank(tiny_model, tiny_vocab, {}, {"d1": "x"}, {"q9": [(0.0, "d1")]})
        with pytest.raises(ValueError, match="d9"):
            rerank(tiny_model, tiny_vocab, {"q1": "x"}, {}, {"q1": [(0.0, "d9")]})


class TestNdcg:
    def test_ideal_ordering_is_one(self):
        grades = {"a": 3, "b": 2, "c": 1}
        assert query_metrics(["a", "b", "c"], grades)["ndcg@10"] == 1.0

    def test_hand_computed_example(self):
        grades = {"a": 3, "b": 2, "c": 0}
        value = query_metrics(["c", "a", "b"], grades)["ndcg@10"]
        dcg = 3 / math.log2(3) + 2 / math.log2(4)
        idcg = 3 / math.log2(2) + 2 / math.log2(3)
        assert abs(value - dcg / idcg) < 1e-12
        assert abs(value - 0.6787) < 5e-4

    def test_all_zero_grades_undefined(self):
        assert query_metrics(["a", "b"], {"a": 0, "b": 0})["ndcg@10"] is None

    def test_idcg_includes_unretrieved_judged_docs(self):
        grades = {"seen": 1, "unseen": 3}
        value = query_metrics(["seen"], grades)["ndcg@10"]
        idcg = 3 / math.log2(2) + 1 / math.log2(3)
        assert abs(value - (1.0 / idcg)) < 1e-12

    def test_exponential_gain_option(self):
        grades = {"a": 2, "b": 1}
        value = query_metrics(["b", "a"], grades, exponential=True)["ndcg@10"]
        dcg = 1 / math.log2(2) + 3 / math.log2(3)
        idcg = 3 / math.log2(2) + 1 / math.log2(3)
        assert abs(value - dcg / idcg) < 1e-12


class TestBinaryMetrics:
    def test_mrr_first_relevant_at_rank_three(self):
        grades = {"x": 1}
        assert query_metrics(["a", "b", "x"], grades)["mrr@10"] == pytest.approx(1 / 3)

    def test_mrr_zero_when_outside_cutoff(self):
        grades = {"x": 1}
        ranking = [f"d{i}" for i in range(10)] + ["x"]
        assert query_metrics(ranking, grades, k=10)["mrr@10"] == 0.0

    def test_map_two_relevant_at_ranks_one_and_three(self):
        grades = {"a": 1, "b": 1}
        value = query_metrics(["a", "x", "b"], grades)["map"]
        assert abs(value - (1.0 + 2 / 3) / 2) < 1e-12

    def test_map_divides_by_total_relevant_in_qrels(self):
        grades = {"a": 1, "b": 1, "missing": 1}
        value = query_metrics(["a", "x", "b"], grades)["map"]
        assert abs(value - (1.0 + 2 / 3) / 3) < 1e-12

    def test_precision_eight_of_ten(self):
        grades = {f"r{i}": 1 for i in range(8)}
        ranking = [f"r{i}" for i in range(8)] + ["x", "y"]
        assert query_metrics(ranking, grades, k=10)["p@10"] == pytest.approx(0.8)

    def test_recall_at_k(self):
        grades = {"a": 1, "b": 1, "c": 1, "d": 1}
        assert query_metrics(["a", "b", "x"], grades, k=10)["recall@10"] == pytest.approx(0.5)

    def test_r_precision(self):
        grades = {"a": 1, "b": 1, "c": 2}
        assert query_metrics(["a", "x", "b", "c"], grades)["r_prec"] == pytest.approx(2 / 3)

    def test_binarization_threshold(self):
        grades = {"a": 1, "b": 2}
        assert query_metrics(["a", "b"], grades, binarize_at=2)["map"] == pytest.approx(1 / 2)
        assert query_metrics(["b", "a"], grades, k=1, binarize_at=2)["p@10"] == 1.0

    def test_no_relevant_returns_none(self):
        values = query_metrics(["a"], {"a": 0})
        for metric in ("map", "mrr@10", "p@10", "recall@10", "r_prec"):
            assert values[metric] is None


def _run_from(qid, docids, scores):
    return {qid: list(zip(scores, docids))}


class TestEvaluate:
    def test_ideal_run_scores_one(self):
        qrels = parse_qrels(["q1 0 a 2", "q1 0 b 1", "q1 0 c 0"])
        run = _run_from("q1", ["a", "b", "c"], [3.0, 2.0, 1.0])
        report = evaluate(run, qrels)
        assert report.aggregates["ndcg@10"] == 1.0
        assert report.aggregates["map"] == 1.0
        assert report.aggregates["mrr@10"] == 1.0
        assert report.aggregates["recall@10"] == 1.0
        assert report.aggregates["r_prec"] == 1.0

    def test_empty_run(self):
        report = evaluate({}, parse_qrels(["q1 0 a 1"]))
        assert report.n_queries == 0
        assert all(v is None for v in report.aggregates.values())

    def test_three_query_aggregate_is_mean(self):
        qrels = parse_qrels(
            ["q1 0 a 1", "q1 0 b 0", "q2 0 c 1", "q2 0 d 1", "q3 0 e 2"]
        )
        run = (
            _run_from("q1", ["a", "b"], [2.0, 1.0])
            | _run_from("q2", ["d", "x", "c"], [3.0, 2.0, 1.0])
            | _run_from("q3", ["y", "e"], [2.0, 1.0])
        )
        report = evaluate(run, qrels)
        for metric in ("map", "mrr@10", "p@10"):
            per_query = [report.per_query[metric][q] for q in ("q1", "q2", "q3")]
            assert report.aggregates[metric] == pytest.approx(sum(per_query) / 3)

    def test_query_missing_from_qrels_skipped(self, caplog):
        qrels = parse_qrels(["q1 0 a 1"])
        run = _run_from("q1", ["a"], [1.0]) | _run_from("qX", ["a"], [1.0])
        with caplog.at_level(logging.WARNING):
            report = evaluate(run, qrels)
        assert report.n_queries == 1
        assert report.n_skipped == 1
        assert "qX" in caplog.text

    def test_zero_relevant_query_excluded_per_metric(self):
        qrels = parse_qrels(["q1 0 a 1", "q2 0 b 0"])
        run = _run_from("q1", ["a"], [1.0]) | _run_from("q2", ["b"], [1.0])
        report = evaluate(run, qrels)
        assert report.per_query["map"]["q2"] is None
        assert report.aggregates["map"] == 1.0  # only q1 counts

    def test_resorts_by_score_ignoring_input_ranks(self):
        qrels = parse_qrels(["q1 0 good 1", "q1 0 bad 0"])
        # ranks claim "bad" first, scores say "good" first
        run = parse_run(["q1 Q0 bad 1 0.1 t", "q1 Q0 good 2 0.9 t"])
        report = evaluate(run, qrels)
        assert report.per_query["mrr@10"]["q1"] == 1.0

    def test_tie_broken_by_docid_descending(self):
        qrels = parse_qrels(["q1 0 db 1", "q1 0 da 0"])
        run = {"q1": [(0.5, "da"), (0.5, "db")]}
        report = evaluate(run, qrels)
        assert report.per_query["mrr@10"]["q1"] == 1.0  # db sorts first on tie

    def test_truncation_invariance_below_rank_ten(self, rng):
        docids = [f"d{i:02d}" for i in range(15)]
        grades = {d: int(rng.integers(0, 3)) for d in docids}
        grades[docids[0]] = 2  # ensure some relevance
        qrels = {"q1": grades}
        scores = np.linspace(10.0, 1.0, 15)
        base = evaluate(_run_from("q1", docids, scores), qrels)
        tail = list(range(10, 15))
        perm = [docids[i] for i in range(10)] + [docids[10 + (i + 2) % 5] for i in range(5)]
        permuted = evaluate(_run_from("q1", perm, scores), qrels)
        for metric in ("ndcg@10", "mrr@10", "recall@10", "p@10"):
            assert base.per_query[metric]["q1"] == permuted.per_query[metric]["q1"]

    def test_score_monotone_invariance(self, rng):
        docids = [f"d{i}" for i in range(8)]
        qrels = {"q1": {d: int(rng.integers(0, 4)) for d in docids}}
        scores = rng.normal(size=8)
        base = evaluate(_run_from("q1", docids, scores), qrels)
        squashed = evaluate(_run_from("q1", docids, np.tanh(scores) * 3 + 7), qrels)
        for metric, value in base.aggregates.items():
            assert squashed.aggregates[metric] == value

    @pytest.mark.parametrize("kwargs, named", [({"k": 0}, "k"), ({"binarize_at": 0}, "binarize_at")])
    def test_cutoffs_below_one_rejected_whatever_the_run(self, kwargs, named):
        qrels = parse_qrels(["q1 0 a 1"])
        for run in ({}, _run_from("qX", ["a"], [1.0]), _run_from("q1", ["a"], [1.0])):
            with pytest.raises(ValueError, match=rf"^{named} must be >= 1, got 0$"):
                evaluate(run, qrels, **kwargs)

    def test_repeated_docid_rejected_naming_query_and_docid(self):
        run = parse_run(["q1 Q0 d1 1 3.0 t", "q1 Q0 d1 2 2.0 t", "q1 Q0 d2 3 1.0 t", "q2 Q0 d1 1 1.0 t"])
        with pytest.raises(ValueError) as info:
            evaluate(run, {"q1": {"d1": 1}, "q2": {"d1": 1}})
        assert str(info.value) == "query 'q1': docid 'd1' is ranked more than once"

    def test_leaves_the_run_unchanged(self):
        run = {"q1": [(0.1, "a"), (0.9, "b"), (0.5, "c")], "q0": [(1.0, "x")], "qX": [(2.0, "y"), (3.0, "z")]}
        before = copy.deepcopy(run)
        lists = [id(pairs) for pairs in run.values()]
        evaluate(run, {"q1": {"b": 1}, "q0": {"x": 0}})
        assert run == before
        assert list(run) == list(before)
        assert [id(pairs) for pairs in run.values()] == lists

    def test_report_outputs_cover_six_metrics(self):
        qrels = parse_qrels(["q1 0 a 1"])
        report = evaluate(_run_from("q1", ["a"], [1.0]), qrels)
        tsv = report_tsv_lines(report)
        table = report_table(report)
        for metric in ("ndcg@10", "map", "mrr@10", "recall@10", "r_prec", "p@10"):
            assert any(line.startswith(metric + "\t") for line in tsv)
            assert metric in table


class TestOracleEquivalence:
    def test_metrics_match_brute_force(self):
        rng = np.random.default_rng(777)
        for case in range(150):
            ranking, grades = oracles.random_case(rng)
            binarize_at = int(rng.integers(1, 3))
            got = query_metrics(ranking, grades, 10, binarize_at)
            checks = [
                (got["ndcg@10"], oracles.brute_ndcg(ranking, grades)),
                (got["map"], oracles.brute_average_precision(ranking, grades, binarize_at)),
                (got["mrr@10"], oracles.brute_reciprocal_rank(ranking, grades, 10, binarize_at)),
                (got["p@10"], oracles.brute_precision_at_k(ranking, grades, 10, binarize_at)),
                (got["recall@10"], oracles.brute_recall_at_k(ranking, grades, 10, binarize_at)),
                (got["r_prec"], oracles.brute_r_precision(ranking, grades, binarize_at)),
            ]
            for got, expected in checks:
                if expected is None:
                    assert got is None
                else:
                    assert got is not None and abs(got - expected) < 1e-12
                    assert 0.0 <= got <= 1.0

    @PROPERTY_SETTINGS
    @given(data=st.data())
    def test_evaluate_matches_brute_force(self, data):
        qids = ["q0", "q1", "q2", "q3"]
        # d0..d5 may be judged, d6/d7 never are; at most six judged docs per
        # query keep the oracle's permutation search small
        tied = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0])
        score = tied | st.floats(-4.0, 4.0, allow_nan=False)
        run = {}
        for qid in data.draw(st.lists(st.sampled_from(qids), unique=True)):
            docids = data.draw(st.lists(st.sampled_from([f"d{i}" for i in range(8)]), unique=True, min_size=1))
            run[qid] = data.draw(st.permutations([(data.draw(score), d) for d in docids]))
        grades_by_qid = {
            qid: data.draw(st.dictionaries(st.sampled_from([f"d{i}" for i in range(6)]), st.integers(0, 3), min_size=1))
            for qid in data.draw(st.lists(st.sampled_from(qids), unique=True))
        }
        k = data.draw(st.sampled_from([1, 5, 10, 20]))
        binarize_at = data.draw(st.sampled_from([1, 2]))
        exponential = data.draw(st.booleans())

        report = evaluate(run, grades_by_qid, k=k, binarize_at=binarize_at, exponential_gain=exponential)

        run_qids = sorted(run)
        expected_ids = [q for q in run_qids if q in grades_by_qid]
        assert report.query_ids == expected_ids
        assert (report.n_queries, report.n_skipped) == (len(expected_ids), len(run_qids) - len(expected_ids))
        oracle = {
            "ndcg@10": lambda r, g: oracles.brute_ndcg(r, g, k, exponential),
            "map": lambda r, g: oracles.brute_average_precision(r, g, binarize_at),
            "mrr@10": lambda r, g: oracles.brute_reciprocal_rank(r, g, k, binarize_at),
            "recall@10": lambda r, g: oracles.brute_recall_at_k(r, g, k, binarize_at),
            "r_prec": lambda r, g: oracles.brute_r_precision(r, g, binarize_at),
            "p@10": lambda r, g: oracles.brute_precision_at_k(r, g, k, binarize_at),
        }
        for metric, brute in oracle.items():
            expected = {}
            for qid in expected_ids:
                ranking = oracles.brute_ranking([(docid, value) for value, docid in run[qid]])
                expected[qid] = brute(ranking, grades_by_qid[qid])
            assert set(report.per_query[metric]) == set(expected_ids)
            for qid, value in expected.items():
                got = report.per_query[metric][qid]
                assert (got is None) if value is None else abs(got - value) < 1e-12
            defined = [v for v in expected.values() if v is not None]
            aggregate = report.aggregates[metric]
            if defined:
                assert abs(aggregate - sum(defined) / len(defined)) < 1e-12
            else:
                assert aggregate is None

    def test_ndcg_exponential_matches_brute_force(self):
        rng = np.random.default_rng(778)
        for _ in range(60):
            ranking, grades = oracles.random_case(rng)
            got = query_metrics(ranking, grades, exponential=True)["ndcg@10"]
            expected = oracles.brute_ndcg(ranking, grades, exponential=True)
            if expected is None:
                assert got is None
            else:
                assert abs(got - expected) < 1e-12


class TestCorpusTsv:
    def test_reads_id_text_pairs(self, tmp_path):
        from reranklab.ir_eval import read_corpus_tsv

        path = tmp_path / "c.tsv"
        path.write_text("q1\thello world\nq2\ttext with\ttab kept\n", encoding="utf-8")
        corpus = read_corpus_tsv(path)
        assert corpus == {"q1": "hello world", "q2": "text with\ttab kept"}

    def test_malformed_lines_reported(self, tmp_path):
        from reranklab.ir_eval import read_corpus_tsv

        path = tmp_path / "c.tsv"
        path.write_text("q1\tok\nno-tab-line\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"\[2\]"):
            read_corpus_tsv(path)

    @pytest.mark.parametrize(
        "text", ["q1\tfirst\nq2\tok\nq1\tsecond\n", "d1\ta\nd1\ta\nd2\tb\n"], ids=["other-text", "same-text"]
    )
    def test_duplicate_id_names_the_later_line(self, tmp_path, text):
        from reranklab.ir_eval import read_corpus_tsv

        path = tmp_path / "c.tsv"
        path.write_text(text, encoding="utf-8")
        line = 3 if text.startswith("q") else 2
        with pytest.raises(ParseError) as info:
            read_corpus_tsv(path)
        assert str(info.value) == f"{path}: duplicate ids on lines [{line}]"

    def test_many_bad_lines_counted(self, tmp_path):
        from reranklab.ir_eval import read_corpus_tsv

        path = tmp_path / "c.tsv"
        path.write_text("no-tab-line\n" * 25, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            read_corpus_tsv(path)
        assert str(info.value) == f"{path}: malformed id<TAB>text lines [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, ...] (25 lines)"


class TestLineList:
    @pytest.mark.parametrize(
        "count, text",
        [
            (0, "[]"),
            (1, "[1]"),
            (10, "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]"),
            (11, "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, ...] (11 lines)"),
            (20000, "[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, ...] (20000 lines)"),
        ],
    )
    def test_first_ten_then_count(self, count, text):
        from reranklab.ir_eval import line_list

        assert line_list(list(range(1, count + 1))) == text
