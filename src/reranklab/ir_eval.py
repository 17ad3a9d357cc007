"""TREC-format parsing, reranking, and the six-metric evaluation suite.

Run files hold ``qid Q0 docid rank score tag`` lines; qrels hold
``qid 0 docid rel``. Evaluation sorts every query's entries once by
(score, docid) descending, so results do not depend on input line order,
and computes NDCG@k, MAP, MRR@k, Recall@k, R-Prec, and P@k per query with
arithmetic-mean aggregates. The five binary metrics come from one walk of
each query's ranking.
"""

from __future__ import annotations

import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from reranklab.model import CrossEncoder, Vocab, score_batch, tokenize_pair

logger = logging.getLogger(__name__)

__all__ = [
    "ParseError",
    "RunEntry",
    "Qrels",
    "MetricReport",
    "parse_run",
    "parse_qrels",
    "format_run",
    "format_qrels",
    "read_run",
    "read_qrels",
    "read_corpus_tsv",
    "open_utf8",
    "line_list",
    "rerank",
    "ndcg_at_k",
    "average_precision",
    "reciprocal_rank_at_k",
    "precision_at_k",
    "recall_at_k",
    "r_precision",
    "evaluate",
    "METRIC_NAMES",
    "report_table",
    "report_tsv_lines",
]

METRIC_NAMES = ("ndcg@10", "map", "mrr@10", "recall@10", "r_prec", "p@10")


def _metric_labels(k: int) -> tuple[str, ...]:
    """Report labels for :data:`METRIC_NAMES` at cutoff ``k``."""
    return tuple(name.replace("@10", f"@{k}") for name in METRIC_NAMES)


class ParseError(ValueError):
    """Malformed input file; the message names the file and the offending lines."""


@contextmanager
def open_utf8(path, error: type[ValueError] = ParseError):
    """``path`` opened as UTF-8 text; a byte that does not decode raises ``error`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise error(f"{path}: not UTF-8 text (byte 0x{byte:02x}: {exc.reason})") from None


# A ParseError lists at most this many line numbers, then the total count.
_MAX_LISTED_LINES = 10


def line_list(linenos: Sequence[int]) -> str:
    """``[3, 7]`` for a ParseError message; past 10 numbers, the first 10 and the count."""
    if len(linenos) <= _MAX_LISTED_LINES:
        return str(list(linenos))
    listed = ", ".join(map(str, linenos[:_MAX_LISTED_LINES]))
    return f"[{listed}, ...] ({len(linenos)} lines)"


@dataclass(slots=True)
class RunEntry:
    """One ranked result row of a TREC run file."""

    qid: str
    docid: str
    rank: int
    score: float
    tag: str


class Qrels:
    """Graded relevance judgments keyed by (qid, docid)."""

    def __init__(self):
        self._grades: dict[str, dict[str, int]] = {}

    def set(self, qid: str, docid: str, grade: int) -> bool:
        """Store a judgment; returns True when it replaced an earlier one."""
        if grade < 0:
            raise ValueError(f"relevance grade must be >= 0, got {grade}")
        per_query = self._grades.setdefault(qid, {})
        existed = docid in per_query
        per_query[docid] = grade
        return existed

    def get(self, qid: str, docid: str) -> int:
        return self._grades.get(qid, {}).get(docid, 0)

    def grades(self, qid: str) -> dict[str, int]:
        """docid -> grade map for one query (empty if unjudged)."""
        return dict(self._grades.get(qid, {}))

    def query_ids(self) -> list[str]:
        return list(self._grades)

    def __contains__(self, qid: str) -> bool:
        return qid in self._grades

    def __len__(self) -> int:
        return sum(len(v) for v in self._grades.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, Qrels) and self._grades == other._grades


# ---------------------------------------------------------------------------
# formats


def parse_run(lines: Iterable[str], source: str = "<run>") -> list[RunEntry]:
    """Parse ``qid Q0 docid rank score tag`` lines (whitespace separated)."""
    entries: list[RunEntry] = []
    bad: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 6:
            bad.append(lineno)
            continue
        qid, _, docid, rank_s, score_s, tag = parts
        try:
            rank = int(rank_s)
            value = float(score_s)
        except ValueError:
            bad.append(lineno)
            continue
        if rank < 1 or not math.isfinite(value):
            bad.append(lineno)
            continue
        entries.append(RunEntry(qid, docid, rank, value, tag))
    if bad:
        raise ParseError(f"{source}: malformed run lines {line_list(bad)}")
    return entries


def parse_qrels(lines: Iterable[str], source: str = "<qrels>") -> Qrels:
    """Parse ``qid 0 docid rel`` lines; duplicate judgments keep the last."""
    qrels = Qrels()
    grades = qrels._grades
    bad: list[int] = []
    duplicates = 0
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 4:
            bad.append(lineno)
            continue
        qid, _, docid, rel_s = parts
        try:
            rel = int(rel_s)
        except ValueError:
            bad.append(lineno)
            continue
        if rel < 0:
            bad.append(lineno)
            continue
        per_query = grades.get(qid)
        if per_query is None:
            per_query = grades[qid] = {}
        elif docid in per_query:
            duplicates += 1
        per_query[docid] = rel
    if bad:
        raise ParseError(f"{source}: malformed qrels lines {line_list(bad)}")
    if duplicates:
        logger.warning("%s: %d duplicate (qid, docid) judgment(s), last value kept", source, duplicates)
    return qrels


def format_run(entries: Iterable[RunEntry]) -> str:
    """Emit run lines with scores at 6 decimal places."""
    lines = [f"{e.qid} Q0 {e.docid} {e.rank} {e.score:.6f} {e.tag}" for e in entries]
    return "\n".join(lines) + "\n" if lines else ""


def format_qrels(qrels: Qrels) -> str:
    lines = []
    for qid in qrels.query_ids():
        for docid, grade in qrels.grades(qid).items():
            lines.append(f"{qid} 0 {docid} {grade}")
    return "\n".join(lines) + "\n" if lines else ""


def read_run(path) -> list[RunEntry]:
    with open_utf8(path) as fh:
        return parse_run(fh, source=str(path))


def read_qrels(path) -> Qrels:
    with open_utf8(path) as fh:
        return parse_qrels(fh, source=str(path))


def read_corpus_tsv(path) -> dict[str, str]:
    """Read an ``id<TAB>text`` corpus file into an id -> text map."""
    out: dict[str, str] = {}
    bad: list[int] = []
    with open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2 or not parts[0]:
                bad.append(lineno)
                continue
            out[parts[0]] = parts[1]
    if bad:
        raise ParseError(f"{path}: malformed id<TAB>text lines {line_list(bad)}")
    return out


# ---------------------------------------------------------------------------
# reranking


def _sort_by_score(pairs: list[tuple[float, str]]) -> list[tuple[float, str]]:
    """Sort ``(score, docid)`` pairs in place: score descending, ties by docid descending."""
    pairs.sort(reverse=True)
    return pairs


def rerank(
    model: CrossEncoder,
    vocab: Vocab,
    queries: Mapping[str, str],
    passages: Mapping[str, str],
    candidates: Sequence[RunEntry],
    tag: str = "crossenc",
) -> list[RunEntry]:
    """Rescore candidate lists with the model and rewrite ranks 1..k.

    Every candidate qid/docid must resolve to text. Output per query is
    a permutation of its input docids, ordered by model score descending
    with ties broken by docid descending.
    """
    per_query: dict[str, list[str]] = {}
    for entry in candidates:
        per_query.setdefault(entry.qid, []).append(entry.docid)

    out: list[RunEntry] = []
    for qid, docids in per_query.items():
        if qid not in queries:
            raise ValueError(f"rerank: query id {qid!r} has no text")
        missing = [docid for docid in docids if docid not in passages]
        if missing:
            raise ValueError(f"rerank: passage id {missing[0]!r} (query {qid!r}) has no text")
        seqs = [tokenize_pair(vocab, queries[qid], passages[d], model.config.max_len) for d in docids]
        scored = list(zip(score_batch(model, seqs), docids))
        for rank, (value, docid) in enumerate(_sort_by_score(scored), start=1):
            out.append(RunEntry(qid=qid, docid=docid, rank=rank, score=value, tag=tag))
    return out


# ---------------------------------------------------------------------------
# per-query metrics (None marks "undefined for this query")


def _check_cutoffs(k: int, binarize_at: int = 1) -> None:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if binarize_at < 1:
        raise ValueError(f"binarize_at must be >= 1, got {binarize_at}")


def _gain(grade: int, exponential: bool) -> float:
    return float(2**grade - 1) if exponential else float(grade)


def _dcg(grades: Sequence[int], k: int, exponential: bool) -> float:
    return sum(
        _gain(g, exponential) / math.log2(i + 2) for i, g in enumerate(grades[:k])
    )


def _ndcg(ranking: Sequence[str], grades: Mapping[str, int], k: int, exponential: bool) -> Optional[float]:
    idcg = _dcg(sorted(grades.values(), reverse=True), k, exponential)
    if idcg == 0.0:
        return None
    return _dcg([grades.get(docid, 0) for docid in ranking[:k]], k, exponential) / idcg


def ndcg_at_k(
    ranking: Sequence[str],
    grades: Mapping[str, int],
    k: int = 10,
    exponential: bool = False,
) -> Optional[float]:
    """Normalized DCG@k with linear gains (exponential optional).

    The ideal DCG comes from the best ordering of all judged documents,
    retrieved or not. Returns None when the ideal DCG is zero.
    """
    _check_cutoffs(k)
    return _ndcg(ranking, grades, k, exponential)


def _relevant_set(grades: Mapping[str, int], binarize_at: int) -> set[str]:
    return {docid for docid, grade in grades.items() if grade >= binarize_at}


_BINARY_METRICS = METRIC_NAMES[1:]


def _binary_metrics(
    ranking: Sequence[str], relevant: set[str], k: int
) -> Optional[tuple[float, float, float, float, float]]:
    """MAP, MRR@k, Recall@k, R-Prec and P@k from one walk of ``ranking``.

    Values come in :data:`METRIC_NAMES` order; None when nothing is
    relevant. Every occurrence of a relevant docid counts as a hit.
    """
    n_relevant = len(relevant)
    if not n_relevant:
        return None
    hits = hits_at_k = hits_at_r = first_hit = 0
    total = 0.0
    for i, docid in enumerate(ranking, start=1):
        if docid in relevant:
            hits += 1
            total += hits / i
            if not first_hit:
                first_hit = i
            if i <= k:
                hits_at_k = hits
            if i <= n_relevant:
                hits_at_r = hits
    return (
        total / n_relevant,
        1.0 / first_hit if 0 < first_hit <= k else 0.0,
        hits_at_k / n_relevant,
        hits_at_r / n_relevant,
        hits_at_k / k,
    )


def _binary_metric(
    name: str, ranking: Sequence[str], grades: Mapping[str, int], k: int, binarize_at: int
) -> Optional[float]:
    """One value of :func:`_binary_metrics`; MAP and R-Prec ignore ``k``."""
    _check_cutoffs(k, binarize_at)
    values = _binary_metrics(ranking, _relevant_set(grades, binarize_at), k)
    return None if values is None else values[_BINARY_METRICS.index(name)]


def average_precision(
    ranking: Sequence[str], grades: Mapping[str, int], binarize_at: int = 1
) -> Optional[float]:
    """Mean of precision at each relevant retrieved rank, over total relevant."""
    return _binary_metric("map", ranking, grades, 1, binarize_at)


def reciprocal_rank_at_k(
    ranking: Sequence[str], grades: Mapping[str, int], k: int = 10, binarize_at: int = 1
) -> Optional[float]:
    """1/rank of the first relevant document within the top k, else 0."""
    return _binary_metric("mrr@10", ranking, grades, k, binarize_at)


def precision_at_k(
    ranking: Sequence[str], grades: Mapping[str, int], k: int = 10, binarize_at: int = 1
) -> Optional[float]:
    return _binary_metric("p@10", ranking, grades, k, binarize_at)


def recall_at_k(
    ranking: Sequence[str], grades: Mapping[str, int], k: int = 10, binarize_at: int = 1
) -> Optional[float]:
    return _binary_metric("recall@10", ranking, grades, k, binarize_at)


def r_precision(
    ranking: Sequence[str], grades: Mapping[str, int], binarize_at: int = 1
) -> Optional[float]:
    """Precision at rank R, where R is the query's total relevant count."""
    return _binary_metric("r_prec", ranking, grades, 1, binarize_at)


# ---------------------------------------------------------------------------
# full evaluation


@dataclass
class MetricReport:
    """Per-query metric values and their arithmetic-mean aggregates.

    ``per_query[metric][qid]`` is None when the metric is undefined for
    that query (no relevant documents); such queries are excluded from
    that metric's aggregate. Aggregates are None when no query defined
    the metric. Both are keyed by :data:`METRIC_NAMES` whatever ``k``
    is; the rendered reports label the cutoff metrics ``@k``.
    """

    per_query: dict[str, dict[str, Optional[float]]]
    aggregates: dict[str, Optional[float]]
    n_queries: int
    n_skipped: int
    binarize_at: int
    k: int = 10
    query_ids: list[str] = field(default_factory=list)


def evaluate(
    run: Sequence[RunEntry],
    qrels: Qrels,
    k: int = 10,
    binarize_at: int = 1,
    exponential_gain: bool = False,
) -> MetricReport:
    """Score a run against qrels with all six metrics.

    Run queries absent from the qrels are skipped with a counted
    warning. Entries are re-sorted by (score desc, docid desc) before
    metrics are computed, matching reference-evaluator behavior.
    Raises ValueError when ``k`` or ``binarize_at`` is below 1.
    """
    _check_cutoffs(k, binarize_at)
    per_query_pairs: dict[str, list[tuple[float, str]]] = {}
    for entry in run:
        per_query_pairs.setdefault(entry.qid, []).append((entry.score, entry.docid))

    per_query: dict[str, dict[str, Optional[float]]] = {m: {} for m in METRIC_NAMES}
    ndcg_column = per_query["ndcg@10"]
    binary_columns = [per_query[m] for m in _BINARY_METRICS]
    undefined = (None,) * len(_BINARY_METRICS)
    skipped = 0
    evaluated_ids: list[str] = []
    for qid in sorted(per_query_pairs):
        grades = qrels._grades.get(qid)
        if grades is None:
            skipped += 1
            logger.warning("query %r missing from qrels; skipped", qid)
            continue
        evaluated_ids.append(qid)
        ranking = [docid for _, docid in _sort_by_score(per_query_pairs[qid])]
        ndcg_column[qid] = _ndcg(ranking, grades, k, exponential_gain)
        values = _binary_metrics(ranking, _relevant_set(grades, binarize_at), k) or undefined
        for column, value in zip(binary_columns, values):
            column[qid] = value

    aggregates: dict[str, Optional[float]] = {}
    for metric in METRIC_NAMES:
        defined = [v for v in per_query[metric].values() if v is not None]
        aggregates[metric] = sum(defined) / len(defined) if defined else None

    return MetricReport(
        per_query=per_query,
        aggregates=aggregates,
        n_queries=len(evaluated_ids),
        n_skipped=skipped,
        binarize_at=binarize_at,
        k=k,
        query_ids=evaluated_ids,
    )


# ---------------------------------------------------------------------------
# report rendering


def report_tsv_lines(report: MetricReport) -> list[str]:
    """Machine lines ``metric<TAB>qid<TAB>value`` with qid 'all' aggregates."""
    labels = list(zip(METRIC_NAMES, _metric_labels(report.k)))
    lines = []
    for metric, label in labels:
        for qid in report.query_ids:
            value = report.per_query[metric][qid]
            lines.append(f"{label}\t{qid}\t{'NA' if value is None else f'{value:.6f}'}")
    for metric, label in labels:
        value = report.aggregates[metric]
        lines.append(f"{label}\tall\t{'NA' if value is None else f'{value:.6f}'}")
    lines.append(f"n_queries\tall\t{report.n_queries}")
    lines.append(f"n_skipped\tall\t{report.n_skipped}")
    lines.append(f"binarize_at\tall\t{report.binarize_at}")
    return lines


def report_table(report: MetricReport) -> str:
    """Aligned aggregate table for human eyes."""
    labels = _metric_labels(report.k)
    width = max(len(label) for label in labels)
    rows = [
        f"{label:<{width}}  {'NA' if report.aggregates[m] is None else f'{report.aggregates[m]:.4f}'}"
        for m, label in zip(METRIC_NAMES, labels)
    ]
    header = (
        f"queries evaluated: {report.n_queries} (skipped {report.n_skipped}), "
        f"binarize_at={report.binarize_at}"
    )
    return "\n".join([header] + rows) + "\n"
