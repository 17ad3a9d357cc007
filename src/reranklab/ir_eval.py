"""TREC-format parsing, reranking, and the six-metric evaluation suite.

Run files hold ``qid Q0 docid rank score tag`` lines; qrels hold
``qid 0 docid rel``. Evaluation re-sorts every query's entries by score
descending with ties broken by docid descending, so results do not
depend on input line order, and computes NDCG@k, MAP, MRR@k, Recall@k,
R-Prec, and P@k per query with arithmetic-mean aggregates.
"""

from __future__ import annotations

import logging
import math
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
    """Malformed run/qrels/corpus content; message lists line numbers."""


@dataclass
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
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
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
        entries.append(RunEntry(qid=qid, docid=docid, rank=rank, score=value, tag=tag))
    if bad:
        raise ParseError(f"{source}: malformed run lines {bad}")
    return entries


def parse_qrels(lines: Iterable[str], source: str = "<qrels>") -> Qrels:
    """Parse ``qid 0 docid rel`` lines; duplicate judgments keep the last."""
    qrels = Qrels()
    bad: list[int] = []
    duplicates = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
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
        if qrels.set(qid, docid, rel):
            duplicates += 1
    if bad:
        raise ParseError(f"{source}: malformed qrels lines {bad}")
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
    with open(path, "r", encoding="utf-8") as fh:
        return parse_run(fh, source=str(path))


def read_qrels(path) -> Qrels:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_qrels(fh, source=str(path))


def read_corpus_tsv(path) -> dict[str, str]:
    """Read an ``id<TAB>text`` corpus file into an id -> text map."""
    out: dict[str, str] = {}
    bad: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
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
        raise ParseError(f"{path}: malformed id<TAB>text lines {bad}")
    return out


# ---------------------------------------------------------------------------
# reranking


def _sorted_by_score(pairs: list[tuple[str, float]]) -> list[tuple[str, float]]:
    """Order by score descending, ties by docid descending lexicographic."""
    ordered = sorted(pairs, key=lambda item: item[0], reverse=True)
    ordered.sort(key=lambda item: item[1], reverse=True)
    return ordered


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
        scored = list(zip(docids, score_batch(model, seqs)))
        for rank, (docid, value) in enumerate(_sorted_by_score(scored), start=1):
            out.append(RunEntry(qid=qid, docid=docid, rank=rank, score=value, tag=tag))
    return out


# ---------------------------------------------------------------------------
# per-query metrics (None marks "undefined for this query")


def _gain(grade: int, exponential: bool) -> float:
    return float(2**grade - 1) if exponential else float(grade)


def _dcg(grades: Sequence[int], k: int, exponential: bool) -> float:
    return sum(
        _gain(g, exponential) / math.log2(i + 2) for i, g in enumerate(grades[:k])
    )


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
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ideal = sorted(grades.values(), reverse=True)
    idcg = _dcg(ideal, k, exponential)
    if idcg == 0.0:
        return None
    got = [grades.get(docid, 0) for docid in ranking]
    return _dcg(got, k, exponential) / idcg


def _relevant_set(grades: Mapping[str, int], binarize_at: int) -> set[str]:
    if binarize_at < 1:
        raise ValueError(f"binarize_at must be >= 1, got {binarize_at}")
    return {docid for docid, grade in grades.items() if grade >= binarize_at}


def average_precision(
    ranking: Sequence[str], grades: Mapping[str, int], binarize_at: int = 1
) -> Optional[float]:
    """Mean of precision at each relevant retrieved rank, over total relevant."""
    relevant = _relevant_set(grades, binarize_at)
    if not relevant:
        return None
    hits = 0
    total = 0.0
    for i, docid in enumerate(ranking, start=1):
        if docid in relevant:
            hits += 1
            total += hits / i
    return total / len(relevant)


def reciprocal_rank_at_k(
    ranking: Sequence[str], grades: Mapping[str, int], k: int = 10, binarize_at: int = 1
) -> Optional[float]:
    """1/rank of the first relevant document within the top k, else 0."""
    relevant = _relevant_set(grades, binarize_at)
    if not relevant:
        return None
    for i, docid in enumerate(ranking[:k], start=1):
        if docid in relevant:
            return 1.0 / i
    return 0.0


def precision_at_k(
    ranking: Sequence[str], grades: Mapping[str, int], k: int = 10, binarize_at: int = 1
) -> Optional[float]:
    relevant = _relevant_set(grades, binarize_at)
    if not relevant:
        return None
    hits = sum(1 for docid in ranking[:k] if docid in relevant)
    return hits / k


def recall_at_k(
    ranking: Sequence[str], grades: Mapping[str, int], k: int = 10, binarize_at: int = 1
) -> Optional[float]:
    relevant = _relevant_set(grades, binarize_at)
    if not relevant:
        return None
    hits = sum(1 for docid in ranking[:k] if docid in relevant)
    return hits / len(relevant)


def r_precision(
    ranking: Sequence[str], grades: Mapping[str, int], binarize_at: int = 1
) -> Optional[float]:
    """Precision at rank R, where R is the query's total relevant count."""
    relevant = _relevant_set(grades, binarize_at)
    if not relevant:
        return None
    r = len(relevant)
    hits = sum(1 for docid in ranking[:r] if docid in relevant)
    return hits / r


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
    """
    per_query_entries: dict[str, list[tuple[str, float]]] = {}
    for entry in run:
        per_query_entries.setdefault(entry.qid, []).append((entry.docid, entry.score))

    per_query: dict[str, dict[str, Optional[float]]] = {m: {} for m in METRIC_NAMES}
    skipped = 0
    evaluated_ids: list[str] = []
    for qid in sorted(per_query_entries):
        if qid not in qrels:
            skipped += 1
            logger.warning("query %r missing from qrels; skipped", qid)
            continue
        evaluated_ids.append(qid)
        ranking = [docid for docid, _ in _sorted_by_score(per_query_entries[qid])]
        grades = qrels.grades(qid)
        per_query["ndcg@10"][qid] = ndcg_at_k(ranking, grades, k, exponential_gain)
        per_query["map"][qid] = average_precision(ranking, grades, binarize_at)
        per_query["mrr@10"][qid] = reciprocal_rank_at_k(ranking, grades, k, binarize_at)
        per_query["recall@10"][qid] = recall_at_k(ranking, grades, k, binarize_at)
        per_query["r_prec"][qid] = r_precision(ranking, grades, binarize_at)
        per_query["p@10"][qid] = precision_at_k(ranking, grades, k, binarize_at)

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
