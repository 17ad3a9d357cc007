"""TREC-format parsing, reranking, and the six-metric evaluation suite.

Run files hold ``qid Q0 docid rank score tag`` lines; qrels hold
``qid 0 docid rel``. In memory a run is ``{qid: [(score, docid), ...]}``
in file order and qrels are ``{qid: {docid: grade}}``. Evaluation sorts
a copy of every query's pairs once, (score, docid) descending, so
results do not depend on input line order, and computes NDCG@k, MAP,
MRR@k, Recall@k, R-Prec, and P@k per query with arithmetic-mean
aggregates. The five binary metrics come from one walk of each query's
ranking.
"""

from __future__ import annotations

import logging
import math
import os
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from reranklab.model import CrossEncoder, Vocab, score_batches, tokenize_pair

logger = logging.getLogger(__name__)

__all__ = [
    "ParseError",
    "MetricReport",
    "parse_run",
    "parse_qrels",
    "format_run",
    "format_qrels",
    "read_run",
    "read_qrels",
    "read_corpus_tsv",
    "open_utf8",
    "open_replacing",
    "write_replacing",
    "line_list",
    "rerank",
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
    """``path`` as UTF-8 text, less any leading byte-order mark; an undecodable byte raises ``error`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise error(f"{path}: not UTF-8 text (byte 0x{byte:02x}: {exc.reason})") from None


@contextmanager
def open_replacing(path):
    """``<path>.tmp`` opened to write UTF-8 text, then renamed to ``path``, or removed if the block raises."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


def write_replacing(path, text: str) -> None:
    """``text`` written to ``path`` through :func:`open_replacing`."""
    with open_replacing(path) as fh:
        fh.write(text)


# A ParseError lists at most this many line numbers, then the total count.
_MAX_LISTED_LINES = 10


def line_list(linenos: Sequence[int]) -> str:
    """``[3, 7]`` for a ParseError message; past 10 numbers, the first 10 and the count."""
    if len(linenos) <= _MAX_LISTED_LINES:
        return str(list(linenos))
    listed = ", ".join(map(str, linenos[:_MAX_LISTED_LINES]))
    return f"[{listed}, ...] ({len(linenos)} lines)"


# ---------------------------------------------------------------------------
# formats


def parse_run(lines: Iterable[str], source: str = "<run>") -> dict[str, list[tuple[float, str]]]:
    """Parse ``qid Q0 docid rank score tag`` lines (whitespace separated).

    Returns ``{qid: [(score, docid), ...]}`` in file order. The rank must
    be an integer >= 1 but is not kept, and the tag is dropped.
    """
    run: dict[str, list[tuple[float, str]]] = {}
    bad: list[int] = []
    for lineno, raw in enumerate(lines, start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 6:
            bad.append(lineno)
            continue
        qid, _, docid, rank_s, score_s, _ = parts
        try:
            rank = int(rank_s)
            value = float(score_s)
        except ValueError:
            bad.append(lineno)
            continue
        if rank < 1 or not math.isfinite(value):
            bad.append(lineno)
            continue
        pairs = run.get(qid)
        if pairs is None:
            pairs = run[qid] = []
        pairs.append((value, docid))
    if bad:
        raise ParseError(f"{source}: malformed run lines {line_list(bad)}")
    return run


def parse_qrels(lines: Iterable[str], source: str = "<qrels>") -> dict[str, dict[str, int]]:
    """Parse ``qid 0 docid rel`` lines into ``{qid: {docid: grade}}``; duplicate judgments keep the last."""
    grades: dict[str, dict[str, int]] = {}
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
    return grades


def format_run(run: Mapping[str, Sequence[tuple[float, str]]], tag: str) -> str:
    """Emit run lines with scores at 6 decimal places, ranked 1..k by list position."""
    lines = [
        f"{qid} Q0 {docid} {rank} {value:.6f} {tag}"
        for qid, pairs in run.items()
        for rank, (value, docid) in enumerate(pairs, start=1)
    ]
    return "\n".join(lines) + "\n" if lines else ""


def format_qrels(qrels: Mapping[str, Mapping[str, int]]) -> str:
    lines = [f"{qid} 0 {docid} {grade}" for qid, grades in qrels.items() for docid, grade in grades.items()]
    return "\n".join(lines) + "\n" if lines else ""


def read_run(path) -> dict[str, list[tuple[float, str]]]:
    with open_utf8(path) as fh:
        return parse_run(fh, source=str(path))


def read_qrels(path) -> dict[str, dict[str, int]]:
    with open_utf8(path) as fh:
        return parse_qrels(fh, source=str(path))


def read_corpus_tsv(path) -> dict[str, str]:
    """Read an ``id<TAB>text`` corpus file into an id -> text map; each id appears once."""
    out: dict[str, str] = {}
    bad: list[int] = []
    repeated: list[int] = []
    with open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t", 1)
            if len(parts) != 2 or not parts[0]:
                bad.append(lineno)
            elif parts[0] in out:
                repeated.append(lineno)
            else:
                out[parts[0]] = parts[1]
    if bad:
        raise ParseError(f"{path}: malformed id<TAB>text lines {line_list(bad)}")
    if repeated:
        raise ParseError(f"{path}: duplicate ids on lines {line_list(repeated)}")
    return out


# ---------------------------------------------------------------------------
# reranking


def _check_ranked_once(qid: str, docids: Sequence[str]) -> None:
    """Raise ValueError naming ``qid`` and the first docid ``docids`` lists twice, if any."""
    if len(set(docids)) < len(docids):
        docid = next(d for d, n in Counter(docids).items() if n > 1)
        raise ValueError(f"query {qid!r}: docid {docid!r} is ranked more than once")


def rerank(
    model: CrossEncoder,
    vocab: Vocab,
    queries: Mapping[str, str],
    passages: Mapping[str, str],
    candidates: Mapping[str, Sequence[tuple[float, str]]],
) -> dict[str, list[tuple[float, str]]]:
    """Rescore candidate lists with the model.

    Every candidate qid/docid must resolve to text, and a query may list a
    docid once only, as :func:`evaluate` requires. Output per query is
    a permutation of its input docids. Each score is kept as the run
    format prints it, ``round(s, 6)``, and the list is ordered by
    (score, docid) descending, the order :func:`evaluate` reads back from
    the written file. Every query is checked and tokenized before any is
    scored; :func:`score_batches` then scores each query's candidates as
    one batch.
    """
    batches = []
    for qid, pairs in candidates.items():
        if qid not in queries:
            raise ValueError(f"rerank: query id {qid!r} has no text")
        docids = [docid for _, docid in pairs]
        _check_ranked_once(qid, docids)
        missing = [docid for docid in docids if docid not in passages]
        if missing:
            raise ValueError(f"rerank: passage id {missing[0]!r} (query {qid!r}) has no text")
        batches.append([tokenize_pair(vocab, queries[qid], passages[d], model.config.max_len) for d in docids])
    out: dict[str, list[tuple[float, str]]] = {}
    for (qid, pairs), scores in zip(candidates.items(), score_batches(model, batches)):
        out[qid] = sorted(((round(value, 6), docid) for value, (_, docid) in zip(scores, pairs)), reverse=True)
    return out


# ---------------------------------------------------------------------------
# per-query metrics (None marks "undefined for this query")


def _gain(grade: int, exponential: bool) -> float:
    # a float power raises OverflowError at once; 2**grade would first build a grade-bit integer
    return 2.0**grade - 1.0 if exponential else float(grade)


def _dcg(grades: Sequence[int], k: int, exponential: bool) -> float:
    return sum(
        _gain(g, exponential) / math.log2(i + 2) for i, g in enumerate(grades[:k])
    )


def _ndcg(ranking: Sequence[str], grades: Mapping[str, int], k: int, exponential: bool) -> Optional[float]:
    """Normalized DCG@k; None when the ideal DCG, over every judged document, is zero.

    Raises OverflowError when a gain or a DCG sum leaves the float range.
    """
    idcg = _dcg(sorted(grades.values(), reverse=True), k, exponential)
    if idcg == 0.0:
        return None
    dcg = _dcg([grades.get(docid, 0) for docid in ranking[:k]], k, exponential)
    if math.isinf(idcg) or math.isinf(dcg):
        raise OverflowError
    return dcg / idcg


_BINARY_METRICS = METRIC_NAMES[1:]


def _binary_metrics(
    ranking: Sequence[str], relevant: set[str], k: int
) -> Optional[tuple[float, float, float, float, float]]:
    """MAP, MRR@k, Recall@k, R-Prec and P@k from one walk of ``ranking``.

    Values come in :data:`METRIC_NAMES` order; None when nothing is
    relevant.
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
    run: Mapping[str, Sequence[tuple[float, str]]],
    qrels: Mapping[str, Mapping[str, int]],
    k: int = 10,
    binarize_at: int = 1,
    exponential_gain: bool = False,
) -> MetricReport:
    """Score a run against qrels with all six metrics.

    Run queries absent from the qrels are skipped with a counted
    warning. A sorted copy of each query's pairs, (score desc, docid
    desc), gives the ranking, matching reference-evaluator behavior; the
    run itself is not changed. Raises ValueError when ``k`` or
    ``binarize_at`` is below 1, when an evaluated query ranks a docid
    twice, or when a query's NDCG gains overflow a float.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if binarize_at < 1:
        raise ValueError(f"binarize_at must be >= 1, got {binarize_at}")
    per_query: dict[str, dict[str, Optional[float]]] = {m: {} for m in METRIC_NAMES}
    ndcg_column = per_query["ndcg@10"]
    binary_columns = [per_query[m] for m in _BINARY_METRICS]
    undefined = (None,) * len(_BINARY_METRICS)
    skipped = 0
    evaluated_ids: list[str] = []
    for qid in sorted(run):
        grades = qrels.get(qid)
        if grades is None:
            skipped += 1
            logger.warning("query %r missing from qrels; skipped", qid)
            continue
        evaluated_ids.append(qid)
        ranking = [docid for _, docid in sorted(run[qid], reverse=True)]
        _check_ranked_once(qid, ranking)
        try:
            ndcg_column[qid] = _ndcg(ranking, grades, k, exponential_gain)
        except OverflowError:
            raise ValueError(
                f"query {qid!r}: the NDCG gain of grade {max(grades.values())} overflows a float"
            ) from None
        relevant = {docid for docid, grade in grades.items() if grade >= binarize_at}
        values = _binary_metrics(ranking, relevant, k) or undefined
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
