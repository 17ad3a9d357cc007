"""Output checks that do not trust the code under test.

Run and qrels files are parsed here with their own small readers, and the six
metrics are recomputed from their textbook definitions, so a wrong value in
``eval``'s ``metrics.tsv`` cannot be reproduced by the same bug.
"""

from __future__ import annotations

import math
from pathlib import Path

METRICS = ("ndcg@10", "map", "mrr@10", "recall@10", "r_prec", "p@10")
K = 10
# metrics.tsv prints six decimals; allow the rounding plus float slack.
TSV_TOLERANCE = 1.5e-6


def read_run(path: Path) -> dict[str, list[tuple[str, int, float]]]:
    """qid -> [(docid, rank, score)] in file order."""
    run: dict[str, list[tuple[str, int, float]]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            qid, _q0, docid, rank, score, _tag = line.split()
            run.setdefault(qid, []).append((docid, int(rank), float(score)))
    return run


def read_qrels(path: Path) -> dict[str, dict[str, int]]:
    qrels: dict[str, dict[str, int]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            qid, _zero, docid, grade = line.split()
            qrels.setdefault(qid, {})[docid] = int(grade)
    return qrels


def read_metrics_tsv(path: Path) -> dict[tuple[str, str], float | None]:
    """(metric, qid) -> value from ``eval --out``'s metrics.tsv."""
    values: dict[tuple[str, str], float | None] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        metric, qid, value = line.split("\t")
        values[(metric, qid)] = None if value == "NA" else float(value)
    return values


def ranked_docids(entries: list[tuple[str, int, float]]) -> list[str]:
    """Score descending, ties by docid descending (the documented rule)."""
    return [docid for docid, _rank, _score in sorted(entries, key=lambda e: (e[2], e[0]), reverse=True)]


def query_metrics(ranking: list[str], grades: dict[str, int]) -> dict[str, float | None]:
    """All six metrics for one query, binarized at grade 1, linear gains."""
    relevant = {d for d, g in grades.items() if g >= 1}
    ideal = sorted(grades.values(), reverse=True)[:K]
    idcg = sum(g / math.log2(r + 2) for r, g in enumerate(ideal))
    dcg = sum(grades.get(d, 0) / math.log2(r + 2) for r, d in enumerate(ranking[:K]))
    out: dict[str, float | None] = {"ndcg@10": dcg / idcg if idcg > 0 else None}
    if not relevant:
        out.update({m: None for m in METRICS[1:]})
        return out
    hit_ranks = [r for r, d in enumerate(ranking, start=1) if d in relevant]
    out["map"] = sum((i + 1) / r for i, r in enumerate(hit_ranks)) / len(relevant)
    out["mrr@10"] = 1.0 / hit_ranks[0] if hit_ranks and hit_ranks[0] <= K else 0.0
    top_hits = sum(1 for r in hit_ranks if r <= K)
    out["recall@10"] = top_hits / len(relevant)
    out["p@10"] = top_hits / K
    out["r_prec"] = sum(1 for r in hit_ranks if r <= len(relevant)) / len(relevant)
    return out


def mean_ndcg(run_path: Path, qrels_path: Path) -> float:
    run, qrels = read_run(run_path), read_qrels(qrels_path)
    values = [query_metrics(ranked_docids(run[q]), qrels[q])["ndcg@10"] for q in run if q in qrels]
    defined = [v for v in values if v is not None]
    return sum(defined) / len(defined)


def check_eval_sample(
    run_path: Path, qrels_path: Path, metrics_tsv: Path, sample: int = 5
) -> list[str]:
    """Compare ``sample`` evenly spaced queries against the oracle; [] if all agree."""
    run, qrels = read_run(run_path), read_qrels(qrels_path)
    reported = read_metrics_tsv(metrics_tsv)
    qids = sorted(q for q in run if q in qrels)
    stride = max(1, len(qids) // sample)
    problems = []
    for qid in qids[::stride][:sample]:
        expected = query_metrics(ranked_docids(run[qid]), qrels[qid])
        for metric in METRICS:
            got = reported.get((metric, qid), "missing")
            want = expected[metric]
            if got == "missing":
                problems.append(f"{metric} for {qid} missing from {metrics_tsv.name}")
            elif (got is None) != (want is None) or (
                want is not None and abs(got - want) > TSV_TOLERANCE
            ):
                problems.append(f"{metric} for {qid}: eval says {got}, oracle says {want}")
    return problems


def check_reranked(candidates_path: Path, reranked_path: Path) -> list[str]:
    """Each query's output is a permutation of its candidates ranked 1..k."""
    cands, out = read_run(candidates_path), read_run(reranked_path)
    problems = []
    if set(cands) != set(out):
        problems.append(f"reranked queries differ from candidate queries ({len(out)} vs {len(cands)})")
    for qid, entries in out.items():
        docids = [d for d, _r, _s in entries]
        if sorted(docids) != sorted(d for d, _r, _s in cands.get(qid, [])):
            problems.append(f"{qid}: reranked docids are not a permutation of the candidates")
        if [r for _d, r, _s in entries] != list(range(1, len(entries) + 1)):
            problems.append(f"{qid}: ranks are not 1..{len(entries)} in order")
        scores = [s for _d, _r, s in entries]
        if any(a < b for a, b in zip(scores, scores[1:])):
            problems.append(f"{qid}: scores are not in descending order")
    return problems


def final_epoch_loss(loss_log: Path) -> float:
    """Mean loss of the last epoch in a ``step epoch lr loss`` log."""
    rows = [line.split("\t") for line in loss_log.read_text(encoding="utf-8").splitlines() if line]
    last = rows[-1][1]
    losses = [float(r[3]) for r in rows if r[1] == last]
    return sum(losses) / len(losses)
