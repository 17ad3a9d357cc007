"""Seeded synthetic corpus generator.

Produces a linearly separable training set (relevant passages carry a
repeated marker token and echo the query; irrelevant passages carry the
opposite marker and random words) together with a matching evaluation
split: query/passage corpora, binary qrels, and a shuffled first-stage
candidate run. Everything is derived from one seed, so the whole
pipeline runs reproducibly with no external data.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from reranklab.ir_eval import format_qrels, format_run, open_replacing, write_replacing
from reranklab.train import Triplet

__all__ = ["SynthConfig", "SynthData", "generate", "write_synth_files", "POS_MARKER", "NEG_MARKER"]

POS_MARKER = "relmark"
NEG_MARKER = "junkmark"


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 12
    vocab_size: int = 100  # reserved ids + markers + base words
    n_triplets: int = 1000
    n_eval_queries: int = 20
    n_candidates: int = 50
    n_relevant: int = 5
    query_len: int = 3
    marker_repeats: int = 3

    def __post_init__(self):
        for name, low in (("seed", 0), ("n_triplets", 0), ("n_eval_queries", 0), ("n_candidates", 1),
                          ("query_len", 1), ("marker_repeats", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        n_words = self.vocab_size - 4 - 2  # minus reserved ids and markers
        if n_words < self.query_len:
            raise ValueError(f"vocab_size {self.vocab_size} too small for queries")
        if not 1 <= self.n_relevant <= self.n_candidates:
            raise ValueError("n_relevant must lie in [1, n_candidates]")


@dataclass
class SynthData:
    triplets: list[Triplet]
    queries: dict[str, str]
    passages: dict[str, str]
    qrels: dict[str, dict[str, int]]
    candidates: dict[str, list[tuple[float, str]]]


def _words(config: SynthConfig) -> list[str]:
    return [f"w{i:03d}" for i in range(config.vocab_size - 4 - 2)]


def _positive_passage(query_tokens: list[str], config: SynthConfig) -> str:
    return " ".join([POS_MARKER] * config.marker_repeats + query_tokens)


def _negative_passage(rng: random.Random, words: list[str], config: SynthConfig) -> str:
    return " ".join([NEG_MARKER] * config.marker_repeats + rng.sample(words, config.query_len))


def generate(config: SynthConfig = SynthConfig()) -> SynthData:
    """Build the full synthetic dataset for one seed."""
    rng = random.Random(config.seed)
    words = _words(config)

    triplets = []
    for _ in range(config.n_triplets):
        q = rng.sample(words, config.query_len)
        triplets.append(
            Triplet(
                query=" ".join(q),
                positive=_positive_passage(q, config),
                negative=_negative_passage(rng, words, config),
            )
        )

    queries: dict[str, str] = {}
    passages: dict[str, str] = {}
    qrels: dict[str, dict[str, int]] = {}
    candidates: dict[str, list[tuple[float, str]]] = {}
    for qi in range(config.n_eval_queries):
        qid = f"q{qi:03d}"
        q = rng.sample(words, config.query_len)
        queries[qid] = " ".join(q)
        grades = qrels[qid] = {}
        for di in range(config.n_candidates):
            docid = f"d{qi:03d}x{di:02d}"
            if di < config.n_relevant:
                passages[docid] = _positive_passage(q, config)
                grades[docid] = 1
            else:
                passages[docid] = _negative_passage(rng, words, config)
                grades[docid] = 0
        # First-stage list: random scores, so the candidate order carries
        # no signal and reranking has to come from the model.
        scored = [(rng.random(), docid) for docid in grades]
        candidates[qid] = sorted(scored, key=lambda t: (-t[0], t[1]))
    return SynthData(
        triplets=triplets, queries=queries, passages=passages, qrels=qrels, candidates=candidates
    )


def write_synth_files(data: SynthData, out_dir) -> dict[str, str]:
    """Write the dataset, each file through ``<file>.tmp`` and a rename; returns artifact name -> relative path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {
        "triplets": "triplets.tsv",
        "queries": "queries.tsv",
        "passages": "passages.tsv",
        "qrels": "qrels.txt",
        "candidates": "candidates.run",
    }
    with open_replacing(out / files["triplets"]) as fh:
        for t in data.triplets:
            fh.write(f"{t.query}\t{t.positive}\t{t.negative}\n")
    with open_replacing(out / files["queries"]) as fh:
        for qid, text in data.queries.items():
            fh.write(f"{qid}\t{text}\n")
    with open_replacing(out / files["passages"]) as fh:
        for docid, text in data.passages.items():
            fh.write(f"{docid}\t{text}\n")
    write_replacing(out / files["qrels"], format_qrels(data.qrels))
    write_replacing(out / files["candidates"], format_run(data.candidates, "synth-first-stage"))
    return files
