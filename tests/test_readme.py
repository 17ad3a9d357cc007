"""The README's "Library use" example runs as written."""

import re
from pathlib import Path

from reranklab.synth import SynthConfig, generate, write_synth_files

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    match = re.search(r"^## Library use\n+```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert match, "README has no python block under '## Library use'"
    return match.group(1)


def test_library_use_example_runs(tmp_path, monkeypatch):
    data = generate(SynthConfig(n_triplets=16, n_eval_queries=3, n_candidates=8, n_relevant=2))
    write_synth_files(data, tmp_path)
    monkeypatch.chdir(tmp_path)
    qid, candidates = next(iter(data.candidates.items()))
    # The example's placeholder names, bound to the small corpus.
    names = {
        "corpus_texts": [text for t in data.triplets for text in (t.query, t.positive, t.negative)],
        "triplets": data.triplets,
        "query": data.queries[qid],
        "passages_for_query": [data.passages[docid] for _, docid in candidates],
        "queries": data.queries,
        "passages": data.passages,
    }
    exec(compile(library_use_block(), str(README), "exec"), names)
    written = [f"crossenc-lion-epoch{k}.ckpt" for k in (1, 2, 3)] + ["loss-lion.tsv", "stats-lion.txt"]
    assert names["result"].files == written
    assert sorted(p.name for p in (tmp_path / "runs").iterdir()) == sorted(written)
    assert len(names["scores"]) == len(candidates)
    assert all(0.0 < s < 1.0 for s in names["scores"])
    assert (tmp_path / "reranked.run").read_text().count("\n") == sum(map(len, data.candidates.values()))
    assert set(names["report"].per_query["ndcg@10"]) == set(data.qrels)
