import numpy as np
import pytest

from reranklab.ir_eval import evaluate
from reranklab.model import CrossEncoderConfig, Vocab, init_params


def max_rel_err(a, b, floor=1e-8):
    """Elementwise relative error with the gradcheck denominator."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def same_bits(a, b):
    """Equal as IEEE bit patterns: unlike ==, tells -0.0 from 0.0."""
    a, b = np.ascontiguousarray(a, dtype=np.float64), np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def query_metrics(ranking, grades, k=10, binarize_at=1, exponential=False):
    """The six metrics of one ranking, from ``evaluate`` on a one-query run.

    Scores ``n - i`` keep the ranking's order.
    """
    n = len(ranking)
    run = {"q": [(float(n - i), docid) for i, docid in enumerate(ranking)]}
    report = evaluate(run, {"q": grades}, k=k, binarize_at=binarize_at, exponential_gain=exponential)
    return {metric: column["q"] for metric, column in report.per_query.items()}


@pytest.fixture
def rng():
    return np.random.default_rng(12)


@pytest.fixture
def tiny_vocab():
    return Vocab([f"t{i}" for i in range(16)])


@pytest.fixture
def tiny_model(tiny_vocab):
    config = CrossEncoderConfig(
        vocab_size=tiny_vocab.size, d_model=8, n_layers=1, n_heads=2, d_ff=16, max_len=8, seed=7
    )
    return init_params(config)
