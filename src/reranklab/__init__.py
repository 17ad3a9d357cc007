"""Desk-scale cross-encoder reranking lab.

Trains a toy cross-encoder with the Lion or AdamW optimizer on
(query, passage, label) pairs, reranks TREC-format candidate lists, and
reports the standard IR metric suite plus optimizer resource accounting.
"""

from reranklab.tensor import Tape, Tensor, finite_diff_grad
from reranklab.model import (
    CrossEncoder,
    CrossEncoderConfig,
    Vocab,
    init_params,
    score,
    score_batch,
    tokenize_pair,
)
from reranklab.optim import AdamW, Lion, ScheduleSpec, lr_at
from reranklab.train import (
    ResourceStats,
    TrainConfig,
    TrainPair,
    Triplet,
    bce_loss,
    efficiency_gain,
    run_training,
    triplets_to_pairs,
)
from reranklab.ir_eval import MetricReport, evaluate, parse_qrels, parse_run, rerank

__version__ = "0.1.0"

__all__ = [
    "Tape",
    "Tensor",
    "finite_diff_grad",
    "CrossEncoder",
    "CrossEncoderConfig",
    "Vocab",
    "init_params",
    "score",
    "score_batch",
    "tokenize_pair",
    "AdamW",
    "Lion",
    "ScheduleSpec",
    "lr_at",
    "ResourceStats",
    "TrainConfig",
    "TrainPair",
    "Triplet",
    "bce_loss",
    "efficiency_gain",
    "run_training",
    "triplets_to_pairs",
    "MetricReport",
    "evaluate",
    "parse_qrels",
    "parse_run",
    "rerank",
    "__version__",
]
