"""Pair construction, BCE objective, and the seeded training loop.

Training consumes (query, positive, negative) triplets expanded into
binary-labeled pairs, minimizes mean binary cross-entropy per batch, and
records per-step loss, learning rate, wall time, and optimizer state
size. Runs are bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from reranklab import tensor as T
from reranklab.checkpoint import save_checkpoint
from reranklab.ir_eval import ParseError, line_list, open_utf8, write_replacing
from reranklab.model import CrossEncoder, Vocab, tokenize_pair
from reranklab.optim import OPTIMIZERS, Optimizer, ScheduleSpec, lr_at
from reranklab.tensor import Tape, Tensor

logger = logging.getLogger(__name__)

__all__ = [
    "Triplet",
    "TrainPair",
    "TrainConfig",
    "ResourceStats",
    "LossRecord",
    "TrainResult",
    "NonFiniteLossError",
    "ParseError",
    "load_triplets",
    "triplets_to_pairs",
    "bce_loss",
    "steps",
    "run_training",
    "efficiency_gain",
    "format_loss_log",
    "write_loss_log",
    "resource_stats_lines",
]

BCE_EPS = 1e-12


class NonFiniteLossError(RuntimeError):
    """Training produced a NaN/inf batch loss."""

    def __init__(self, step: int, value: float):
        super().__init__(f"non-finite loss {value} at step {step}")
        self.step = step
        self.value = value


@dataclass
class Triplet:
    query: str
    positive: str
    negative: str


@dataclass
class TrainPair:
    query: str
    passage: str
    label: int


@dataclass
class TrainConfig:
    """Hyperparameters for one training run.

    The schedule's total step count is derived inside ``steps``
    as epochs * ceil(n_pairs / batch_size). Construction checks every
    field, the schedule and optimizer ones through ``ScheduleSpec`` and
    the optimizer class; each error message starts with the field's name.
    """

    batch_size: int = 64
    epochs: int = 3
    seed: int = 12
    optimizer: str = "lion"
    base_lr: float = 2e-4
    schedule: str = "constant"
    warmup_ratio: float = 0.1
    shuffle: bool = True
    weight_decay: float = 0.01

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {', '.join(OPTIMIZERS)}, got {self.optimizer!r}")
        ScheduleSpec(kind=self.schedule, base_lr=self.base_lr, warmup_ratio=self.warmup_ratio)
        OPTIMIZERS[self.optimizer]({}, lr=self.base_lr, weight_decay=self.weight_decay)  # checks only


@dataclass
class ResourceStats:
    """Process-level optimizer accounting for one run.

    Step times cover forward, loss, backward and update; ``mean_update_ms``
    times ``optimizer.step`` alone, the only part that differs by optimizer.
    """

    optimizer_state_bytes: int
    mean_step_ms: float
    peak_step_ms: float
    std_step_ms: float
    n_steps: int
    mean_update_ms: float


@dataclass
class LossRecord:
    step: int
    epoch: int
    lr: float
    loss: float
    step_ms: float  # forward to zero_grad
    update_ms: float  # optimizer.step alone


@dataclass
class TrainResult:
    files: list[str]  # names of the files written in the output directory
    loss_log: list[LossRecord]
    stats: ResourceStats


# ---------------------------------------------------------------------------
# data loading and pair construction


def load_triplets(path) -> list[Triplet]:
    """Read a UTF-8 TSV of query<TAB>positive<TAB>negative lines."""
    triplets = []
    bad: list[int] = []
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                bad.append(lineno)
                continue
            triplets.append(Triplet(*parts))
    if bad:
        raise ParseError(f"{path}: expected 3 tab-separated fields on lines {line_list(bad)}")
    return triplets


def triplets_to_pairs(triplets: Iterable[Triplet]) -> list[TrainPair]:
    """Expand each triplet into (query, positive, 1) then (query, negative, 0).

    Triplets with an empty field are skipped with a counted warning.
    """
    pairs: list[TrainPair] = []
    skipped = 0
    for t in triplets:
        if not (t.query.strip() and t.positive.strip() and t.negative.strip()):
            skipped += 1
            continue
        pairs.append(TrainPair(t.query, t.positive, 1))
        pairs.append(TrainPair(t.query, t.negative, 0))
    if skipped:
        logger.warning("skipped %d malformed triplet(s) with empty fields", skipped)
    return pairs


# ---------------------------------------------------------------------------
# objective


def bce_loss(y_hat, y) -> Tensor:
    """Mean binary cross-entropy -[y log(p) + (1-y) log(1-p)], one 0/1 label per p.

    The prediction is clamped to [1e-12, 1 - 1e-12] before the logs so
    the loss stays finite; gradients flow through the clamp interior. The
    loss is one ``tensor.bce`` node.
    """
    p = T.as_tensor(y_hat)
    y = np.asarray(y, dtype=np.float64)
    if not np.isin(y, (0, 1)).all():
        raise ValueError(f"labels must be 0 or 1, got {y}")
    y = y.reshape(p.shape)  # a label count that differs from p's raises ValueError
    return T.bce(p, y, BCE_EPS)


# ---------------------------------------------------------------------------
# training loop


def steps(model: CrossEncoder, optimizer: Optimizer, ids: np.ndarray, labels: np.ndarray, config: TrainConfig):
    """Train ``model`` in place on the ``(N, max_len)`` id matrix ``ids``, yielding each step's record as it ends.

    Deterministic for a fixed config: the per-epoch shuffle is seeded with seed + epoch index, and
    batches keep the final partial batch. A record is yielded with no tape active.
    """
    per_epoch = math.ceil(len(ids) / config.batch_size)
    spec = ScheduleSpec(config.schedule, config.base_lr, config.warmup_ratio, total_steps=config.epochs * per_epoch)
    # One tape for every step, so forward activations and backward temporaries are reused; see the README.
    tape = Tape()
    for epoch_index in range(config.epochs):
        if config.shuffle:
            order = np.random.default_rng(config.seed + epoch_index).permutation(len(ids))
        else:
            order = np.arange(len(ids))
        for batch, start in enumerate(range(0, len(ids), config.batch_size)):
            step = epoch_index * per_epoch + batch
            batch_ids = order[start : start + config.batch_size]
            lr = lr_at(spec, step)
            t0 = time.perf_counter()
            with tape:
                batch_loss = bce_loss(model.forward(ids[batch_ids]), labels[batch_ids])
                loss_value = batch_loss.item()
                if not math.isfinite(loss_value):
                    raise NonFiniteLossError(step, loss_value)
                tape.backward(batch_loss)
            t_update = time.perf_counter()
            optimizer.step(lr=lr)
            update_ms = (time.perf_counter() - t_update) * 1000.0
            optimizer.zero_grad()
            step_ms = (time.perf_counter() - t0) * 1000.0
            yield LossRecord(step, epoch_index + 1, lr, loss_value, step_ms, update_ms)


def run_training(
    model: CrossEncoder,
    vocab: Vocab,
    pairs: Sequence[TrainPair],
    config: TrainConfig,
    out_dir,
    run_name: str = "crossenc",
) -> TrainResult:
    """Train ``model`` in place through ``steps``, writing the run's files into the directory ``out_dir``.

    As epoch K ends, its checkpoint (with optimizer state) is written to
    ``{run_name}-{optimizer}-epoch{K}.ckpt`` and ``loss-{optimizer}.tsv``
    is rewritten with every row so far; ``stats-{optimizer}.txt`` follows
    the last epoch. Each file goes through a temp file and a rename, so a
    run that fails keeps its finished epochs' checkpoints and loss rows.
    """
    if not pairs:
        raise ValueError("run_training requires a non-empty pair list")
    out_dir = Path(out_dir)
    optimizer = OPTIMIZERS[config.optimizer](model.params, lr=config.base_lr, weight_decay=config.weight_decay)
    ids = np.array([tokenize_pair(vocab, p.query, p.passage, model.config.max_len) for p in pairs], dtype=np.intp)
    per_epoch = math.ceil(len(pairs) / config.batch_size)
    files = [f"{run_name}-{config.optimizer}-epoch{k}.ckpt" for k in range(1, config.epochs + 1)]
    files += [f"loss-{config.optimizer}.tsv", f"stats-{config.optimizer}.txt"]
    loss_log: list[LossRecord] = []
    for record in steps(model, optimizer, ids, np.array([p.label for p in pairs]), config):
        loss_log.append(record)
        if len(loss_log) % per_epoch == 0:  # the epoch's last step
            save_checkpoint(out_dir / files[record.epoch - 1], model, vocab, optimizer)
            write_loss_log(out_dir / files[-2], loss_log)
            epoch_mean = float(np.mean([r.loss for r in loss_log[-per_epoch:]]))
            logger.info("epoch %d/%d done, mean loss %.6f", record.epoch, config.epochs, epoch_mean)
    times = np.array([r.step_ms for r in loss_log])
    stats = ResourceStats(
        optimizer_state_bytes=optimizer.state_bytes(),
        mean_step_ms=float(times.mean()),
        peak_step_ms=float(times.max()),
        std_step_ms=float(times.std()),
        n_steps=len(loss_log),
        mean_update_ms=float(np.mean([r.update_ms for r in loss_log])),
    )
    write_replacing(out_dir / files[-1], "\n".join(resource_stats_lines(stats, config.optimizer)) + "\n")
    return TrainResult(files=files, loss_log=loss_log, stats=stats)


# ---------------------------------------------------------------------------
# resource accounting


def efficiency_gain(baseline_mean: float, candidate_mean: float) -> float:
    """Percent saving of candidate over baseline: (base - cand) / base * 100."""
    if baseline_mean <= 0:
        raise ValueError(f"baseline_mean must be positive, got {baseline_mean}")
    return (baseline_mean - candidate_mean) / baseline_mean * 100.0


# ---------------------------------------------------------------------------
# report formats


def format_loss_log(records: Iterable[LossRecord]) -> str:
    """Tab-separated ``step epoch lr loss`` rows, 10 significant digits."""
    lines = [f"{r.step}\t{r.epoch}\t{r.lr:.10g}\t{r.loss:.10g}" for r in records]
    return "\n".join(lines) + "\n" if lines else ""


def write_loss_log(path, records: Iterable[LossRecord]) -> None:
    """The loss log, written through ``<path>.tmp`` and a rename."""
    write_replacing(path, format_loss_log(records))


def resource_stats_lines(stats: ResourceStats, optimizer: str) -> list[str]:
    """key=value lines, a block mirroring the usage-table columns, then the update time."""
    return [
        f"optimizer={optimizer}",
        f"optimizer_state_bytes={stats.optimizer_state_bytes}",
        f"mean_step_ms={stats.mean_step_ms:.10g}",
        f"peak_step_ms={stats.peak_step_ms:.10g}",
        f"std_step_ms={stats.std_step_ms:.10g}",
        f"n_steps={stats.n_steps}",
        "[usage-table]",
        f"mean={stats.mean_step_ms:.10g}",
        f"peak={stats.peak_step_ms:.10g}",
        f"std={stats.std_step_ms:.10g}",
        f"data_points={stats.n_steps}",
        f"mean_update_ms={stats.mean_update_ms:.10g}",
    ]
