"""Workloads, the closed-loop runner, output checks and the end-to-end metrics.

Every command goes through ``reranklab.cli.main`` in this process, exactly as a
user's ``reranklab train|rerank|eval`` would, so INI parsing, file I/O and
checkpoint serialization are inside the measured time. One client runs the
commands one after another (a closed loop); nothing runs concurrently.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import math
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import checks

OPTIMIZERS = ("lion", "adamw")
RUN_NAME = "bench"
# Set-up is repeated at least N_SETUPS times and until SETUP_SECONDS have
# passed, and setup_s is the median: a 0.2 s set-up needs more samples than
# one that trains. The repeats are spread over the run, up to
# SETUP_BATCH_SECONDS after each cycle, because the host's speed drifts over
# tens of seconds: back-to-back set-ups all land in one state, and the median
# over runs then jumps between a fast and a slow value (by 26-36% between two
# sets of ten runs, against 6-15% for the loop's throughput).
N_SETUPS = 3
SETUP_SECONDS = 2.0
SETUP_BATCH_SECONDS = 0.5
# Training uses the desk config's seed 12 for the corpus and for the model's
# init and shuffle ([run] seed), whatever the workload seed; the workload seed
# draws the rerank split and the first-stage run. The final loss swings with
# the init seed (desk: 0.31 to 0.54 over five seeds) and, at batch 4, with the
# corpus (0.43 to 0.53 over five seeds), so only a fixed training set keeps
# final_loss and checkpoint_bytes exact guards. Step time does not depend on
# which words the corpus holds.
TRAIN_SEED = 12


@dataclass(frozen=True)
class Corpus:
    """Arguments of one ``reranklab synthetic-data`` call."""

    triplets: int = 0
    queries: int = 0
    candidates: int = 50
    vocab_size: int = 100
    query_len: int = 3

    def argv(self, out: Path, seed: int) -> list[str]:
        return [
            "synthetic-data", "--out", str(out), "--seed", str(seed),
            "--triplets", str(self.triplets), "--eval-queries", str(self.queries),
            "--candidates", str(self.candidates), "--vocab-size", str(self.vocab_size),
            "--query-len", str(self.query_len),
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    train: Corpus  # training triplets
    split: Corpus  # queries, passages and candidates that get reranked
    first_stage: Corpus  # a separate first-stage run, evaluated next to the reranked one
    batch_size: int
    epochs: int
    base_lr: float = 2e-4
    # rerank-eval trains in set-up and keeps train/rerank/eval apart; the
    # training workloads train inside the loop.
    train_in_setup: bool = False


# The desk model of the paper: d_model 64, 1 layer, 2 heads, d_ff 128, max_len 16.
MODEL_INI = "[model]\nd_model = 64\nn_layers = 1\nn_heads = 2\nd_ff = 128\nmax_len = 16\n"
# query_len 6 over 8,000 words gives about 2,500 distinct tokens from 250
# triplets (about 200k parameters), so embedding rows and optimizer state are
# large next to a batch of 4.
WIDE = {"vocab_size": 8000, "query_len": 6}

WORKLOADS = {
    "train-desk": Workload(
        "train-desk", Corpus(triplets=1000), Corpus(queries=20), Corpus(queries=200, candidates=100),
        batch_size=64, epochs=1,
    ),
    "train-smallbatch": Workload(
        "train-smallbatch", Corpus(triplets=250, **WIDE), Corpus(queries=20, **WIDE),
        Corpus(queries=200, candidates=100), batch_size=4, epochs=2,
        # The desk rate scaled by batch size (4/64): at 2e-4, 350 Lion steps
        # drive the loss onto its 1e-12 clamp, where it no longer guards quality.
        base_lr=2e-4 * 4 / 64,
    ),
    "rerank-eval": Workload(
        # Trains on the first 500 desk triplets: one epoch already ranks at
        # NDCG@10 = 1.0, and the three set-ups stay near 6 s each.
        "rerank-eval", Corpus(triplets=500), Corpus(queries=100), Corpus(queries=2000, candidates=100),
        batch_size=64, epochs=1, train_in_setup=True,
    ),
}

# Reduced sizes for the smoke test: same shapes of work, a few seconds each.
SMOKE = {
    "train-desk": Workload(
        "train-desk", Corpus(triplets=200), Corpus(queries=4, candidates=20),
        Corpus(queries=20, candidates=20), batch_size=32, epochs=1,
    ),
    "train-smallbatch": Workload(
        "train-smallbatch", Corpus(triplets=40, vocab_size=400, query_len=6),
        Corpus(queries=4, candidates=20, vocab_size=400, query_len=6),
        Corpus(queries=20, candidates=20), batch_size=4, epochs=2,
    ),
    "rerank-eval": Workload(
        "rerank-eval", Corpus(triplets=200), Corpus(queries=8, candidates=20),
        Corpus(queries=100, candidates=30), batch_size=32, epochs=1, train_in_setup=True,
    ),
}


@dataclass
class Command:
    label: str  # train.lion, train.adamw, rerank, eval.reranked, eval.first_stage
    phase: str  # setup or loop
    cycle: int
    traced: bool
    work: int  # pairs trained or scored, or queries evaluated
    seconds: float = 0.0
    exit_code: int | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def kind(self) -> str:
        return self.label.split(".")[0]

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.problems)


@dataclass
class Site:
    """The files of one set-up: generated inputs, config, outputs."""

    root: Path

    @property
    def train(self) -> Path:
        return self.root / "train"

    @property
    def split(self) -> Path:
        return self.root / "split"

    @property
    def first_stage(self) -> Path:
        return self.root / "first-stage"

    @property
    def config(self) -> Path:
        return self.root / "bench.ini"

    @property
    def out(self) -> Path:
        return self.root / "out"

    def checkpoint(self, optimizer: str, epoch: int) -> Path:
        return self.out / f"{RUN_NAME}-{optimizer}-epoch{epoch}.ckpt"


class Runner:
    """Runs one workload: set-up, closed loop, checks, metrics."""

    def __init__(self, workload: Workload, seed: int, seconds: float, work_dir: Path, tracer=None):
        from reranklab import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.tracer = tracer
        self.commands: list[Command] = []
        self.setup_seconds: list[float] = []
        self.problems: list[str] = []  # failures not tied to one command
        self.site: Site | None = None  # the set-up the loop runs on
        self._digests: dict[str, str] = {}

    # -- commands --------------------------------------------------------

    def _run(self, cmd: Command, argv: list[str]) -> None:
        """Run one CLI command in-process and time it."""
        gc.collect()  # each command starts from a clean heap, as a fresh process would
        tracer = self.tracer
        self.commands.append(cmd)
        if tracer is not None:
            tracer.run_id = len(self.commands) - 1
            tracer.recording = cmd.traced
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                if tracer is not None and cmd.traced:
                    with tracer.span(f"cli.{cmd.kind}"):
                        cmd.exit_code = self.cli.main(argv)
                else:
                    cmd.exit_code = self.cli.main(argv)
        except (Exception, SystemExit):
            cmd.exit_code = -1
            cmd.problems.append(traceback.format_exc(limit=3))
        finally:
            cmd.seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.recording = False
        if cmd.exit_code not in (0, -1):
            cmd.problems.append(f"exit code {cmd.exit_code}: {argv}")

    def _synth(self, corpus: Corpus, out: Path, seed: int, traced: bool) -> None:
        """Generate inputs; part of set-up, so not an operation of the loop."""
        if self.tracer is not None:
            self.tracer.run_id = -1
            self.tracer.recording = traced
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(corpus.argv(out, seed))
        finally:
            if self.tracer is not None:
                self.tracer.recording = False
        if code != 0:
            raise RuntimeError(f"synthetic-data failed with exit code {code}")

    def _write_config(self, site: Site) -> None:
        w = self.workload
        site.config.write_text(
            f"[run]\nname = {RUN_NAME}\nseed = {TRAIN_SEED}\nout_dir = {site.out}\n\n"
            f"[data]\ntriplets = {site.train / 'triplets.tsv'}\n\n{MODEL_INI}\n"
            f"[train]\nbase_lr = {w.base_lr!r}\nbatch_size = {w.batch_size}\nepochs = {w.epochs}\n"
            "schedule = constant\n\n[lion]\n\n[adamw]\n",
            encoding="utf-8",
        )

    def _train(self, site: Site, optimizer: str, phase: str, cycle: int, traced: bool) -> None:
        pairs = 2 * self.workload.train.triplets * self.workload.epochs
        cmd = Command(f"train.{optimizer}", phase, cycle, traced, pairs)
        self._run(cmd, ["train", "--config", str(site.config), "--optimizer", optimizer])
        if cmd.exit_code == 0:
            cmd.problems.extend(self._check_training(site, optimizer))

    def _rerank(self, site: Site, cycle: int, traced: bool) -> None:
        w = self.workload
        cmd = Command("rerank", "loop", cycle, traced, w.split.queries * w.split.candidates)
        reranked = site.out / "reranked.run"
        self._run(cmd, [
            "rerank", "--checkpoint", str(site.checkpoint("lion", w.epochs)),
            "--queries", str(site.split / "queries.tsv"), "--passages", str(site.split / "passages.tsv"),
            "--candidates", str(site.split / "candidates.run"), "--out", str(reranked),
        ])
        if cmd.exit_code == 0:
            cmd.problems.extend(checks.check_reranked(site.split / "candidates.run", reranked))
            cmd.problems.extend(self._same_as_first("reranked run", reranked))

    def _eval(self, site: Site, label: str, run: Path, qrels: Path, queries: int, cycle: int, traced: bool) -> None:
        cmd = Command(label, "loop", cycle, traced, queries)
        out = site.out / label
        self._run(cmd, ["eval", "--run", str(run), "--qrels", str(qrels), "--out", str(out)])
        if cmd.exit_code == 0:
            cmd.problems.extend(checks.check_eval_sample(run, qrels, out / "metrics.tsv"))

    # -- phases ----------------------------------------------------------

    def setup(self, index: int, traced: bool) -> Site:
        """Generate the inputs (and, for rerank-eval, the model) for one site."""
        w = self.workload
        site = Site(self.work_dir / f"site{index}")
        t0 = time.perf_counter()
        self._synth(w.train, site.train, TRAIN_SEED, traced)
        self._synth(w.split, site.split, self.seed, traced)
        self._synth(w.first_stage, site.first_stage, self.seed + 1, traced)
        self._write_config(site)
        if w.train_in_setup:
            for optimizer in OPTIMIZERS:
                self._train(site, optimizer, "setup", index, traced)
        self.setup_seconds.append(time.perf_counter() - t0)
        return site

    def cycle(self, site: Site, index: int, traced: bool) -> None:
        """One pass of the user's pipeline: [train,] rerank, evaluate.

        The training workloads run it once per optimizer, so rerank and eval
        get as many samples as train; rerank always uses the Lion checkpoint.
        """
        if self.workload.train_in_setup:
            self._serve(site, index, traced)
            return
        for optimizer in OPTIMIZERS:
            self._train(site, optimizer, "loop", index, traced)
            self._serve(site, index, traced)

    def _serve(self, site: Site, index: int, traced: bool) -> None:
        w = self.workload
        self._rerank(site, index, traced)
        self._eval(site, "eval.reranked", site.out / "reranked.run", site.split / "qrels.txt",
                   w.split.queries, index, traced)
        self._eval(site, "eval.first_stage", site.first_stage / "candidates.run",
                   site.first_stage / "qrels.txt", w.first_stage.queries, index, traced)

    def run(self, traced_cycles=lambda i: False, min_cycles: int = 1) -> None:
        """Set up, then cycle until ``seconds`` of commands ran.

        A new cycle starts only while at least half a cycle of the budget is
        left, so a run measures close to ``seconds`` whatever the cycle length.
        The loop runs on the first set-up; the repeats come between cycles.
        """
        traced = traced_cycles(0)
        self.site = site = self.setup(0, traced)
        spent, index, last = 0.0, 0, 0.0
        while index < min_cycles or self.seconds - spent > last / 2:
            before = len(self.commands)
            self.cycle(site, index, traced_cycles(index))
            last = sum(c.seconds for c in self.commands[before:])
            spent += last
            index += 1
            self._repeat_setup(traced, SETUP_BATCH_SECONDS)
        self._repeat_setup(traced, float("inf"))
        self._check_quality(site)

    def _repeat_setup(self, traced: bool, budget: float) -> None:
        """Set up again, into a scratch site, until enough or ``budget`` s passed."""
        t0 = time.perf_counter()
        while (len(self.setup_seconds) < N_SETUPS or sum(self.setup_seconds) < SETUP_SECONDS) and (
            time.perf_counter() - t0 < budget
        ):
            extra = self.setup(len(self.setup_seconds), traced)
            shutil.rmtree(extra.root, ignore_errors=True)

    # -- checks ----------------------------------------------------------

    def _same_as_first(self, what: str, path: Path) -> list[str]:
        """Every repeat of a command must write byte-identical output."""
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        first = self._digests.setdefault(path.name, digest)
        return [] if digest == first else [f"{what} {path.name} differs from the first run of this seed"]

    def _check_training(self, site: Site, optimizer: str) -> list[str]:
        from reranklab.checkpoint import checkpoint_text, load_checkpoint

        problems = self._same_as_first("loss log", site.out / f"loss-{optimizer}.tsv")
        loss = checks.final_epoch_loss(site.out / f"loss-{optimizer}.tsv")
        if not math.isfinite(loss):
            problems.append(f"final {optimizer} loss is not finite: {loss}")
        for epoch in range(1, self.workload.epochs + 1):
            path = site.checkpoint(optimizer, epoch)
            seen = path.name in self._digests
            problems.extend(self._same_as_first("checkpoint", path))
            if not seen:
                # Reload once per distinct checkpoint; later repeats are
                # byte-identical to this one.
                text = path.read_text(encoding="utf-8")
                bundle = load_checkpoint(path)
                if checkpoint_text(bundle.model, bundle.vocab, bundle.optimizer) != text:
                    problems.append(f"{path.name} does not reload bit-identically")
        return problems

    def _check_quality(self, site: Site) -> None:
        reranked = self.ndcg10()
        first = checks.mean_ndcg(site.split / "candidates.run", site.split / "qrels.txt")
        if not reranked > 0.9:
            self.problems.append(f"rerank_ndcg10 {reranked} is not above the 0.9 bound")
        if not reranked > first:
            self.problems.append(f"rerank_ndcg10 {reranked} is not above first-stage NDCG {first}")

    def ndcg10(self) -> float:
        values = checks.read_metrics_tsv(self.site.out / "eval.reranked" / "metrics.tsv")
        return values[("ndcg@10", "all")]

    # -- results ---------------------------------------------------------

    def state_bytes(self, optimizer: str) -> int:
        """Optimizer state bytes as ``train`` reports them in its stats file."""
        stats = (self.site.out / f"stats-{optimizer}.txt").read_text(encoding="utf-8")
        return int(dict(line.split("=", 1) for line in stats.splitlines() if "=" in line)["optimizer_state_bytes"])

    def failed(self) -> int:
        return sum(c.failed for c in self.commands) + len(self.problems)

    def of(self, *labels: str) -> list[Command]:
        return [c for c in self.commands if c.label in labels]

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        """The end-to-end metrics: name -> (value, unit)."""
        site = self.site
        m: dict[str, tuple[float, str]] = {"setup_s": (statistics.median(self.setup_seconds), "s")}
        for opt in OPTIMIZERS:
            m[f"train_pairs_per_s.{opt}"] = (rate(self.of(f"train.{opt}")), "pairs/s")
        for opt in OPTIMIZERS:
            m[f"final_loss.{opt}"] = (checks.final_epoch_loss(site.out / f"loss-{opt}.tsv"), "bce")
        for opt in OPTIMIZERS:
            size = site.checkpoint(opt, self.workload.epochs).stat().st_size
            m[f"checkpoint_bytes.{opt}"] = (float(size), "bytes")
        m["rerank_pairs_per_s"] = (rate(self.of("rerank")), "pairs/s")
        m["rerank_ndcg10"] = (self.ndcg10(), "ndcg")
        m["eval_queries_per_s"] = (rate(self.of("eval.reranked", "eval.first_stage")), "queries/s")
        m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        return m


def rate(commands: list[Command]) -> float:
    """Work per second over all of a run's commands: total work / total time.

    On a shared 2-vCPU virtual machine the same command was seen to swing
    by up to 1.9x within seconds as the host's load shifted; the sum over
    the whole window averages over those swings, where a median of three or
    four commands picks one of them.
    """
    return sum(c.work for c in commands) / sum(c.seconds for c in commands)
