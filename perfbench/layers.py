"""Per-layer metrics derived from the traced spans of one run.

Each metric is tied in README.md to the end-to-end metric it should move.
"Per step" means per training step (both optimizers); "per command" means per
CLI command of that kind. Self time is a span's duration minus its children.
"""

from __future__ import annotations

import math

import numpy as np

from tracing import STEP, TENSOR_OPS, SpanFrame
from workloads import OPTIMIZERS, Runner

MS, US = 1e3, 1e6


def _mean(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(values.mean()) if values.size else 0.0


def _median(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.median(values)) if values.size else 0.0


def tail(values) -> tuple[float, float, int]:
    """(percentile, value, n): the highest whole percentile with >= 10 samples beyond it."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    n = values.size
    if n < 11:
        return 0.0, float(values[-1]) if n else 0.0, n
    pct = math.floor(100.0 * (1.0 - 10.0 / n))
    # nearest rank, so exactly n - rank samples lie beyond the reported one
    rank = math.ceil(pct / 100.0 * n)
    return float(pct), float(values[rank - 1]), n


def layer_metrics(runner: Runner, frame: SpanFrame) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """name -> (value, unit), plus lines of notes for the human reader."""
    f = frame
    labels = np.array([c.label for c in runner.commands] + [""])
    # run id -1 (set-up's synthetic-data) maps to the trailing "" label
    span_label = labels[f.run]
    traced = [i for i, c in enumerate(runner.commands) if c.traced]

    def in_cmds(label_prefix: str) -> np.ndarray:
        return np.char.startswith(span_label, label_prefix)

    def cmds(label_prefix: str) -> list[int]:
        return [i for i in traced if runner.commands[i].label.startswith(label_prefix)]

    m: dict[str, tuple[float, str]] = {}
    notes: list[str] = []
    is_step = f.mask(STEP)
    in_step = f.step >= 0
    step_ids = np.flatnonzero(is_step)
    n_steps = max(len(step_ids), 1)

    def per_step(name: str) -> float:
        return float(f.dur[f.mask(name) & in_step].sum()) / n_steps

    def calls_per_step(mask: np.ndarray) -> np.ndarray:
        """Calls inside each step; the median is the full-batch count."""
        return np.bincount(f.step[mask & in_step], minlength=len(f))[step_ids]

    # tensor
    backward = f.mask("tensor.backward") & in_step
    m["tensor.backward_ms_per_step"] = (per_step("tensor.backward") * MS, "ms")
    m["tensor.tape_nodes_per_step"] = (_median(f.value[backward]), "count")
    any_op = np.zeros(len(f), dtype=bool)
    for op in TENSOR_OPS:
        mask = f.mask(f"tensor.op.{op}")
        any_op |= mask
        m[f"tensor.op_ms.{op}"] = (per_step(f"tensor.op.{op}") * MS, "ms")
        m[f"tensor.op_calls.{op}"] = (_median(calls_per_step(mask)), "count")
    scored = sum(runner.commands[i].work for i in cmds("rerank"))
    m["tensor.op_us_per_scored_pair"] = (
        float(f.dur[any_op & in_cmds("rerank")].sum()) / max(scored, 1) * US, "us")

    # gc, observed through gc.callbacks; first command apart from the rest
    def gc_ms(runs: list[int], steps_only: bool) -> float:
        if not runs or f.gc_dur.size == 0:
            return 0.0
        mask = np.isin(f.gc_run, runs)
        if steps_only:
            mask &= f.gc_step >= 0
        return float(f.gc_dur[mask].sum()) * MS

    def steps_in(runs: list[int]) -> int:
        return max(int(np.isin(f.run[step_ids], runs).sum()), 1)

    trains = cmds("train")
    m["gc.pause_ms_per_step"] = (gc_ms(trains[1:], True) / steps_in(trains[1:]), "ms")
    m["gc.pause_ms_per_step.first"] = (gc_ms(trains[:1], True) / steps_in(trains[:1]), "ms")
    for kind in ("rerank", "eval"):
        runs = cmds(kind)
        m[f"gc.pause_ms_per_cmd.{kind}"] = (gc_ms(runs[1:], False) / max(len(runs) - 1, 1), "ms")
        m[f"gc.pause_ms_per_cmd.{kind}.first"] = (gc_ms(runs[:1], False), "ms")
    gen2 = int(((f.gc_gen == 2) & np.isin(f.gc_run, trains)).sum())
    m["gc.gen2_collections"] = (gen2 / max(len(trains), 1), "count")

    # model
    m["model.forward_ms_per_step"] = (per_step("model.forward") * MS, "ms")
    m["model.forward_calls_per_step"] = (_median(calls_per_step(f.mask("model.forward"))), "count")
    m["model.score_us_per_pair"] = (_mean(f.dur[f.mask("model.score")]) * US, "us")
    m["model.tokenize_us_per_pair"] = (
        _mean(f.dur[f.mask("model.tokenize_pair") & in_cmds("rerank")]) * US, "us")

    # train
    step_label = span_label[step_ids]
    for opt in OPTIMIZERS:
        steps = f.dur[step_ids[step_label == f"train.{opt}"]] * MS
        pct, value, n = tail(steps)
        m[f"train.step_ms_p50.{opt}"] = (_median(steps), "ms")
        m[f"train.step_ms_tail.{opt}"] = (value, "ms")
        notes.append(f"train.step_ms_tail.{opt} is p{pct:g} of n={n} steps")
    m["train.loss_ms_per_step"] = (per_step("train.loss") * MS, "ms")
    m["train.self_ms_per_step"] = (_mean(f.self_time[step_ids]) * MS, "ms")

    # optim
    for opt in OPTIMIZERS:
        opt_steps = step_ids[step_label == f"train.{opt}"]
        mask = f.mask("optim.step") & in_step & (span_label == f"train.{opt}")
        m[f"optim.step_ms.{opt}"] = (float(f.dur[mask].sum()) / max(len(opt_steps), 1) * MS, "ms")
    for opt in OPTIMIZERS:
        m[f"optim.state_bytes.{opt}"] = (float(runner.state_bytes(opt)), "bytes")

    # checkpoint
    for opt in OPTIMIZERS:
        m[f"checkpoint.save_ms.{opt}"] = (
            _mean(f.dur[f.mask("checkpoint.save") & (span_label == f"train.{opt}")]) * MS, "ms")
    m["checkpoint.load_ms"] = (_mean(f.dur[f.mask("checkpoint.load") & in_cmds("rerank")]) * MS, "ms")

    # ir_eval, per command of the kind that calls it
    n_rerank, n_eval = max(len(cmds("rerank")), 1), max(len(cmds("eval")), 1)
    for name, span, kind, n in (
        ("read_corpus_ms", "ir_eval.read_corpus", "rerank", n_rerank),
        ("format_run_ms", "ir_eval.format_run", "rerank", n_rerank),
        ("parse_run_ms", "ir_eval.parse_run", "eval", n_eval),
        ("parse_qrels_ms", "ir_eval.parse_qrels", "eval", n_eval),
        ("evaluate_ms", "ir_eval.evaluate", "eval", n_eval),
    ):
        m[f"ir_eval.{name}"] = (float(f.dur[f.mask(span) & in_cmds(kind)].sum()) / n * MS, "ms")
    m["ir_eval.rerank_self_ms"] = (_mean(f.self_time[f.mask("ir_eval.rerank")]) * MS, "ms")

    # synth and cli
    m["synth.generate_ms"] = (_mean(f.dur[f.mask("synth.generate")]) * MS, "ms")
    for kind in ("train", "rerank", "eval"):
        m[f"cli.self_ms.{kind}"] = (_mean(f.self_time[f.mask(f"cli.{kind}")]) * MS, "ms")

    # tracing's own cost: traced against untraced repeats of the same commands
    traced_s = untraced_s = 0.0
    for label in {c.label for c in runner.commands if c.phase == "loop"}:
        on = [c.seconds for c in runner.commands if c.label == label and c.phase == "loop" and c.traced]
        off = [c.seconds for c in runner.commands if c.label == label and c.phase == "loop" and not c.traced]
        if on and off:
            traced_s += _median(on)
            untraced_s += _median(off)
    overhead = (traced_s / untraced_s - 1.0) * 100.0 if untraced_s else 0.0
    m["trace.overhead_pct"] = (overhead, "%")
    notes.append(
        f"tracing overhead {overhead:+.1f}% (median traced vs untraced command time, "
        f"{len(traced)} traced commands, {len(f)} spans)"
    )
    return m, notes
