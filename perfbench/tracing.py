"""In-memory span tracer that wraps reranklab's public functions from outside.

Nothing under ``src/`` is edited. :meth:`Tracer.install` replaces each traced
function on its defining module or class *and* on every other reranklab module
that imported it by name (``cli.run_training``, ``train.tokenize_pair``,
``ir_eval.model_score`` ...), because those bindings bypass the module
attribute. :meth:`Tracer.uninstall` puts the originals back, so untraced
commands run the program exactly as shipped.

A span is (name, start, end, parent, run id, step). The run id is the index of
the CLI command the span belongs to; ``step`` is the enclosing training step
span, or -1. Spans live in flat ``array`` buffers so that holding a few hundred
thousand of them adds no objects for the garbage collector to scan, which
would otherwise distort the GC numbers this tracer reports.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import sys
import time
from array import array

import numpy as np

# The twelve forward ops the cross-encoder and its loss call.
TENSOR_OPS = (
    "matmul", "transpose", "add", "sub", "mul", "relu", "sigmoid", "clip",
    "log", "softmax", "layer_norm", "embedding_lookup",
)

# (module, attribute, span name) for module-level functions.
_FUNCTIONS = [("reranklab.tensor", op, f"tensor.op.{op}") for op in TENSOR_OPS] + [
    ("reranklab.model", "score", "model.score"),
    ("reranklab.model", "tokenize_pair", "model.tokenize_pair"),
    ("reranklab.model", "init_params", "model.init_params"),
    ("reranklab.train", "run_training", "train.run_training"),
    ("reranklab.train", "bce_loss", "train.loss"),
    ("reranklab.train", "_batch_mean_loss", "train.loss"),
    ("reranklab.train", "load_triplets", "train.load_triplets"),
    ("reranklab.train", "triplets_to_pairs", "train.triplets_to_pairs"),
    ("reranklab.train", "write_loss_log", "train.write_loss_log"),
    ("reranklab.train", "resource_stats_lines", "train.resource_stats_lines"),
    ("reranklab.checkpoint", "checkpoint_text", "checkpoint.save"),
    ("reranklab.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("reranklab.ir_eval", "read_corpus_tsv", "ir_eval.read_corpus"),
    ("reranklab.ir_eval", "read_run", "ir_eval.read_run"),
    ("reranklab.ir_eval", "read_qrels", "ir_eval.read_qrels"),
    ("reranklab.ir_eval", "parse_run", "ir_eval.parse_run"),
    ("reranklab.ir_eval", "parse_qrels", "ir_eval.parse_qrels"),
    ("reranklab.ir_eval", "format_run", "ir_eval.format_run"),
    ("reranklab.ir_eval", "rerank", "ir_eval.rerank"),
    ("reranklab.ir_eval", "evaluate", "ir_eval.evaluate"),
    ("reranklab.ir_eval", "report_table", "ir_eval.report"),
    ("reranklab.ir_eval", "report_tsv_lines", "ir_eval.report"),
    ("reranklab.synth", "generate", "synth.generate"),
    ("reranklab.synth", "write_synth_files", "synth.write_files"),
]

# (module, class, method, span name) for methods.
_METHODS = [
    ("reranklab.model", "CrossEncoder", "forward", "model.forward"),
    ("reranklab.optim", "Lion", "step", "optim.step"),
    ("reranklab.optim", "AdamW", "step", "optim.step"),
]

# A training step has no function of its own, so its span is opened when the
# loop asks the schedule for the step's learning rate and closed when the
# optimizer clears the gradients, the first and last calls of every step.
_STEP_OPEN = ("reranklab.optim", "lr_at")
_STEP_CLOSE = [("reranklab.optim", "Lion", "zero_grad"), ("reranklab.optim", "AdamW", "zero_grad")]
_CLASSMETHODS = [("reranklab.model", "Vocab", "build", "model.vocab_build")]

STEP = "train.step"


class Tracer:
    """Records nested spans and GC pauses while ``recording`` is set."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.step = array("i")
        # per-span integer payload: the tape's node count on backward spans
        self.value = array("q")
        self.gc_start = array("d")
        self.gc_end = array("d")
        self.gc_gen = array("i")
        self.gc_run = array("i")
        self.gc_step = array("i")
        self._stack: list[int] = []
        self._open_step = -1
        self._gc_t0 = 0.0
        self.run_id = -1
        self.recording = False
        self._patches: list[tuple[object, str, object]] = []  # (owner, attribute, original)
        self._step_id = self._intern(STEP)

    # -- span buffers ----------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.step.append(self._open_step)
        self.value.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        now = time.perf_counter()
        # An exception can leave inner spans (a step) open; end them here.
        while self._stack:
            top = self._stack.pop()
            self.end[top] = now
            if top == self._open_step:
                self._open_step = -1
            if top == idx:
                break

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a call it makes."""
        idx = self.open(self._intern(name))
        try:
            yield
        finally:
            self.close(idx)

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def _wrap_backward(self, fn):
        """Tape.backward's span also records the tape's node count."""
        name_id = self._intern("tensor.backward")

        @functools.wraps(fn)
        def traced(tape, *args, **kwargs):
            if not self.recording:
                return fn(tape, *args, **kwargs)
            idx = self.open(name_id)
            self.value[idx] = len(tape)
            try:
                return fn(tape, *args, **kwargs)
            finally:
                self.close(idx)

        return traced

    def _wrap_step_open(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.recording and self._stack:
                if self._open_step >= 0:
                    self.close(self._open_step)
                self._open_step = self.open(self._step_id)
            return fn(*args, **kwargs)

        return traced

    def _wrap_step_close(self, fn):
        name_id = self._intern("optim.zero_grad")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if self._open_step >= 0:
                    self.close(self._open_step)

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, old))
        setattr(owner, attr, new)

    def _patch_function(self, module_name: str, attr: str, new_fn) -> None:
        """Replace ``module.attr`` and every by-name import of it."""
        original = getattr(sys.modules[module_name], attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "reranklab" or mod_name.startswith("reranklab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, new_fn)

    def install(self) -> None:
        """Wrap every traced function; missing names are skipped."""
        if self._patches:
            return
        import reranklab.cli  # noqa: F401  (loads every module that binds names)
        import reranklab.synth  # noqa: F401

        for module_name, attr, span_name in _FUNCTIONS:
            fn = getattr(sys.modules[module_name], attr, None)
            if callable(fn):
                self._patch_function(module_name, attr, self._wrap(span_name, fn))
        module_name, attr = _STEP_OPEN
        fn = getattr(sys.modules[module_name], attr, None)
        if callable(fn):
            self._patch_function(module_name, attr, self._wrap_step_open(fn))
        for module_name, cls_name, attr, span_name in _METHODS:
            cls = getattr(sys.modules[module_name], cls_name, None)
            if cls is None or attr not in cls.__dict__:
                continue
            self._patch(cls, attr, self._wrap(span_name, cls.__dict__[attr]))
        tape = sys.modules["reranklab.tensor"].Tape
        if "backward" in tape.__dict__:
            self._patch(tape, "backward", self._wrap_backward(tape.__dict__["backward"]))
        for module_name, cls_name, attr in _STEP_CLOSE:
            cls = getattr(sys.modules[module_name], cls_name, None)
            if cls is not None and attr in cls.__dict__:
                self._patch(cls, attr, self._wrap_step_close(cls.__dict__[attr]))
        for module_name, cls_name, attr, span_name in _CLASSMETHODS:
            cls = getattr(sys.modules[module_name], cls_name, None)
            raw = cls.__dict__.get(attr) if cls is not None else None
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(span_name, raw.__func__)))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self.recording:
            return
        if phase == "start":
            self._gc_t0 = time.perf_counter()
            return
        self.gc_start.append(self._gc_t0)
        self.gc_end.append(time.perf_counter())
        self.gc_gen.append(int(info.get("generation", 0)))
        self.gc_run.append(self.run_id)
        self.gc_step.append(self._open_step)


class SpanFrame:
    """Column view of the recorded spans, with durations and self times."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name = np.frombuffer(tracer.name, dtype=np.int32).copy()
        self.start = np.frombuffer(tracer.start, dtype=np.float64).copy()
        self.end = np.frombuffer(tracer.end, dtype=np.float64).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).copy()
        self.run = np.frombuffer(tracer.run, dtype=np.int32).copy()
        self.step = np.frombuffer(tracer.step, dtype=np.int32).copy()
        self.value = np.frombuffer(tracer.value, dtype=np.int64).copy()
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        child_time = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur)
        )
        self.self_time = self.dur - child_time
        self.gc_dur = np.frombuffer(tracer.gc_end, dtype=np.float64) - np.frombuffer(
            tracer.gc_start, dtype=np.float64
        )
        self.gc_gen = np.frombuffer(tracer.gc_gen, dtype=np.int32).copy()
        self.gc_run = np.frombuffer(tracer.gc_run, dtype=np.int32).copy()
        self.gc_step = np.frombuffer(tracer.gc_step, dtype=np.int32).copy()
        self._ids = {n: i for i, n in enumerate(self.names)}

    def __len__(self) -> int:
        return len(self.dur)

    def mask(self, name: str) -> np.ndarray:
        if name not in self._ids:
            return np.zeros(len(self.dur), dtype=bool)
        return self.name == self._ids[name]

    def nesting_violations(self) -> int:
        """Spans that do not lie inside their parent's interval."""
        has_parent = self.parent >= 0
        p = self.parent[has_parent]
        bad = (self.start[has_parent] < self.start[p]) | (self.end[has_parent] > self.end[p])
        bad |= self.end[has_parent] < self.start[has_parent]
        return int(bad.sum())
