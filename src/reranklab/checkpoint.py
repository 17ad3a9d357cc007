"""Sectioned text checkpoint format for model, vocab, and optimizer state.

Layout (UTF-8, line oriented):

    reranklab checkpoint v1
    [config]
    <field>=<int>            one line per CrossEncoderConfig field
    [vocab]
    tok <token>              regular tokens in id order (ids 4..)
    [param <dims>] <name>    dims like 100x64; one row of the buffer per
    <hex> <hex> ...          line, values as float.hex() for bit-exact
    ...                      round trips
    [optimizer <kind>]       optional; hyperparameters as <key>=<hex>
    step=<int>               AdamW only
    [state <dims>] <key>     optimizer buffers, same encoding as params
    [end]

Save followed by load reproduces every buffer bit-exactly.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from reranklab.model import CrossEncoder, CrossEncoderConfig, Vocab
from reranklab.optim import OPTIMIZERS, Optimizer

__all__ = ["CheckpointError", "CheckpointBundle", "save_checkpoint", "load_checkpoint", "checkpoint_text"]

MAGIC = "reranklab checkpoint v1"

_CONFIG_FIELDS = ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_len", "seed")


class CheckpointError(ValueError):
    """Malformed or inconsistent checkpoint content."""


@dataclass
class CheckpointBundle:
    model: CrossEncoder
    vocab: Vocab
    optimizer: Optional[Optimizer] = None


def _dims(shape: tuple[int, ...]) -> str:
    return "x".join(str(n) for n in shape) if shape else "scalar"


def _parse_value(parse, text: str, field: str):
    """``parse(text)``, reporting a malformed value as a CheckpointError on ``field``."""
    try:
        return parse(text)
    except ValueError:
        raise CheckpointError(f"{field}: malformed value {text!r}") from None
    except OverflowError:
        raise CheckpointError(f"{field}: value {text!r} is out of float range") from None


def _parse_dims(text: str, name: str) -> tuple[int, ...]:
    if text == "scalar":
        return ()
    return tuple(_parse_value(int, part, f"dims of {name}") for part in text.split("x"))


def _write_array(out: io.StringIO, header: str, name: str, data: np.ndarray) -> None:
    out.write(f"[{header} {_dims(data.shape)}] {name}\n")
    rows = data.reshape(-1, data.shape[-1]) if data.ndim > 1 else data.reshape(1, -1)
    for row in rows:
        out.write(" ".join(v.hex() for v in row.tolist()))
        out.write("\n")


def _float_kv(key: str, value: float) -> str:
    return f"{key}={float(value).hex()}"


def checkpoint_text(model: CrossEncoder, vocab: Vocab, optimizer: Optimizer | None = None) -> str:
    """Serialize to the checkpoint text format."""
    if vocab.size != model.config.vocab_size:
        raise CheckpointError(
            f"vocab size {vocab.size} mismatches config vocab_size {model.config.vocab_size}"
        )
    out = io.StringIO()
    out.write(MAGIC + "\n")
    out.write("[config]\n")
    for field in _CONFIG_FIELDS:
        out.write(f"{field}={getattr(model.config, field)}\n")
    out.write("[vocab]\n")
    for tok in vocab.tokens:
        out.write(f"tok {tok}\n")
    for name, p in model.parameters():
        _write_array(out, "param", name, p.data)
    if optimizer is not None:
        state = optimizer.state_dict()
        out.write(f"[optimizer {state['kind']}]\n")
        for key in optimizer.HYPERS:
            out.write(_float_kv(key, state[key]) + "\n")
        if "step" in state:
            out.write(f"step={state['step']}\n")
        for key, buf in state["buffers"].items():
            _write_array(out, "state", key, buf)
    out.write("[end]\n")
    return out.getvalue()


def save_checkpoint(path, model: CrossEncoder, vocab: Vocab, optimizer=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(checkpoint_text(model, vocab, optimizer))


class _Reader:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.pos = 0

    def peek(self) -> str | None:
        return self.lines[self.pos] if self.pos < len(self.lines) else None

    def next(self) -> str:
        line = self.peek()
        if line is None:
            raise CheckpointError("unexpected end of checkpoint")
        self.pos += 1
        return line


def _read_array(reader: _Reader, dims: tuple[int, ...], name: str) -> np.ndarray:
    n_rows = math.prod(dims[:-1])  # Python ints: a huge header cannot wrap to a small count
    row_len = dims[-1] if dims else 1
    values = []
    for _ in range(n_rows):
        parts = reader.next().split()
        if len(parts) != row_len:
            raise CheckpointError(f"{name}: expected {row_len} values per row, got {len(parts)}")
        try:
            values.append(list(map(float.fromhex, parts)))
        except (ValueError, OverflowError):
            # parse again value by value, to name the bad one
            values.append([_parse_value(float.fromhex, p, name) for p in parts])
    return np.array(values, dtype=np.float64).reshape(dims)


def parse_checkpoint(text: str) -> CheckpointBundle:
    lines = text.splitlines()
    reader = _Reader(lines)
    if reader.next() != MAGIC:
        raise CheckpointError("not a reranklab checkpoint (bad magic line)")
    if reader.next() != "[config]":
        raise CheckpointError("missing [config] section")
    config_kv: dict[str, int] = {}
    while True:
        line = reader.peek()
        if line is None or line.startswith("["):
            break
        key, _, value = reader.next().partition("=")
        config_kv[key] = _parse_value(int, value, f"[config] {key}")
    missing = [f for f in _CONFIG_FIELDS if f not in config_kv]
    if missing:
        raise CheckpointError(f"config section missing fields: {missing}")
    try:
        config = CrossEncoderConfig(**{f: config_kv[f] for f in _CONFIG_FIELDS})
    except ValueError as exc:
        raise CheckpointError(f"[config] {exc}") from None

    if reader.next() != "[vocab]":
        raise CheckpointError("missing [vocab] section")
    tokens = []
    while True:
        line = reader.peek()
        if line is None or line.startswith("["):
            break
        line = reader.next()
        if not line.startswith("tok "):
            raise CheckpointError(f"malformed vocab line: {line!r}")
        tokens.append(line[4:])
    try:
        vocab = Vocab(tokens)
    except ValueError as exc:
        raise CheckpointError(f"[vocab] {exc}") from None
    if vocab.size != config.vocab_size:
        raise CheckpointError(
            f"vocab holds {vocab.size} ids but config says {config.vocab_size}"
        )

    model = CrossEncoder(config)
    params: dict[str, np.ndarray] = {}
    opt_kind = None
    opt_hypers: dict[str, float] = {}
    opt_buffers: dict[str, np.ndarray] = {}
    while True:
        line = reader.next()
        if line == "[end]":
            break
        if line.startswith("[param "):
            header, _, name = line.partition("] ")
            dims = _parse_dims(header[len("[param "):], name)
            params[name] = _read_array(reader, dims, name)
        elif line.startswith("[optimizer "):
            opt_kind = line[len("[optimizer "):-1]
            while True:
                nxt = reader.peek()
                if nxt is None or nxt.startswith("["):
                    break
                key, _, value = reader.next().partition("=")
                parse = int if key == "step" else float.fromhex
                opt_hypers[key] = _parse_value(parse, value, f"[optimizer {opt_kind}] {key}")
        elif line.startswith("[state "):
            header, _, name = line.partition("] ")
            dims = _parse_dims(header[len("[state "):], name)
            opt_buffers[name] = _read_array(reader, dims, name)
        else:
            raise CheckpointError(f"unexpected line in checkpoint: {line!r}")

    expected = set(model.params)
    if set(params) != expected:
        raise CheckpointError(
            f"parameter names mismatch config: missing {sorted(expected - set(params))}, "
            f"extra {sorted(set(params) - expected)}"
        )
    for name, p in model.parameters():
        if params[name].shape != p.data.shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {params[name].shape}, expected {p.data.shape}"
            )
        p.data[...] = params[name]

    optimizer = None
    if opt_kind is not None:
        cls = OPTIMIZERS.get(opt_kind)
        if cls is None:
            raise CheckpointError(f"unknown optimizer kind {opt_kind!r}")
        keys = cls.HYPERS + (("step",) if cls.COUNTS_STEPS else ())
        unknown = [key for key in opt_hypers if key not in keys]
        if unknown:
            raise CheckpointError(f"[optimizer {opt_kind}] {unknown[0]}: unknown key")
        missing = [key for key in keys if key not in opt_hypers]
        if missing:
            raise CheckpointError(f"[optimizer {opt_kind}] missing hyperparameters: {missing}")
        kwargs = {key: opt_hypers[key] for key in cls.HYPERS}
        betas = (kwargs.pop("beta1"), kwargs.pop("beta2"))
        try:
            optimizer = cls(model.params, betas=betas, **kwargs)
            optimizer.load_state(opt_buffers, step=opt_hypers.get("step", 0))
        except ValueError as exc:
            raise CheckpointError(f"[optimizer {opt_kind}] {exc}") from None

    return CheckpointBundle(model=model, vocab=vocab, optimizer=optimizer)


def load_checkpoint(path) -> CheckpointBundle:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_checkpoint(fh.read())
