"""Sectioned text checkpoint format for model, vocab, and optimizer state.

Layout (UTF-8, line oriented):

    reranklab checkpoint v2
    [config]
    <field>=<int>            one line per CrossEncoderConfig field
    [vocab]
    tok <token>              regular tokens in id order (ids 4..)
    [param <dims>] <name>    dims like 100x64; one row of the buffer per
    <base64>                 line, as base64 of its little-endian float64
    ...                      bytes, for bit-exact round trips
    [optimizer <kind>]       optional; hyperparameters as <key>=<float.hex>
    step=<int>               AdamW only
    [state <dims>] <key>     optimizer buffers, same encoding as params
    [end]

Arrays go under the model's parameter names and the optimizer's buffer keys,
in their order, so each layer's attention weights are the fused ``w_qkv`` and
``w_out``. Save followed by load reproduces every buffer bit-exactly, and
save, load, save writes the same bytes. Loading rejects a non-finite value
(inf, nan) in any array or hyperparameter, and a name given twice; a bad row
is named by its array and its index from 0.

v1 files still load. They have the same sections, but a row is its values as
space-separated ``float.hex()`` text, and arrays go in the order and under
the names of ``model.checkpoint_views``: each layer's attention weights as
per-head blocks. Only the row decoder and the array names depend on the
version.

``save_checkpoint`` streams the sections into ``<path>.tmp``, then renames
it to ``path``; ``load_checkpoint`` reads the file one section at a time.
"""

from __future__ import annotations

import base64
import binascii
import io
import math
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Optional, TextIO

import numpy as np

from reranklab.ir_eval import open_replacing, open_utf8
from reranklab.model import CrossEncoder, CrossEncoderConfig, Vocab, checkpoint_views
from reranklab.optim import OPTIMIZERS, Optimizer

__all__ = ["CheckpointError", "CheckpointBundle", "save_checkpoint", "load_checkpoint", "checkpoint_text"]

MAGIC = "reranklab checkpoint v2"

_CONFIG_FIELDS = tuple(f.name for f in fields(CrossEncoderConfig))


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
    dims = tuple(_parse_value(int, part, f"dims of {name}") for part in text.split("x"))
    if min(dims) < 0:
        raise CheckpointError(f"dims of {name}: {text} has a negative dim")
    return dims


def _write_array(out: TextIO, header: str, name: str, data: np.ndarray) -> None:
    out.write(f"[{header} {_dims(data.shape)}] {name}\n")
    row_len = data.shape[-1] if data.ndim else 1
    rows = np.ascontiguousarray(data, dtype="<f8").reshape(math.prod(data.shape[:-1]), row_len)
    out.write(b"".join(map(binascii.b2a_base64, rows)).decode("ascii"))


def _write(out: TextIO, model: CrossEncoder, vocab: Vocab, optimizer: Optimizer | None) -> None:
    """Write the checkpoint to the text stream ``out``, one section at a time."""
    if vocab.size != model.config.vocab_size:
        raise CheckpointError(
            f"vocab size {vocab.size} mismatches config vocab_size {model.config.vocab_size}"
        )
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
            out.write(f"{key}={float(state[key]).hex()}\n")
        if "step" in state:
            out.write(f"step={state['step']}\n")
        for key, buf in state["buffers"].items():
            _write_array(out, "state", key, buf)
    out.write("[end]\n")


def checkpoint_text(model: CrossEncoder, vocab: Vocab, optimizer: Optimizer | None = None) -> str:
    """The text ``save_checkpoint`` writes, as one string."""
    out = io.StringIO()
    _write(out, model, vocab, optimizer)
    return out.getvalue()


def save_checkpoint(path, model: CrossEncoder, vocab: Vocab, optimizer: Optimizer | None = None) -> None:
    """Stream the checkpoint into ``<path>.tmp``, then rename it to ``path``, so ``path`` is never partial."""
    with open_replacing(path) as fh:
        _write(fh, model, vocab, optimizer)


def _sections(lines: Iterable[str]) -> Iterator[tuple[str, list[str]]]:
    """``(header, body)`` pairs: each ``[`` line and the lines up to the next one.

    The magic line heads the first section. ``lines`` come from a text
    stream with universal newlines, so each ends in ``\\n`` alone.
    """
    header, body = None, []
    for line in lines:
        line = line.removesuffix("\n")
        if header is None or line.startswith("["):
            if header is not None:
                yield header, body
            header, body = line, []
        else:
            body.append(line)
    if header is not None:
        yield header, body


def _hex_row(line: str, row_len: int, label: str) -> list[float]:
    """A v1 row: ``row_len`` space-separated ``float.hex()`` values."""
    parts = line.split()
    if len(parts) != row_len:
        raise CheckpointError(f"{label}: expected {row_len} values, got {len(parts)}")
    try:
        return list(map(float.fromhex, parts))
    except (ValueError, OverflowError):
        # parse again value by value, to name the bad one
        return [_parse_value(float.fromhex, p, label) for p in parts]


def _base64_row(line: str, row_len: int, label: str) -> np.ndarray:
    """A v2 row: base64 of ``row_len`` little-endian float64 values."""
    try:
        # validate: a2b_base64 alone skips characters outside the alphabet
        raw = base64.b64decode(line, validate=True)
    except ValueError:
        raise CheckpointError(f"{label}: malformed base64") from None
    if len(raw) != 8 * row_len:
        raise CheckpointError(f"{label}: {len(raw)} bytes, expected {8 * row_len}")
    return np.frombuffer(raw, "<f8")


# Magic line -> (row decoder, the names arrays are stored under).
_FORMATS = {
    "reranklab checkpoint v1": (_hex_row, checkpoint_views),
    MAGIC: (_base64_row, lambda arrays, n_heads: arrays),
}


def _read_array(rows: list[str], dims: tuple[int, ...], name: str, decode_row, rest: Iterator) -> np.ndarray:
    """The array of one section's ``rows``; ``rest``, the sections after it, names what cut it short."""
    n_rows = math.prod(dims[:-1])  # Python ints: a huge header cannot wrap to a small count
    row_len = dims[-1] if dims else 1
    decoded = [decode_row(line, row_len, f"{name} row {row}") for row, line in enumerate(rows[:n_rows])]
    if len(rows) > n_rows:
        raise CheckpointError(f"{name} row {n_rows}: more rows than its dims {_dims(dims)}")
    if len(rows) < n_rows:
        found = next(rest, ("end of checkpoint",))[0]
        raise CheckpointError(f"{name} row {len(rows)}: unexpected {found}")
    data = np.array(decoded, dtype=np.float64).reshape(dims)
    if not np.isfinite(data).all():
        at = int(np.flatnonzero(~np.isfinite(data))[0])
        row, col = divmod(at, row_len)
        raise CheckpointError(f"{name} row {row}, column {col}: value '{data.flat[at]}' is not finite")
    return data


def _parse(lines: Iterable[str]) -> CheckpointBundle:
    sections = _sections(lines)
    magic, after_magic = next(sections, ("", []))
    version = _FORMATS.get(magic)
    if version is None:
        raise CheckpointError("not a reranklab checkpoint (bad magic line)")
    decode_row, views = version
    header, body = next(sections, ("", []))
    if after_magic or header != "[config]":
        raise CheckpointError("missing [config] section")
    config_kv: dict[str, int] = {}
    for line in body:
        key, _, value = line.partition("=")
        field = f"[config] {key}"
        if key not in _CONFIG_FIELDS:
            raise CheckpointError(f"{field}: unknown key")
        if key in config_kv:
            raise CheckpointError(f"{field}: repeated key")
        config_kv[key] = _parse_value(int, value, field)
    missing = [f for f in _CONFIG_FIELDS if f not in config_kv]
    if missing:
        raise CheckpointError(f"config section missing fields: {missing}")
    try:
        config = CrossEncoderConfig(**{f: config_kv[f] for f in _CONFIG_FIELDS})
    except ValueError as exc:
        raise CheckpointError(f"[config] {exc}") from None

    header, body = next(sections, ("", []))
    if header != "[vocab]":
        raise CheckpointError("missing [vocab] section")
    tokens = []
    for line in body:
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
    arrays: dict[str, np.ndarray] = {}  # by "[param] <name>" or "[state] <key>"
    opt_kind = None
    opt_hypers: dict[str, float] = {}
    for header, body in sections:
        if header == "[end]":
            break
        if header.startswith(("[param ", "[state ")):
            head, _, name = header.partition("] ")
            kind, _, dims = head[1:].partition(" ")
            label = f"[{kind}] {name}"
            if label in arrays:
                raise CheckpointError(f"{name}: repeated [{kind}] block")
            arrays[label] = _read_array(body, _parse_dims(dims, name), name, decode_row, sections)
        elif header.startswith("[optimizer "):
            if opt_kind is not None:
                raise CheckpointError(f"{header}: a second optimizer section")
            opt_kind = header[len("[optimizer "):-1]
            for key_line in body:
                key, _, value = key_line.partition("=")
                field = f"[optimizer {opt_kind}] {key}"
                if key in opt_hypers:
                    raise CheckpointError(f"{field}: repeated key")
                parse = int if key == "step" else float.fromhex
                opt_hypers[key] = _parse_value(parse, value, field)
                if not math.isfinite(opt_hypers[key]):
                    raise CheckpointError(f"{field}: value {value!r} is not finite")
        else:
            raise CheckpointError(f"unexpected line in checkpoint: {header!r}")
    else:
        raise CheckpointError("unexpected end of checkpoint")

    optimizer = None
    params = views({name: p.data for name, p in model.parameters()}, config.n_heads)
    targets = {f"[param] {name}": data for name, data in params.items()}
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
        except ValueError as exc:
            raise CheckpointError(f"[optimizer {opt_kind}] {exc}") from None
        if cls.COUNTS_STEPS:
            if opt_hypers["step"] < 0:  # the next step would divide by a bias correction <= 0
                raise CheckpointError(f"[optimizer {opt_kind}] step: must be >= 0, got {opt_hypers['step']}")
            optimizer.step_count = opt_hypers["step"]
        buffers = views(optimizer.state_dict()["buffers"], config.n_heads)
        targets.update({f"[state] {key}": buf for key, buf in buffers.items()})

    # Parameters and optimizer buffers alike: check every name and shape, then copy.
    if arrays.keys() != targets.keys():
        raise CheckpointError(
            f"arrays mismatch the config: missing {sorted(targets.keys() - arrays.keys())}, "
            f"extra {sorted(arrays.keys() - targets.keys())}"
        )
    for key, target in targets.items():
        if arrays[key].shape != target.shape:
            raise CheckpointError(f"{key} has shape {arrays[key].shape}, expected {target.shape}")
    for key, target in targets.items():
        target[...] = arrays[key]
    return CheckpointBundle(model=model, vocab=vocab, optimizer=optimizer)


def parse_checkpoint(text: str) -> CheckpointBundle:
    """The checkpoint in ``text``, split into lines as ``load_checkpoint`` splits a file."""
    return _parse(io.StringIO(text, newline=None))


def load_checkpoint(path) -> CheckpointBundle:
    """Read the file at ``path`` one section at a time; its lines split as in ``parse_checkpoint``."""
    with open_utf8(path, CheckpointError) as fh:
        return _parse(fh)
