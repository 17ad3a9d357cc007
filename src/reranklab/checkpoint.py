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

Arrays go in the order and under the names of ``model.checkpoint_views``:
each layer's fused attention weights as per-head blocks. Save followed by load
reproduces every buffer bit-exactly. Loading rejects a non-finite value (inf,
nan) in any array or hyperparameter, and a name given twice.
"""

from __future__ import annotations

import binascii
import io
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from reranklab.ir_eval import open_utf8
from reranklab.model import CrossEncoder, CrossEncoderConfig, Vocab, checkpoint_views
from reranklab.optim import OPTIMIZERS, Optimizer

__all__ = ["CheckpointError", "CheckpointBundle", "save_checkpoint", "load_checkpoint", "checkpoint_text"]

MAGIC = "reranklab checkpoint v1"

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
    return tuple(_parse_value(int, part, f"dims of {name}") for part in text.split("x"))


# The writer prints exactly what float.hex() prints, without a Python object
# per value. Each value gets a fixed 25-byte slot of a byte matrix: a sign byte,
# "0x1.", 13 mantissa digits, the exponent suffix and a separator, with NUL for
# every unused byte; one bytes.translate then deletes the NULs. Values go
# through in blocks of _BLOCK, so the matrix and its temporaries stay under
# about 0.5 MB whatever the array's size: 16,384-value blocks (2 MB) wrote no
# faster and left train-desk's peak RSS higher. All bit arithmetic is on
# np.uint64 operands, which promote the same way under numpy 1.x and 2.x.
_BLOCK = 4096
_SLOT = np.dtype({
    "names": ["head", "body", "tail", "sep"],
    "formats": ["<u8", "<u8", "<u8", "u1"],
    "offsets": [0, 8, 16, 24],
    "itemsize": 25,
})


def _word(text: bytes, shift: int = 0) -> np.uint64:
    """Eight bytes of a slot as one little-endian word, ``text`` starting at byte ``shift``."""
    return np.uint64(int.from_bytes(text, "little") << (8 * shift))


_MANTISSA = np.uint64((1 << 52) - 1)
_SIGN_BYTE = np.uint64(0xFF)
_MINUS = _word(b"-")
_HEAD = _word(b"0x1.", 1)
_SUBNORMAL = _word(b"1", 3) ^ _word(b"0", 3)  # flips the leading "1" to "0"
_ZERO_HEAD, _ZERO_BODY = _word(b"0x0.0p+", 1), _word(b"0")
_INF_HEAD = _word(b"inf", 1)
_NAN_HEAD = _word(b"nan")
# The exponent suffix ("p+0" ... "p-1022") at bytes 2-7 of the tail word, by
# biased exponent; 0 is the subnormals' p-1022.
_SUFFIX = np.array(
    [int(_word(f"p{max(e, 1) - 1023:+d}".encode(), 2)) for e in range(2048)], dtype=np.uint64
)


def _write_array(out: io.StringIO, header: str, name: str, data: np.ndarray) -> None:
    out.write(f"[{header} {_dims(data.shape)}] {name}\n")
    row_len = data.shape[-1] if data.ndim > 1 else data.size
    bits = np.ascontiguousarray(data, dtype=np.float64).reshape(-1).view(np.uint64)
    for start in range(0, bits.size, _BLOCK):
        b = bits[start : start + _BLOCK]
        exp = ((b >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.intp)
        mant = b & _MANTISSA
        # 16 hex digits per value, the first 3 always "000": digits 0-4 in the
        # high half's bytes 3-7, digits 5-12 in the low half.
        digits = np.frombuffer(binascii.hexlify(mant.astype(">u8").tobytes()), "<u8").reshape(-1, 2)
        hi, lo = digits[:, 0], digits[:, 1]
        head = ((b >> np.uint64(63)) * _MINUS) | _HEAD | ((hi >> np.uint64(24)) << np.uint64(40))
        body = (hi >> np.uint64(48)) | (lo << np.uint64(16))
        tail = (lo >> np.uint64(48)) | _SUFFIX.take(exp)
        low = exp == 0
        if low.any():
            head[low] ^= _SUBNORMAL
            zero = low & (mant == 0)
            head[zero] = (head[zero] & _SIGN_BYTE) | _ZERO_HEAD
            body[zero] = _ZERO_BODY
            tail[zero] = 0
        high = exp == 0x7FF
        if high.any():
            head[high] = (head[high] & _SIGN_BYTE) | _INF_HEAD
            body[high] = tail[high] = 0
            head[high & (mant != 0)] = _NAN_HEAD  # float.hex prints every NaN as "nan"
        slots = np.empty(b.size, _SLOT)
        slots["head"], slots["body"], slots["tail"] = head, body, tail
        sep = slots["sep"]
        sep[...] = ord(" ")
        sep[row_len - 1 - start % row_len :: row_len] = ord("\n")
        out.write(slots.tobytes().translate(None, b"\0").decode("ascii"))


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
    n_heads = model.config.n_heads
    for name, data in checkpoint_views({n: p.data for n, p in model.parameters()}, n_heads).items():
        _write_array(out, "param", name, data)
    if optimizer is not None:
        state = optimizer.state_dict()
        out.write(f"[optimizer {state['kind']}]\n")
        for key in optimizer.HYPERS:
            out.write(_float_kv(key, state[key]) + "\n")
        if "step" in state:
            out.write(f"step={state['step']}\n")
        for key, buf in checkpoint_views(state["buffers"], n_heads).items():
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

    def next(self) -> str:
        if self.pos == len(self.lines):
            raise CheckpointError("unexpected end of checkpoint")
        self.pos += 1
        return self.lines[self.pos - 1]

    def section(self):
        """Yield the lines up to the next ``[`` header or the end."""
        while self.pos < len(self.lines) and not self.lines[self.pos].startswith("["):
            yield self.next()


def _read_array(reader: _Reader, dims: tuple[int, ...], name: str) -> np.ndarray:
    n_rows = math.prod(dims[:-1])  # Python ints: a huge header cannot wrap to a small count
    row_len = dims[-1] if dims else 1
    first_row = reader.pos
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
    data = np.array(values, dtype=np.float64).reshape(dims)
    if not np.isfinite(data).all():
        row, col = divmod(int(np.flatnonzero(~np.isfinite(data))[0]), row_len)
        token = reader.lines[first_row + row].split()[col]
        raise CheckpointError(f"{name}: value {token!r} is not finite")
    return data


def parse_checkpoint(text: str) -> CheckpointBundle:
    lines = text.splitlines()
    reader = _Reader(lines)
    if reader.next() != MAGIC:
        raise CheckpointError("not a reranklab checkpoint (bad magic line)")
    if reader.next() != "[config]":
        raise CheckpointError("missing [config] section")
    config_kv: dict[str, int] = {}
    for line in reader.section():
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

    if reader.next() != "[vocab]":
        raise CheckpointError("missing [vocab] section")
    tokens = []
    for line in reader.section():
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
    while True:
        line = reader.next()
        if line == "[end]":
            break
        if line.startswith(("[param ", "[state ")):
            header, _, name = line.partition("] ")
            kind, _, dims = header[1:].partition(" ")
            label = f"[{kind}] {name}"
            if label in arrays:
                raise CheckpointError(f"{name}: repeated [{kind}] block")
            arrays[label] = _read_array(reader, _parse_dims(dims, name), name)
        elif line.startswith("[optimizer "):
            if opt_kind is not None:
                raise CheckpointError(f"{line}: a second optimizer section")
            opt_kind = line[len("[optimizer "):-1]
            for key_line in reader.section():
                key, _, value = key_line.partition("=")
                field = f"[optimizer {opt_kind}] {key}"
                if key in opt_hypers:
                    raise CheckpointError(f"{field}: repeated key")
                parse = int if key == "step" else float.fromhex
                opt_hypers[key] = _parse_value(parse, value, field)
                if not math.isfinite(opt_hypers[key]):
                    raise CheckpointError(f"{field}: value {value!r} is not finite")
        else:
            raise CheckpointError(f"unexpected line in checkpoint: {line!r}")

    optimizer = None
    views = checkpoint_views({name: p.data for name, p in model.parameters()}, config.n_heads)
    targets = {f"[param] {name}": data for name, data in views.items()}
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
        views = checkpoint_views(optimizer.state_dict()["buffers"], config.n_heads)
        targets.update({f"[state] {key}": buf for key, buf in views.items()})

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


def load_checkpoint(path) -> CheckpointBundle:
    with open_utf8(path, CheckpointError) as fh:
        return parse_checkpoint(fh.read())
