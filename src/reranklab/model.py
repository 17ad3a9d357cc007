"""Toy cross-encoder over whitespace tokens.

A query and a passage are packed into one sequence
``[CLS] query [SEP] passage [SEP]`` and encoded by a small pre-norm
transformer stack; the hidden state at the CLS position feeds a linear
head with a sigmoid, producing a relevance score in (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from reranklab import tensor as T
from reranklab.tensor import Tensor

__all__ = [
    "CLS_ID",
    "SEP_ID",
    "PAD_ID",
    "UNK_ID",
    "RESERVED_TOKENS",
    "Vocab",
    "CrossEncoderConfig",
    "CrossEncoder",
    "checkpoint_views",
    "normalize_text",
    "tokenize_pair",
    "init_params",
    "score",
    "score_batch",
]

CLS_ID, SEP_ID, PAD_ID, UNK_ID = 0, 1, 2, 3
RESERVED_TOKENS = ("[CLS]", "[SEP]", "[PAD]", "[UNK]")


def normalize_text(text: str) -> list[str]:
    """Lowercase and split on whitespace."""
    return text.lower().split()


class Vocab:
    """Token to id map with fixed reserved ids 0..3 (CLS, SEP, PAD, UNK).

    Regular tokens get ids from 4 upward in the order given; ``build``
    assigns them lexicographically so construction is deterministic.
    """

    def __init__(self, tokens: Iterable[str]):
        self._tokens = list(tokens)
        self._ids: dict[str, int] = {}
        for i, tok in enumerate(self._tokens):
            if not tok or tok.split() != [tok]:
                raise ValueError(f"vocab token {tok!r} contains whitespace or is empty")
            if tok in self._ids or tok in RESERVED_TOKENS:
                raise ValueError(f"duplicate or reserved vocab token {tok!r}")
            self._ids[tok] = 4 + i

    @classmethod
    def build(cls, texts: Iterable[str]) -> "Vocab":
        """Collect unique whitespace tokens from ``texts``, sorted."""
        seen = set()
        for text in texts:
            seen.update(normalize_text(text))
        seen.difference_update(RESERVED_TOKENS)
        return cls(sorted(seen))

    @property
    def size(self) -> int:
        return 4 + len(self._tokens)

    @property
    def tokens(self) -> list[str]:
        """Regular tokens in id order (ids 4..size)."""
        return list(self._tokens)

    def id_of(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def encode(self, text: str) -> list[int]:
        return [self.id_of(tok) for tok in normalize_text(text)]

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocab) and self._tokens == other._tokens

    def __repr__(self):
        return f"Vocab(size={self.size})"


def tokenize_pair(vocab: Vocab, query: str, passage: str, max_len: int) -> list[int]:
    """Pack a query/passage pair as ``[CLS] q [SEP] d [SEP]`` ids padded to max_len.

    When the pair exceeds the budget, tokens are dropped from the tail of
    whichever side is currently longer (the passage on ties), so the
    passage is truncated before the query. ``Vocab.encode`` never yields
    ``PAD_ID``, so the padding is exactly the trailing run of ``PAD_ID``.
    """
    if max_len < 4:
        raise ValueError(f"max_len must be >= 4, got {max_len}")
    q = vocab.encode(query)
    p = vocab.encode(passage)
    budget = max_len - 3  # CLS + two SEPs
    while len(q) + len(p) > budget:
        if len(p) >= len(q):
            p.pop()
        else:
            q.pop()
    ids = [CLS_ID] + q + [SEP_ID] + p + [SEP_ID]
    return ids + [PAD_ID] * (max_len - len(ids))


@dataclass(frozen=True)
class CrossEncoderConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 1
    n_heads: int = 2
    d_ff: int = 128
    max_len: int = 16
    seed: int = 12

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.max_len < 8:
            raise ValueError(f"max_len must be >= 8, got {self.max_len}")


def checkpoint_views(arrays: Mapping[str, np.ndarray], n_heads: int) -> dict[str, np.ndarray]:
    """``arrays`` under their checkpoint v1 names, in file order, as views.

    A layer's ``<pre>.attn.w_qkv`` (d, 3d) holds every head's query
    columns, then key, then value columns; ``<pre>.attn.w_out`` (d, d)
    holds one block of rows per head. v1 stores both per head, where
    ``w_qkv`` stands: ``<pre>.attn.head<h>.w_query``, ``w_key``,
    ``w_value`` (d, d / n_heads) and ``w_out`` (d / n_heads, d). ``<pre>``
    may start with an optimizer buffer's prefix (``m/``). Other arrays
    pass through as themselves.
    """
    views = {}
    for name, data in arrays.items():
        if name.endswith(".attn.w_qkv"):
            pre = name[: -len("w_qkv")]
            w_out = arrays[pre + "w_out"]
            d = len(w_out)
            dh = d // n_heads
            for h in range(n_heads):
                lo = h * dh
                for j, kind in enumerate(("w_query", "w_key", "w_value")):
                    views[f"{pre}head{h}.{kind}"] = data[:, j * d + lo : j * d + lo + dh]
                views[f"{pre}head{h}.w_out"] = w_out[lo : lo + dh]
        elif not name.endswith(".attn.w_out"):  # a w_out goes with its layer's w_qkv
            views[name] = data
    return views


class CrossEncoder:
    """Pre-norm transformer encoder with a sigmoid relevance head.

    Parameters live in an insertion-ordered name -> Tensor dict so they
    can be enumerated, checkpointed, and updated deterministically.
    """

    def __init__(self, config: CrossEncoderConfig):
        self.config = config
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(config.seed)
        self._build(rng)

    # -- construction -------------------------------------------------

    def _param(self, name: str, data: np.ndarray) -> None:
        self.params[name] = Tensor(data, requires_grad=True)

    def _uniform(self, rng, shape, fan_in: int) -> np.ndarray:
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    def _build(self, rng) -> None:
        cfg = self.config
        d = cfg.d_model
        self._param("token_embedding", self._uniform(rng, (cfg.vocab_size, d), d))
        self._param("position_embedding", rng.uniform(-0.02, 0.02, size=(cfg.max_len, d)))
        for i in range(cfg.n_layers):
            pre = f"layers.{i}"
            self._param(f"{pre}.attn_norm.gain", np.ones(d))
            self._param(f"{pre}.attn_norm.bias", np.zeros(d))
            self._param(f"{pre}.attn.w_qkv", np.empty((d, 3 * d)))
            self._param(f"{pre}.attn.w_out", np.empty((d, d)))
            # Drawn block by block in checkpoint v1 order; a block's fan-in is its row count.
            attn = {name: self.params[name].data for name in (f"{pre}.attn.w_qkv", f"{pre}.attn.w_out")}
            for block in checkpoint_views(attn, cfg.n_heads).values():
                block[...] = self._uniform(rng, block.shape, block.shape[0])
            self._param(f"{pre}.attn.out_bias", np.zeros(d))
            self._param(f"{pre}.ff_norm.gain", np.ones(d))
            self._param(f"{pre}.ff_norm.bias", np.zeros(d))
            self._param(f"{pre}.ff.w1", self._uniform(rng, (d, cfg.d_ff), d))
            self._param(f"{pre}.ff.b1", np.zeros(cfg.d_ff))
            self._param(f"{pre}.ff.w2", self._uniform(rng, (cfg.d_ff, d), cfg.d_ff))
            self._param(f"{pre}.ff.b2", np.zeros(d))
        self._param("head.weight", self._uniform(rng, (d, 1), d))
        self._param("head.bias", np.zeros(1))

    # -- introspection ------------------------------------------------

    def parameters(self):
        """Yield (name, tensor) pairs in deterministic construction order."""
        yield from self.params.items()

    def parameter_count(self) -> int:
        return sum(p.size for _, p in self.parameters())

    # -- forward ------------------------------------------------------

    def forward(self, ids) -> Tensor:
        """Relevance scores for a batch of id sequences as a (B, 1) tensor.

        ``ids`` is anything ``np.asarray`` makes a (B, max_len) integer
        array of, such as a list of :func:`tokenize_pair` results. A
        position is padding, and masked as a key, where its id is ``PAD_ID``.

        The head reads only the CLS position, and nothing after the last
        layer's attention mixes positions, so that layer queries from the
        CLS row alone and runs its output projection, residual adds and
        feed-forward on one (B, d) row per sequence. Only its ``attn_norm``
        still covers every position: no keys or values are formed.

        Records on the active tape, so it is the training-path entry
        point; use :func:`score_batch` for plain float inference.
        """
        cfg = self.config
        expected = f"a (batch, max_len {cfg.max_len}) integer array"
        try:
            ids = np.asarray(ids)
        except ValueError as exc:  # rows of different lengths
            raise ValueError(f"token ids are not {expected}: {exc}") from None
        if ids.ndim != 2 or ids.shape[1] != cfg.max_len or ids.dtype.kind not in "iu":
            raise ValueError(f"token ids of shape {ids.shape} and dtype {ids.dtype} are not {expected}")
        ids = ids.astype(np.intp, copy=False)
        P = self.params
        real = ids != PAD_ID

        # The (L, d) position table broadcasts over B; add's backward sums it back.
        x = T.add(T.embedding_lookup(P["token_embedding"], ids), P["position_embedding"])
        for i in range(cfg.n_layers):
            pre = f"layers.{i}"
            last = i == cfg.n_layers - 1
            a = T.layer_norm(x, P[f"{pre}.attn_norm.gain"], P[f"{pre}.attn_norm.bias"])
            attended = T.attention(a, P[f"{pre}.attn.w_qkv"], real, cfg.n_heads, first_query_only=last)
            if last:
                x = T.first_row(x)
            x = T.add(x, T.linear(attended, P[f"{pre}.attn.w_out"], P[f"{pre}.attn.out_bias"]))
            f = T.layer_norm(x, P[f"{pre}.ff_norm.gain"], P[f"{pre}.ff_norm.bias"])
            f = T.relu(T.linear(f, P[f"{pre}.ff.w1"], P[f"{pre}.ff.b1"]))
            x = T.add(x, T.linear(f, P[f"{pre}.ff.w2"], P[f"{pre}.ff.b2"]))

        return T.sigmoid(T.linear(x, P["head.weight"], P["head.bias"]))


def init_params(config: CrossEncoderConfig) -> CrossEncoder:
    """Fresh model with seed-deterministic scaled-uniform weights."""
    return CrossEncoder(config)


def score_batch(model: CrossEncoder, ids) -> list[float]:
    """Relevance scores in (0, 1) of (B, max_len) ids, in input order, from one forward pass."""
    if len(ids) == 0:
        return []
    return model.forward(ids).data[:, 0].tolist()


def score(model: CrossEncoder, ids: list[int]) -> float:
    """Relevance score in (0, 1) of one id sequence; pure and deterministic."""
    return score_batch(model, [ids])[0]
