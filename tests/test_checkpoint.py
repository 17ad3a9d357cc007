"""Checkpoint round trips must be bit-exact, including optimizer state."""

import base64
import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reranklab import checkpoint
from reranklab.checkpoint import (
    CheckpointError,
    checkpoint_text,
    load_checkpoint,
    parse_checkpoint,
    save_checkpoint,
)
from reranklab.model import CrossEncoder, CrossEncoderConfig, Vocab, checkpoint_views
from reranklab.optim import OPTIMIZERS, AdamW, Lion

import oracles
from conftest import assert_same_text, same_bits


def b64_row(*values):
    """One v2 row line: base64 of the values' little-endian float64 bytes."""
    return base64.b64encode(np.array(values, "<f8").tobytes()).decode("ascii")


@pytest.fixture
def setup():
    vocab = Vocab(["alpha", "beta", "gamma"])
    config = CrossEncoderConfig(
        vocab_size=vocab.size, d_model=8, n_layers=2, n_heads=2, d_ff=16, max_len=8, seed=3
    )
    return CrossEncoder(config), vocab


class TestRoundTrip:
    def test_model_bit_exact(self, setup, tmp_path):
        model, vocab = setup
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, vocab)
        bundle = load_checkpoint(path)
        assert bundle.vocab == vocab
        assert bundle.model.config == model.config
        for (name_a, pa), (name_b, pb) in zip(model.params.items(), bundle.model.params.items()):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.data, pb.data)
        assert bundle.optimizer is None

    def test_serialization_deterministic(self, setup):
        model, vocab = setup
        assert_same_text(checkpoint_text(model, vocab), checkpoint_text(model, vocab))

    def test_save_load_save_identical_bytes(self, setup, tmp_path):
        model, vocab = setup
        text = checkpoint_text(model, vocab)
        bundle = parse_checkpoint(text)
        assert_same_text(checkpoint_text(bundle.model, bundle.vocab), text)

    def test_lion_state_round_trip(self, setup, rng):
        model, vocab = setup
        opt = Lion(model.params, lr=3e-4, betas=(0.85, 0.95), weight_decay=0.02)
        for _, p in model.params.items():
            p.grad[...] = rng.normal(size=p.shape)
        opt.step()
        bundle = parse_checkpoint(checkpoint_text(model, vocab, opt))
        restored = bundle.optimizer
        assert isinstance(restored, Lion)
        assert (restored.lr, restored.beta1, restored.beta2) == (3e-4, 0.85, 0.95)
        assert restored.weight_decay == 0.02
        for name in model.params:
            np.testing.assert_array_equal(opt.buffers()[f"m/{name}"], restored.buffers()[f"m/{name}"])

    def test_adamw_state_round_trip(self, setup, rng):
        model, vocab = setup
        opt = AdamW(model.params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01)
        for step in range(3):
            for _, p in model.params.items():
                p.grad[...] = rng.normal(size=p.shape)
            opt.step()
        bundle = parse_checkpoint(checkpoint_text(model, vocab, opt))
        restored = bundle.optimizer
        assert isinstance(restored, AdamW)
        assert restored.step_count == 3
        assert restored.eps == 1e-8
        for name in model.params:
            np.testing.assert_array_equal(opt.buffers()[f"m/{name}"], restored.buffers()[f"m/{name}"])
            np.testing.assert_array_equal(opt.buffers()[f"v/{name}"], restored.buffers()[f"v/{name}"])

    def test_resumed_optimizer_steps_identically(self, setup, rng):
        model, vocab = setup
        for cls in OPTIMIZERS.values():
            opt = cls(model.params, lr=1e-3)
            grads = {name: rng.normal(size=p.shape) for name, p in model.params.items()}
            for name, p in model.params.items():
                p.grad[...] = grads[name]
            opt.step()
            bundle = parse_checkpoint(checkpoint_text(model, vocab, opt))
            assert type(bundle.optimizer) is cls
            assert bundle.optimizer.state_bytes() == opt.state_bytes()
            # one more step on both the original and the restored pair
            next_grads = {name: rng.normal(size=p.shape) for name, p in model.params.items()}
            for (name, p), (_, q) in zip(model.params.items(), bundle.model.params.items()):
                p.grad[...] = next_grads[name]
                q.grad[...] = next_grads[name]
            opt.step()
            bundle.optimizer.step()
            for (name, p), (_, q) in zip(model.params.items(), bundle.model.params.items()):
                np.testing.assert_array_equal(p.data, q.data)
            assert_same_text(checkpoint_text(bundle.model, vocab, bundle.optimizer), checkpoint_text(model, vocab, opt))


# float64 bit patterns at the edge of a field: signed zeros, the extreme
# subnormals and normals, 1.0, the infinities, and NaNs of either sign,
# quiet and signalling.
EDGE_BITS = [
    0x0000_0000_0000_0000,
    0x8000_0000_0000_0000,
    0x0000_0000_0000_0001,
    0x800F_FFFF_FFFF_FFFF,
    0x0010_0000_0000_0000,
    0x7FEF_FFFF_FFFF_FFFF,
    0x3FF0_0000_0000_0000,
    0x7FF0_0000_0000_0000,
    0xFFF0_0000_0000_0000,
    0x7FF8_0000_0000_0000,
    0xFFF8_0000_0000_0001,
    0x7FF0_0000_0000_0001,
]


def finite_bits(bits):
    return (bits >> 52) & 0x7FF != 0x7FF


FINITE_BITS = (st.integers(0, 2**64 - 1) | st.sampled_from(EDGE_BITS)).filter(finite_bits)
NON_FINITE_BITS = st.sampled_from([b for b in EDGE_BITS if not finite_bits(b)]) | st.builds(
    lambda sign, mantissa: sign << 63 | 0x7FF << 52 | mantissa, st.integers(0, 1), st.integers(0, 2**52 - 1)
)


@st.composite
def float_arrays(draw, shape=None):
    """Finite float64 arrays of shape (n,), (r, c) or (a, b, c) from arbitrary 64-bit patterns."""
    if shape is None:
        shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9))
    return draw(hnp.arrays(np.uint64, shape, elements=FINITE_BITS)).view(np.float64)


def v2_section(data):
    out = io.StringIO()
    checkpoint._write_array(out, "state", "x", data)
    return out.getvalue()


def read_v2_section(text):
    header, *rows = text.splitlines()
    dims = checkpoint._parse_dims(header[len("[state ") : header.index("]")], "x")
    return checkpoint._read_array(rows, dims, "x", checkpoint._base64_row, iter(()))


class TestV2Encoding:
    """Each row is one base64 line of its float64 bytes, so every bit pattern round-trips."""

    @settings(max_examples=300, deadline=None)
    @given(data=float_arrays())
    def test_section_round_trip_bit_exact(self, data):
        text = v2_section(data)
        assert len(text.splitlines()) == 1 + data.size // data.shape[-1]
        parsed = read_v2_section(text)
        assert same_bits(parsed, data)
        assert v2_section(parsed) == text

    @settings(max_examples=200, deadline=None)
    @given(data=float_arrays(), where=st.integers(0, 2**32), bits=NON_FINITE_BITS)
    def test_non_finite_value_named_by_row_and_column(self, data, where, bits):
        at = where % data.size
        data.view(np.uint64).flat[at] = bits
        row, col = divmod(at, data.shape[-1])
        with pytest.raises(CheckpointError) as info:
            read_v2_section(v2_section(data))
        assert str(info.value) == f"x row {row}, column {col}: value '{data.flat[at]}' is not finite"

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_whole_checkpoint_save_load_save(self, data):
        vocab = Vocab(["alpha", "beta"])
        model = CrossEncoder(CrossEncoderConfig(vocab_size=vocab.size, d_model=4, n_heads=2, d_ff=8, max_len=8))
        opt = AdamW(model.params)
        arrays = {name: p.data for name, p in model.params.items()} | opt.buffers()
        for array in arrays.values():
            array[...] = data.draw(float_arrays(array.shape))
        text = checkpoint_text(model, vocab, opt)
        bundle = parse_checkpoint(text)
        restored = {name: p.data for name, p in bundle.model.params.items()} | bundle.optimizer.buffers()
        assert all(same_bits(restored[key], array) for key, array in arrays.items())
        assert_same_text(checkpoint_text(bundle.model, bundle.vocab, bundle.optimizer), text)

    def test_scalar_and_float32(self):
        for data in (np.float64(-2.5).reshape(()), np.arange(6, dtype=np.float32).reshape(2, 3) / 3):
            text = v2_section(data)
            assert text.startswith(f"[state {'scalar' if data.ndim == 0 else '2x3'}] x\n")
            assert same_bits(read_v2_section(text), data.astype(np.float64))


class TestV1Files:
    """Files written in checkpoint v1 still load, with the same values."""

    @pytest.mark.parametrize("kind", [None, "lion", "adamw"])
    def test_loads_same_values(self, setup, rng, kind):
        model, vocab = setup
        opt = None if kind is None else OPTIMIZERS[kind](model.params, lr=1e-3)
        if opt is not None:
            for _, p in model.params.items():
                p.grad[...] = rng.normal(size=p.shape)
            opt.step()
        bundle = parse_checkpoint(oracles.v1_checkpoint_text(model, vocab, opt))
        for (name_a, pa), (name_b, pb) in zip(model.params.items(), bundle.model.params.items()):
            assert name_a == name_b and same_bits(pa.data, pb.data)
        if opt is not None:
            restored = bundle.optimizer.buffers()
            for key, buf in opt.buffers().items():
                assert same_bits(buf, restored[key]), key
        assert_same_text(checkpoint_text(bundle.model, bundle.vocab, bundle.optimizer), checkpoint_text(model, vocab, opt))


class TestGoldenDigests:
    """sha256 of whole checkpoints: v1 text from the per-value float.hex() oracle, and v2.

    The state comes from optimizer steps on seeded gradients, not from a
    training run: steps are elementwise IEEE arithmetic and give the same bits
    on every machine, while a forward pass goes through BLAS, whose last bits
    can differ between CPUs. Gradients are drawn one checkpoint array at a
    time, in file order, so a fused attention weight gets its per-head
    blocks' draws. Every other embedding row gets no gradient, as for tokens
    a batch does not hold, so the state has runs of zeros.
    """

    V1_DIGESTS = {
        "lion": "93aefc4929276c55ad5c2a4e12af8321486edaaafc34cba459c616121e20e0b4",
        "adamw": "6db5588096e4b48763bccbab1f98d4a22cd03dc2453d0afe459befba22060cda",
    }
    V2_DIGESTS = {
        "lion": "de71e77bfda5fdecd207100541208ea9d86d69b23152b7e16b74260689fc4b31",
        "adamw": "14167d612e6f1f06f21563549128e2ea70fc9d00a6990288e2ad23c1a616eda4",
    }

    @pytest.mark.parametrize("kind", ["lion", "adamw"])
    def test_desk_model_after_three_steps(self, kind):
        vocab = Vocab([f"w{i}" for i in range(96)])
        config = CrossEncoderConfig(
            vocab_size=vocab.size, d_model=64, n_layers=1, n_heads=2, d_ff=128, max_len=16, seed=12
        )
        model = CrossEncoder(config)
        opt = OPTIMIZERS[kind](model.params, lr=2e-4, weight_decay=0.01)
        rng = np.random.default_rng(12)
        for _ in range(3):
            for name, grad in checkpoint_views({n: p.grad for n, p in model.params.items()}, config.n_heads).items():
                grad[...] = rng.normal(size=grad.shape)
                if name == "token_embedding":
                    grad[::2] = 0.0
            opt.step()
        v1_text = oracles.v1_checkpoint_text(model, vocab, opt)
        text = checkpoint_text(model, vocab, opt)
        assert hashlib.sha256(v1_text.encode()).hexdigest() == self.V1_DIGESTS[kind]
        assert hashlib.sha256(text.encode()).hexdigest() == self.V2_DIGESTS[kind]
        bundle = parse_checkpoint(v1_text)
        assert_same_text(checkpoint_text(bundle.model, bundle.vocab, bundle.optimizer), text)


class TestOptimizerBlock:
    """The documented key order of each kind's [optimizer <kind>] block, spelled out."""

    HYPER_LINES = {
        "lion": [
            "lr=0x1.0000000000000p-1",
            "beta1=0x1.8000000000000p-1",
            "beta2=0x1.c000000000000p-1",
            "weight_decay=0x1.0000000000000p-2",
        ],
        "adamw": [
            "lr=0x1.0000000000000p-1",
            "beta1=0x1.8000000000000p-1",
            "beta2=0x1.c000000000000p-1",
            "eps=0x1.0000000000000p-3",
            "weight_decay=0x1.0000000000000p-2",
            "step=2",
        ],
    }
    PREFIXES = {"lion": ["m"], "adamw": ["m", "v"]}

    @pytest.mark.parametrize("kind", ["lion", "adamw"])
    def test_block_golden(self, setup, kind):
        model, vocab = setup
        hypers = {"lr": 0.5, "betas": (0.75, 0.875), "weight_decay": 0.25}
        opt = Lion(model.params, **hypers) if kind == "lion" else AdamW(model.params, eps=0.125, **hypers)
        for _ in range(2):
            for _, p in model.params.items():
                p.grad[...] = 1.0
            opt.step()
        lines = checkpoint_text(model, vocab, opt).splitlines()
        block = lines[lines.index(f"[optimizer {kind}]") + 1 : lines.index("[end]")]
        keys = block[: next(i for i, line in enumerate(block) if line.startswith("[state "))]
        params = [line.partition("] ")[2] for line in lines if line.startswith("[param ")]
        buffers = [line.partition("] ")[2] for line in block if line.startswith("[state ")]
        assert keys == self.HYPER_LINES[kind]
        assert params == [name for name, _ in model.params.items()]
        assert "layers.1.attn.w_qkv" in params
        assert buffers == [f"{prefix}/{name}" for prefix in self.PREFIXES[kind] for name in params]


class TestValidation:
    def test_bad_magic(self):
        with pytest.raises(CheckpointError, match="magic"):
            parse_checkpoint("something else\n")

    def test_vocab_size_mismatch(self, setup):
        model, vocab = setup
        text = checkpoint_text(model, vocab)
        broken = text.replace("vocab_size=7", "vocab_size=8", 1)
        with pytest.raises(CheckpointError):
            parse_checkpoint(broken)

    def test_truncated_file(self, setup):
        model, vocab = setup
        text = checkpoint_text(model, vocab)
        with pytest.raises(CheckpointError):
            parse_checkpoint("\n".join(text.splitlines()[:10]))

    def test_missing_optimizer_hyperparameter_named(self, setup):
        model, vocab = setup
        text = checkpoint_text(model, vocab, Lion(model.params))
        lines = [l for l in text.splitlines() if not l.startswith("beta1=")]
        with pytest.raises(CheckpointError, match="beta1"):
            parse_checkpoint("\n".join(lines) + "\n")

    @pytest.mark.parametrize(
        "kind, line, named",
        [
            ("lion", "lr_typo=0x1p-1", "[optimizer lion] lr_typo"),
            ("lion", "step=7", "[optimizer lion] step"),
            ("adamw", "momentum=0x1p-1", "[optimizer adamw] momentum"),
        ],
    )
    def test_unknown_optimizer_key_named(self, setup, kind, line, named):
        model, vocab = setup
        text = checkpoint_text(model, vocab, OPTIMIZERS[kind](model.params))
        broken = text.replace(f"[optimizer {kind}]\n", f"[optimizer {kind}]\n{line}\n", 1)
        with pytest.raises(CheckpointError) as info:
            parse_checkpoint(broken)
        assert named in str(info.value)

    def test_missing_adamw_step_named(self, setup):
        model, vocab = setup
        text = checkpoint_text(model, vocab, AdamW(model.params))
        lines = [l for l in text.splitlines() if not l.startswith("step=")]
        with pytest.raises(CheckpointError, match="step"):
            parse_checkpoint("\n".join(lines) + "\n")

    def test_missing_state_buffer_named(self, setup):
        model, vocab = setup
        lines = checkpoint_text(model, vocab, Lion(model.params)).splitlines()
        start = next(i for i, l in enumerate(lines) if l.endswith("] m/head.bias"))
        del lines[start : start + 2]
        with pytest.raises(CheckpointError, match="m/head.bias"):
            parse_checkpoint("\n".join(lines) + "\n")

    @pytest.mark.parametrize("kind", ["lion", "adamw"])
    def test_misshaped_state_buffer_named(self, setup, kind):
        model, vocab = setup
        text = checkpoint_text(model, vocab, OPTIMIZERS[kind](model.params))
        broken = text.replace(f"[state 1] m/head.bias\n{b64_row(0.0)}\n", f"[state 2] m/head.bias\n{b64_row(0.0, 0.0)}\n", 1)
        with pytest.raises(CheckpointError) as info:
            parse_checkpoint(broken)
        assert str(info.value) == "[state] m/head.bias has shape (2,), expected (1,)"

    def test_state_block_without_optimizer_named(self, setup):
        model, vocab = setup
        text = checkpoint_text(model, vocab).replace("[end]\n", f"[state 1] m/head.bias\n{b64_row(0.0)}\n[end]\n")
        with pytest.raises(CheckpointError, match=r"extra \['\[state\] m/head.bias'\]"):
            parse_checkpoint(text)

    def test_malformed_config_integer_named(self, setup):
        model, vocab = setup
        text = checkpoint_text(model, vocab).replace("d_model=8", "d_model=6x4", 1)
        with pytest.raises(CheckpointError, match=r"d_model.*6x4"):
            parse_checkpoint(text)

    def test_missing_parameter_detected(self, setup):
        model, vocab = setup
        lines = checkpoint_text(model, vocab).splitlines()
        start = next(i for i, l in enumerate(lines) if l.endswith("] head.bias"))
        del lines[start : start + 2]
        with pytest.raises(CheckpointError, match="head.bias"):
            parse_checkpoint("\n".join(lines) + "\n")

    @pytest.mark.parametrize("name", ["head.weight", "m/head.weight"])
    @pytest.mark.parametrize(
        "value, problem",
        [
            ("0x1.0000000000000p+1024", "value '0x1.0000000000000p+1024' is out of float range"),
            ("0x1.8q+2", "malformed value '0x1.8q+2'"),
            ("nan", "value 'nan' is not finite"),
            ("inf", "value 'inf' is not finite"),
            ("-inf", "value '-inf' is not finite"),
        ],
    )
    def test_bad_row_value_named(self, setup, name, value, problem):
        """v1 text: the error names the array, its row 0 and, for a non-finite value, the column."""
        model, vocab = setup
        lines = oracles.v1_checkpoint_text(model, vocab, Lion(model.params)).splitlines()
        row = next(i for i, l in enumerate(lines) if l.endswith(f"] {name}")) + 1
        parts = lines[row].split()
        parts[-1] = value
        lines[row] = " ".join(parts)
        with pytest.raises(CheckpointError) as info:
            parse_checkpoint("\n".join(lines) + "\n")
        where = "row 0, column 0" if problem.endswith("not finite") else "row 0"
        assert str(info.value) == f"{name} {where}: {problem}"

    def test_row_count_beyond_int64_named(self, setup):
        model, vocab = setup
        for write in (checkpoint_text, oracles.v1_checkpoint_text):
            text = write(model, vocab)
            huge = text.replace("[param 1] head.bias", "[param 4294967296x4294967296x1] head.bias", 1)
            # the section holds row 0 only, and [end] follows
            with pytest.raises(CheckpointError, match=r"^head\.bias row 1: unexpected \[end\]$"):
                parse_checkpoint(huge)

    @pytest.mark.parametrize("kind", ["lion", "adamw"])
    def test_hyperparameter_out_of_float_range_named(self, setup, kind):
        model, vocab = setup
        text = checkpoint_text(model, vocab, OPTIMIZERS[kind](model.params))
        lr_line = next(l for l in text.splitlines() if l.startswith("lr="))
        with pytest.raises(CheckpointError) as info:
            parse_checkpoint(text.replace(lr_line, "lr=0x1p+1024", 1))
        assert str(info.value) == f"[optimizer {kind}] lr: value '0x1p+1024' is out of float range"

    @pytest.mark.parametrize("kind", ["lion", "adamw"])
    def test_non_finite_hyperparameter_named(self, setup, kind):
        model, vocab = setup
        text = checkpoint_text(model, vocab, OPTIMIZERS[kind](model.params))
        lr_line = next(l for l in text.splitlines() if l.startswith("lr="))
        with pytest.raises(CheckpointError) as info:
            parse_checkpoint(text.replace(lr_line, "lr=nan", 1))
        assert str(info.value) == f"[optimizer {kind}] lr: value 'nan' is not finite"

    def test_non_finite_value_named_in_later_row(self, setup):
        model, vocab = setup
        lines = oracles.v1_checkpoint_text(model, vocab).splitlines()
        row = next(i for i, l in enumerate(lines) if l.endswith("] token_embedding")) + 3
        parts = lines[row].split()
        parts[2] = "-inf"
        lines[row] = " ".join(parts)
        with pytest.raises(CheckpointError) as info:
            parse_checkpoint("\n".join(lines) + "\n")
        assert str(info.value) == "token_embedding row 2, column 2: value '-inf' is not finite"

    @pytest.mark.parametrize("write", [checkpoint_text, oracles.v1_checkpoint_text], ids=["v2", "v1"])
    @pytest.mark.parametrize("dims", ["-1x8", "7x-8"])
    def test_negative_dim_named(self, setup, write, dims):
        model, vocab = setup
        text = write(model, vocab).replace("[param 7x8] token_embedding", f"[param {dims}] token_embedding", 1)
        with pytest.raises(CheckpointError) as info:
            parse_checkpoint(text)
        assert str(info.value) == f"dims of token_embedding: {dims} has a negative dim"
