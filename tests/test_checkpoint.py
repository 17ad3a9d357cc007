"""Checkpoint round trips must be bit-exact, including optimizer state."""

import hashlib
import io
from unittest import mock

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
from reranklab.model import CrossEncoderConfig, Vocab, checkpoint_views, init_params
from reranklab.optim import OPTIMIZERS, AdamW, Lion

import oracles


@pytest.fixture
def setup():
    vocab = Vocab(["alpha", "beta", "gamma"])
    config = CrossEncoderConfig(
        vocab_size=vocab.size, d_model=8, n_layers=2, n_heads=2, d_ff=16, max_len=8, seed=3
    )
    return init_params(config), vocab


class TestRoundTrip:
    def test_model_bit_exact(self, setup, tmp_path):
        model, vocab = setup
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, model, vocab)
        bundle = load_checkpoint(path)
        assert bundle.vocab == vocab
        assert bundle.model.config == model.config
        for (name_a, pa), (name_b, pb) in zip(model.parameters(), bundle.model.parameters()):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.data, pb.data)
        assert bundle.optimizer is None

    def test_serialization_deterministic(self, setup):
        model, vocab = setup
        assert checkpoint_text(model, vocab) == checkpoint_text(model, vocab)

    def test_save_load_save_identical_bytes(self, setup, tmp_path):
        model, vocab = setup
        text = checkpoint_text(model, vocab)
        bundle = parse_checkpoint(text)
        assert checkpoint_text(bundle.model, bundle.vocab) == text

    def test_lion_state_round_trip(self, setup, rng):
        model, vocab = setup
        opt = Lion(model.params, lr=3e-4, betas=(0.85, 0.95), weight_decay=0.02)
        for _, p in model.parameters():
            p.grad = rng.normal(size=p.shape)
        opt.step()
        bundle = parse_checkpoint(checkpoint_text(model, vocab, opt))
        restored = bundle.optimizer
        assert isinstance(restored, Lion)
        assert (restored.lr, restored.beta1, restored.beta2) == (3e-4, 0.85, 0.95)
        assert restored.weight_decay == 0.02
        for name in opt.momentum:
            np.testing.assert_array_equal(opt.momentum[name], restored.momentum[name])

    def test_adamw_state_round_trip(self, setup, rng):
        model, vocab = setup
        opt = AdamW(model.params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.01)
        for step in range(3):
            for _, p in model.parameters():
                p.grad = rng.normal(size=p.shape)
            opt.step()
        bundle = parse_checkpoint(checkpoint_text(model, vocab, opt))
        restored = bundle.optimizer
        assert isinstance(restored, AdamW)
        assert restored.step_count == 3
        assert restored.eps == 1e-8
        for name in opt.moment1:
            np.testing.assert_array_equal(opt.moment1[name], restored.moment1[name])
            np.testing.assert_array_equal(opt.moment2[name], restored.moment2[name])

    def test_resumed_optimizer_steps_identically(self, setup, rng):
        model, vocab = setup
        for cls in OPTIMIZERS.values():
            opt = cls(model.params, lr=1e-3)
            grads = {name: rng.normal(size=p.shape) for name, p in model.parameters()}
            for name, p in model.parameters():
                p.grad = grads[name]
            opt.step()
            bundle = parse_checkpoint(checkpoint_text(model, vocab, opt))
            assert type(bundle.optimizer) is cls
            assert bundle.optimizer.state_bytes() == opt.state_bytes()
            # one more step on both the original and the restored pair
            next_grads = {name: rng.normal(size=p.shape) for name, p in model.parameters()}
            for (name, p), (_, q) in zip(model.parameters(), bundle.model.parameters()):
                p.grad = next_grads[name]
                q.grad = next_grads[name]
            opt.step()
            bundle.optimizer.step()
            for (name, p), (_, q) in zip(model.parameters(), bundle.model.parameters()):
                np.testing.assert_array_equal(p.data, q.data)
            assert checkpoint_text(bundle.model, vocab, bundle.optimizer) == checkpoint_text(model, vocab, opt)


# float64 bit patterns that float.hex() prints specially or that sit at the
# edge of a field: signed zeros, the extreme subnormals and normals, 1.0, the
# infinities, and NaNs of either sign, quiet and signalling.
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


def assert_writes_float_hex(data):
    """The array's section equals the reference writer's, compared line by line."""
    out = io.StringIO()
    checkpoint._write_array(out, "state", "x", data)
    # Lists of lines: a failure then names the first bad line, where a diff
    # of two long strings would take minutes to print.
    assert out.getvalue().split("\n") == oracles.float_hex_section("state", "x", data).split("\n")


@st.composite
def float_arrays(draw):
    """float64 arrays of shape (n,), (r, c) or (a, b, c) from arbitrary 64-bit patterns."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9))
    bits = st.integers(0, 2**64 - 1) | st.sampled_from(EDGE_BITS)
    return draw(hnp.arrays(np.uint64, shape, elements=bits)).view(np.float64)


class TestWriter:
    """The block writer prints exactly what float.hex() prints, value by value."""

    @settings(max_examples=300, deadline=None)
    @given(data=float_arrays(), block=st.integers(1, 40))
    def test_matches_float_hex(self, data, block):
        # Small blocks put block edges inside rows, on row ends, and past the array.
        with mock.patch.object(checkpoint, "_BLOCK", block):
            assert_writes_float_hex(data)

    @pytest.mark.parametrize(
        "shape",
        [
            (checkpoint._BLOCK - 1, 1),
            (checkpoint._BLOCK + 1, 1),
            (3, checkpoint._BLOCK // 2 + 1),
            (checkpoint._BLOCK + 1,),
        ],
    )
    def test_matches_float_hex_at_block_size(self, shape, rng):
        bits = rng.integers(0, 2**64, size=shape, dtype=np.uint64, endpoint=False)
        edges = rng.random(shape) < 0.1
        bits[edges] = rng.choice(np.array(EDGE_BITS, dtype=np.uint64), size=int(edges.sum()))
        data = bits.view(np.float64)
        assert_writes_float_hex(data)

    def test_scalar_and_float32(self):
        for data in (np.float64(-2.5).reshape(()), np.arange(6, dtype=np.float32).reshape(2, 3) / 3):
            assert_writes_float_hex(data)


class TestGoldenDigests:
    """sha256 of whole checkpoints, taken with the per-value float.hex() writer.

    The state comes from optimizer steps on seeded gradients, not from a
    training run: steps are elementwise IEEE arithmetic and give the same bits
    on every machine, while a forward pass goes through BLAS, whose last bits
    can differ between CPUs. Gradients are drawn one checkpoint array at a
    time, in file order, so a fused attention weight gets its per-head
    blocks' draws. Every other embedding row gets no gradient, as for tokens
    a batch does not hold, so the state has runs of zeros.
    """

    DIGESTS = {
        "lion": "93aefc4929276c55ad5c2a4e12af8321486edaaafc34cba459c616121e20e0b4",
        "adamw": "6db5588096e4b48763bccbab1f98d4a22cd03dc2453d0afe459befba22060cda",
    }

    @pytest.mark.parametrize("kind", ["lion", "adamw"])
    def test_desk_model_after_three_steps(self, kind):
        vocab = Vocab([f"w{i}" for i in range(96)])
        config = CrossEncoderConfig(
            vocab_size=vocab.size, d_model=64, n_layers=1, n_heads=2, d_ff=128, max_len=16, seed=12
        )
        model = init_params(config)
        opt = OPTIMIZERS[kind](model.params, lr=2e-4, weight_decay=0.01)
        rng = np.random.default_rng(12)
        for _ in range(3):
            for _, p in model.parameters():
                p.grad = np.empty(p.shape)
            for name, grad in checkpoint_views({n: p.grad for n, p in model.parameters()}, config.n_heads).items():
                grad[...] = rng.normal(size=grad.shape)
                if name == "token_embedding":
                    grad[::2] = 0.0
            opt.step()
        text = checkpoint_text(model, vocab, opt)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[kind]


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
            for _, p in model.parameters():
                p.grad = np.ones(p.shape)
            opt.step()
        lines = checkpoint_text(model, vocab, opt).splitlines()
        block = lines[lines.index(f"[optimizer {kind}]") + 1 : lines.index("[end]")]
        keys = [line for line in block if "=" in line]
        params = [line.partition("] ")[2] for line in lines if line.startswith("[param ")]
        buffers = [line.partition("] ")[2] for line in block if line.startswith("[state ")]
        assert keys == self.HYPER_LINES[kind]
        assert "layers.1.attn.head1.w_out" in params
        assert buffers == [f"{prefix}/{name}" for prefix in self.PREFIXES[kind] for name in params]
        assert block[: len(keys)] == keys


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
        broken = text.replace("[state 1] m/head.bias\n0x0.0p+0\n", "[state 2] m/head.bias\n0x0.0p+0 0x0.0p+0\n", 1)
        with pytest.raises(CheckpointError) as info:
            parse_checkpoint(broken)
        assert str(info.value) == "[state] m/head.bias has shape (2,), expected (1,)"

    def test_state_block_without_optimizer_named(self, setup):
        model, vocab = setup
        text = checkpoint_text(model, vocab).replace("[end]\n", "[state 1] m/head.bias\n0x0.0p+0\n[end]\n")
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
        model, vocab = setup
        lines = checkpoint_text(model, vocab, Lion(model.params)).splitlines()
        row = next(i for i, l in enumerate(lines) if l.endswith(f"] {name}")) + 1
        parts = lines[row].split()
        parts[-1] = value
        lines[row] = " ".join(parts)
        with pytest.raises(CheckpointError) as info:
            parse_checkpoint("\n".join(lines) + "\n")
        assert str(info.value) == f"{name}: {problem}"

    def test_row_count_beyond_int64_named(self, setup):
        model, vocab = setup
        text = checkpoint_text(model, vocab)
        huge = text.replace("[param 1] head.bias", "[param 4294967296x4294967296x1] head.bias", 1)
        with pytest.raises(CheckpointError, match="head.bias"):
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
        lines = checkpoint_text(model, vocab).splitlines()
        row = next(i for i, l in enumerate(lines) if l.endswith("] token_embedding")) + 3
        parts = lines[row].split()
        parts[2] = "-inf"
        lines[row] = " ".join(parts)
        with pytest.raises(CheckpointError) as info:
            parse_checkpoint("\n".join(lines) + "\n")
        assert str(info.value) == "token_embedding: value '-inf' is not finite"
