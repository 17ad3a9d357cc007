"""Checkpoint round trips must be bit-exact, including optimizer state."""

import numpy as np
import pytest

from reranklab.checkpoint import (
    CheckpointError,
    checkpoint_text,
    load_checkpoint,
    parse_checkpoint,
    save_checkpoint,
)
from reranklab.model import CrossEncoderConfig, Vocab, init_params
from reranklab.optim import OPTIMIZERS, AdamW, Lion


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
        buffers = [line.partition("] ")[2] for line in block if line.startswith("[state ")]
        assert keys == self.HYPER_LINES[kind]
        assert buffers == [f"{prefix}/{name}" for prefix in self.PREFIXES[kind] for name in model.params]
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
