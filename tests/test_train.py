"""Pair construction, BCE loss, the training loop, and resource accounting."""

import gc
import logging
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from reranklab import ir_eval, tensor
from reranklab import train as train_mod
from reranklab.ir_eval import ParseError
from reranklab.model import CLS_ID, CrossEncoder, CrossEncoderConfig, Vocab, score_batches, tokenize_pair
from reranklab.optim import OPTIMIZERS
from reranklab.tensor import Tape, Tensor
from reranklab.train import (
    NonFiniteLossError,
    LossRecord,
    TrainConfig,
    TrainPair,
    Triplet,
    bce_loss,
    efficiency_gain,
    format_loss_log,
    load_triplets,
    resource_stats_lines,
    run_training,
    steps,
    triplets_to_pairs,
)
from reranklab.synth import SynthConfig, generate

import oracles
from conftest import max_rel_err


class TestTripletsToPairs:
    def test_single_triplet(self):
        pairs = triplets_to_pairs([Triplet("q", "p", "n")])
        assert pairs == [TrainPair("q", "p", 1), TrainPair("q", "n", 0)]

    def test_empty_list(self):
        assert triplets_to_pairs([]) == []

    def test_counts_and_balance(self):
        triplets = [Triplet(f"q{i}", f"p{i}", f"n{i}") for i in range(1000)]
        pairs = triplets_to_pairs(triplets)
        assert len(pairs) == 2000
        labels = [p.label for p in pairs]
        assert labels.count(1) == labels.count(0) == 1000

    def test_malformed_skipped_with_warning(self, caplog):
        triplets = [Triplet("q", "p", "n"), Triplet("", "p", "n"), Triplet("q", "  ", "n")]
        with caplog.at_level(logging.WARNING):
            pairs = triplets_to_pairs(triplets)
        assert len(pairs) == 2
        assert "skipped 2" in caplog.text

    def test_order_is_stable(self):
        triplets = [Triplet("a", "b", "c"), Triplet("d", "e", "f")]
        pairs = triplets_to_pairs(triplets)
        assert [p.passage for p in pairs] == ["b", "c", "e", "f"]


class TestLoadTriplets:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "triplets.tsv"
        path.write_text("q one\tpos text\tneg text\nq two\tp\tn\n", encoding="utf-8")
        triplets = load_triplets(path)
        assert triplets[0] == Triplet("q one", "pos text", "neg text")
        assert len(triplets) == 2

    def test_bad_column_count_reports_lines(self, tmp_path):
        path = tmp_path / "triplets.tsv"
        path.write_text("q\tp\tn\nq only\nq\tp\tn\tx\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"\[2, 3\]"):
            load_triplets(path)

    def test_parse_error_is_the_one_ir_eval_class(self, tmp_path):
        path = tmp_path / "triplets.tsv"
        path.write_text("q only\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_triplets(path)
        assert type(info.value) is ir_eval.ParseError

    def test_many_bad_lines_counted(self, tmp_path):
        path = tmp_path / "triplets.tsv"
        path.write_text("q\tp\tn\n" + "q only\n" * 12, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load_triplets(path)
        assert str(info.value) == (
            f"{path}: expected 3 tab-separated fields on lines [2, 3, 4, 5, 6, 7, 8, 9, 10, 11, ...] (12 lines)"
        )


class TestBCELoss:
    def test_half_prediction_is_ln2(self):
        assert abs(bce_loss(0.5, 1).item() - math.log(2)) < 1e-12

    def test_perfect_prediction_tends_to_zero(self):
        assert bce_loss(1.0 - 1e-13, 1).item() < 1e-10
        assert bce_loss(1e-13, 0).item() < 1e-10

    def test_label_symmetry(self, rng):
        for p in rng.uniform(0.01, 0.99, size=20):
            assert abs(bce_loss(p, 1).item() - bce_loss(1.0 - p, 0).item()) < 1e-12

    def test_finite_at_extremes(self):
        assert math.isfinite(bce_loss(0.0, 1).item())
        assert math.isfinite(bce_loss(1.0, 0).item())

    def test_invalid_label(self):
        with pytest.raises(ValueError):
            bce_loss(0.5, 2)

    def test_batch_is_mean_of_pair_losses(self, rng):
        p = rng.uniform(0.05, 0.95, size=(5, 1))
        y = np.array([1, 0, 0, 1, 1])
        single = [bce_loss(float(pi), int(yi)).item() for pi, yi in zip(p[:, 0], y)]
        assert abs(bce_loss(p, y).item() - sum(single) / len(single)) < 1e-12

    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            bce_loss(np.full((3, 1), 0.5), [1, 0])

    def test_gradient_formula(self, rng):
        for y in (0, 1):
            for p in rng.uniform(0.1, 0.9, size=5):
                y_hat = Tensor([p])
                with Tape() as tape:
                    loss = bce_loss(y_hat, y)
                tape.backward(loss)
                analytic = (p - y) / (p * (1.0 - p))
                assert max_rel_err(y_hat.grad, [analytic]) < 1e-6
                fd = oracles.finite_diff_grad(lambda t: bce_loss(t, y).item(), y_hat)
                assert max_rel_err(y_hat.grad, fd.data) < 1e-6

    def test_mixed_batch_at_and_past_the_clamp(self):
        # Predictions on both clamp edges, past them, and inside, each with both labels.
        edges = [0.0, 1e-13, 1e-12, 1.0 - 1e-12, 1.0 - 1e-13, 1.0]
        preds = np.array(edges * 2 + [0.2, 0.7, 0.4, 0.9]).reshape(-1, 1)
        labels = np.array([1, 0] * 3 + [0, 1] * 3 + [1, 0, 0, 1])
        y_hat = Tensor(preds)
        with Tape() as tape:
            loss = bce_loss(y_hat, labels)
        tape.backward(loss)
        assert math.isfinite(loss.item())
        outside = (preds < 1e-12) | (preds > 1.0 - 1e-12)
        assert outside.sum() == 8
        np.testing.assert_array_equal(y_hat.grad[outside], 0.0)
        # Central differences straddle the clamp on its edges, so those two
        # values are checked against the closed form (p - y) / (p (1 - p)) / n.
        on_edge = (preds[:, 0] == 1e-12) | (preds[:, 0] == 1.0 - 1e-12)
        p, y = preds[on_edge, 0], labels[on_edge]
        assert max_rel_err(y_hat.grad[on_edge, 0], (p - y) / (p * (1.0 - p)) / len(labels)) < 1e-6
        inside = ~outside[:, 0] & ~on_edge
        assert inside.sum() == 4
        fd = oracles.finite_diff_grad(lambda t: bce_loss(t, labels), y_hat)
        assert max_rel_err(y_hat.grad[inside], fd.data[inside]) < 1e-6


def _tiny_setup(n_triplets=24, d_model=16, seed=12, n_layers=1):
    data = generate(SynthConfig(seed=seed, n_triplets=n_triplets, n_eval_queries=1, n_candidates=2, n_relevant=1))
    pairs = triplets_to_pairs(data.triplets)
    texts = [t.query for t in data.triplets] + [t.positive for t in data.triplets] + [
        t.negative for t in data.triplets
    ]
    vocab = Vocab.build(texts)
    config = CrossEncoderConfig(
        vocab_size=vocab.size, d_model=d_model, n_layers=n_layers, n_heads=2, d_ff=2 * d_model, max_len=16, seed=seed
    )
    return CrossEncoder(config), vocab, pairs


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"batch_size": 0}, "batch_size"),
            ({"epochs": 0}, "epochs"),
            ({"optimizer": "sgd"}, "optimizer"),
            ({"schedule": "linear"}, "schedule"),
            ({"base_lr": -1.0}, "base_lr"),
            ({"warmup_ratio": 1.5, "schedule": "cosine"}, "warmup_ratio"),
            ({"weight_decay": -0.5, "optimizer": "adamw"}, "weight_decay"),
            ({"seed": -1}, "seed"),
        ],
    )
    def test_bad_field_rejected_naming_it_first(self, kwargs, field):
        with pytest.raises(ValueError) as info:
            TrainConfig(**kwargs)
        assert str(info.value).split()[0] == field


class TestRunTraining:
    def test_step_count_uses_ceil(self, tmp_path):
        model, vocab, pairs = _tiny_setup(n_triplets=5)  # 10 pairs
        result = run_training(model, vocab, pairs, TrainConfig(batch_size=64, epochs=3, seed=12), tmp_path)
        assert result.stats.n_steps == 3  # one step per epoch
        assert [r.epoch for r in result.loss_log] == [1, 2, 3]

    def test_bit_identical_loss_logs(self, tmp_path):
        logs = []
        for _ in range(2):
            model, vocab, pairs = _tiny_setup()
            result = run_training(model, vocab, pairs, TrainConfig(batch_size=8, epochs=2, seed=12), tmp_path)
            logs.append(format_loss_log(result.loss_log))
        assert logs[0] == logs[1]

    def test_bit_identical_parameters_after_training(self, tmp_path):
        states = []
        for _ in range(2):
            model, vocab, pairs = _tiny_setup()
            run_training(model, vocab, pairs, TrainConfig(batch_size=8, epochs=2, seed=12), tmp_path)
            states.append({name: p.data.copy() for name, p in model.params.items()})
        for name in states[0]:
            np.testing.assert_array_equal(states[0][name], states[1][name])

    def test_seed_changes_shuffle(self, tmp_path):
        logs = []
        for seed in (12, 13):
            model, vocab, pairs = _tiny_setup()
            result = run_training(model, vocab, pairs, TrainConfig(batch_size=8, epochs=1, seed=seed), tmp_path)
            logs.append([r.loss for r in result.loss_log])
        assert logs[0] != logs[1]

    @pytest.mark.parametrize("optimizer", ["lion", "adamw"])
    def test_separable_data_loss_decreases(self, optimizer, tmp_path):
        model, vocab, pairs = _tiny_setup(n_triplets=64, d_model=32)
        config = TrainConfig(batch_size=32, epochs=3, seed=12, optimizer=optimizer, base_lr=2e-4)
        result = run_training(model, vocab, pairs, config, tmp_path)
        by_epoch = {}
        for r in result.loss_log:
            by_epoch.setdefault(r.epoch, []).append(r.loss)
        means = {e: float(np.mean(v)) for e, v in by_epoch.items()}
        assert means[3] < means[1]

    def test_checkpoint_per_epoch_with_naming(self, tmp_path):
        model, vocab, pairs = _tiny_setup()
        result = run_training(
            model, vocab, pairs, TrainConfig(batch_size=16, epochs=3, seed=12), tmp_path, run_name="toy"
        )
        written = [f"toy-lion-epoch{k}.ckpt" for k in (1, 2, 3)] + ["loss-lion.tsv", "stats-lion.txt"]
        assert result.files == written
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(written)

    def test_empty_pairs_rejected(self, tmp_path):
        model, vocab, _ = _tiny_setup()
        with pytest.raises(ValueError, match="non-empty"):
            run_training(model, vocab, [], TrainConfig(), tmp_path)

    def test_non_finite_loss_aborts_with_step(self, tmp_path):
        model, vocab, pairs = _tiny_setup()
        model.params["head.weight"].data[0, 0] = np.nan
        with pytest.raises(NonFiniteLossError) as err:
            run_training(model, vocab, pairs, TrainConfig(batch_size=8, epochs=1, seed=12), tmp_path)
        assert err.value.step == 0

    def test_resource_stats_populated(self, tmp_path):
        model, vocab, pairs = _tiny_setup()
        result = run_training(model, vocab, pairs, TrainConfig(batch_size=8, epochs=1, seed=12), tmp_path)
        stats = result.stats
        assert stats.n_steps == len(result.loss_log) >= 1
        assert stats.peak_step_ms >= stats.mean_step_ms >= 0.0
        assert stats.std_step_ms >= 0.0
        assert 0.0 < stats.mean_update_ms <= stats.mean_step_ms
        assert stats.optimizer_state_bytes == 8 * sum(p.size for p in model.params.values())

    def test_schedule_total_steps_drives_cosine(self, tmp_path):
        model, vocab, pairs = _tiny_setup(n_triplets=8)  # 16 pairs
        config = TrainConfig(batch_size=8, epochs=2, seed=12, schedule="cosine", warmup_ratio=0.0)
        result = run_training(model, vocab, pairs, config, tmp_path)
        # 4 total steps; lr follows cosine from base_lr toward (not reaching) 0
        lrs = [r.lr for r in result.loss_log]
        assert lrs[0] == config.base_lr
        assert lrs == sorted(lrs, reverse=True)
        assert lrs[-1] > 0.0


def _steps_inputs(model, vocab, pairs, config):
    """What ``run_training`` hands ``steps``: a fresh optimizer, the id matrix and the labels."""
    optimizer = OPTIMIZERS[config.optimizer](model.params, lr=config.base_lr, weight_decay=config.weight_decay)
    ids = np.array([tokenize_pair(vocab, p.query, p.passage, model.config.max_len) for p in pairs], dtype=np.intp)
    return optimizer, ids, np.array([p.label for p in pairs])


class TestSteps:
    @pytest.mark.parametrize("shuffle", [True, False], ids=["shuffle", "in-order"])
    @pytest.mark.parametrize("optimizer", ["lion", "adamw"])
    def test_records_are_run_trainings_loss_log(self, tmp_path, optimizer, shuffle):
        config = TrainConfig(batch_size=10, epochs=2, seed=12, optimizer=optimizer, shuffle=shuffle)
        model, vocab, pairs = _tiny_setup(n_triplets=12)  # 24 pairs: 3 steps per epoch, the last one of 4
        result = run_training(model, vocab, pairs, config, tmp_path)
        fresh, _, _ = _tiny_setup(n_triplets=12)
        records = list(steps(fresh, *_steps_inputs(fresh, vocab, pairs, config), config))
        rows = [[(r.step, r.epoch, r.lr, r.loss) for r in log] for log in (records, result.loss_log)]
        assert rows[0] == rows[1]
        assert [r.step for r in records] == list(range(6))
        assert [r.epoch for r in records] == [1, 1, 1, 2, 2, 2]
        for (name, p), (_, q) in zip(model.params.items(), fresh.params.items()):
            np.testing.assert_array_equal(p.data, q.data, err_msg=name)

    def test_resource_stats_come_from_the_records(self, tmp_path):
        model, vocab, pairs = _tiny_setup()
        result = run_training(model, vocab, pairs, TrainConfig(batch_size=8, epochs=2, seed=12), tmp_path)
        step_ms = np.array([r.step_ms for r in result.loss_log])
        update_ms = [r.update_ms for r in result.loss_log]
        assert all(0.0 < r.update_ms < r.step_ms for r in result.loss_log)
        assert result.stats.n_steps == len(result.loss_log) == 12  # 48 pairs at batch 8, 2 epochs
        assert result.stats.mean_step_ms == float(step_ms.mean())
        assert result.stats.peak_step_ms == float(step_ms.max())
        assert result.stats.std_step_ms == float(step_ms.std())
        assert result.stats.mean_update_ms == float(np.mean(update_ms))
        stats_text = (tmp_path / "stats-lion.txt").read_text(encoding="utf-8")
        assert stats_text == "\n".join(resource_stats_lines(result.stats, "lion")) + "\n"

    @pytest.mark.parametrize("stop", ["break", "close"])
    def test_stopping_early_leaves_no_active_tape_or_gradient(self, stop):
        model, vocab, pairs = _tiny_setup()
        config = TrainConfig(batch_size=8, epochs=2, seed=12)
        records = steps(model, *_steps_inputs(model, vocab, pairs, config), config)
        for record in records:
            break
        if stop == "close":
            records.close()
        assert record.step == 0
        assert tensor._TAPE_STACK == []
        # the optimizer's gradient arena, zeroed after the step
        assert all(p.grad is not None and not p.grad.any() for _, p in model.params.items())

    @pytest.mark.parametrize("bad_step", [0, 4])
    def test_nan_loss_names_its_step(self, monkeypatch, bad_step):
        model, vocab, pairs = _tiny_setup()  # 48 pairs at batch 16: 3 steps per epoch
        config = TrainConfig(batch_size=16, epochs=2, seed=12)
        calls = []
        loss = train_mod.bce_loss

        def nan_at(y_hat, y):
            calls.append(None)
            return Tensor(np.nan) if len(calls) == bad_step + 1 else loss(y_hat, y)

        monkeypatch.setattr(train_mod, "bce_loss", nan_at)
        done = []
        with pytest.raises(NonFiniteLossError) as err:
            done.extend(steps(model, *_steps_inputs(model, vocab, pairs, config), config))
        assert err.value.step == bad_step
        assert math.isnan(err.value.value)
        assert [r.step for r in done] == list(range(bad_step))
        assert tensor._TAPE_STACK == []


class TestStepGraph:
    def test_one_forward_per_step(self, monkeypatch, tmp_path):
        model, vocab, pairs = _tiny_setup(n_triplets=12)  # 24 pairs
        batch_sizes = []
        forward = CrossEncoder.forward

        def counting(self, seqs):
            batch_sizes.append(len(seqs))
            return forward(self, seqs)

        monkeypatch.setattr(CrossEncoder, "forward", counting)
        run_training(model, vocab, pairs, TrainConfig(batch_size=10, epochs=1, seed=12), tmp_path)
        assert batch_sizes == [10, 10, 4]

    def test_graph_freed_without_cycle_collector(self):
        model, vocab, pairs = _tiny_setup(n_triplets=4)
        seqs = [tokenize_pair(vocab, p.query, p.passage, model.config.max_len) for p in pairs]
        labels = np.array([p.label for p in pairs])
        gc.collect()
        gc.disable()
        try:
            with Tape() as tape:
                loss = bce_loss(model.forward(seqs), labels)
            tape.backward(loss)
            tape_ref = weakref.ref(tape)
            del tape, loss
            assert tape_ref() is None
        finally:
            gc.enable()


    def test_desk_step_records_15_nodes(self):
        vocab = Vocab([f"t{i}" for i in range(16)])
        model = CrossEncoder(
            CrossEncoderConfig(vocab_size=vocab.size, d_model=64, n_layers=1, n_heads=2, d_ff=128, max_len=16)
        )
        seqs = [tokenize_pair(vocab, f"t{i % 16}", f"t{i % 7} t{i % 5}", 16) for i in range(64)]
        with Tape() as tape:
            scores = model.forward(seqs)
            forward_nodes = len(tape)
            bce_loss(scores, np.arange(64) % 2)
        assert len(tape) == 15
        assert len(tape) == forward_nodes + 1  # the loss is one node


def _lending(monkeypatch):
    """Record every buffer a tape lends, in order."""
    lent = []
    take = Tape.take

    def recording(self, shape):
        buf = take(self, shape)
        lent.append(buf)
        return buf

    monkeypatch.setattr(Tape, "take", recording)
    return lent


def _step(model, seqs, labels, tape=None):
    """One training step's forward, loss and backward, as ``steps`` runs them: all inside ``tape``, else a fresh one."""
    # Not ``tape or Tape()``: a tape with no nodes is falsy.
    tape = Tape() if tape is None else tape
    with tape:
        loss = bce_loss(model.forward(seqs), labels)
        value = loss.item()
        tape.backward(loss)
    return value


def _desk_faults_per_step(optimizer: str, free_4mb_first: bool) -> float:
    """Minor page faults per desk step (d_model 64, batch 64, max_len 16) over 100 steps of ``steps``.

    Three warm-up steps run first; ``ru_minflt`` is read around the 100 steps only.
    """
    import resource

    if free_4mb_first:
        bytearray(4 << 20)  # allocated and freed at once: glibc then keeps up to 8 MB of freed heap
    config = CrossEncoderConfig(vocab_size=100, d_model=64, n_layers=1, n_heads=2, d_ff=128, max_len=16, seed=12)
    model = CrossEncoder(config)
    ids = np.random.default_rng(0).integers(4, config.vocab_size, size=(103 * 64, config.max_len))
    ids[:, 0] = CLS_ID
    train_config = TrainConfig(batch_size=64, epochs=1, optimizer=optimizer, seed=12)
    opt = OPTIMIZERS[optimizer](model.params, lr=train_config.base_lr, weight_decay=train_config.weight_decay)
    records = steps(model, opt, ids, np.arange(len(ids)) % 2, train_config)
    for _ in range(3):
        next(records)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    n = sum(1 for _ in records)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / n


class TestTapeBuffers:
    def _batches(self, n_layers=1):
        model, vocab, pairs = _tiny_setup(n_triplets=12, n_layers=n_layers)
        seqs = [tokenize_pair(vocab, p.query, p.passage, model.config.max_len) for p in pairs]
        labels = np.array([p.label for p in pairs])
        return model, (seqs[:8], labels[:8]), (seqs[8:16], labels[8:16])

    def test_no_buffer_lent_twice_in_one_pass(self, monkeypatch):
        lent = _lending(monkeypatch)
        model, first, second = self._batches()
        tape = Tape()
        _step(model, *first, tape)
        n = len(lent)
        assert n > 0
        for i in range(n):
            for j in range(i):
                assert not np.shares_memory(lent[i], lent[j]), (i, j)
        # a pass of the same shapes gets the same buffers back, in order
        _step(model, *second, tape)
        assert [id(buf) for buf in lent[n:]] == [id(buf) for buf in lent[:n]]

    @pytest.mark.parametrize("n_layers", [1, 2])  # only a layer before the last runs full-length backward rules
    def test_step_bit_identical_on_fresh_and_reused_tape(self, n_layers):
        runs = []
        for tape in (None, Tape()):  # a fresh tape per pass, then one tape entered twice
            model, first, second = self._batches(n_layers)
            losses = [_step(model, *first, tape)]
            for p in model.params.values():
                p.grad = None
            losses.append(_step(model, *second, tape))  # a pass on reused buffers
            runs.append((losses, {name: p.grad for name, p in model.params.items()}))
        assert runs[0][0] == runs[1][0]
        for name, grad in runs[0][1].items():
            np.testing.assert_array_equal(runs[1][1][name], grad, err_msg=name)

    def test_scores_and_leaf_gradients_own_their_memory(self, monkeypatch):
        lent = _lending(monkeypatch)
        model, first, _ = self._batches()
        tape = Tape()
        _step(model, *first, tape)
        with tape:
            scores = score_batches(model, [first[0]])[0]
        assert lent
        for name, p in model.params.items():
            assert isinstance(p.grad, np.ndarray), name  # the embedding's too: the tape keeps its RowGrad
            assert not any(np.shares_memory(p.grad, buf) for buf in lent), name
            assert not any(np.shares_memory(p.data, buf) for buf in lent), name
        # scores are plain floats: overwriting every lent buffer leaves them as they were
        kept = list(scores)
        for buf in lent:
            buf.fill(np.nan)
        assert scores == kept == score_batches(model, [first[0]])[0]

    @pytest.mark.parametrize("free_4mb_first", [False, True], ids=["fresh-heap", "after-4mb-free"])
    @pytest.mark.parametrize("optimizer", ["lion", "adamw"])
    def test_desk_step_faults_in_no_fresh_pages(self, optimizer, free_4mb_first):
        # Whether fresh allocations fault depends on what the process freed before (glibc raises
        # its mmap and trim thresholds to the largest mmapped chunk freed), so count in a new process.
        pytest.importorskip("resource")
        paths = [str(Path(train_mod.__file__).parents[1]), str(Path(__file__).parent)]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths), "OPENBLAS_NUM_THREADS": "1"}
        probe = f"from test_train import _desk_faults_per_step; print(_desk_faults_per_step({optimizer!r}, {free_4mb_first}))"
        child = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert float(child.stdout) < 10

    def test_nested_entry_rejected(self):
        tape = Tape()
        with tape:
            with pytest.raises(RuntimeError, match="already active"):
                with tape:
                    pass


class TestEfficiencyGain:
    def test_identity_is_zero(self):
        assert efficiency_gain(5.0, 5.0) == 0.0

    def test_gte_row(self):
        assert abs(efficiency_gain(73.04, 65.50) - 10.3231) < 0.01

    def test_modernbert_row(self):
        assert abs(efficiency_gain(77.04, 74.35) - 3.4917) < 0.01

    def test_minilm_row(self):
        assert abs(efficiency_gain(33.09, 32.21) - 2.6594) < 0.01

    def test_nonpositive_baseline_rejected(self):
        with pytest.raises(ValueError):
            efficiency_gain(0.0, 1.0)

    def test_state_bytes_gain_is_about_half(self):
        model, _, _ = _tiny_setup()
        from reranklab.optim import AdamW, Lion

        gain = efficiency_gain(AdamW(model.params).state_bytes(), Lion(model.params).state_bytes())
        assert 49.0 <= gain <= 51.0


class TestLossLogFormat:
    def test_tab_separated_ten_significant_digits(self):
        text = format_loss_log([LossRecord(step=3, epoch=1, lr=1 / 3, loss=2 / 3, step_ms=5.0, update_ms=0.5)])
        assert text == "3\t1\t0.3333333333\t0.6666666667\n"

    def test_empty_log(self):
        assert format_loss_log([]) == ""


class TestShuffleOff:
    def test_unshuffled_order_deterministic_and_distinct(self, tmp_path):
        logs = []
        for shuffle in (False, False, True):
            model, vocab, pairs = _tiny_setup()
            config = TrainConfig(batch_size=8, epochs=1, seed=12, shuffle=shuffle)
            result = run_training(model, vocab, pairs, config, tmp_path)
            logs.append([r.loss for r in result.loss_log])
        assert logs[0] == logs[1]
        assert logs[0] != logs[2]
