"""Optimizer update rules and learning-rate schedules."""

import tracemalloc

import numpy as np
import pytest

import oracles
from reranklab import tensor as T
from reranklab.optim import OPTIMIZERS, AdamW, Lion, ScheduleSpec, lr_at
from reranklab.tensor import ShapeError, Tape, Tensor

from conftest import same_bits


def make_params(values):
    return {name: Tensor(np.asarray(v, dtype=np.float64)) for name, v in values.items()}


def set_grads(params, grads):
    # in place: an optimizer's parameters hold views of its gradient arena
    for name, g in grads.items():
        params[name].grad[...] = g


class TestLion:
    def test_single_step_oracle(self):
        # theta0=1, m0=0, g=2, lr=0.1, wd=0, betas=(0.9, 0.99)
        params = make_params({"w": [1.0]})
        opt = Lion(params, lr=0.1, betas=(0.9, 0.99), weight_decay=0.0)
        set_grads(params, {"w": [2.0]})
        opt.step()
        assert abs(params["w"].data[0] - 0.9) < 1e-15
        assert abs(opt.buffers()["m/w"][0] - 0.02) < 1e-15

    def test_zero_gradient_fixed_point(self):
        params = make_params({"w": [1.5, -2.0]})
        opt = Lion(params, lr=0.1, weight_decay=0.0)
        set_grads(params, {"w": [0.0, 0.0]})
        opt.step()
        np.testing.assert_array_equal(params["w"].data, [1.5, -2.0])
        np.testing.assert_array_equal(opt.buffers()["m/w"], [0.0, 0.0])

    def test_update_magnitude_is_exactly_lr(self, rng):
        params = make_params({"w": rng.normal(size=20)})
        opt = Lion(params, lr=0.05, weight_decay=0.0)
        for _ in range(5):
            before = params["w"].data.copy()
            set_grads(params, {"w": rng.normal(size=20)})
            opt.step()
            deltas = np.abs(params["w"].data - before)
            # applied update is exactly +-lr; the observed difference can
            # deviate by one rounding ulp of theta
            assert all(d == 0.0 or abs(d - 0.05) < 1e-15 for d in deltas)

    def test_momentum_uses_original_gradient_after_update(self):
        params = make_params({"w": [0.0]})
        opt = Lion(params, lr=1.0, betas=(0.5, 0.5), weight_decay=1.0)
        set_grads(params, {"w": [4.0]})
        opt.step()
        # momentum from raw g, not from the decayed parameter
        assert opt.buffers()["m/w"][0] == 2.0

    def test_scale_invariance_bitwise(self, rng):
        length, dims = 50, 8
        grads = rng.normal(size=(length, dims))
        trajectories = []
        for c in (1e-6, 1.0, 1e6):
            params = make_params({"w": np.linspace(-1, 1, dims)})
            opt = Lion(params, lr=0.01, weight_decay=0.01)
            history = []
            for t in range(length):
                set_grads(params, {"w": c * grads[t]})
                opt.step()
                history.append(params["w"].data.copy())
            trajectories.append(np.stack(history))
        np.testing.assert_array_equal(trajectories[0], trajectories[1])
        np.testing.assert_array_equal(trajectories[1], trajectories[2])

    def test_deterministic(self, rng):
        g = rng.normal(size=6)
        results = []
        for _ in range(2):
            params = make_params({"w": np.arange(6.0)})
            opt = Lion(params, lr=0.02)
            set_grads(params, {"w": g})
            opt.step()
            results.append(params["w"].data.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_shape_mismatch_names_parameter(self):
        params = make_params({"emb": np.ones((2, 2))})
        opt = Lion(params)
        params["emb"].grad = np.ones(3)
        with pytest.raises(ShapeError, match="emb"):
            opt.step()

    def test_zero_gradient_decays_every_parameter(self):
        # weight decay lives on the shared base; with a zero gradient both
        # kinds move every parameter by lr * weight_decay * theta alone
        for cls in OPTIMIZERS.values():
            params = make_params({"w": [1.0], "bias": [1.0]})
            opt = cls(params, lr=0.1, weight_decay=0.5)
            set_grads(params, {"w": [0.0], "bias": [0.0]})
            opt.step()
            assert params["w"].data[0] == params["bias"].data[0] == 1.0 - 0.1 * 0.5


class TestAdamW:
    def test_single_step_oracle(self):
        # theta0=1, g=2, lr=0.1, betas=(0.9, 0.999), eps=0, wd=0.01 -> 0.899
        params = make_params({"w": [1.0]})
        opt = AdamW(params, lr=0.1, betas=(0.9, 0.999), eps=0.0, weight_decay=0.01)
        set_grads(params, {"w": [2.0]})
        opt.step()
        assert abs(params["w"].data[0] - 0.899) < 1e-12
        assert abs(opt.buffers()["m/w"][0] - 0.2) < 1e-15
        assert abs(opt.buffers()["v/w"][0] - 0.004) < 1e-15

    def test_zero_gradient_no_move(self):
        params = make_params({"w": [3.0]})
        opt = AdamW(params, lr=0.1, weight_decay=0.0)
        set_grads(params, {"w": [0.0]})
        opt.step()
        assert params["w"].data[0] == 3.0

    def test_first_step_is_lr_times_sign(self, rng):
        g = rng.normal(size=12)
        params = make_params({"w": np.zeros(12)})
        opt = AdamW(params, lr=0.01, eps=0.0, weight_decay=0.0)
        set_grads(params, {"w": g})
        opt.step()
        np.testing.assert_allclose(params["w"].data, -0.01 * np.sign(g), atol=1e-9)

    def test_decoupled_decay_closed_form(self):
        lr, wd, steps = 0.05, 0.1, 7
        params = make_params({"w": [2.0]})
        opt = AdamW(params, lr=lr, weight_decay=wd)
        for _ in range(steps):
            set_grads(params, {"w": [0.0]})
            opt.step()
        assert abs(params["w"].data[0] - 2.0 * (1 - lr * wd) ** steps) < 1e-12

    def test_step_counter_monotonic(self):
        params = make_params({"w": [1.0]})
        opt = AdamW(params)
        for expected in (1, 2, 3):
            set_grads(params, {"w": [1.0]})
            opt.step()
            assert opt.step_count == expected

    def test_deterministic(self, rng):
        g = rng.normal(size=4)
        results = []
        for _ in range(2):
            params = make_params({"w": np.ones(4)})
            opt = AdamW(params, lr=0.02)
            set_grads(params, {"w": g})
            opt.step()
            results.append(params["w"].data.copy())
        np.testing.assert_array_equal(results[0], results[1])

    def test_in_place_update_matches_plain_formula_bit_for_bit(self, rng):
        # 205 * 97 elements span one full update slice and part of a second
        shapes = {"table": (205, 97), "bias": (3,)}
        params = make_params({name: rng.normal(size=shape) for name, shape in shapes.items()})
        opt = AdamW(params, lr=1e-3, weight_decay=0.01)
        ref = {name: p.data.copy() for name, p in params.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        for t in range(1, 6):
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            set_grads(params, grads)
            opt.step(lr=1e-3 * t)
            bc1, bc2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            for name, g in grads.items():
                m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
                v[name] = 0.999 * v[name] + (1.0 - 0.999) * g * g
                step = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + 1e-8) + 0.01 * ref[name]
                ref[name] = ref[name] - 1e-3 * t * step
        for name, p in params.items():
            np.testing.assert_array_equal(p.data, ref[name], err_msg=name)
            np.testing.assert_array_equal(opt.buffers()[f"v/{name}"], v[name], err_msg=name)

    def test_shape_mismatch_names_parameter(self):
        params = make_params({"head": np.ones(4)})
        opt = AdamW(params)
        params["head"].grad = np.ones(5)
        with pytest.raises(ShapeError, match="head"):
            opt.step()


class TestAdoption:
    """An optimizer's parameters live in its arenas; each has a gradient, reached or not."""

    @pytest.mark.parametrize("kind", list(OPTIMIZERS))
    def test_parameter_the_loss_does_not_reach_decays(self, kind):
        params = make_params({"used": [1.0, 2.0], "unused": [[1.0, -4.0]]})
        opt = OPTIMIZERS[kind](params, lr=0.1, weight_decay=0.5)
        theta = params["unused"].data.copy()
        with Tape() as tape:
            loss = oracles.reduce_sum(params["used"])
        tape.backward(loss)
        opt.step()
        # a zero gradient with zero state: the step is lr * weight_decay * theta alone
        assert same_bits(params["unused"].data, theta - 0.1 * (0.5 * theta))

    @pytest.mark.parametrize("kind", list(OPTIMIZERS))
    def test_rebound_gradient_of_right_shape_names_parameter(self, kind):
        params = make_params({"w": [1.0], "head": np.ones(4)})
        opt = OPTIMIZERS[kind](params)
        params["head"].grad = np.ones(4)  # not the optimizer's view: the update would drop it
        with pytest.raises(ShapeError, match="'head'"):
            opt.step()
        assert params["w"].data[0] == 1.0 and (params["head"].data == 1.0).all()


def lookup_backward(table, ids, upstream):
    """Backward of sum(lookup(table, ids) * upstream): the table's gradient is the scatter of ``upstream``."""
    with Tape() as tape:
        loss = oracles.reduce_sum(oracles.mul(T.embedding_lookup(table, ids), upstream))
    tape.backward(loss)


class TestRowGradUpdate:
    # 19,200 elements: the update's slice boundary (16,384) falls at row 256.
    SHAPE = (300, 64)

    def _ids(self, rng, extra):
        # repeated ids, on both sides of the slice boundary and at both ends
        ids = np.concatenate([[255, 256, 255, 256, 0, 299, 0], rng.integers(0, 300, size=9)])
        return np.concatenate([ids, rng.permutation(300)[:extra]]).reshape(2, -1)

    # 280 extra rows make the gathered block itself longer than one slice;
    # 300 touch every row, whose values are the dense gradient
    @pytest.mark.parametrize("extra", [0, 280, 300])
    @pytest.mark.parametrize("kind", list(OPTIMIZERS))
    def test_matches_dense_formula_bit_for_bit(self, rng, kind, extra):
        table = Tensor(rng.normal(size=self.SHAPE))
        bias = Tensor(rng.normal(size=5))  # a dense gradient alongside
        opt = OPTIMIZERS[kind]({"table": table, "bias": bias}, lr=1e-3, weight_decay=0.01)
        # Untouched rows start with momentum -0.0 (which the dense formula
        # turns into +0.0) and a negative subnormal (whose sign moves theta).
        buffers = opt.buffers()  # the optimizer's own arrays
        buffers["m/table"][0::2] = -0.0
        buffers["m/table"][1::2] = -5e-324
        if kind == "adamw":
            buffers["v/table"][0::3] = -0.0
        ref = {"table": table.data.copy(), "bias": bias.data.copy(), **{k: b.copy() for k, b in buffers.items()}}
        for t in range(1, 6):
            ids = self._ids(rng, extra)
            upstream = rng.normal(size=ids.shape + (self.SHAPE[1],))
            lookup_backward(table, ids, upstream)
            bias.grad[...] = rng.normal(size=5)
            # the lookup's rows were scattered into the optimizer's zeroed gradient arena
            assert isinstance(table.grad, np.ndarray) and table.grad.base is opt.grads
            assert table.grad.any(axis=1).all() == (extra == 300)
            grads = {"table": oracles.dense_scatter(self.SHAPE, ids, upstream), "bias": bias.grad.copy()}
            assert same_bits(table.grad, grads["table"])
            lr = 1e-3 * t
            opt.step(lr=lr)
            opt.zero_grad()
            for name, g in grads.items():
                m, v = f"m/{name}", f"v/{name}"
                if kind == "lion":
                    ref[name], ref[m] = oracles.lion_dense(
                        ref[name], ref[m], g, lr, opt.beta1, opt.beta2, opt.weight_decay
                    )
                else:
                    ref[name], ref[m], ref[v] = oracles.adamw_dense(
                        ref[name], ref[m], ref[v], g, t, lr, opt.beta1, opt.beta2, opt.eps, opt.weight_decay
                    )
        got = {"table": table.data, "bias": bias.data, **opt.buffers()}
        for key, want in ref.items():
            assert same_bits(got[key], want), key


class TestAllocation:
    """An update allocates no parameter-sized temporary (one is 1.28 MB here)."""

    @pytest.mark.parametrize("form", ["rows", "dense"])
    @pytest.mark.parametrize("kind", list(OPTIMIZERS))
    def test_step_peak_below_512_kib(self, rng, kind, form):
        table = Tensor(rng.normal(size=(2500, 64)))
        opt = OPTIMIZERS[kind]({"table": table}, lr=1e-3)
        for _ in range(2):  # the second step runs on warm state
            ids = rng.integers(0, 2500, size=(4, 16))
            if form == "rows":
                lookup_backward(table, ids, rng.normal(size=(4, 16, 64)))
            else:
                table.grad[...] = rng.normal(size=table.shape)
            assert table.grad.base is opt.grads
            tracemalloc.start()
            try:
                opt.step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            opt.zero_grad()
            assert peak < 512 * 1024, peak


class TestRegistry:
    def test_kinds_in_cli_order(self):
        assert list(OPTIMIZERS) == ["lion", "adamw"]
        assert all(cls.name == kind for kind, cls in OPTIMIZERS.items())

    @pytest.mark.parametrize("kind", list(OPTIMIZERS))
    def test_step_and_zero_grad_on_the_class_itself(self, kind):
        # perfbench/tracing.py wraps each class's own step and zero_grad, and
        # closes a training step's span in zero_grad; inherited ones go untraced.
        assert "step" in vars(OPTIMIZERS[kind])
        assert "zero_grad" in vars(OPTIMIZERS[kind])

    @pytest.mark.parametrize(
        "kwargs, named",
        [({"lr": 0.0}, "lr"), ({"weight_decay": -0.1}, "weight_decay"), ({"betas": (0.9, 1.0)}, "betas"),
         # nan fails every comparison, so a bare `lr <= 0` check lets it through
         ({"lr": float("nan")}, "lr"), ({"lr": float("inf")}, "lr"),
         ({"weight_decay": float("nan")}, "weight_decay"), ({"weight_decay": float("inf")}, "weight_decay")],
    )
    def test_hyperparameter_checks_every_kind(self, kwargs, named):
        for cls in OPTIMIZERS.values():
            with pytest.raises(ValueError, match=named):
                cls({}, **kwargs)

    def test_lion_rejects_nan_lr(self):
        with pytest.raises(ValueError):
            Lion(make_params({"w": [1.0]}), lr=float("nan"))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_adamw_eps_is_rejected(self, value):
        with pytest.raises(ValueError, match="^eps must be "):
            AdamW({}, eps=value)


class TestStateBytes:
    def test_thousand_parameter_example(self):
        params = make_params({"w": np.zeros(1000)})
        assert Lion(params).state_bytes() == 8000
        assert AdamW(params).state_bytes() == 16000 + 8

    def test_empty_parameter_set(self):
        assert Lion({}).state_bytes() == 0
        assert AdamW({}).state_bytes() == 8

    @pytest.mark.parametrize("count", [100, 1000, 10_000])
    def test_ratio_near_half(self, count):
        params = make_params({"w": np.zeros(count)})
        ratio = Lion(params).state_bytes() / AdamW(params).state_bytes()
        assert 0.49 <= ratio <= 0.51

    def test_lion_at_most_half_plus_constant(self, rng):
        for count in (1, 17, 256, 4096):
            params = make_params({"w": np.zeros(count)})
            assert Lion(params).state_bytes() <= 0.5 * AdamW(params).state_bytes()


class TestSchedule:
    def test_constant_ignores_warmup(self):
        spec = ScheduleSpec(kind="constant", base_lr=3e-4, warmup_ratio=0.1, total_steps=100)
        assert all(lr_at(spec, s) == 3e-4 for s in range(101))

    def test_cosine_ends_at_zero(self):
        spec = ScheduleSpec(kind="cosine", base_lr=1e-3, warmup_ratio=0.0, total_steps=40)
        assert lr_at(spec, 40) == 0.0

    def test_cosine_warmup_and_midpoint(self):
        spec = ScheduleSpec(kind="cosine", base_lr=2e-6, warmup_ratio=0.1, total_steps=1000)
        assert abs(lr_at(spec, 50) - 1.02e-6) < 1e-18
        assert abs(lr_at(spec, 550) - 1e-6) < 1e-18

    def test_warmup_boundary_continuity(self):
        spec = ScheduleSpec(kind="cosine", base_lr=1e-3, warmup_ratio=0.2, total_steps=200)
        warmup_steps = int(0.2 * 200)
        jump = abs(lr_at(spec, warmup_steps) - lr_at(spec, warmup_steps - 1))
        assert jump <= spec.base_lr / warmup_steps

    def test_step_out_of_range(self):
        spec = ScheduleSpec(kind="cosine", base_lr=1e-3, total_steps=10)
        with pytest.raises(ValueError):
            lr_at(spec, 11)
        with pytest.raises(ValueError):
            lr_at(spec, -1)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ScheduleSpec(kind="linear", base_lr=1e-3)
        with pytest.raises(ValueError):
            ScheduleSpec(kind="cosine", base_lr=0.0)
        with pytest.raises(ValueError):
            ScheduleSpec(kind="cosine", base_lr=1e-3, warmup_ratio=1.0)
        with pytest.raises(ValueError):
            ScheduleSpec(kind="cosine", base_lr=1e-3, total_steps=0)
        for base_lr in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^base_lr must be positive and finite"):
                ScheduleSpec(kind="constant", base_lr=base_lr)

    def test_tiny_run_has_no_warmup_division_issue(self):
        spec = ScheduleSpec(kind="cosine", base_lr=1e-3, warmup_ratio=0.1, total_steps=5)
        assert lr_at(spec, 0) == 1e-3  # floor(0.5) = 0 warmup steps
