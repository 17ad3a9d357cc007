"""Lion and AdamW optimizers plus step-indexed learning-rate schedules.

Both optimizers consume gradients left on the parameter tensors by the
autodiff backward pass and mutate parameter buffers in place. ``step``
accepts an effective learning rate so an external schedule can drive it.
``OPTIMIZERS`` maps each kind name to its class; other modules ask it
rather than naming kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from reranklab.tensor import ShapeError, Tensor

__all__ = ["Optimizer", "Lion", "AdamW", "OPTIMIZERS", "ScheduleSpec", "lr_at"]

FLOAT_BYTES = 8  # float64 buffers everywhere
COUNTER_BYTES = 8  # step counter, one int64
# Elements per slice of an AdamW update. Its two scratch arrays stay small
# (2 x 128 KiB), where scratch sized for the largest parameter (an embedding
# table) would add to peak memory for the optimizer's whole life.
_SLICE = 16384


class Optimizer:
    """What Lion and AdamW share: checks, per-parameter state, checkpoint state.

    A subclass declares its checkpointed hyperparameters in file order
    (``HYPERS``), its buffer prefixes (``BUFFERS``; one zero buffer per
    parameter each), and whether it counts steps (``COUNTS_STEPS``).
    Beyond that it holds only its update rule, in ``step``. Each subclass
    also defines its own ``zero_grad``: ``perfbench/tracing.py`` wraps the
    ``step`` and ``zero_grad`` in each class's own ``__dict__`` and closes
    a training step's span in ``zero_grad``, so one inherited from here
    would silently go untraced.
    """

    name: str
    HYPERS: tuple[str, ...]
    BUFFERS: tuple[str, ...]
    COUNTS_STEPS = False

    def __init__(
        self,
        params: Mapping[str, Tensor],
        lr: float,
        betas: tuple[float, float],
        weight_decay: float,
    ):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.beta1, self.beta2 = betas
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got ({self.beta1}, {self.beta2})")
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.state = {
            prefix: {name: np.zeros_like(p.data) for name, p in self.params.items()} for prefix in self.BUFFERS
        }
        if self.COUNTS_STEPS:
            self.step_count = 0

    def _grads(self):
        """Yield ``(name, param, grad)`` for each parameter holding a gradient."""
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} mismatches parameter {name!r} {p.data.shape}")
            yield name, p, g

    def _buffers(self) -> dict[str, np.ndarray]:
        """Every state buffer under its checkpoint key ``<prefix>/<param>``."""
        return {f"{prefix}/{name}": buf for prefix, store in self.state.items() for name, buf in store.items()}

    def state_bytes(self) -> int:
        """Exact bytes held in state: the buffers plus the step counter, if any."""
        buffers = sum(buf.size * FLOAT_BYTES for buf in self._buffers().values())
        return buffers + (COUNTER_BYTES if self.COUNTS_STEPS else 0)

    def state_dict(self) -> dict:
        """Kind, ``HYPERS`` in order, ``step`` if counted, then ``buffers``."""
        state = {"kind": self.name, **{key: getattr(self, key) for key in self.HYPERS}}
        if self.COUNTS_STEPS:
            state["step"] = self.step_count
        state["buffers"] = self._buffers()
        return state

    def load_state(self, buffers: Mapping[str, np.ndarray], step: int = 0) -> None:
        """Restore every buffer (keys as in ``state_dict``) and the step counter.

        Raises ValueError, before changing anything, if a buffer is missing,
        extra, or mis-shaped.
        """
        own = self._buffers()
        if set(buffers) != set(own):
            raise ValueError(
                f"optimizer state names mismatch parameters: "
                f"missing {sorted(set(own) - set(buffers))}, extra {sorted(set(buffers) - set(own))}"
            )
        for key, buf in own.items():
            if buffers[key].shape != buf.shape:
                raise ShapeError(f"optimizer state {key!r} has shape {buffers[key].shape}, expected {buf.shape}")
        for key, buf in own.items():
            buf[...] = buffers[key]
        if self.COUNTS_STEPS:
            self.step_count = step


class Lion(Optimizer):
    """Sign-momentum optimizer.

    Per coordinate, with gradient g and momentum m:

        c = beta1 * m + (1 - beta1) * g
        theta -= lr * (sign(c) + weight_decay * theta)
        m = beta2 * m + (1 - beta2) * g

    sign(0) is 0, so a zero gradient with zero momentum is a fixed point.
    The momentum update uses the original gradient, after the parameter
    update. Keeps a single buffer per parameter.
    """

    name = "lion"
    HYPERS = ("lr", "beta1", "beta2", "weight_decay")
    BUFFERS = ("m",)

    def __init__(
        self,
        params: Mapping[str, Tensor],
        lr: float = 1e-4,
        betas: tuple[float, float] = (0.9, 0.99),
        weight_decay: float = 0.01,
    ):
        super().__init__(params, lr, betas, weight_decay)
        self.momentum = self.state["m"]

    def step(self, lr: float | None = None) -> None:
        """Apply one update from the gradients currently on the params."""
        eta = self.lr if lr is None else lr
        for name, p, g in self._grads():
            m = self.momentum[name]
            c = self.beta1 * m + (1.0 - self.beta1) * g
            p.data -= eta * (np.sign(c) + self.weight_decay * p.data)
            m *= self.beta2
            m += (1.0 - self.beta2) * g

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


class AdamW(Optimizer):
    """Adam with decoupled weight decay and bias correction.

    Per coordinate, at step t (1-based):

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g^2
        mhat = m / (1 - beta1^t);  vhat = v / (1 - beta2^t)
        theta -= lr * (mhat / (sqrt(vhat) + eps) + weight_decay * theta)

    Keeps two buffers per parameter plus the step counter.
    """

    name = "adamw"
    HYPERS = ("lr", "beta1", "beta2", "eps", "weight_decay")
    BUFFERS = ("m", "v")
    COUNTS_STEPS = True

    def __init__(
        self,
        params: Mapping[str, Tensor],
        lr: float = 1e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ):
        if eps < 0:
            raise ValueError(f"eps must be >= 0, got {eps}")
        super().__init__(params, lr, betas, weight_decay)
        self.eps = eps
        self.moment1, self.moment2 = self.state["m"], self.state["v"]
        # Update temporaries, not state: see _SLICE.
        self._scratch = (np.empty(_SLICE), np.empty(_SLICE))

    def step(self, lr: float | None = None) -> None:
        eta = self.lr if lr is None else lr
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for name, p, g in self._grads():
            # Flat views of C-contiguous arrays, so the writes reach the parameter and its moments.
            flat = (p.data.reshape(-1), g.reshape(-1), self.moment1[name].reshape(-1), self.moment2[name].reshape(-1))
            for start in range(0, p.size, _SLICE):
                theta, grad, m, v = (a[start : start + _SLICE] for a in flat)
                s1, s2 = self._scratch[0][: theta.size], self._scratch[1][: theta.size]
                # In place, keeping the IEEE operation order of the formula above.
                m *= self.beta1
                m += np.multiply(1.0 - self.beta1, grad, out=s1)
                v *= self.beta2
                np.multiply(1.0 - self.beta2, grad, out=s1)
                v += np.multiply(s1, grad, out=s1)
                np.divide(v, bc2, out=s1)
                np.sqrt(s1, out=s1)
                s1 += self.eps  # sqrt(vhat) + eps
                np.divide(m, bc1, out=s2)
                s2 /= s1
                s2 += np.multiply(self.weight_decay, theta, out=s1)
                s2 *= eta
                theta -= s2

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()


# Kind name -> class; the one list of optimizer kinds, in CLI order.
OPTIMIZERS: dict[str, type[Optimizer]] = {cls.name: cls for cls in (Lion, AdamW)}


@dataclass(frozen=True)
class ScheduleSpec:
    """Learning-rate schedule over a fixed number of steps.

    ``constant`` returns base_lr everywhere. ``cosine`` ramps linearly
    over the first floor(warmup_ratio * total_steps) steps, then anneals
    to zero at total_steps; warmup applies only to the cosine kind.
    """

    kind: str
    base_lr: float
    warmup_ratio: float = 0.0
    total_steps: int = 1

    def __post_init__(self):
        if self.kind not in ("constant", "cosine"):
            raise ValueError(f"schedule kind must be 'constant' or 'cosine', got {self.kind!r}")
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be positive, got {self.base_lr}")
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ValueError(f"warmup_ratio must lie in [0, 1), got {self.warmup_ratio}")
        if self.total_steps < 1:
            raise ValueError(f"total_steps must be >= 1, got {self.total_steps}")


def lr_at(spec: ScheduleSpec, step: int) -> float:
    """Effective learning rate at a 0-based step index."""
    if step < 0 or step > spec.total_steps:
        raise ValueError(f"step {step} outside [0, {spec.total_steps}]")
    if spec.kind == "constant":
        return spec.base_lr
    warmup_steps = math.floor(spec.warmup_ratio * spec.total_steps)
    if step < warmup_steps:
        return spec.base_lr * (step + 1) / warmup_steps
    span = spec.total_steps - warmup_steps
    return spec.base_lr * 0.5 * (1.0 + math.cos(math.pi * (step - warmup_steps) / span))
