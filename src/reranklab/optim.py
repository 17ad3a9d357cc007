"""Lion and AdamW optimizers plus step-indexed learning-rate schedules.

An optimizer adopts its parameters: their values, their gradients and
each state buffer live in one flat float64 arena per kind, and each
parameter's ``.data`` and ``.grad`` become views of its span. The
autodiff backward pass accumulates into those gradient views in place, so
a step is one sweep over the arenas, slice by slice through two small
scratch arrays, and allocates no parameter-sized temporary. A parameter
the loss does not reach keeps a zero gradient and is decayed like any
other. ``step`` accepts an effective learning rate so an external
schedule can drive it.
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
# Elements per slice of an update. The two scratch arrays stay small
# (2 x 128 KiB), where scratch sized for the arenas would add to peak
# memory for the optimizer's whole life.
_SLICE = 16384


class Optimizer:
    """What Lion and AdamW share: checks, the arenas, checkpoint state.

    A subclass declares its checkpointed hyperparameters in file order
    (``HYPERS``), its buffer prefixes (``BUFFERS``; one zero arena each),
    and whether it counts steps (``COUNTS_STEPS``). Beyond that it holds
    only its per-slice arithmetic, which its ``step`` hands to
    :meth:`_update`. Each subclass defines its own ``step`` and
    ``zero_grad``: ``perfbench/tracing.py`` wraps the ``step`` and
    ``zero_grad`` in each class's own ``__dict__`` and closes a training
    step's span in ``zero_grad``, so one inherited from here would
    silently go untraced. Construction adopts ``params`` into the arenas
    ``values``, ``grads`` and ``state``, in ``params`` order.
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
        if not 0 < lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {lr}")
        if not 0 <= weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {weight_decay}")
        self.beta1, self.beta2 = betas
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got ({self.beta1}, {self.beta2})")
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        total = sum(p.size for p in self.params.values())
        self.values, self.grads = np.empty(total), np.zeros(total)
        self.state = {prefix: np.zeros(total) for prefix in self.BUFFERS}
        self._grad_views = self._views(self.grads)
        for name, data in self._views(self.values).items():
            p = self.params[name]
            data[...] = p.data
            p.data, p.grad = data, self._grad_views[name]
        if self.COUNTS_STEPS:
            self.step_count = 0
        # Update temporaries, not state: see _SLICE.
        self._scratch = (np.empty(_SLICE), np.empty(_SLICE))

    def _views(self, arena: np.ndarray) -> dict[str, np.ndarray]:
        """Each parameter's span of ``arena``, in its shape."""
        views, start = {}, 0
        for name, p in self.params.items():
            views[name] = arena[start : start + p.size].reshape(p.shape)
            start += p.size
        return views

    def _update(self, rule) -> None:
        """Apply ``rule`` in place to the arenas, one slice at a time.

        ``rule(theta, grad, *buffers, s1, s2)`` updates one slice of at
        most ``_SLICE`` elements of ``values``, ``grads`` and the state
        arenas (in ``BUFFERS`` order), with ``s1`` and ``s2`` as scratch.
        A ``.grad`` rebound since adoption would be dropped, so it raises.
        """
        for name, p in self.params.items():
            if p.grad is not self._grad_views[name]:
                raise ShapeError(f"gradient of parameter {name!r} was rebound; write into its .grad in place")
        arenas = (self.values, self.grads, *self.state.values())
        s1, s2 = self._scratch
        for start in range(0, self.values.size, _SLICE):
            views = [a[start : start + _SLICE] for a in arenas]
            n = views[0].size
            rule(*views, s1[:n], s2[:n])

    def buffers(self) -> dict[str, np.ndarray]:
        """Every state buffer, a view of its arena, under its checkpoint key ``<prefix>/<param>``."""
        return {f"{prefix}/{name}": v for prefix, arena in self.state.items() for name, v in self._views(arena).items()}

    def state_bytes(self) -> int:
        """Exact bytes held in state: the buffers plus the step counter, if any."""
        buffers = sum(arena.size * FLOAT_BYTES for arena in self.state.values())
        return buffers + (COUNTER_BYTES if self.COUNTS_STEPS else 0)


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

    def step(self, lr: float | None = None) -> None:
        """Apply one update from the gradients currently on the params."""
        eta = self.lr if lr is None else lr
        beta1, beta2, weight_decay = self.beta1, self.beta2, self.weight_decay

        def rule(theta, grad, m, s1, s2):
            # In place, keeping the IEEE operation order of the formula above.
            np.multiply(beta1, m, out=s1)
            s1 += np.multiply(1.0 - beta1, grad, out=s2)  # c
            # Never np.sign(s1, out=s1): on mixed-sign input numpy's aliased
            # path is about 5x slower than writing to a separate array.
            np.sign(s1, out=s2)
            s2 += np.multiply(weight_decay, theta, out=s1)
            s2 *= eta
            theta -= s2
            m *= beta2
            m += np.multiply(1.0 - beta2, grad, out=s1)

        self._update(rule)

    def zero_grad(self) -> None:
        self.grads.fill(0.0)


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
        if not 0 <= eps < math.inf:
            raise ValueError(f"eps must be finite and >= 0, got {eps}")
        super().__init__(params, lr, betas, weight_decay)
        self.eps = eps

    def step(self, lr: float | None = None) -> None:
        """Apply one update from the gradients currently on the params."""
        eta = self.lr if lr is None else lr
        self.step_count += 1
        t = self.step_count
        beta1, beta2, eps, weight_decay = self.beta1, self.beta2, self.eps, self.weight_decay
        bc1 = 1.0 - beta1**t
        bc2 = 1.0 - beta2**t

        def rule(theta, grad, m, v, s1, s2):
            # In place, keeping the IEEE operation order of the formula above.
            m *= beta1
            m += np.multiply(1.0 - beta1, grad, out=s1)
            v *= beta2
            np.multiply(1.0 - beta2, grad, out=s1)
            v += np.multiply(s1, grad, out=s1)
            np.divide(v, bc2, out=s1)
            np.sqrt(s1, out=s1)
            s1 += eps  # sqrt(vhat) + eps
            np.divide(m, bc1, out=s2)
            s2 /= s1
            s2 += np.multiply(weight_decay, theta, out=s1)
            s2 *= eta
            theta -= s2

        self._update(rule)

    def zero_grad(self) -> None:
        self.grads.fill(0.0)


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
        if not 0 < self.base_lr < math.inf:
            raise ValueError(f"base_lr must be positive and finite, got {self.base_lr}")
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
