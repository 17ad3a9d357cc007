"""Lion and AdamW optimizers plus step-indexed learning-rate schedules.

Both optimizers consume gradients left on the parameter tensors by the
autodiff backward pass and mutate parameter buffers in place, slice by
slice through two small scratch arrays, so a step allocates no
parameter-sized temporary. A :class:`~reranklab.tensor.RowGrad` gradient
costs the touched rows plus one zero-gradient pass over the table, with
the same bits as its dense gradient. ``step`` accepts an effective
learning rate so an external schedule can drive it.
``OPTIMIZERS`` maps each kind name to its class; other modules ask it
rather than naming kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from reranklab.tensor import RowGrad, ShapeError, Tensor

__all__ = ["Optimizer", "Lion", "AdamW", "OPTIMIZERS", "ScheduleSpec", "lr_at"]

FLOAT_BYTES = 8  # float64 buffers everywhere
COUNTER_BYTES = 8  # step counter, one int64
# Elements per slice of an update. The two scratch arrays stay small
# (2 x 128 KiB), where scratch sized for the largest parameter (an embedding
# table) would add to peak memory for the optimizer's whole life.
_SLICE = 16384
# The gradient of the rows a RowGrad leaves out: +0.0, as in a dense one.
_ZEROS = np.zeros(_SLICE)
_ZEROS.flags.writeable = False


class Optimizer:
    """What Lion and AdamW share: checks, per-parameter state, checkpoint state.

    A subclass declares its checkpointed hyperparameters in file order
    (``HYPERS``), its buffer prefixes (``BUFFERS``; one zero buffer per
    parameter each), and whether it counts steps (``COUNTS_STEPS``).
    Beyond that it holds only its per-slice arithmetic, which its ``step``
    hands to :meth:`_update`. Each subclass defines its own ``step`` and
    ``zero_grad``: ``perfbench/tracing.py`` wraps the ``step`` and
    ``zero_grad`` in each class's own ``__dict__`` and closes a training
    step's span in ``zero_grad``, so one inherited from here would
    silently go untraced.
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
        self.state = {
            prefix: {name: np.zeros_like(p.data) for name, p in self.params.items()} for prefix in self.BUFFERS
        }
        if self.COUNTS_STEPS:
            self.step_count = 0
        # Update temporaries, not state: see _SLICE.
        self._scratch = (np.empty(_SLICE), np.empty(_SLICE))

    def _grads(self):
        """Yield ``(name, param, grad)`` for each parameter holding a gradient."""
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ShapeError(f"gradient shape {g.shape} mismatches parameter {name!r} {p.data.shape}")
            yield name, p, g

    def _update(self, rule) -> None:
        """Apply ``rule`` in place to every parameter holding a gradient.

        ``rule(theta, grad, *buffers, s1, s2)`` updates one slice of at
        most ``_SLICE`` elements of a parameter and of its state buffers
        (in ``BUFFERS`` order), with ``s1`` and ``s2`` as scratch. For a
        ``RowGrad`` the touched rows of the parameter and its buffers are
        gathered first; the rule then runs over the whole table with a zero
        gradient, which is what the dense gradient holds outside those rows,
        and over the gathered rows with ``values``, which are scattered
        back. Each element thus sees the arithmetic, and gets the bits, of
        the dense update.
        """
        for name, p, g in self._grads():
            arrays = (p.data, *(self.state[prefix][name] for prefix in self.BUFFERS))
            if not isinstance(g, RowGrad):
                self._sweep(rule, arrays, g)
            else:
                touched = tuple(a[g.rows] for a in arrays)
                self._sweep(rule, arrays, None)
                self._sweep(rule, touched, g.values)
                for a, rows in zip(arrays, touched):
                    a[g.rows] = rows

    def _sweep(self, rule, arrays: tuple[np.ndarray, ...], grad: np.ndarray | None) -> None:
        """Run ``rule`` slice by slice over ``arrays``; a None ``grad`` is all +0.0."""
        # Flat views of C-contiguous arrays, so the writes reach the parameter and its buffers.
        flat = [a.reshape(-1) for a in arrays]
        grad = None if grad is None else grad.reshape(-1)
        s1, s2 = self._scratch
        for start in range(0, flat[0].size, _SLICE):
            views = [a[start : start + _SLICE] for a in flat]
            n = views[0].size
            g = _ZEROS[:n] if grad is None else grad[start : start + _SLICE]
            rule(views[0], g, *views[1:], s1[:n], s2[:n])

    def buffers(self) -> dict[str, np.ndarray]:
        """Every state buffer under its checkpoint key ``<prefix>/<param>``."""
        return {f"{prefix}/{name}": buf for prefix, store in self.state.items() for name, buf in store.items()}

    def state_bytes(self) -> int:
        """Exact bytes held in state: the buffers plus the step counter, if any."""
        buffers = sum(buf.size * FLOAT_BYTES for buf in self.buffers().values())
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
