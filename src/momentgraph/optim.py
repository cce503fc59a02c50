"""Adam optimizer with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import TrainingError

BETA1 = 0.9  # decay of the first-moment average
BETA2 = 0.999  # decay of the second-moment average
EPS = 1e-8  # added to the root of the second moment, so an entry whose gradients were all zero divides by no zero


class Adam:
    """Adam with bias correction and decoupled weight decay.

    The decay is applied directly to the parameter (p -= lr * wd * p)
    before the moment-based update, so it never enters the m/v buffers.

    One vector `data` (and `grad`) packs every block in registry order; each
    parameter's .data and .grad are views into it, written in place, never rebound.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-4, weight_decay: float = 1e-3):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._ends = np.cumsum([p.data.size for p in params.values()])
        self.data = np.concatenate([p.data.ravel() for p in params.values()])
        self.grad = np.zeros_like(self.data)
        for p, data, grad in zip(params.values(), np.split(self.data, self._ends[:-1]), np.split(self.grad, self._ends[:-1])):
            p.data, p.grad = data.reshape(p.data.shape), grad.reshape(p.data.shape)
        self._m = np.zeros_like(self.data)
        self._v = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def step(self) -> None:
        """One update of the whole vector, or none: the gradient is checked
        before anything is written or step_count advances."""
        finite = np.isfinite(self.grad)
        if not finite.all():
            block = np.searchsorted(self._ends, np.argmin(finite), side="right")
            raise TrainingError(f"non-finite gradient in parameter '{list(self.params)[block]}'")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1**t
        bc2 = 1.0 - BETA2**t
        if self.weight_decay:
            self.data -= self.lr * self.weight_decay * self.data
        self._m *= BETA1
        self._m += (1.0 - BETA1) * self.grad
        self._v *= BETA2
        self._v += (1.0 - BETA2) * (self.grad * self.grad)
        self.data -= self.lr * (self._m / bc1) / (np.sqrt(self._v / bc2) + EPS)
