"""Adam optimizer with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .errors import TrainingError


class Adam:
    """Adam with bias correction and decoupled weight decay.

    The decay is applied directly to the parameter (p -= lr * wd * p)
    before the moment-based update, so it never enters the m/v buffers.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-4,
        weight_decay: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self._v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> None:
        """One update of every block, or none: every gradient is checked
        before the first block is written or step_count advances."""
        for name, p in self.params.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise TrainingError(f"non-finite gradient in parameter '{name}'")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
