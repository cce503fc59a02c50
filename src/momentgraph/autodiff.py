"""Dense float64 tensors with reverse-mode automatic differentiation.

The engine is deliberately small: 2-D (and 1-D) arrays, three primitives
(add, gather_rows, dropout), SortedSegments for the segment sums and
softmaxes, and a tape that records operations in execution order. Every
op, the fused stages of text, visual, graph, temporal and losses too,
records one node through record(); only backward() adds to .grad.
Recording only happens while a GradientTape is active, so evaluation-mode
forward passes carry no bookkeeping overhead.

Tensors are immutable values; a tape is single-threaded and must not be
shared between workers.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ContractError, DimensionError, InputError

_ACTIVE_TAPE: "GradientTape | None" = None


class GradientTape:
    """Ordered record of primitive operations, replayed in reverse by backward()."""

    def __init__(self):
        self._nodes: list[Tensor] = []

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise ContractError("nested gradient tapes are not supported")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def __len__(self):
        return len(self._nodes)


def active_tape() -> GradientTape | None:
    return _ACTIVE_TAPE


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_inputs", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._inputs: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # the one operator the package uses, between tensors of one shape
    def __add__(self, other):
        return add(self, other) if isinstance(other, Tensor) else NotImplemented

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))


def recording(inputs) -> bool:
    """Whether an op over inputs is recorded: a tape is active and a gradient
    flows to one of them. A fused op keeps its backward state only then."""
    return active_tape() is not None and any(t.requires_grad for t in inputs)


def record(data: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap an op's output, recording it on the active tape when gradients flow.
    backward_fn(g) returns one gradient (an array of the input's shape) or
    None per input, in inputs order, and writes no .grad itself."""
    out = Tensor(data)
    if recording(inputs):
        out.requires_grad = True
        out._inputs = inputs
        out._backward = backward_fn
        _ACTIVE_TAPE._nodes.append(out)
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add g to t.grad. A first gradient is copied, never kept: a backward
    may hand one array to several inputs (add's does)."""
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise ContractError(f"gradient of shape {g.shape} for a tensor of shape {t.data.shape}")
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64, order="C")
    else:
        t.grad += g


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two operands of one shape."""
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add: shapes {a.data.shape} and {b.data.shape}")
    return record(a.data + b.data, (a, b), lambda g: (g, g))


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows of a 2-D tensor by index (with repetition); backward scatter-adds."""
    idx = np.asarray(indices, dtype=np.intp)
    data = a.data[idx]

    def backward(g):
        scatter = np.zeros_like(a.data)
        np.add.at(scatter, idx, g)
        return (scatter,)

    return record(data, (a,), backward)


class SortedSegments:
    """A sorted id -> segment map for np.add.reduceat and np.maximum.reduceat,
    the one layout of a stacked axis, built once by the code that stacks it.

    The starts of the non-empty segments are found once, so each reduction
    is one CSR-style ufunc call along the axis the ids index: axis 0 of the
    tape ops' rows x k tensors, the last axis of the spatial graph's
    latent x rows arrays, where every segment reads contiguous memory. An
    empty segment reduces to exact zeros. Unsorted or out-of-range ids are a
    ContractError.
    """

    def __init__(self, ids, n_segments: int, what: str):
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size and (ids[0] < 0 or ids[-1] >= n_segments or (ids[1:] < ids[:-1]).any()):
            raise ContractError(f"{what}: segment ids must be sorted and in [0, {n_segments})")
        self.counts = np.bincount(ids, minlength=n_segments)
        self.rows = ids.size
        self.present = np.flatnonzero(self.counts)
        self.starts = (np.cumsum(self.counts) - self.counts)[self.present]

    @classmethod
    def from_counts(cls, counts, what: str) -> "SortedSegments":
        """The map of consecutive segments of these row counts."""
        return cls(np.repeat(np.arange(len(counts)), counts), len(counts), what)

    @cached_property
    def packed(self) -> tuple[np.ndarray, np.ndarray]:
        """(perm, bounds), the order a BiGRU runs the segments in as sequences,
        built on first use and kept for every layer over them: side by side,
        longest first, so the ones running at step s are the first k_s rows
        of the state and a finished one keeps its state. perm maps each
        direction's packed rows (step by step) to stacked rows, forward then
        reversed; both share the step bounds, so each step is one contiguous
        slice. An empty segment, or none, is an InputError."""
        if self.counts.size < 1 or self.present.size < self.counts.size:
            raise InputError("bigru_forward needs at least one row per sequence")
        order = np.argsort(-self.counts, kind="stable")
        lens, starts = self.counts[order], self.starts[order]
        steps = np.arange(lens[0])[:, None]
        running = lens > steps
        perm = np.stack([(starts + steps)[running], (starts + (lens - 1 - steps))[running]])
        return perm, np.concatenate([[0], np.cumsum(running.sum(axis=1))])

    def sum(self, x: np.ndarray, axis: int) -> np.ndarray:
        """x with its slices along axis summed per segment: n_segments long there."""
        return self._reduce(np.add, x, axis)

    def _reduce(self, ufunc, x: np.ndarray, axis: int) -> np.ndarray:
        if self.present.size == self.counts.size:
            return ufunc.reduceat(x, self.starts, axis=axis)
        shape = list(x.shape)
        shape[axis] = self.counts.size
        out = np.zeros(shape)
        if self.present.size:
            np.moveaxis(out, axis, 0)[self.present] = np.moveaxis(ufunc.reduceat(x, self.starts, axis=axis), axis, 0)
        return out

    def expand(self, x: np.ndarray, axis: int) -> np.ndarray:
        """Each id's segment slice of x along axis, the adjoint of sum, written C-ordered."""
        return np.repeat(x, self.counts, axis=axis)

    def softmax(self, x: np.ndarray) -> np.ndarray:
        """Softmax of x's rows within each segment, shifted by its maximum: a 1-row segment is 1.0."""
        e = np.exp(x - self.expand(self._reduce(np.maximum, x, 0), 0))
        return e / self.expand(self.sum(e, 0), 0)

    def softmax_backward(self, p: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The gradient in softmax's input, given its output p and the gradient g in p."""
        return p * (g - self.expand(self.sum(g * p, 0), 0))


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted-scaling dropout, its mask drawn from rng; a rate of 0 returns a itself."""
    if rate <= 0.0:
        return a
    keep = 1.0 - rate
    mask = (rng.random(a.data.shape) < keep) / keep

    def backward(g):
        return (g * mask,)

    return record(a.data * mask, (a,), backward)


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad tensor reachable from loss.

    The loss must be a scalar recorded on the active tape. Nodes run in
    reverse order, each adding its inputs' gradients in input order, so a
    tensor listed twice sums them in that order. The tape is consumed: its
    node list is cleared afterwards.
    """
    tape = _ACTIVE_TAPE
    if tape is None:
        raise ContractError("backward called with no active tape")
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    if loss._backward is None and loss not in tape._nodes:
        raise ContractError("loss tensor is not on the tape")

    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape._nodes):
        if node.grad is None:
            continue
        grads = node._backward(node.grad)
        if len(grads) != len(node._inputs):
            name = node._backward.__qualname__
            raise ContractError(f"{name} returned {len(grads)} gradients for {len(node._inputs)} inputs")
        for t, g in zip(node._inputs, grads):
            if g is not None:
                _accumulate(t, g)
    tape._nodes.clear()
