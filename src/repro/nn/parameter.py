"""Trainable parameter container."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ShapeError, TrainingError


class Parameter:
    """A trainable tensor with an accumulated gradient.

    Layers create parameters during construction; ``backward`` passes add to
    ``grad`` (so gradients from multiple forward passes accumulate, which the
    GAN training loop relies on), and optimizers read ``grad`` then call
    :meth:`zero_grad`.

    ``grad`` starts as a fresh ``np.zeros`` buffer, whose pages the OS maps
    only when a backward first writes them, so a model built or loaded for
    inference never pays for its gradients.  ``frozen`` is set while an
    inference gradient query walks the owning layer; :meth:`add_grad` then
    raises instead of touching optimizer state.
    """

    __slots__ = ("name", "value", "grad", "trainable", "frozen")

    def __init__(self, value: np.ndarray, name: str = "param",
                 trainable: bool = True):
        self.value = np.asarray(value, dtype=np.float32)
        self.grad = np.zeros(self.value.shape, np.float32)
        self.name = name
        self.trainable = trainable
        self.frozen = False

    @property
    def shape(self):
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.size)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def add_grad(self, grad: np.ndarray) -> None:
        if self.frozen:
            raise TrainingError(
                f"gradient added to frozen parameter {self.name!r}; the "
                "inference gradient path must leave optimizer state untouched"
            )
        if grad.shape != self.value.shape:
            raise ShapeError(
                f"gradient shape {grad.shape} does not match parameter "
                f"{self.name} with shape {self.value.shape}"
            )
        self.grad += grad.astype(np.float32, copy=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name}, shape={self.value.shape})"
