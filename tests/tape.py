"""The reverse-mode autograd tape: the tests' gradient oracle.

A small tape-based autograd engine in the style of micrograd/PyTorch. The
paper's two network architectures (the NCF trunk and the PPO actor-critic)
train on fused numpy forward/backward passes (:mod:`repro.nn.layers`)
seeded by numpy loss heads (:mod:`repro.nn.heads`), so no training step
runs a tape. The tests hold the heads and the fused passes to this tape
bitwise, and check the tape itself against finite differences.

Design notes
------------
* A :class:`Tensor` wraps an ``ndarray`` (always float64 unless the caller
  passes another dtype) plus an optional gradient buffer.
* Each op records a backward closure over its parents; ``backward()`` runs a
  topological sort and accumulates gradients. The first contribution to a
  node is copied, later ones are added in place.
* Broadcasting is supported in forward ops; backward passes reduce gradients
  back to each parent's shape via :func:`_unbroadcast`.
* No in-place mutation of ``data`` after an op has consumed it — optimizers
  update parameters between backward passes, which is safe because the tape
  is rebuilt each forward pass.
* :class:`Tape` runs :mod:`repro.nn` layers on the tape: each
  :class:`~repro.nn.Parameter` becomes a leaf sharing its ``data``, and
  the leaf's gradient is copied back into the parameter's ``.grad``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro import nn
from repro.errors import ModelError
from repro.nn import kernels

ArrayLike = "np.ndarray | float | int | Sequence"


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode gradient support.

    Parameters
    ----------
    data:
        Array (or scalar / nested sequence) holding the values.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
    ) -> None:
        self.data = np.asarray(data, dtype=float)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents = _parents

    # ------------------------------------------------------------------ #
    # Introspection                                                       #
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of array dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4)}{grad_flag})"

    def item(self) -> float:
        """The value of a single-element tensor as a python float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _raise_not_scalar(self)

    def numpy(self) -> np.ndarray:
        """The raw ndarray (shared, do not mutate while a tape is alive)."""
        return self.data

    def detach(self) -> "Tensor":
        """A view of the same data cut off from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------ #
    # Graph machinery                                                     #
    # ------------------------------------------------------------------ #

    def _accumulate(self, grad: np.ndarray) -> None:
        # Copy-on-first: the first contribution is copied (never aliased,
        # since later ones add into it in place).
        if self.grad is None:
            self.grad = np.array(grad, dtype=float)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient buffer."""
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        ``grad`` defaults to 1 for scalar outputs; non-scalar roots require
        an explicit seed gradient of matching shape.
        """
        if grad is None:
            if self.data.size != 1:
                raise ModelError(
                    "backward() without an explicit gradient requires a scalar "
                    f"output, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=float)
            if grad.shape != self.data.shape:
                raise ModelError(
                    f"seed gradient shape {grad.shape} != tensor shape {self.shape}"
                )

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                # Constants carry no gradient: leaving them out of the
                # order keeps every other node's position.
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # Arithmetic                                                          #
    # ------------------------------------------------------------------ #

    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = ensure_tensor(other)
        out = _make(self.data + other_t.data, (self, other_t))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad, other_t.data.shape))

        out._backward = backward if out.requires_grad else None
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = _make(-self.data, (self,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        out._backward = backward if out.requires_grad else None
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-ensure_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return ensure_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = ensure_tensor(other)
        out = _make(self.data * other_t.data, (self, other_t))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other_t.data, self.data.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad * self.data, other_t.data.shape))

        out._backward = backward if out.requires_grad else None
        return out

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = ensure_tensor(other)
        out = _make(self.data / other_t.data, (self, other_t))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other_t.data, self.data.shape))
            if other_t.requires_grad:
                other_t._accumulate(
                    _unbroadcast(-grad * self.data / other_t.data**2, other_t.data.shape)
                )

        out._backward = backward if out.requires_grad else None
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return ensure_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise ModelError("only scalar exponents are supported in Tensor.__pow__")
        out = _make(self.data**exponent, (self,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        out._backward = backward if out.requires_grad else None
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other_t = ensure_tensor(other)
        out = _make(self.data @ other_t.data, (self, other_t))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other_t.data.ndim == 1:
                    # matrix @ vector (grad 1-D) or vector @ vector (grad 0-D)
                    self._accumulate(
                        np.outer(grad, other_t.data) if grad.ndim else grad * other_t.data
                    )
                else:
                    self._accumulate(grad @ other_t.data.T)
            if other_t.requires_grad:
                if self.data.ndim == 1:
                    # vector @ matrix (grad 1-D) or vector @ vector (grad 0-D)
                    other_t._accumulate(
                        np.outer(self.data, grad) if grad.ndim else grad * self.data
                    )
                else:
                    other_t._accumulate(self.data.T @ grad)

        out._backward = backward if out.requires_grad else None
        return out

    # ------------------------------------------------------------------ #
    # Elementwise nonlinearities                                          #
    # ------------------------------------------------------------------ #

    def exp(self) -> "Tensor":
        """Elementwise exponential (input clipped to ±60 for stability)."""
        value = np.exp(np.clip(self.data, -kernels.EXP_CLIP, kernels.EXP_CLIP))
        out = _make(value, (self,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * value)

        out._backward = backward if out.requires_grad else None
        return out

    def log(self) -> "Tensor":
        """Elementwise natural log; inputs are floored at 1e-12."""
        safe = np.maximum(self.data, 1e-12)
        out = _make(np.log(safe), (self,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / safe)

        out._backward = backward if out.requires_grad else None
        return out

    def relu(self) -> "Tensor":
        """Rectified linear unit."""
        mask = self.data > 0
        out = _make(self.data * mask, (self,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        out._backward = backward if out.requires_grad else None
        return out

    def tanh(self) -> "Tensor":
        """Hyperbolic tangent."""
        value = np.tanh(self.data)
        out = _make(value, (self,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - value**2))

        out._backward = backward if out.requires_grad else None
        return out

    def sigmoid(self) -> "Tensor":
        """Logistic sigmoid with overflow-safe evaluation."""
        value = kernels.sigmoid(self.data)
        out = _make(value, (self,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * value * (1.0 - value))

        out._backward = backward if out.requires_grad else None
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to [low, high]; gradient is 1 strictly inside."""
        value = np.clip(self.data, low, high)
        inside = (self.data > low) & (self.data < high)
        out = _make(value, (self,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * inside)

        out._backward = backward if out.requires_grad else None
        return out

    # ------------------------------------------------------------------ #
    # Reductions and shape ops                                            #
    # ------------------------------------------------------------------ #

    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all axes when None)."""
        out = _make(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        out._backward = backward if out.requires_grad else None
        return out

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis``."""
        count = self.data.size if axis is None else _axis_size(self.data.shape, axis)
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        """Reshape preserving the tape."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = _make(self.data.reshape(shape), (self,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.data.shape))

        out._backward = backward if out.requires_grad else None
        return out

    def transpose(self, axes: tuple[int, ...] | None = None) -> "Tensor":
        """Permute axes (reverse when ``axes`` is None)."""
        out = _make(self.data.transpose(axes), (self,))

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axes is None:
                self._accumulate(grad.transpose())
            else:
                inverse = np.argsort(axes)
                self._accumulate(grad.transpose(inverse))

        out._backward = backward if out.requires_grad else None
        return out

    @property
    def T(self) -> "Tensor":  # noqa: N802 - numpy-style alias
        """Transpose (2-D convenience alias)."""
        return self.transpose()

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Select rows by integer index (embedding lookup).

        ``indices`` is a 1-D integer array; output shape is
        ``(len(indices),) + self.shape[1:]``. The backward pass scatter-adds.
        """
        idx = np.asarray(indices, dtype=int)
        if idx.ndim != 1:
            raise ModelError(f"gather_rows expects 1-D indices, got shape {idx.shape}")
        out = _make(self.data[idx], (self,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                n_rows = self.data.shape[0]
                self._accumulate(kernels.scatter_rows(idx % n_rows, grad, n_rows))

        out._backward = backward if out.requires_grad else None
        return out

    def select_columns(self, indices: np.ndarray) -> "Tensor":
        """Pick one column per row: ``out[i] = self[i, indices[i]]``.

        Used to extract the log-probability of the taken action from a
        ``(batch, n_actions)`` policy output. Returns shape ``(batch,)``.
        """
        idx = np.asarray(indices, dtype=int)
        if self.data.ndim != 2 or idx.shape != (self.data.shape[0],):
            raise ModelError(
                "select_columns expects a 2-D tensor and per-row indices; got "
                f"tensor {self.shape}, indices {idx.shape}"
            )
        rows = np.arange(self.data.shape[0])
        out = _make(self.data[rows, idx], (self,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                # The (row, col) pairs are unique, so a fancy-index ``+=``
                # adds each onto zero exactly as ``np.add.at`` would.
                buffer = np.zeros_like(self.data)
                buffer[rows, idx] += grad
                self._accumulate(buffer)

        out._backward = backward if out.requires_grad else None
        return out

    def log_softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable log-softmax along ``axis``."""
        value = kernels.log_softmax(self.data, axis=axis)
        out = _make(value, (self,))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                softmax = np.exp(value)
                self._accumulate(grad - softmax * grad.sum(axis=axis, keepdims=True))

        out._backward = backward if out.requires_grad else None
        return out

    def softmax(self, axis: int = -1) -> "Tensor":
        """Softmax along ``axis`` (computed as ``exp(log_softmax)``)."""
        return self.log_softmax(axis=axis).exp()

    def maximum(self, other: ArrayLike) -> "Tensor":
        """Elementwise maximum; gradient follows the winning operand."""
        other_t = ensure_tensor(other)
        take_self = self.data >= other_t.data
        out = _make(np.where(take_self, self.data, other_t.data), (self, other_t))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * take_self, self.data.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad * ~take_self, other_t.data.shape))

        out._backward = backward if out.requires_grad else None
        return out

    def minimum(self, other: ArrayLike) -> "Tensor":
        """Elementwise minimum; gradient follows the winning operand."""
        other_t = ensure_tensor(other)
        take_self = self.data <= other_t.data
        out = _make(np.where(take_self, self.data, other_t.data), (self, other_t))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * take_self, self.data.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad * ~take_self, other_t.data.shape))

        out._backward = backward if out.requires_grad else None
        return out


def _raise_not_scalar(tensor: Tensor) -> float:
    raise ModelError(f"item() requires a single-element tensor, got shape {tensor.shape}")


def _axis_size(shape: tuple[int, ...], axis: int | tuple[int, ...]) -> int:
    if isinstance(axis, tuple):
        size = 1
        for a in axis:
            size *= shape[a]
        return size
    return shape[axis]


def _make(data: np.ndarray, parents: tuple[Tensor, ...]) -> Tensor:
    for parent in parents:
        if parent.requires_grad:
            return Tensor(data, requires_grad=True, _parents=parents)
    return Tensor(data)


def ensure_tensor(value: ArrayLike | Tensor) -> Tensor:
    """Wrap ``value`` in a constant :class:`Tensor` unless it already is one."""
    return value if isinstance(value, Tensor) else Tensor(value)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``, preserving gradients."""
    tensors = [ensure_tensor(t) for t in tensors]
    if not tensors:
        raise ModelError("concat requires at least one tensor")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = _make(data, tuple(tensors))

    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(start, stop)
                tensor._accumulate(grad[tuple(slicer)])

    out._backward = backward if out.requires_grad else None
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack equal-shaped tensors along a new axis."""
    tensors = [ensure_tensor(t) for t in tensors]
    if not tensors:
        raise ModelError("stack requires at least one tensor")
    data = np.stack([t.data for t in tensors], axis=axis)
    out = _make(data, tuple(tensors))

    def backward(grad: np.ndarray) -> None:
        slices = np.moveaxis(grad, axis, 0)
        for tensor, piece in zip(tensors, slices):
            if tensor.requires_grad:
                tensor._accumulate(piece)

    out._backward = backward if out.requires_grad else None
    return out


# --------------------------------------------------------------------- #
# Finite differences and the tape losses                                 #
# --------------------------------------------------------------------- #


def numerical_gradient(
    fn: Callable[[], Tensor],
    tensor: Tensor | nn.Parameter,
    *,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of scalar ``fn()`` w.r.t. ``tensor``."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        f_plus = fn().item()
        flat[i] = original - eps
        f_minus = fn().item()
        flat[i] = original
        grad_flat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def check_gradients(
    fn: Callable[[], Tensor],
    tensors: Sequence[Tensor],
    *,
    eps: float = 1e-6,
    atol: float = 1e-4,
    rtol: float = 1e-4,
) -> None:
    """Assert that autograd gradients of ``fn`` match finite differences.

    ``fn`` must be a nullary callable re-evaluating the scalar loss from the
    given tensors; it is called repeatedly while entries are perturbed.
    Raises :class:`ModelError` on mismatch with a diagnostic message.
    """
    for tensor in tensors:
        tensor.zero_grad()
    loss = fn()
    if loss.size != 1:
        raise ModelError(f"check_gradients requires a scalar loss, got {loss.shape}")
    loss.backward()

    for index, tensor in enumerate(tensors):
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        numeric = numerical_gradient(fn, tensor, eps=eps)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            worst = np.abs(analytic - numeric).max()
            raise ModelError(
                f"gradient mismatch on tensor #{index} (shape {tensor.shape}): "
                f"max abs diff {worst:.3e}\nanalytic:\n{analytic}\nnumeric:\n{numeric}"
            )


def mse_loss(prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean squared error over all elements (the paper's ``L(·,·)``)."""
    prediction = ensure_tensor(prediction)
    target = ensure_tensor(target)
    if prediction.shape != target.shape:
        raise ModelError(
            f"mse_loss shape mismatch: prediction {prediction.shape} vs "
            f"target {target.shape}"
        )
    diff = prediction - target
    return (diff * diff).mean()


def bce_with_logits(logits: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Binary cross-entropy on raw logits (numerically stable form)."""
    logits = ensure_tensor(logits)
    target = ensure_tensor(target)
    # max(z, 0) - z*y + log(1 + exp(-|z|))
    zeros = Tensor(np.zeros_like(logits.data))
    abs_z = logits.maximum(-logits)
    losses = logits.maximum(zeros) - logits * target + ((-abs_z).exp() + 1.0).log()
    return losses.mean()


# --------------------------------------------------------------------- #
# Layers on the tape                                                     #
# --------------------------------------------------------------------- #


class Tape:
    """Runs :mod:`repro.nn` layers on the tape, one leaf per parameter.

    ``tape(layer, x)`` is the layer's tape forward. Each
    :class:`~repro.nn.Parameter` it reads becomes a leaf sharing the
    parameter's ``data``; :meth:`backward` runs the tape, then copies each
    leaf's gradient into its parameter's ``.grad``, where the fused passes
    put theirs and the optimizer reads it. Build one tape per forward.
    """

    def __init__(self) -> None:
        self._leaves: dict[int, tuple[nn.Parameter, Tensor]] = {}

    def leaf(self, param: nn.Parameter) -> Tensor:
        """The tape leaf of ``param`` (the same leaf on every use)."""
        if id(param) not in self._leaves:
            self._leaves[id(param)] = (param, Tensor(param.data, requires_grad=True))
        return self._leaves[id(param)][1]

    def __call__(self, layer: nn.Module, x) -> Tensor:
        if isinstance(layer, nn.Linear):
            return ensure_tensor(x) @ self.leaf(layer.weight) + self.leaf(layer.bias)
        if isinstance(layer, nn.Embedding):
            return self.leaf(layer.weight).gather_rows(layer.check_ids(x))
        if isinstance(layer, nn.ReLU):
            return ensure_tensor(x).relu()
        if isinstance(layer, nn.Tanh):
            return ensure_tensor(x).tanh()
        if isinstance(layer, nn.MLP):
            for step in layer.body.steps:
                x = self(step, x)
            return x
        raise TypeError(f"no tape forward for {type(layer).__name__}")

    def backward(self, loss: Tensor) -> None:
        """``loss.backward()``, then each leaf's gradient into its parameter."""
        loss.backward()
        for param, leaf in self._leaves.values():
            if leaf.grad is not None:
                if param.grad is None:
                    param.grad = leaf.grad
                else:
                    param.grad += leaf.grad
