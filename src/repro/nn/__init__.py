"""``repro.nn`` — a from-scratch numpy autograd / neural-network substrate.

The paper trains its models (NCF labeler, CF-MTL ECT-Price, PPO ECT-DRL) in
PyTorch; this package provides the equivalent primitives offline: a
reverse-mode autograd :class:`Tensor`, layers, losses, and optimizers.

The two network architectures train on fused numpy passes: each layer has a
hand-written ``forward_array``/``backward_array`` (:mod:`.layers`) built on
the shared :mod:`.kernels`, and the optimizers update one flat parameter
buffer. The tape runs only the loss heads, rooted at a leaf
``Tensor(logits, requires_grad=True)``, and is the gradient oracle the fused
passes are tested against bitwise.
"""

from . import kernels
from .autograd import Tensor, concat, ensure_tensor, stack
from .gradcheck import check_gradients, numerical_gradient
from .layers import (
    MLP,
    Dropout,
    Embedding,
    Linear,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from .losses import (
    bce_loss,
    bce_with_logits,
    cross_entropy,
    entropy_of_logits,
    mse_loss,
)
from .module import Module
from .optim import SGD, Adam, AdamW, Optimizer, clip_grad_norm
from .serialization import load_module, save_module

__all__ = [
    "MLP",
    "Adam",
    "AdamW",
    "Dropout",
    "Embedding",
    "Linear",
    "Module",
    "Optimizer",
    "ReLU",
    "SGD",
    "Sequential",
    "Sigmoid",
    "Tanh",
    "Tensor",
    "bce_loss",
    "bce_with_logits",
    "check_gradients",
    "clip_grad_norm",
    "concat",
    "cross_entropy",
    "ensure_tensor",
    "entropy_of_logits",
    "kernels",
    "load_module",
    "mse_loss",
    "numerical_gradient",
    "save_module",
    "stack",
]
