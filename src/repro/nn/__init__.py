"""``repro.nn`` — a from-scratch numpy autograd / neural-network substrate.

The paper trains its models (NCF labeler, CF-MTL ECT-Price, PPO ECT-DRL) in
PyTorch; this package provides the equivalent primitives offline: a
reverse-mode autograd :class:`Tensor`, layers, losses, and optimizers.

Training runs on plain numpy. Each layer of the two network architectures
has a hand-written ``forward_array``/``backward_array`` (:mod:`.layers`)
built on the shared :mod:`.kernels`; each loss head (:mod:`.heads`, and the
model-specific heads next to their models) returns ``(loss, d_logits)``;
the optimizers update one flat parameter buffer. A training step builds no
:class:`Tensor`: parameters are stored as ``Tensor`` (``.data``/``.grad``),
and the tape itself runs only in the tests, as the bitwise gradient oracle
of the heads and the fused passes.
"""

from . import heads, kernels
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
    "heads",
    "kernels",
    "load_module",
    "mse_loss",
    "numerical_gradient",
    "save_module",
    "stack",
]
