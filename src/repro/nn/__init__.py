"""``repro.nn`` — a from-scratch numpy neural-network substrate.

The paper trains its models (NCF labeler, CF-MTL ECT-Price, PPO ECT-DRL) in
PyTorch; this package provides the equivalent primitives offline: plain
parameters, layers, loss heads, and an optimizer.

Training runs on plain numpy. Each layer of the two network architectures
has a hand-written ``forward_array``/``backward_array`` (:mod:`.layers`)
built on the shared :mod:`.kernels`; each loss head (:mod:`.heads`, and the
model-specific heads next to their models) returns ``(loss, d_logits)``.
:class:`Adam` packs every :class:`Parameter` into one flat value buffer
and one flat gradient buffer: ``.data`` and ``.grad`` are views of them,
a backward pass writes each gradient into its ``.grad`` view in place, and
a step (optionally) clips the gradient norm and updates the whole buffer
at once. There is no autograd tape here: the tests keep one, as the
bitwise gradient oracle of the heads and the fused passes.
"""

from . import heads, kernels
from .layers import MLP, Embedding, Linear, ReLU, Sequential, Tanh
from .module import Module, Parameter
from .optim import Adam

__all__ = [
    "MLP",
    "Adam",
    "Embedding",
    "Linear",
    "Module",
    "Parameter",
    "ReLU",
    "Sequential",
    "Tanh",
    "heads",
    "kernels",
]
