"""Loss functions used across the paper's models.

All losses reduce to scalar tensors (mean over the batch) so callers can do
``loss.backward()`` directly. These are the tape forms: training uses the
numpy heads of :mod:`repro.nn.heads` (and the ECT-Price and PPO heads next to
their models), and the tests hold those heads to these tape forms bitwise.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from .autograd import Tensor, ensure_tensor


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


def bce_loss(probability: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Binary cross-entropy on probabilities (not logits)."""
    probability = ensure_tensor(probability)
    target = ensure_tensor(target)
    if probability.shape != target.shape:
        raise ModelError(
            f"bce_loss shape mismatch: probability {probability.shape} vs "
            f"target {target.shape}"
        )
    p = probability.clip(1e-7, 1.0 - 1e-7)
    losses = -(target * p.log() + (1.0 - target) * (1.0 - p).log())
    return losses.mean()


def bce_with_logits(logits: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Binary cross-entropy on raw logits (numerically stable form)."""
    logits = ensure_tensor(logits)
    target = ensure_tensor(target)
    # max(z, 0) - z*y + log(1 + exp(-|z|))
    zeros = Tensor(np.zeros_like(logits.data))
    abs_z = logits.maximum(-logits)
    losses = logits.maximum(zeros) - logits * target + ((-abs_z).exp() + 1.0).log()
    return losses.mean()


def cross_entropy(logits: Tensor, class_ids: np.ndarray) -> Tensor:
    """Categorical cross-entropy from logits and integer class labels."""
    logits = ensure_tensor(logits)
    ids = np.asarray(class_ids, dtype=int)
    if logits.ndim != 2 or ids.shape != (logits.shape[0],):
        raise ModelError(
            f"cross_entropy expects (batch, classes) logits and (batch,) ids; "
            f"got {logits.shape} and {ids.shape}"
        )
    log_probs = logits.log_softmax(axis=-1)
    picked = log_probs.select_columns(ids)
    return -picked.mean()


def entropy_of_logits(logits: Tensor) -> Tensor:
    """Mean Shannon entropy of the categorical distributions in ``logits``.

    Used as the optional exploration bonus in the PPO objective.
    """
    logits = ensure_tensor(logits)
    log_probs = logits.log_softmax(axis=-1)
    probs = log_probs.exp()
    return -(probs * log_probs).sum(axis=-1).mean()
