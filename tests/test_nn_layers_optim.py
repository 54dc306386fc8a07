"""Tests for layers, the tape losses, the optimizer and module plumbing."""

from __future__ import annotations

import numpy as np
import pytest
from tape import Tape, Tensor, bce_with_logits, mse_loss

from repro import nn
from repro.errors import ModelError


class TestLayers:
    def test_linear_shapes(self, rng):
        layer = nn.Linear(4, 3, rng)
        out = layer.forward_array(rng.normal(size=(5, 4)))
        assert out.shape == (5, 3)

    def test_linear_invalid_dims(self, rng):
        with pytest.raises(ModelError):
            nn.Linear(0, 3, rng)

    def test_embedding_table(self, rng):
        """An Embedding is a table only; the NCF network reads and trains
        it (its lookups and id checks are tested with the fused step)."""
        emb = nn.Embedding(10, 4, rng)
        assert emb.weight.shape == (10, 4)
        with pytest.raises(ModelError):
            nn.Embedding(0, 4, rng)

    def test_linear_backward_writes_in_place(self, rng):
        layer = nn.Linear(3, 2, rng)
        optimizer = nn.Adam(layer.parameters(), lr=0.1)
        x, grad = rng.normal(size=(5, 3)), rng.normal(size=(5, 2))
        for _ in range(2):  # a second pass overwrites, it does not add
            layer.backward_array(x, None, grad)
        assert layer.weight.grad.base is optimizer.flat_grad
        assert np.array_equal(layer.weight.grad, x.T @ grad)
        assert np.array_equal(layer.bias.grad, grad.sum(axis=0))

    def test_mlp_structure_and_forward(self, rng):
        mlp = nn.MLP((3, 8, 2), rng)
        out, trace = mlp.forward_array(rng.normal(size=(5, 3)))
        assert out.shape == (5, 2)
        assert len(trace) == len(mlp.body) + 1

    def test_mlp_needs_two_sizes(self, rng):
        with pytest.raises(ModelError):
            nn.MLP((3,), rng)

    def test_sequential_indexing(self, rng):
        seq = nn.Sequential(nn.Linear(2, 2, rng), nn.ReLU())
        assert len(seq) == 2
        assert isinstance(seq[1], nn.ReLU)


class TestLosses:
    def test_mse_value(self):
        pred = Tensor(np.array([1.0, 2.0]))
        target = Tensor(np.array([0.0, 0.0]))
        assert mse_loss(pred, target).item() == pytest.approx(2.5)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ModelError):
            mse_loss(Tensor(np.zeros(2)), Tensor(np.zeros(3)))

    def test_bce_with_logits_matches_bce(self, rng):
        logits = rng.normal(size=(6,))
        y = (rng.random(6) > 0.5).astype(float)
        via_logits = bce_with_logits(Tensor(logits), Tensor(y)).item()
        probs = 1 / (1 + np.exp(-logits))
        via_probs = -np.mean(y * np.log(probs) + (1 - y) * np.log(1 - probs))
        assert via_logits == pytest.approx(via_probs, rel=1e-5)


class TestOptimizers:
    def test_adam_converges(self):
        target = np.array([3.0, -2.0])
        w = nn.Parameter(np.zeros(2))
        opt = nn.Adam([w], lr=0.1)
        for _ in range(300):
            w.grad = 2.0 * (w.data - target)
            opt.step()
        assert np.allclose(w.data, target, atol=1e-2)

    def test_optimizer_rejects_empty(self):
        with pytest.raises(ModelError):
            nn.Adam([], lr=0.1)

    def test_optimizer_rejects_bad_lr(self):
        for lr in (0.0, float("nan"), float("inf")):
            with pytest.raises(ModelError):
                nn.Adam([nn.Parameter(np.ones(1))], lr=lr)

    def test_clip_grad_norm(self):
        w = nn.Parameter(np.ones(4))
        opt = nn.Adam([w], lr=0.1)
        w.grad = np.full(4, 100.0)
        opt.step(max_grad_norm=1.0)
        assert np.linalg.norm(opt.flat_grad) == pytest.approx(1.0, rel=1e-6)
        assert w.grad.base is opt.flat_grad  # the assigned gradient was copied in
        with pytest.raises(ModelError):  # NaN would silently skip the clip
            opt.step(max_grad_norm=float("nan"))


class TestModuleAndSerialization:
    def test_named_parameters_nested(self, rng):
        mlp = nn.MLP((2, 4, 1), rng)
        names = [name for name, _ in mlp.named_parameters()]
        assert len(names) == len(set(names)) == 4  # 2 layers x (W, b)

    def test_num_parameters(self, rng):
        mlp = nn.MLP((2, 4, 1), rng)
        assert sum(param.data.size for param in mlp.parameters()) == 2 * 4 + 4 + 4 * 1 + 1

    def test_xor_training_end_to_end(self, rng):
        """Adam trains an MLP on the tape, through the leaves' copied gradients."""
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], float)
        y = np.array([[0], [1], [1], [0]], float)
        net = nn.MLP((2, 16, 1), rng)
        opt = nn.Adam(net.parameters(), lr=0.05)
        for _ in range(400):
            opt.flat_grad.fill(0.0)
            tape = Tape()
            loss = mse_loss(tape(net, Tensor(X)).sigmoid(), Tensor(y))
            tape.backward(loss)
            opt.step()
        assert loss.item() < 0.01
