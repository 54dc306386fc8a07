"""The fused numpy network passes and the flat optimizers against the tape.

The NCF trunk and the PPO actor-critic train on hand-written numpy
forward/backward passes; only their loss heads run on the autograd tape.
These tests hold the fused passes to the full tape bitwise (``tobytes``),
to central finite differences, and the flat-buffer optimizers to a
per-parameter reference loop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.causal.ect_price import EctPriceConfig, EctPriceModel
from repro.causal.ncf import NcfConfig, NcfNetwork, NcfRegressor
from repro.errors import ModelError
from repro.rl.networks import ActorCritic
from repro.rl.ppo import PpoConfig, ppo_loss

N_STATIONS, N_TIME_IDS = 7, 5


# --------------------------------------------------------------------- #
# Tape references: the networks' former Tensor forward passes           #
# --------------------------------------------------------------------- #


def tape_ncf_logits(net: NcfNetwork, stations: np.ndarray, times: np.ndarray) -> nn.Tensor:
    gmf = net.station_gmf(stations) * net.time_gmf(times)
    mlp_in = nn.concat([net.station_mlp(stations), net.time_mlp(times)], axis=1)
    mlp_out = net.mlp(mlp_in).relu()
    return net.head(nn.concat([gmf, mlp_out], axis=1))


def tape_actor_critic(net: ActorCritic, states: np.ndarray) -> tuple[nn.Tensor, nn.Tensor]:
    features = net.trunk(nn.Tensor(states))
    return net.actor_head(features), net.critic_head(features)


def grad_bytes(module: nn.Module) -> dict[str, bytes]:
    return {name: param.grad.tobytes() for name, param in module.named_parameters()}


def fused_ncf_grads(net, stations, times, loss_head):
    net.zero_grad()
    logits, cache = net.forward_cached(stations, times)
    leaf = nn.Tensor(logits, requires_grad=True)
    loss = loss_head(leaf)
    loss.backward()
    net.backward(cache, leaf.grad)
    return logits, loss, grad_bytes(net)


def tape_ncf_grads(net, stations, times, loss_head):
    net.zero_grad()
    logits = tape_ncf_logits(net, stations, times)
    loss = loss_head(logits)
    loss.backward()
    return logits.numpy(), loss, grad_bytes(net)


def ncf_batch(batch: int, n_outputs: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    # Few ids relative to the batch, so the embedding scatters repeat rows.
    stations = rng.integers(0, N_STATIONS, batch)
    times = rng.integers(0, N_TIME_IDS, batch)
    targets = rng.integers(0, 2, (batch, n_outputs)).astype(float)
    weights = rng.uniform(0.2, 3.0, (batch, n_outputs))
    return stations, times, targets, weights


class TestNcfFusedMatchesTape:
    @pytest.mark.parametrize("batch", [1, 128])
    @pytest.mark.parametrize("n_outputs", [1, 4])
    @pytest.mark.parametrize("binary", [True, False], ids=["bce", "mse"])
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_regressor_heads(self, batch, n_outputs, binary, weighted):
        rng = np.random.default_rng(3)
        config = NcfConfig()
        regressor = NcfRegressor(N_STATIONS, N_TIME_IDS, config, rng, binary=binary)
        net = NcfNetwork(N_STATIONS, N_TIME_IDS, config, rng, n_outputs=n_outputs)
        stations, times, targets, weights = ncf_batch(batch, n_outputs)

        def head(logits):
            return regressor._batch_loss(logits, targets, weights if weighted else None)

        fused = fused_ncf_grads(net, stations, times, head)
        tape = tape_ncf_grads(net, stations, times, head)
        assert fused[0].tobytes() == tape[0].tobytes()
        assert fused[1].data.tobytes() == tape[1].data.tobytes()
        assert fused[2] == tape[2]

    @pytest.mark.parametrize("batch", [1, 128])
    @pytest.mark.parametrize(
        "loss_form, compat",
        [("nll", False), ("mse", False), ("mse", True)],
        ids=["nll", "mse", "mse-eq16-compat"],
    )
    def test_ect_price_heads(self, batch, loss_form, compat):
        config = EctPriceConfig(loss_form=loss_form, paper_eq16_compat=compat)
        model = EctPriceModel(N_STATIONS, N_TIME_IDS, config, np.random.default_rng(4))
        stations, times, targets, _ = ncf_batch(batch, 2, seed=1)
        treated, charged = targets[:, 0], targets[:, 1]

        def head(logits):
            return model.loss(logits, treated, charged)

        fused = fused_ncf_grads(model.network, stations, times, head)
        tape = tape_ncf_grads(model.network, stations, times, head)
        assert fused[0].tobytes() == tape[0].tobytes()
        assert fused[1].data.tobytes() == tape[1].data.tobytes()
        assert fused[2] == tape[2]

    def test_fit_matches_tape_training(self):
        """A whole fit on the fused steps equals a tape-trained twin bitwise."""
        config = NcfConfig(batch_size=16, epochs=2)
        stations, times, targets, _ = ncf_batch(80, 1, seed=2)
        fused = NcfRegressor(N_STATIONS, N_TIME_IDS, config, np.random.default_rng(5))
        twin = NcfRegressor(N_STATIONS, N_TIME_IDS, config, np.random.default_rng(5))
        fused.fit(stations, times, targets)

        rng = twin._rng
        for _ in range(config.epochs):
            order = rng.permutation(len(stations))
            for start in range(0, len(stations), config.batch_size):
                idx = order[start : start + config.batch_size]
                loss = twin._batch_loss(
                    tape_ncf_logits(twin.network, stations[idx], times[idx]),
                    targets[idx].reshape(-1, 1),
                    None,
                )
                twin._optimizer.zero_grad()
                loss.backward()
                twin._optimizer.step()
        for (name, a), (_, b) in zip(
            fused.network.named_parameters(), twin.network.named_parameters()
        ):
            assert a.data.tobytes() == b.data.tobytes(), name


class TestActorCriticFusedMatchesTape:
    @pytest.mark.parametrize("batch", [1, 128])
    def test_ppo_grads_match_tape(self, batch):
        rng = np.random.default_rng(6)
        net = ActorCritic(6, 3, rng)
        config = PpoConfig()
        states = rng.normal(size=(batch, 6))
        actions = rng.integers(0, 3, batch)
        # Old log-probs far enough off that the ratio clip binds on some rows.
        old_log_probs = np.log(rng.uniform(0.1, 0.9, batch))
        advantages = rng.normal(size=batch)
        returns = rng.normal(size=batch)

        net.zero_grad()
        logits, values, trace = net.forward_cached(states)
        logits_leaf = nn.Tensor(logits, requires_grad=True)
        values_leaf = nn.Tensor(values, requires_grad=True)
        fused = ppo_loss(
            logits_leaf, values_leaf, actions, old_log_probs, advantages, returns, config
        )
        fused.loss.backward()
        net.backward(trace, logits_leaf.grad, values_leaf.grad)
        fused_grads = grad_bytes(net)

        net.zero_grad()
        tape_logits, tape_values = tape_actor_critic(net, states)
        tape = ppo_loss(
            tape_logits, tape_values, actions, old_log_probs, advantages, returns, config
        )
        tape.loss.backward()

        assert logits.tobytes() == tape_logits.numpy().tobytes()
        assert values.tobytes() == tape_values.numpy().tobytes()
        assert fused.loss.data.tobytes() == tape.loss.data.tobytes()
        assert fused_grads == grad_bytes(net)

    def test_inference_matches_tape_forward(self):
        rng = np.random.default_rng(7)
        net = ActorCritic(4, 3, rng)
        states = rng.normal(size=(9, 4))
        logits, values = net.forward(states)
        tape_logits, tape_values = tape_actor_critic(net, states)
        assert logits.tobytes() == tape_logits.numpy().tobytes()
        assert values.tobytes() == tape_values.numpy().tobytes()
        actions, log_probs, _ = net.act_batch(states, np.random.default_rng(0))
        picked = tape_logits.log_softmax(axis=-1).numpy()[np.arange(9), actions]
        assert log_probs.tobytes() == picked.tobytes()


class TestNoTapeInsideNetworks:
    def test_network_passes_build_no_tensor(self, monkeypatch):
        rng = np.random.default_rng(8)
        ncf = NcfNetwork(N_STATIONS, N_TIME_IDS, NcfConfig(), rng, n_outputs=4)
        ac = ActorCritic(5, 3, rng)
        stations, times, _, _ = ncf_batch(16, 4)
        states = rng.normal(size=(16, 5))

        def no_tensor(*args, **kwargs):
            raise AssertionError("a Tensor was built inside a fused network pass")

        monkeypatch.setattr(nn.Tensor, "__init__", no_tensor)
        logits, cache = ncf.forward_cached(stations, times)
        ncf.backward(cache, np.ones_like(logits))
        logits, values, trace = ac.forward_cached(states)
        ac.backward(trace, np.ones_like(logits), np.ones_like(values))


# --------------------------------------------------------------------- #
# Finite differences                                                     #
# --------------------------------------------------------------------- #


def assert_matches_finite_differences(module, loss_fn, fused_backward):
    """``fused_backward()`` grads vs central differences of ``loss_fn()``.

    Parameters are jittered first: zero-initialised biases can leave a
    hidden unit exactly at the ReLU kink, where differences are one-sided.
    """
    rng = np.random.default_rng(0)
    for param in module.parameters():
        param.data += rng.normal(0.0, 0.3, param.shape)
    module.zero_grad()
    fused_backward()
    for name, param in module.named_parameters():
        numeric = nn.numerical_gradient(loss_fn, param)
        assert np.allclose(param.grad, numeric, atol=1e-6, rtol=1e-5), name


class TestFiniteDifferences:
    @pytest.mark.parametrize("n_outputs", [1, 4])
    def test_ncf_backward(self, n_outputs):
        rng = np.random.default_rng(9)
        config = NcfConfig(embedding_dim=2, hidden_sizes=(3, 2))
        net = NcfNetwork(4, 3, config, rng, n_outputs=n_outputs)
        stations, times = np.array([0, 3, 3, 1]), np.array([2, 0, 2, 1])
        weights = rng.normal(size=(4, n_outputs))

        def loss_fn():
            return (nn.Tensor(net.forward(stations, times)) * nn.Tensor(weights)).sum()

        def fused_backward():
            _, cache = net.forward_cached(stations, times)
            net.backward(cache, weights)

        assert_matches_finite_differences(net, loss_fn, fused_backward)

    def test_actor_critic_backward(self):
        rng = np.random.default_rng(10)
        net = ActorCritic(3, 3, rng, hidden_sizes=(4, 4))
        states = rng.normal(size=(5, 3))
        w_logits, w_values = rng.normal(size=(5, 3)), rng.normal(size=(5, 1))

        def loss_fn():
            logits, values = net.forward(states)
            return nn.Tensor((logits * w_logits).sum() + (values * w_values).sum())

        def fused_backward():
            _, _, trace = net.forward_cached(states)
            net.backward(trace, w_logits, w_values)

        assert_matches_finite_differences(net, loss_fn, fused_backward)


# --------------------------------------------------------------------- #
# Scatter kernels                                                        #
# --------------------------------------------------------------------- #


class TestScatterKernels:
    def test_scatter_rows_equals_add_at(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n_rows, batch, width = rng.integers(1, 6), rng.integers(0, 40), rng.integers(1, 5)
            idx = rng.integers(0, n_rows, batch)
            grad = rng.normal(size=(batch, width))
            grad[rng.random(grad.shape) < 0.3] = -0.0
            expected = np.zeros((n_rows, width))
            np.add.at(expected, idx, grad)
            got = nn.kernels.scatter_rows(idx, grad, n_rows)
            assert got.dtype == np.float64
            assert got.tobytes() == expected.tobytes()

    def test_tape_scatters_equal_add_at(self):
        rng = np.random.default_rng(12)
        table = nn.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        idx = np.array([3, 1, 3, 3, 0])
        seed = rng.normal(size=(5, 3))
        seed[0, 0] = -0.0
        table.gather_rows(idx).backward(seed)
        expected = np.zeros((4, 3))
        np.add.at(expected, idx, seed)
        assert table.grad.tobytes() == expected.tobytes()

        matrix = nn.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        cols = np.array([2, 0, 0, 1, 2])
        column_seed = rng.normal(size=5)
        column_seed[1] = -0.0
        matrix.select_columns(cols).backward(column_seed)
        expected = np.zeros((5, 3))
        np.add.at(expected, (np.arange(5), cols), column_seed)
        assert matrix.grad.tobytes() == expected.tobytes()

    def test_gather_rows_negative_indices(self):
        table = nn.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        table.gather_rows(np.array([-1, 0, -1])).sum().backward()
        assert table.grad.tolist() == [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]]


# --------------------------------------------------------------------- #
# Flat optimizers                                                        #
# --------------------------------------------------------------------- #

SHAPES = [(3, 4), (4,), (1,), ()]


def reference_step(kind, params, grads, state, step, *, lr, weight_decay, momentum=0.9):
    """The per-parameter update loops the flat optimizers replace."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for i, (param, grad) in enumerate(zip(params, grads)):
        if kind == "sgd":
            if weight_decay:
                grad = grad + weight_decay * param
            velocity = state[i]
            velocity *= momentum
            velocity += grad
            param -= lr * velocity
            continue
        if kind == "adamw" and weight_decay:
            param -= lr * weight_decay * param
        elif weight_decay:
            grad = grad + weight_decay * param
        m, v = state[i]
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * grad**2
        m_hat = m / (1.0 - beta1**step)
        v_hat = v / (1.0 - beta2**step)
        param -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestFlatOptimizers:
    @pytest.mark.parametrize("kind", ["adam", "adamw", "sgd"])
    def test_matches_per_parameter_reference(self, kind):
        rng = np.random.default_rng(13)
        initial = [rng.normal(size=shape) for shape in SHAPES]
        tensors = [nn.Tensor(value.copy(), requires_grad=True) for value in initial]
        lr, decay = 0.01, 0.05
        if kind == "sgd":
            optimizer = nn.SGD(tensors, lr=lr, momentum=0.9, weight_decay=decay)
            state = [np.zeros(shape) for shape in SHAPES]
        else:
            cls = nn.Adam if kind == "adam" else nn.AdamW
            optimizer = cls(tensors, lr=lr, weight_decay=decay)
            state = [(np.zeros(shape), np.zeros(shape)) for shape in SHAPES]
        reference = [value.copy() for value in initial]

        for step in range(1, 51):
            grads = [rng.normal(size=shape) for shape in SHAPES]
            if step % 7 == 0:
                grads[1] = np.zeros(SHAPES[1])  # an absent gradient counts as zero
            optimizer.zero_grad()
            for i, (tensor, grad) in enumerate(zip(tensors, grads)):
                if not (step % 7 == 0 and i == 1):
                    tensor.grad = grad.copy()
            optimizer.step()
            reference_step(kind, reference, grads, state, step, lr=lr, weight_decay=decay)
            for tensor, expected in zip(tensors, reference):
                assert tensor.data.tobytes() == np.asarray(expected).tobytes()

    def test_load_state_dict_keeps_views_bound(self, rng):
        net = nn.MLP((3, 4, 2), rng)
        optimizer = nn.Adam(net.parameters(), lr=0.1)
        donor = nn.MLP((3, 4, 2), np.random.default_rng(99))
        net.load_state_dict(donor.state_dict())
        for (name, param), (_, source) in zip(net.named_parameters(), donor.named_parameters()):
            assert param.data.base is optimizer._flat, name
            assert np.array_equal(param.data, source.data)
        for param in net.parameters():
            param.grad = np.ones_like(param.data)
        optimizer.step()
        for param, source in zip(net.parameters(), donor.parameters()):
            assert not np.array_equal(param.data, source.data)

    def test_rejects_duplicate_parameter(self):
        w = nn.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ModelError, match="listed twice"):
            nn.Adam([w, w], lr=0.1)

    def test_rejects_aliased_parameters(self):
        base = nn.Tensor(np.ones(4), requires_grad=True)
        view = nn.Tensor(base.data[1:3], requires_grad=True)
        with pytest.raises(ModelError, match="aliases"):
            nn.SGD([base, view], lr=0.1)

    def test_rebound_parameter_fails_the_step(self):
        w = nn.Tensor(np.ones(3), requires_grad=True)
        optimizer = nn.Adam([w], lr=0.1)
        w.data = np.zeros(3)
        w.grad = np.ones(3)
        with pytest.raises(ModelError, match="rebound"):
            optimizer.step()
