"""The fused numpy training steps against the autograd tape.

The NCF trunk and the PPO actor-critic train on hand-written numpy
forward/backward passes, seeded by numpy loss heads that return
``(loss, d_logits)``. These tests hold heads and passes to the full tape
bitwise (``tobytes``), to central finite differences, and the flat-buffer
optimizers to a per-parameter reference loop. The tape code of every loss
head is frozen here as the oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pytest

from repro import nn
from repro.causal.dataset import PricingDataset
from repro.causal.ect_price import EctPriceConfig, EctPriceModel
from repro.causal.ncf import NcfConfig, NcfNetwork, NcfRegressor
from repro.errors import ModelError
from repro.rl.buffer import RolloutBuffer
from repro.rl.networks import ActorCritic
from repro.rl.ppo import PpoAgent, PpoConfig, UpdateStats, ppo_loss

N_STATIONS, N_TIME_IDS = 7, 5


# --------------------------------------------------------------------- #
# Frozen tape oracles: the loss heads' former Tensor code               #
# --------------------------------------------------------------------- #


def tape_regressor_loss(logits: nn.Tensor, targets: np.ndarray, binary: bool) -> nn.Tensor:
    """``NcfRegressor``'s tape head: BCE-with-logits or MSE."""
    if binary:
        return nn.bce_with_logits(logits, nn.Tensor(targets))
    diff = logits - nn.Tensor(targets)
    squared = diff * diff
    return squared.mean()


def tape_ect_price_heads(
    logits: nn.Tensor,
) -> tuple[nn.Tensor, nn.Tensor, nn.Tensor, nn.Tensor]:
    """(batch, 4) logits → (f00, f01, f11, g) as 1-D tensors."""
    batch = logits.shape[0]
    c0 = logits.select_columns(np.zeros(batch, dtype=int)).reshape(batch, 1)
    c1 = logits.select_columns(np.ones(batch, dtype=int)).reshape(batch, 1)
    c2 = logits.select_columns(np.full(batch, 2, dtype=int)).reshape(batch, 1)
    strata = nn.concat([c0, c1, c2], axis=1).softmax(axis=-1)
    f00 = strata.select_columns(np.zeros(batch, dtype=int))
    f01 = strata.select_columns(np.ones(batch, dtype=int))
    f11 = strata.select_columns(np.full(batch, 2, dtype=int))
    g = logits.select_columns(np.full(batch, 3, dtype=int)).sigmoid()
    return f00, f01, f11, g


def tape_ect_price_loss(
    logits: nn.Tensor,
    treated: np.ndarray,
    charged: np.ndarray,
    config: EctPriceConfig,
) -> nn.Tensor:
    """``EctPriceModel``'s tape objective (Eq. 23 or its MLE form)."""
    treated = np.asarray(treated, dtype=float)
    charged = np.asarray(charged, dtype=float)
    f00, f01, f11, g = tape_ect_price_heads(logits)

    y0t1 = nn.Tensor(((charged == 0) & (treated == 1)).astype(float))
    y1t0 = nn.Tensor(((charged == 1) & (treated == 0)).astype(float))
    y1t1 = nn.Tensor(((charged == 1) & (treated == 1)).astype(float))
    y0t0 = nn.Tensor(((charged == 0) & (treated == 0)).astype(float))

    if config.loss_form == "nll":
        p1 = (f00 * g).clip(1e-9, 1.0)
        p2 = (f11 * (1.0 - g)).clip(1e-9, 1.0)
        p3 = ((f01 + f11) * g).clip(1e-9, 1.0)
        p4 = ((f00 + f01) * (1.0 - g)).clip(1e-9, 1.0)
        nll = -(
            y0t1 * p1.log()
            + y1t0 * p2.log()
            + y1t1 * p3.log()
            + y0t0 * p4.log()
        )
        return nll.mean()

    l1 = nn.mse_loss(f00 * g, y0t1)
    l2 = nn.mse_loss(f11 * (1.0 - g), y1t0)
    l3 = nn.mse_loss((f01 + f11) * g, y1t1)
    if config.paper_eq16_compat:
        l4 = nn.mse_loss((f00 + f11) * (1.0 - g), y0t0)
    else:
        l4 = nn.mse_loss((f00 + f01) * (1.0 - g), y0t0)
    lp = nn.mse_loss(g, nn.Tensor(treated))
    return l1 + l2 + l3 + l4 + lp


class TapePpoLoss(NamedTuple):
    """The Eq. 25–27 objective on one minibatch and its tape terms."""

    loss: nn.Tensor
    policy_loss: nn.Tensor
    value_loss: nn.Tensor
    entropy: nn.Tensor
    ratio: nn.Tensor


def tape_ppo_loss(
    logits: nn.Tensor,
    values: nn.Tensor,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    returns: np.ndarray,
    config: PpoConfig,
) -> TapePpoLoss:
    """Clipped surrogate (Eqs. 25–26) plus value MSE (Eq. 27) and entropy."""
    log_probs = logits.log_softmax(axis=-1)
    new_log_probs = log_probs.select_columns(np.asarray(actions, dtype=int))
    probs = log_probs.exp()
    entropy = -(probs * log_probs).sum(axis=-1).mean()
    values = values.reshape(values.shape[0])
    ratio = (new_log_probs - nn.Tensor(old_log_probs)).exp()
    adv = nn.Tensor(advantages)
    unclipped = ratio * adv
    clipped = ratio.clip(1.0 - config.clip_epsilon, 1.0 + config.clip_epsilon) * adv
    policy_loss = -unclipped.minimum(clipped).mean()

    value_loss = nn.mse_loss(values, nn.Tensor(returns))
    loss = policy_loss + config.value_coef * value_loss - config.entropy_coef * entropy
    return TapePpoLoss(loss, policy_loss, value_loss, entropy, ratio)


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


def param_bytes(module: nn.Module) -> dict[str, bytes]:
    return {name: param.data.tobytes() for name, param in module.named_parameters()}


def float_bytes(value) -> bytes:
    """The float64 bytes of a python float or a 0-d tensor/array."""
    return np.float64(value.data if isinstance(value, nn.Tensor) else value).tobytes()


def fused_ncf_grads(net, stations, times, head):
    """One fused step's logits, loss bytes and gradients (numpy head)."""
    net.zero_grad()
    logits, cache = net.forward_cached(stations, times)
    loss, d_logits = head(logits)
    net.backward(cache, d_logits)
    return logits, float_bytes(loss), grad_bytes(net)


def tape_ncf_grads(net, stations, times, oracle):
    """The same step on the full tape (tape network and tape head)."""
    net.zero_grad()
    logits = tape_ncf_logits(net, stations, times)
    loss = oracle(logits)
    loss.backward()
    return logits.numpy(), float_bytes(loss), grad_bytes(net)


def ncf_batch(batch: int, n_outputs: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    # Few ids relative to the batch, so the embedding scatters repeat rows.
    stations = rng.integers(0, N_STATIONS, batch)
    times = rng.integers(0, N_TIME_IDS, batch)
    targets = rng.integers(0, 2, (batch, n_outputs)).astype(float)
    return stations, times, targets


ECT_FORMS = pytest.mark.parametrize(
    "loss_form, compat",
    [("nll", False), ("mse", False), ("mse", True)],
    ids=["nll", "mse", "mse-eq16-compat"],
)


class TestNcfFusedMatchesTape:
    @pytest.mark.parametrize("batch", [1, 128])
    @pytest.mark.parametrize("n_outputs", [1, 4])
    # The ``unweighted-`` prefix dates from the removed per-sample-weight
    # heads; it keeps the test ids stable.
    @pytest.mark.parametrize("binary", [True, False], ids=["unweighted-bce", "unweighted-mse"])
    def test_regressor_heads(self, batch, n_outputs, binary):
        rng = np.random.default_rng(3)
        net = NcfNetwork(N_STATIONS, N_TIME_IDS, NcfConfig(), rng, n_outputs=n_outputs)
        stations, times, targets = ncf_batch(batch, n_outputs)
        head = nn.heads.bce_with_logits if binary else nn.heads.mse

        fused = fused_ncf_grads(net, stations, times, lambda z: head(z, targets))
        tape = tape_ncf_grads(
            net, stations, times, lambda z: tape_regressor_loss(z, targets, binary)
        )
        assert fused[0].tobytes() == tape[0].tobytes()
        assert fused[1] == tape[1]
        assert fused[2] == tape[2]

    @pytest.mark.parametrize("batch", [1, 128])
    @ECT_FORMS
    def test_ect_price_heads(self, batch, loss_form, compat):
        config = EctPriceConfig(loss_form=loss_form, paper_eq16_compat=compat)
        model = EctPriceModel(N_STATIONS, N_TIME_IDS, config, np.random.default_rng(4))
        stations, times, targets = ncf_batch(batch, 2, seed=1)
        treated, charged = targets[:, 0], targets[:, 1]

        fused = fused_ncf_grads(
            model.network, stations, times, lambda z: model.loss(z, treated, charged)
        )
        tape = tape_ncf_grads(
            model.network,
            stations,
            times,
            lambda z: tape_ect_price_loss(z, treated, charged, config),
        )
        assert fused[0].tobytes() == tape[0].tobytes()
        assert fused[1] == tape[1]
        assert fused[2] == tape[2]

    def test_fit_matches_tape_training(self):
        """A whole fit on the fused steps equals a tape-trained twin bitwise."""
        config = NcfConfig(batch_size=16, epochs=2)
        stations, times, targets = ncf_batch(80, 1, seed=2)
        fused = NcfRegressor(N_STATIONS, N_TIME_IDS, config, np.random.default_rng(5))
        twin = NcfRegressor(N_STATIONS, N_TIME_IDS, config, np.random.default_rng(5))
        history = fused.fit(stations, times, targets)

        rng = twin._rng
        for _ in range(config.epochs):
            order = rng.permutation(len(stations))
            epoch_loss = 0.0
            for start in range(0, len(stations), config.batch_size):
                idx = order[start : start + config.batch_size]
                loss = tape_regressor_loss(
                    tape_ncf_logits(twin.network, stations[idx], times[idx]),
                    targets[idx].reshape(-1, 1),
                    True,
                )
                twin._optimizer.zero_grad()
                loss.backward()
                twin._optimizer.step()
                epoch_loss += loss.item()
        assert param_bytes(fused.network) == param_bytes(twin.network)
        assert float_bytes(history[-1]) == float_bytes(epoch_loss / 5)

    @ECT_FORMS
    def test_ect_price_fit_matches_tape_training(self, loss_form, compat):
        """A 2-epoch ``EctPriceModel.fit`` equals a tape-trained twin bitwise."""
        config = EctPriceConfig(
            batch_size=32, epochs=2, loss_form=loss_form, paper_eq16_compat=compat
        )
        dataset = pricing_dataset(100, seed=3)
        fused = EctPriceModel(N_STATIONS, N_TIME_IDS, config, np.random.default_rng(6))
        twin = EctPriceModel(N_STATIONS, N_TIME_IDS, config, np.random.default_rng(6))
        history = fused.fit(dataset)

        twin_history = []
        for _ in range(config.epochs):
            losses = []
            for idx in dataset.batches(config.batch_size, twin._rng):
                logits = tape_ncf_logits(
                    twin.network, dataset.station_ids[idx], dataset.time_ids[idx]
                )
                loss = tape_ect_price_loss(
                    logits, dataset.treated[idx], dataset.charged[idx], config
                )
                twin._optimizer.zero_grad()
                loss.backward()
                twin._optimizer.step()
                losses.append(loss.item())
            twin_history.append(sum(losses) / len(losses))
        assert param_bytes(fused.network) == param_bytes(twin.network)
        assert [float_bytes(v) for v in history] == [float_bytes(v) for v in twin_history]


def pricing_dataset(n: int, seed: int) -> PricingDataset:
    rng = np.random.default_rng(seed)
    return PricingDataset(
        station_ids=rng.integers(0, N_STATIONS, n),
        time_ids=rng.integers(0, N_TIME_IDS, n),
        treated=rng.integers(0, 2, n),
        charged=rng.integers(0, 2, n),
        stratum=rng.integers(0, 3, n),
        n_stations=N_STATIONS,
        n_time_ids=N_TIME_IDS,
    )


def ppo_minibatch(rng: np.random.Generator, batch: int, n_actions: int = 3):
    actions = rng.integers(0, n_actions, batch)
    # Old log-probs far enough off that the ratio clip binds on some rows.
    old_log_probs = np.log(rng.uniform(0.1, 0.9, batch))
    return actions, old_log_probs, rng.normal(size=batch), rng.normal(size=batch)


class TestActorCriticFusedMatchesTape:
    @pytest.mark.parametrize("batch", [1, 128])
    def test_ppo_grads_match_tape(self, batch):
        rng = np.random.default_rng(6)
        net = ActorCritic(6, 3, rng)
        config = PpoConfig()
        states = rng.normal(size=(batch, 6))
        minibatch = ppo_minibatch(rng, batch)

        net.zero_grad()
        logits, values, trace = net.forward_cached(states)
        fused = ppo_loss(logits, values, *minibatch, config)
        net.backward(trace, fused.d_logits, fused.d_values)
        fused_grads = grad_bytes(net)

        net.zero_grad()
        tape_logits, tape_values = tape_actor_critic(net, states)
        tape = tape_ppo_loss(tape_logits, tape_values, *minibatch, config)
        tape.loss.backward()

        assert logits.tobytes() == tape_logits.numpy().tobytes()
        assert values.tobytes() == tape_values.numpy().tobytes()
        assert float_bytes(fused.loss) == float_bytes(tape.loss)
        assert fused_grads == grad_bytes(net)

    def test_update_matches_tape_training(self):
        """One ``PpoAgent.update`` equals a tape-trained twin bitwise."""
        config = PpoConfig(batch_size=16, update_epochs=2)
        agent = PpoAgent(4, 3, config, np.random.default_rng(7))
        twin = PpoAgent(4, 3, config, np.random.default_rng(7))
        buffers = [RolloutBuffer(40, 4), RolloutBuffer(40, 4)]
        rng = np.random.default_rng(8)
        for step in range(40):
            row = (
                rng.normal(size=4),
                int(rng.integers(0, 3)),
                float(np.log(rng.uniform(0.1, 0.9))),
                float(rng.normal()),
                float(rng.normal()),
                step % 13 == 12,
            )
            for buffer in buffers:
                buffer.add(*row)
        stats = agent.update(buffers[0], last_value=0.3)

        buffer = buffers[1]
        buffer.compute_advantages(0.3, gamma=config.gamma, gae_lambda=config.gae_lambda)
        sums = np.zeros(5)
        n_batches = 0
        for _ in range(config.update_epochs):
            for idx in buffer.minibatches(config.batch_size, twin._rng):
                logits, values = tape_actor_critic(twin.network, buffer.states[idx])
                terms = tape_ppo_loss(
                    logits,
                    values,
                    buffer.actions[idx],
                    buffer.log_probs[idx],
                    buffer.advantages[idx],
                    buffer.returns[idx],
                    config,
                )
                twin._optimizer.zero_grad()
                terms.loss.backward()
                nn.clip_grad_norm(twin._optimizer.parameters, config.max_grad_norm)
                twin._optimizer.step()
                ratios = terms.ratio.numpy()
                sums += [
                    terms.policy_loss.item(),
                    terms.value_loss.item(),
                    terms.entropy.item(),
                    float((np.abs(ratios - 1.0) > config.clip_epsilon).mean()),
                    float(-np.log(ratios).mean()),
                ]
                n_batches += 1
        expected = UpdateStats(*(sums / n_batches).tolist())
        assert param_bytes(agent.network) == param_bytes(twin.network)
        assert stats == expected

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


# --------------------------------------------------------------------- #
# The numpy heads against their frozen tape oracles                      #
# --------------------------------------------------------------------- #


def with_clamp_rows(values: np.ndarray, special: list[list[float]]) -> list[np.ndarray]:
    """Batches for one head test: at batch 1, each special row alone plus
    a random row; at larger batches, the special rows first, then random."""
    if len(values) == 1:
        return [np.array([row], dtype=float) for row in special] + [values]
    values = values.copy()
    values[: len(special)] = special
    return [values]


def tape_head(oracle, logits: np.ndarray):
    leaf = nn.Tensor(logits, requires_grad=True)
    loss = oracle(leaf)
    loss.backward()
    return float_bytes(loss), leaf.grad.tobytes()


def numpy_head(head, logits: np.ndarray):
    loss, d_logits = head(logits)
    assert isinstance(loss, float)
    return float_bytes(loss), d_logits.tobytes()


#: BCE/MSE rows: the ±60 exp clip, its edge, and signed zeros.
REGRESSION_ROWS = [[80.0], [-80.0], [60.0], [-60.0], [0.0], [-0.0], [1e-300]]
#: ECT-Price rows [s00, s01, s11, g]: the 1e-9 probability floor, a
#: prediction that rounds to 1.0 (the clip's upper edge), the strata's
#: exp clip (log-softmax below -60), the sigmoid's ±60 clip, signed zeros.
ECT_ROWS = [
    [-40.0, 0.0, 0.0, 0.0],
    [-40.0, 0.0, 0.0, 80.0],
    [0.0, 0.0, 0.0, 80.0],
    [0.0, 0.0, 0.0, -80.0],
    [-40.0, 0.0, 0.0, -80.0],
    [100.0, 0.0, -10.0, 0.5],
    [0.0, -0.0, 0.0, -0.0],
    [-0.0, -0.0, -0.0, 0.0],
    [3.0, 80.0, -30.0, 61.0],
]
#: PPO rows (logits, action, old log-prob, advantage): log-probabilities
#: below the -60 exp clip, a ratio past the exp clip, ratios far outside
#: and exactly on 1 ± ε (the log-prob of action 0 is exactly 0.0 there),
#: signed zeros.
PPO_ROWS = [
    ([80.0, -80.0, 0.0], 1, -1.0, 0.5),
    ([0.0, -0.0, 0.0], 0, -100.0, 1.0),
    ([-0.0, -0.0, -0.0], 2, 5.0, -1.0),
    ([100.0, -100.0, -100.0], 0, -float(np.log(1.2)), 1.0),
    ([100.0, -100.0, -100.0], 0, -float(np.log(0.8)), -1.0),
    ([70.0, 0.0, -5.0], 0, -1.0, 0.0),
    ([1.0, 2.0, 3.0], 1, -1.0, -0.0),
]


def ppo_batches(rng: np.random.Generator, batch: int):
    """``(logits, actions, old_log_probs, advantages)`` batches over PPO_ROWS,
    laid out as :func:`with_clamp_rows` does."""
    logits = rng.normal(0.0, 2.0, (batch, 3))
    actions, old_log_probs, advantages, _ = ppo_minibatch(rng, batch)
    columns = [np.array(column) for column in zip(*PPO_ROWS)]
    if batch == 1:
        for row in range(len(PPO_ROWS)):
            yield tuple(column[row : row + 1] for column in columns)
        yield logits, actions, old_log_probs, advantages
        return
    n = len(PPO_ROWS)
    logits[:n], actions[:n], old_log_probs[:n], advantages[:n] = columns
    yield logits, actions, old_log_probs, advantages


class TestNumpyHeadsMatchTape:
    @pytest.mark.parametrize("batch", [1, 128])
    @pytest.mark.parametrize("n_outputs", [1, 4])
    @pytest.mark.parametrize("binary", [True, False], ids=["bce", "mse"])
    def test_regressor_head(self, batch, n_outputs, binary):
        rng = np.random.default_rng(20)
        head = nn.heads.bce_with_logits if binary else nn.heads.mse
        rows = [row * n_outputs for row in REGRESSION_ROWS]
        for logits in with_clamp_rows(rng.normal(0.0, 4.0, (batch, n_outputs)), rows):
            targets = rng.integers(0, 2, logits.shape).astype(float)
            if not binary:
                targets = rng.normal(size=logits.shape)
                targets[0, 0] = -0.0
            assert numpy_head(lambda z: head(z, targets), logits) == tape_head(
                lambda z: tape_regressor_loss(z, targets, binary), logits
            )

    @pytest.mark.parametrize("batch", [1, 128])
    @ECT_FORMS
    def test_ect_price_head(self, batch, loss_form, compat):
        rng = np.random.default_rng(21)
        config = EctPriceConfig(loss_form=loss_form, paper_eq16_compat=compat)
        model = EctPriceModel(2, 2, config, rng)
        for logits in with_clamp_rows(rng.normal(0.0, 3.0, (batch, 4)), ECT_ROWS):
            # Every (treated, charged) cell, for every clamp row.
            for cell in range(4):
                treated = (np.arange(len(logits)) + cell) % 2
                charged = (np.arange(len(logits)) // 2 + cell // 2) % 2
                got = numpy_head(lambda z: model.loss(z, treated, charged), logits)
                want = tape_head(
                    lambda z: tape_ect_price_loss(z, treated, charged, config), logits
                )
                assert got == want

    @pytest.mark.parametrize("batch", [1, 128])
    @pytest.mark.parametrize(
        "config",
        [PpoConfig(), PpoConfig(entropy_coef=0.0, value_coef=0.0)],
        ids=["default", "no-bonus"],
    )
    def test_ppo_head(self, batch, config):
        rng = np.random.default_rng(22)
        for logits, actions, old_log_probs, advantages in ppo_batches(rng, batch):
            n = len(logits)
            values, returns = rng.normal(size=(n, 1)), rng.normal(size=n)
            got = ppo_loss(logits, values, actions, old_log_probs, advantages, returns, config)
            logits_leaf = nn.Tensor(logits, requires_grad=True)
            values_leaf = nn.Tensor(values, requires_grad=True)
            tape = tape_ppo_loss(
                logits_leaf, values_leaf, actions, old_log_probs, advantages, returns, config
            )
            tape.loss.backward()
            assert float_bytes(got.loss) == float_bytes(tape.loss)
            assert float_bytes(got.policy_loss) == float_bytes(tape.policy_loss)
            assert float_bytes(got.value_loss) == float_bytes(tape.value_loss)
            assert float_bytes(got.entropy) == float_bytes(tape.entropy)
            assert got.ratio.tobytes() == tape.ratio.numpy().tobytes()
            assert got.d_logits.tobytes() == logits_leaf.grad.tobytes()
            assert got.d_values.tobytes() == values_leaf.grad.tobytes()

    def test_clamp_rows_are_hit(self):
        """The special rows reach the clamps they are meant for."""
        (logits, actions, old_log_probs, advantages), = ppo_batches(
            np.random.default_rng(22), 128
        )
        got = ppo_loss(
            logits, np.zeros((128, 1)), actions, old_log_probs, advantages,
            np.zeros(128), PpoConfig(),
        )
        assert got.ratio[1] == np.exp(60.0)
        assert got.ratio[3] == 1.2 and got.ratio[4] == 0.8
        assert (got.ratio > 1.2).any() and (got.ratio < 0.8).any()
        assert nn.kernels.log_softmax(logits[:1]).min() < -60.0

        strata_logits = np.array(ECT_ROWS)
        log_strata = nn.kernels.log_softmax(strata_logits[:, :3])
        g = nn.kernels.sigmoid(strata_logits[:, 3])
        assert log_strata.min() < -nn.kernels.EXP_CLIP
        assert np.exp(log_strata[0, 0]) * g[0] < 1e-9
        assert ((np.exp(log_strata[:, 1]) + np.exp(log_strata[:, 2])) * g == 1.0).any()
        assert (g == 1.0).any()


def central_differences(loss_fn, values: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(values)
    for i in np.ndindex(values.shape):
        original = values[i]
        values[i] = original + eps
        plus = loss_fn(values)
        values[i] = original - eps
        minus = loss_fn(values)
        values[i] = original
        grad[i] = (plus - minus) / (2.0 * eps)
    return grad


class TestHeadFiniteDifferences:
    @pytest.mark.parametrize("binary", [True, False], ids=["bce", "mse"])
    def test_regressor_head(self, binary):
        rng = np.random.default_rng(23)
        head = nn.heads.bce_with_logits if binary else nn.heads.mse
        logits = rng.normal(size=(6, 2))
        targets = rng.integers(0, 2, (6, 2)).astype(float)
        _, d_logits = head(logits, targets)
        numeric = central_differences(lambda z: head(z, targets)[0], logits)
        assert np.allclose(d_logits, numeric, atol=1e-6, rtol=1e-5)

    @ECT_FORMS
    def test_ect_price_head(self, loss_form, compat):
        rng = np.random.default_rng(24)
        config = EctPriceConfig(loss_form=loss_form, paper_eq16_compat=compat)
        model = EctPriceModel(2, 2, config, rng)
        logits = rng.normal(size=(8, 4))
        treated, charged = np.arange(8) % 2, np.arange(8) // 2 % 2
        _, d_logits = model.loss(logits, treated, charged)
        numeric = central_differences(lambda z: model.loss(z, treated, charged)[0], logits)
        assert np.allclose(d_logits, numeric, atol=1e-6, rtol=1e-5)

    def test_ppo_head(self):
        rng = np.random.default_rng(25)
        config = PpoConfig()
        logits, values = rng.normal(size=(6, 3)), rng.normal(size=(6, 1))
        minibatch = ppo_minibatch(rng, 6)
        got = ppo_loss(logits, values, *minibatch, config)
        numeric_logits = central_differences(
            lambda z: ppo_loss(z, values, *minibatch, config).loss, logits
        )
        numeric_values = central_differences(
            lambda v: ppo_loss(logits, v, *minibatch, config).loss, values
        )
        assert np.allclose(got.d_logits, numeric_logits, atol=1e-6, rtol=1e-5)
        assert np.allclose(got.d_values, numeric_values, atol=1e-6, rtol=1e-5)


class TestNoTapeInsideNetworks:
    def test_network_passes_build_no_tensor(self, monkeypatch):
        rng = np.random.default_rng(8)
        ncf = NcfNetwork(N_STATIONS, N_TIME_IDS, NcfConfig(), rng, n_outputs=4)
        ac = ActorCritic(5, 3, rng)
        stations, times, _ = ncf_batch(16, 4)
        states = rng.normal(size=(16, 5))

        def no_tensor(*args, **kwargs):
            raise AssertionError("a Tensor was built inside a fused network pass")

        monkeypatch.setattr(nn.Tensor, "__init__", no_tensor)
        logits, cache = ncf.forward_cached(stations, times)
        ncf.backward(cache, np.ones_like(logits))
        logits, values, trace = ac.forward_cached(states)
        ac.backward(trace, np.ones_like(logits), np.ones_like(values))

    def test_training_builds_no_tensor(self, monkeypatch):
        """``fit``/``update`` construct no Tensor: every step is numpy."""
        stations, times, targets = ncf_batch(40, 1)
        regressors = [
            NcfRegressor(N_STATIONS, N_TIME_IDS, NcfConfig(epochs=2), rng, binary=binary)
            for rng, binary in ((np.random.default_rng(9), True), (np.random.default_rng(9), False))
        ]
        ect_models = [
            EctPriceModel(
                N_STATIONS,
                N_TIME_IDS,
                EctPriceConfig(epochs=2, loss_form=form, paper_eq16_compat=compat),
                np.random.default_rng(10),
            )
            for form, compat in (("nll", False), ("mse", False), ("mse", True))
        ]
        dataset = pricing_dataset(60, seed=4)
        agent = PpoAgent(4, 3, PpoConfig(batch_size=8, update_epochs=2))
        buffer = RolloutBuffer(24, 4)
        rng = np.random.default_rng(11)
        while not buffer.full:
            buffer.add(rng.normal(size=4), int(rng.integers(0, 3)), -1.1, 0.0, 1.0, False)

        built = []
        original = nn.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self))
            original(self, *args, **kwargs)

        monkeypatch.setattr(nn.Tensor, "__init__", counting_init)
        for regressor in regressors:
            regressor.fit(stations, times, targets)
        for model in ect_models:
            model.fit(dataset)
        agent.update(buffer)
        assert built == []

    def test_ncf_ids_checked_once_each(self):
        net = NcfNetwork(N_STATIONS, N_TIME_IDS, NcfConfig(), np.random.default_rng(12))
        with pytest.raises(ModelError, match="out of range"):
            net.forward_cached(np.array([0, N_STATIONS]), np.array([0, 1]))
        with pytest.raises(ModelError, match="out of range"):
            net.forward_cached(np.array([0, 1]), np.array([-1, 1]))


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

    def test_shared_positions_equal_fresh_ones(self):
        rng = np.random.default_rng(14)
        idx = rng.integers(0, 5, 30)
        positions = nn.kernels.scatter_positions(idx, 4)
        for _ in range(3):
            grad = rng.normal(size=(30, 4))
            grad[rng.random(grad.shape) < 0.3] = -0.0
            shared = nn.kernels.scatter_rows(idx, grad, 5, positions)
            assert shared.tobytes() == nn.kernels.scatter_rows(idx, grad, 5).tobytes()

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
