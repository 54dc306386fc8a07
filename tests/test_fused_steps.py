"""The fused numpy training steps against the autograd tape.

The NCF trunk and the PPO actor-critic train on hand-written numpy
forward/backward passes, seeded by numpy loss heads that return
``(loss, d_logits)``. These tests hold heads and passes to the full tape
bitwise (``tobytes``), to central finite differences, and the flat-buffer
optimizer to a per-parameter reference loop. The tape (``tape.py``) runs
only here; the tape code of every loss head is frozen below as the oracle.
"""

from __future__ import annotations

import importlib.util
from typing import NamedTuple

import numpy as np
import pytest
from tape import Tape, Tensor, bce_with_logits, concat, mse_loss, numerical_gradient

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


def tape_regressor_loss(logits: Tensor, targets: np.ndarray, binary: bool) -> Tensor:
    """``NcfRegressor``'s tape head: BCE-with-logits or MSE."""
    if binary:
        return bce_with_logits(logits, Tensor(targets))
    diff = logits - Tensor(targets)
    squared = diff * diff
    return squared.mean()


def tape_ect_price_heads(
    logits: Tensor,
) -> tuple[Tensor, Tensor, Tensor, Tensor]:
    """(batch, 4) logits → (f00, f01, f11, g) as 1-D tensors."""
    batch = logits.shape[0]
    c0 = logits.select_columns(np.zeros(batch, dtype=int)).reshape(batch, 1)
    c1 = logits.select_columns(np.ones(batch, dtype=int)).reshape(batch, 1)
    c2 = logits.select_columns(np.full(batch, 2, dtype=int)).reshape(batch, 1)
    strata = concat([c0, c1, c2], axis=1).softmax(axis=-1)
    f00 = strata.select_columns(np.zeros(batch, dtype=int))
    f01 = strata.select_columns(np.ones(batch, dtype=int))
    f11 = strata.select_columns(np.full(batch, 2, dtype=int))
    g = logits.select_columns(np.full(batch, 3, dtype=int)).sigmoid()
    return f00, f01, f11, g


def tape_ect_price_loss(
    logits: Tensor,
    treated: np.ndarray,
    charged: np.ndarray,
    config: EctPriceConfig,
) -> Tensor:
    """``EctPriceModel``'s tape objective (Eq. 23 or its MLE form)."""
    treated = np.asarray(treated, dtype=float)
    charged = np.asarray(charged, dtype=float)
    f00, f01, f11, g = tape_ect_price_heads(logits)

    y0t1 = Tensor(((charged == 0) & (treated == 1)).astype(float))
    y1t0 = Tensor(((charged == 1) & (treated == 0)).astype(float))
    y1t1 = Tensor(((charged == 1) & (treated == 1)).astype(float))
    y0t0 = Tensor(((charged == 0) & (treated == 0)).astype(float))

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

    l1 = mse_loss(f00 * g, y0t1)
    l2 = mse_loss(f11 * (1.0 - g), y1t0)
    l3 = mse_loss((f01 + f11) * g, y1t1)
    if config.paper_eq16_compat:
        l4 = mse_loss((f00 + f11) * (1.0 - g), y0t0)
    else:
        l4 = mse_loss((f00 + f01) * (1.0 - g), y0t0)
    lp = mse_loss(g, Tensor(treated))
    return l1 + l2 + l3 + l4 + lp


class TapePpoLoss(NamedTuple):
    """The Eq. 25–27 objective on one minibatch and its tape terms."""

    loss: Tensor
    policy_loss: Tensor
    value_loss: Tensor
    entropy: Tensor
    ratio: Tensor


def tape_ppo_loss(
    logits: Tensor,
    values: Tensor,
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
    ratio = (new_log_probs - Tensor(old_log_probs)).exp()
    adv = Tensor(advantages)
    unclipped = ratio * adv
    clipped = ratio.clip(1.0 - config.clip_epsilon, 1.0 + config.clip_epsilon) * adv
    policy_loss = -unclipped.minimum(clipped).mean()

    value_loss = mse_loss(values, Tensor(returns))
    loss = policy_loss + config.value_coef * value_loss - config.entropy_coef * entropy
    return TapePpoLoss(loss, policy_loss, value_loss, entropy, ratio)


# --------------------------------------------------------------------- #
# Tape references: the networks' former Tensor forward passes           #
# --------------------------------------------------------------------- #


def tape_ncf_logits(
    tape: Tape, net: NcfNetwork, stations: np.ndarray, times: np.ndarray
) -> Tensor:
    gmf = tape(net.station_gmf, stations) * tape(net.time_gmf, times)
    mlp_in = concat([tape(net.station_mlp, stations), tape(net.time_mlp, times)], axis=1)
    mlp_out = tape(net.mlp, mlp_in).relu()
    return tape(net.head, concat([gmf, mlp_out], axis=1))


def tape_actor_critic(
    tape: Tape, net: ActorCritic, states: np.ndarray
) -> tuple[Tensor, Tensor]:
    features = tape(net.trunk, Tensor(states))
    return tape(net.actor_head, features), tape(net.critic_head, features)


def grad_bytes(module: nn.Module) -> dict[str, bytes]:
    return {name: param.grad.tobytes() for name, param in module.named_parameters()}


def param_bytes(module: nn.Module) -> dict[str, bytes]:
    return {name: param.data.tobytes() for name, param in module.named_parameters()}


def float_bytes(value) -> bytes:
    """The float64 bytes of a python float or a 0-d tensor/array."""
    return np.float64(value.data if isinstance(value, Tensor) else value).tobytes()


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
    tape = Tape()
    logits = tape_ncf_logits(tape, net, stations, times)
    loss = oracle(logits)
    tape.backward(loss)
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
                tape = Tape()
                loss = tape_regressor_loss(
                    tape_ncf_logits(tape, twin.network, stations[idx], times[idx]),
                    targets[idx].reshape(-1, 1),
                    True,
                )
                twin._optimizer.zero_grad()
                tape.backward(loss)
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
                tape = Tape()
                logits = tape_ncf_logits(
                    tape, twin.network, dataset.station_ids[idx], dataset.time_ids[idx]
                )
                loss = tape_ect_price_loss(
                    logits, dataset.treated[idx], dataset.charged[idx], config
                )
                twin._optimizer.zero_grad()
                tape.backward(loss)
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
        tape = Tape()
        tape_logits, tape_values = tape_actor_critic(tape, net, states)
        oracle = tape_ppo_loss(tape_logits, tape_values, *minibatch, config)
        tape.backward(oracle.loss)

        assert logits.tobytes() == tape_logits.numpy().tobytes()
        assert values.tobytes() == tape_values.numpy().tobytes()
        assert float_bytes(fused.loss) == float_bytes(oracle.loss)
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
                tape = Tape()
                logits, values = tape_actor_critic(tape, twin.network, buffer.states[idx])
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
                tape.backward(terms.loss)
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
        tape_logits, tape_values = tape_actor_critic(Tape(), net, states)
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
    leaf = Tensor(logits, requires_grad=True)
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
            logits_leaf = Tensor(logits, requires_grad=True)
            values_leaf = Tensor(values, requires_grad=True)
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
    def test_runtime_has_no_tape(self):
        """The tape lives in the tests: ``repro.nn`` has no Tensor to build."""
        assert not hasattr(nn, "Tensor")
        assert "Tensor" not in nn.__all__
        assert importlib.util.find_spec("repro.nn.autograd") is None

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
        numeric = numerical_gradient(loss_fn, param)
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
            return (Tensor(net.forward(stations, times)) * Tensor(weights)).sum()

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
            return Tensor((logits * w_logits).sum() + (values * w_values).sum())

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
        table = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        idx = np.array([3, 1, 3, 3, 0])
        seed = rng.normal(size=(5, 3))
        seed[0, 0] = -0.0
        table.gather_rows(idx).backward(seed)
        expected = np.zeros((4, 3))
        np.add.at(expected, idx, seed)
        assert table.grad.tobytes() == expected.tobytes()

        matrix = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        cols = np.array([2, 0, 0, 1, 2])
        column_seed = rng.normal(size=5)
        column_seed[1] = -0.0
        matrix.select_columns(cols).backward(column_seed)
        expected = np.zeros((5, 3))
        np.add.at(expected, (np.arange(5), cols), column_seed)
        assert matrix.grad.tobytes() == expected.tobytes()

    def test_gather_rows_negative_indices(self):
        table = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        table.gather_rows(np.array([-1, 0, -1])).sum().backward()
        assert table.grad.tolist() == [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]]


# --------------------------------------------------------------------- #
# Flat optimizers                                                        #
# --------------------------------------------------------------------- #

SHAPES = [(3, 4), (4,), (1,), ()]


def reference_step(params, grads, state, step, *, lr, weight_decay):
    """The per-parameter Adam loop the flat optimizer replaces."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    for i, (param, grad) in enumerate(zip(params, grads)):
        if weight_decay:
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
    # The ``kind`` id dates from the removed SGD/AdamW cases; it keeps the
    # test id stable.
    @pytest.mark.parametrize("kind", ["adam"])
    def test_matches_per_parameter_reference(self, kind):
        rng = np.random.default_rng(13)
        initial = [rng.normal(size=shape) for shape in SHAPES]
        params = [nn.Parameter(value.copy()) for value in initial]
        lr, decay = 0.01, 0.05
        optimizer = nn.Adam(params, lr=lr, weight_decay=decay)
        state = [(np.zeros(shape), np.zeros(shape)) for shape in SHAPES]
        reference = [value.copy() for value in initial]

        for step in range(1, 51):
            grads = [rng.normal(size=shape) for shape in SHAPES]
            if step % 7 == 0:
                grads[1] = np.zeros(SHAPES[1])  # an absent gradient counts as zero
            optimizer.zero_grad()
            for i, (param, grad) in enumerate(zip(params, grads)):
                if not (step % 7 == 0 and i == 1):
                    param.grad = grad.copy()
            optimizer.step()
            reference_step(reference, grads, state, step, lr=lr, weight_decay=decay)
            for param, expected in zip(params, reference):
                assert param.data.tobytes() == np.asarray(expected).tobytes()

    def test_in_place_writes_keep_views_bound(self, rng):
        net = nn.MLP((3, 4, 2), rng)
        optimizer = nn.Adam(net.parameters(), lr=0.1)
        donor = nn.MLP((3, 4, 2), np.random.default_rng(99))
        for param, source in zip(net.parameters(), donor.parameters()):
            param.data[...] = source.data
        for (name, param), (_, source) in zip(net.named_parameters(), donor.named_parameters()):
            assert param.data.base is optimizer._flat, name
            assert np.array_equal(param.data, source.data)
        for param in net.parameters():
            param.grad = np.ones_like(param.data)
        optimizer.step()
        for param, source in zip(net.parameters(), donor.parameters()):
            assert not np.array_equal(param.data, source.data)

    def test_rejects_duplicate_parameter(self):
        w = nn.Parameter(np.ones(3))
        with pytest.raises(ModelError, match="listed twice"):
            nn.Adam([w, w], lr=0.1)

    def test_rejects_aliased_parameters(self):
        base = nn.Parameter(np.ones(4))
        view = nn.Parameter(base.data[1:3])
        with pytest.raises(ModelError, match="aliases"):
            nn.Adam([base, view], lr=0.1)

    def test_rebound_parameter_fails_the_step(self):
        w = nn.Parameter(np.ones(3))
        optimizer = nn.Adam([w], lr=0.1)
        w.data = np.zeros(3)
        w.grad = np.ones(3)
        with pytest.raises(ModelError, match="rebound"):
            optimizer.step()


# --------------------------------------------------------------------- #
# Parameter order                                                        #
# --------------------------------------------------------------------- #

NCF_TRUNK = [
    ("station_gmf.weight", (7, 8)),
    ("time_gmf.weight", (5, 8)),
    ("station_mlp.weight", (7, 8)),
    ("time_mlp.weight", (5, 8)),
    ("mlp.body.steps.0.weight", (16, 32)),
    ("mlp.body.steps.0.bias", (32,)),
    ("mlp.body.steps.2.weight", (32, 16)),
    ("mlp.body.steps.2.bias", (16,)),
]


class TestParameterOrder:
    """The order ``named_parameters`` yields is the flat buffer's layout and
    the summation order of ``clip_grad_norm``; it must not drift."""

    @pytest.mark.parametrize(
        "build, expected",
        [
            (
                lambda: NcfRegressor(N_STATIONS, N_TIME_IDS, NcfConfig(), np.random.default_rng(0)),
                NCF_TRUNK + [("head.weight", (24, 1)), ("head.bias", (1,))],
            ),
            (
                lambda: EctPriceModel(N_STATIONS, N_TIME_IDS, EctPriceConfig()),
                NCF_TRUNK + [("head.weight", (24, 4)), ("head.bias", (4,))],
            ),
            (
                lambda: PpoAgent(6, 3, PpoConfig()),
                [
                    ("trunk.body.steps.0.weight", (6, 64)),
                    ("trunk.body.steps.0.bias", (64,)),
                    ("trunk.body.steps.2.weight", (64, 64)),
                    ("trunk.body.steps.2.bias", (64,)),
                    ("actor_head.weight", (64, 3)),
                    ("actor_head.bias", (3,)),
                    ("critic_head.weight", (64, 1)),
                    ("critic_head.bias", (1,)),
                ],
            ),
        ],
        ids=["ncf-regressor", "ect-price", "actor-critic"],
    )
    def test_named_parameters_order(self, build, expected):
        model = build()
        named = list(model.network.named_parameters())
        assert [(name, param.shape) for name, param in named] == expected
        packed = model._optimizer.parameters
        assert len(packed) == len(named)
        assert all(a is b for a, b in zip(packed, (param for _, param in named)))
