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
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from ppo_oracle import clip_grad_norm
from tape import Tape, Tensor, bce_with_logits, concat, mse_loss, numerical_gradient

from repro import nn
from repro.causal.dataset import PricingDataset
from repro.causal.ect_price import EctPriceConfig, EctPriceModel
from repro.causal.ncf import NcfConfig, NcfNetwork, NcfRegressor
from repro.errors import ModelError
from repro.rl.buffer import FleetRolloutBuffer
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


def zero_grads(module: nn.Module) -> None:
    """Zero every gradient a module holds, in place."""
    for param in module.parameters():
        if param.grad is not None:
            param.grad[...] = 0.0


def permuted_batches(n: int, batch_size: int, rng: np.random.Generator) -> list:
    """One permutation of ``n`` items from ``rng``, cut into index batches
    of consecutive permuted items (the fused fits' epoch order)."""
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def fused_ncf_step(net, stations, times, head):
    """One fused ``train_step``: the logits its head saw, its loss bytes,
    the gradients it wrote and the parameters after the Adam step."""
    optimizer = nn.Adam(net.parameters(), lr=0.01)
    seen = []

    def capture(logits):
        seen.append(logits.copy())
        return head(logits)

    loss = net.train_step(optimizer, net.embedding_rows(stations, times), capture)
    return seen[0], float_bytes(loss), grad_bytes(net), param_bytes(net)


def tape_ncf_step(net, stations, times, oracle):
    """The same step on the full tape (tape network and tape head)."""
    optimizer = nn.Adam(net.parameters(), lr=0.01)
    tape = Tape()
    logits = tape_ncf_logits(tape, net, stations, times)
    loss = oracle(logits)
    optimizer.flat_grad.fill(0.0)
    tape.backward(loss)
    grads = grad_bytes(net)
    optimizer.step()
    return logits.numpy(), float_bytes(loss), grads, param_bytes(net)


def assert_same_step(fused, tape):
    assert fused[0].tobytes() == tape[0].tobytes()
    assert fused[1] == tape[1]
    assert fused[2] == tape[2]
    assert fused[3] == tape[3]


def ncf_batch(batch: int, n_outputs: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    # Few ids relative to the batch, so the embedding scatters repeat rows.
    stations = rng.integers(0, N_STATIONS, batch)
    times = rng.integers(0, N_TIME_IDS, batch)
    targets = rng.integers(0, 2, (batch, n_outputs)).astype(float)
    return stations, times, targets


ECT_FORMS = pytest.mark.parametrize(
    "loss_form, compat",
    [("nll", False), ("nll", True), ("mse", False), ("mse", True)],
    ids=["nll", "nll-eq16-compat", "mse", "mse-eq16-compat"],
)
WEIGHT_DECAYS = pytest.mark.parametrize("weight_decay", [0.0, 1e-4], ids=["wd0", "wd1e-4"])


def tape_fit(model, batches, step_loss, epochs: int) -> list[float]:
    """Train ``model`` on the tape: per epoch, one permutation of the items
    from the model's rng, then batches of consecutive permuted items.
    ``step_loss(tape, idx)`` is one batch's tape loss."""
    history = []
    for _ in range(epochs):
        losses = []
        for idx in batches(model._rng):
            tape = Tape()
            loss = step_loss(tape, idx)
            model._optimizer.flat_grad.fill(0.0)
            tape.backward(loss)
            model._optimizer.step()
            losses.append(loss.item())
        history.append(sum(losses) / len(losses))
    return history


class TestNcfFusedMatchesTape:
    """The fused ``NcfNetwork.train_step`` (one packed gather and scatter,
    gradients written into Adam's flat buffer) against the full tape."""

    @pytest.mark.parametrize("batch", [1, 128])
    @pytest.mark.parametrize("n_outputs", [1, 4])
    # The ``unweighted-`` prefix dates from the removed per-sample-weight
    # heads; it keeps the test ids stable.
    @pytest.mark.parametrize("binary", [True, False], ids=["unweighted-bce", "unweighted-mse"])
    def test_regressor_heads(self, batch, n_outputs, binary):
        stations, times, targets = ncf_batch(batch, n_outputs)
        head = nn.heads.bce_with_logits if binary else nn.heads.mse

        def network():
            return NcfNetwork(
                N_STATIONS, N_TIME_IDS, NcfConfig(), np.random.default_rng(3), n_outputs=n_outputs
            )

        fused = fused_ncf_step(network(), stations, times, lambda z: head(z, targets))
        tape = tape_ncf_step(
            network(), stations, times, lambda z: tape_regressor_loss(z, targets, binary)
        )
        assert_same_step(fused, tape)

    @pytest.mark.parametrize("batch", [1, 128])
    @ECT_FORMS
    def test_ect_price_heads(self, batch, loss_form, compat):
        config = EctPriceConfig(loss_form=loss_form, paper_eq16_compat=compat)
        stations, times, targets = ncf_batch(batch, 2, seed=1)
        treated, charged = targets[:, 0], targets[:, 1]

        def model():
            return EctPriceModel(N_STATIONS, N_TIME_IDS, config, np.random.default_rng(4))

        fused_model = model()
        fused = fused_ncf_step(
            fused_model.network, stations, times, lambda z: fused_model.loss(z, treated, charged)
        )
        tape = tape_ncf_step(
            model().network,
            stations,
            times,
            lambda z: tape_ect_price_loss(z, treated, charged, config),
        )
        assert_same_step(fused, tape)

    @pytest.mark.parametrize("binary", [True, False], ids=["bce", "mse"])
    @WEIGHT_DECAYS
    def test_fit_matches_tape_training(self, binary, weight_decay):
        """A whole fit on the fused steps equals a tape-trained twin bitwise:
        80 items in batches of 24, so each epoch ends on a ragged batch."""
        config = NcfConfig(batch_size=24, epochs=3, weight_decay=weight_decay)
        stations, times, targets = ncf_batch(80, 1, seed=2)
        if not binary:
            targets = np.random.default_rng(9).normal(size=targets.shape)

        def regressor():
            return NcfRegressor(
                N_STATIONS, N_TIME_IDS, config, np.random.default_rng(5), binary=binary
            )

        fused, twin = regressor(), regressor()
        history = fused.fit(stations, times, targets)

        twin_history = tape_fit(
            twin,
            lambda rng: permuted_batches(len(stations), config.batch_size, rng),
            lambda tape, idx: tape_regressor_loss(
                tape_ncf_logits(tape, twin.network, stations[idx], times[idx]),
                targets[idx].reshape(-1, 1),
                binary,
            ),
            config.epochs,
        )
        assert param_bytes(fused.network) == param_bytes(twin.network)
        assert [float_bytes(v) for v in history] == [float_bytes(v) for v in twin_history]

    @ECT_FORMS
    @WEIGHT_DECAYS
    def test_ect_price_fit_matches_tape_training(self, loss_form, compat, weight_decay):
        """A 2-epoch ``EctPriceModel.fit`` equals a tape-trained twin bitwise
        (100 items in batches of 32: a ragged last batch)."""
        config = EctPriceConfig(
            batch_size=32,
            epochs=2,
            loss_form=loss_form,
            paper_eq16_compat=compat,
            weight_decay=weight_decay,
        )
        dataset = pricing_dataset(100, seed=3)
        fused = EctPriceModel(N_STATIONS, N_TIME_IDS, config, np.random.default_rng(6))
        twin = EctPriceModel(N_STATIONS, N_TIME_IDS, config, np.random.default_rng(6))
        history = fused.fit(dataset)

        twin_history = tape_fit(
            twin,
            lambda rng: permuted_batches(len(dataset), config.batch_size, rng),
            lambda tape, idx: tape_ect_price_loss(
                tape_ncf_logits(
                    tape, twin.network, dataset.station_ids[idx], dataset.time_ids[idx]
                ),
                dataset.treated[idx],
                dataset.charged[idx],
                config,
            ),
            config.epochs,
        )
        assert param_bytes(fused.network) == param_bytes(twin.network)
        assert [float_bytes(v) for v in history] == [float_bytes(v) for v in twin_history]

    def test_inference_matches_tape_forward(self):
        """``forward`` (the stacked-table gather outside training) equals
        the tape's per-table lookups; repeated ids read the same rows."""
        net = NcfNetwork(N_STATIONS, N_TIME_IDS, NcfConfig(), np.random.default_rng(7), n_outputs=4)
        stations, times, _ = ncf_batch(40, 1, seed=4)
        logits = net.forward(stations, times)
        assert logits.tobytes() == tape_ncf_logits(Tape(), net, stations, times).numpy().tobytes()
        same = net.forward(np.array([2, 2]), np.array([4, 4]))
        assert same[0].tobytes() == same[1].tobytes()


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


def fused_ppo_step(net: ActorCritic, states: np.ndarray, targets: tuple):
    """One fused ``train_step`` on the PPO head: the logits and values the
    head saw, its loss record and the gradients the step wrote."""
    optimizer = nn.Adam(net.parameters(), lr=1e-3)
    seen = []

    def capture(logits, values, *targets):
        seen.append((logits.copy(), values.copy()))
        return ppo_loss(logits, values, *targets)

    record = net.train_step(optimizer, states, capture, targets)
    return (*seen[0], record, grad_bytes(net))


def tape_ppo_step(net: ActorCritic, states: np.ndarray, targets: tuple):
    """The same step's forward and gradients on the full tape."""
    tape = Tape()
    logits, values = tape_actor_critic(tape, net, states)
    oracle = tape_ppo_loss(logits, values, *targets)
    tape.backward(oracle.loss)
    return logits.numpy(), values.numpy(), oracle, grad_bytes(net)


class TestActorCriticFusedMatchesTape:
    @pytest.mark.parametrize("batch", [1, 128])
    def test_ppo_grads_match_tape(self, batch):
        rng = np.random.default_rng(6)
        states = rng.normal(size=(batch, 6))
        targets = (*ppo_minibatch(rng, batch), PpoConfig())

        logits, values, fused, fused_grads = fused_ppo_step(
            ActorCritic(6, 3, np.random.default_rng(16)), states, targets
        )
        tape_logits, tape_values, oracle, tape_grads = tape_ppo_step(
            ActorCritic(6, 3, np.random.default_rng(16)), states, targets
        )
        assert logits.tobytes() == tape_logits.tobytes()
        assert values.tobytes() == tape_values.tobytes()
        assert float_bytes(fused.loss) == float_bytes(oracle.loss)
        assert fused_grads == tape_grads

    def test_update_matches_tape_training(self):
        """One ``PpoAgent.update`` equals a tape-trained twin bitwise."""
        config = PpoConfig(batch_size=16, update_epochs=2)
        agent = PpoAgent(4, 3, config, np.random.default_rng(7))
        twin = PpoAgent(4, 3, config, np.random.default_rng(7))
        buffers = [FleetRolloutBuffer(40, 1, 4), FleetRolloutBuffer(40, 1, 4)]
        rng = np.random.default_rng(8)
        for step in range(40):
            row = (
                rng.normal(size=(1, 4)),
                np.array([rng.integers(0, 3)]),
                np.array([np.log(rng.uniform(0.1, 0.9))]),
                np.array([rng.normal()]),
                np.array([rng.normal()]),
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
            for idx in permuted_batches(len(buffer), config.batch_size, twin._rng):
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
                twin._optimizer.flat_grad.fill(0.0)
                tape.backward(terms.loss)
                clip_grad_norm(twin._optimizer.parameters, config.max_grad_norm)
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


class TestInputGradientSkipped:
    """The states are data: the trunk's first layer forms no d(input)."""

    def test_parameter_grads_match_tape_at_ect_drl_shapes(self):
        rng = np.random.default_rng(14)
        states = rng.normal(size=(64, 121))
        targets = (*ppo_minibatch(rng, 64), PpoConfig())
        *_, fused_grads = fused_ppo_step(
            ActorCritic(121, 3, np.random.default_rng(24)), states, targets
        )
        *_, tape_grads = tape_ppo_step(
            ActorCritic(121, 3, np.random.default_rng(24)), states, targets
        )
        assert fused_grads == tape_grads


class TestBlockStableActing:
    """A stack of ``(E, n, state_dim)`` state blocks acts bitwise as each
    block alone, at the ECT-DRL shapes (121 inputs, 64-wide trunk, 3
    actions). Stacked evaluation episodes rest on this."""

    STATE_DIM = 121

    def _net(self) -> ActorCritic:
        return ActorCritic(self.STATE_DIM, 3, np.random.default_rng(12))

    @pytest.mark.parametrize("n", [1, 6, 48])
    def test_trunk_rows_do_not_depend_on_the_stack(self, n):
        net = self._net()
        states = np.random.default_rng(13).normal(size=(20, n, self.STATE_DIM))
        for blocks in (1, 3, 5, 20):
            features, _ = net.trunk.forward_array(states[:blocks])
            for e in range(blocks):
                alone, _ = net.trunk.forward_array(states[e])
                assert features[e].tobytes() == alone.tobytes(), (blocks, e)

    @pytest.mark.parametrize("n", [1, 6, 48])
    def test_stacked_heads_equal_per_block_heads(self, n):
        net = self._net()
        states = np.random.default_rng(16).normal(size=(5, n, self.STATE_DIM))
        logits, values = net.forward(states)
        assert logits.shape == (5, n, 3) and values.shape == (5, n, 1)
        for e in range(5):
            block_logits, block_values = net.forward(states[e])
            assert logits[e].tobytes() == block_logits.tobytes()
            assert values[e].tobytes() == block_values.tobytes()

    @pytest.mark.parametrize("rows", [1, 6, 17, 30, 64, 128])
    def test_one_block_stack_equals_the_2d_batch(self, rows):
        net = self._net()
        states = np.random.default_rng(17).normal(size=(rows, self.STATE_DIM))
        stacked_logits, stacked_values = net.forward(states[None])
        logits, values = net.forward(states)
        assert stacked_logits[0].tobytes() == logits.tobytes()
        assert stacked_values[0].tobytes() == values.tobytes()

    def test_stacked_acting_equals_block_after_block(self):
        net = self._net()
        states = np.random.default_rng(18).normal(size=(4, 6, self.STATE_DIM))
        stream = np.random.default_rng(3)
        per_block = [net.act_batch(block, stream) for block in states]
        draws = np.random.default_rng(3).random((4 * 6, 1))
        stacked = net.act_batch(states, None, draws=draws)
        for got, column in zip(stacked, zip(*per_block)):
            assert got.tobytes() == np.concatenate(column).tobytes()
        greedy = np.concatenate([net.greedy_actions(block) for block in states])
        assert net.greedy_actions(states).tobytes() == greedy.tobytes()


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

    # 13 and 49: batch sizes where ``c * (1 / batch)`` and ``c / batch``
    # round apart for the default entropy coefficient, so each mean's
    # gradient scale must be formed exactly as the tape forms it.
    @pytest.mark.parametrize("batch", [1, 13, 49, 128])
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

    def test_ncf_ids_checked(self):
        net = NcfNetwork(N_STATIONS, N_TIME_IDS, NcfConfig(), np.random.default_rng(12))
        with pytest.raises(ModelError, match="out of range"):
            net.embedding_rows(np.array([0, N_STATIONS]), np.array([0, 1]))
        with pytest.raises(ModelError, match="out of range"):
            net.forward(np.array([0, 1]), np.array([-1, 1]))
        with pytest.raises(ModelError, match="2 station ids but 3 time ids"):
            net.embedding_rows(np.array([0, 1]), np.array([0, 1, 2]))

    @pytest.mark.parametrize("bad", ["station", "time"])
    def test_out_of_range_id_raises_at_fit_start(self, bad):
        """One id past its table fails the fit before any step runs."""
        dataset = pricing_dataset(50, seed=6)
        if bad == "station":
            dataset.station_ids[-1] = N_STATIONS
        else:
            dataset.time_ids[-1] = N_TIME_IDS
        regressor = NcfRegressor(N_STATIONS, N_TIME_IDS, NcfConfig(), np.random.default_rng(8))
        ect_price = EctPriceModel(N_STATIONS, N_TIME_IDS, EctPriceConfig())
        fits = [
            (regressor, lambda: regressor.fit(dataset.station_ids, dataset.time_ids, dataset.charged)),
            (ect_price, lambda: ect_price.fit(dataset)),
        ]
        for model, fit in fits:
            before = param_bytes(model.network)
            with pytest.raises(ModelError, match="out of range"):
                fit()
            assert param_bytes(model.network) == before

    def test_train_step_needs_the_tables_first(self):
        net = NcfNetwork(N_STATIONS, N_TIME_IDS, NcfConfig(), np.random.default_rng(12))
        params = net.parameters()
        optimizer = nn.Adam(params[4:] + params[:4], lr=0.01)
        rows = net.embedding_rows(np.array([0, 1]), np.array([0, 1]))
        with pytest.raises(ModelError, match="first four parameters"):
            net.train_step(optimizer, rows, lambda z: nn.heads.mse(z, np.zeros_like(z)))


# --------------------------------------------------------------------- #
# Finite differences                                                     #
# --------------------------------------------------------------------- #


def assert_matches_finite_differences(module, loss_fn, fused_backward):
    """``fused_backward()`` grads vs central differences of ``loss_fn()``,
    taken first (a fused training step also moves the parameters).

    Parameters are jittered first: zero-initialised biases can leave a
    hidden unit exactly at the ReLU kink, where differences are one-sided.
    """
    rng = np.random.default_rng(0)
    for param in module.parameters():
        param.data += rng.normal(0.0, 0.3, param.data.shape)
    numeric = {
        name: numerical_gradient(loss_fn, param) for name, param in module.named_parameters()
    }
    zero_grads(module)
    fused_backward()
    for name, param in module.named_parameters():
        assert np.allclose(param.grad, numeric[name], atol=1e-6, rtol=1e-5), name


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
            optimizer = nn.Adam(net.parameters(), lr=1e-3)
            rows = net.embedding_rows(stations, times)
            net.train_step(optimizer, rows, lambda z: (float((z * weights).sum()), weights))

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
            optimizer = nn.Adam(net.parameters(), lr=1e-3)
            seeds = SimpleNamespace(d_logits=w_logits, d_values=w_values)
            net.train_step(optimizer, states, lambda logits, values: seeds)

        assert_matches_finite_differences(net, loss_fn, fused_backward)


# --------------------------------------------------------------------- #
# Scatter kernels                                                        #
# --------------------------------------------------------------------- #


class TestScatterKernels:
    def test_scatter_add_equals_add_at(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            size, batch = rng.integers(1, 20), rng.integers(0, 40)
            positions = rng.integers(0, size, batch)
            weights = rng.normal(size=batch)
            weights[rng.random(batch) < 0.3] = -0.0
            expected = np.zeros(size)
            np.add.at(expected, positions, weights)
            got = nn.kernels.scatter_add(positions, weights, size)
            assert got.dtype == np.float64
            assert got.tobytes() == expected.tobytes()

    def test_stacked_scatter_equals_per_table_scatters(self):
        """One scatter over four tables' interleaved row positions gives
        each table the bits of its own scatter (the NCF step's layout)."""
        rng = np.random.default_rng(14)
        width, batch, n_rows = 3, 30, [5, 4, 5, 4]
        first = np.cumsum([0] + n_rows[:-1])
        ids = [rng.integers(0, n, batch) for n in n_rows]
        rows = np.stack(ids, axis=1) + first
        grad = rng.normal(size=(batch, 4 * width))
        grad[rng.random(grad.shape) < 0.3] = -0.0
        positions = rows[:, :, None] * width + np.arange(width)
        stacked = nn.kernels.scatter_add(positions, grad, sum(n_rows) * width)
        for k, n in enumerate(n_rows):
            alone = np.zeros((n, width))
            np.add.at(alone, ids[k], grad[:, k * width : (k + 1) * width])
            start = first[k] * width
            assert stacked[start : start + n * width].tobytes() == alone.tobytes()

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


class TestRowKernels:
    """The column-wise row reductions equal numpy's reductions bitwise, so
    ``log_softmax`` on the narrow strata/action heads keeps every export."""

    EDGES = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan, 2.0**53, 1e-300, -5e-324, 700.0]

    @pytest.mark.parametrize("width", range(1, nn.kernels.NARROW_ROW))
    def test_match_numpy_reductions(self, width):
        rng = np.random.default_rng(15)
        edges = rng.choice(self.EDGES, size=(2000, width))
        values = np.concatenate([edges, rng.normal(0.0, 50.0, (500, width))])
        padded = np.zeros((len(values), width + 2))
        padded[:, 1:-1] = values
        with np.errstate(all="ignore"):
            for x in (values, np.asfortranarray(values), padded[:, 1:-1]):
                assert nn.kernels.row_sum(x).tobytes() == x.sum(axis=-1).tobytes()
                top = x.max(axis=-1, keepdims=True)
                assert nn.kernels.row_max(x).tobytes() == top.ravel().tobytes()
                shifted = x - top
                reference = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
                assert nn.kernels.log_softmax(x).tobytes() == reference.tobytes()


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
            for i, (param, grad) in enumerate(zip(params, grads)):
                # ``None`` is an absent gradient.
                param.grad = None if step % 7 == 0 and i == 1 else grad.copy()
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
            assert param.data.base is optimizer.flat, name
            assert param.grad.base is optimizer.flat_grad, name
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
    the summation order of the norm clip; it must not drift."""

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
        assert [(name, param.data.shape) for name, param in named] == expected
        packed = model._optimizer.parameters
        assert len(packed) == len(named)
        assert all(a is b for a, b in zip(packed, (param for _, param in named)))
