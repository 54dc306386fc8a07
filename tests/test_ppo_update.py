"""The fused PPO update against the loop it replaced, and its kernels.

``PpoAgent.update`` gathers the rollout once per epoch and trains each
minibatch in one fused ``ActorCritic.train_step``; ``ppo_oracle.py``
keeps the former loop frozen. Every case below runs both on twin agents
and buffers and requires the same bytes: parameters, Adam's moments,
the ``UpdateStats`` and the agent's stream. The kernel tests hold each
primitive the fused step uses in place of a longer numpy form to that
form, on the edge values (signed zeros, infinities, NaN) where the two
could part.
"""

from __future__ import annotations

import numpy as np
import pytest

import ppo_oracle
from repro import nn
from repro.errors import ModelError
from repro.rl.buffer import FleetRolloutBuffer
from repro.rl.networks import ActorCritic
from repro.rl.ppo import PpoAgent, PpoConfig


def float_bytes(value: float) -> bytes:
    return np.float64(value).tobytes()


def fill(buffers, rng: np.random.Generator, *, slots: int, n_envs: int, state_dim: int):
    """The same random rollout into every buffer, episodes ending mid-rollout."""
    for t in range(slots):
        states = rng.normal(size=(n_envs, state_dim))
        actions = rng.integers(0, 3, n_envs)
        log_probs = np.log(rng.uniform(0.05, 0.9, n_envs))
        values = rng.normal(size=n_envs)
        rewards = rng.normal(size=n_envs)
        dones = (t + np.arange(n_envs)) % 17 == 16
        for buffer in buffers:
            buffer.add(states, actions, log_probs, values, rewards, dones)


def agent_bytes(agent: PpoAgent) -> tuple:
    optimizer = agent._optimizer
    return (
        optimizer.flat.tobytes(),
        optimizer._m.tobytes(),
        optimizer._v.tobytes(),
        str(agent._rng.bit_generator.state),
    )


def stats_bytes(stats) -> list[bytes]:
    return [
        float_bytes(value)
        for value in (
            stats.policy_loss,
            stats.value_loss,
            stats.entropy,
            stats.clip_fraction,
            stats.approx_kl,
        )
    ]


#: (bootstrap kind, slots, n_envs, state_dim, batch): every rollout ends on
#: a ragged minibatch (300 = 4 x 64 + 44, 100 = 3 x 32 + 4). The one-hub
#: "scalar" rollout is what ``train_ppo`` fills, with a scalar bootstrap.
ROLLOUTS = {
    "fleet-6-hubs": ("fleet", 50, 6, 11, 64),
    "scalar": ("scalar", 100, 1, 7, 32),
}

CONFIGS = {
    "clip-active": dict(max_grad_norm=0.05),
    "clip-inactive": dict(max_grad_norm=1e6),
    "no-entropy-no-decay": dict(entropy_coef=0.0, weight_decay=0.0),
}


class TestFusedUpdateMatchesFrozenLoop:
    @pytest.mark.parametrize("rollout", ROLLOUTS)
    @pytest.mark.parametrize("overrides", CONFIGS)
    def test_two_consecutive_updates(self, rollout, overrides):
        kind, slots, n_envs, state_dim, batch = ROLLOUTS[rollout]
        config = PpoConfig(batch_size=batch, update_epochs=3, **CONFIGS[overrides])
        fused = PpoAgent(state_dim, 3, config, np.random.default_rng(31))
        frozen = PpoAgent(state_dim, 3, config, np.random.default_rng(31))
        assert agent_bytes(fused) == agent_bytes(frozen)

        rng = np.random.default_rng(32)
        norms = []
        for update in range(2):
            buffers = [FleetRolloutBuffer(slots, n_envs, state_dim) for _ in range(2)]
            fill(buffers, rng, slots=slots, n_envs=n_envs, state_dim=state_dim)
            last = 0.3 if kind == "scalar" else rng.normal(size=n_envs)
            stats = fused.update(buffers[0], last_value=last)
            expected, batch_norms = ppo_oracle.update(frozen, buffers[1], last_value=last)
            norms += batch_norms
            assert agent_bytes(fused) == agent_bytes(frozen), update
            assert stats_bytes(stats) == stats_bytes(expected), update
            assert len(buffers[0]) == len(buffers[1]) == 0

        # The cases exercise what their names say.
        if overrides == "clip-active":
            assert min(norms) > config.max_grad_norm
        elif overrides == "clip-inactive":
            assert max(norms) < config.max_grad_norm

    def test_update_on_an_empty_buffer_raises(self):
        agent = PpoAgent(3, 3, PpoConfig(), np.random.default_rng(0))
        with pytest.raises(ModelError, match="empty"):
            agent.update(FleetRolloutBuffer(4, 2, 3))

    def test_train_step_needs_the_network_parameters(self):
        net = ActorCritic(3, 3, np.random.default_rng(0))
        other = ActorCritic(3, 3, np.random.default_rng(1))
        optimizer = nn.Adam(other.parameters(), lr=1e-3)
        with pytest.raises(ModelError, match="this network's parameters"):
            net.train_step(optimizer, np.zeros((2, 3)), lambda z, v: None)


# --------------------------------------------------------------------- #
# Kernels: each shorter form against the form it replaces               #
# --------------------------------------------------------------------- #

EDGES = [0.0, -0.0, 1.0, -1.0, 0.8, 1.2, 1e-300, -5e-324, 1e300, np.inf, -np.inf, np.nan]


def edge_values(rng: np.random.Generator, size: int) -> np.ndarray:
    values = rng.normal(0.0, 3.0, size)
    values[: 4 * len(EDGES)] = np.repeat(EDGES, 4)
    return values


class TestReplacementKernels:
    @pytest.mark.parametrize(
        "bounds", [(-60.0, 60.0), (0.8, 1.2), (-0.0, 0.0), (0.0, -0.0), (-np.inf, 1.0)]
    )
    def test_clip_ufunc_equals_np_clip(self, bounds):
        values = edge_values(np.random.default_rng(40), 500)
        with np.errstate(invalid="ignore"):
            got = nn.kernels.clip(values, *bounds)
            assert got.tobytes() == np.clip(values, *bounds).tobytes()
            out = np.empty_like(values)
            nn.kernels.clip(values, *bounds, out=out)
            assert out.tobytes() == got.tobytes()

    def test_count_and_sum_over_n_equal_mean(self):
        rng = np.random.default_rng(41)
        for n in list(range(1, 70)) + [127, 128, 720, 4097]:
            mask = rng.random(n) < rng.random()
            assert float_bytes(np.count_nonzero(mask) / n) == float_bytes(mask.mean())
            values = rng.normal(size=n) * 10.0 ** rng.integers(-5, 5)
            assert float_bytes(float(np.add.reduce(values)) / n) == float_bytes(
                values.mean()
            )

    @pytest.mark.parametrize("shapes", [
        [(6, 64), (64,), (64, 64), (64,), (64, 3), (3,), (64, 1), (1,)],
        [(3,), (130, 70), (1,), (8193,), (5, 7), (12800,), ()],
    ], ids=["actor-critic", "long-segments"])
    def test_segment_sums_equal_per_view_sums(self, shapes):
        """The clip's per-parameter sums of the squared flat buffer equal
        ``(grad**2).sum()`` on each view, segments over 8,192 included."""
        rng = np.random.default_rng(42)
        params = [nn.Parameter(rng.normal(size=shape)) for shape in shapes]
        optimizer = nn.Adam(params, lr=1e-3)
        for param in params:
            param.grad[...] = rng.normal(size=param.shape) * 10.0 ** rng.integers(-3, 3)
        squared = optimizer.flat_grad * optimizer.flat_grad
        offset = 0
        for param in params:
            segment = squared[offset : offset + param.size]
            offset += param.size
            assert float_bytes(np.add.reduce(segment)) == float_bytes((param.grad**2).sum())

    @pytest.mark.parametrize("max_norm", [1e-3, 1.0, 1e6])
    def test_step_clip_equals_per_parameter_clip(self, max_norm):
        shapes = [(3,), (130, 70), (1,), (8193,), (5, 7)]
        rng = np.random.default_rng(43)
        initial = [rng.normal(size=shape) for shape in shapes]
        fused = [nn.Parameter(value.copy()) for value in initial]
        looped = [nn.Parameter(value.copy()) for value in initial]
        fused_opt = nn.Adam(fused, lr=1e-2, weight_decay=1e-4)
        looped_opt = nn.Adam(looped, lr=1e-2, weight_decay=1e-4)
        for _ in range(3):
            for a, b in zip(fused, looped):
                a.grad[...] = b.grad[...] = rng.normal(size=a.shape)
            fused_opt.step(max_grad_norm=max_norm)
            ppo_oracle.clip_grad_norm(looped, max_norm)
            looped_opt.step()
            assert fused_opt.flat_grad.tobytes() == looped_opt.flat_grad.tobytes()
            assert fused_opt.flat.tobytes() == looped_opt.flat.tobytes()

    def test_adam_past_the_first_moment_correction(self):
        """From step 356 on ``1 - 0.9**t`` is exactly 1.0 and the step skips
        dividing by it; the parameters still follow the full formula."""
        rng = np.random.default_rng(47)
        params = [nn.Parameter(rng.normal(size=shape)) for shape in [(5, 3), (3,)]]
        reference = [param.data.copy() for param in params]
        moments = [(np.zeros_like(r), np.zeros_like(r)) for r in reference]
        lr, decay = 1e-2, 1e-4
        optimizer = nn.Adam(params, lr=lr, weight_decay=decay)
        for step in range(1, 401):
            grads = [rng.normal(size=r.shape) for r in reference]
            for param, grad in zip(params, grads):
                param.grad[...] = grad
            optimizer.step()
            for value, grad, (m, v) in zip(reference, grads, moments):
                grad = grad + decay * value
                m *= 0.9
                m += (1.0 - 0.9) * grad
                v *= 0.999
                v += (1.0 - 0.999) * grad**2
                m_hat = m / (1.0 - 0.9**step)
                v_hat = v / (1.0 - 0.999**step)
                value -= lr * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert [p.data.tobytes() for p in params] == [r.tobytes() for r in reference]
        assert 1.0 - 0.9**356 == 1.0 and 1.0 - 0.9**355 != 1.0

    def test_step_clip_rejects_a_non_finite_norm(self):
        w = nn.Parameter(np.ones(4))
        optimizer = nn.Adam([w], lr=0.1)
        for bad in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(ModelError, match="max_norm"):
                optimizer.step(max_grad_norm=bad)

    def test_matmul_k1_equals_matmul(self):
        rng = np.random.default_rng(44)
        for rows, cols in [(1, 1), (64, 64), (16, 7), (300, 64)]:
            column = edge_values(rng, max(rows, 48))[:rows].reshape(rows, 1)
            row = edge_values(rng, max(cols, 48))[-cols:].reshape(1, cols)
            rng.shuffle(column)
            with np.errstate(invalid="ignore", over="ignore"):
                expected = column @ row
                assert nn.kernels.matmul_k1(column, row).tobytes() == expected.tobytes()
                # As the critic head's backward takes it: a transposed view.
                weight = np.ascontiguousarray(row.T)
                assert (
                    nn.kernels.matmul_k1(column, weight.T).tobytes()
                    == (column @ weight.T).tobytes()
                )

    def test_ratio_gradient_shortcut(self):
        """``(d * A) * take`` equals the tape's two-branch sum for every
        finite advantage, on and around both clip edges."""
        low, high = 0.8, 1.2
        ratios = np.array(
            [0.0, 0.5, np.nextafter(low, 0), low, np.nextafter(low, 2), 1.0,
             np.nextafter(high, 0), high, np.nextafter(high, 2), 3.0, np.exp(60.0), np.nan]
        )
        advantages = np.array([0.0, -0.0, 1.0, -1.0, 1e-300, -5e-324, 1e300, -1e300, 0.37])
        ratio, adv = (grid.ravel() for grid in np.meshgrid(ratios, advantages))
        for d in (-1.0 * (1.0 / 64), -1.0 * (1.0 / 13), -1.0):
            with np.errstate(invalid="ignore", over="ignore"):
                unclipped = ratio * adv
                clipped = np.clip(ratio, low, high) * adv
                take = unclipped <= clipped
                inside = (ratio > low) & (ratio < high)
                tape = (d * take) * adv
                tape += ((d * ~take) * adv) * inside
                assert ((d * adv) * take).tobytes() == tape.tobytes()

    def test_select_onto_entropy_term(self):
        """Adding the taken-action select onto ``c * p`` equals adding it
        onto zeros first (``c * p`` is never -0.0)."""
        rng = np.random.default_rng(45)
        batch = 200
        probs = np.exp(nn.kernels.log_softmax(rng.normal(0, 20, (batch, 3))))
        probs[:5] = 0.0
        rows, actions = np.arange(batch), rng.integers(0, 3, batch)
        select = edge_values(rng, batch)
        select[~np.isfinite(select)] = -0.0
        for c in (0.0, 0.01 / batch, 1.0):
            tape = np.zeros_like(probs)
            tape[rows, actions] += select
            tape += c * probs
            fused = c * probs
            fused[rows, actions] += select
            assert fused.tobytes() == tape.tobytes()

    def test_inverse_cdf_without_clamp(self):
        """Counting the first n - 1 CDF entries below a draw equals
        clamping the full count, draws on the CDF's own values included."""
        rng = np.random.default_rng(46)
        for n_actions in (2, 3, 5):
            probs = np.exp(nn.kernels.log_softmax(rng.normal(0, 5, (3000, n_actions))))
            cdf = probs.cumsum(axis=1)
            draws = rng.random((3000, 1))
            draws[:500, 0] = cdf[:500, rng.integers(0, n_actions)]
            draws[500:600, 0] = np.nextafter(1.0, 0.0)
            draws[600:700, 0] = 0.0
            clamped = np.minimum((cdf < draws).sum(axis=1), n_actions - 1).astype(int)
            counted = np.add.reduce(cdf[:, :-1] < draws, axis=1)
            assert counted.dtype == clamped.dtype
            assert counted.tobytes() == clamped.tobytes()
