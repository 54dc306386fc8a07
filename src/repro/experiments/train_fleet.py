"""``train-fleet`` — PPO over the batched fleet environment.

The ROADMAP's fleet-RL item: one parameter-shared ECT-DRL agent trained
on ``(n_hubs,)`` action batches through
:class:`~repro.rl.fleet_env.FleetEnv` (every slot is one network forward
for the whole fleet, every episode one PPO update over the
``episode x hubs`` rollout). The report compares the untrained and
trained policies on identical evaluation episodes and tracks the
training-loop throughput. Exposed on the CLI as ``ect-hub train-fleet``.

Like ``fleet``, this runner is a *flag shim*: the keyword arguments fold
into a :class:`~repro.spec.scenario.ScenarioSpec` whose ``rl`` section
(:class:`~repro.spec.scenario.RlSpec`) carries the episode shape and PPO
hyperparameters, executed by :func:`repro.api.train_fleet` — so a
flag-built training run and its serialized-spec twin are the same run.
"""

from __future__ import annotations

from ..spec.compiler import spec_from_train_fleet_flags
from .base import ExperimentResult


def run(*, scale: float = 1.0, seed: int = 0, telemetry=None) -> ExperimentResult:
    """Train and evaluate fleet PPO on the default training scenario.

    ``scale`` shrinks the fleet, the horizon, and the episode schedule
    together (floors keep a scaled-down run trainable). ``telemetry``
    forwards a :class:`~repro.telemetry.session.Telemetry` session to
    ``api.train_fleet``.
    """
    # Local import: repro.api pulls experiments.base, so importing it at
    # module level would cycle through the experiment registry.
    from .. import api

    return api.train_fleet(
        spec_from_train_fleet_flags(scale=scale, seed=seed), telemetry=telemetry
    )
