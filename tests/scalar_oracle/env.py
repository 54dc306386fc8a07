"""The ECT-DRL environment (paper §IV-B).

One episode is 30 days of hourly slots at one hub (§V-C). The state
(Eq. 24) is

``s_t = (RTP⃗, weather⃗, traffic⃗, SRTP⃗, SoC)``

— forecast windows of the next ``window_h`` hours for the real-time price,
weather (irradiance + wind), traffic load, and the charging price set by
the pricing method, plus the battery's state of charge. The three actions
map to the paper's ``S_BP``: 0 → idle, 1 → charge, 2 → discharge. The
reward is the Eq. 12 slot profit, delegated to the
:class:`~.simulation.HubSimulation` engine so every scheduler is scored
identically.

Episodes sample a random 30-day window from the scenario traces and a
random initial SoC (as in §V-C), and re-realise the charging strata under
the hub's discount schedule, so the environment is stochastic across
episodes but driven by the same generative model the pricing stage was
trained on.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import EnvError
from repro.hub.scenario import HubScenario, resolve_occupancy
from repro.rl.fleet_env import ACTION_TO_SBP, N_ACTIONS, EnvConfig
from repro.rl.spaces import Box, Discrete
from repro.synth.charging import ChargingBehaviorModel
from repro.units import HOURS_PER_DAY

from .scenario import build_hub, inputs_with_occupancy
from .simulation import HubSimulation


def space_contains(space: Discrete | Box, value) -> bool:
    """Whether ``value`` is a legal element of a gym-style ``space``."""
    if isinstance(space, Discrete):
        return isinstance(value, (int, np.integer)) and 0 <= int(value) < space.n
    arr = np.asarray(value)
    return arr.shape == space.shape and bool(
        (arr >= space.low).all() and (arr <= space.high).all()
    )


class EctHubEnv:
    """Gym-style environment over one hub scenario + a discount schedule."""

    def __init__(
        self,
        scenario: HubScenario,
        behavior: ChargingBehaviorModel,
        discount_schedule: np.ndarray,
        *,
        config: EnvConfig | None = None,
        rng: np.random.Generator | None = None,
        outage: np.ndarray | None = None,
    ) -> None:
        self.config = config or EnvConfig()
        self.scenario = scenario
        self.behavior = behavior
        self.discount = np.asarray(discount_schedule, dtype=float)
        if self.discount.shape != (scenario.n_hours,):
            raise EnvError(
                f"discount schedule length {self.discount.shape} does not match "
                f"scenario horizon {scenario.n_hours}"
            )
        self.outage = None if outage is None else np.asarray(outage, dtype=bool)
        if self.outage is not None and self.outage.shape != (scenario.n_hours,):
            raise EnvError(
                f"outage mask shape {self.outage.shape} does not match "
                f"scenario horizon {scenario.n_hours}"
            )
        self._episode_h = self.config.episode_days * HOURS_PER_DAY
        if scenario.n_hours < self._episode_h:
            raise EnvError(
                f"scenario horizon {scenario.n_hours} shorter than one episode "
                f"({self._episode_h} h)"
            )
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._sim: HubSimulation | None = None
        self._start = 0

        self.action_space = Discrete(N_ACTIONS)
        self.observation_space = Box(
            low=-10.0, high=10.0, shape=(self.state_dim(),)
        )

    # ------------------------------------------------------------------ #
    # State layout                                                         #
    # ------------------------------------------------------------------ #

    def state_dim(self) -> int:
        """Dimension of the Eq. 24 state vector."""
        # RTP, irradiance, wind, traffic, SRTP windows + SoC scalar.
        return 5 * self.config.window_h + 1

    def _window(self, trace: np.ndarray, t_abs: int) -> np.ndarray:
        """Next ``window_h`` values of a trace, edge-padded at the horizon.

        Clamps against ``len(trace)``, not the scenario horizon: the SRTP
        window reads the *episode-length* discounted-price trace, which is
        shorter than the scenario the other features are sliced from.
        """
        w = self.config.window_h
        stop = min(t_abs + w, len(trace))
        values = trace[t_abs:stop]
        if len(values) < w:
            pad = np.full(w - len(values), values[-1] if len(values) else 0.0)
            values = np.concatenate([values, pad])
        return values

    def _observe(self) -> np.ndarray:
        sim = self._require_sim()
        t_abs = self._start + sim.t
        scen = self.scenario
        rtp = self._window(scen.rtp_kwh, t_abs) / 0.1  # ≈$0.1/kWh scale
        irr = self._window(scen.irradiance_w_m2, t_abs) / 1000.0
        wind = self._window(scen.wind_speed_m_s, t_abs) / 25.0
        load = self._window(scen.load_rate, t_abs)
        srtp = self._window(self._episode_srtp, t_abs - self._start) / 0.5
        soc = np.array([sim.hub.battery.soc_fraction])
        return np.concatenate([rtp, irr, wind, load, srtp, soc])

    # ------------------------------------------------------------------ #
    # Episode lifecycle                                                    #
    # ------------------------------------------------------------------ #

    def reset(self) -> np.ndarray:
        """Start a new 30-day episode; returns the initial state."""
        max_start = self.scenario.n_hours - self._episode_h
        self._start = int(self._rng.integers(0, max_start + 1))
        slots = np.arange(self._start, self._start + self._episode_h)

        strata = self.behavior.sample_strata(
            self.scenario.site.hub_id, slots, self._rng
        )
        episode_discount = self.discount[slots]
        occupied = resolve_occupancy(strata, episode_discount > 0)

        self._episode_srtp = (
            self.scenario.hub_config.charging_station.base_price_kwh
            * (1.0 - episode_discount)
        )
        initial_soc = (
            float(self._rng.uniform(0.0, 1.0))
            if self.config.random_initial_soc
            else 0.5
        )
        inputs = inputs_with_occupancy(
            self.scenario,
            occupied=np.zeros(self.scenario.n_hours, dtype=int),
            discount=np.zeros(self.scenario.n_hours),
            outage=self.outage,
        ).slice(self._start, self._start + self._episode_h)
        # Replace occupancy/discount with the episode realisation; every
        # other field (including the optional outage mask) must survive.
        inputs = dataclasses.replace(
            inputs, occupied=occupied, discount=episode_discount
        )
        self._sim = HubSimulation(
            build_hub(self.scenario, initial_soc_fraction=initial_soc),
            inputs,
            initial_soc_fraction=initial_soc,
        )
        return self._observe()

    def step(self, action: int) -> tuple[np.ndarray, float, bool, dict]:
        """Apply one action; returns (state, scaled_reward, done, info)."""
        if not space_contains(self.action_space, action):
            raise EnvError(f"invalid action {action!r}; expected 0, 1, or 2")
        sim = self._require_sim()
        ledger = sim.step(ACTION_TO_SBP[int(action)])
        done = sim.done
        info = {"ledger": ledger, "reward_raw": ledger.reward}
        state = self._observe() if not done else np.zeros(self.state_dim())
        return state, ledger.reward / self.config.reward_scale, done, info

    def _require_sim(self) -> HubSimulation:
        if self._sim is None:
            raise EnvError("step/observe called before reset()")
        return self._sim

    @property
    def episode_length(self) -> int:
        """Number of slots per episode."""
        return self._episode_h

    @property
    def simulation(self) -> HubSimulation:
        """The live simulation (for evaluation bookkeeping)."""
        return self._require_sim()
