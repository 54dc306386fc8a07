"""The ECT-DRL environment (paper §IV-B), batched over hubs.

One episode is an ``episode_days`` window (paper: 30 days of hourly
slots, §V-C) over N hubs stepped **together** through the fused
:class:`~repro.fleet.simulation.FleetSimulation` kernel; the paper's
one-agent-per-hub protocol is the ``n_hubs=1`` case. Per slot the
environment consumes an ``(n_hubs,)`` integer action vector (0 → idle,
1 → charge, 2 → discharge, mapped to the paper's ``S_BP`` by
:data:`ACTION_TO_SBP`), and returns

* observations of shape ``(n_hubs, state_dim)`` — the Eq. 24 state per
  hub, ``s_t = (RTP⃗, weather⃗, traffic⃗, SRTP⃗, SoC)``: forecast windows
  of the next ``window_h`` hours of RTP, weather (irradiance + wind),
  traffic load and the discounted selling price (read off the engine's
  :class:`~repro.fleet.planes.SlotPlanes` SRTP plane), plus the battery
  SoC;
* rewards of shape ``(n_hubs,)`` — the vectorized Eq. 12 slot profit
  (revenue − grid cost − battery cost − VoLL·unserved) computed straight
  from the fused step kernel's booked columns, so per-hub rewards match
  the :class:`~repro.fleet.costs.FleetCostBook` slot for slot.

When a capacity-limited :class:`~repro.fleet.grid.FeederGroup` couples
the hubs, an optional **feeder-aware** observation feature is appended:
each hub's ``available_import_kw()`` headroom normalised by its battery
charge rate (clipped; infinite headroom saturates at the clip), giving a
learned policy the congestion signal the fair-share heuristic acts on.

Episode sampling (§V-C): one shared episode start is drawn, then per hub
the charging strata are re-realised under that hub's discount schedule
and an initial SoC is drawn, in that order. At ``n_hubs=1`` an episode
is trace-identical to the scalar env frozen under ``tests/`` as the
equivalence oracle (observations bit for bit, rewards within atol 1e-9).

``reset(episodes=E)`` draws E episodes in that order and steps them as
one simulation whose hub axis holds the episode copies (parameters
tiled, inputs and per-episode feeder windows stacked), so evaluation
pays one engine step per slot for all its episodes; each episode's rows
are bitwise those of the episode run alone. The observation windows do
not depend on the actions: each reset gathers their edge-padded source
rows once, and a step copies one slot of a sliding-window view and
writes the SoC (and headroom) columns.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import EnvError
from ..fleet.grid import FeederGroup
from ..fleet.inputs import FleetInputs
from ..fleet.params import FleetParams
from ..fleet.simulation import FleetSimulation
from ..hub.scenario import HubScenario, fleet_traces, resolve_occupancy
from ..synth.charging import ChargingBehaviorModel
from ..units import HOURS_PER_DAY
from .spaces import Box, Discrete

#: Environment action codes (indices into this tuple give the paper S_BP).
ACTION_TO_SBP = (0, 1, -1)

#: Number of discrete actions.
N_ACTIONS = 3


@dataclass(frozen=True)
class EnvConfig:
    """Environment knobs.

    Attributes
    ----------
    episode_days:
        Episode length (paper: 30 days).
    window_h:
        Forecast window length for each state feature vector.
    reward_scale:
        Rewards are divided by this for PPO numeric stability; evaluation
        helpers report unscaled Eq. 12 values.
    random_initial_soc:
        Draw SoC uniformly at episode start (paper §V-C); fixed 0.5 when
        False.
    """

    episode_days: int = 30
    window_h: int = 24
    reward_scale: float = 10.0
    random_initial_soc: bool = True

    def __post_init__(self) -> None:
        if self.episode_days <= 0:
            raise EnvError(f"episode_days must be positive, got {self.episode_days}")
        if self.window_h <= 0:
            raise EnvError(f"window_h must be positive, got {self.window_h}")
        if self.reward_scale <= 0:
            raise EnvError(f"reward_scale must be positive, got {self.reward_scale}")


#: Feeder headroom is reported in units of the hub's charge rate and
#: clipped here; an uncoupled (infinite) feeder saturates at the clip.
FEEDER_OBS_CLIP = 2.0

#: Action-code → S_BP lookup in array form for vectorized mapping.
_SBP_LOOKUP = np.array(ACTION_TO_SBP, dtype=int)


class FleetEnv:
    """Gym-style batched environment over N hub scenarios.

    Parameters
    ----------
    scenarios:
        One :class:`HubScenario` per hub; all must share one horizon.
    behavior:
        The charging behaviour model used to re-realise occupancy strata
        per episode (the same generative model the pricing stage uses).
    discount_schedules:
        Discount fraction per (hub, slot) — ``(n_hubs, n_hours)``, or one
        shared ``(n_hours,)`` trace broadcast to every hub.
    config:
        :class:`EnvConfig` (episode length, window, reward scale, SoC
        sampling).
    rng:
        Episode-sampling generator (start slot, strata, initial SoC).
    outage:
        Optional blackout mask, ``(n_hubs, n_hours)`` or broadcastable
        ``(n_hours,)``; episodes slice it so blackout slots reach the
        engine's Eq. 6 emergency branch.
    feeders:
        Optional shared-grid coupling over the *scenario* horizon; the
        per-slot capacity (when 2-D) is sliced to each episode window.
    voll_per_kwh:
        Value-of-lost-load charged against per-hub rewards.
    feeder_aware:
        Append the normalised ``available_import_kw`` observation
        feature. ``None`` (default) enables it exactly when a
        capacity-limited feeder group is attached.
    """

    def __init__(
        self,
        scenarios: Sequence[HubScenario],
        behavior: ChargingBehaviorModel,
        discount_schedules: np.ndarray,
        *,
        config: EnvConfig | None = None,
        rng: np.random.Generator | None = None,
        outage: np.ndarray | None = None,
        feeders: FeederGroup | None = None,
        voll_per_kwh: float = 0.0,
        feeder_aware: bool | None = None,
    ) -> None:
        if not scenarios:
            raise EnvError("FleetEnv needs at least one scenario")
        horizons = {s.n_hours for s in scenarios}
        if len(horizons) != 1:
            raise EnvError(
                f"all scenarios must share one horizon, got {sorted(horizons)}"
            )
        self.config = config or EnvConfig()
        self.scenarios = list(scenarios)
        self.behavior = behavior
        self._n_hours = horizons.pop()
        self._episode_h = self.config.episode_days * HOURS_PER_DAY
        if self._n_hours < self._episode_h:
            raise EnvError(
                f"scenario horizon {self._n_hours} shorter than one episode "
                f"({self._episode_h} h)"
            )
        n = len(self.scenarios)
        self.discount = self._rows(discount_schedules, float, "discount schedule")
        if ((self.discount < 0) | (self.discount >= 1)).any():
            raise EnvError("discount schedules must lie in [0, 1)")
        self.outage = (
            None if outage is None else self._rows(outage, bool, "outage mask")
        )
        self.feeders = feeders
        if feeders is not None and feeders.n_hubs != n:
            raise EnvError(
                f"feeder group assigns {feeders.n_hubs} hubs but the "
                f"environment holds {n}"
            )
        if (
            feeders is not None
            and feeders.import_capacity_kw.ndim == 2
            and feeders.import_capacity_kw.shape[1] != self._n_hours
        ):
            raise EnvError(
                f"per-slot feeder capacity horizon "
                f"{feeders.import_capacity_kw.shape[1]} does not match the "
                f"scenario horizon {self._n_hours}"
            )
        self.voll_per_kwh = float(voll_per_kwh)
        if feeder_aware is None:
            feeder_aware = feeders is not None and not feeders.is_unlimited
        if feeder_aware and feeders is None:
            raise EnvError("feeder_aware observations need a FeederGroup")
        self.feeder_aware = bool(feeder_aware)

        self._rng = rng if rng is not None else np.random.default_rng(0)
        #: Struct-of-arrays equipment parameters, shared across episodes.
        self.params = FleetParams.from_hub_configs(
            [s.hub_config for s in self.scenarios]
        )
        # Full-horizon trace blocks: raw rows feed episode FleetInputs;
        # the Eq. 24 observation blocks carry their normalisations.
        traces = fleet_traces(self.scenarios)
        self._load_rate = traces.load_rate
        self._rtp_kwh = traces.rtp_kwh
        self._pv_kw = traces.pv_power_kw
        self._wt_kw = traces.wt_power_kw
        #: ``(4, n_hubs, n_hours)``: the RTP (≈$0.1/kWh scale), irradiance,
        #: wind and traffic blocks the first four observation windows read.
        self._obs_traces = np.stack(
            [
                self._rtp_kwh / 0.1,
                traces.irradiance_w_m2 / 1000.0,
                traces.wind_speed_m_s / 25.0,
                self._load_rate,
            ]
        )
        self._sim: FleetSimulation | None = None
        #: Start slot of each live episode, in episode order.
        self._starts: tuple[int, ...] = ()
        #: Observation windows of the live episodes (:meth:`_window_view`).
        self._windows: np.ndarray | None = None

        self.action_space = Discrete(N_ACTIONS)
        self.observation_space = Box(
            low=-10.0, high=10.0, shape=(n, self.state_dim())
        )

    def _rows(self, values: np.ndarray, dtype, label: str) -> np.ndarray:
        """Broadcast a shared ``(n_hours,)`` trace to ``(n_hubs, n_hours)``."""
        arr = np.asarray(values, dtype=dtype)
        if arr.ndim == 1 and arr.shape == (self._n_hours,):
            arr = np.broadcast_to(arr, (self.n_hubs, self._n_hours)).copy()
        if arr.shape != (self.n_hubs, self._n_hours):
            raise EnvError(
                f"{label} must have shape ({self.n_hubs}, {self._n_hours}) "
                f"or ({self._n_hours},), got {arr.shape}"
            )
        return arr

    # ------------------------------------------------------------------ #
    # State layout                                                         #
    # ------------------------------------------------------------------ #

    @property
    def n_hubs(self) -> int:
        """Number of hubs stepped per action batch."""
        return len(self.scenarios)

    @property
    def episode_length(self) -> int:
        """Number of slots per episode."""
        return self._episode_h

    def state_dim(self) -> int:
        """Per-hub dimension of the Eq. 24 state vector."""
        # RTP, irradiance, wind, traffic, SRTP windows + SoC scalar,
        # plus the optional feeder-headroom feature.
        return 5 * self.config.window_h + 1 + (1 if self.feeder_aware else 0)

    def _window_view(self, starts: Sequence[int]) -> np.ndarray:
        """The observation windows of every slot of the live episodes.

        A ``(rows, 5, episode_length, window_h)`` sliding-window view:
        entry ``[:, k, t]`` is the next ``window_h`` values of block ``k``
        at slot ``t`` — the RTP, irradiance, wind and traffic blocks from
        the episode's absolute slot, the episode's SRTP plane from its
        slot ``t`` — edge-padded where a window runs past the scenario (or
        episode) end. The windows never depend on the actions, so their
        padded source rows are gathered once per reset and a step copies
        one slot of the view (:meth:`_observe`). A materialized
        ``(T, rows, state_dim)`` plane would hold every window value
        ``window_h`` times over.
        """
        w, length, n = self.config.window_h, self._episode_h, self.n_hubs
        span = length + w - 1
        source = np.empty((len(starts), n, 5, span))
        columns = np.minimum(np.add.outer(starts, np.arange(span)), self._n_hours - 1)
        for k, block in enumerate(self._obs_traces):
            source[:, :, k] = block[:, columns].transpose(1, 0, 2)
        source = source.reshape(len(starts) * n, 5, span)
        # The discounted selling price straight off the engine's plane
        # cache (bit-identical to base_price x (1 - discount)).
        srtp = self._require_sim().planes.srtp_kwh / 0.5
        source[:, 4, :length] = srtp
        source[:, 4, length:] = srtp[:, -1:]
        return np.lib.stride_tricks.sliding_window_view(source, w, axis=2)

    def _observe(self) -> np.ndarray:
        """The live slot's ``(rows, state_dim)`` state: its windows copied
        from the window view, then the SoC (and headroom) columns."""
        sim = self._require_sim()
        w = self.config.window_h
        obs = np.empty((sim.n_hubs, self.state_dim()))
        # Splitting the contiguous window columns is a view, not a copy.
        np.copyto(obs[:, : 5 * w].reshape(-1, 5, w), self._windows[:, :, sim.t])
        # ``sim.soc_fraction``, written straight into its column.
        np.divide(sim.soc_kwh, sim.params.capacity_kwh, out=obs[:, 5 * w])
        if self.feeder_aware:
            obs[:, 5 * w + 1] = self._feeder_headroom(sim)
        return obs

    def _feeder_headroom(self, sim: FleetSimulation) -> np.ndarray:
        """Per-hub feeder headroom in charge-rate units, clipped.

        ``available_import_kw`` is the hub's fair share of remaining
        feeder capacity this slot; dividing by the charge rate expresses
        it as "how many full-rate charges still fit". Infinite headroom
        (uncoupled feeders) saturates at :data:`FEEDER_OBS_CLIP`.
        """
        available = sim.available_import_kw()
        return np.minimum(available / sim.params.charge_rate_kw, FEEDER_OBS_CLIP)

    # ------------------------------------------------------------------ #
    # Episode lifecycle                                                    #
    # ------------------------------------------------------------------ #

    def reseed(self, rng: np.random.Generator) -> None:
        """Swap the episode-sampling stream (paired evaluation runs)."""
        self._rng = rng

    def _episode_feeders(self, starts: Sequence[int]) -> FeederGroup | None:
        """The feeders of the live episodes: per-slot capacity sliced to
        each episode's window, one group per episode, stacked."""
        feeders = self.feeders
        if feeders is None:
            return None
        if feeders.import_capacity_kw.ndim == 1:
            groups = [feeders] * len(starts)
        else:
            capacity = feeders.import_capacity_kw
            groups = [
                dataclasses.replace(
                    feeders,
                    import_capacity_kw=capacity[:, start : start + self._episode_h],
                )
                for start in starts
            ]
        return groups[0] if len(groups) == 1 else FeederGroup.stack(groups)

    def _draw_episode(self) -> tuple[int, np.ndarray, np.ndarray]:
        """Draw one episode: ``(start, occupied, initial_soc)``."""
        max_start = self._n_hours - self._episode_h
        start = int(self._rng.integers(0, max_start + 1))
        slots = np.arange(start, start + self._episode_h)
        occupied = np.empty((self.n_hubs, self._episode_h), dtype=int)
        episode_discount = self.discount[:, start : start + self._episode_h]
        initial_soc = np.empty(self.n_hubs)
        for i, scenario in enumerate(self.scenarios):
            # Per hub: strata then SoC — the scalar env's draw order, so
            # an n_hubs=1 episode consumes the RNG identically.
            strata = self.behavior.sample_strata(
                scenario.site.hub_id, slots, self._rng
            )
            occupied[i] = resolve_occupancy(strata, episode_discount[i] > 0)
            initial_soc[i] = (
                float(self._rng.uniform(0.0, 1.0))
                if self.config.random_initial_soc
                else 0.5
            )
        return start, occupied, initial_soc

    def reset(self, episodes: int = 1) -> np.ndarray:
        """Start ``episodes`` episodes, stacked on the hub axis.

        The episodes are drawn in order, each exactly as a lone reset
        draws it, and then step together as one simulation over
        ``episodes x n_hubs`` hub columns, episode-major: episode ``e``
        holds rows ``e*n_hubs`` to ``(e+1)*n_hubs - 1`` of every state,
        action and reward. Every engine expression is elementwise over
        hubs and each episode keeps its own feeders, so each episode's
        rows are bitwise those of the episode run alone. Returns the
        ``(episodes * n_hubs, state_dim)`` state.
        """
        if int(episodes) < 1:
            raise EnvError(f"episodes must be positive, got {episodes}")
        draws = [self._draw_episode() for _ in range(int(episodes))]
        starts = tuple(start for start, _, _ in draws)
        length = self._episode_h

        def windows(block: np.ndarray) -> np.ndarray:
            return np.concatenate([block[:, s : s + length] for s in starts])

        inputs = FleetInputs(
            load_rate=windows(self._load_rate),
            rtp_kwh=windows(self._rtp_kwh),
            pv_power_kw=windows(self._pv_kw),
            wt_power_kw=windows(self._wt_kw),
            occupied=np.concatenate([occupied for _, occupied, _ in draws]),
            discount=windows(self.discount),
            outage=None if self.outage is None else windows(self.outage),
        )
        self._sim = FleetSimulation(
            self.params.tile(len(starts)),
            inputs,
            initial_soc_fraction=np.concatenate([soc for _, _, soc in draws]),
            feeders=self._episode_feeders(starts),
            voll_per_kwh=self.voll_per_kwh,
        )
        self._starts = starts
        self._windows = self._window_view(starts)
        return self._observe()

    def step(
        self, actions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, bool, dict]:
        """Apply one action per hub; returns (state, scaled_rewards, done, info).

        ``actions`` is an ``(n_hubs,)`` integer vector over the action
        codes {0: idle, 1: charge, 2: discharge} — one entry
        per state row, ``(episodes * n_hubs,)`` after a stacked reset.
        Rewards are the per-hub Eq. 12 slot profits (minus the VoLL
        penalty) divided by ``reward_scale``; ``info["reward_raw"]``
        carries the unscaled values and ``info["columns"]`` the booked
        slot columns.
        """
        sim = self._require_sim()
        actions = np.asarray(actions)
        if actions.shape != (sim.n_hubs,):
            raise EnvError(
                f"actions must have shape ({sim.n_hubs},), got {actions.shape}"
            )
        # Booleans are excluded: _SBP_LOOKUP[actions] would mask-index
        # the lookup table instead of mapping action codes.
        if actions.dtype.kind not in "iu":
            raise EnvError(f"actions must be integers, got dtype {actions.dtype}")
        if actions.size and (
            np.minimum.reduce(actions) < 0 or np.maximum.reduce(actions) >= N_ACTIONS
        ):
            raise EnvError(
                f"invalid action in {actions!r}; expected values in "
                f"[0, {N_ACTIONS})"
            )
        # The codes are checked, so the engine need not check the S_BP.
        columns = sim.step(_SBP_LOOKUP[actions], validated=True)
        reward_raw = (
            columns["revenue"]
            - columns["grid_cost"]
            - columns["bp_cost"]
            - self.voll_per_kwh * columns["unserved_kwh"]
        )
        done = sim.done
        state = (
            self._observe()
            if not done
            else np.zeros((sim.n_hubs, self.state_dim()))
        )
        info = {"columns": columns, "reward_raw": reward_raw}
        return state, reward_raw / self.config.reward_scale, done, info

    def _require_sim(self) -> FleetSimulation:
        if self._sim is None:
            raise EnvError("step/observe called before reset()")
        return self._sim

    @property
    def simulation(self) -> FleetSimulation:
        """The live batched simulation (for evaluation bookkeeping)."""
        return self._require_sim()
