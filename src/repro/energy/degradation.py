"""Battery degradation: calendar + cycle fade and the Fig. 4 voltage curves.

The paper motivates EV charging partly by battery self-degradation: backup
batteries fade even when idle (Fig. 4 shows the float voltage of two
lead-acid cells declining from ≈2.29 V to ≈2.10 V over 350 days, and a
~54 V battery group declining in step).

Model
-----
Capacity fade is the sum of a calendar term (time-driven, affects idle
packs) and a cycle term (throughput-driven):

``fade(t) = k_cal · t_days + k_cyc · equivalent_full_cycles(t)``

Float voltage maps affinely onto fade with additive measurement noise,
which reproduces Fig. 4's gently sloped noisy traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

#: Equivalent full cycles a backup pack runs per day (float service).
_DAILY_CYCLES = 0.05


@dataclass(frozen=True)
class DegradationConfig:
    """Calendar/cycle fade parameters and the voltage mapping.

    Attributes
    ----------
    calendar_fade_per_day:
        Fractional capacity lost per idle day (lead-acid float service).
    cycle_fade_per_efc:
        Fractional capacity lost per equivalent full cycle.
    cell_nominal_v:
        Fresh float voltage of a single 2 V-class cell (Fig. 4 left axis).
    cell_voltage_span_v:
        Voltage drop corresponding to fade going 0 → 1.
    cells_in_group:
        Series cells in the battery group (Fig. 4 right axis, ≈54 V ⇒ 24).
    voltage_noise_v:
        Std-dev of per-sample measurement noise on a single cell.
    """

    calendar_fade_per_day: float = 5.5e-4
    cycle_fade_per_efc: float = 4.0e-4
    cell_nominal_v: float = 2.29
    cell_voltage_span_v: float = 1.0
    cells_in_group: int = 24
    voltage_noise_v: float = 0.004

    def __post_init__(self) -> None:
        if self.calendar_fade_per_day < 0 or self.cycle_fade_per_efc < 0:
            raise ConfigError("fade coefficients must be non-negative")
        if self.cell_nominal_v <= 0 or self.cell_voltage_span_v <= 0:
            raise ConfigError("voltage parameters must be positive")
        if self.cells_in_group <= 0:
            raise ConfigError("cells_in_group must be positive")
        if self.voltage_noise_v < 0:
            raise ConfigError("voltage_noise_v must be non-negative")


def cell_voltage(
    config: DegradationConfig,
    fade: np.ndarray | float,
) -> np.ndarray | float:
    """Float voltage of a single cell at the given fade level."""
    return config.cell_nominal_v - config.cell_voltage_span_v * np.asarray(fade, dtype=float)


def simulate_voltage_traces(
    n_days: int,
    rng: np.random.Generator,
    config: DegradationConfig | None = None,
    *,
    n_cells: int = 2,
) -> dict[str, np.ndarray]:
    """Daily voltage traces for individual cells and the series group (Fig. 4).

    Each cell gets a mildly different calendar rate (manufacturing spread);
    the group voltage is the sum over ``cells_in_group`` independent cells
    re-scaled from the two observed ones.

    Returns a dict with ``days``, ``cell_voltages`` of shape
    ``(n_cells, n_days)``, and ``group_voltage`` of shape ``(n_days,)``.
    """
    if n_days <= 0:
        raise ConfigError(f"n_days must be positive, got {n_days}")
    if n_cells <= 0:
        raise ConfigError(f"n_cells must be positive, got {n_cells}")
    config = config or DegradationConfig()

    days = np.arange(n_days, dtype=float)
    cell_voltages = np.empty((n_cells, n_days))
    for cell in range(n_cells):
        rate_scale = rng.uniform(0.85, 1.15)
        fade = np.minimum(
            config.calendar_fade_per_day * rate_scale * days
            + config.cycle_fade_per_efc * _DAILY_CYCLES * days,
            1.0,
        )
        noise = rng.normal(0.0, config.voltage_noise_v, size=n_days)
        cell_voltages[cell] = cell_voltage(config, fade) + noise

    group_fade = np.minimum(
        config.calendar_fade_per_day * days
        + config.cycle_fade_per_efc * _DAILY_CYCLES * days,
        1.0,
    )
    group_noise = rng.normal(
        0.0, config.voltage_noise_v * np.sqrt(config.cells_in_group), size=n_days
    )
    group_voltage = config.cells_in_group * cell_voltage(config, group_fade) + group_noise

    return {"days": days, "cell_voltages": cell_voltages, "group_voltage": group_voltage}
