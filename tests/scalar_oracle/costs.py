"""Cost and revenue accounting — Eqs. 8–12 of the paper.

Per slot:

* battery operating cost  ``C_BP(t) = |S_BP(t)| · c_BP``            (Eq. 8)
* grid energy cost        ``C_grid(t) = P_grid(t) · RTP(t)``        (Eq. 9)
* charging revenue        ``P_CS(t) · SRTP(t)``                     (Eq. 11)

and over a horizon the operator's objective (Eq. 12):

``Ψ = Σ_t [ P_CS·SRTP − P_grid·RTP − |S_BP|·c_BP ] = CR − OC``.

:class:`SlotLedger` captures one fully-resolved slot; :class:`CostBook`
accumulates ledgers and exposes ``OC`` (Eq. 10), ``CR`` (Eq. 11), and the
profit ``Ψ``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import HubError


@dataclass(frozen=True)
class SlotLedger:
    """Everything that happened in one simulated slot.

    Power values are bus-side kW; monetary values are $ for the slot.
    ``reward`` is the Eq. 12 summand (also the DRL reward ``r_t``).
    """

    slot: int
    action: int
    p_bs_kw: float
    p_cs_kw: float
    p_bp_kw: float
    p_pv_kw: float
    p_wt_kw: float
    p_grid_kw: float
    surplus_kw: float
    rtp_kwh: float
    srtp_kwh: float
    soc_kwh: float
    grid_cost: float
    bp_cost: float
    revenue: float
    blackout: bool = False
    unserved_kwh: float = 0.0

    @property
    def reward(self) -> float:
        """Eq. 12 summand: revenue − grid cost − battery cost."""
        return self.revenue - self.grid_cost - self.bp_cost


def compute_slot_ledger(
    *,
    slot: int,
    action: int,
    p_bs_kw: float,
    p_cs_kw: float,
    p_bp_kw: float,
    p_pv_kw: float,
    p_wt_kw: float,
    p_grid_kw: float,
    surplus_kw: float,
    rtp_kwh: float,
    srtp_kwh: float,
    soc_kwh: float,
    c_bp_per_slot: float,
    dt_h: float,
    blackout: bool = False,
    unserved_kwh: float = 0.0,
) -> SlotLedger:
    """Assemble a :class:`SlotLedger`, applying Eqs. 8, 9, and 11."""
    if dt_h <= 0:
        raise HubError(f"dt_h must be positive, got {dt_h}")
    if rtp_kwh < 0 or srtp_kwh < 0:
        raise HubError("prices must be non-negative")
    bp_active = 1.0 if action != 0 else 0.0
    return SlotLedger(
        slot=slot,
        action=action,
        p_bs_kw=p_bs_kw,
        p_cs_kw=p_cs_kw,
        p_bp_kw=p_bp_kw,
        p_pv_kw=p_pv_kw,
        p_wt_kw=p_wt_kw,
        p_grid_kw=p_grid_kw,
        surplus_kw=surplus_kw,
        rtp_kwh=rtp_kwh,
        srtp_kwh=srtp_kwh,
        soc_kwh=soc_kwh,
        grid_cost=p_grid_kw * dt_h * rtp_kwh,
        bp_cost=bp_active * c_bp_per_slot,
        revenue=p_cs_kw * dt_h * srtp_kwh,
        blackout=blackout,
        unserved_kwh=unserved_kwh,
    )


@dataclass
class CostBook:
    """Accumulates slot ledgers into the paper's aggregate quantities.

    ``voll_per_kwh`` is the value-of-lost-load penalty: Eq. 12 profit
    charges every unserved kWh at this rate, so reliability failures cost
    money instead of silently *raising* profit (unserved load means less
    grid import). Zero — the paper's literal objective — by default.
    """

    ledgers: list[SlotLedger] = field(default_factory=list)
    voll_per_kwh: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.voll_per_kwh) or self.voll_per_kwh < 0:
            raise HubError(
                f"voll_per_kwh must be finite and non-negative, got "
                f"{self.voll_per_kwh}"
            )

    def add(self, ledger: SlotLedger) -> None:
        """Record one slot."""
        self.ledgers.append(ledger)

    def __len__(self) -> int:
        return len(self.ledgers)

    @property
    def operating_cost(self) -> float:
        """Eq. 10: ``OC = Σ_t [C_grid(t) + C_BP(t)]``."""
        return sum(l.grid_cost + l.bp_cost for l in self.ledgers)

    @property
    def charging_revenue(self) -> float:
        """Eq. 11: ``CR = Σ_t P_CS(t) · SRTP(t)``."""
        return sum(l.revenue for l in self.ledgers)

    @property
    def voll_cost(self) -> float:
        """Value-of-lost-load penalty over the horizon."""
        return self.voll_per_kwh * self.total_unserved_kwh

    @property
    def profit(self) -> float:
        """Eq. 12 plus the lost-load penalty: ``Ψ = CR − OC − VoLL·unserved``."""
        return self.charging_revenue - self.operating_cost - self.voll_cost

    @property
    def total_grid_energy_kwh(self) -> float:
        """Energy imported over the horizon (assumes uniform slots of 1 h)."""
        return sum(l.p_grid_kw for l in self.ledgers)

    @property
    def total_curtailed_kwh(self) -> float:
        """Renewable energy curtailed over the horizon."""
        return sum(l.surplus_kw for l in self.ledgers)

    @property
    def total_unserved_kwh(self) -> float:
        """BS energy that could not be served during blackouts."""
        return sum(l.unserved_kwh for l in self.ledgers)

    def daily_rewards(self, slots_per_day: int = 24) -> list[float]:
        """Eq. 12 profit aggregated per day (the paper's Fig. 13 series)."""
        if slots_per_day <= 0:
            raise HubError(f"slots_per_day must be positive, got {slots_per_day}")
        rewards: list[float] = []
        for start in range(0, len(self.ledgers), slots_per_day):
            chunk = self.ledgers[start : start + slots_per_day]
            rewards.append(
                sum(l.reward - self.voll_per_kwh * l.unserved_kwh for l in chunk)
            )
        return rewards
