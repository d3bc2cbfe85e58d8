"""Top-level power-allocation solvers for the four transmission schemes.

Each solver returns the best achievable D2D rate for its scheme on one
D2D-CU combination.  The SIC schemes compare against their no-SIC
counterpart and keep the better allocation, so a SIC scheme never reports a
lower rate than the plain one; ``sic_applied`` records whether interference
cancellation actually won.  A combination where even the CU alone cannot
meet its rate floor is reported infeasible with zero rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fdnosic import fd_nosic_search
from .fdsic import GeometryError, solve_fd_sic_order
from .model import (
    ChannelGains,
    DecodingOrder,
    PaSolution,
    PowerLimits,
    PowerTriplet,
    Scenario,
    ScenarioKind,
    SystemParams,
    rate_floor_snr,
    scenario_rates,
    shannon_rate,
)


def _infeasible(kind: ScenarioKind) -> PaSolution:
    zero = PowerTriplet(0.0, 0.0, 0.0)
    if kind in (ScenarioKind.HD_NOSIC, ScenarioKind.HD_SIC):
        powers: PowerTriplet | tuple[PowerTriplet, PowerTriplet] = (zero, zero)
        scenario = Scenario(
            kind, slot_sic=(False, False) if kind is ScenarioKind.HD_SIC else None
        )
    else:
        powers = zero
        scenario = Scenario(kind)
    return PaSolution(scenario, powers, 0.0, 0.0, sic_applied=False, feasible=False)


@dataclass(frozen=True)
class _Slot:
    p_dev: float
    pu: float
    r_dev: float
    r_u: float
    sic: bool


def _hd_nosic_slot(
    p_dev_max: float,
    h_b_dev: float,
    h_rx_u: float,
    gains: ChannelGains,
    params: SystemParams,
    limits: PowerLimits,
) -> _Slot | None:
    """Closed-form half-slot optimum without SIC.

    The device transmits as loud as the CU power budget allows while the CU
    rate floor is met with equality.
    """
    q = rate_floor_snr(params)
    s = params.noise_w
    if q == 0.0:
        p_dev, pu = p_dev_max, 0.0
    else:
        pu_needed = q * (p_dev_max * h_b_dev + s) / gains.h_b_u
        if pu_needed <= limits.pu_max_w:
            p_dev, pu = p_dev_max, pu_needed
        else:
            p_dev = (limits.pu_max_w * gains.h_b_u / q - s) / h_b_dev
            pu = limits.pu_max_w
            if p_dev < 0.0:
                return None  # even a silent device cannot protect the CU
    r_u = shannon_rate(params.bandwidth_hz, pu * gains.h_b_u / (p_dev * h_b_dev + s))
    r_dev = shannon_rate(params.bandwidth_hz, p_dev * gains.h_d / (pu * h_rx_u + s))
    return _Slot(p_dev, pu, r_dev, r_u, sic=False)


def _hd_sic_slot(
    p_dev_max: float,
    ratio_lo: float,
    ratio_hi: float,
    pu_m: float,
    gains: ChannelGains,
    params: SystemParams,
    limits: PowerLimits,
) -> _Slot | None:
    """Half-slot optimum with mutual SIC, or None when SIC is not available.

    The CU-to-device power ratio must sit strictly inside (ratio_lo,
    ratio_hi); the device power is pushed as high as that band and the CU
    power cap allow, and the CU then transmits at the lowest admissible
    power.
    """
    if not ratio_lo < ratio_hi:
        return None
    if pu_m > limits.pu_max_w or p_dev_max * ratio_hi <= pu_m:
        return None
    if ratio_lo * p_dev_max < pu_m:
        p_dev, pu = p_dev_max, pu_m
    elif ratio_lo * p_dev_max > limits.pu_max_w:
        p_dev, pu = limits.pu_max_w / ratio_lo, limits.pu_max_w
    else:
        p_dev, pu = p_dev_max, max(ratio_lo * p_dev_max, pu_m)
    r_u = shannon_rate(params.bandwidth_hz, pu * gains.h_b_u / params.noise_w)
    r_dev = shannon_rate(params.bandwidth_hz, p_dev * gains.h_d / params.noise_w)
    return _Slot(p_dev, pu, r_dev, r_u, sic=True)


def solve_hd_nosic(
    gains: ChannelGains, params: SystemParams, limits: PowerLimits
) -> PaSolution:
    slot1 = _hd_nosic_slot(
        limits.p1_max_w, gains.h_b_d1, gains.h_d2_u, gains, params, limits
    )
    slot2 = _hd_nosic_slot(
        limits.p2_max_w, gains.h_b_d2, gains.h_d1_u, gains, params, limits
    )
    pu_m = rate_floor_snr(params) * params.noise_w / gains.h_b_u
    if slot1 is None or slot2 is None or pu_m > limits.pu_max_w:
        return _infeasible(ScenarioKind.HD_NOSIC)
    powers = (
        PowerTriplet(slot1.p_dev, 0.0, slot1.pu),
        PowerTriplet(0.0, slot2.p_dev, slot2.pu),
    )
    scenario = Scenario(ScenarioKind.HD_NOSIC)
    r_u, r_d1, r_d2 = scenario_rates(scenario, powers, gains, params)
    return PaSolution(scenario, powers, r_d1 + r_d2, r_u, sic_applied=False)


def solve_hd_sic(
    gains: ChannelGains, params: SystemParams, limits: PowerLimits
) -> PaSolution:
    """Half-duplex allocation with SIC applied in every half slot where it wins.

    Each half slot independently compares the mutual-SIC optimum against the
    no-SIC one and keeps the better, so all four SIC/no-SIC slot combinations
    can occur.
    """
    q = rate_floor_snr(params)
    pu_m = q * params.noise_w / gains.h_b_u
    nosic1 = _hd_nosic_slot(
        limits.p1_max_w, gains.h_b_d1, gains.h_d2_u, gains, params, limits
    )
    nosic2 = _hd_nosic_slot(
        limits.p2_max_w, gains.h_b_d2, gains.h_d1_u, gains, params, limits
    )
    if nosic1 is None or nosic2 is None or pu_m > limits.pu_max_w:
        return _infeasible(ScenarioKind.HD_SIC)
    sic1 = _hd_sic_slot(
        limits.p1_max_w,
        gains.h_d / gains.h_d2_u,
        gains.h_b_d1 / gains.h_b_u,
        pu_m,
        gains,
        params,
        limits,
    )
    sic2 = _hd_sic_slot(
        limits.p2_max_w,
        gains.h_d / gains.h_d1_u,
        gains.h_b_d2 / gains.h_b_u,
        pu_m,
        gains,
        params,
        limits,
    )
    slot1 = sic1 if sic1 is not None and sic1.r_dev >= nosic1.r_dev else nosic1
    slot2 = sic2 if sic2 is not None and sic2.r_dev >= nosic2.r_dev else nosic2
    powers = (
        PowerTriplet(slot1.p_dev, 0.0, slot1.pu),
        PowerTriplet(0.0, slot2.p_dev, slot2.pu),
    )
    scenario = Scenario(ScenarioKind.HD_SIC, slot_sic=(slot1.sic, slot2.sic))
    r_u, r_d1, r_d2 = scenario_rates(scenario, powers, gains, params)
    return PaSolution(
        scenario, powers, r_d1 + r_d2, r_u, sic_applied=slot1.sic or slot2.sic
    )


def solve_fd_nosic(
    gains: ChannelGains, params: SystemParams, limits: PowerLimits
) -> PaSolution:
    p1, p2, pu, rate = fd_nosic_search(
        gains.h_d,
        gains.h_b_d1,
        gains.h_b_d2,
        gains.h_d1_u,
        gains.h_d2_u,
        gains.h_b_u,
        params.eta1,
        params.eta2,
        params.noise_w,
        rate_floor_snr(params),
        params.bandwidth_hz,
        limits.p1_max_w,
        limits.p2_max_w,
        limits.pu_max_w,
    )
    if rate < 0.0:
        return _infeasible(ScenarioKind.FD_NOSIC)
    scenario = Scenario(ScenarioKind.FD_NOSIC)
    powers = PowerTriplet(p1, p2, min(pu, limits.pu_max_w))
    r_u, r_d1, r_d2 = scenario_rates(scenario, powers, gains, params)
    return PaSolution(scenario, powers, r_d1 + r_d2, r_u, sic_applied=False)


def solve_fd_sic(
    gains: ChannelGains,
    params: SystemParams,
    limits: PowerLimits,
    fd_nosic_solution: PaSolution | None = None,
) -> PaSolution:
    """Full-duplex allocation with mutual SIC when it is feasible and wins.

    Both decoding orders are tried and the better one kept (ties go to the
    first order); the scheme falls back to the no-SIC allocation when SIC is
    infeasible or does not improve the rate.
    """
    best: PaSolution | None = None
    for order in (DecodingOrder.M2_FIRST, DecodingOrder.M1_FIRST):
        try:
            sol = solve_fd_sic_order(gains, params, limits, order)
        except GeometryError:
            sol = None
        if sol is not None and (best is None or sol.r_d2d_bps > best.r_d2d_bps):
            best = sol
    fallback = fd_nosic_solution
    if fallback is None:
        fallback = solve_fd_nosic(gains, params, limits)
    if best is not None and (not fallback.feasible or best.r_d2d_bps >= fallback.r_d2d_bps):
        return best
    return PaSolution(
        scenario=Scenario(ScenarioKind.FD_SIC),
        powers=fallback.powers,
        r_d2d_bps=fallback.r_d2d_bps,
        r_u_bps=fallback.r_u_bps,
        sic_applied=False,
        feasible=fallback.feasible,
    )


def solve_all(
    gains: ChannelGains, params: SystemParams, limits: PowerLimits
) -> dict[ScenarioKind, PaSolution]:
    """All four schemes for one combination, sharing the no-SIC FD solve."""
    fd_nosic = solve_fd_nosic(gains, params, limits)
    return {
        ScenarioKind.FD_NOSIC: fd_nosic,
        ScenarioKind.HD_NOSIC: solve_hd_nosic(gains, params, limits),
        ScenarioKind.HD_SIC: solve_hd_sic(gains, params, limits),
        ScenarioKind.FD_SIC: solve_fd_sic(gains, params, limits, fd_nosic),
    }
