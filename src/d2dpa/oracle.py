"""Brute-force grid search over power triplets, used to validate every solver.

Each constraint is restated here from scratch in plain inequality form and
evaluated on a dense grid; nothing is shared with the closed-form solver
modules, so agreement between the two paths is meaningful.  The M1_FIRST
decoding order and HD half slot 2 are derived from M2_FIRST and half slot 1
by exchanging the two devices (`ChannelGains.swapped_devices`).
`check_solution` is the one comparison of a solver's answer with the grid
optimum.  Speed is a non-goal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    ChannelGains,
    DecodingOrder,
    PaSolution,
    PowerLimits,
    PowerTriplet,
    Scenario,
    ScenarioKind,
    SystemParams,
)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid with points_per_axis samples on [0, max] per power axis."""

    points_per_axis: int

    def __post_init__(self) -> None:
        if self.points_per_axis < 2:
            raise ValueError("points_per_axis must be >= 2")

    def axis(self, p_max: float) -> np.ndarray:
        return np.linspace(0.0, p_max, self.points_per_axis)


@dataclass(frozen=True)
class GridResult:
    powers: PowerTriplet | tuple[PowerTriplet, PowerTriplet]
    r_d2d_bps: float


def _fd_sic_mask(
    p1: np.ndarray, p2: np.ndarray, pu: float, g: ChannelGains, e1: float, e2: float,
    order: DecodingOrder,
) -> np.ndarray:
    """Power-ordering plus rate conditions of one decoding order on the
    broadcast power arrays.  The M2_FIRST set (m2 decoded first) is stated;
    M1_FIRST is its device mirror, which broadcasting returns on the call's
    own (p1, p2) axes."""
    if order is DecodingOrder.M1_FIRST:
        return _fd_sic_mask(p2, p1, pu, g.swapped_devices(), e2, e1, DecodingOrder.M2_FIRST)
    m = (pu * g.h_b_u < p2 * g.h_b_d2 - p1 * g.h_b_d1)
    m &= pu * g.h_d1_u > p2 * g.h_d + p1 * e1
    m &= pu * g.h_b_u < p1 * g.h_b_d1
    m &= pu * g.h_d2_u > p1 * g.h_d + p2 * e2
    m &= (
        p1 * (g.h_b_d2 * e1 - g.h_d * g.h_b_d1)
        + pu * (g.h_d1_u * g.h_b_d2 - g.h_d * g.h_b_u)
    ) > 0.0
    m &= (
        p1 * (g.h_d1_u * g.h_b_d1 - g.h_b_u * e1)
        + p2 * (g.h_d1_u * g.h_b_d2 - g.h_b_u * g.h_d)
    ) > 0.0
    m &= p2 * g.h_b_d1 * e2 > pu * (g.h_b_u * g.h_d - g.h_d2_u * g.h_b_d1)
    m &= p1 * (g.h_b_d1 * g.h_d2_u - g.h_d * g.h_b_u) > p2 * e2 * g.h_b_u
    return m


def _brute_fd_sic(
    gains: ChannelGains,
    params: SystemParams,
    limits: PowerLimits,
    grid: GridSpec,
    order: DecodingOrder,
) -> GridResult | None:
    g, e1, e2, s, bw = gains, params.eta1, params.eta2, params.noise_w, params.bandwidth_hz
    p1 = grid.axis(limits.p1_max_w)[:, None]
    p2 = grid.axis(limits.p2_max_w)[None, :]
    rate = bw * np.log2(
        (1.0 + p1 * g.h_d / (e2 * p2 + s)) * (1.0 + p2 * g.h_d / (e1 * p1 + s))
    )
    feasible = np.zeros(rate.shape, dtype=bool)
    pu_low = np.full(rate.shape, np.inf)
    for pu in grid.axis(limits.pu_max_w):
        if bw * math.log2(1.0 + pu * g.h_b_u / s) < params.r_u_min_bps:
            continue
        m = _fd_sic_mask(p1, p2, pu, g, e1, e2, order)
        newly = m & ~feasible
        pu_low[newly] = pu
        feasible |= m
    if not feasible.any():
        return None
    masked = np.where(feasible, rate, -np.inf)
    i, j = np.unravel_index(int(np.argmax(masked)), masked.shape)
    best = PowerTriplet(float(p1[i, 0]), float(p2[0, j]), float(pu_low[i, j]))
    return GridResult(best, float(rate[i, j]))


def _brute_fd_nosic(
    gains: ChannelGains, params: SystemParams, limits: PowerLimits, grid: GridSpec
) -> GridResult | None:
    g, e1, e2, s, bw = gains, params.eta1, params.eta2, params.noise_w, params.bandwidth_hz
    p1 = grid.axis(limits.p1_max_w)[:, None]
    p2 = grid.axis(limits.p2_max_w)[None, :]
    bs_interference = p1 * g.h_b_d1 + p2 * g.h_b_d2 + s
    # CU floor in SINR form: B*log2(1 + snr) >= Rmin  <=>  snr >= 2^(Rmin/B)-1
    snr_floor = 2.0 ** (params.r_u_min_bps / bw) - 1.0
    best_rate = -np.inf
    best_point = None
    for pu in grid.axis(limits.pu_max_w):
        m = pu * g.h_b_u >= snr_floor * bs_interference
        if not m.any():
            continue
        rate = bw * np.log2(
            (1.0 + p1 * g.h_d / (pu * g.h_d2_u + e2 * p2 + s))
            * (1.0 + p2 * g.h_d / (pu * g.h_d1_u + e1 * p1 + s))
        )
        masked = np.where(m, rate, -np.inf)
        k = int(np.argmax(masked))
        i, j = np.unravel_index(k, masked.shape)
        if masked[i, j] > best_rate:
            best_rate = float(masked[i, j])
            best_point = PowerTriplet(float(p1[i, 0]), float(p2[0, j]), float(pu))
    if best_point is None:
        return None
    return GridResult(best_point, best_rate)


def _brute_hd_slot(
    gains: ChannelGains,
    params: SystemParams,
    limits: PowerLimits,
    grid: GridSpec,
    allow_sic: bool,
) -> tuple[float, float, float] | None:
    """(p1, pu, device-1 rate) maximized on a 2D grid for the half slot in
    which device 1 sends to device 2.

    With allow_sic the candidate set is the union of the no-SIC points and the
    points meeting the SIC power-ordering band; each side is rated with its
    own formula and the best point of the union wins.  The other half slot is
    this one with the devices exchanged.
    """
    g, s, bw = gains, params.noise_w, params.bandwidth_hz
    p1 = grid.axis(limits.p1_max_w)[:, None]
    pu = grid.axis(limits.pu_max_w)[None, :]

    r_u_nosic = bw * np.log2(1.0 + pu * g.h_b_u / (p1 * g.h_b_d1 + s))
    rate_nosic = bw * np.log2(1.0 + p1 * g.h_d / (pu * g.h_d2_u + s))
    feasible = r_u_nosic >= params.r_u_min_bps
    rate = np.where(feasible, rate_nosic, -np.inf)

    if allow_sic:
        r_u_sic = bw * np.log2(1.0 + pu * g.h_b_u / s)
        sic_ok = (pu * g.h_d2_u > p1 * g.h_d) & (p1 * g.h_b_d1 > pu * g.h_b_u)
        sic_ok &= r_u_sic >= params.r_u_min_bps
        rate_sic = bw * np.log2(1.0 + p1 * g.h_d / s)
        rate = np.maximum(rate, np.where(sic_ok, rate_sic, -np.inf))
        feasible |= sic_ok

    if not feasible.any():
        return None
    i, j = np.unravel_index(int(np.argmax(rate)), rate.shape)
    return float(p1[i, 0]), float(pu[0, j]), float(rate[i, j])


def _brute_hd(
    gains: ChannelGains,
    params: SystemParams,
    limits: PowerLimits,
    grid: GridSpec,
    allow_sic: bool,
) -> GridResult | None:
    slot1 = _brute_hd_slot(gains, params, limits, grid, allow_sic)
    slot2 = _brute_hd_slot(gains.swapped_devices(), params, limits.swapped_devices(), grid, allow_sic)
    if slot1 is None or slot2 is None:
        return None
    powers = (
        PowerTriplet(slot1[0], 0.0, slot1[1]),
        PowerTriplet(0.0, slot2[0], slot2[1]),
    )
    return GridResult(powers, 0.5 * (slot1[2] + slot2[2]))


def brute_force(
    scenario: Scenario,
    gains: ChannelGains,
    params: SystemParams,
    limits: PowerLimits,
    grid: GridSpec,
) -> GridResult | None:
    """Best feasible grid point for a scenario, or None when no point survives.

    FD-SIC requires ``scenario.order`` and searches that decoding order's
    constraint set only.
    """
    kind = scenario.kind
    if kind is ScenarioKind.FD_NOSIC:
        return _brute_fd_nosic(gains, params, limits, grid)
    if kind is ScenarioKind.FD_SIC:
        if scenario.order is None:
            raise ValueError("FD-SIC grid search needs a decoding order")
        return _brute_fd_sic(gains, params, limits, grid, scenario.order)
    if kind is ScenarioKind.HD_NOSIC:
        return _brute_hd(gains, params, limits, grid, allow_sic=False)
    if kind is ScenarioKind.HD_SIC:
        return _brute_hd(gains, params, limits, grid, allow_sic=True)
    raise ValueError(f"unknown scenario kind: {kind!r}")


def _grid_cell_rate_slack(
    result: GridResult, g: ChannelGains, params: SystemParams, limits: PowerLimits, grid: GridSpec
) -> float:
    """Largest mutual-SIC D2D-rate variation between the best FD grid point
    and its neighbours."""
    e1, e2, s, bw = params.eta1, params.eta2, params.noise_w, params.bandwidth_hz
    n = grid.points_per_axis
    d1 = limits.p1_max_w / (n - 1)
    d2 = limits.p2_max_w / (n - 1)
    p0 = result.powers
    worst = 0.0
    for dp1 in (-d1, 0.0, d1):
        for dp2 in (-d2, 0.0, d2):
            p1 = min(max(p0.p1_w + dp1, 0.0), limits.p1_max_w)
            p2 = min(max(p0.p2_w + dp2, 0.0), limits.p2_max_w)
            r = bw * (
                math.log2(1.0 + p1 * g.h_d / (e2 * p2 + s))
                + math.log2(1.0 + p2 * g.h_d / (e1 * p1 + s))
            )
            worst = max(worst, abs(r - result.r_d2d_bps))
    return worst


def check_solution(
    scenario: Scenario,
    solution: PaSolution,
    gains: ChannelGains,
    params: SystemParams,
    limits: PowerLimits,
    grid: GridSpec,
) -> tuple[float | None, bool]:
    """``(gap, violation)`` of a solution against the grid optimum of
    ``scenario``: the optimum's D2D rate minus the solution's (None on an
    empty grid), and whether the gap exceeds the tolerance.  That is, for
    FD-SIC, the rate variation over the optimum's grid cell (at least 1e-9
    of the optimum), and 1e-9 of max(optimum, 1 bit/s) for the rest.  An
    empty FD-SIC grid is no violation, as the admissible region can be a
    sliver below the grid pitch; an empty grid of another scheme is one
    when the solution is feasible."""
    ref = brute_force(scenario, gains, params, limits, grid)
    fd_sic = scenario.kind is ScenarioKind.FD_SIC
    if ref is None:
        return None, solution.feasible and not fd_sic
    gap = ref.r_d2d_bps - solution.r_d2d_bps
    if fd_sic:
        tol = max(_grid_cell_rate_slack(ref, gains, params, limits, grid), 1e-9 * ref.r_d2d_bps)
    else:
        tol = 1e-9 * max(ref.r_d2d_bps, 1.0)
    return gap, gap > tol
