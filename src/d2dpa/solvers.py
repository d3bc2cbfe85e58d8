"""Top-level power-allocation solvers for the four transmission schemes.

Each solver returns the best achievable D2D rate for its scheme on one
D2D-CU combination.  The SIC schemes compare against their no-SIC
counterpart and keep the better allocation, so a SIC scheme never reports a
lower rate than the plain one; ``sic_applied`` records whether interference
cancellation actually won.  A combination where even the CU alone cannot
meet its rate floor is reported infeasible with zero rate.

`solve_all` is the reference for one combination.  `solve_all_batch` gives
the same answers for a whole D x K table with numpy.  Its FD-SIC step solves
both decoding orders of every entry that passes the feasibility pre-test in
one `fdsic.fd_sic_batch` call, and falls back to the scalar solve only for
the few (entry, order) pairs the batch leaves to it: a best candidate that
must be pulled inward to pass validation, or a GeometryError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fdnosic import fd_nosic_batch, fd_nosic_search
from .fdsic import GeometryError, fd_sic_batch, pretest_terms, solve_fd_sic_order
from .model import (
    ChannelGains,
    DecodingOrder,
    PaSolution,
    PowerLimits,
    PowerTriplet,
    Scenario,
    ScenarioKind,
    SystemParams,
    check_array,
    rate_floor_snr,
    scenario_rates,
    shannon_rate,
)

SIC_ORDERS = (DecodingOrder.M2_FIRST, DecodingOrder.M1_FIRST)


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


def _solve_order(
    gains: ChannelGains, params: SystemParams, limits: PowerLimits, order: DecodingOrder
) -> PaSolution | None:
    """`solve_fd_sic_order`, with a GeometryError counted as infeasible."""
    try:
        return solve_fd_sic_order(gains, params, limits, order)
    except GeometryError:
        return None


def _best_sic_order(
    gains: ChannelGains, params: SystemParams, limits: PowerLimits
) -> PaSolution | None:
    """The better mutual-SIC allocation over both decoding orders (ties go to
    the first order), or None when neither is feasible."""
    best: PaSolution | None = None
    for order in SIC_ORDERS:
        sol = _solve_order(gains, params, limits, order)
        if sol is not None and (best is None or sol.r_d2d_bps > best.r_d2d_bps):
            best = sol
    return best


def _sic_wins(sic_rate, fallback_feasible, fallback_rate):
    """Where SIC beats the no-SIC allocation; floats or arrays."""
    return np.logical_not(fallback_feasible) | (sic_rate >= fallback_rate)


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
    best = _best_sic_order(gains, params, limits)
    fallback = fd_nosic_solution
    if fallback is None:
        fallback = solve_fd_nosic(gains, params, limits)
    if best is not None and _sic_wins(best.r_d2d_bps, fallback.feasible, fallback.r_d2d_bps):
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


# ---------------------------------------------------------------------------
# Batched solve of a whole table


@dataclass(frozen=True)
class _SlotBatch:
    """A half slot over a table; ``ok`` is False where the scalar slot is None."""

    p_dev: np.ndarray
    pu: np.ndarray
    r_dev: np.ndarray
    ok: np.ndarray


def _hd_nosic_slot_batch(
    p_dev_max: float,
    h_b_dev: np.ndarray,
    h_rx_u: np.ndarray,
    h_d: np.ndarray,
    h_b_u: np.ndarray,
    params: SystemParams,
    limits: PowerLimits,
) -> _SlotBatch:
    """`_hd_nosic_slot` over arrays."""
    q = rate_floor_snr(params)
    s = params.noise_w
    if q == 0.0:
        p_dev = np.full(h_b_u.shape, p_dev_max)
        pu = np.zeros(h_b_u.shape)
        ok = np.ones(h_b_u.shape, dtype=bool)
    else:
        pu_needed = q * (p_dev_max * h_b_dev + s) / h_b_u
        fits = pu_needed <= limits.pu_max_w
        p_dev = np.where(fits, p_dev_max, (limits.pu_max_w * h_b_u / q - s) / h_b_dev)
        pu = np.where(fits, pu_needed, limits.pu_max_w)
        ok = fits | ~(p_dev < 0.0)
    r_dev = params.bandwidth_hz * np.log2(1.0 + p_dev * h_d / (pu * h_rx_u + s))
    return _SlotBatch(p_dev, pu, r_dev, ok)


def _hd_sic_slot_batch(
    p_dev_max: float,
    ratio_lo: np.ndarray,
    ratio_hi: np.ndarray,
    pu_m: np.ndarray,
    h_d: np.ndarray,
    params: SystemParams,
    limits: PowerLimits,
) -> _SlotBatch:
    """`_hd_sic_slot` over arrays."""
    pu_max = limits.pu_max_w
    ok = (ratio_lo < ratio_hi) & ~(pu_m > pu_max) & ~(p_dev_max * ratio_hi <= pu_m)
    lo_p = ratio_lo * p_dev_max
    below = lo_p < pu_m
    above = ~below & (lo_p > pu_max)
    p_dev = np.where(above, pu_max / ratio_lo, p_dev_max)
    pu = np.where(below, pu_m, np.where(above, pu_max, np.maximum(lo_p, pu_m)))
    r_dev = params.bandwidth_hz * np.log2(1.0 + p_dev * h_d / params.noise_w)
    return _SlotBatch(p_dev, pu, r_dev, ok)


def _choose(use: np.ndarray, sic: _SlotBatch, nosic: _SlotBatch) -> _SlotBatch:
    """Per entry, the SIC slot where ``use`` holds and the no-SIC one elsewhere."""
    return _SlotBatch(
        *(np.where(use, a, b) for a, b in zip(
            (sic.p_dev, sic.pu, sic.r_dev), (nosic.p_dev, nosic.pu, nosic.r_dev)
        )),
        ok=nosic.ok,
    )


def _check_powers(feasible: np.ndarray, p1_w, p2_w, pu_w) -> None:
    """`PowerTriplet`'s check on the (p1, p2, pu) triplet of every feasible entry."""
    for name, values in (("p1_w", p1_w), ("p2_w", p2_w), ("pu_w", pu_w)):
        check_array(name, values, strict=False, where=feasible)


def _fd_sic_table(h, params: SystemParams, limits: PowerLimits, pu_m, passes) -> np.ndarray:
    """The `_best_sic_order` rate of every table entry, -inf where no order is
    feasible.

    ``passes`` holds each order's pre-test mask.  Both orders of every
    passing entry go through one `fd_sic_batch` call; the pairs it leaves to
    the scalar solve go through `_solve_order`.  The powers of every
    feasible pair pass `PowerTriplet`'s check.
    """
    where = [np.nonzero(p) for p in passes]
    idx = tuple(np.concatenate(axis) for axis in zip(*where))
    m1_first = np.repeat([False, True], [len(w[0]) for w in where])
    by_order = np.full((2,) + pu_m.shape, -np.inf)
    if not m1_first.size:
        return by_order[0]
    gains = tuple(x[idx] for x in h)
    p1, p2, pu, rate, fallback = fd_sic_batch(gains, params, limits, pu_m[idx], m1_first)
    for j in np.flatnonzero(fallback):
        order = SIC_ORDERS[int(m1_first[j])]
        sol = _solve_order(ChannelGains(*(float(x[j]) for x in gains)), params, limits, order)
        if sol is None:
            rate[j] = -np.inf
        else:
            p = sol.powers
            p1[j], p2[j], pu[j], rate[j] = p.p1_w, p.p2_w, p.pu_w, sol.r_d2d_bps
    _check_powers(rate >= 0.0, p1, p2, pu)
    by_order[(m1_first.astype(np.intp),) + idx] = rate
    # the first order wins unless the second is strictly better
    return np.where(by_order[1] > by_order[0], by_order[1], by_order[0])


def solve_all_batch(
    h: tuple[np.ndarray, ...], params: SystemParams, limits: PowerLimits
) -> dict[ScenarioKind, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """`solve_all` for every combination of a table at once.

    ``h`` holds the six link gains in `ChannelGains` field order, as arrays
    that broadcast to the table's shape.  Returns, per scheme, the D2D rate,
    SIC-applied and infeasible arrays; infeasible entries carry rate 0 and no
    SIC.  Each scheme follows its scalar solver's rules, rates are recomputed
    from the chosen powers with the `scenario_rates` formulas, and the chosen
    powers pass `PowerTriplet`'s check.
    """
    h = tuple(np.broadcast_arrays(*h))
    h_d, h_b_d1, h_b_d2, h_d1_u, h_d2_u, h_b_u = h
    q = rate_floor_snr(params)
    s, bw, eta1, eta2 = params.noise_w, params.bandwidth_hz, params.eta1, params.eta2
    p1_max, p2_max, pu_max = limits.p1_max_w, limits.p2_max_w, limits.pu_max_w
    with np.errstate(all="ignore"):
        pu_m = q * s / h_b_u
        cu_ok = ~(pu_m > pu_max)

        # HD: slot 1 carries device 1 to device 2, slot 2 the reverse.
        nosic1 = _hd_nosic_slot_batch(p1_max, h_b_d1, h_d2_u, h_d, h_b_u, params, limits)
        nosic2 = _hd_nosic_slot_batch(p2_max, h_b_d2, h_d1_u, h_d, h_b_u, params, limits)
        hd_ok = nosic1.ok & nosic2.ok & cu_ok
        sic1 = _hd_sic_slot_batch(p1_max, h_d / h_d2_u, h_b_d1 / h_b_u, pu_m, h_d, params, limits)
        sic2 = _hd_sic_slot_batch(p2_max, h_d / h_d1_u, h_b_d2 / h_b_u, pu_m, h_d, params, limits)
        use1 = sic1.ok & (sic1.r_dev >= nosic1.r_dev)
        use2 = sic2.ok & (sic2.r_dev >= nosic2.r_dev)
        slot1, slot2 = _choose(use1, sic1, nosic1), _choose(use2, sic2, nosic2)
        for first, second in ((nosic1, nosic2), (slot1, slot2)):
            _check_powers(hd_ok, first.p_dev, 0.0, first.pu)
            _check_powers(hd_ok, 0.0, second.p_dev, second.pu)
        # scenario_rates: each half slot carries weight 1/2.
        hd_nosic_rate = 0.5 * nosic2.r_dev + 0.5 * nosic1.r_dev
        hd_sic_rate = 0.5 * slot2.r_dev + 0.5 * slot1.r_dev

        p1, p2, pu, fd_search_rate = fd_nosic_batch(
            *h, eta1, eta2, s, q, bw, p1_max, p2_max, pu_max
        )
        fd_ok = ~(fd_search_rate < 0.0)
        pu = np.minimum(pu, pu_max)
        _check_powers(fd_ok, p1, p2, pu)
        fd_rate = bw * np.log2(1.0 + p2 * h_d / (pu * h_d1_u + eta1 * p1 + s)) + bw * np.log2(
            1.0 + p1 * h_d / (pu * h_d2_u + eta2 * p2 + s)
        )
        passes = [
            cu_ok & np.logical_and.reduce(pretest_terms(h, eta1, eta2, pu_m, p1_max, p2_max, o))
            for o in SIC_ORDERS
        ]
        fd_sic_best = _fd_sic_table(h, params, limits, pu_m, passes)
        fd_sic_won = (fd_sic_best >= 0.0) & _sic_wins(fd_sic_best, fd_ok, fd_rate)
    fd_sic_ok = fd_ok | fd_sic_won
    fd_sic_rate = np.where(fd_sic_won, fd_sic_best, fd_rate)

    no_sic = np.zeros(h_d.shape, dtype=bool)
    return {
        ScenarioKind.FD_NOSIC: (np.where(fd_ok, fd_rate, 0.0), no_sic, ~fd_ok),
        ScenarioKind.HD_NOSIC: (np.where(hd_ok, hd_nosic_rate, 0.0), no_sic, ~hd_ok),
        ScenarioKind.HD_SIC: (np.where(hd_ok, hd_sic_rate, 0.0), hd_ok & (use1 | use2), ~hd_ok),
        ScenarioKind.FD_SIC: (np.where(fd_sic_ok, fd_sic_rate, 0.0), fd_sic_won, ~fd_sic_ok),
    }
