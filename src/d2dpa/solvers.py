"""Power-allocation solvers for the four transmission schemes.

Each scheme gets the best achievable D2D rate of a D2D-CU combination.  The
SIC schemes compare against their no-SIC counterpart and keep the better
allocation, so a SIC scheme never reports a lower rate than the plain one;
``sic_applied`` records whether interference cancellation actually won.  A
combination where even the CU alone cannot meet its rate floor is reported
infeasible with zero rate.

`solve_all_batch` solves all four schemes for a whole D x K table with
numpy: the half-duplex slots in closed form, FD no-SIC with
`fdnosic.fd_nosic_batch`, and FD-SIC with one `fdsic.fd_sic_batch` call on
both decoding orders of every entry that passes `fdsic.pretest`.  Both FD
kernels return (0, 0, 0, -inf) where an entry is infeasible.
`solve_all` is the same solve on a one-entry table, returned as
`PaSolution`s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fdnosic import fd_nosic_batch
from .fdsic import fd_sic_batch, pretest
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
    pu_min,
    rate_floor_snr,
    scenario_rates,
)

SIC_ORDERS = (DecodingOrder.M2_FIRST, DecodingOrder.M1_FIRST)


@dataclass(frozen=True)
class SchemeTable:
    """One scheme solved over a table.

    ``powers`` is (p1, p2, pu) for the FD schemes and the (p1, p2, pu)
    triplets of the two half slots for the HD ones, each an array or a zero
    that broadcasts to the table.  ``m1_first`` (FD-SIC) is True where SIC
    won with M1 decoded first; ``slot_sic`` (HD-SIC) holds each half slot's
    SIC flag.  Infeasible entries carry zero rate and no SIC, and their
    powers have no meaning.
    """

    rate: np.ndarray
    sic_applied: np.ndarray
    infeasible: np.ndarray
    powers: tuple
    m1_first: np.ndarray | None = None
    slot_sic: tuple[np.ndarray, np.ndarray] | None = None


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
class _SlotBatch:
    """A half slot over a table; ``ok`` is False where the slot is infeasible."""

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
    """Closed-form half-slot optimum without SIC.

    The device transmits as loud as the CU power budget allows while the CU
    rate floor is met with equality; the slot is infeasible where even a
    silent device cannot protect the CU.
    """
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
    """Half-slot optimum with mutual SIC; ``ok`` is False where SIC is not
    available.

    The CU-to-device power ratio must sit strictly inside (ratio_lo,
    ratio_hi); the device power is pushed as high as that band and the CU
    power cap allow, and the CU then transmits at the lowest admissible
    power.
    """
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


def _fd_sic_table(h, params: SystemParams, limits: PowerLimits, pu_m, passes) -> tuple:
    """The better mutual-SIC allocation of every table entry over both
    decoding orders, as (p1, p2, pu, rate, m1_first, solved): rate is -inf
    where no order is feasible, and ``solved`` holds the (p1, p2, pu, rate)
    rows of the solved (entry, order) pairs.

    ``h`` holds the six link gains as in `solve_all_batch` and ``passes``
    each order's pre-test mask.  Both orders of every passing entry go
    through one `fd_sic_batch` call, on one gather from ``h``; the first
    order wins unless the second is strictly better.
    """
    h = np.asarray(h)
    order, *idx = np.nonzero(passes)
    idx = tuple(idx)
    by_order = np.zeros((4, 2) + pu_m.shape)  # (p1, p2, pu, rate) per order
    by_order[3] = -np.inf
    solved = np.zeros((4, 0))
    if order.size:
        gains = h[(slice(None), *idx)]
        solved = np.array(fd_sic_batch(gains, params, limits, pu_m[idx], order == 1))
        by_order[(slice(None), order, *idx)] = solved
    second = by_order[3, 1] > by_order[3, 0]
    return (*np.where(second, by_order[:, 1], by_order[:, 0]), second, solved)


def solve_all_batch(
    h: np.ndarray, params: SystemParams, limits: PowerLimits
) -> dict[ScenarioKind, SchemeTable]:
    """All four schemes for every combination of a table at once.

    ``h`` is one (6, ...) array: the six link gains in `ChannelGains` field
    order, each over the whole table.  Rates are computed from the chosen
    powers with the `scenario_rates` formulas, and the chosen powers pass
    `PowerTriplet`'s check.
    """
    h_d, h_b_d1, h_b_d2, h_d1_u, h_d2_u, h_b_u = h
    s, bw, eta1, eta2 = params.noise_w, params.bandwidth_hz, params.eta1, params.eta2
    p1_max, p2_max, pu_max = limits.p1_max_w, limits.p2_max_w, limits.pu_max_w
    with np.errstate(all="ignore"):
        pu_m = pu_min(params, h_b_u)
        cu_ok = ~(pu_m > pu_max)

        # HD: slot 1 carries device 1 to device 2, slot 2 the reverse.  Each
        # half slot keeps SIC where it is available and at least as good.
        nosic1 = _hd_nosic_slot_batch(p1_max, h_b_d1, h_d2_u, h_d, h_b_u, params, limits)
        nosic2 = _hd_nosic_slot_batch(p2_max, h_b_d2, h_d1_u, h_d, h_b_u, params, limits)
        hd_ok = nosic1.ok & nosic2.ok & cu_ok
        sic1 = _hd_sic_slot_batch(p1_max, h_d / h_d2_u, h_b_d1 / h_b_u, pu_m, h_d, params, limits)
        sic2 = _hd_sic_slot_batch(p2_max, h_d / h_d1_u, h_b_d2 / h_b_u, pu_m, h_d, params, limits)
        use1 = hd_ok & sic1.ok & (sic1.r_dev >= nosic1.r_dev)
        use2 = hd_ok & sic2.ok & (sic2.r_dev >= nosic2.r_dev)
        slot1, slot2 = _choose(use1, sic1, nosic1), _choose(use2, sic2, nosic2)

        p1, p2, pu, fd_search_rate = fd_nosic_batch(h, params, limits)
        fd_ok = fd_search_rate >= 0.0
        pu = np.minimum(pu, pu_max)
        fd_rate = bw * np.log2(1.0 + p2 * h_d / (pu * h_d1_u + eta1 * p1 + s)) + bw * np.log2(
            1.0 + p1 * h_d / (pu * h_d2_u + eta2 * p2 + s)
        )
        passes = np.array([pretest(h, params, limits, pu_m, o) for o in SIC_ORDERS])
        *sic_powers, sic_rate, m1_first, solved = _fd_sic_table(h, params, limits, pu_m, passes)
        # SIC wins where it is feasible and the no-SIC allocation is not, or
        # is no better.
        fd_sic_won = (sic_rate >= 0.0) & (~fd_ok | (sic_rate >= fd_rate))
    fd_sic_ok = fd_ok | fd_sic_won
    fd_powers = (p1, p2, pu)

    # `_check_powers` on every returned allocation as one test; only when it
    # fails do the per-field checks run, in turn, to raise the first failure.
    hd_slots = (nosic1, nosic2, slot1, slot2)
    checked = np.concatenate([
        np.array([x for slot in hd_slots for x in (slot.p_dev, slot.pu)])[:, hd_ok],
        np.array(fd_powers)[:, fd_ok],
        solved[:3, solved[3] >= 0.0],
    ], axis=None)
    if not (checked.min(initial=0.0) >= 0.0 and checked.max(initial=0.0) < np.inf):
        for first, second in (hd_slots[:2], hd_slots[2:]):
            _check_powers(hd_ok, first.p_dev, 0.0, first.pu)
            _check_powers(hd_ok, 0.0, second.p_dev, second.pu)
        _check_powers(fd_ok, *fd_powers)
        _check_powers(solved[3] >= 0.0, *solved[:3])

    def half_slots(first: _SlotBatch, second: _SlotBatch) -> tuple:
        return (first.p_dev, 0.0, first.pu), (0.0, second.p_dev, second.pu)

    no_sic = np.zeros(h_d.shape, dtype=bool)
    # scenario_rates: each half slot carries weight 1/2.
    hd_nosic_rate = 0.5 * nosic2.r_dev + 0.5 * nosic1.r_dev
    hd_sic_rate = 0.5 * slot2.r_dev + 0.5 * slot1.r_dev
    return {
        ScenarioKind.FD_NOSIC: SchemeTable(
            np.where(fd_ok, fd_rate, 0.0), no_sic, ~fd_ok, fd_powers
        ),
        ScenarioKind.HD_NOSIC: SchemeTable(
            np.where(hd_ok, hd_nosic_rate, 0.0), no_sic, ~hd_ok, half_slots(nosic1, nosic2)
        ),
        ScenarioKind.HD_SIC: SchemeTable(
            np.where(hd_ok, hd_sic_rate, 0.0), use1 | use2, ~hd_ok, half_slots(slot1, slot2),
            slot_sic=(use1, use2),
        ),
        ScenarioKind.FD_SIC: SchemeTable(
            np.where(fd_sic_ok, np.where(fd_sic_won, sic_rate, fd_rate), 0.0), fd_sic_won,
            ~fd_sic_ok, tuple(np.where(fd_sic_won, a, b) for a, b in zip(sic_powers, fd_powers)),
            m1_first=fd_sic_won & m1_first,
        ),
    }


def _triplet(powers: tuple) -> PowerTriplet:
    """The triplet of a one-entry table's (p1, p2, pu)."""
    return PowerTriplet(*(float(np.ravel(p)[0]) for p in powers))


def solve_all(
    gains: ChannelGains, params: SystemParams, limits: PowerLimits
) -> dict[ScenarioKind, PaSolution]:
    """All four schemes for one combination: `solve_all_batch` on a one-entry
    table."""
    h = np.array([[gains.h_d], [gains.h_b_d1], [gains.h_b_d2], [gains.h_d1_u], [gains.h_d2_u],
                  [gains.h_b_u]])
    solutions = {}
    for kind, t in solve_all_batch(h, params, limits).items():
        if t.infeasible[0]:
            solutions[kind] = _infeasible(kind)
            continue
        if kind is ScenarioKind.HD_SIC:
            scenario = Scenario(kind, slot_sic=(bool(t.slot_sic[0][0]), bool(t.slot_sic[1][0])))
        elif kind is ScenarioKind.FD_SIC and t.sic_applied[0]:
            scenario = Scenario(kind, order=SIC_ORDERS[int(t.m1_first[0])])
        else:
            scenario = Scenario(kind)
        if kind in (ScenarioKind.HD_NOSIC, ScenarioKind.HD_SIC):
            powers = tuple(_triplet(slot) for slot in t.powers)
        else:
            powers = _triplet(t.powers)
        r_u = scenario_rates(scenario, powers, gains, params)[0]
        solutions[kind] = PaSolution(
            scenario, powers, float(t.rate[0]), r_u, sic_applied=bool(t.sic_applied[0])
        )
    return solutions
