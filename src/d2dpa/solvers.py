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
both decoding orders of every entry that passes `fdsic.pretest`.  One
device-swap stack of the gains (`model.device_swap_stack`) serves both HD
half slots and both pre-test orders.  Both FD kernels return (0, 0, 0,
-inf) where an entry is infeasible.  It checks what it is given and what it
returns: gains finite and > 0, and every returned power and rate finite and
>= 0, so its rate tables go to the assignment as they are.

This module is the one place where kernel arrays become the object model
(`ChannelGains` in, `PaSolution` out); `fdsic` and `fdnosic` hold array
code only.  `solve_all` is the same solve on a one-entry table, and
`solve_fd_sic_order` is its FD-SIC step (`_fd_sic_table`) on a one-entry
table whose other decoding order fails the pre-test; both build every
`PaSolution` in `_solution`.  `sufficient_feasibility` is `fdsic.pretest`
on one combination and one order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fdnosic import fd_nosic_batch
from .fdsic import fd_sic_batch, pretest
from .model import (
    GAIN_FIELDS,
    ChannelGains,
    DecodingOrder,
    PaSolution,
    PowerLimits,
    PowerTriplet,
    Scenario,
    ScenarioKind,
    SystemParams,
    check_array,
    device_rate,
    device_swap_stack,
    gain_block,
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


@dataclass(frozen=True)
class _SlotBatch:
    """A half slot over a table; ``ok`` is False where the slot is infeasible."""

    p_dev: np.ndarray
    pu: np.ndarray
    r_dev: np.ndarray
    ok: np.ndarray


def _hd_nosic_slot_batch(
    p_dev_max, h: np.ndarray, params: SystemParams, limits: PowerLimits
) -> _SlotBatch:
    """Closed-form optimum without SIC of half slot 1 (device 1 to device 2)
    on the (6, ...) gain block ``h``, under device power cap ``p_dev_max``.

    The device transmits as loud as the CU power budget allows while the CU
    rate floor is met with equality; the slot is infeasible where even a
    silent device cannot protect the CU.  With no rate floor (q = 0) the CU
    needs no power, so the device takes its cap and the CU stays silent.
    The receiving device is silent in its slot, so its self-interference
    factor multiplies 0 W, and on the device-swapped block this is slot 2.
    """
    h_d, h_b_dev, _, _, h_rx_u, h_b_u = h
    q = rate_floor_snr(params)
    s = params.noise_w
    pu_needed = q * (p_dev_max * h_b_dev + s) / h_b_u
    fits = pu_needed <= limits.pu_max_w
    p_dev = np.where(fits, p_dev_max, (limits.pu_max_w * h_b_u / q - s) / h_b_dev)
    pu = np.where(fits, pu_needed, limits.pu_max_w)
    ok = fits | ~(p_dev < 0.0)
    r_dev = device_rate(p_dev, 0.0, pu, h_d, h_rx_u, params.eta2, params, sic=False)
    return _SlotBatch(p_dev, pu, r_dev, ok)


def _hd_sic_slot_batch(
    p_dev_max, h: np.ndarray, pu_m: np.ndarray, params: SystemParams, limits: PowerLimits
) -> _SlotBatch:
    """Optimum with mutual SIC of half slot 1, arguments as in
    `_hd_nosic_slot_batch` and ``pu_m`` the CU floor power; ``ok`` is False
    where SIC is not available.

    The CU-to-device power ratio must sit strictly inside (ratio_lo,
    ratio_hi); the device power is pushed as high as that band and the CU
    power cap allow, and the CU then transmits at the lowest admissible
    power.
    """
    h_d, h_b_dev, _, _, h_rx_u, h_b_u = h
    ratio_lo, ratio_hi = h_d / h_rx_u, h_b_dev / h_b_u
    pu_max = limits.pu_max_w
    ok = (ratio_lo < ratio_hi) & ~(pu_m > pu_max) & ~(p_dev_max * ratio_hi <= pu_m)
    lo_p = ratio_lo * p_dev_max
    below = lo_p < pu_m
    above = ~below & (lo_p > pu_max)
    p_dev = np.where(above, pu_max / ratio_lo, p_dev_max)
    pu = np.where(below, pu_m, np.where(above, pu_max, np.maximum(lo_p, pu_m)))
    r_dev = device_rate(p_dev, 0.0, pu, h_d, h_rx_u, params.eta2, params, sic=True)
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
    size = pu_m.size
    pairs = np.asarray(passes).reshape(-1).nonzero()[0]  # into the flattened (order, entry) axes
    entry = pairs % size
    by_order = np.zeros((4, 2 * size))  # (p1, p2, pu, rate) per order
    by_order[3] = -np.inf
    solved = np.zeros((4, 0))
    if pairs.size:
        gains = h.reshape(6, size).take(entry, axis=1)
        solved = np.asarray(fd_sic_batch(gains, params, limits, pu_m.take(entry), pairs >= size))
        by_order[:, pairs] = solved
    by_order = by_order.reshape((4, 2) + pu_m.shape)
    second = by_order[3, 1] > by_order[3, 0]
    return (*np.where(second, by_order[:, 1], by_order[:, 0]), second, solved)


def solve_all_batch(
    h: np.ndarray, params: SystemParams, limits: PowerLimits
) -> dict[ScenarioKind, SchemeTable]:
    """All four schemes for every combination of a table at once.

    ``h`` is the table's (6, ...) gain block, rows in `model.GAIN_FIELDS`
    order.  Every gain must be finite and > 0, as in `ChannelGains`; the
    first bad one raises ValueError naming its field.  Every rate is
    `model.cu_rate` or `model.device_rate` at the chosen powers, as in
    `scenario_rates` (FD-SIC's is `model.sic_sum_rate`, which equals their
    sum up to rounding).  The chosen powers pass `PowerTriplet`'s check and
    every returned rate is finite and >= 0: else ValueError, with
    `PowerTriplet`'s message or one that starts "<scheme>: D2D rate
    <value>".  Infeasible entries carry rate 0.  HD half slot 2 is half
    slot 1 on the gains with the devices swapped, and FD-SIC's M1_FIRST
    order is M2_FIRST on them, so each slot kernel and `fdsic.pretest` run
    once on the gains' `model.device_swap_stack`.
    """
    # One test over every gain; the per-field check runs only to name the
    # first bad one.
    if not (h.min(initial=np.inf) > 0.0 and h.max(initial=0.0) < np.inf):
        for name, row in zip(GAIN_FIELDS, h):
            check_array(name, row, strict=True)
    h_d, h_b_u = h[0], h[5]
    p1_max, p2_max, pu_max = limits.p1_max_w, limits.p2_max_w, limits.pu_max_w
    with np.errstate(all="ignore"):
        pu_m = pu_min(params, h_b_u)
        cu_ok = ~(pu_m > pu_max)

        # HD: slot 1 carries device 1 to device 2, slot 2 the reverse.  Each
        # half slot keeps SIC where it is available and at least as good.
        slots_h = device_swap_stack(h)
        caps = np.array([p1_max, p2_max]).reshape((2,) + (1,) * h_d.ndim)
        nosic = _hd_nosic_slot_batch(caps, slots_h, params, limits)
        hd_ok = nosic.ok[0] & nosic.ok[1] & cu_ok
        sic = _hd_sic_slot_batch(caps, slots_h, pu_m, params, limits)
        use = hd_ok & sic.ok & (sic.r_dev >= nosic.r_dev)
        slot = _choose(use, sic, nosic)

        p1, p2, pu, fd_search_rate = fd_nosic_batch(h, params, limits)
        fd_ok = fd_search_rate >= 0.0
        pu = np.minimum(pu, pu_max)
        # Each device's rate at its partner, device 1 receiving first, over
        # the device-swap stack.
        p_tx = np.array([p2, p1])
        etas = np.array([params.eta1, params.eta2]).reshape(caps.shape)
        rates = device_rate(p_tx, p_tx[::-1], pu, h_d, slots_h[3], etas, params, sic=False)
        fd_rate = rates[0] + rates[1]
        passes = pretest(slots_h, params, limits, pu_m)
        *sic_powers, sic_rate, m1_first, solved = _fd_sic_table(h, params, limits, pu_m, passes)
        # SIC wins where it is feasible and the no-SIC allocation is not, or
        # is no better.
        fd_sic_won = (sic_rate >= 0.0) & (~fd_ok | (sic_rate >= fd_rate))
    fd_sic_ok = fd_ok | fd_sic_won
    fd_powers = (p1, p2, pu)
    # scenario_rates: each half slot carries weight 1/2.
    rates = {
        ScenarioKind.FD_NOSIC: np.where(fd_ok, fd_rate, 0.0),
        ScenarioKind.HD_NOSIC: np.where(hd_ok, 0.5 * nosic.r_dev[1] + 0.5 * nosic.r_dev[0], 0.0),
        ScenarioKind.HD_SIC: np.where(hd_ok, 0.5 * slot.r_dev[1] + 0.5 * slot.r_dev[0], 0.0),
        ScenarioKind.FD_SIC: np.where(fd_sic_ok, np.where(fd_sic_won, sic_rate, fd_rate), 0.0),
    }

    # `_check_powers` on every returned allocation, and the "finite and >= 0"
    # check on every returned rate, as one test; only when it fails do the
    # per-field checks run, in turn, to raise the first failure.
    hd_slots = (nosic, slot)
    checked = np.concatenate([
        np.array([x for s in hd_slots for x in (s.p_dev, s.pu)])[..., hd_ok],
        np.array(fd_powers)[:, fd_ok],
        solved[:3, solved[3] >= 0.0],
        *rates.values(),
    ], axis=None)
    if not (checked.min(initial=0.0) >= 0.0 and checked.max(initial=0.0) < np.inf):
        for s in hd_slots:
            _check_powers(hd_ok, s.p_dev[0], 0.0, s.pu[0])
            _check_powers(hd_ok, 0.0, s.p_dev[1], s.pu[1])
        _check_powers(fd_ok, *fd_powers)
        _check_powers(solved[3] >= 0.0, *solved[:3])
        for kind, rate in rates.items():
            bad = ~((rate >= 0.0) & (rate < np.inf))
            if bad.any():
                raise ValueError(
                    f"{kind.value}: D2D rate {float(rate[bad][0])!r} must be finite and >= 0"
                )

    def half_slots(s: _SlotBatch) -> tuple:
        return (s.p_dev[0], 0.0, s.pu[0]), (0.0, s.p_dev[1], s.pu[1])

    no_sic = np.zeros(h_d.shape, dtype=bool)
    return {
        ScenarioKind.FD_NOSIC: SchemeTable(rates[ScenarioKind.FD_NOSIC], no_sic, ~fd_ok, fd_powers),
        ScenarioKind.HD_NOSIC: SchemeTable(
            rates[ScenarioKind.HD_NOSIC], no_sic, ~hd_ok, half_slots(nosic)
        ),
        ScenarioKind.HD_SIC: SchemeTable(
            rates[ScenarioKind.HD_SIC], use[0] | use[1], ~hd_ok, half_slots(slot),
            slot_sic=(use[0], use[1]),
        ),
        ScenarioKind.FD_SIC: SchemeTable(
            rates[ScenarioKind.FD_SIC], fd_sic_won, ~fd_sic_ok,
            tuple(np.where(fd_sic_won, a, b) for a, b in zip(sic_powers, fd_powers)),
            m1_first=fd_sic_won & m1_first,
        ),
    }


def _solution(
    kind: ScenarioKind, t: SchemeTable, gains: ChannelGains, params: SystemParams
) -> PaSolution:
    """The one entry of ``t``, a one-entry table of scheme ``kind``, as a
    `PaSolution` with the CU rate from `scenario_rates`.  An infeasible entry
    gets zero powers; the table already holds its rate 0 and its SIC flags
    False.  A CU rate that is not finite raises ValueError, naming the
    scheme."""
    feasible = not t.infeasible[0]

    def triplet(powers: tuple) -> PowerTriplet:
        return PowerTriplet(*(float(np.ravel(p)[0]) if feasible else 0.0 for p in powers))

    if kind is ScenarioKind.HD_SIC:
        scenario = Scenario(kind, slot_sic=(bool(t.slot_sic[0][0]), bool(t.slot_sic[1][0])))
    elif kind is ScenarioKind.FD_SIC and t.sic_applied[0]:
        scenario = Scenario(kind, order=SIC_ORDERS[int(t.m1_first[0])])
    else:
        scenario = Scenario(kind)
    if kind in (ScenarioKind.HD_NOSIC, ScenarioKind.HD_SIC):
        powers = tuple(triplet(slot) for slot in t.powers)
    else:
        powers = triplet(t.powers)
    r_u = scenario_rates(scenario, powers, gains, params)[0]
    if not math.isfinite(r_u):
        raise ValueError(f"{kind.value}: CU rate {r_u!r} must be finite")
    return PaSolution(
        scenario, powers, float(t.rate[0]), r_u,
        sic_applied=bool(t.sic_applied[0]), feasible=feasible,
    )


def solve_all(
    gains: ChannelGains, params: SystemParams, limits: PowerLimits
) -> dict[ScenarioKind, PaSolution]:
    """All four schemes for one combination: `solve_all_batch` on a one-entry
    table.  A feasible solution whose D2D rate (checked there) or CU rate
    overflows raises ValueError, naming the scheme."""
    with np.errstate(all="ignore"):
        tables = solve_all_batch(gain_block(gains), params, limits)
    return {kind: _solution(kind, t, gains, params) for kind, t in tables.items()}


def sufficient_feasibility(
    gains: ChannelGains,
    params: SystemParams,
    limits: PowerLimits,
    pu_m: float,
    order: DecodingOrder,
) -> bool:
    """`pretest` on one combination, for one decoding order."""
    hs = device_swap_stack(gain_block(gains)[:, 0])
    return bool(pretest(hs, params, limits, pu_m)[int(order is DecodingOrder.M1_FIRST)])


def solve_fd_sic_order(
    gains: ChannelGains,
    params: SystemParams,
    limits: PowerLimits,
    order: DecodingOrder,
) -> PaSolution | None:
    """Optimal FD mutual-SIC allocation for one decoding order, or None when
    the admissible region is empty or no point of it can be certified:
    `_fd_sic_table` on a one-entry table whose other order fails the
    pre-test."""
    h = gain_block(gains)
    with np.errstate(all="ignore"):
        pu_m = pu_min(params, h[5])
        passes = pretest(device_swap_stack(h), params, limits, pu_m)
        passes[[o is not order for o in SIC_ORDERS]] = False
        *powers, rate, m1_first, _ = _fd_sic_table(h, params, limits, pu_m, passes)
    if rate[0] == -np.inf:
        return None
    solved = np.ones(1, dtype=bool)
    table = SchemeTable(rate, solved, ~solved, tuple(powers), m1_first=m1_first)
    return _solution(ScenarioKind.FD_SIC, table, gains, params)
