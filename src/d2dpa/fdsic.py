"""Closed-form solver for the full-duplex mutual-SIC power allocation.

The admissible region is the set of (P1, P2, Pu) points lying above two
"floor" planes (the CU signal must dominate what each device has to remove),
below two "ceiling" planes (each device message must dominate what the BS
decodes it against), and inside the transmit-power box.  All four planes pass
through the origin, and the D2D sum rate depends on (P1, P2) only and grows
along rays from the origin, so the optimum sits on one of the three outer box
sides (P1 = P1max, P2 = P2max, Pu = Pumax).  On each side the admissible set is
empty or a line segment (two on the CU-cap side when the floors cross there)
whose endpoints are plane/edge intersections.  The solver builds the segments
of all three sides, drops the empty ones and keeps the best point.  The best
point of a segment is an endpoint: along a segment the rate has no interior
maximum, since every stationary point is a minimum (see `segment_best`).
The whole solve is a constant number of array operations.

Two decoding orders exist at the BS (strip the second device's message first,
or the first's); they share the floor planes and differ in the ceilings.

`fd_sic_batch` solves many (combination, order) pairs at once with numpy, and
`solve_fd_sic_order` is the same solve on one pair.  The chosen point must
pass an exact check of every constraint.  On a sliver segment the best point
may sit closer to a plane than double precision can certify; it is then
pulled toward the segment's middle in fixed steps, and the next-best segment
is tried when no step passes.  Those steps are checked only for the pairs
whose best point fails.

Each constraint predicate (`floor_planes`, `ceiling_planes`, `pmc_margins`,
`sic_rate_margins`, `pretest`) exists once, in the array form the batch
runs; `sufficient_feasibility` is `pretest` on one combination.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

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
    cu_rate,
    gain_block,
    pu_min,
    sic_sum_rate,
    within_limits,
)

REL_TOL = 1e-9

# Fractions of the way from a segment's best point to its middle, tried in
# order until the point passes the exact check.
PULL_IN = (0.0, 1e-6, 1e-3, 0.1, 1.0)


class Plane(NamedTuple):
    """Height field pu = ax*p1 + ay*p2 (every constraint plane contains the origin)."""

    ax: float
    ay: float

    def height(self, p1: float, p2: float) -> float:
        return self.ax * p1 + self.ay * p2


# ---------------------------------------------------------------------------
# Floor planes


def floor_planes(h, eta1, eta2) -> tuple[Plane, Plane]:
    """The floor planes 2 and 4, shared by both decoding orders.

    ``h`` is a (6, ...) gain block, rows in `model.GAIN_FIELDS` order.
    """
    h_d, _, _, h_d1_u, h_d2_u, _ = h
    return Plane(eta1 / h_d1_u, h_d / h_d1_u), Plane(h_d / h_d2_u, eta2 / h_d2_u)


# ---------------------------------------------------------------------------
# Ceiling planes and the feasibility tests


class SicPlanes(NamedTuple):
    """Ceiling planes (1, 3) and floor planes (2, 4) of one decoding order.

    Pu must stay strictly below both ceilings and strictly above both floors.
    """

    ceil1: Plane
    floor2: Plane
    ceil3: Plane
    floor4: Plane


def ceiling_planes(h, m1_first) -> tuple[Plane, Plane]:
    """The ceiling planes 1 and 3 of each pair's decoding order, ``m1_first``
    True where it is M1_FIRST; ``h`` as in `floor_planes`."""
    r1, r2 = h[1] / h[5], h[2] / h[5]
    return (
        Plane(np.where(m1_first, r1, -r1), np.where(m1_first, -r2, r2)),
        Plane(np.where(m1_first, 0.0, r1), np.where(m1_first, r2, 0.0)),
    )


def pmc_margins(
    planes: SicPlanes, p1: float, p2: float, pu: float
) -> tuple[float, float, float, float]:
    """Signed satisfaction margins of the four power-ordering conditions.

    All four are positive exactly when the point lies strictly between the
    floors and the ceilings.
    """
    return (
        planes.ceil1.height(p1, p2) - pu,
        pu - planes.floor2.height(p1, p2),
        planes.ceil3.height(p1, p2) - pu,
        pu - planes.floor4.height(p1, p2),
    )


def sic_rate_margins(h, e1, e2, m1_first, p1, p2, pu) -> tuple:
    """Signed margins of the noise-free SIC achievability conditions of each
    pair's decoding order, ``m1_first`` True where it is M1_FIRST.

    These are implied by the power-ordering conditions but are evaluated
    independently wherever a solution is validated.  Decoding M1 first is
    decoding M2 first with the two devices' roles swapped, so one formula
    serves both orders.  ``h`` holds the link gains as in `floor_planes` and
    ``e1``, ``e2`` the SI factors; everything broadcasts.
    """
    gains = np.array(h[1:5])
    h_b_d1, h_b_d2, h_d1_u, h_d2_u = np.where(m1_first, gains[[1, 0, 3, 2]], gains)
    e1, e2 = np.where(m1_first, e2, e1), np.where(m1_first, e1, e2)
    p1, p2 = np.where(m1_first, p2, p1), np.where(m1_first, p1, p2)
    h_d, h_b_u = h[0], h[5]
    return (
        p1 * (h_b_d2 * e1 - h_d * h_b_d1) + pu * (h_d1_u * h_b_d2 - h_d * h_b_u),
        p1 * (h_d1_u * h_b_d1 - h_b_u * e1) + p2 * (h_d1_u * h_b_d2 - h_b_u * h_d),
        p2 * h_b_d1 * e2 - pu * (h_b_u * h_d - h_d2_u * h_b_d1),
        p1 * (h_b_d1 * h_d2_u - h_d * h_b_u) - p2 * e2 * h_b_u,
    )


def pretest(h, params: SystemParams, limits: PowerLimits, pu_m, order: DecodingOrder):
    """Exact emptiness test for the admissible region of one decoding order:
    True where it is non-empty.

    Two channel conditions make the plane wedge open upward; two more place
    its lowest box crossing inside the device power limits.  An attainable
    CU floor power ``pu_m`` is required for the box itself to be non-empty.
    ``h`` as in `floor_planes`.
    """
    h_d, h_b_d1, h_b_d2, h_d1_u, h_d2_u, h_b_u = h
    e1, e2 = params.eta1, params.eta2
    p1_max, p2_max = limits.p1_max_w, limits.p2_max_w
    if order is DecodingOrder.M1_FIRST:
        # M2_FIRST with the devices' roles swapped, as in `sic_rate_margins`.
        h_b_d1, h_b_d2, h_d1_u, h_d2_u = h_b_d2, h_b_d1, h_d2_u, h_d1_u
        e1, e2, p1_max, p2_max = e2, e1, p2_max, p1_max
    terms = (
        h_b_d1 * h_d1_u - e1 * h_b_u > 2.0 * h_d * h_b_u * h_b_d1 / h_b_d2,
        h_b_d1 * h_d2_u - h_b_u * h_d > 2.0 * h_b_u * e2 * h_b_d1 / h_b_d2,
        pu_m * h_b_u / h_b_d1 < p1_max,
        2.0 * pu_m * h_b_u / h_b_d2 < p2_max,
    )
    return np.logical_and.reduce((np.logical_not(pu_m > limits.pu_max_w), *terms))


def sufficient_feasibility(
    gains: ChannelGains,
    params: SystemParams,
    limits: PowerLimits,
    pu_m: float,
    order: DecodingOrder,
) -> bool:
    """`pretest` on one combination."""
    return bool(pretest(gain_block(gains)[:, 0], params, limits, pu_m, order))


# ---------------------------------------------------------------------------
# Admissible segments and the solve, over arrays of (entry, order) pairs
#
# Plane coefficients are stacked as (ax or ay, plane, entry) arrays: floors
# 2 and 4, ceilings 1 and 3.  A NaN bound below stands for "no bound": fmax
# and fmin skip it.


def _fmax(*values):
    return functools.reduce(np.fmax, values)


def _none_below(margins, bound):
    return np.logical_not(np.logical_or.reduce([m < bound for m in margins]))


def _point_tests(h, seg: Segments, params: SystemParams, limits: PowerLimits, m1_first, p1, p2, pu):
    """True where a point of a pair of ``seg`` meets every mutual-SIC
    constraint of the pair's order within a relative margin: power ordering,
    SIC rates, power limits and the CU rate floor.  ``h`` holds the link
    gains as in `floor_planes`; arrays end in the pair axis.  A NaN power
    fails the power limits."""
    margins = sic_rate_margins(h, params.eta1, params.eta2, m1_first, p1, p2, pu)
    planes = seg.planes
    scale = _fmax(pu, planes.ceil3.height(p1, p2), planes.floor2.height(p1, p2), 1e-300)
    sic_scale = _fmax(*(abs(m) for m in margins)) + scale * _fmax(h[1], h[2], h[5]) * _fmax(
        p1, p2, pu, 1e-300
    )
    return (
        _none_below(pmc_margins(planes, p1, p2, pu), -REL_TOL * scale)
        & _none_below(margins, -REL_TOL * sic_scale)
        & within_limits(p1, p2, pu, limits, REL_TOL)
        & np.logical_not(pu < seg.pu_m * (1.0 - REL_TOL))
    )


def _device_sides_batch(ceils, floors, pu_m, fixed, pu_max: float) -> tuple:
    """Free-coordinate range of the admissible segment on both device sides.

    Side 0 is P1 = P1max and side 1 is P2 = P2max; ``fixed`` holds
    (P1max, P2max) shaped to broadcast over (side, plane, entry).  Each
    ceiling contributes a lower or an upper bound depending on whether its
    trace rises or falls along the side; the bound is its crossing with the
    higher floor or, lower down, with the box bottom Pu = pu_m.  The floors
    cap the range where they exceed the CU power limit.  Returns (lo, hi,
    error) as (side, entry) arrays, with ``error`` True where the traces
    contradict the pre-test: a ceiling parallel to a floor, a ceiling rising
    above one floor and falling below the other, or a floor that does not
    rise along the side.
    """
    # Each plane's trace along a side: slope along the free coordinate, offset.
    c_slope, c_off = ceils[::-1], ceils * fixed
    f_slope, f_off = floors[::-1], floors * fixed
    d = c_slope[:, :, None] - f_slope[:, None]  # (side, ceiling, floor, entry)
    roots = (f_off[:, None] - c_off[:, :, None]) / d
    rising = d[:, :, 0] > 0.0
    error = ((d == 0.0).any(axis=2) | (rising != (d[:, :, 1] > 0.0))).any(axis=1)
    error |= ~(f_slope > 0.0).all(axis=1)
    bottom = (pu_m - c_off) / c_slope
    lower = np.concatenate([
        np.where(rising, roots.max(axis=2), np.nan), np.where(c_slope > 0.0, bottom, np.nan)
    ], axis=1)
    upper = np.concatenate([
        np.where(rising, np.nan, roots.min(axis=2)),
        np.where(c_slope < 0.0, bottom, np.nan),
        (pu_max - f_off) / f_slope,
    ], axis=1)
    lo = np.fmax(np.fmax.reduce(lower, axis=1), 0.0)
    hi = np.fmin(np.fmin.reduce(upper, axis=1), fixed[::-1, 0])
    # A flat ceiling below the box bottom empties the side.
    empty = ((c_slope == 0.0) & (c_off < pu_m)).any(axis=1)
    return np.where(empty, 1.0, lo), np.where(empty, 0.0, hi), error


def _ridges_on_cap(ceils, floors, pu_max: float) -> tuple:
    """Where each ceiling's ridge with the higher floor pierces the plane
    Pu = pu_max, as (x, y, found) arrays of (ceiling, entry).

    The ridge is solved against each floor branch; the real branch is the
    first whose other floor does not exceed the cap there.
    """
    (c_ax, c_ay), (f_ax, f_ay) = ceils[:, :, None], floors
    det = c_ax * f_ay - c_ay * f_ax  # (ceiling, branch, entry)
    x = pu_max * (f_ay - c_ay) / det
    y = pu_max * (c_ax - f_ax) / det
    hit = (
        (det != 0.0)
        & (f_ax[::-1] * x + f_ay[::-1] * y <= pu_max * (1.0 + REL_TOL))
        & (x > -pu_max)
        & (y > -pu_max)
    )
    first = hit[:, 0]
    return np.where(first, x[:, 0], x[:, 1]), np.where(first, y[:, 0], y[:, 1]), hit.any(axis=1)


def _cap_interval_batch(ceils, floors, limits: PowerLimits) -> tuple:
    """P1 range of the admissible curve (higher floor == CU cap) on the cap
    side: (lo, hi, ok), ``ok`` False where the cap side has no segment.

    A ceiling rising along the cap curve bounds it from below at its ridge,
    a falling one from above; the channel conditions fix the sign per
    ceiling, and the cap side is dropped where they do not.
    """
    pu_max = limits.pu_max_w
    (c_ax, c_ay), (f_ax, f_ay) = ceils[:, :, None], floors
    along = c_ax * f_ay - c_ay * f_ax  # (ceiling, branch, entry)
    x, _, found = _ridges_on_cap(ceils, floors, pu_max)
    rising, falling = (along > 0.0).all(axis=1), (along < 0.0).all(axis=1)
    ok = ~(f_ax <= 0.0).any(axis=0) & (found & (rising | falling)).all(axis=0)
    entry = ((pu_max - f_ay * limits.p2_max_w) / f_ax).min(axis=0)
    lo = np.fmax(np.fmax.reduce(np.where(rising, x, np.nan), axis=0), np.fmax(entry, 0.0))
    hi = np.fmin(np.fmin.reduce(np.where(falling, x, np.nan), axis=0), limits.p1_max_w)
    return lo, hi, ok


class Segments(NamedTuple):
    """The admissible segments of many (entry, order) pairs, as (segment,
    entry) arrays.

    Segments 0 to 3 lie on the P1max side, the P2max side and the two pieces
    of the CU-cap side; the second piece exists only where the floors' kink
    splits the cap curve.  ``lo`` and ``hi`` bound the free power (P2 on the
    P1max side, P1 elsewhere).  ``plane2`` is True where floor plane 2 rather
    than 4 supplies Pu along a cap piece (meaningless on the device sides).
    ``error`` is True for an entry whose device-side traces contradict the
    pre-test.  ``planes`` and ``pu_m`` are the entries' constraint planes
    and CU floor power.
    """

    lo: np.ndarray
    hi: np.ndarray
    has: np.ndarray
    plane2: np.ndarray
    error: np.ndarray
    planes: SicPlanes
    pu_m: np.ndarray


_ON_P1_SIDE = np.array([True, False, False, False])[:, None]
_ON_P2_SIDE = np.array([False, True, False, False])[:, None]
_ON_CAP = np.array([False, False, True, True])[:, None]


def segments(h, params: SystemParams, limits: PowerLimits, pu_m, m1_first) -> Segments:
    """The admissible segments on the outer box sides; arguments as in
    `fd_sic_batch`."""
    f2, f4 = floor_planes(h, params.eta1, params.eta2)
    c1, c3 = ceiling_planes(h, m1_first)
    ceils = np.array([[c1.ax, c3.ax], [c1.ay, c3.ay]])  # (ax or ay, ceiling, entry)
    p1_max, p2_max, pu_max = limits.p1_max_w, limits.p2_max_w, limits.pu_max_w
    tol = REL_TOL * max(p1_max, p2_max)
    stacked = np.array([[f2.ax, f4.ax], [f2.ay, f4.ay]])
    fixed = np.array([p1_max, p2_max])[:, None, None]
    lo_d, hi_d, error = _device_sides_batch(ceils, stacked, pu_m, fixed, pu_max)
    has_d = hi_d - lo_d > -tol
    hi_d = np.maximum(hi_d, lo_d)

    # The CU-cap side, split into two pieces at the floors' kink.
    lo_c, hi_c, has_cap = _cap_interval_batch(ceils, stacked, limits)
    has_cap &= hi_c - lo_c > -tol
    hi_c = np.maximum(hi_c, lo_c)
    det = f2.ax * f4.ay - f2.ay * f4.ax
    kink = pu_max * (f4.ay - f2.ay) / det
    split = (
        has_cap
        & ~(pu_max * (f2.ax - f4.ax) / det <= 0.0)
        & (lo_c + tol < kink)
        & (kink < hi_c - tol)
    )
    lo = np.array([lo_d[0], lo_d[1], lo_c, kink])
    hi = np.array([hi_d[0], hi_d[1], np.where(split, kink, hi_c), hi_c])
    # The floor with the lower cap curve at a piece's middle supplies it.
    mid = 0.5 * (lo + hi)
    plane2 = (pu_max - f2.ax * mid) / f2.ay <= (pu_max - f4.ax * mid) / f4.ay
    has = np.array([has_d[0], has_d[1], has_cap, split])
    return Segments(lo, hi, has, plane2, error.any(axis=0), SicPlanes(c1, f2, c3, f4), pu_m)


def _device_powers(seg: Segments, t, limits: PowerLimits) -> tuple:
    """(p1, p2) at free coordinate ``t`` of each segment, ``t`` shaped
    (..., segment, entry); on a cap piece P2 follows the piece's floor."""
    f2, f4 = seg.planes.floor2, seg.planes.floor4
    free = np.maximum(t, 0.0)
    f_ax, f_ay = np.where(seg.plane2, f2.ax, f4.ax), np.where(seg.plane2, f2.ay, f4.ay)
    cap_p2 = np.maximum((limits.pu_max_w - f_ax * t) / f_ay, 0.0)
    p1 = np.where(_ON_P1_SIDE, limits.p1_max_w, free)
    p2 = np.where(_ON_P1_SIDE, free, np.where(_ON_P2_SIDE, limits.p2_max_w, cap_p2))
    return p1, p2


def side_points(seg: Segments, t, limits: PowerLimits) -> tuple:
    """(p1, p2, pu) at free coordinate ``t`` of each segment, ``t`` shaped
    (..., segment, entry).  On a cap piece Pu is the cap; on a device side
    it is the higher floor, or the CU floor power where that is higher
    still."""
    p1, p2 = _device_powers(seg, t, limits)
    f2, f4 = seg.planes.floor2, seg.planes.floor4
    floor = np.maximum(np.maximum(f2.height(p1, p2), f4.height(p1, p2)), seg.pu_m)
    return p1, p2, np.where(_ON_CAP, limits.pu_max_w, floor)


def segment_best(seg: Segments, h, params: SystemParams, limits: PowerLimits) -> tuple:
    """Each segment's best point as (t, p1, p2, rate) arrays of (segment,
    entry), rate -inf on an empty segment.

    Along a device side the rate derivative carries the sign of a quadratic
    whose negative lobe is a single interval, so an end always wins.  Along
    a cap piece on floor 2 the log-rate in x = P1 is log(K0 + a x) -
    log(K0 - b x) - log(s + eta1 x) + const with b > 0; where its slope is
    0, its curvature is 2uv > 0 (u, v the slopes' sizes of the last two
    terms), so every stationary point is a minimum.  Floor 4 is the mirror
    case, and where P2 is clamped at 0 the rate rises.  So an end wins
    there too; of equal rates the lower end.
    """
    ts = np.array([seg.lo, seg.hi])  # (candidate, segment, entry)
    p1, p2 = _device_powers(seg, ts, limits)
    rates = np.where(seg.has, sic_sum_rate(p1, p2, h[0], params), -np.inf)
    pick = (rates.argmax(axis=0), np.arange(4)[:, None], np.arange(ts.shape[-1]))
    return ts[pick], p1[pick], p2[pick], rates[pick]


def _pair_subset(x, idx):
    """`Segments` (or any tuple tree of arrays ending in the pair axis) of
    the pairs ``idx`` only."""
    return type(x)(*(_pair_subset(v, idx) for v in x)) if isinstance(x, tuple) else x[..., idx]


def fd_sic_batch(h, params: SystemParams, limits: PowerLimits, pu_m, m1_first) -> tuple:
    """The optimal FD mutual-SIC allocation of many (entry, decoding order)
    pairs that pass `pretest`.

    ``h`` is a (6, n) gain block, rows in `model.GAIN_FIELDS` order, ``pu_m`` the
    pairs' CU floor powers and ``m1_first`` True where the order is
    M1_FIRST.  Returns (p1, p2, pu, rate), with (0, 0, 0, -inf) where the
    pair has no certified point.

    The segments' best points (`segment_best`) are ranked by rate, and for
    each in turn the points `PULL_IN` of the way to its segment's middle are
    checked: the first that passes `_point_tests` is the answer.  The CU
    takes the lowest admissible power for the chosen device powers.  The
    first point in that order, the best segment's best point, is checked
    for every pair; only the pairs where it fails go through the rest.  The
    rate is `sic_sum_rate` at the chosen powers.
    """
    p1_max, p2_max, pu_max = limits.p1_max_w, limits.p2_max_w, limits.pu_max_w
    caps = (p1_max, p2_max, pu_max)
    tol = REL_TOL * max(p1_max, p2_max)
    n = len(m1_first)
    seg = segments(h, params, limits, pu_m, m1_first)
    t, p1s, p2s, rates = segment_best(seg, h, params, limits)

    # Drop a segment whose best point lies within tol of a kept earlier one's,
    # then rank the rest by rate, ties to the earlier segment.
    close = (np.abs(p1s[:, None] - p1s) <= tol) & (np.abs(p2s[:, None] - p2s) <= tol)
    kept = seg.has.copy()
    for j in range(1, 4):
        kept[j] &= ~(kept[:j] & close[j, :j]).any(axis=0)
    ranked = np.where(kept, rates, -np.inf)

    # Each pair's best point, placed as `side_points` places it.
    ent = np.arange(n)
    best = ranked.argmax(axis=0)
    p1, p2 = p1s[best, ent], p2s[best, ent]
    f2, f4 = seg.planes.floor2, seg.planes.floor4
    floor = np.maximum(np.maximum(f2.height(p1, p2), f4.height(p1, p2)), pu_m)
    pu = np.where(best >= 2, pu_max, floor)
    p1, p2, pu = (np.minimum(x, cap) for x, cap in zip((p1, p2, pu), caps))
    ok = _point_tests(h, seg, params, limits, m1_first, p1, p2, pu) & kept[best, ent]

    # The rest: every pull-in step of every segment, as (step, segment,
    # pair), tried segments in rank order and steps within each.
    redo = np.flatnonzero(~ok & ~seg.error)
    if redo.size:
        sub, m = _pair_subset(seg, redo), len(redo)
        t_sub = t[:, redo]
        steps = np.array(PULL_IN)[:, None, None]
        points = [
            np.minimum(x, cap) for x, cap in zip(
                side_points(sub, t_sub + (0.5 * (sub.lo + sub.hi) - t_sub) * steps, limits), caps
            )
        ]
        passed = _point_tests(h[:, redo], sub, params, limits, m1_first[redo], *points) & kept[:, redo]
        rank = np.argsort(-ranked[:, redo], axis=0, kind="stable")
        sub_ent = np.arange(m)
        tried = passed[:, rank, sub_ent].transpose(1, 0, 2).reshape(-1, m)
        first = tried.argmax(axis=0)
        at = (first % len(PULL_IN), rank[first // len(PULL_IN), sub_ent], sub_ent)
        for full, x in zip((p1, p2, pu), points):
            full[redo] = x[at]
        ok[redo] = tried.any(axis=0)
    ok &= ~seg.error
    p1, p2, pu = (np.where(ok, x, 0.0) for x in (p1, p2, pu))
    rate = np.where(ok, sic_sum_rate(p1, p2, h[0], params), -np.inf)
    return p1, p2, pu, rate


def solve_fd_sic_order(
    gains: ChannelGains,
    params: SystemParams,
    limits: PowerLimits,
    order: DecodingOrder,
) -> PaSolution | None:
    """Optimal FD mutual-SIC allocation for one decoding order, or None when
    the admissible region is empty or no point of it can be certified:
    `fd_sic_batch` on one pair."""
    pu_m = pu_min(params, gains.h_b_u)
    if not sufficient_feasibility(gains, params, limits, pu_m, order):
        return None
    h = gain_block(gains)
    m1_first = np.array([order is DecodingOrder.M1_FIRST])
    with np.errstate(all="ignore"):
        p1, p2, pu, rate = fd_sic_batch(h, params, limits, np.array([pu_m]), m1_first)
        r_u = cu_rate(p1[0], p2[0], pu[0], h[:, 0], params, sic=True)
    if rate[0] == -np.inf:
        return None
    return PaSolution(
        scenario=Scenario(ScenarioKind.FD_SIC, order=order),
        powers=PowerTriplet(float(p1[0]), float(p2[0]), float(pu[0])),
        r_d2d_bps=float(rate[0]),
        r_u_bps=float(r_u),
        sic_applied=True,
    )
