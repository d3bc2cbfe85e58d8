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
of all three sides, drops the empty ones and keeps the best point; the best
point of a segment is an endpoint, or the root of a known quadratic on the
CU-cap side.  The whole solve is a constant number of scalar operations.

Two decoding orders exist at the BS (strip the second device's message first,
or the first's); they share the floor planes and differ in the ceilings.

`fd_sic_batch` runs the same procedure with numpy on many (combination,
order) pairs at once; `solve_fd_sic_order` stays the reference and decides
the rare pairs whose best candidate must be pulled inward or whose geometry
raises GeometryError.  The plane, margin and rate formulas and the
validation tests are written once and serve both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

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
    fd_sic_d2d_rate,
    pu_min,
    shannon_rate,
    sic_sum_rate,
    within_limits,
)

REL_TOL = 1e-9


class GeometryError(RuntimeError):
    """Computed intersections contradict the feasibility pre-tests."""


@dataclass(frozen=True)
class Plane:
    """Height field pu = ax*p1 + ay*p2 (every constraint plane contains the origin)."""

    ax: float
    ay: float

    def height(self, p1: float, p2: float) -> float:
        return self.ax * p1 + self.ay * p2


# ---------------------------------------------------------------------------
# Floor planes


class FloorPlane(Enum):
    PLANE2 = 2
    PLANE4 = 4


@dataclass(frozen=True)
class FloorSelector:
    """Pointwise-dominant floor: the higher of the two floor planes."""

    floor2: Plane
    floor4: Plane

    def plane(self, which: FloorPlane) -> Plane:
        return self.floor2 if which is FloorPlane.PLANE2 else self.floor4

    def height(self, p1: float, p2: float) -> float:
        return max(self.floor2.height(p1, p2), self.floor4.height(p1, p2))


def _gain_tuple(g: ChannelGains) -> tuple[float, ...]:
    return (g.h_d, g.h_b_d1, g.h_b_d2, g.h_d1_u, g.h_d2_u, g.h_b_u)


def floor_planes(h, eta1, eta2) -> tuple[Plane, Plane]:
    """The floor planes 2 and 4, shared by both decoding orders.

    ``h`` holds the six link gains in `ChannelGains` field order, as floats or
    as numpy arrays that broadcast; the arithmetic is the same either way.
    """
    h_d, _, _, h_d1_u, h_d2_u, _ = h
    return Plane(eta1 / h_d1_u, h_d / h_d1_u), Plane(h_d / h_d2_u, eta2 / h_d2_u)


def floor_selector(gains: ChannelGains, params: SystemParams) -> FloorSelector:
    return FloorSelector(*floor_planes(_gain_tuple(gains), params.eta1, params.eta2))


# ---------------------------------------------------------------------------
# Ceiling planes and the feasibility tests


@dataclass(frozen=True)
class SicPlanes:
    """Ceiling planes (1, 3) and floor planes (2, 4) of one decoding order.

    Pu must stay strictly below both ceilings and strictly above both floors.
    """

    ceil1: Plane
    floor2: Plane
    ceil3: Plane
    floor4: Plane


def ceiling_planes(h, order: DecodingOrder) -> tuple[Plane, Plane]:
    """The ceiling planes 1 and 3 of one decoding order; ``h`` as in `floor_planes`."""
    _, h_b_d1, h_b_d2, _, _, h_b_u = h
    if order is DecodingOrder.M2_FIRST:
        return Plane(-h_b_d1 / h_b_u, h_b_d2 / h_b_u), Plane(h_b_d1 / h_b_u, 0.0)
    return Plane(h_b_d1 / h_b_u, -h_b_d2 / h_b_u), Plane(0.0, h_b_d2 / h_b_u)


def planes_for_order(
    gains: ChannelGains, params: SystemParams, order: DecodingOrder
) -> SicPlanes:
    h = _gain_tuple(gains)
    ceil1, ceil3 = ceiling_planes(h, order)
    floor2, floor4 = floor_planes(h, params.eta1, params.eta2)
    return SicPlanes(ceil1=ceil1, floor2=floor2, ceil3=ceil3, floor4=floor4)


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


def sic_rate_margins(
    gains: ChannelGains,
    params: SystemParams,
    order: DecodingOrder,
    p1: float,
    p2: float,
    pu: float,
) -> tuple[float, float, float, float]:
    """Signed margins of the noise-free SIC achievability conditions.

    These are implied by the power-ordering conditions but are evaluated
    independently wherever a solution is validated.  Decoding M1 first is
    decoding M2 first with the two devices' roles swapped, so one formula
    serves both orders.
    """
    g, e1, e2 = gains, params.eta1, params.eta2
    if order is DecodingOrder.M1_FIRST:
        h = (g.h_d, g.h_b_d2, g.h_b_d1, g.h_d2_u, g.h_d1_u, g.h_b_u)
        return _m2_first_margins(h, e2, e1, p2, p1, pu)
    return _m2_first_margins(_gain_tuple(g), e1, e2, p1, p2, pu)


def _m2_first_margins(h, e1, e2, p1, p2, pu) -> tuple:
    """`sic_rate_margins` of the M2_FIRST order on floats or arrays."""
    h_d, h_b_d1, h_b_d2, h_d1_u, h_d2_u, h_b_u = h
    return (
        p1 * (h_b_d2 * e1 - h_d * h_b_d1) + pu * (h_d1_u * h_b_d2 - h_d * h_b_u),
        p1 * (h_d1_u * h_b_d1 - h_b_u * e1) + p2 * (h_d1_u * h_b_d2 - h_b_u * h_d),
        p2 * h_b_d1 * e2 - pu * (h_b_u * h_d - h_d2_u * h_b_d1),
        p1 * (h_b_d1 * h_d2_u - h_d * h_b_u) - p2 * e2 * h_b_u,
    )


def necessary_conditions(
    gains: ChannelGains, params: SystemParams
) -> tuple[bool, bool, bool, bool]:
    """Channel-only conditions any mutual-SIC solution requires (same for both orders)."""
    g = gains
    return (
        g.h_b_d1 * g.h_d2_u > g.h_d * g.h_b_u,
        g.h_d1_u * g.h_b_d2 > g.h_b_u * g.h_d,
        g.h_b_d1 * g.h_d1_u > params.eta1 * g.h_b_u,
        g.h_b_d2 * g.h_d2_u > params.eta2 * g.h_b_u,
    )


def pretest_terms(h, e1, e2, pu_m, p1_max, p2_max, order: DecodingOrder) -> tuple:
    """The four inequalities of `sufficient_feasibility` for one decoding order.

    ``h`` holds the six link gains in `ChannelGains` field order, as floats or
    as numpy arrays that broadcast; the arithmetic is the same either way.
    """
    h_d, h_b_d1, h_b_d2, h_d1_u, h_d2_u, h_b_u = h
    if order is DecodingOrder.M2_FIRST:
        return (
            h_b_d1 * h_d1_u - e1 * h_b_u > 2.0 * h_d * h_b_u * h_b_d1 / h_b_d2,
            h_b_d1 * h_d2_u - h_b_u * h_d > 2.0 * h_b_u * e2 * h_b_d1 / h_b_d2,
            pu_m * h_b_u / h_b_d1 < p1_max,
            2.0 * pu_m * h_b_u / h_b_d2 < p2_max,
        )
    return (
        h_d1_u * h_b_d2 - h_d * h_b_u > 2.0 * e1 * h_b_u * h_b_d2 / h_b_d1,
        h_d2_u * h_b_d2 - e2 * h_b_u > 2.0 * h_b_u * h_d * h_b_d2 / h_b_d1,
        2.0 * pu_m * h_b_u / h_b_d1 < p1_max,
        pu_m * h_b_u / h_b_d2 < p2_max,
    )


def sufficient_feasibility(
    gains: ChannelGains,
    params: SystemParams,
    limits: PowerLimits,
    pu_m: float,
    order: DecodingOrder,
) -> bool:
    """Exact emptiness test for the admissible region of one decoding order.

    Two channel conditions make the plane wedge open upward; the others place
    its lowest box crossing inside the device power limits.  An attainable CU
    floor power is required for the box itself to be non-empty.
    """
    if pu_m > limits.pu_max_w:
        return False
    h = _gain_tuple(gains)
    return all(
        pretest_terms(h, params.eta1, params.eta2, pu_m, limits.p1_max_w, limits.p2_max_w, order)
    )


# ---------------------------------------------------------------------------
# Admissible segments on the outer box sides


class Side(Enum):
    P1_MAX = "p1_max"
    P2_MAX = "p2_max"
    PU_MAX = "pu_max"


def _combine_roots(increasing: list[bool], roots: list[float]) -> float:
    if all(increasing):
        return max(roots)
    if not any(increasing):
        return min(roots)
    raise GeometryError("ceiling/floor slope ordering violates the channel conditions")


def _ridge_on_cap(
    ceil: Plane, selector: FloorSelector, pu_max: float
) -> tuple[float, float, float]:
    """Point where a ceiling ridge pierces the plane Pu = pu_max.

    Solved per floor branch; the real branch is the one whose floor actually
    dominates at the solution.
    """
    for f in (selector.floor2, selector.floor4):
        det = ceil.ax * f.ay - ceil.ay * f.ax
        if det == 0.0:
            continue
        x = pu_max * (f.ay - ceil.ay) / det
        y = pu_max * (ceil.ax - f.ax) / det
        other = selector.floor4 if f is selector.floor2 else selector.floor2
        if other.height(x, y) <= pu_max * (1.0 + REL_TOL) and x > -pu_max and y > -pu_max:
            return x, y, pu_max
    raise GeometryError("ceiling ridge does not reach the CU power cap")


@dataclass(frozen=True)
class SideSegment:
    """One admissible segment on an outer box side.

    ``lo``/``hi`` bound the free power coordinate (P2 on the P1 side, P1
    elsewhere).  ``branch`` names the floor plane that supplies Pu along a
    CU-cap segment.
    """

    side: Side
    lo: float
    hi: float
    branch: FloorPlane | None
    endpoint_lo: PowerTriplet
    endpoint_hi: PowerTriplet


def _device_side_interval(
    side: Side,
    planes: SicPlanes,
    selector: FloorSelector,
    limits: PowerLimits,
    pu_m: float,
) -> tuple[float, float]:
    """Free-coordinate range of the admissible segment on a device-power side.

    Each ceiling contributes a lower or an upper bound depending on whether
    its trace rises or falls along the side; the bound is its crossing with
    the combined floor or, lower down, with the box bottom Pu = pu_m.  The
    floor itself caps the range where it exceeds the CU power limit.
    """
    if side is Side.P1_MAX:
        fixed, free_cap = limits.p1_max_w, limits.p2_max_w

        def coef(pl: Plane) -> tuple[float, float]:
            return pl.ay, pl.ax * fixed  # slope along the free coord, offset

    else:
        fixed, free_cap = limits.p2_max_w, limits.p1_max_w

        def coef(pl: Plane) -> tuple[float, float]:
            return pl.ax, pl.ay * fixed

    lo, hi = 0.0, free_cap
    for ceil in (planes.ceil1, planes.ceil3):
        c_slope, c_off = coef(ceil)
        roots, incr = [], []
        for f in (selector.floor2, selector.floor4):
            f_slope, f_off = coef(f)
            d = c_slope - f_slope
            if d == 0.0:
                raise GeometryError("parallel ceiling and floor traces on a box side")
            roots.append((f_off - c_off) / d)
            incr.append(d > 0.0)
        t_floor = _combine_roots(incr, roots)
        if all(incr):
            lo = max(lo, t_floor)
        else:
            hi = min(hi, t_floor)
        if c_slope > 0.0:
            lo = max(lo, (pu_m - c_off) / c_slope)
        elif c_slope < 0.0:
            hi = min(hi, (pu_m - c_off) / c_slope)
        elif c_off < pu_m:
            return 1.0, 0.0  # constant ceiling below the box bottom: empty side
    for f in (selector.floor2, selector.floor4):
        f_slope, f_off = coef(f)
        if f_slope <= 0.0:
            raise GeometryError("floor plane does not rise along a device side")
        hi = min(hi, (limits.pu_max_w - f_off) / f_slope)
    return lo, hi


def _cap_interval(
    planes: SicPlanes, selector: FloorSelector, limits: PowerLimits
) -> tuple[float, float]:
    """P1 range of the admissible curve (combined floor == CU cap) on the cap side."""
    pu_max = limits.pu_max_w
    lo, hi = 0.0, limits.p1_max_w
    entries = []
    for f in (selector.floor2, selector.floor4):
        if f.ax <= 0.0:
            raise GeometryError("floor plane does not rise along P1")
        entries.append((pu_max - f.ay * limits.p2_max_w) / f.ax)
    lo = max(lo, min(entries))
    for ceil in (planes.ceil1, planes.ceil3):
        x, _, _ = _ridge_on_cap(ceil, selector, pu_max)
        # A ceiling rising along the cap curve bounds it from below, a falling
        # one from above; the channel conditions fix the sign per ceiling.
        along = [
            ceil.ax * f.ay - ceil.ay * f.ax
            for f in (selector.floor2, selector.floor4)
        ]
        if all(a > 0.0 for a in along):
            lo = max(lo, x)
        elif all(a < 0.0 for a in along):
            hi = min(hi, x)
        else:
            raise GeometryError("ceiling slope along the cap curve is not uniform")
    return lo, hi


def _cap_curve_p2(
    selector: FloorSelector, branch: FloorPlane, p1: float, pu_max: float
) -> float:
    f = selector.plane(branch)
    return (pu_max - f.ax * p1) / f.ay


def _cap_branch_at(selector: FloorSelector, p1: float, pu_max: float) -> FloorPlane:
    """Floor branch supplying the cap curve at abscissa p1 (the lower P2 wins)."""
    y2 = _cap_curve_p2(selector, FloorPlane.PLANE2, p1, pu_max)
    y4 = _cap_curve_p2(selector, FloorPlane.PLANE4, p1, pu_max)
    return FloorPlane.PLANE2 if y2 <= y4 else FloorPlane.PLANE4


def _floor_crossing_on_cap(
    selector: FloorSelector, pu_max: float
) -> tuple[float, float] | None:
    """Point where both floors equal the CU cap: the kink of the cap curve."""
    f2, f4 = selector.floor2, selector.floor4
    det = f2.ax * f4.ay - f2.ay * f4.ax
    if det == 0.0:
        return None
    x = pu_max * (f4.ay - f2.ay) / det
    y = pu_max * (f2.ax - f4.ax) / det
    if x <= 0.0 or y <= 0.0:
        return None
    return x, y


def _nonempty(lo: float, hi: float, scale: float) -> bool:
    return hi - lo > -REL_TOL * scale


def _build_device_segment(
    side: Side,
    planes: SicPlanes,
    selector: FloorSelector,
    limits: PowerLimits,
    pu_m: float,
) -> list[SideSegment]:
    lo, hi = _device_side_interval(side, planes, selector, limits, pu_m)
    if not _nonempty(lo, hi, max(limits.p1_max_w, limits.p2_max_w)):
        return []
    hi = max(hi, lo)

    def endpoint(t: float) -> PowerTriplet:
        if side is Side.P1_MAX:
            p1, p2 = limits.p1_max_w, t
        else:
            p1, p2 = t, limits.p2_max_w
        pu = max(selector.height(p1, p2), pu_m)
        return PowerTriplet(p1, max(p2, 0.0), pu)

    return [
        SideSegment(side, lo, hi, None, endpoint(lo), endpoint(hi))
    ]


def _build_cap_segments(
    planes: SicPlanes, selector: FloorSelector, limits: PowerLimits
) -> list[SideSegment]:
    pu_max = limits.pu_max_w
    try:
        lo, hi = _cap_interval(planes, selector, limits)
    except GeometryError:
        return []
    scale = max(limits.p1_max_w, limits.p2_max_w)
    if not _nonempty(lo, hi, scale):
        return []
    lo, hi = max(lo, 0.0), max(hi, max(lo, 0.0))

    pieces = [(lo, hi)]
    kink = _floor_crossing_on_cap(selector, pu_max)
    if kink is not None and lo + REL_TOL * scale < kink[0] < hi - REL_TOL * scale:
        pieces = [(lo, kink[0]), (kink[0], hi)]

    segments = []
    for a, b in pieces:
        branch = _cap_branch_at(selector, 0.5 * (a + b), pu_max)
        pt_a = PowerTriplet(max(a, 0.0), max(_cap_curve_p2(selector, branch, a, pu_max), 0.0), pu_max)
        pt_b = PowerTriplet(max(b, 0.0), max(_cap_curve_p2(selector, branch, b, pu_max), 0.0), pu_max)
        segments.append(SideSegment(Side.PU_MAX, a, b, branch, pt_a, pt_b))
    return segments


def segment_set(
    gains: ChannelGains,
    params: SystemParams,
    limits: PowerLimits,
    pu_m: float,
    order: DecodingOrder,
) -> list[SideSegment]:
    """Admissible segments on the outer box sides for one decoding order.

    The optimum lies on the P1max, P2max or CU-cap side, so a segment is
    built on each of the three and the empty ones drop out.
    """
    planes = planes_for_order(gains, params, order)
    selector = FloorSelector(planes.floor2, planes.floor4)
    return [
        *_build_device_segment(Side.P1_MAX, planes, selector, limits, pu_m),
        *_build_device_segment(Side.P2_MAX, planes, selector, limits, pu_m),
        *_build_cap_segments(planes, selector, limits),
    ]


# ---------------------------------------------------------------------------
# Per-segment optimization


def optimize_box_side(
    segment: SideSegment, gains: ChannelGains, params: SystemParams
) -> tuple[float, float, float]:
    """Best (p1, p2, rate) on a device-power side: an endpoint always wins.

    Along such a side the rate derivative carries the sign of a quadratic
    whose negative lobe is a single interval, so no interior point can beat
    both endpoints.
    """
    if segment.side not in (Side.P1_MAX, Side.P2_MAX):
        raise ValueError("optimize_box_side handles the device-power sides only")
    best = None
    for pt in (segment.endpoint_lo, segment.endpoint_hi):
        rate = fd_sic_d2d_rate(pt.p1_w, pt.p2_w, gains, params)
        if best is None or rate > best[2]:
            best = (pt.p1_w, pt.p2_w, rate)
    return best


def _cap_poly(branch: FloorPlane, h, params: SystemParams, pu_max: float) -> tuple:
    """Quadratic whose sign equals the rate derivative in P1 along a cap branch.

    ``h`` holds the link gains as in `floor_planes`.
    """
    hd, e1, e2, s = h[0], params.eta1, params.eta2, params.noise_w
    if branch is FloorPlane.PLANE2:
        h_u = h[3]
        a = -(e1 * e2 - hd * hd) * e1 * e1 * e2
        b = 2.0 * e1 * e1 * e2 * (pu_max * h_u * e2 + s * hd)
        c = (
            -pu_max * pu_max * h_u * h_u * e2 * e2 * e1
            + pu_max * s * hd * h_u * e2 * (hd - 2.0 * e1)
            + s * s * hd * hd * (hd - e1)
        )
    else:
        h_u = h[4]
        a = (e1 * e2 - hd * hd) * e1
        b = 2.0 * e1 * (pu_max * h_u * hd + s * e2)
        c = -pu_max * pu_max * h_u * h_u * e1 - s * e1 * h_u * pu_max + s * s * (e2 - hd)
    return a, b, c


def optimize_su_side(
    segment: SideSegment,
    gains: ChannelGains,
    params: SystemParams,
    pu_max: float,
) -> tuple[float, float, float]:
    """Best (p1, p2, rate) on a CU-cap segment.

    Candidates are the two endpoints plus the quadratic root that can host a
    local maximum of the rate (the other root is always a local minimum and
    is never tested).
    """
    if segment.side is not Side.PU_MAX or segment.branch is None:
        raise ValueError("optimize_su_side handles CU-cap segments only")
    candidates = [segment.lo, segment.hi]
    a, b, c = _cap_poly(segment.branch, _gain_tuple(gains), params, pu_max)
    if a != 0.0:
        disc = b * b - 4.0 * a * c
        if disc >= 0.0:
            root = (-b - math.sqrt(disc)) / (2.0 * a)
            if segment.lo < root < segment.hi:
                candidates.append(root)
    elif b != 0.0:
        root = -c / b
        if segment.lo < root < segment.hi:
            candidates.append(root)

    sel = floor_selector(gains, params)
    best = None
    for p1 in candidates:
        p2 = max(_cap_curve_p2(sel, segment.branch, p1, pu_max), 0.0)
        rate = fd_sic_d2d_rate(max(p1, 0.0), p2, gains, params)
        if best is None or rate > best[2]:
            best = (max(p1, 0.0), p2, rate)
    return best


# ---------------------------------------------------------------------------
# Full solve for one decoding order


def _fmax(*values):
    return functools.reduce(np.fmax, values)


def _none_below(margins, bound):
    return np.logical_not(np.logical_or.reduce([m < bound for m in margins]))


def _point_tests(h, planes: SicPlanes, margins, limits: PowerLimits, pu_m, p1, p2, pu) -> tuple:
    """The four tests of `validate_sic_point`, on floats or arrays: power
    ordering, SIC rates, power limits and CU rate floor, each True where the
    point passes within a relative margin.  ``h`` holds the link gains as
    in `floor_planes` and ``margins`` the point's `sic_rate_margins`."""
    scale = _fmax(pu, planes.ceil3.height(p1, p2), planes.floor2.height(p1, p2), 1e-300)
    sic_scale = _fmax(*(abs(m) for m in margins)) + scale * _fmax(h[1], h[2], h[5]) * _fmax(
        p1, p2, pu, 1e-300
    )
    return (
        _none_below(pmc_margins(planes, p1, p2, pu), -REL_TOL * scale),
        _none_below(margins, -REL_TOL * sic_scale),
        within_limits(p1, p2, pu, limits, REL_TOL),
        np.logical_not(pu < pu_m * (1.0 - REL_TOL)),
    )


def validate_sic_point(
    gains: ChannelGains,
    params: SystemParams,
    limits: PowerLimits,
    order: DecodingOrder,
    point: PowerTriplet,
) -> None:
    """Raise GeometryError unless the point meets every mutual-SIC constraint
    within a relative margin."""
    p1, p2, pu = point.p1_w, point.p2_w, point.pu_w
    tests = _point_tests(
        _gain_tuple(gains), planes_for_order(gains, params, order),
        sic_rate_margins(gains, params, order, p1, p2, pu), limits,
        pu_min(params, gains.h_b_u), p1, p2, pu,
    )
    for passed, what in zip(
        tests, ("a power-ordering condition", "a SIC rate condition", "a power limit",
                "the CU rate floor"),
    ):
        if not passed:
            raise GeometryError(f"solution violates {what}: {point}")


def solve_fd_sic_order(
    gains: ChannelGains,
    params: SystemParams,
    limits: PowerLimits,
    order: DecodingOrder,
) -> PaSolution | None:
    """Optimal FD mutual-SIC allocation for one decoding order, or None.

    Returns None when the admissible region is empty.  The CU transmits at
    the smallest admissible power for the chosen device powers.
    """
    pu_m = pu_min(params, gains.h_b_u)
    if not sufficient_feasibility(gains, params, limits, pu_m, order):
        return None
    segments = segment_set(gains, params, limits, pu_m, order)
    if not segments:
        raise GeometryError("feasibility tests passed but no segment was found")

    selector = floor_selector(gains, params)

    def point_at(seg: SideSegment, t: float) -> PowerTriplet:
        if seg.side is Side.PU_MAX:
            p1 = max(t, 0.0)
            p2 = max(_cap_curve_p2(selector, seg.branch, t, limits.pu_max_w), 0.0)
            pu = limits.pu_max_w
        elif seg.side is Side.P1_MAX:
            p1, p2 = limits.p1_max_w, max(t, 0.0)
            pu = max(selector.height(p1, p2), pu_m)
        else:
            p1, p2 = max(t, 0.0), limits.p2_max_w
            pu = max(selector.height(p1, p2), pu_m)
        return PowerTriplet(
            min(p1, limits.p1_max_w), min(p2, limits.p2_max_w), min(pu, limits.pu_max_w)
        )

    candidates: list[tuple[float, SideSegment, float]] = []
    seen: list[tuple[float, float]] = []
    scale = max(limits.p1_max_w, limits.p2_max_w)
    for seg in segments:
        if seg.side is Side.PU_MAX:
            cand = optimize_su_side(seg, gains, params, limits.pu_max_w)
            t = cand[0]
        else:
            cand = optimize_box_side(seg, gains, params)
            t = cand[1] if seg.side is Side.P1_MAX else cand[0]
        key = (cand[0], cand[1])
        if any(
            abs(key[0] - k[0]) <= REL_TOL * scale and abs(key[1] - k[1]) <= REL_TOL * scale
            for k in seen
        ):
            continue
        seen.append(key)
        candidates.append((cand[2], seg, t))

    # The highest-rate candidate that survives the exact validation wins.
    # On sliver segments the optimal endpoint may sit closer to a constraint
    # plane than double precision can certify, in which case the point is
    # pulled toward the segment interior where the margins are genuinely
    # positive; the rate sacrifice is bounded by the sliver width.
    failure: GeometryError | None = None
    for _, seg, t in sorted(candidates, key=lambda c: -c[0]):
        mid = 0.5 * (seg.lo + seg.hi)
        for frac in (0.0, 1e-6, 1e-3, 0.1, 1.0):
            t_try = t + (mid - t) * frac
            point = point_at(seg, t_try)
            try:
                validate_sic_point(gains, params, limits, order, point)
            except GeometryError as exc:
                failure = exc
                continue
            rate = fd_sic_d2d_rate(point.p1_w, point.p2_w, gains, params)
            r_u = shannon_rate(
                params.bandwidth_hz, point.pu_w * gains.h_b_u / params.noise_w
            )
            return PaSolution(
                scenario=Scenario(ScenarioKind.FD_SIC, order=order),
                powers=point,
                r_d2d_bps=rate,
                r_u_bps=r_u,
                sic_applied=True,
            )
    raise failure if failure is not None else GeometryError("no candidate point found")


# ---------------------------------------------------------------------------
# The same solve over arrays
#
# Plane coefficients are stacked as (ax or ay, plane, entry) arrays: floors
# 2 and 4, ceilings 1 and 3.  A NaN bound below stands for "no bound": fmax
# and fmin skip it, as the scalar code skips a bound it never applies.


def _device_sides_batch(ceils, floors, pu_m, fixed, pu_max: float) -> tuple:
    """`_device_side_interval` on both device sides at once.

    Side 0 is P1 = P1max and side 1 is P2 = P2max; ``fixed`` holds
    (P1max, P2max) shaped to broadcast over (side, plane, entry).  Returns
    (lo, hi, error) as (side, entry) arrays, with ``error`` True where the
    scalar code raises GeometryError.
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
    empty = ((c_slope == 0.0) & (c_off < pu_m)).any(axis=1)
    return np.where(empty, 1.0, lo), np.where(empty, 0.0, hi), error


def _cap_interval_batch(ceils, floors, limits: PowerLimits) -> tuple:
    """`_cap_interval` over arrays: (lo, hi, ok), ``ok`` False where the
    scalar code raises GeometryError."""
    pu_max = limits.pu_max_w
    (c_ax, c_ay), (f_ax, f_ay) = ceils[:, :, None], floors
    # `_ridge_on_cap` per (ceiling, floor branch); the first hit wins.
    det = c_ax * f_ay - c_ay * f_ax
    x = pu_max * (f_ay - c_ay) / det
    y = pu_max * (c_ax - f_ax) / det
    hit = (
        (det != 0.0)
        & (f_ax[::-1] * x + f_ay[::-1] * y <= pu_max * (1.0 + REL_TOL))
        & (x > -pu_max)
        & (y > -pu_max)
    )
    x = np.where(hit[:, 0], x[:, 0], x[:, 1])
    rising, falling = (det > 0.0).all(axis=1), (det < 0.0).all(axis=1)
    ok = ~(f_ax <= 0.0).any(axis=0) & (hit.any(axis=1) & (rising | falling)).all(axis=0)
    entry = ((pu_max - f_ay * limits.p2_max_w) / f_ax).min(axis=0)
    lo = np.fmax(np.fmax.reduce(np.where(rising, x, np.nan), axis=0), np.fmax(entry, 0.0))
    hi = np.fmin(np.fmin.reduce(np.where(falling, x, np.nan), axis=0), limits.p1_max_w)
    return lo, hi, ok


def _cap_root(a, b, c):
    """The `optimize_su_side` root of a*x^2 + b*x + c over arrays (NaN or inf
    where the scalar code has none)."""
    disc = b * b - 4.0 * a * c
    return np.where(a != 0.0, (-b - np.sqrt(disc)) / (2.0 * a), -c / b)


def _math_log2(x: np.ndarray) -> np.ndarray:
    """`math.log2` per element: numpy's log2 can differ in the last bit."""
    return np.array(list(map(math.log2, x.tolist())))


def fd_sic_batch(h, params: SystemParams, limits: PowerLimits, pu_m, m1_first) -> tuple:
    """`solve_fd_sic_order` over arrays of (entry, decoding order) pairs that
    pass `sufficient_feasibility`.

    ``h`` holds the six link gains in `ChannelGains` field order and ``pu_m``
    the CU floor power, as 1-D arrays; ``m1_first`` is True where the order
    is M1_FIRST.  Returns (p1, p2, pu, rate, fallback).  Where ``fallback``
    is False, these are the scalar solve's point and rate: the same sides in
    the same order, the same de-duplication, the first highest-rate candidate,
    and that candidate passes `validate_sic_point` where it lies.  Where
    ``fallback`` is True the scalar solve has to decide: the best candidate
    fails validation and must be pulled inward, or the scalar code raises
    GeometryError.
    """
    p1_max, p2_max, pu_max = limits.p1_max_w, limits.p2_max_w, limits.pu_max_w
    tol = REL_TOL * max(p1_max, p2_max)
    n = len(m1_first)
    f2, f4 = floor_planes(h, params.eta1, params.eta2)
    floors = np.array([[f2.ax, f4.ax], [f2.ay, f4.ay]])
    ceils = np.empty((2, 2, 2, n))  # (order, ax or ay, ceiling, entry)
    for k, order in enumerate((DecodingOrder.M2_FIRST, DecodingOrder.M1_FIRST)):
        for j, ceil in enumerate(ceiling_planes(h, order)):
            ceils[k, 0, j], ceils[k, 1, j] = ceil.ax, ceil.ay
    ceils = np.where(m1_first, ceils[1], ceils[0])

    fixed = np.array([p1_max, p2_max])[:, None, None]
    lo_d, hi_d, error = _device_sides_batch(ceils, floors, pu_m, fixed, pu_max)
    has_d = hi_d - lo_d > -tol
    hi_d = np.maximum(hi_d, lo_d)

    # The CU-cap side, split into two pieces at the floors' kink.
    lo_c, hi_c, has_cap = _cap_interval_batch(ceils, floors, limits)
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
    a, b = np.array([lo_c, kink]), np.array([np.where(split, kink, hi_c), hi_c])
    mid = 0.5 * (a + b)
    plane2 = (pu_max - f2.ax * mid) / f2.ay <= (pu_max - f4.ax * mid) / f4.ay
    polys = np.array([_cap_poly(branch, h, params, pu_max) for branch in FloorPlane])
    root = np.where(plane2, *_cap_root(*polys.transpose(1, 0, 2)))
    f_ax, f_ay = (np.where(plane2, f2c, f4c) for f2c, f4c in ((f2.ax, f4.ax), (f2.ay, f4.ay)))

    # Candidates as (candidate, segment, entry): segments P1max, P2max and the
    # two cap pieces; a device side has its two ends (and a dummy third), a
    # cap piece its ends and the quadratic root.
    on_p1 = np.array([True, False])[:, None]
    t_d = np.array([lo_d, hi_d, lo_d])
    t_c = np.array([a, b, root])
    p1s = np.concatenate([np.where(on_p1, p1_max, t_d), t_c], axis=1)
    p2s = np.concatenate(
        [np.where(on_p1, t_d, p2_max), np.maximum((pu_max - f_ax * t_c) / f_ay, 0.0)], axis=1
    )
    has = np.concatenate([has_d, [has_cap, split]])
    root_ok = has[2:] & (a < root) & (root < b)
    valid = np.array([has, has, np.concatenate([np.zeros_like(has_d), root_ok])])
    rates = np.where(valid, sic_sum_rate(p1s, p2s, h[0], params, np.log2), -np.inf)

    # Each segment's first highest-rate candidate.
    seg, ent = np.arange(4)[:, None], np.arange(n)
    pick = rates.argmax(axis=0)
    p1s, p2s, rates = p1s[pick, seg, ent], p2s[pick, seg, ent], rates[pick, seg, ent]
    # Drop a segment's point within REL_TOL * scale of a kept earlier one.
    close = (np.abs(p1s[:, None] - p1s) <= tol) & (np.abs(p2s[:, None] - p2s) <= tol)
    kept = has.copy()
    for j in range(1, 4):
        kept[j] &= ~(kept[:j] & close[j, :j]).any(axis=0)
    best = np.where(kept, rates, -np.inf).argmax(axis=0)
    p1c, p2c = p1s[best, ent], p2s[best, ent]

    # `point_at` with no pull-in, then `validate_sic_point`.
    floor_height = np.maximum(f2.height(p1c, p2c), f4.height(p1c, p2c))
    pu = np.where(best >= 2, pu_max, np.minimum(np.maximum(floor_height, pu_m), pu_max))
    p1, p2 = np.minimum(p1c, p1_max), np.minimum(p2c, p2_max)
    # `sic_rate_margins` of each entry's order: swap the devices where M1 goes first.
    pairs = np.array([h[1], h[2], h[3], h[4], p1, p2])
    b1, b2, u1, u2, q1, q2 = np.where(m1_first, pairs[[1, 0, 3, 2, 5, 4]], pairs)
    e1 = np.where(m1_first, params.eta2, params.eta1)
    e2 = np.where(m1_first, params.eta1, params.eta2)
    margins = _m2_first_margins((h[0], b1, b2, u1, u2, h[5]), e1, e2, q1, q2, pu)
    planes = SicPlanes(Plane(*ceils[:, 0]), f2, Plane(*ceils[:, 1]), f4)
    passed = np.logical_and.reduce(_point_tests(h, planes, margins, limits, pu_m, p1, p2, pu))
    fallback = error.any(axis=0) | ~has.any(axis=0) | ~passed | ~np.isfinite(p1 + p2 + pu)
    return p1, p2, pu, sic_sum_rate(p1, p2, h[0], params, _math_log2), fallback
