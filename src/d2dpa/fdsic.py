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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

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


def floor_selector(gains: ChannelGains, params: SystemParams) -> FloorSelector:
    """The floor planes 2 and 4, shared by both decoding orders."""
    g = gains
    return FloorSelector(
        floor2=Plane(params.eta1 / g.h_d1_u, g.h_d / g.h_d1_u),
        floor4=Plane(g.h_d / g.h_d2_u, params.eta2 / g.h_d2_u),
    )


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
    order: DecodingOrder


def planes_for_order(
    gains: ChannelGains, params: SystemParams, order: DecodingOrder
) -> SicPlanes:
    g = gains
    floors = floor_selector(gains, params)
    if order is DecodingOrder.M2_FIRST:
        ceil1 = Plane(-g.h_b_d1 / g.h_b_u, g.h_b_d2 / g.h_b_u)
        ceil3 = Plane(g.h_b_d1 / g.h_b_u, 0.0)
    else:
        ceil1 = Plane(g.h_b_d1 / g.h_b_u, -g.h_b_d2 / g.h_b_u)
        ceil3 = Plane(0.0, g.h_b_d2 / g.h_b_u)
    return SicPlanes(
        ceil1=ceil1, floor2=floors.floor2, ceil3=ceil3, floor4=floors.floor4, order=order
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
    independently wherever a solution is validated.
    """
    g, e1, e2 = gains, params.eta1, params.eta2
    if order is DecodingOrder.M2_FIRST:
        return (
            p1 * (g.h_b_d2 * e1 - g.h_d * g.h_b_d1)
            + pu * (g.h_d1_u * g.h_b_d2 - g.h_d * g.h_b_u),
            p1 * (g.h_d1_u * g.h_b_d1 - g.h_b_u * e1)
            + p2 * (g.h_d1_u * g.h_b_d2 - g.h_b_u * g.h_d),
            p2 * g.h_b_d1 * e2 - pu * (g.h_b_u * g.h_d - g.h_d2_u * g.h_b_d1),
            p1 * (g.h_b_d1 * g.h_d2_u - g.h_d * g.h_b_u) - p2 * e2 * g.h_b_u,
        )
    return (
        p2 * (g.h_b_d1 * e2 - g.h_d * g.h_b_d2)
        + pu * (g.h_d2_u * g.h_b_d1 - g.h_d * g.h_b_u),
        p2 * (g.h_d2_u * g.h_b_d2 - g.h_b_u * e2)
        + p1 * (g.h_d2_u * g.h_b_d1 - g.h_b_u * g.h_d),
        p1 * g.h_b_d2 * e1 - pu * (g.h_b_u * g.h_d - g.h_d1_u * g.h_b_d2),
        p2 * (g.h_b_d2 * g.h_d1_u - g.h_d * g.h_b_u) - p1 * e1 * g.h_b_u,
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
    g = gains
    h = (g.h_d, g.h_b_d1, g.h_b_d2, g.h_d1_u, g.h_d2_u, g.h_b_u)
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


def _cap_poly(
    branch: FloorPlane, gains: ChannelGains, params: SystemParams, pu_max: float
) -> tuple[float, float, float]:
    """Quadratic whose sign equals the rate derivative in P1 along a cap branch."""
    hd, e1, e2, s = gains.h_d, params.eta1, params.eta2, params.noise_w
    if branch is FloorPlane.PLANE2:
        h = gains.h_d1_u
        a = -(e1 * e2 - hd * hd) * e1 * e1 * e2
        b = 2.0 * e1 * e1 * e2 * (pu_max * h * e2 + s * hd)
        c = (
            -pu_max * pu_max * h * h * e2 * e2 * e1
            + pu_max * s * hd * h * e2 * (hd - 2.0 * e1)
            + s * s * hd * hd * (hd - e1)
        )
    else:
        h = gains.h_d2_u
        a = (e1 * e2 - hd * hd) * e1
        b = 2.0 * e1 * (pu_max * h * hd + s * e2)
        c = -pu_max * pu_max * h * h * e1 - s * e1 * h * pu_max + s * s * (e2 - hd)
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
    a, b, c = _cap_poly(segment.branch, gains, params, pu_max)
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


def validate_sic_point(
    gains: ChannelGains,
    params: SystemParams,
    limits: PowerLimits,
    order: DecodingOrder,
    point: PowerTriplet,
) -> None:
    """Raise GeometryError unless the point meets every mutual-SIC constraint
    within a relative margin."""
    planes = planes_for_order(gains, params, order)
    pu_m = pu_min(params, gains.h_b_u)
    p1, p2, pu = point.p1_w, point.p2_w, point.pu_w
    scale = max(pu, planes.ceil3.height(p1, p2), planes.floor2.height(p1, p2), 1e-300)
    if any(m < -REL_TOL * scale for m in pmc_margins(planes, p1, p2, pu)):
        raise GeometryError(f"solution violates a power-ordering condition: {point}")
    margins = sic_rate_margins(gains, params, order, p1, p2, pu)
    sic_scale = max(abs(m) for m in margins) + scale * max(
        gains.h_b_d1, gains.h_b_d2, gains.h_b_u
    ) * max(p1, p2, pu, 1e-300)
    if any(m < -REL_TOL * sic_scale for m in margins):
        raise GeometryError(f"solution violates a SIC rate condition: {point}")
    if not point.within(limits, REL_TOL):
        raise GeometryError(f"solution violates a power limit: {point}")
    if pu < pu_m * (1.0 - REL_TOL):
        raise GeometryError(f"solution violates the CU rate floor: {point}")


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
