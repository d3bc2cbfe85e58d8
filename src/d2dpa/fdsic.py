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

`fd_sic_batch` solves many (combination, order) pairs at once with numpy.
The module holds array code only: `solvers` calls the batch and turns its
arrays into `PaSolution`s, for one combination too.  The chosen point must
pass an exact check of every constraint.  On a sliver segment the best point
may sit closer to a plane than double precision can certify; it is then
pulled toward the segment's middle in fixed steps, and the next-best segment
is tried when no step passes.  Those steps are checked only for the pairs
whose best point fails.

The batch's data is stacked from the start, every array ending in the pair
axis: the planes as one (plane, ax or ay, pair) array, the device sides'
bounds as one (bound, side, pair) array, points as (p1, p2, pu, ...) arrays.
So each step is one numpy call over its stack, whatever the number of pairs.

Each constraint predicate (`constraint_planes` with `pmc_margins`,
`sic_rate_margins`, `pretest`) exists once, in the array form the batch
runs; `solvers.sufficient_feasibility` is `pretest` on one combination.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .model import PowerLimits, SystemParams, sic_sum_rate

REL_TOL = 1e-9

# Fractions of the way from a segment's best point to its middle, tried in
# order until the point passes the exact check.
PULL_IN = (0.0, 1e-6, 1e-3, 0.1, 1.0)


# ---------------------------------------------------------------------------
# Constraint planes and the feasibility tests, from the rows of `gain_rows`.
# M1_FIRST is M2_FIRST with the devices' roles swapped (`_SWAP_ROWS`).

_SWAP_ROWS = np.array([0, 2, 1, 4, 3, 5, 7, 6, 8, 9])

# Planes: ceilings 1 and 3, floors 2 and 4, each as (ax, ay) with height pu =
# ax*p1 + ay*p2.  Each coefficient is a ratio of two rows (numerators, then
# denominators) times the ceiling sign of the order (M2_FIRST, M1_FIRST).
_PLANE_RATIOS = np.array([[[1, 2], [1, 2], [6, 0], [0, 7]], [[5, 5], [5, 5], [3, 3], [4, 4]]])
_PLANE_SIGNS = np.array([[[-1.0, 1.0], [1.0, -1.0]], [[1.0, 0.0], [0.0, 1.0]]] + [[[1.0, 1.0]] * 2] * 2)

# The four SIC margins of M2_FIRST, each x*c + x'*c' with the powers x, x' of
# `_SIC_POWERS` (p1, p2, pu rows); the third first term is then weighted by e2
# and the last second term by -h_b_u.  Each c and weight is a*b - c*d of the
# rows (a, b, c, d): p1 (h_b_d2 e1 - h_d h_b_d1), p1 (h_d1_u h_b_d1 - h_b_u e1),
# p2 h_b_d1, p1 (h_b_d1 h_d2_u - h_d h_b_u); pu (h_d1_u h_b_d2 - h_d h_b_u),
# p2 (the same), pu (h_b_d1 h_d2_u - h_d h_b_u), p2 e2; then e2 and -h_b_u.
_SIC_POWERS = np.array([0, 0, 1, 0, 2, 1, 2, 1])
_SWAP_POWERS = np.array([1, 0, 2])
_SIC_TERMS = np.array([
    (2, 6, 0, 1), (3, 1, 5, 6), (1, 8, 9, 9), (1, 4, 0, 5), (3, 2, 0, 5), (3, 2, 0, 5), (1, 4, 0, 5),
    (7, 8, 9, 9), (7, 8, 9, 9), (9, 9, 5, 8),
]).T


def gain_rows(h, e1, e2) -> np.ndarray:
    """The (10, ...) coefficient rows of the gains ``h`` (six rows in
    `model.GAIN_FIELDS` order), the SI factors ``e1``, ``e2`` (broadcast to
    a row of ``h``), 1 and 0."""
    h = np.asarray(h)
    rows = np.empty((10,) + h.shape[1:])
    rows[:6] = h
    rows[6], rows[7], rows[8], rows[9] = e1, e2, 1.0, 0.0
    return rows


def constraint_planes(rows, m1_first) -> np.ndarray:
    """The (plane, ax or ay, pair) stack of each pair's ceilings 1 and 3 and
    floors 2 and 4 (shared by both orders), ``m1_first`` True where the order
    is M1_FIRST; ``rows`` are the (10, n) `gain_rows`.  Pu must stay strictly
    below both ceilings and strictly above both floors."""
    ratios = rows.take(_PLANE_RATIOS, axis=0)
    return _PLANE_SIGNS.take(m1_first, axis=2) * (ratios[0] / ratios[1])


def plane_heights(planes, p1, p2):
    """Each plane's Pu at (p1, p2), over a (plane, ax or ay, ...) stack that
    broadcasts against them."""
    return planes[:, 0] * p1 + planes[:, 1] * p2


def pmc_margins(heights, pu):
    """Signed margins of the four power-ordering conditions from the planes'
    `plane_heights`: ceilings minus ``pu``, then ``pu`` minus floors, all
    positive exactly when the point lies strictly between them."""
    margins = heights - pu
    np.negative(margins[2:], out=margins[2:])
    return margins


def sic_coefficients(rows, m1_first) -> np.ndarray:
    """The (10, ...) coefficients and weights of the SIC margins of each
    pair's decoding order (see `_SIC_TERMS`), from its `gain_rows`."""
    terms = np.where(m1_first, rows.take(_SWAP_ROWS, axis=0), rows).take(_SIC_TERMS, axis=0)
    return terms[0] * terms[1] - terms[2] * terms[3]


def _sic_margins(coefficients, m1_first, points):
    """The four SIC margins at the (p1, p2, pu) stack ``points``, from
    `sic_coefficients` that broadcast against a power."""
    x = np.where(m1_first, points.take(_SWAP_POWERS, axis=0), points).take(_SIC_POWERS, axis=0)
    terms = x * coefficients[:8]
    terms[2] *= coefficients[8]
    terms[7] *= coefficients[9]
    return terms[:4] + terms[4:]


def sic_rate_margins(h, e1, e2, m1_first, p1, p2, pu) -> np.ndarray:
    """Signed margins of the noise-free SIC achievability conditions of each
    pair's decoding order, ``m1_first`` True where it is M1_FIRST, as a (4,
    ...) stack.  These are implied by the power-ordering conditions but are
    evaluated independently wherever a solution is validated.  ``h`` holds
    the link gains as in `gain_rows` and ``e1``, ``e2`` the SI factors;
    everything broadcasts.
    """
    rows = gain_rows(h, e1, e2)
    points = np.array(np.broadcast_arrays(p1, p2, pu, rows[0])[:3])
    return _sic_margins(sic_coefficients(rows, m1_first), m1_first, points)


def pretest(hs, params: SystemParams, limits: PowerLimits, pu_m):
    """Exact emptiness test for the admissible region of both decoding
    orders: a (2, ...) mask, M2_FIRST then M1_FIRST, True where the region
    is non-empty.

    Two channel conditions make the plane wedge open upward; two more place
    its lowest box crossing inside the device power limits.  An attainable
    CU floor power ``pu_m`` is required for the box itself to be non-empty.
    ``hs`` is the `model.device_swap_stack` of a gain block: M1_FIRST is
    M2_FIRST with the devices' gains, power caps and SI factors swapped, as
    in `sic_rate_margins`, so one pass over the stack tests both orders.
    """
    h_d, h_b_d1, h_b_d2, h_d1_u, h_d2_u, h_b_u = hs
    e1, e2, p1_max = np.array([
        [params.eta1, params.eta2], [params.eta2, params.eta1], [limits.p1_max_w, limits.p2_max_w]
    ]).reshape((3, 2) + (1,) * (hs.ndim - 2))
    p2_max = p1_max[::-1]
    return (
        np.logical_not(pu_m > limits.pu_max_w)
        & (h_b_d1 * h_d1_u - e1 * h_b_u > 2.0 * h_d * h_b_u * h_b_d1 / h_b_d2)
        & (h_b_d1 * h_d2_u - h_b_u * h_d > 2.0 * h_b_u * e2 * h_b_d1 / h_b_d2)
        & (pu_m * h_b_u / h_b_d1 < p1_max)
        & (2.0 * pu_m * h_b_u / h_b_d2 < p2_max)
    )


# ---------------------------------------------------------------------------
# Admissible segments and the solve, over arrays of (entry, order) pairs.  A
# NaN bound below stands for "no bound": fmax and fmin skip it.


def _point_tests(seg: Segments, points, caps):
    """True where a (p1, p2, pu) stack ``points`` of the pairs of ``seg``
    meets every mutual-SIC constraint of the pair's order within a relative
    margin: power ordering, SIC rates, power limits ``caps`` (raised by the
    margin) and the CU rate floor.  The planes, SIC coefficients and caps
    broadcast against a power.  A NaN power fails the power limits."""
    pu = points[2]
    heights = plane_heights(seg.planes, points[0], points[1])
    scale = np.fmax(np.fmax(np.fmax(pu, heights[1]), heights[2]), 1e-300)
    margins = _sic_margins(seg.sic, seg.m1_first, points)
    sic_scale = np.fmax.reduce(abs(margins), axis=0) + scale * seg.gain_max * np.fmax(
        np.fmax.reduce(points, axis=0), 1e-300
    )
    # Every violation in one stack; the power limits as their negation, so
    # that a NaN fails.
    bad = np.empty((12,) + pu.shape, dtype=bool)
    np.less(pmc_margins(heights, pu), -REL_TOL * scale, out=bad[:4])
    np.less(margins, -REL_TOL * sic_scale, out=bad[4:8])
    np.less_equal(points, caps, out=bad[8:11])
    np.logical_not(bad[8:11], out=bad[8:11])
    np.less(pu, seg.pu_m * (1.0 - REL_TOL), out=bad[11])
    return ~bad.any(axis=0)


# Along a device side the admissible range keeps trace a at or below trace b
# for each (a, b) pair of the four planes' traces, the box bottom Pu = pu_m
# (4) and the CU cap Pu = pu_max (5).
_SIDE_PAIRS = np.array([[2, 3, 2, 3, 4, 4, 2, 3], [0, 0, 1, 1, 0, 1, 5, 5]])


def _device_sides_batch(planes, pu_m, limits: PowerLimits) -> tuple:
    """Free-coordinate range of the admissible segment on both device sides.

    Side 0 is P1 = P1max and side 1 is P2 = P2max.  The range lies above
    the crossing of each `_SIDE_PAIRS` pair where trace b rises faster than
    a, and below it where b rises slower; a pair running parallel with a
    above b bounds it from below at +inf, which empties the side.  Returns
    (lo, hi) as (side, entry) arrays and ``error``, True for an entry whose
    traces contradict the pre-test: a ceiling parallel to a floor, or rising
    above one floor and falling below the other, or a floor not rising.
    """
    fixed = np.array([limits.p1_max_w, limits.p2_max_w])[:, None]
    # Each trace's (-slope along the free coordinate, offset), per side.
    traces = np.empty((6, 2) + planes.shape[1:])
    np.negative(planes[:, ::-1], out=traces[:4, 0])
    np.multiply(planes, fixed, out=traces[:4, 1])
    traces[4:, 0] = 0.0
    traces[4, 1], traces[5, 1] = pu_m, limits.pu_max_w
    pair = traces.take(_SIDE_PAIRS, axis=0)
    # b's slope minus a's, and a's offset minus b's: (pair, side, entry).
    rise, gap = (pair[0] - pair[1]).transpose(1, 0, 2, 3)
    cross = gap / rise
    lower = rise >= 0.0
    error = np.concatenate([rise[:4] == 0.0, lower[0:4:2] != lower[1:4:2], lower[6:]]).any(axis=(0, 1))
    lo = np.fmax(np.fmax.reduce(np.where(lower, cross, np.nan), axis=0), 0.0)
    hi = np.fmin(np.fmin.reduce(np.where(lower, np.nan, cross), axis=0), fixed[::-1])
    return lo, hi, error


# A ridge point is x = pu_max (f_ay - u_ay) / det, y = pu_max (f_ax - u_ax) / -det.
_RIDGE_SIGNS = np.array([1.0, -1.0])[:, None]


def _ridges_on_cap(planes, pu_max: float) -> tuple:
    """Where the ridge of each ceiling, and of floor 2, with each floor
    pierces the plane Pu = pu_max: the (P1, P2) point as a (plane, floor,
    P1 or P2, entry) stack, and the ridge determinant ``det`` of each
    (plane, floor, entry).  A ceiling's ``det`` is positive where it rises
    along the cap curve and negative where it falls; floor 2's ridge with
    floor 4 is the floors' kink."""
    upper, floors = planes[:3, None], planes[2:]
    cross = upper * floors[:, ::-1]
    det = cross[:, :, 0] - cross[:, :, 1]
    point = pu_max * (floors - upper)[:, :, ::-1] / (det[:, :, None] * _RIDGE_SIGNS)
    return point, det


def _cap_interval_batch(point, det, floors, limits: PowerLimits) -> tuple:
    """P1 range of the admissible curve (higher floor == CU cap) on the cap
    side, from `_ridges_on_cap`: (lo, hi, ok), ``ok`` False where the cap
    side has no segment.

    A ceiling's ridge is solved against each floor branch; the real branch
    is the first whose other floor does not exceed the cap there.  A ceiling
    rising along the cap curve bounds it from below at its ridge, a falling
    one from above; the channel conditions fix the sign per ceiling, and the
    cap side is dropped where they do not.
    """
    pu_max = limits.pu_max_w
    point, sign = point[:2], np.sign(det[:2])
    other = floors[::-1]
    # A zero det puts the point at infinity or NaN, which fails both tests.
    hit = (other[:, 0] * point[:, :, 0] + other[:, 1] * point[:, :, 1] <= pu_max * (1.0 + REL_TOL)) & (
        np.minimum(point[:, :, 0], point[:, :, 1]) > -pu_max
    )
    x = np.where(hit[:, 0], point[:, 0, 0], point[:, 1, 0])
    rising = sign[:, 0] > 0.0
    found = (hit[:, 0] | hit[:, 1]) & (sign[:, 0] * sign[:, 1] > 0.0)
    ok = (floors[0, 0] > 0.0) & (floors[1, 0] > 0.0) & found[0] & found[1]
    entry = (pu_max - floors[:, 1] * limits.p2_max_w) / floors[:, 0]
    below, above = np.where(rising, x, np.nan), np.where(rising, np.nan, x)
    lo = np.fmax(np.fmax(below[0], below[1]), np.fmax(np.minimum(entry[0], entry[1]), 0.0))
    hi = np.fmin(np.fmin(above[0], above[1]), limits.p1_max_w)
    return lo, hi, ok


class Segments(NamedTuple):
    """The admissible segments of many (entry, order) pairs, and the pairs'
    constraints, in the stacked layout every step of the solve shares.

    Segments 0 to 3 lie on the P1max side, the P2max side and the two pieces
    of the CU-cap side; the second piece exists only where the floors' kink
    splits the cap curve.  ``ends`` holds each segment's (lo, hi) bounds of
    the free power (P2 on the P1max side, P1 elsewhere) as a (2, segment,
    entry) stack.  ``plane2`` is True where floor plane 2 rather than 4
    supplies Pu along a cap piece (meaningless on the device sides).
    ``error`` is True for an entry whose device-side traces contradict the
    pre-test.  ``planes`` is the `constraint_planes` stack, ``sic`` the
    `sic_coefficients`, ``gain_max`` the largest gain to the BS, ``pu_m``
    the CU floor power and ``m1_first`` True where the order is M1_FIRST.
    """

    ends: np.ndarray
    has: np.ndarray
    plane2: np.ndarray
    error: np.ndarray
    planes: np.ndarray
    sic: np.ndarray
    gain_max: np.ndarray
    pu_m: np.ndarray
    m1_first: np.ndarray


_ON_CAP = np.array([False, False, True, True])[:, None]


def segments(h, params: SystemParams, limits: PowerLimits, pu_m, m1_first) -> Segments:
    """The admissible segments on the outer box sides, with the stacked
    planes and SIC coefficients that every later step of the solve shares;
    arguments as in `fd_sic_batch`."""
    rows = gain_rows(h, params.eta1, params.eta2)
    planes = constraint_planes(rows, m1_first)
    p1_max, p2_max, pu_max = limits.p1_max_w, limits.p2_max_w, limits.pu_max_w
    tol = REL_TOL * max(p1_max, p2_max)
    lo_d, hi_d, error = _device_sides_batch(planes, pu_m, limits)
    point, det = _ridges_on_cap(planes, pu_max)
    lo_c, hi_c, has_cap = _cap_interval_batch(point, det, planes[2:], limits)
    # The CU-cap side splits into two pieces at the floors' kink.
    kink = point[2, 1, 0]
    ends = np.array([[lo_d[0], lo_d[1], lo_c, kink], [hi_d[0], hi_d[1], hi_c, hi_c]])
    has = ends[1] - ends[0] > -tol
    np.maximum(ends[1], ends[0], out=ends[1])
    has[2] &= has_cap
    split = has[2] & ~(point[2, 1, 1] <= 0.0) & (lo_c + tol < kink) & (kink < ends[1, 2] - tol)
    ends[1, 3] = ends[1, 2]
    np.copyto(ends[1, 2], kink, where=split)
    has[3] = split
    # The floor with the lower cap curve at a piece's middle supplies it.
    mid = 0.5 * (ends[0] + ends[1])
    cap_p2 = (pu_max - planes[2:, 0, None] * mid) / planes[2:, 1, None]
    gain_max = np.fmax(np.fmax(h[1], h[2]), h[5])
    sic = sic_coefficients(rows, m1_first)
    return Segments(ends, has, cap_p2[0] <= cap_p2[1], error, planes, sic, gain_max, pu_m, m1_first)


def _device_powers(seg: Segments, t, limits: PowerLimits):
    """The (p1, p2) stack at free coordinate ``t`` of each segment, ``t``
    shaped (..., segment, entry); on a cap piece P2 follows the piece's
    floor."""
    p = np.empty((2,) + np.shape(t))
    floor = np.where(seg.plane2, seg.planes[2, :, None], seg.planes[3, :, None])
    np.maximum(t, 0.0, out=p[0])
    np.maximum((limits.pu_max_w - floor[0] * t) / floor[1], 0.0, out=p[1])
    p[1, ..., 0, :] = p[0, ..., 0, :]
    p[0, ..., 0, :] = limits.p1_max_w
    p[1, ..., 1, :] = limits.p2_max_w
    return p


def side_points(seg: Segments, t, limits: PowerLimits):
    """The (p1, p2, pu) stack at free coordinate ``t`` of each segment, ``t``
    shaped (..., segment, entry).  On a cap piece Pu is the cap; on a device
    side it is the higher floor, or the CU floor power where that is higher
    still."""
    p = _device_powers(seg, t, limits)
    floors = seg.planes[2:].reshape((2, 2) + (1,) * (np.ndim(t) - 1) + seg.pu_m.shape)
    heights = plane_heights(floors, p[0], p[1])
    floor = np.maximum(np.maximum(heights[0], heights[1]), seg.pu_m)
    return np.concatenate([p, np.where(_ON_CAP, limits.pu_max_w, floor)[None]])


def segment_best(seg: Segments, h, params: SystemParams, limits: PowerLimits) -> tuple:
    """Each segment's best point as (upper, p, rate): ``upper`` True where it
    is the segment's upper end, and its ``rate``, as (segment, entry) arrays
    (both meaningless on an empty segment), and ``p`` the point's (p1, p2)
    stack.

    Along a device side the rate derivative carries the sign of a quadratic
    whose negative lobe is a single interval, so an end always wins.  Along
    a cap piece on floor 2 the log-rate in x = P1 is log(K0 + a x) -
    log(K0 - b x) - log(s + eta1 x) + const with b > 0; where its slope is
    0, its curvature is 2uv > 0 (u, v the slopes' sizes of the last two
    terms), so every stationary point is a minimum.  Floor 4 is the mirror
    case, and where P2 is clamped at 0 the rate rises.  So an end wins
    there too; of equal rates the lower end.
    """
    p = _device_powers(seg, seg.ends, limits)
    rates = sic_sum_rate(p[0], p[1], h[0], params)
    upper = rates[1] > rates[0]
    return upper, np.where(upper, p[:, 1], p[:, 0]), np.maximum(rates[0], rates[1])


# seg j is dropped as a duplicate of seg i only for i < j.
_EARLIER = np.tri(4, k=-1, dtype=bool)[..., None]


def fd_sic_batch(h, params: SystemParams, limits: PowerLimits, pu_m, m1_first) -> np.ndarray:
    """The optimal FD mutual-SIC allocation of many (entry, decoding order)
    pairs that pass `pretest`.

    ``h`` is a (6, n) gain block, rows in `model.GAIN_FIELDS` order, ``pu_m`` the
    pairs' CU floor powers and ``m1_first`` True where the order is
    M1_FIRST.  Returns the (4, n) stack of (p1, p2, pu, rate), with (0, 0, 0,
    -inf) where the pair has no certified point.

    The segments' best points (`segment_best`) are ranked by rate, and for
    each in turn the points `PULL_IN` of the way to its segment's middle are
    checked: the first that passes `_point_tests` is the answer.  The CU
    takes the lowest admissible power for the chosen device powers.  The
    first point in that order, the best segment's best point, is checked
    for every pair; only the pairs where it fails go through the rest.  The
    rate is `sic_sum_rate` at the chosen powers, which is the best point's
    where the chosen (p1, p2) equal it.  Every step runs on the stacks that
    `segments` forms once per call.
    """
    caps = np.array([limits.p1_max_w, limits.p2_max_w, limits.pu_max_w])[:, None]
    caps_tol = caps * (1.0 + REL_TOL)
    tol = REL_TOL * max(limits.p1_max_w, limits.p2_max_w)
    seg = segments(h, params, limits, pu_m, m1_first)
    upper, p, rates = segment_best(seg, h, params, limits)

    # Drop a segment whose best point lies within tol of a kept earlier one's,
    # then rank the rest by rate, ties to the earlier segment.  Dropping by any
    # earlier segment is exact unless a dropped one drops another; seg j
    # depends on segs 0 to j-1 only, so two more passes settle that.
    close = np.abs(p[:, :, None] - p[:, None]) <= tol
    earlier = close[0] & close[1] & _EARLIER
    kept = seg.has > (earlier & seg.has).any(axis=1)
    if (earlier & (seg.has > kept)).any():
        for _ in range(2):
            kept = seg.has > (earlier & kept).any(axis=1)
    ranked = np.where(kept, rates, -np.inf)

    # Each pair's answer as (p1, p2, pu, rate), first at its best point,
    # placed as `side_points` places it.
    n = len(pu_m)
    choice = ranked.argmax(axis=0)
    best = choice * n + np.arange(n)  # into the flattened (segment, pair) axes
    p_best = p.reshape(2, -1).take(best, axis=1)
    floors = plane_heights(seg.planes[2:], p_best[0], p_best[1])
    floor = np.maximum(np.maximum(floors[0], floors[1]), pu_m)
    answer = np.empty((4, n))
    points = answer[:3]
    np.minimum(p_best, caps[:2], out=points[:2])
    np.minimum(np.where(choice >= 2, limits.pu_max_w, floor), limits.pu_max_w, out=points[2])
    answer[3] = rates.take(best)
    usable = ~seg.error
    ok = _point_tests(seg, points, caps_tol) & kept.take(best) & usable

    # The rest: every pull-in step of every segment, as (step, segment,
    # pair), tried segments in rank order and steps within each.
    redo = np.flatnonzero(usable > ok)
    if redo.size:
        sub, m = seg._make(v[..., redo] for v in seg), len(redo)
        t_sub = np.where(upper[:, redo], sub.ends[1], sub.ends[0])
        steps = np.array(PULL_IN)[:, None, None]
        t_steps = t_sub + (0.5 * (sub.ends[0] + sub.ends[1]) - t_sub) * steps
        tries = np.minimum(side_points(sub, t_steps, limits), caps[..., None, None])
        lifted = sub._replace(planes=sub.planes[:, :, None, None], sic=sub.sic[:, None, None])
        passed = _point_tests(lifted, tries, caps_tol[..., None, None]) & kept[:, redo]
        rank = np.argsort(-ranked[:, redo], axis=0, kind="stable")
        sub_ent = np.arange(m)
        tried = passed[:, rank, sub_ent].transpose(1, 0, 2).reshape(-1, m)
        first = tried.argmax(axis=0)
        points[:, redo] = tries[:, first % len(PULL_IN), rank[first // len(PULL_IN), sub_ent], sub_ent]
        ok[redo] = tried.any(axis=0)
    moved = points[:2] != p_best
    if moved.any():
        moved = np.flatnonzero(ok & (moved[0] | moved[1]))
        answer[3, moved] = sic_sum_rate(points[0, moved], points[1, moved], h[0, moved], params)
    return np.where(ok, answer, _NO_ANSWER)


# What `fd_sic_batch` returns for a pair with no certified point.
_NO_ANSWER = np.array([0.0, 0.0, 0.0, -np.inf])[:, None]
