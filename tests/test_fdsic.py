import numpy as np
import pytest

import d2dpa.fdsic
from conftest import (
    make_limits,
    make_params,
    order_constraints,
    sample_fd_sic_feasible,
    sample_instances,
)
from d2dpa.fdsic import (
    REL_TOL,
    _ridges_on_cap,
    fd_sic_batch,
    pretest,
    segment_best,
    segments,
    side_points,
    sic_rate_margins,
)
from d2dpa.model import (
    ChannelGains,
    DecodingOrder,
    PowerLimits,
    PowerTriplet,
    ScenarioKind,
    SystemParams,
    dbm_to_watts,
    device_swap_stack,
    gain_block,
    pu_min,
    sic_sum_rate,
)
from d2dpa.sim import SimConfig, gains_from_deployment, generate_deployment, sample_combo_gains
from d2dpa.solvers import _fd_sic_table, solve_all, solve_fd_sic_order, sufficient_feasibility

ORDERS = (DecodingOrder.M2_FIRST, DecodingOrder.M1_FIRST)


def gains_of(hd, b1, b2, h1u, h2u, bu) -> ChannelGains:
    return ChannelGains(h_d=hd, h_b_d1=b1, h_b_d2=b2, h_d1_u=h1u, h_d2_u=h2u, h_b_u=bu)


# A synthetic instance where floor plane 2 dominates everywhere, so the
# single-branch closed forms apply at every named point.
PLANE2_GAINS = gains_of(hd=1e-6, b1=1e-5, b2=1e-5, h1u=1e-4, h2u=1e-4, bu=1e-7)


def plane2_params():
    p = make_params()
    return type(p)(
        bandwidth_hz=p.bandwidth_hz,
        noise_w=p.noise_w,
        eta1=2e-6,
        eta2=0.5e-6,
        r_u_min_bps=1.5e6,
    )


def channel_conditions(g: ChannelGains, params: SystemParams) -> tuple[bool, ...]:
    """The four channel-only inequalities any mutual-SIC solution needs, in
    either decoding order."""
    return (
        g.h_b_d1 * g.h_d2_u > g.h_d * g.h_b_u,
        g.h_d1_u * g.h_b_d2 > g.h_b_u * g.h_d,
        g.h_b_d1 * g.h_d1_u > params.eta1 * g.h_b_u,
        g.h_b_d2 * g.h_d2_u > params.eta2 * g.h_b_u,
    )


class TestNecessaryConditions:
    def test_simple_true_case(self):
        g = gains_of(hd=1.0, b1=2.0, b2=1.0, h1u=1.0, h2u=1.0, bu=1.0)
        params = make_params()
        assert channel_conditions(g, params)[0]  # 2*1 > 1*1
        # the same slack is the p1 coefficient of the last M2_FIRST SIC margin
        h = gain_block(g)[:, 0]
        margins = sic_rate_margins(h, params.eta1, params.eta2, False, 1.0, 0.0, 0.0)
        assert margins[3] == 2.0 * 1.0 - 1.0 * 1.0

    def test_high_residual_breaks_third(self, default_limits):
        g = gains_of(hd=0.1, b1=0.5, b2=1.0, h1u=0.5, h2u=1.0, bu=1.0)
        params = make_params()
        params = type(params)(
            bandwidth_hz=params.bandwidth_hz,
            noise_w=params.noise_w,
            eta1=0.5,
            eta2=params.eta2,
            r_u_min_bps=params.r_u_min_bps,
        )
        assert channel_conditions(g, params) == (True, True, False, True)  # 0.25 > 0.5 fails
        pm = pu_min(params, g.h_b_u)
        for order in ORDERS:
            assert not sufficient_feasibility(g, params, default_limits, pm, order)
            assert solve_fd_sic_order(g, params, default_limits, order) is None

    def test_matches_direct_inequalities(self, default_limits):
        # every pair the solver certifies, in either order, meets all four
        rng = np.random.default_rng(3)
        solved = 0
        for _ in range(200):
            hd, b1, b2, h1u, h2u, bu = np.exp(rng.uniform(np.log(1e-12), np.log(1e-3), 6))
            g = gains_of(hd, b1, b2, h1u, h2u, bu)
            params = make_params(eta_db=rng.uniform(-130, -80))
            for order in ORDERS:
                if solve_fd_sic_order(g, params, default_limits, order) is not None:
                    solved += 1
                    assert all(channel_conditions(g, params))
        assert solved > 20


class TestSufficientFeasibility:
    def test_wedge_condition_example(self):
        # strongly favourable channels: all conditions pass with wide margins
        g = gains_of(hd=2e-7, b1=1e-5, b2=1e-5, h1u=1e-3, h2u=1e-3, bu=1e-7)
        params = make_params(eta_db=-120.0)
        limits = make_limits()
        pm = pu_min(params, g.h_b_u)
        assert sufficient_feasibility(g, params, limits, pm, DecodingOrder.M2_FIRST)

    def test_unit_gain_wedge_inequality(self):
        # b1*h1u - e1*bu = 9 vs 2*hd*bu*b1/b2 = 4: the first wedge condition
        # holds at unit-scale gains with full residual self-interference
        g = gains_of(hd=2.0, b1=1.0, b2=1.0, h1u=10.0, h2u=50.0, bu=1.0)
        params = make_params()
        params = type(params)(
            bandwidth_hz=params.bandwidth_hz, noise_w=params.noise_w,
            eta1=1.0, eta2=1e-10, r_u_min_bps=0.0,
        )
        limits = PowerLimits(1.0, 1.0, 1.0)
        assert sufficient_feasibility(g, params, limits, 0.0, DecodingOrder.M2_FIRST)
        # shrinking the gap below the wedge threshold flips it
        g_bad = gains_of(hd=2.0, b1=1.0, b2=1.0, h1u=4.9, h2u=50.0, bu=1.0)
        assert not sufficient_feasibility(g_bad, params, limits, 0.0, DecodingOrder.M2_FIRST)

    def test_device_power_limit_breaks_it(self):
        g = gains_of(hd=2e-7, b1=1e-5, b2=1e-5, h1u=1e-3, h2u=1e-3, bu=1e-7)
        params = make_params(eta_db=-120.0)
        pm = pu_min(params, g.h_b_u)
        tiny_p1 = PowerLimits(pm * g.h_b_u / g.h_b_d1 * 0.99, 0.25, 0.25)
        assert not sufficient_feasibility(g, params, tiny_p1, pm, DecodingOrder.M2_FIRST)

    def test_unreachable_cu_floor_breaks_it(self):
        g = gains_of(hd=2e-7, b1=1e-5, b2=1e-5, h1u=1e-3, h2u=1e-3, bu=1e-7)
        params = make_params(eta_db=-120.0)
        pm = pu_min(params, g.h_b_u)
        capped = PowerLimits(0.25, 0.25, pm * 0.5)
        assert not sufficient_feasibility(g, params, capped, pm, DecodingOrder.M2_FIRST)

    def test_agrees_with_grid_emptiness(self, default_limits):
        from d2dpa.model import Scenario, ScenarioKind
        from d2dpa.oracle import GridSpec, brute_force

        def strict_witness_exists(gains, params, limits, pm, order) -> bool:
            """Exact feasibility certificate for regions too thin for any grid:
            scale up the lowest corner of the admissible wedge slightly and pick
            the CU power mid-way between floor and ceilings."""
            planes, _ = order_constraints(gains, params, order)
            f2, f4 = planes.floor2, planes.floor4
            if order is DecodingOrder.M2_FIRST:
                corner = (pm * gains.h_b_u / gains.h_b_d1, 2 * pm * gains.h_b_u / gains.h_b_d2)
            else:
                corner = (2 * pm * gains.h_b_u / gains.h_b_d1, pm * gains.h_b_u / gains.h_b_d2)
            for delta in (1e-9, 1e-6, 1e-3, 1e-1):
                x, y = corner[0] * (1 + delta), corner[1] * (1 + delta)
                if x > limits.p1_max_w or y > limits.p2_max_w:
                    continue
                lo = max(f2.height(x, y), f4.height(x, y), pm)
                hi = min(
                    planes.ceil1.height(x, y),
                    planes.ceil3.height(x, y),
                    limits.pu_max_w,
                )
                if lo >= hi:
                    continue
                pu = 0.5 * (lo + hi)
                strict = (
                    pu > f2.height(x, y)
                    and pu > f4.height(x, y)
                    and pu < planes.ceil1.height(x, y)
                    and pu < planes.ceil3.height(x, y)
                    and pm <= pu <= limits.pu_max_w
                )
                if strict:
                    return True
            return False

        for gains, params in sample_instances(seed=21, count=120):
            pm = pu_min(params, gains.h_b_u)
            for order in ORDERS:
                claimed = sufficient_feasibility(gains, params, default_limits, pm, order)
                found = brute_force(
                    Scenario(ScenarioKind.FD_SIC, order=order),
                    gains, params, default_limits, GridSpec(60),
                ) is not None
                if found and not claimed:
                    pytest.fail("grid found a point in a region declared empty")
                if claimed and not found:
                    assert strict_witness_exists(
                        gains, params, default_limits, pm, order
                    ), "declared non-empty but no witness point exists"


def test_array_predicates_match_their_one_entry_forms():
    """`sic_rate_margins` of an M1_FIRST pair is the M2_FIRST call with the
    devices swapped, bit for bit, on an array of mixed orders; and `pretest`
    on a whole gain block gives `sufficient_feasibility` of each entry, also
    where the CU floor power exceeds its cap."""
    rng = np.random.default_rng(12)
    n = 2_000
    h = np.exp(rng.uniform(np.log(1e-12), np.log(1e-3), (6, n)))
    e1, e2 = np.exp(rng.uniform(np.log(1e-13), np.log(1e-8), (2, n)))
    p1, p2, pu = rng.uniform(0.0, 0.25, (3, n))
    m1_first = rng.random(n) < 0.5
    got = sic_rate_margins(h, e1, e2, m1_first, p1, p2, pu)
    swapped = h[[0, 2, 1, 4, 3, 5]]
    m1 = sic_rate_margins(swapped, e2, e1, False, p2, p1, pu)
    m2 = sic_rate_margins(h, e1, e2, False, p1, p2, pu)
    want = np.where(m1_first, m1, m2)
    assert m1_first.any() and not m1_first.all()
    assert np.array(got).tobytes() == want.tobytes()

    cfg = SimConfig(trials=1, p_max_dbm=-5.0, r_u_min_bps=4e6)  # the tight_caps table
    params, limits = cfg.system_params(), cfg.power_limits()
    block = np.concatenate([
        gains_from_deployment(
            generate_deployment(cfg, np.random.SeedSequence((1, trial, 0))),
            cfg,
            np.random.SeedSequence((1, trial, 1)),
        )
        for trial in range(100)
    ], axis=1)  # (6, 100 D, K)
    pu_m = pu_min(params, block[5])
    over_cap = pu_m > limits.pu_max_w
    lifted = PowerLimits(limits.p1_max_w, limits.p2_max_w, 1e9)
    stack = device_swap_stack(block)
    # Some entries fail on the CU cap alone: they pass below a lifted cap.
    assert (pretest(stack, params, lifted, pu_m) & over_cap).any(axis=(1, 2)).all()
    both = pretest(stack, params, limits, pu_m)
    assert both.shape == (2, *pu_m.shape)
    for order, got in zip(ORDERS, both):
        want = [
            [sufficient_feasibility(ChannelGains(*g), params, limits, float(m), order)
             for g, m in zip(block[:, r].T, pu_m[r])]
            for r in range(block.shape[1])
        ]
        assert got.tolist() == want
        assert not got[over_cap].any()


def per_order_pretest(h, params, limits, pu_m, order):
    """The pre-test of one decoding order, M1_FIRST as M2_FIRST with the
    devices' gains, caps and SI factors swapped: the form `pretest` had
    before it took both orders on one device-swap stack."""
    h_d, h_b_d1, h_b_d2, h_d1_u, h_d2_u, h_b_u = h
    e1, e2 = params.eta1, params.eta2
    p1_max, p2_max = limits.p1_max_w, limits.p2_max_w
    if order is DecodingOrder.M1_FIRST:
        h_b_d1, h_b_d2, h_d1_u, h_d2_u = h_b_d2, h_b_d1, h_d2_u, h_d1_u
        e1, e2, p1_max, p2_max = e2, e1, p2_max, p1_max
    terms = (
        h_b_d1 * h_d1_u - e1 * h_b_u > 2.0 * h_d * h_b_u * h_b_d1 / h_b_d2,
        h_b_d1 * h_d2_u - h_b_u * h_d > 2.0 * h_b_u * e2 * h_b_d1 / h_b_d2,
        pu_m * h_b_u / h_b_d1 < p1_max,
        2.0 * pu_m * h_b_u / h_b_d2 < p2_max,
    )
    return np.logical_and.reduce((np.logical_not(pu_m > limits.pu_max_w), *terms))


def test_both_orders_pretest_equals_the_per_order_form():
    """`pretest` on the device-swap stack gives each order's mask of the
    per-order form bit for bit, on seeded campaign blocks whose caps and SI
    factors differ between the devices (so a missed swap shows), with both
    passing and failing entries in each order."""
    cfg = SimConfig(trials=1, eta_db=-130.0, d_max_m=200.0, pair_distance_law="fixed")
    block = np.concatenate([
        gains_from_deployment(
            generate_deployment(cfg, np.random.SeedSequence((3, trial, 0))),
            cfg,
            np.random.SeedSequence((3, trial, 1)),
        )
        for trial in range(60)
    ], axis=1)  # (6, 60 D, K)
    base = cfg.system_params()
    for eta1, eta2, p1_max, p2_max in ((1e-13, 1e-11, 0.25, 0.004), (3e-12, 2e-14, 0.01, 0.2)):
        params = SystemParams(base.bandwidth_hz, base.noise_w, eta1, eta2, base.r_u_min_bps)
        limits = PowerLimits(p1_max, p2_max, 0.25)
        pu_m = pu_min(params, block[5])
        both = pretest(device_swap_stack(block), params, limits, pu_m)
        for order, got in zip(ORDERS, both):
            want = per_order_pretest(block, params, limits, pu_m, order)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert 0 < want.sum() < want.size
        assert (both[0] != both[1]).any()


def pair_segments(gains, params, limits, order):
    """`segments` of one (combination, order) pair, as (segment, 1) arrays,
    with its one-entry gain block."""
    h = gain_block(gains)
    pm = np.array([pu_min(params, gains.h_b_u)])
    with np.errstate(all="ignore"):
        return segments(h, params, limits, pm, np.array([order is DecodingOrder.M1_FIRST])), h


def points_at(seg, t, limits):
    """`side_points` of every segment at free coordinates ``t`` (one per segment)."""
    with np.errstate(all="ignore"):
        return tuple(x[:, 0] for x in side_points(seg, np.asarray(t, dtype=float)[:, None], limits))


class TestPrintedEndpointForms:
    """Single-branch closed forms for the named intersection points, checked on
    an instance where floor plane 2 rules everywhere."""

    def setup_method(self):
        self.g = PLANE2_GAINS
        self.params = plane2_params()
        self.limits = make_limits()
        self.order = DecodingOrder.M2_FIRST
        self.planes, _ = order_constraints(self.g, self.params, self.order)
        self.seg, _ = pair_segments(self.g, self.params, self.limits, self.order)
        self.pm = pu_min(self.params, self.g.h_b_u)
        f2, f4 = self.planes.floor2, self.planes.floor4
        assert f2.ax >= f4.ax and f2.ay >= f4.ay
        assert self.seg.plane2[2:].all()
        assert sufficient_feasibility(self.g, self.params, self.limits, self.pm, self.order)

    def ridge(self, ceiling: int):
        """Where a ceiling's ridge pierces the CU cap: P1 from
        `_ridges_on_cap` on the floor-2 branch, which is real (floor 4 stays
        below the cap there), P2 on floor plane 2 there (it rules
        everywhere)."""
        f2, f4 = self.planes.floor2, self.planes.floor4
        pum = self.limits.pu_max_w
        with np.errstate(all="ignore"):  # floor 2's ridge with itself
            point, det = _ridges_on_cap(self.seg.planes, pum)
        x, y = point[ceiling, 0, :, 0]
        assert det[ceiling, 0, 0] != 0.0 and f4.height(x, y) <= pum * (1.0 + REL_TOL)
        return x, (pum - f2.ax * x) / f2.ay, pum

    def test_difference_ceiling_crossings(self):
        g, e1 = self.g, self.params.eta1
        hd, b1, b2, h1u, bu = g.h_d, g.h_b_d1, g.h_b_d2, g.h_d1_u, g.h_b_u
        pum = self.limits.pu_max_w
        den = h1u * b2 - bu * hd
        x_u = (
            pum * den / (b2 * e1 + hd * b1),
            pum * (bu * e1 + h1u * b1) / (b2 * e1 + hd * b1),
            pum,
        )
        assert self.ridge(0) == pytest.approx(x_u, rel=1e-12)

    def test_direct_ceiling_crossings(self):
        g, e1 = self.g, self.params.eta1
        hd, b1, h1u, bu = g.h_d, g.h_b_d1, g.h_d1_u, g.h_b_u
        pum = self.limits.pu_max_w
        den = b1 * h1u - e1 * bu
        s_u = (pum * bu / b1, pum * den / (b1 * hd), pum)
        assert self.ridge(1) == pytest.approx(s_u, rel=1e-12)

    def test_bottom_edge_points_via_interval_bounds(self):
        """The device-side segment bounds reduce to the bottom-edge closed
        forms when the box bottom dominates."""
        g = self.g
        b1, b2, bu = g.h_b_d1, g.h_b_d2, g.h_b_u
        p1m, p2m = self.limits.p1_max_w, self.limits.p2_max_w
        # raise the CU floor so its bottom-edge crossings bind
        params = type(self.params)(
            bandwidth_hz=self.params.bandwidth_hz,
            noise_w=self.params.noise_w,
            eta1=self.params.eta1,
            eta2=self.params.eta2,
            r_u_min_bps=8.0e6,
        )
        pm = pu_min(params, bu)
        seg, _ = pair_segments(g, params, self.limits, self.order)
        k1_y = (pm * bu + p1m * b1) / b2
        assert seg.ends[0, 0, 0] == pytest.approx(k1_y, rel=1e-12)
        j2_x = pm * bu / b1
        k2_x = (p2m * b2 - pm * bu) / b1
        assert seg.ends[0, 1, 0] == pytest.approx(j2_x, rel=1e-12)
        assert seg.ends[1, 1, 0] <= k2_x * (1 + 1e-12)

    def test_floor_edge_points(self):
        g, e1 = self.g, self.params.eta1
        hd, h1u = g.h_d, g.h_d1_u
        p1m, p2m, pum = self.limits.p1_max_w, self.limits.p2_max_w, self.limits.pu_max_w
        # the P1max side at P2 = P2max: the CU power is the floor at the corner
        v3 = (p1m * e1 + p2m * hd) / h1u
        assert v3 > self.pm
        _, _, pu = points_at(self.seg, [p2m, 0.0, 0.0, 0.0], self.limits)
        assert pu[0] == pytest.approx(v3, rel=1e-12)
        # the cap curve at P1 = P1max, and where it reaches P2 = P2max
        v4_y = (pum * h1u - p1m * e1) / hd
        v5_x = (pum * h1u - p2m * hd) / e1
        _, p2, pu = points_at(self.seg, [0.0, 0.0, p1m, v5_x], self.limits)
        assert p2[2] == pytest.approx(v4_y, rel=1e-12)
        assert p2[3] == pytest.approx(p2m, rel=1e-9)
        assert list(pu[2:]) == [pum, pum]


def segment_ends(seg, limits):
    """Each segment's (p1, p2, pu) at its lower and its upper end."""
    with np.errstate(all="ignore"):
        return side_points(seg, seg.ends[0], limits), side_points(seg, seg.ends[1], limits)


class TestSegments:
    def test_single_cap_segment_when_cap_tight(self):
        g = gains_of(hd=2e-7, b1=1e-5, b2=1e-5, h1u=1e-3, h2u=1e-3, bu=1e-7)
        params = make_params(eta_db=-120.0)
        pm = pu_min(params, g.h_b_u)
        limits = PowerLimits(0.25, 0.25, pm * 1.5)
        if not sufficient_feasibility(g, params, limits, pm, DecodingOrder.M2_FIRST):
            pytest.skip("cap too tight for this instance")
        seg, _ = pair_segments(g, params, limits, DecodingOrder.M2_FIRST)
        assert not seg.has[:2].any() and seg.has[2, 0]

    def test_single_device_segment_when_cap_loose(self):
        g = PLANE2_GAINS
        params = plane2_params()
        limits = PowerLimits(0.25, 0.25, 1e3)
        seg, _ = pair_segments(g, params, limits, DecodingOrder.M2_FIRST)
        assert seg.has.sum() == 1
        assert seg.has[:2].any()

    def test_endpoints_feasible(self, default_limits):
        for gains, params, order in sample_fd_sic_feasible(seed=77, count=60):
            pm = pu_min(params, gains.h_b_u)
            planes, margins = order_constraints(gains, params, order)
            seg, _ = pair_segments(gains, params, default_limits, order)
            for p1, p2, pu in segment_ends(seg, default_limits):
                for j in np.flatnonzero(seg.has[:, 0]):
                    pt = PowerTriplet(p1[j, 0], p2[j, 0], pu[j, 0])
                    assert pt.p1_w <= default_limits.p1_max_w * (1.0 + 1e-9)
                    assert pt.p2_w <= default_limits.p2_max_w * (1.0 + 1e-9)
                    assert pt.pu_w <= default_limits.pu_max_w * (1.0 + 1e-9)
                    scale = max(pt.pu_w, planes.ceil3.height(pt.p1_w, pt.p2_w), 1e-300)
                    pmc, _ = margins(pt.p1_w, pt.p2_w, pt.pu_w)
                    assert all(m >= -1e-9 * scale for m in pmc)
                    assert pt.pu_w >= pm * (1 - 1e-9)

    def test_split_cap_segments(self, default_limits):
        # a floor crossing inside the CU-cap curve breaks it into two pieces
        # riding different floor planes, meeting at the crossing point
        found = 0
        for gains, params, order in sample_fd_sic_feasible(seed=2468, count=200):
            seg, _ = pair_segments(gains, params, default_limits, order)
            if not seg.has[3, 0]:
                continue
            found += 1
            assert seg.has[2, 0]
            assert seg.plane2[2, 0] != seg.plane2[3, 0]
            assert seg.ends[1, 2, 0] == seg.ends[0, 3, 0]
            (p1, p2, _), _ = segment_ends(seg, default_limits)
            planes, _ = order_constraints(gains, params, order)
            for floor in (planes.floor2, planes.floor4):
                assert floor.height(p1[3, 0], p2[3, 0]) == pytest.approx(
                    default_limits.pu_max_w, rel=1e-6
                )
        assert found >= 5

    def test_segment_orientation(self, default_limits):
        for gains, params, order in sample_fd_sic_feasible(seed=78, count=40):
            seg, _ = pair_segments(gains, params, default_limits, order)
            (p1_lo, p2_lo, _), (p1_hi, p2_hi, _) = segment_ends(seg, default_limits)
            for j in np.flatnonzero(seg.has[:, 0]):
                assert seg.ends[0, j, 0] <= seg.ends[1, j, 0] * (1 + 1e-12) + 1e-300
                if j == 0:
                    assert p2_lo[j, 0] <= p2_hi[j, 0] * (1 + 1e-12)
                else:
                    assert p1_lo[j, 0] <= p1_hi[j, 0] * (1 + 1e-12)


class TestSideOptimization:
    def _dense_max(self, seg, j, gains, params, limits):
        ts = np.full((4, 100_001), np.nan)
        ts[j] = np.linspace(seg.ends[0, j, 0], seg.ends[1, j, 0], 100_001)
        with np.errstate(all="ignore"):
            p1, p2, _ = side_points(seg, ts, limits)
        return float(sic_sum_rate(p1[j], p2[j], gains.h_d, params).max())

    def test_degenerate_segment(self, default_limits):
        for gains, params, order in sample_fd_sic_feasible(seed=5, count=5):
            seg, h = pair_segments(gains, params, default_limits, order)
            degenerate = seg._replace(ends=seg.ends[[0, 0]])
            with np.errstate(all="ignore"):
                upper, *_ = segment_best(degenerate, h, params, default_limits)
            t = np.where(upper, degenerate.ends[1], degenerate.ends[0])
            for j in np.flatnonzero(seg.has[:2, 0]):
                assert t[j, 0] == seg.ends[0, j, 0]

    def test_matches_dense_sampling(self, default_limits):
        for gains, params, order in sample_fd_sic_feasible(seed=41, count=25):
            seg, h = pair_segments(gains, params, default_limits, order)
            with np.errstate(all="ignore"):
                *_, best = segment_best(seg, h, params, default_limits)
            overall = 0.0
            for j in np.flatnonzero(seg.has[:, 0]):
                dense = self._dense_max(seg, j, gains, params, default_limits)
                assert best[j, 0] >= dense - 1e-7 * max(dense, 1.0)
                overall = max(overall, dense)
            # the solve takes the best segment
            sol = solve_fd_sic_order(gains, params, default_limits, order)
            assert sol.r_d2d_bps >= overall - 1e-7 * max(overall, 1.0)

    def test_no_cap_piece_peaks_inside(self, default_limits):
        """Every stationary point of the rate along a cap piece is a minimum,
        so no sample of a piece beats its better end, strong residual
        self-interference included."""
        draws = sample_fd_sic_feasible(seed=43, count=150) + sample_fd_sic_feasible(
            seed=44, count=60, eta_db=-90.0
        )
        pieces = 0
        for gains, params, order in draws:
            seg, h = pair_segments(gains, params, default_limits, order)
            with np.errstate(all="ignore"):
                *_, best = segment_best(seg, h, params, default_limits)
            for j in np.flatnonzero(seg.has[2:, 0]) + 2:
                dense = self._dense_max(seg, j, gains, params, default_limits)
                assert dense <= best[j, 0] * (1.0 + 1e-9)
                pieces += 1
        assert pieces >= 100

    def test_vanishing_residual_prefers_upper_endpoint(self, default_limits):
        # without self-interference the rate grows with the free power
        for gains, params, order in sample_fd_sic_feasible(seed=55, count=10):
            clean = type(params)(
                bandwidth_hz=params.bandwidth_hz, noise_w=params.noise_w,
                eta1=1e-300, eta2=1e-300, r_u_min_bps=params.r_u_min_bps,
            )
            pm = pu_min(clean, gains.h_b_u)
            if not sufficient_feasibility(gains, clean, default_limits, pm, order):
                continue
            seg, h = pair_segments(gains, clean, default_limits, order)
            with np.errstate(all="ignore"):
                upper, *_ = segment_best(seg, h, clean, default_limits)
            t = np.where(upper, seg.ends[1], seg.ends[0])
            for j in np.flatnonzero(seg.has[:2, 0]):
                assert t[j, 0] == seg.ends[1, j, 0]


class TestSolveOrder:
    def test_absent_when_necessary_condition_fails(self, default_limits):
        g = gains_of(hd=1e-4, b1=1e-9, b2=1e-9, h1u=1e-9, h2u=1e-9, bu=1e-5)
        params = make_params()
        # every channel-only condition that mutual SIC needs fails
        assert not any(channel_conditions(g, params))
        for order in ORDERS:
            assert solve_fd_sic_order(g, params, default_limits, order) is None

    def test_solution_constraint_margins(self, default_limits):
        for gains, params, order in sample_fd_sic_feasible(seed=99, count=60):
            sol = solve_fd_sic_order(gains, params, default_limits, order)
            assert sol is not None
            p = sol.powers
            planes, margins = order_constraints(gains, params, order)
            pmc, sic = margins(p.p1_w, p.p2_w, p.pu_w)
            scale = max(p.pu_w, planes.ceil3.height(p.p1_w, p.p2_w), 1e-300)
            assert all(m >= -1e-9 * scale for m in pmc)
            sic_scale = max(gains.h_b_d1, gains.h_b_d2, gains.h_b_u) * max(
                p.p1_w, p.p2_w, p.pu_w
            )
            assert all(m >= -1e-9 * sic_scale for m in sic)
            assert p.p1_w <= default_limits.p1_max_w * (1.0 + 1e-9)
            assert p.p2_w <= default_limits.p2_max_w * (1.0 + 1e-9)
            assert p.pu_w <= default_limits.pu_max_w * (1.0 + 1e-9)
            assert sol.r_u_bps >= params.r_u_min_bps * (1 - 1e-9)

    def test_optimum_on_box_boundary(self, default_limits):
        for gains, params, order in sample_fd_sic_feasible(seed=23, count=60):
            sol = solve_fd_sic_order(gains, params, default_limits, order)
            p = sol.powers
            on_p1 = abs(p.p1_w - default_limits.p1_max_w) <= 1e-9 * default_limits.p1_max_w
            on_p2 = abs(p.p2_w - default_limits.p2_max_w) <= 1e-9 * default_limits.p2_max_w
            on_pu = abs(p.pu_w - default_limits.pu_max_w) <= 1e-9 * default_limits.pu_max_w
            assert on_p1 or on_p2 or on_pu

    def test_order_swap_metamorphic(self, default_limits):
        for gains, params, order in sample_fd_sic_feasible(seed=83, count=60):
            sol = solve_fd_sic_order(gains, params, default_limits, order)
            other = DecodingOrder.M1_FIRST if order is DecodingOrder.M2_FIRST else DecodingOrder.M2_FIRST
            mirrored = solve_fd_sic_order(
                gains.swapped_devices(),
                params.swapped_devices(),
                default_limits.swapped_devices(),
                other,
            )
            assert mirrored is not None
            assert mirrored.r_d2d_bps == pytest.approx(sol.r_d2d_bps, rel=1e-9)
            assert mirrored.powers.p1_w == pytest.approx(sol.powers.p2_w, rel=1e-9)
            assert mirrored.powers.p2_w == pytest.approx(sol.powers.p1_w, rel=1e-9)

    def test_pmc_implies_sic_conditions(self):
        rng = np.random.default_rng(2)
        n = 200_000
        def lu(lo, hi, size):
            return np.exp(rng.uniform(np.log(lo), np.log(hi), size))

        hd, b1, b2, h1u, h2u, bu = (lu(1e-12, 1e-2, n) for _ in range(6))
        e1, e2 = lu(1e-13, 1e-8, n), lu(1e-13, 1e-8, n)
        p1, p2, pu = lu(1e-6, 0.25, n), lu(1e-6, 0.25, n), lu(1e-6, 0.25, n)
        for order in ORDERS:
            if order is DecodingOrder.M2_FIRST:
                m = (pu * bu < p2 * b2 - p1 * b1) & (pu * h1u > p2 * hd + p1 * e1)
                m &= (pu * bu < p1 * b1) & (pu * h2u > p1 * hd + p2 * e2)
            else:
                m = (pu * bu < p1 * b1 - p2 * b2) & (pu * h1u > p2 * hd + p1 * e1)
                m &= (pu * bu < p2 * b2) & (pu * h2u > p1 * hd + p2 * e2)
            assert m.sum() > 100
            h = tuple(x[m] for x in (hd, b1, b2, h1u, h2u, bu))
            margins = sic_rate_margins(
                h, e1[m], e2[m], order is DecodingOrder.M1_FIRST, p1[m], p2[m], pu[m]
            )
            assert all((v > 0.0).all() for v in margins)

    def test_scaling_improves_rate(self):
        rng = np.random.default_rng(44)
        for _ in range(500):
            g = gains_of(*np.exp(rng.uniform(np.log(1e-10), np.log(1e-4), 6)))
            params = make_params(eta_db=rng.uniform(-130, -80))
            p1, p2 = rng.uniform(1e-6, 0.2, 2)
            beta = rng.uniform(1.0 + 1e-6, 5.0)
            r0 = sic_sum_rate(p1, p2, g.h_d, params)
            r1 = sic_sum_rate(beta * p1, beta * p2, g.h_d, params)
            assert r1 > r0


    def test_every_pull_in_step_failing_means_infeasible(self):
        """Both orders pass the pre-test, but M1_FIRST has no point that passes
        the exact check at any pull-in step: that order is infeasible, and
        FD-SIC keeps the better of M2_FIRST and the no-SIC allocation."""
        g, params, limits = UNCERTIFIABLE
        pm = pu_min(params, g.h_b_u)
        assert all(sufficient_feasibility(g, params, limits, pm, o) for o in ORDERS)
        assert solve_fd_sic_order(g, params, limits, DecodingOrder.M1_FIRST) is None
        m2 = solve_fd_sic_order(g, params, limits, DecodingOrder.M2_FIRST)
        assert m2.r_d2d_bps == pytest.approx(24801.826, abs=1e-3)
        sols = solve_all(g, params, limits)
        fd_sic, fd_nosic = sols[ScenarioKind.FD_SIC], sols[ScenarioKind.FD_NOSIC]
        assert fd_sic.feasible and not fd_sic.sic_applied
        assert fd_sic.r_d2d_bps == fd_nosic.r_d2d_bps == pytest.approx(569485.397, abs=1e-3)
        assert fd_sic.powers == fd_nosic.powers


def _batch(pairs, params, limits):
    gains = [g for g, _ in pairs]
    pu_m = np.array([pu_min(params, g.h_b_u) for g in gains])
    m1_first = np.array([o is DecodingOrder.M1_FIRST for _, o in pairs])
    with np.errstate(all="ignore"):
        return fd_sic_batch(gain_block(*gains), params, limits, pu_m, m1_first)


def _table_rates(gains, params, limits):
    """`_fd_sic_table`'s rates on a 1 x N table of the given combinations."""
    h = gain_block(*gains)[:, None]
    pu_m = np.array([[pu_min(params, g.h_b_u) for g in gains]])
    passes = [
        np.array([[sufficient_feasibility(g, params, limits, pu_m[0, i], o)
                   for i, g in enumerate(gains)]])
        for o in ORDERS
    ]
    with np.errstate(all="ignore"):
        return _fd_sic_table(h, params, limits, pu_m, passes)[3][0]


# A fig4a combination whose best M2_FIRST point fails the exact check where
# it lies, so the solve pulls it inward.
SLIVER_GAINS = ChannelGains(
    4.6392498409731775e-07, 1.6300399463133556e-08, 2.7504924007826522e-06,
    1.687819901737155e-11, 4.681732167036908e-11, 1.2740316066043791e-12,
)


# Gains, parameters and limits whose M1_FIRST order passes the pre-test,
# but no pull-in step of any segment passes the exact check.
UNCERTIFIABLE = (
    ChannelGains(1.79e-14, 1.65e-13, 4.33e-6, 4.59e-5, 2.15e-13, 4.88e-14),
    SystemParams(312.5e3, dbm_to_watts(-119.0), 1.92e-5, 1.04e-6, 0.0),
    PowerLimits(0.1258, 0.1784, 0.002154),
)
# A combination whose best M1_FIRST point fails the exact check under the
# parameters and limits of UNCERTIFIABLE, so the solve pulls it inward.
UNCERTIFIABLE_FRAME_SLIVER = ChannelGains(
    5.680059968985653e-10, 5.818716837894514e-07, 6.024459273276897e-08,
    3.5791554551840535e-09, 4.490623680156154e-10, 8.178430572311748e-12,
)


def _best_points(pairs, params, limits):
    """(p1, p2) of each pair's best segment point, before any check."""
    gains = [g for g, _ in pairs]
    pu_m = np.array([pu_min(params, g.h_b_u) for g in gains])
    m1_first = np.array([o is DecodingOrder.M1_FIRST for _, o in pairs])
    h = gain_block(*gains)
    with np.errstate(all="ignore"):
        seg = segments(h, params, limits, pu_m, m1_first)
        _, (p1s, p2s), rates = segment_best(seg, h, params, limits)
    best = np.where(seg.has, rates, -np.inf).argmax(axis=0), np.arange(len(pairs))
    return p1s[best].tolist(), p2s[best].tolist()


def _certified_at_best(count, params, limits, seed):
    """``count`` (gains, order) pairs, drawn from the campaign distribution,
    whose best segment point passes the exact check."""
    rng, layout = np.random.default_rng(seed), SimConfig(k_users=1, d_pairs=1, trials=1)
    out = []
    while len(out) < count:
        g = sample_combo_gains(rng, layout)
        pm = pu_min(params, g.h_b_u)
        for o in ORDERS:
            if sufficient_feasibility(g, params, limits, pm, o):
                p1, p2, _, rate = _batch([(g, o)], params, limits)
                at_best = [p1.tolist(), p2.tolist()] == list(_best_points([(g, o)], params, limits))
                if rate[0] > -np.inf and at_best:
                    out.append((g, o))
    return out[:count]


def _bits(arrays) -> list[bytes]:
    return [np.asarray(x, dtype=float).tobytes() for x in arrays]


def far_pairs_stream(count):
    """The first ``count`` (entry, order) pairs that trials 0, 1, ... of the
    far-pairs campaign (master seed 1) send to `fd_sic_batch`, as (h, pu_m,
    m1_first, params, limits)."""
    cfg = SimConfig(trials=1, eta_db=-130.0, d_max_m=200.0, pair_distance_law="fixed")
    params, limits = cfg.system_params(), cfg.power_limits()
    hs, pu_ms, orders = [], [], []
    trial = 0
    while sum(map(len, orders)) < count:
        h = gains_from_deployment(
            generate_deployment(cfg, np.random.SeedSequence((1, trial, 0))),
            cfg,
            np.random.SeedSequence((1, trial, 1)),
        )
        pu_m = pu_min(params, h[5])
        order, *idx = np.nonzero(pretest(device_swap_stack(h), params, limits, pu_m))
        hs.append(h[(slice(None), *idx)])
        pu_ms.append(pu_m[tuple(idx)])
        orders.append(order == 1)
        trial += 1
    pairs = (np.concatenate(hs, axis=1), np.concatenate(pu_ms), np.concatenate(orders))
    return (pairs[0][:, :count], pairs[1][:count], pairs[2][:count], params, limits)


class TestBatch:
    """`fd_sic_batch` solves many (entry, order) pairs with numpy."""

    @pytest.mark.parametrize(
        "params, limits, specials, first_rate",
        [
            (make_params(), make_limits(), [(SLIVER_GAINS, DecodingOrder.M2_FIRST)],
             7669260.4318521125),
            (*UNCERTIFIABLE[1:], [(UNCERTIFIABLE[0], DecodingOrder.M1_FIRST),
                                  (UNCERTIFIABLE_FRAME_SLIVER, DecodingOrder.M1_FIRST)], -np.inf),
        ],
        ids=["default", "uncertifiable"],
    )
    def test_second_round_pairs_match_their_own_solve(self, params, limits, specials, first_rate):
        """Pairs whose best point fails the exact check, placed first, in the
        middle and last among pairs whose best point passes, get the bits
        of their own one-pair solve, and so do the others."""
        for pair in specials:  # each needs the second round
            p1, p2, _, _ = _batch([pair], params, limits)
            assert [p1.tolist(), p2.tolist()] != list(_best_points([pair], params, limits))
        assert _batch(specials[:1], params, limits)[3][0] == first_rate
        passing = _certified_at_best(20, params, limits, seed=17)
        pairs = specials + passing[:10] + specials + passing[10:] + specials
        together = _batch(pairs, params, limits)
        for j, pair in enumerate(pairs):
            alone = _batch([pair], params, limits)
            assert _bits(x[j : j + 1] for x in together) == _bits(alone), j

    def test_edge_batch_sizes(self):
        """No pairs give four empty rows, and each pair alone gets the bits
        of its slot in a 64-pair batch of the far-pairs call stream, in
        either decoding order."""
        h, pu_m, m1_first, params, limits = far_pairs_stream(64)
        with np.errstate(all="ignore"):
            empty = fd_sic_batch(h[:, :0], params, limits, pu_m[:0], m1_first[:0])
            together = fd_sic_batch(h, params, limits, pu_m, m1_first)
            assert [np.shape(x) for x in empty] == [(0,)] * 4
            for order in (False, True):
                assert (together[3, m1_first == order] > 0.0).any()
            for j in range(64):
                alone = fd_sic_batch(h[:, j : j + 1], params, limits, pu_m[j : j + 1], m1_first[j : j + 1])
                assert _bits(x[j : j + 1] for x in together) == _bits(alone), j

    def test_failed_validation_is_pulled_inward(self):
        params, limits = make_params(), make_limits()
        seg, h = pair_segments(SLIVER_GAINS, params, limits, DecodingOrder.M2_FIRST)
        with np.errstate(all="ignore"):
            *_, best = segment_best(seg, h, params, limits)
        best = np.where(seg.has, best, -np.inf)
        p1, p2, pu, rate = _batch([(SLIVER_GAINS, DecodingOrder.M2_FIRST)], params, limits)
        assert (p1[0], p2[0], pu[0], rate[0]) == (
            2.5346017837828786e-05, 9.138025748011284e-06, 0.251188643150958, 7669260.4318521125
        )
        assert rate[0] < best.max()  # the certified point lies inward
        # M1_FIRST fails the pre-test, so the table keeps M2_FIRST's rate
        assert _table_rates([SLIVER_GAINS], params, limits)[0] == rate[0]

    def test_coincident_segment_points_keep_the_earlier_one(self):
        """Both cap pieces' best points are the kink between them, computed
        on each piece's floor plane: within tol of each other, and the later
        one rates higher by rounding alone.  The later one is dropped, so the
        earlier piece's form is the answer."""
        params = SystemParams(
            312500.0, dbm_to_watts(-119.0), 4.0597357731053253e-10, 8.367863976289144e-13, 5e5
        )
        limits = PowerLimits(0.002026978183441201, 0.0034410800028905585, 0.0023873924501119875)
        gains = ChannelGains(
            4.96949010040924e-08, 1.0416436368039375e-08, 1.2266721473879634e-05,
            2.315092144117486e-11, 6.408225456508019e-10, 1.2925667695069568e-10,
        )
        seg, h = pair_segments(gains, params, limits, DecodingOrder.M2_FIRST)
        with np.errstate(all="ignore"):
            _, (p1s, p2s), rates = segment_best(seg, h, params, limits)
        tol = REL_TOL * max(limits.p1_max_w, limits.p2_max_w)
        assert seg.has[2:, 0].all()
        assert abs(p1s[3, 0] - p1s[2, 0]) <= tol and abs(p2s[3, 0] - p2s[2, 0]) <= tol
        assert rates[3, 0] > rates[2, 0]
        p1, p2, pu, rate = _batch([(gains, DecodingOrder.M2_FIRST)], params, limits)
        assert (p1[0], p2[0], pu[0], rate[0]) == (
            3.078573769579791e-05, 8.606947218944556e-07, 0.0023873924501119875, 3839438.995738147
        )

    def test_geometry_error_counts_as_infeasible(self, monkeypatch):
        """A flat floor plane contradicts the pre-test on a device side: the
        batch marks that entry infeasible and leaves the others unchanged."""
        params, limits = make_params(), make_limits()
        rng, layout = np.random.default_rng(3), SimConfig(k_users=1, d_pairs=1, trials=1)
        gains = []
        while len(gains) < 4:
            g = sample_combo_gains(rng, layout)
            pm = pu_min(params, g.h_b_u)
            if all(sufficient_feasibility(g, params, limits, pm, o) for o in ORDERS):
                gains.append(g)
        pairs = [(g, o) for g in gains for o in ORDERS]
        want = np.array(_batch(pairs, params, limits))
        want_rates = _table_rates(gains, params, limits)
        assert (want[3] > 0.0).all()
        broken = gains[1].h_d
        real = d2dpa.fdsic.constraint_planes

        def flat_floor4(rows, m1_first):
            planes = real(rows, m1_first)
            planes[3] *= rows[0] != broken
            return planes

        monkeypatch.setattr(d2dpa.fdsic, "constraint_planes", flat_floor4)
        got = np.array(_batch(pairs, params, limits))
        assert got[:, 2:4].tolist() == [[0.0, 0.0]] * 3 + [[-np.inf, -np.inf]]
        others = [0, 1, 4, 5, 6, 7]
        assert got[:, others].tolist() == want[:, others].tolist()
        rates = _table_rates(gains, params, limits)
        assert rates[1] == -np.inf
        assert [rates[i] for i in (0, 2, 3)] == [want_rates[i] for i in (0, 2, 3)]
