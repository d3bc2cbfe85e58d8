import numpy as np
import pytest

import d2dpa.fdsic
from conftest import make_limits, make_params, sample_fd_sic_feasible, sample_instances
from d2dpa.fdsic import (
    FloorPlane,
    GeometryError,
    Plane,
    Side,
    fd_sic_batch,
    floor_selector,
    necessary_conditions,
    optimize_box_side,
    optimize_su_side,
    planes_for_order,
    pmc_margins,
    segment_set,
    sic_rate_margins,
    solve_fd_sic_order,
    sufficient_feasibility,
)
from d2dpa.model import (
    ChannelGains,
    DecodingOrder,
    PowerLimits,
    SystemParams,
    dbm_to_watts,
    fd_sic_d2d_rate,
    pu_min,
)
from d2dpa.sim import SimConfig, sample_combo_gains
from d2dpa.solvers import _best_sic_order, _fd_sic_table

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


class TestNecessaryConditions:
    def test_simple_true_case(self):
        g = gains_of(hd=1.0, b1=2.0, b2=1.0, h1u=1.0, h2u=1.0, bu=1.0)
        conds = necessary_conditions(g, make_params())
        assert conds[0]  # 2*1 > 1*1

    def test_high_residual_breaks_third(self):
        g = gains_of(hd=0.1, b1=0.5, b2=1.0, h1u=0.5, h2u=1.0, bu=1.0)
        params = make_params()
        params = type(params)(
            bandwidth_hz=params.bandwidth_hz,
            noise_w=params.noise_w,
            eta1=0.5,
            eta2=params.eta2,
            r_u_min_bps=params.r_u_min_bps,
        )
        assert not necessary_conditions(g, params)[2]  # 0.25 > 0.5 fails

    def test_matches_direct_inequalities(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            hd, b1, b2, h1u, h2u, bu = np.exp(rng.uniform(np.log(1e-12), np.log(1e-3), 6))
            g = gains_of(hd, b1, b2, h1u, h2u, bu)
            params = make_params(eta_db=rng.uniform(-130, -80))
            e1, e2 = params.eta1, params.eta2
            expect = (
                b1 * h2u > hd * bu,
                h1u * b2 > bu * hd,
                b1 * h1u > e1 * bu,
                b2 * h2u > e2 * bu,
            )
            assert necessary_conditions(g, params) == expect


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
            planes = planes_for_order(gains, params, order)
            sel = floor_selector(gains, params)
            if order is DecodingOrder.M2_FIRST:
                corner = (pm * gains.h_b_u / gains.h_b_d1, 2 * pm * gains.h_b_u / gains.h_b_d2)
            else:
                corner = (2 * pm * gains.h_b_u / gains.h_b_d1, pm * gains.h_b_u / gains.h_b_d2)
            for delta in (1e-9, 1e-6, 1e-3, 1e-1):
                x, y = corner[0] * (1 + delta), corner[1] * (1 + delta)
                if x > limits.p1_max_w or y > limits.p2_max_w:
                    continue
                lo = max(sel.height(x, y), pm)
                hi = min(
                    planes.ceil1.height(x, y),
                    planes.ceil3.height(x, y),
                    limits.pu_max_w,
                )
                if lo >= hi:
                    continue
                pu = 0.5 * (lo + hi)
                strict = (
                    pu > sel.floor2.height(x, y)
                    and pu > sel.floor4.height(x, y)
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


class TestFloorSelector:
    def test_floor_is_elementwise_max(self):
        rng = np.random.default_rng(9)
        for gains, params in sample_instances(seed=9, count=50):
            sel = floor_selector(gains, params)
            p1, p2 = rng.uniform(0.0, 0.25, 2)
            assert sel.height(p1, p2) == max(sel.floor2.height(p1, p2), sel.floor4.height(p1, p2))


class TestPrintedEndpointForms:
    """Single-branch closed forms for the named intersection points, checked on
    an instance where floor plane 2 rules everywhere."""

    def setup_method(self):
        self.g = PLANE2_GAINS
        self.params = plane2_params()
        self.limits = make_limits()
        self.order = DecodingOrder.M2_FIRST
        self.planes = planes_for_order(self.g, self.params, self.order)
        self.sel = floor_selector(self.g, self.params)
        self.pm = pu_min(self.params, self.g.h_b_u)
        f2, f4 = self.planes.floor2, self.planes.floor4
        assert f2.ax >= f4.ax and f2.ay >= f4.ay
        assert sufficient_feasibility(self.g, self.params, self.limits, self.pm, self.order)

    def test_difference_ceiling_crossings(self):
        from d2dpa.fdsic import _ridge_on_cap

        g, e1 = self.g, self.params.eta1
        hd, b1, b2, h1u, bu = g.h_d, g.h_b_d1, g.h_b_d2, g.h_d1_u, g.h_b_u
        pum = self.limits.pu_max_w
        den = h1u * b2 - bu * hd
        x_u = (
            pum * den / (b2 * e1 + hd * b1),
            pum * (bu * e1 + h1u * b1) / (b2 * e1 + hd * b1),
            pum,
        )
        got = _ridge_on_cap(self.planes.ceil1, self.sel, pum)
        assert got == pytest.approx(x_u, rel=1e-12)

    def test_direct_ceiling_crossings(self):
        from d2dpa.fdsic import _ridge_on_cap

        g, e1 = self.g, self.params.eta1
        hd, b1, h1u, bu = g.h_d, g.h_b_d1, g.h_d1_u, g.h_b_u
        pum = self.limits.pu_max_w
        den = b1 * h1u - e1 * bu
        s_u = (pum * bu / b1, pum * den / (b1 * hd), pum)
        got = _ridge_on_cap(self.planes.ceil3, self.sel, pum)
        assert got == pytest.approx(s_u, rel=1e-12)

    def test_bottom_edge_points_via_interval_bounds(self):
        """The P1-side interval bounds reduce to the bottom-edge closed forms
        when the box bottom dominates."""
        from d2dpa.fdsic import _device_side_interval

        g, e1 = self.g, self.params.eta1
        hd, b1, b2, h1u, bu = g.h_d, g.h_b_d1, g.h_b_d2, g.h_d1_u, g.h_b_u
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
        lo, hi = _device_side_interval(Side.P1_MAX, self.planes, self.sel, self.limits, pm)
        k1_y = (pm * bu + p1m * b1) / b2
        assert lo == pytest.approx(k1_y, rel=1e-12)
        lo, hi = _device_side_interval(Side.P2_MAX, self.planes, self.sel, self.limits, pm)
        j2_x = pm * bu / b1
        k2_x = (p2m * b2 - pm * bu) / b1
        assert lo == pytest.approx(j2_x, rel=1e-12)
        assert hi <= k2_x * (1 + 1e-12)

    def test_floor_edge_points(self):
        g, e1, e2 = self.g, self.params.eta1, self.params.eta2
        hd, h1u, h2u = g.h_d, g.h_d1_u, g.h_d2_u
        p1m, p2m, pum = self.limits.p1_max_w, self.limits.p2_max_w, self.limits.pu_max_w
        v3 = (p1m * e1 + p2m * hd) / h1u
        assert self.sel.height(p1m, p2m) == pytest.approx(v3, rel=1e-12)
        v4_y = (pum * h1u - p1m * e1) / hd
        from d2dpa.fdsic import _cap_curve_p2

        assert _cap_curve_p2(self.sel, FloorPlane.PLANE2, p1m, pum) == pytest.approx(
            v4_y, rel=1e-12
        )
        v5_x = (pum * h1u - p2m * hd) / e1
        y_at_v5 = _cap_curve_p2(self.sel, FloorPlane.PLANE2, v5_x, pum)
        assert y_at_v5 == pytest.approx(p2m, rel=1e-9)


class TestSegments:
    def test_single_cap_segment_when_cap_tight(self):
        g = gains_of(hd=2e-7, b1=1e-5, b2=1e-5, h1u=1e-3, h2u=1e-3, bu=1e-7)
        params = make_params(eta_db=-120.0)
        pm = pu_min(params, g.h_b_u)
        limits = PowerLimits(0.25, 0.25, pm * 1.5)
        if not sufficient_feasibility(g, params, limits, pm, DecodingOrder.M2_FIRST):
            pytest.skip("cap too tight for this instance")
        segs = segment_set(g, params, limits, pm, DecodingOrder.M2_FIRST)
        assert {s.side for s in segs} == {Side.PU_MAX}

    def test_single_device_segment_when_cap_loose(self):
        g = PLANE2_GAINS
        params = plane2_params()
        limits = PowerLimits(0.25, 0.25, 1e3)
        pm = pu_min(params, g.h_b_u)
        segs = segment_set(g, params, limits, pm, DecodingOrder.M2_FIRST)
        assert len(segs) == 1
        assert segs[0].side in (Side.P1_MAX, Side.P2_MAX)

    def test_endpoints_feasible(self, default_limits):
        for gains, params, order in sample_fd_sic_feasible(seed=77, count=60):
            pm = pu_min(params, gains.h_b_u)
            planes = planes_for_order(gains, params, order)
            for seg in segment_set(gains, params, default_limits, pm, order):
                for pt in (seg.endpoint_lo, seg.endpoint_hi):
                    assert pt.within(default_limits, rel_tol=1e-9)
                    scale = max(pt.pu_w, planes.ceil3.height(pt.p1_w, pt.p2_w), 1e-300)
                    margins = pmc_margins(planes, pt.p1_w, pt.p2_w, pt.pu_w)
                    assert all(m >= -1e-9 * scale for m in margins)
                    assert pt.pu_w >= pm * (1 - 1e-9)

    def test_split_cap_segments(self, default_limits):
        # a floor crossing inside the CU-cap curve breaks it into two pieces
        # riding different floor planes, meeting at the crossing point
        found = 0
        for gains, params, order in sample_fd_sic_feasible(seed=2468, count=200):
            pm = pu_min(params, gains.h_b_u)
            segs = segment_set(gains, params, default_limits, pm, order)
            caps = [s for s in segs if s.side is Side.PU_MAX]
            if len(caps) != 2:
                continue
            found += 1
            a, b = sorted(caps, key=lambda s: s.lo)
            assert a.branch is not b.branch
            assert a.hi == b.lo
            sel = floor_selector(gains, params)
            kink = a.endpoint_hi
            assert sel.floor2.height(kink.p1_w, kink.p2_w) == pytest.approx(
                default_limits.pu_max_w, rel=1e-6
            )
            assert sel.floor4.height(kink.p1_w, kink.p2_w) == pytest.approx(
                default_limits.pu_max_w, rel=1e-6
            )
        assert found >= 5

    def test_segment_orientation(self, default_limits):
        for gains, params, order in sample_fd_sic_feasible(seed=78, count=40):
            pm = pu_min(params, gains.h_b_u)
            for seg in segment_set(gains, params, default_limits, pm, order):
                assert seg.lo <= seg.hi * (1 + 1e-12) + 1e-300
                if seg.side is Side.P1_MAX:
                    assert seg.endpoint_lo.p2_w <= seg.endpoint_hi.p2_w * (1 + 1e-12)
                else:
                    assert seg.endpoint_lo.p1_w <= seg.endpoint_hi.p1_w * (1 + 1e-12)


class TestSideOptimization:
    def _dense_argmax(self, seg, gains, params, pu_max):
        ts = np.linspace(seg.lo, seg.hi, 100_001)
        if seg.side is Side.P1_MAX:
            p1v = np.full(ts.shape, fill_value=float(seg.endpoint_lo.p1_w))
            p2v = ts
        elif seg.side is Side.P2_MAX:
            p1v = ts
            p2v = np.full(ts.shape, fill_value=float(seg.endpoint_lo.p2_w))
        else:
            sel = floor_selector(gains, params)
            f = sel.plane(seg.branch)
            p1v = ts
            p2v = np.maximum((pu_max - f.ax * ts) / f.ay, 0.0)
        s = params.noise_w
        rates = params.bandwidth_hz * (
            np.log2(1 + p1v * gains.h_d / (params.eta2 * p2v + s))
            + np.log2(1 + p2v * gains.h_d / (params.eta1 * p1v + s))
        )
        return float(rates.max())

    def test_degenerate_segment(self, default_limits):
        for gains, params, order in sample_fd_sic_feasible(seed=5, count=5):
            pm = pu_min(params, gains.h_b_u)
            segs = segment_set(gains, params, default_limits, pm, order)
            seg = segs[0]
            if seg.side is Side.PU_MAX:
                continue
            from dataclasses import replace

            degenerate = replace(seg, hi=seg.lo, endpoint_hi=seg.endpoint_lo)
            p1, p2, rate = optimize_box_side(degenerate, gains, params)
            assert (p1, p2) == (seg.endpoint_lo.p1_w, seg.endpoint_lo.p2_w)

    def test_matches_dense_sampling(self, default_limits):
        for gains, params, order in sample_fd_sic_feasible(seed=41, count=25):
            pm = pu_min(params, gains.h_b_u)
            for seg in segment_set(gains, params, default_limits, pm, order):
                if seg.side is Side.PU_MAX:
                    best = optimize_su_side(seg, gains, params, default_limits.pu_max_w)
                else:
                    best = optimize_box_side(seg, gains, params)
                dense = self._dense_argmax(seg, gains, params, default_limits.pu_max_w)
                assert best[2] >= dense - 1e-7 * max(dense, 1.0)

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
            for seg in segment_set(gains, clean, default_limits, pm, order):
                if seg.side is Side.PU_MAX:
                    continue
                p1, p2, rate = optimize_box_side(seg, gains, clean)
                hi = seg.endpoint_hi
                assert (p1, p2) == (hi.p1_w, hi.p2_w)


class TestSolveOrder:
    def test_absent_when_necessary_condition_fails(self, default_limits):
        g = gains_of(hd=1e-4, b1=1e-9, b2=1e-9, h1u=1e-9, h2u=1e-9, bu=1e-5)
        params = make_params()
        assert not any(necessary_conditions(g, params))
        for order in ORDERS:
            assert solve_fd_sic_order(g, params, default_limits, order) is None

    def test_solution_constraint_margins(self, default_limits):
        for gains, params, order in sample_fd_sic_feasible(seed=99, count=60):
            sol = solve_fd_sic_order(gains, params, default_limits, order)
            assert sol is not None
            p = sol.powers
            planes = planes_for_order(gains, params, order)
            scale = max(p.pu_w, planes.ceil3.height(p.p1_w, p.p2_w), 1e-300)
            assert all(
                m >= -1e-9 * scale for m in pmc_margins(planes, p.p1_w, p.p2_w, p.pu_w)
            )
            margins = sic_rate_margins(gains, params, order, p.p1_w, p.p2_w, p.pu_w)
            sic_scale = max(gains.h_b_d1, gains.h_b_d2, gains.h_b_u) * max(
                p.p1_w, p.p2_w, p.pu_w
            )
            assert all(m >= -1e-9 * sic_scale for m in margins)
            assert p.within(default_limits, rel_tol=1e-9)
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
            idx = np.nonzero(m)[0]
            assert len(idx) > 100
            for i in idx[:2000]:
                g = gains_of(hd[i], b1[i], b2[i], h1u[i], h2u[i], bu[i])
                params = make_params()
                params = type(params)(
                    bandwidth_hz=params.bandwidth_hz, noise_w=params.noise_w,
                    eta1=e1[i], eta2=e2[i], r_u_min_bps=params.r_u_min_bps,
                )
                margins = sic_rate_margins(g, params, order, p1[i], p2[i], pu[i])
                assert all(v > 0.0 for v in margins)

    def test_scaling_improves_rate(self):
        rng = np.random.default_rng(44)
        for _ in range(500):
            g = gains_of(*np.exp(rng.uniform(np.log(1e-10), np.log(1e-4), 6)))
            params = make_params(eta_db=rng.uniform(-130, -80))
            p1, p2 = rng.uniform(1e-6, 0.2, 2)
            beta = rng.uniform(1.0 + 1e-6, 5.0)
            r0 = fd_sic_d2d_rate(p1, p2, g, params)
            r1 = fd_sic_d2d_rate(beta * p1, beta * p2, g, params)
            assert r1 > r0


GAIN_FIELDS = ("h_d", "h_b_d1", "h_b_d2", "h_d1_u", "h_d2_u", "h_b_u")


def _gain_arrays(gains: list[ChannelGains]) -> tuple[np.ndarray, ...]:
    return tuple(np.array([getattr(g, f) for g in gains]) for f in GAIN_FIELDS)


def _mixed_blocks(seed: int, count: int):
    """Blocks of pre-test-passing (gains, order) pairs sharing random params
    and limits, until ``count`` pairs: deployment gains (the fig4a and
    far-pairs layouts) mixed with gains from -150 to -40 dB, SI from -130 to
    -80 dB per device, rate floors from 0 to 4 Mbps and caps from -10 to
    24 dBm."""
    rng = np.random.default_rng(seed)
    layouts = [
        SimConfig(k_users=1, d_pairs=1, trials=1),
        SimConfig(k_users=1, d_pairs=1, trials=1, d_max_m=200.0, pair_distance_law="fixed"),
    ]
    blocks, total = [], 0
    while total < count:
        eta = 10.0 ** (rng.uniform(-130.0, -80.0, 2) / 10.0)
        floor = float(rng.choice([0.0, 0.5e6, 1.5e6, 3e6, rng.uniform(0.0, 4e6)]))
        params = SystemParams(312.5e3, dbm_to_watts(-119.0), eta[0], eta[1], floor)
        limits = PowerLimits(*(dbm_to_watts(x) for x in rng.uniform(-10.0, 24.0, 3)))
        pairs = []
        for _ in range(20):
            kind = rng.integers(3)
            if kind < 2:
                g = sample_combo_gains(rng, layouts[kind])
            else:
                g = ChannelGains(*(10.0 ** (rng.uniform(-150.0, -40.0, 6) / 10.0)))
            pm = pu_min(params, g.h_b_u)
            pairs += [(g, o) for o in ORDERS if sufficient_feasibility(g, params, limits, pm, o)]
        if pairs:
            blocks.append((params, limits, pairs))
            total += len(pairs)
    return blocks


def _batch(pairs, params, limits):
    gains = [g for g, _ in pairs]
    pu_m = np.array([pu_min(params, g.h_b_u) for g in gains])
    m1_first = np.array([o is DecodingOrder.M1_FIRST for _, o in pairs])
    with np.errstate(all="ignore"):
        return fd_sic_batch(_gain_arrays(gains), params, limits, pu_m, m1_first)


def _table_rates(gains, params, limits):
    """`_fd_sic_table` on a 1 x N table of the given combinations."""
    h = tuple(x[None, :] for x in _gain_arrays(gains))
    pu_m = np.array([[pu_min(params, g.h_b_u) for g in gains]])
    passes = [
        np.array([[sufficient_feasibility(g, params, limits, pu_m[0, i], o)
                   for i, g in enumerate(gains)]])
        for o in ORDERS
    ]
    with np.errstate(all="ignore"):
        return _fd_sic_table(h, params, limits, pu_m, passes)[0]


# A fig4a combination whose best M2_FIRST candidate fails validation where it
# lies: the scalar solve pulls it inward.
SLIVER_GAINS = ChannelGains(
    4.6392498409731775e-07, 1.6300399463133556e-08, 2.7504924007826522e-06,
    1.687819901737155e-11, 4.681732167036908e-11, 1.2740316066043791e-12,
)


class TestBatch:
    """`fd_sic_batch` solves many (entry, order) pairs with numpy; the scalar
    `solve_fd_sic_order` is the reference."""

    def test_matches_scalar_solve(self):
        pairs_seen = fallbacks = 0
        for params, limits, pairs in _mixed_blocks(seed=11, count=2000):
            p1, p2, pu, rate, fallback = _batch(pairs, params, limits)
            for j, (g, o) in enumerate(pairs):
                pairs_seen += 1
                if fallback[j]:
                    fallbacks += 1
                    continue
                sol = solve_fd_sic_order(g, params, limits, o)
                assert sol is not None
                want = (sol.powers.p1_w, sol.powers.p2_w, sol.powers.pu_w, sol.r_d2d_bps)
                got = (p1[j], p2[j], pu[j], rate[j])
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)
            # both orders together: the same feasibility, order and rate
            gains = list({id(g): g for g, _ in pairs}.values())
            for g, best in zip(gains, _table_rates(gains, params, limits)):
                sol = _best_sic_order(g, params, limits)
                assert best == (-np.inf if sol is None else sol.r_d2d_bps)
        assert pairs_seen >= 2000
        # sliver pull-ins stay rare; the batch must solve the rest itself
        assert fallbacks <= 0.02 * pairs_seen

    def test_failed_validation_goes_to_the_scalar_pull_in(self):
        params, limits = make_params(), make_limits()
        p1, p2, pu, rate, fallback = _batch(
            [(SLIVER_GAINS, DecodingOrder.M2_FIRST)], params, limits
        )
        assert fallback[0]
        sol = solve_fd_sic_order(SLIVER_GAINS, params, limits, DecodingOrder.M2_FIRST)
        assert sol.r_d2d_bps < rate[0]  # the validated point lies inward
        assert _table_rates([SLIVER_GAINS], params, limits)[0] == _best_sic_order(
            SLIVER_GAINS, params, limits
        ).r_d2d_bps

    def test_geometry_error_counts_as_infeasible(self, monkeypatch):
        """A flat floor plane makes the scalar solve raise on a device side;
        the batch leaves that entry to it and the others are unaffected."""
        params, limits = make_params(), make_limits()
        rng, layout = np.random.default_rng(3), SimConfig(k_users=1, d_pairs=1, trials=1)
        gains = []
        while len(gains) < 4:
            g = sample_combo_gains(rng, layout)
            pm = pu_min(params, g.h_b_u)
            if all(sufficient_feasibility(g, params, limits, pm, o) for o in ORDERS):
                gains.append(g)
        broken = gains[1].h_d
        real = d2dpa.fdsic.floor_planes

        def flat_floor4(h, eta1, eta2):
            floor2, floor4 = real(h, eta1, eta2)
            keep = h[0] != broken
            return floor2, Plane(floor4.ax * keep, floor4.ay * keep)

        want = [_best_sic_order(g, params, limits) for g in gains]
        assert all(sol is not None for sol in want)
        monkeypatch.setattr(d2dpa.fdsic, "floor_planes", flat_floor4)
        for o in ORDERS:
            with pytest.raises(GeometryError):
                solve_fd_sic_order(gains[1], params, limits, o)
        *_, fallback = _batch([(g, o) for g in gains for o in ORDERS], params, limits)
        assert list(fallback[2:4]) == [True, True]
        rates = _table_rates(gains, params, limits)
        assert rates[1] == -np.inf
        for i in (0, 2, 3):
            assert rates[i] == want[i].r_d2d_bps
