import math

import pytest

from conftest import BW_HZ, NOISE_W, make_params, sample_instances
from d2dpa.model import (
    ChannelGains,
    PowerLimits,
    Scenario,
    ScenarioKind,
    SystemParams,
    rate_floor_snr,
    scenario_rates,
)
from d2dpa.oracle import GridSpec, brute_force
from d2dpa.solvers import solve_all


def gains_of(hd, b1, b2, h1u, h2u, bu) -> ChannelGains:
    return ChannelGains(h_d=hd, h_b_d1=b1, h_b_d2=b2, h_d1_u=h1u, h_d2_u=h2u, h_b_u=bu)


class TestHdNoSic:
    def test_negligible_interference_hits_device_cap(self, default_limits):
        g = gains_of(hd=1e-6, b1=1e-20, b2=1e-20, h1u=1e-9, h2u=1e-9, bu=1e-7)
        params = make_params()
        sol = solve_all(g, params, default_limits)[ScenarioKind.HD_NOSIC]
        first, second = sol.powers
        assert first.p1_w == default_limits.p1_max_w
        pu_m = rate_floor_snr(params) * NOISE_W / g.h_b_u
        assert first.pu_w == pytest.approx(pu_m, rel=1e-4)
        assert sol.r_u_bps == pytest.approx(params.r_u_min_bps, rel=1e-9)

    def test_cu_cap_branch(self, default_limits):
        # strong device-to-BS gain: protecting the CU at full device power
        # would exceed the CU budget
        g = gains_of(hd=1e-6, b1=1e-4, b2=1e-4, h1u=1e-9, h2u=1e-9, bu=1e-7)
        params = make_params()
        q = rate_floor_snr(params)
        assert q * (default_limits.p1_max_w * g.h_b_d1 + NOISE_W) / g.h_b_u > default_limits.pu_max_w
        sol = solve_all(g, params, default_limits)[ScenarioKind.HD_NOSIC]
        first, _ = sol.powers
        assert first.pu_w == default_limits.pu_max_w
        assert first.p1_w < default_limits.p1_max_w
        # still exactly on the CU rate floor
        r_u1 = BW_HZ * math.log2(1.0 + first.pu_w * g.h_b_u / (first.p1_w * g.h_b_d1 + NOISE_W))
        assert r_u1 == pytest.approx(params.r_u_min_bps, rel=1e-9)

    def test_infeasible_when_cu_floor_unreachable(self):
        g = gains_of(hd=1e-6, b1=1e-9, b2=1e-9, h1u=1e-9, h2u=1e-9, bu=1e-12)
        params = make_params()
        limits = PowerLimits(0.25, 0.25, 1e-9)
        sol = solve_all(g, params, limits)[ScenarioKind.HD_NOSIC]
        assert not sol.feasible
        assert sol.r_d2d_bps == 0.0

    @pytest.mark.parametrize("r_u_min_bps", [1.5e6, 0.0], ids=["rate_floor", "no_rate_floor"])
    def test_matches_grid_oracle(self, default_limits, r_u_min_bps):
        for gains, params in sample_instances(seed=101, count=25, r_u_min_bps=r_u_min_bps):
            sol = solve_all(gains, params, default_limits)[ScenarioKind.HD_NOSIC]
            ref = brute_force(
                Scenario(ScenarioKind.HD_NOSIC), gains, params, default_limits, GridSpec(150)
            )
            if ref is None:
                assert not sol.feasible
                continue
            assert sol.feasible
            assert sol.r_d2d_bps >= ref.r_d2d_bps * (1 - 1e-9)


class TestHdSic:
    def _branch_instance(self):
        params = make_params()
        q = rate_floor_snr(params)
        return params, q

    def test_low_device_cap_keeps_cu_floor_power(self, default_limits):
        # ratio band wide open, device cap below the floor/ratio crossing:
        # the CU stays at its minimum power
        g = gains_of(hd=1e-8, b1=1e-6, b2=1e-6, h1u=1e-4, h2u=1e-4, bu=1e-9)
        params, q = self._branch_instance()
        pu_m = q * NOISE_W / g.h_b_u
        ratio_lo = g.h_d / g.h_d2_u
        assert default_limits.p1_max_w < pu_m / ratio_lo
        sol = solve_all(g, params, default_limits)[ScenarioKind.HD_SIC]
        assert sol.scenario.slot_sic[0]
        first, _ = sol.powers
        assert first.p1_w == default_limits.p1_max_w
        assert first.pu_w == pytest.approx(pu_m, rel=1e-12)

    def test_cu_cap_branch_shrinks_device_power(self, default_limits):
        # steep lower ratio: following the band up hits the CU cap first
        g = gains_of(hd=1e-3, b1=1e-5, b2=1e-5, h1u=1e-4, h2u=1e-4, bu=1e-7)
        params, q = self._branch_instance()
        ratio_lo = g.h_d / g.h_d2_u  # = 10
        assert ratio_lo * default_limits.p1_max_w > default_limits.pu_max_w
        sol = solve_all(g, params, default_limits)[ScenarioKind.HD_SIC]
        assert sol.scenario.slot_sic[0]
        first, _ = sol.powers
        assert first.pu_w == pytest.approx(default_limits.pu_max_w, rel=1e-12)
        assert first.p1_w == pytest.approx(default_limits.pu_max_w / ratio_lo, rel=1e-12)

    def test_band_following_branch(self, default_limits):
        # moderate ratio: device at cap, CU rides the lower ratio boundary
        g = gains_of(hd=1e-5, b1=1e-5, b2=1e-5, h1u=1e-4, h2u=1e-4, bu=1e-7)
        params, q = self._branch_instance()
        ratio_lo = g.h_d / g.h_d2_u  # = 0.1
        pu_m = q * NOISE_W / g.h_b_u
        assert pu_m / ratio_lo < default_limits.p1_max_w
        assert ratio_lo * default_limits.p1_max_w < default_limits.pu_max_w
        sol = solve_all(g, params, default_limits)[ScenarioKind.HD_SIC]
        assert sol.scenario.slot_sic[0]
        first, _ = sol.powers
        assert first.p1_w == default_limits.p1_max_w
        assert first.pu_w == pytest.approx(ratio_lo * default_limits.p1_max_w, rel=1e-12)

    def test_reverts_to_nosic_when_channel_unfavourable(self, default_limits):
        # inter-device gain dominates: the CU could never outpower it at d2
        g = gains_of(hd=1e-3, b1=1e-8, b2=1e-8, h1u=1e-9, h2u=1e-9, bu=1e-7)
        params = make_params()
        sols = solve_all(g, params, default_limits)
        sol, nosic = sols[ScenarioKind.HD_SIC], sols[ScenarioKind.HD_NOSIC]
        assert sol.scenario.slot_sic == (False, False)
        assert not sol.sic_applied
        assert sol.r_d2d_bps == nosic.r_d2d_bps

    def test_dominates_nosic(self, default_limits):
        for gains, params in sample_instances(seed=103, count=120):
            sols = solve_all(gains, params, default_limits)
            sic, nosic = sols[ScenarioKind.HD_SIC], sols[ScenarioKind.HD_NOSIC]
            assert sic.r_d2d_bps >= nosic.r_d2d_bps

    def test_matches_grid_oracle(self, default_limits):
        for gains, params in sample_instances(seed=104, count=25):
            sol = solve_all(gains, params, default_limits)[ScenarioKind.HD_SIC]
            ref = brute_force(
                Scenario(ScenarioKind.HD_SIC, slot_sic=(False, False)),
                gains, params, default_limits, GridSpec(150),
            )
            if ref is None:
                assert not sol.feasible
                continue
            assert sol.r_d2d_bps >= ref.r_d2d_bps * (1 - 1e-9)

    def test_cu_power_is_minimal_per_slot(self, default_limits):
        for gains, params in sample_instances(seed=105, count=60):
            sol = solve_all(gains, params, default_limits)[ScenarioKind.HD_SIC]
            if not sol.feasible:
                continue
            q = rate_floor_snr(params)
            for slot, (triplet, sic) in enumerate(
                zip(sol.powers, sol.scenario.slot_sic), start=1
            ):
                pu = triplet.pu_w
                if pu == 0.0:
                    continue
                shrunk = pu * (1 - 1e-9)
                p_dev = triplet.p1_w if slot == 1 else triplet.p2_w
                h_b_dev = gains.h_b_d1 if slot == 1 else gains.h_b_d2
                h_rx = gains.h_d2_u if slot == 1 else gains.h_d1_u
                if sic:
                    floor_ok = shrunk * gains.h_b_u / NOISE_W >= q
                    pmc_ok = shrunk * h_rx > p_dev * gains.h_d
                    assert not (floor_ok and pmc_ok)
                else:
                    r_u = BW_HZ * math.log2(
                        1.0 + shrunk * gains.h_b_u / (p_dev * h_b_dev + NOISE_W)
                    )
                    assert r_u < params.r_u_min_bps


class TestFdNoSic:
    def test_symmetric_instance_rate_invariant_under_swap(self, default_limits):
        g = gains_of(hd=1e-6, b1=3e-8, b2=3e-8, h1u=2e-9, h2u=2e-9, bu=5e-8)
        params = make_params()
        sol = solve_all(g, params, default_limits)[ScenarioKind.FD_NOSIC]
        swapped = solve_all(
            g.swapped_devices(), params.swapped_devices(), default_limits.swapped_devices()
        )[ScenarioKind.FD_NOSIC]
        assert swapped.r_d2d_bps == pytest.approx(sol.r_d2d_bps, rel=1e-12)

    def test_zero_rate_floor_means_silent_cu(self, default_limits):
        g = gains_of(hd=1e-6, b1=3e-8, b2=4e-8, h1u=2e-9, h2u=3e-9, bu=5e-8)
        params = make_params(r_u_min_bps=0.0)
        sol = solve_all(g, params, default_limits)[ScenarioKind.FD_NOSIC]
        assert sol.powers.pu_w == 0.0
        # any positive CU power only interferes
        r_with = scenario_rates(
            Scenario(ScenarioKind.FD_NOSIC),
            type(sol.powers)(sol.powers.p1_w, sol.powers.p2_w, 0.01),
            g, params,
        )
        assert sol.r_d2d_bps >= r_with[1] + r_with[2]

    def test_infeasible_duplex(self):
        g = gains_of(hd=1e-6, b1=1e-9, b2=1e-9, h1u=1e-9, h2u=1e-9, bu=1e-12)
        params = make_params()
        limits = PowerLimits(0.25, 0.25, 1e-9)
        sol = solve_all(g, params, limits)[ScenarioKind.FD_NOSIC]
        assert not sol.feasible

    @pytest.mark.parametrize("r_u_min_bps", [1.5e6, 0.0], ids=["rate_floor", "no_rate_floor"])
    def test_matches_grid_oracle(self, default_limits, r_u_min_bps):
        for gains, params in sample_instances(seed=107, count=12, r_u_min_bps=r_u_min_bps):
            sol = solve_all(gains, params, default_limits)[ScenarioKind.FD_NOSIC]
            ref = brute_force(
                Scenario(ScenarioKind.FD_NOSIC), gains, params, default_limits, GridSpec(100)
            )
            if ref is None:
                assert not sol.feasible
                continue
            assert ref.r_d2d_bps - sol.r_d2d_bps <= 1e-9 * max(ref.r_d2d_bps, 1.0)

    def test_solution_meets_cu_floor(self, default_limits):
        for gains, params in sample_instances(seed=108, count=40):
            sol = solve_all(gains, params, default_limits)[ScenarioKind.FD_NOSIC]
            if sol.feasible:
                assert sol.r_u_bps >= params.r_u_min_bps * (1 - 1e-9)


class TestFdSic:
    def test_fallback_when_channel_conditions_fail(self, default_limits):
        g = gains_of(hd=1e-4, b1=1e-9, b2=1e-9, h1u=1e-9, h2u=1e-9, bu=1e-5)
        params = make_params()
        sols = solve_all(g, params, default_limits)
        sol, fallback = sols[ScenarioKind.FD_SIC], sols[ScenarioKind.FD_NOSIC]
        assert not sol.sic_applied
        assert sol.scenario.order is None
        assert sol.r_d2d_bps == fallback.r_d2d_bps

    def test_dominates_fd_nosic(self, default_limits):
        for gains, params in sample_instances(seed=109, count=120):
            sols = solve_all(gains, params, default_limits)
            sic, nosic = sols[ScenarioKind.FD_SIC], sols[ScenarioKind.FD_NOSIC]
            assert sic.r_d2d_bps >= nosic.r_d2d_bps

    def test_returns_best_of_both_orders(self, default_limits):
        from d2dpa.fdsic import solve_fd_sic_order, sufficient_feasibility
        from d2dpa.model import DecodingOrder, pu_min

        both_seen = 0
        for gains, params in sample_instances(seed=113, count=400):
            pm = pu_min(params, gains.h_b_u)
            feasible = [
                o
                for o in DecodingOrder
                if sufficient_feasibility(gains, params, default_limits, pm, o)
            ]
            if len(feasible) < 2:
                continue
            both_seen += 1
            rates = [
                solve_fd_sic_order(gains, params, default_limits, o).r_d2d_bps
                for o in DecodingOrder
            ]
            sols = solve_all(gains, params, default_limits)
            combined, fallback = sols[ScenarioKind.FD_SIC], sols[ScenarioKind.FD_NOSIC]
            assert combined.r_d2d_bps == max(max(rates), fallback.r_d2d_bps)
            if both_seen >= 10:
                break
        assert both_seen >= 5


class TestSolveAll:
    def test_rate_floor_monotonicity(self, default_limits):
        for gains, params in sample_instances(seed=111, count=15):
            prev = {k: math.inf for k in ScenarioKind}
            for r_min in (0.0, 0.5e6, 1.0e6, 1.5e6, 2.0e6, 3.0e6):
                p = SystemParams(
                    bandwidth_hz=params.bandwidth_hz,
                    noise_w=params.noise_w,
                    eta1=params.eta1,
                    eta2=params.eta2,
                    r_u_min_bps=r_min,
                )
                sols = solve_all(gains, p, default_limits)
                for kind, sol in sols.items():
                    assert sol.r_d2d_bps <= prev[kind] * (1 + 1e-6) + 1.0
                    prev[kind] = sol.r_d2d_bps

    def test_cu_protection_everywhere(self, default_limits):
        for gains, params in sample_instances(seed=112, count=60):
            for kind, sol in solve_all(gains, params, default_limits).items():
                if sol.feasible:
                    assert sol.r_u_bps >= params.r_u_min_bps * (1 - 1e-9), kind

    def test_infeasible_combination_flagged_across_scenarios(self):
        g = gains_of(hd=1e-6, b1=1e-9, b2=1e-9, h1u=1e-9, h2u=1e-9, bu=1e-12)
        params = make_params()
        limits = PowerLimits(0.25, 0.25, 1e-9)
        for kind, sol in solve_all(g, params, limits).items():
            assert not sol.feasible
            assert sol.r_d2d_bps == 0.0
