import dataclasses
import math

import numpy as np
import pytest

from conftest import BW_HZ, NOISE_W, make_params
from d2dpa.model import (
    GAIN_FIELDS,
    ChannelGains,
    PowerLimits,
    PowerTriplet,
    Scenario,
    ScenarioKind,
    SystemParams,
    cu_rate,
    db_to_linear,
    dbm_to_watts,
    device_rate,
    gain_block,
    pu_min,
    scenario_rates,
    watts_to_dbm,
)


def make_gains(**kw) -> ChannelGains:
    base = dict(h_d=1e-6, h_b_d1=1e-8, h_b_d2=2e-8, h_d1_u=3e-9, h_d2_u=4e-9, h_b_u=5e-8)
    base.update(kw)
    return ChannelGains(**base)


class TestUnits:
    def test_db_to_linear(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(-30.0) == pytest.approx(0.001, rel=1e-12)
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)

    def test_dbm_round_trip(self):
        for dbm in (-119.0, 0.0, 24.0):
            assert watts_to_dbm(dbm_to_watts(dbm)) == pytest.approx(dbm, abs=1e-9)

    def test_noise_value(self):
        assert NOISE_W == pytest.approx(10.0**-14.9, rel=1e-12)


class TestPuMin:
    def test_zero_rate_floor(self):
        params = make_params(r_u_min_bps=0.0)
        assert pu_min(params, 1e-8) == 0.0

    def test_unit_case(self):
        params = SystemParams(
            bandwidth_hz=1.0, noise_w=1.0, eta1=1e-10, eta2=1e-10, r_u_min_bps=1.0
        )
        assert pu_min(params, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_against_numeric_shannon_inversion(self):
        # independent oracle: bisect the CU Shannon rate for the floor power
        params = make_params(r_u_min_bps=1.5e6)
        h = 1.0
        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            rate = BW_HZ * math.log2(1.0 + mid * h / NOISE_W)
            if rate < params.r_u_min_bps:
                lo = mid
            else:
                hi = mid
        assert pu_min(params, h) == pytest.approx(hi, rel=1e-9)
        assert pu_min(params, h) == pytest.approx(26.857 * NOISE_W, rel=1e-3)


class TestScenarioRates:
    def test_all_zero_powers(self):
        gains = make_gains()
        params = make_params()
        zero = PowerTriplet(0.0, 0.0, 0.0)
        for scenario, powers in (
            (Scenario(ScenarioKind.FD_NOSIC), zero),
            (Scenario(ScenarioKind.HD_NOSIC), (zero, zero)),
            (Scenario(ScenarioKind.HD_SIC, slot_sic=(True, False)), (zero, zero)),
        ):
            assert scenario_rates(scenario, powers, gains, params) == (0.0, 0.0, 0.0)

    def test_fd_sic_unit_sinr(self):
        gains = make_gains(h_b_u=1e-8)
        params = make_params()
        powers = PowerTriplet(0.0, 0.0, NOISE_W / gains.h_b_u)
        from d2dpa.model import DecodingOrder

        scen = Scenario(ScenarioKind.FD_SIC, order=DecodingOrder.M2_FIRST)
        r_u, _, _ = scenario_rates(scen, powers, gains, params)
        assert r_u == pytest.approx(BW_HZ, rel=1e-12)

    def test_fd_nosic_against_reimplementation(self):
        rng = np.random.default_rng(11)
        params = make_params(eta_db=-95.0)
        for _ in range(50):
            g = make_gains(
                h_d=rng.uniform(1e-9, 1e-5),
                h_b_d1=rng.uniform(1e-10, 1e-6),
                h_b_d2=rng.uniform(1e-10, 1e-6),
                h_d1_u=rng.uniform(1e-10, 1e-6),
                h_d2_u=rng.uniform(1e-10, 1e-6),
                h_b_u=rng.uniform(1e-10, 1e-6),
            )
            p1, p2, pu = rng.uniform(0.0, 0.25, 3)
            r_u, r_d1, r_d2 = scenario_rates(
                Scenario(ScenarioKind.FD_NOSIC), PowerTriplet(p1, p2, pu), g, params
            )
            s = NOISE_W
            ref_u = BW_HZ * np.log2(1 + pu * g.h_b_u / (p1 * g.h_b_d1 + p2 * g.h_b_d2 + s))
            ref_1 = BW_HZ * np.log2(1 + p2 * g.h_d / (pu * g.h_d1_u + params.eta1 * p1 + s))
            ref_2 = BW_HZ * np.log2(1 + p1 * g.h_d / (pu * g.h_d2_u + params.eta2 * p2 + s))
            assert r_u == pytest.approx(ref_u, rel=1e-12)
            assert r_d1 == pytest.approx(ref_1, rel=1e-12)
            assert r_d2 == pytest.approx(ref_2, rel=1e-12)

    def test_rates_nondecreasing_in_own_power(self):
        rng = np.random.default_rng(5)
        params = make_params(eta_db=-100.0)
        gains = make_gains()
        scenarios = (
            Scenario(ScenarioKind.FD_NOSIC),
            Scenario(ScenarioKind.FD_SIC, order=None),
        )
        for _ in range(200):
            p1, p2, pu = rng.uniform(0.0, 0.25, 3)
            bump = rng.uniform(1e-4, 0.1)
            for scen in scenarios:
                base = scenario_rates(scen, PowerTriplet(p1, p2, pu), gains, params)
                up_u = scenario_rates(scen, PowerTriplet(p1, p2, pu + bump), gains, params)
                up_1 = scenario_rates(scen, PowerTriplet(p1 + bump, p2, pu), gains, params)
                up_2 = scenario_rates(scen, PowerTriplet(p1, p2 + bump, pu), gains, params)
                assert all(r >= 0.0 for r in base)
                assert up_u[0] >= base[0]  # CU rate grows with its own power
                assert up_2[1] >= base[1]  # d1 receives device 2's message
                assert up_1[2] >= base[2]  # d2 receives device 1's message

    def test_fd_sic_perfect_cancellation_is_point_to_point(self):
        # eta so small the residual term vanishes below the noise floor
        gains = make_gains()
        params = SystemParams(
            bandwidth_hz=BW_HZ, noise_w=NOISE_W, eta1=1e-300, eta2=1e-300,
            r_u_min_bps=1.5e6,
        )
        from d2dpa.model import DecodingOrder

        powers = PowerTriplet(0.1, 0.2, 0.05)
        scen = Scenario(ScenarioKind.FD_SIC, order=DecodingOrder.M2_FIRST)
        r_u, r_d1, r_d2 = scenario_rates(scen, powers, gains, params)
        assert r_u == BW_HZ * math.log2(1 + powers.pu_w * gains.h_b_u / NOISE_W)
        assert r_d1 == BW_HZ * math.log2(1 + powers.p2_w * gains.h_d / NOISE_W)
        assert r_d2 == BW_HZ * math.log2(1 + powers.p1_w * gains.h_d / NOISE_W)

    def test_hd_rate_is_half_sum_of_slots(self):
        gains = make_gains()
        params = make_params()
        h = gain_block(gains)[:, 0]
        first = PowerTriplet(0.1, 0.0, 0.02)
        second = PowerTriplet(0.0, 0.15, 0.03)
        for sic in ((False, False), (True, False), (False, True), (True, True)):
            scen = Scenario(ScenarioKind.HD_SIC, slot_sic=sic)
            r_u, r_d1, r_d2 = scenario_rates(scen, (first, second), gains, params)
            # each half slot is the link with the other device silent at 0 W
            ru1 = cu_rate(first.p1_w, 0.0, first.pu_w, h, params, sic[0])
            rd2 = device_rate(first.p1_w, 0.0, first.pu_w, gains.h_d, gains.h_d2_u,
                              params.eta2, params, sic[0])
            ru2 = cu_rate(0.0, second.p2_w, second.pu_w, h, params, sic[1])
            rd1 = device_rate(second.p2_w, 0.0, second.pu_w, gains.h_d, gains.h_d1_u,
                              params.eta1, params, sic[1])
            assert r_u == 0.5 * ru1 + 0.5 * ru2
            assert r_d1 == 0.5 * rd1
            assert r_d2 == 0.5 * rd2

    def test_hd_rejects_active_silent_device(self):
        gains = make_gains()
        params = make_params()
        with pytest.raises(ValueError):
            scenario_rates(
                Scenario(ScenarioKind.HD_NOSIC),
                (PowerTriplet(0.1, 0.1, 0.02), PowerTriplet(0.0, 0.1, 0.02)),
                gains,
                params,
            )


class TestValidation:
    def test_gains_must_be_positive(self):
        with pytest.raises(ValueError):
            make_gains(h_d=0.0)
        with pytest.raises(ValueError):
            make_gains(h_b_u=-1e-9)
        with pytest.raises(ValueError):
            make_gains(h_d=math.inf)

    def test_params_ranges(self):
        with pytest.raises(ValueError):
            SystemParams(BW_HZ, NOISE_W, 0.0, 1e-10, 0.0)
        with pytest.raises(ValueError):
            SystemParams(BW_HZ, NOISE_W, 1.5, 1e-10, 0.0)
        with pytest.raises(ValueError):
            SystemParams(BW_HZ, 0.0, 1e-10, 1e-10, 0.0)

    @pytest.mark.parametrize(
        "build, name, bound, bad",
        [
            (build, name, bound, bad)
            for build, names, bound in (
                (make_gains, GAIN_FIELDS, ">"),
                (lambda **kw: dataclasses.replace(make_params(), **kw), ("bandwidth_hz", "noise_w"), ">"),
                (lambda **kw: PowerLimits(**{"p1_max_w": 0.25, "p2_max_w": 0.25, "pu_max_w": 0.25, **kw}),
                 ("p1_max_w", "p2_max_w", "pu_max_w"), ">"),
                (lambda **kw: PowerTriplet(**{"p1_w": 0.0, "p2_w": 0.0, "pu_w": 0.0, **kw}),
                 ("p1_w", "p2_w", "pu_w"), ">="),
            )
            for name in names
            for bad in (math.nan, math.inf, -1.0, *((0.0,) if bound == ">" else ()))
        ],
    )
    def test_sign_rule_messages_pinned(self, build, name, bound, bad):
        with pytest.raises(ValueError) as info:
            build(**{name: bad})
        assert str(info.value) == f"{name} must be finite and {bound} 0, got {bad!r}"

    def test_scenario_field_consistency(self):
        from d2dpa.model import DecodingOrder

        with pytest.raises(ValueError):
            Scenario(ScenarioKind.HD_NOSIC, order=DecodingOrder.M2_FIRST)
        with pytest.raises(ValueError):
            Scenario(ScenarioKind.HD_SIC)
        with pytest.raises(ValueError):
            Scenario(ScenarioKind.FD_NOSIC, slot_sic=(True, True))

    def test_power_triplet_nonnegative(self):
        with pytest.raises(ValueError):
            PowerTriplet(-1e-20, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: SystemParams(v, NOISE_W, 1e-11, 1e-11, 1.5e6),
            lambda v: SystemParams(BW_HZ, v, 1e-11, 1e-11, 1.5e6),
            lambda v: SystemParams(BW_HZ, NOISE_W, v, 1e-11, 1.5e6),
            lambda v: SystemParams(BW_HZ, NOISE_W, 1e-11, v, 1.5e6),
            lambda v: SystemParams(BW_HZ, NOISE_W, 1e-11, 1e-11, v),
            lambda v: PowerLimits(v, 0.25, 0.25),
            lambda v: PowerLimits(0.25, v, 0.25),
            lambda v: PowerLimits(0.25, 0.25, v),
            lambda v: PowerTriplet(v, 0.0, 0.0),
            lambda v: PowerTriplet(0.0, v, 0.0),
            lambda v: PowerTriplet(0.0, 0.0, v),
        ],
    )
    def test_non_finite_values_rejected(self, build, bad):
        with pytest.raises(ValueError):
            build(bad)
