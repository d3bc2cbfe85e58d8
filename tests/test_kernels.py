"""The closed-form no-SIC FD kernel and the model properties of every scheme."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_params
from d2dpa import fdnosic
from d2dpa.fdsic import REL_TOL, solve_fd_sic_order
from d2dpa.model import (
    ChannelGains,
    PowerLimits,
    PowerTriplet,
    Scenario,
    ScenarioKind,
    SystemParams,
    dbm_to_watts,
    rate_floor_snr,
    scenario_rates,
    within_limits,
)
from d2dpa.oracle import _fd_sic_mask
from d2dpa.solvers import SIC_ORDERS, solve_all


def test_pure_kernel_handles_infeasible(default_limits):
    params = make_params()
    res = fdnosic.fd_nosic_batch(
        np.array([1e-6, 1e-8, 1e-8, 1e-9, 1e-9, 1e-15]), params, PowerLimits(0.25, 0.25, 1e-12)
    )
    assert [float(x) for x in res] == [0.0, 0.0, 0.0, -np.inf]


def test_no_rate_floor_survives_an_underflowing_cu_gain():
    """With no rate floor the CU needs no power, so no cut on the device
    powers applies, even where pu_max * h_b_u underflows to 0 and the cut
    would be 0/0."""
    gains = ChannelGains(1e-8, 1e-10, 1e-10, 1e-10, 1e-10, 5e-324)
    params = SystemParams(312.5e3, dbm_to_watts(-119.0), 1e-11, 1e-11, 0.0)
    sols = solve_all(gains, params, PowerLimits(0.25, 0.25, 0.25))
    assert sols[ScenarioKind.FD_NOSIC].feasible and sols[ScenarioKind.FD_SIC].feasible
    assert sols[ScenarioKind.FD_NOSIC].r_d2d_bps == pytest.approx(
        sols[ScenarioKind.HD_NOSIC].r_d2d_bps, rel=1e-12
    )


def test_cap_corner_stays_inside_the_box():
    # with a tiny h_b_d2, deriving p2 from p1 at the P2max corner of the CU-cap
    # face overshot P2max by 9e-8 relative; the corner is now exact
    gains = ChannelGains(1e-4, 1e-4, 6.309573444801943e-15, 7.943282347242822e-09,
                         7.943282347242821e-12, 1e-4)
    params = SystemParams(312.5e3, 1.2589254117941663e-15, 3.981071705534969e-09,
                          2.511886431509582e-09, 0.5e6)
    limits = PowerLimits(1e-3, dbm_to_watts(1.0), dbm_to_watts(-8.0))
    sol = solve_all(gains, params, limits)[ScenarioKind.FD_NOSIC]
    p = sol.powers
    assert within_limits(p.p1_w, p.p2_w, p.pu_w, limits, rel_tol=0.0)
    swapped = solve_all(
        gains.swapped_devices(), params.swapped_devices(), limits.swapped_devices()
    )[ScenarioKind.FD_NOSIC]
    assert swapped.r_d2d_bps == pytest.approx(sol.r_d2d_bps, rel=1e-12)


@pytest.mark.xfail(
    strict=True,
    reason="the cap side is not mirror-symmetric at the floors' kink: M2_FIRST certifies "
    "the kink, the swapped M1_FIRST keeps one cap piece and pulls its best point inward",
)
def test_cap_kink_rate_survives_a_device_swap():
    """FD-SIC gives 8128572.729553951 bps here, and 8128572.681456501 bps with
    the devices swapped.  `segments` splits the cap at the floors' kink only
    when the kink lies more than tol inside the piece, and the cap's free
    coordinate is always P1, so the two orders are not mirror images."""
    gains = ChannelGains(1e-4, 1e-4, 1e-4, 1e-4, 10.0**-7.5, 10.0**-7.7)
    params = SystemParams(312.5e3, dbm_to_watts(-119.0), 1e-8, 1e-8, 0.5e6)
    limits = PowerLimits(1e-3, 1e-3, dbm_to_watts(-3.0))
    sol = solve_all(gains, params, limits)[ScenarioKind.FD_SIC]
    swapped = solve_all(
        gains.swapped_devices(), params.swapped_devices(), limits.swapped_devices()
    )[ScenarioKind.FD_SIC]
    assert swapped.r_d2d_bps == pytest.approx(sol.r_d2d_bps, rel=1e-12)


# Inputs over the deployment range: link gains from a 1 m pair to a cell-edge
# link under deep shadowing, the SI and rate-floor sweeps, caps up to 24 dBm.
_gain = st.floats(-150.0, -40.0).map(lambda db: 10.0 ** (db / 10.0))
_cap = st.floats(-10.0, 24.0).map(dbm_to_watts)

instances = st.tuples(
    st.builds(ChannelGains, _gain, _gain, _gain, _gain, _gain, _gain),
    st.builds(
        SystemParams,
        st.just(312.5e3),
        st.just(dbm_to_watts(-119.0)),
        st.floats(-130.0, -80.0).map(lambda db: 10.0 ** (db / 10.0)),
        st.floats(-130.0, -80.0).map(lambda db: 10.0 ** (db / 10.0)),
        st.sampled_from([0.0, 0.5e6, 1.5e6, 3e6]),
    ),
    st.builds(PowerLimits, _cap, _cap, _cap),
)


def _mirrored(sol) -> tuple[Scenario, PowerTriplet | tuple[PowerTriplet, PowerTriplet]]:
    """A solution's scenario and powers with the two devices swapped: p1 and
    p2, the HD half slots and the FD-SIC decoding order trade places."""
    s = sol.scenario

    def swapped(t: PowerTriplet) -> PowerTriplet:
        return PowerTriplet(t.p2_w, t.p1_w, t.pu_w)

    if isinstance(sol.powers, tuple):
        first, second = sol.powers
        powers = (swapped(second), swapped(first))
    else:
        powers = swapped(sol.powers)
    order = None if s.order is None else SIC_ORDERS[1 - SIC_ORDERS.index(s.order)]
    slot_sic = None if s.slot_sic is None else s.slot_sic[::-1]
    return Scenario(s.kind, order=order, slot_sic=slot_sic), powers


def _flat(powers) -> tuple[float, ...]:
    triplets = powers if isinstance(powers, tuple) else (powers,)
    return tuple(x for t in triplets for x in (t.p1_w, t.p2_w, t.pu_w))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instances)
def test_device_swap_keeps_rate_and_feasibility(instance):
    """Swapping the devices keeps every rate and feasibility and mirrors the
    allocation, unless two optima tie: then each problem keeps the one its
    tie rule picks, and each is optimal in the other problem too."""
    gains, params, limits = instance
    sols = solve_all(gains, params, limits)
    swapped = solve_all(
        gains.swapped_devices(), params.swapped_devices(), limits.swapped_devices()
    )
    for kind, sol in sols.items():
        other = swapped[kind]
        assert other.feasible == sol.feasible, kind
        assert other.r_d2d_bps == pytest.approx(sol.r_d2d_bps, rel=1e-12), kind
        scenario, powers = _mirrored(sol)
        if other.scenario == scenario and _flat(other.powers) == pytest.approx(
            _flat(powers), rel=1e-12, abs=0.0
        ):
            continue
        back_scenario, back = _mirrored(other)
        _, r_d1, r_d2 = scenario_rates(back_scenario, back, gains, params)
        assert r_d1 + r_d2 == pytest.approx(sol.r_d2d_bps, rel=1e-12), kind


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instances, st.sampled_from(["p1_max_w", "p2_max_w", "pu_max_w"]), st.floats(1.0, 100.0))
def test_raising_a_cap_never_lowers_the_rate(instance, cap, factor):
    gains, params, limits = instance
    raised = PowerLimits(
        **{name: getattr(limits, name) * (factor if name == cap else 1.0)
           for name in ("p1_max_w", "p2_max_w", "pu_max_w")}
    )
    sols = solve_all(gains, params, limits)
    more = solve_all(gains, params, raised)
    for kind, sol in sols.items():
        assert more[kind].feasible or not sol.feasible, kind
        # the same optimum reached along another face may differ in the last bit
        assert more[kind].r_d2d_bps >= sol.r_d2d_bps * (1.0 - 1e-12), kind


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instances, st.floats(-30.0, 30.0).map(lambda db: 10.0 ** (db / 10.0)))
def test_scaling_gains_and_noise_keeps_every_rate(instance, c):
    """Every SINR is a ratio of gain-weighted powers and noise: scaling all
    gains, both SI factors and the noise by one factor changes none."""
    gains, params, limits = instance
    scaled_gains = ChannelGains(*(c * getattr(gains, f.name) for f in fields(ChannelGains)))
    scaled_params = replace(
        params, noise_w=c * params.noise_w, eta1=c * params.eta1, eta2=c * params.eta2
    )
    sols = solve_all(gains, params, limits)
    scaled = solve_all(scaled_gains, scaled_params, limits)
    for kind, sol in sols.items():
        assert scaled[kind].feasible == sol.feasible, kind
        assert scaled[kind].r_d2d_bps == pytest.approx(sol.r_d2d_bps, rel=1e-9), kind


@settings(max_examples=300, deadline=None, derandomize=True)
@given(instances)
def test_sic_never_loses_to_no_sic(instance):
    sols = solve_all(*instance)
    for sic, plain in ((ScenarioKind.HD_SIC, ScenarioKind.HD_NOSIC),
                       (ScenarioKind.FD_SIC, ScenarioKind.FD_NOSIC)):
        assert sols[sic].feasible or not sols[plain].feasible, sic
        assert sols[sic].r_d2d_bps >= sols[plain].r_d2d_bps, sic


def _oracle_accepts(point, gains, params, limits, order) -> bool:
    """The FD-SIC point passes the oracle's own restatement of the order's
    conditions, the CU rate floor and the power box, each within the
    solver's relative margin.

    The oracle's conditions are strict and homogeneous in the powers, and a
    box-side optimum lies on one of their planes, so the point passes when
    some point within ``REL_TOL`` of it, power by power, passes them
    strictly.
    """
    nudge = 1.0 + REL_TOL * np.linspace(-1.0, 1.0, 9)
    strict = _fd_sic_mask(
        point.p1_w * nudge[:, None, None], point.p2_w * nudge[None, :, None],
        point.pu_w * nudge[None, None, :], gains, params.eta1, params.eta2, order,
    )
    floor = point.pu_w * gains.h_b_u >= (1.0 - REL_TOL) * rate_floor_snr(params) * params.noise_w
    within = within_limits(point.p1_w, point.p2_w, point.pu_w, limits, REL_TOL)
    return bool(strict.any()) and floor and within


# Few instances admit mutual SIC, so this draws more of them than the others.
@settings(max_examples=1500, deadline=None, derandomize=True)
@given(instances)
def test_fd_sic_points_pass_the_oracle_conditions(instance):
    gains, params, limits = instance
    for order in SIC_ORDERS:
        sol = solve_fd_sic_order(gains, params, limits, order)
        if sol is not None:
            assert _oracle_accepts(sol.powers, gains, params, limits, order), order
