import pytest

from conftest import make_limits, make_params, sample_instances
from d2dpa.model import (
    ChannelGains,
    DecodingOrder,
    PaSolution,
    PowerLimits,
    PowerTriplet,
    Scenario,
    ScenarioKind,
)
from d2dpa.oracle import GridSpec, brute_force, check_solution


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(1)
    assert GridSpec(2).axis(1.0).tolist() == [0.0, 1.0]


def test_empty_feasible_set_returns_none():
    g = ChannelGains(h_d=1e-6, h_b_d1=1e-9, h_b_d2=1e-9, h_d1_u=1e-9, h_d2_u=1e-9, h_b_u=1e-12)
    params = make_params()
    limits = PowerLimits(0.25, 0.25, 1e-9)  # CU floor power above its cap
    for scenario in (
        Scenario(ScenarioKind.FD_NOSIC),
        Scenario(ScenarioKind.HD_NOSIC),
        Scenario(ScenarioKind.HD_SIC, slot_sic=(False, False)),
        Scenario(ScenarioKind.FD_SIC, order=DecodingOrder.M2_FIRST),
    ):
        assert brute_force(scenario, g, params, limits, GridSpec(40)) is None


def test_check_solution_rules(default_limits):
    """An empty grid flags a feasible solution except for FD-SIC (a sliver
    below the grid pitch); a solution below the grid optimum is flagged."""
    g = ChannelGains(h_d=1e-6, h_b_d1=1e-9, h_b_d2=1e-9, h_d1_u=1e-9, h_d2_u=1e-9, h_b_u=1e-12)
    params, grid = make_params(), GridSpec(40)
    empty = PowerLimits(0.25, 0.25, 1e-9)
    zero = PowerTriplet(0.0, 0.0, 0.0)
    for scenario in (
        Scenario(ScenarioKind.FD_NOSIC),
        Scenario(ScenarioKind.HD_NOSIC),
        Scenario(ScenarioKind.HD_SIC, slot_sic=(False, False)),
        Scenario(ScenarioKind.FD_SIC, order=DecodingOrder.M2_FIRST),
    ):
        for feasible in (False, True):
            sol = PaSolution(scenario, zero, 0.0, 0.0, sic_applied=False, feasible=feasible)
            expected = feasible and scenario.kind is not ScenarioKind.FD_SIC
            assert check_solution(scenario, sol, g, params, empty, grid) == (None, expected)

    scenario = Scenario(ScenarioKind.FD_NOSIC)
    for gains, params in sample_instances(seed=305, count=20):
        ref = brute_force(scenario, gains, params, default_limits, grid)
        if ref is not None and ref.r_d2d_bps > 1e6:
            break
    for rate, violation in ((ref.r_d2d_bps, False), (ref.r_d2d_bps * (1 - 1e-6), True)):
        sol = PaSolution(scenario, ref.powers, rate, 0.0, sic_applied=False)
        gap, bad = check_solution(scenario, sol, gains, params, default_limits, grid)
        assert gap == ref.r_d2d_bps - rate and bad is violation


def test_fd_sic_requires_order():
    g = ChannelGains(h_d=1e-6, h_b_d1=1e-8, h_b_d2=1e-8, h_d1_u=1e-8, h_d2_u=1e-8, h_b_u=1e-8)
    with pytest.raises(ValueError):
        brute_force(Scenario(ScenarioKind.FD_SIC), g, make_params(), make_limits(), GridSpec(10))


def test_result_rate_is_consistent_with_its_own_point(default_limits):
    # evaluating the scenario rate at the returned grid point reproduces the
    # reported maximum
    from d2dpa.model import scenario_rates

    for gains, params in sample_instances(seed=301, count=10):
        ref = brute_force(
            Scenario(ScenarioKind.FD_NOSIC), gains, params, default_limits, GridSpec(60)
        )
        if ref is None:
            continue
        r_u, r_d1, r_d2 = scenario_rates(
            Scenario(ScenarioKind.FD_NOSIC), ref.powers, gains, params
        )
        assert r_d1 + r_d2 == pytest.approx(ref.r_d2d_bps, rel=1e-9)
        assert r_u >= params.r_u_min_bps * (1 - 1e-12)


def test_nested_grids_are_monotone(default_limits):
    # doubling-minus-one keeps every old grid point, so the best cannot drop
    for gains, params in sample_instances(seed=302, count=8):
        for scenario in (
            Scenario(ScenarioKind.FD_NOSIC),
            Scenario(ScenarioKind.HD_NOSIC),
            Scenario(ScenarioKind.HD_SIC, slot_sic=(False, False)),
        ):
            coarse = brute_force(scenario, gains, params, default_limits, GridSpec(41))
            fine = brute_force(scenario, gains, params, default_limits, GridSpec(81))
            if coarse is None:
                continue
            assert fine is not None
            assert fine.r_d2d_bps >= coarse.r_d2d_bps * (1 - 1e-12)


def test_hd_oracle_splits_slots(default_limits):
    # the HD optimum is separable: solving each half slot alone gives the same total
    from d2dpa.oracle import _brute_hd_slot

    for gains, params in sample_instances(seed=303, count=6):
        ref = brute_force(
            Scenario(ScenarioKind.HD_NOSIC), gains, params, default_limits, GridSpec(80)
        )
        if ref is None:
            continue
        s1 = _brute_hd_slot(gains, params, default_limits, GridSpec(80), allow_sic=False)
        s2 = _brute_hd_slot(
            gains.swapped_devices(), params, default_limits.swapped_devices(), GridSpec(80),
            allow_sic=False,
        )
        assert ref.r_d2d_bps == pytest.approx(0.5 * (s1[2] + s2[2]), rel=1e-12)


@pytest.mark.parametrize("caps", [(1.0, 0.05), (0.05, 1.0)])
def test_hd_slots_keep_their_own_device_cap(default_limits, caps):
    """Half slot 2 is half slot 1 with the devices, caps included, swapped:
    with unequal caps each half slot's grid point keeps its device's cap."""
    limits = PowerLimits(
        default_limits.p1_max_w * caps[0], default_limits.p2_max_w * caps[1], default_limits.pu_max_w
    )
    for gains, params in sample_instances(seed=306, count=10):
        for scenario in (
            Scenario(ScenarioKind.HD_NOSIC), Scenario(ScenarioKind.HD_SIC, slot_sic=(False, False))
        ):
            ref = brute_force(scenario, gains, params, limits, GridSpec(60))
            if ref is not None:
                assert ref.powers[0].p1_w <= limits.p1_max_w
                assert ref.powers[1].p2_w <= limits.p2_max_w


def test_oracle_feasible_points_satisfy_solver_predicates(default_limits):
    # the two independently written constraint sets must agree on the points
    # the oracle declares feasible
    from conftest import order_constraints, sample_fd_sic_feasible
    from d2dpa.model import pu_min

    for gains, params, order in sample_fd_sic_feasible(seed=304, count=15):
        ref = brute_force(
            Scenario(ScenarioKind.FD_SIC, order=order), gains, params, default_limits, GridSpec(80)
        )
        if ref is None:
            continue
        p = ref.powers
        _, margins = order_constraints(gains, params, order)
        pmc, sic = margins(p.p1_w, p.p2_w, p.pu_w)
        assert all(m > 0.0 for m in pmc)
        assert all(m > 0.0 for m in sic)
        assert p.pu_w >= pu_min(params, gains.h_b_u) * (1 - 1e-12)


def test_oracle_module_is_independent_of_the_geometry_module():
    import ast
    import pathlib

    src = (pathlib.Path(__file__).resolve().parents[1] / "src" / "d2dpa" / "oracle.py").read_text()
    tree = ast.parse(src)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not any("fdsic" in m or "solvers" in m or "fdnosic" in m for m in imported)
