import dataclasses
import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import stats
from scipy.optimize import linear_sum_assignment

import d2dpa.sim
import d2dpa.solvers
from d2dpa.assignment import hungarian_max
from d2dpa.model import (
    GAIN_FIELDS,
    ChannelGains,
    PowerTriplet,
    Scenario,
    ScenarioKind,
    device_swap_stack,
    scenario_rates,
)
from d2dpa.sim import (
    Deployment,
    SimConfig,
    build_rate_tables,
    check_campaign,
    gains_from_deployment,
    generate_deployment,
    in_hexagon,
    run_campaign,
    run_trial,
    sample_combo_gains,
    trial_from_gains,
)
from d2dpa.solvers import SIC_ORDERS, solve_all


def combo(h: np.ndarray, n: int, i: int) -> ChannelGains:
    """The gains of pair ``n`` sharing CU ``i``'s channel."""
    return ChannelGains(*h[:, n, i].tolist())


def edge_radius(theta, radius: float):
    """Distance from the center to the hexagon edge along direction theta."""
    t = np.mod(theta, math.pi / 3.0)
    return radius * math.sqrt(3.0) / 2.0 / np.cos(t - math.pi / 6.0)


FAR_PAIRS = {"eta_db": -130.0, "d_max_m": 200.0, "pair_distance_law": "fixed"}


def scalar_point(rng: np.random.Generator, radius: float) -> tuple[float, float]:
    """A point uniform over the hexagon by scalar rejection: one
    ``rng.uniform`` draw per coordinate until the point lies in the cell."""
    while True:
        x, y = rng.uniform(-radius, radius), rng.uniform(-radius, radius)
        if in_hexagon(x, y, radius):
            return x, y


def scalar_partner(rng: np.random.Generator, x: float, y: float, cfg: SimConfig):
    """The partner of a device at (x, y) by scalar rejection: one
    ``rng.uniform`` draw for the distance (uniform law) and one for the angle
    until the partner lies in the cell."""
    radius = cfg.cell_radius_m
    reach = min(cfg.d_max_m, 2.0 * radius)
    while True:
        r = cfg.d_max_m if cfg.pair_distance_law == "fixed" else reach * rng.uniform()
        phi = rng.uniform(0.0, 2.0 * math.pi)
        px, py = x + r * math.cos(phi), y + r * math.sin(phi)
        if in_hexagon(px, py, radius):
            return px, py


class TestHexagon:
    def test_edge_between_inner_and_outer_points(self):
        r = 300.0
        for theta in np.linspace(0, 2 * math.pi, 400):
            edge = edge_radius(theta, r)
            for scale, inside in ((1.0 - 1e-9, True), (1.0 + 1e-9, False)):
                x, y = scale * edge * math.cos(theta), scale * edge * math.sin(theta)
                assert in_hexagon(x, y, r) == inside, (theta, scale)

    def test_center_and_corner_membership(self):
        assert in_hexagon(0.0, 0.0, 300.0)
        assert in_hexagon(299.999, 0.0, 300.0)
        assert not in_hexagon(300.0, 300.0, 300.0)


class TestDeployment:
    def test_deterministic(self):
        cfg = SimConfig(k_users=8, d_pairs=3, trials=1)
        a = generate_deployment(cfg, 42)
        b = generate_deployment(cfg, 42)
        assert np.array_equal(a.cu_xy, b.cu_xy)
        assert np.array_equal(a.d1_xy, b.d1_xy)
        assert np.array_equal(a.d2_xy, b.d2_xy)

    def test_zero_distance_collocates_pairs(self):
        cfg = SimConfig(k_users=4, d_pairs=2, d_max_m=0.0, trials=1)
        dep = generate_deployment(cfg, 7)
        assert np.allclose(dep.d1_xy, dep.d2_xy)

    def test_everything_inside_cell_and_within_range(self):
        cfg = SimConfig(k_users=30, d_pairs=10, d_max_m=100.0, trials=1)
        dep = generate_deployment(cfg, 3)
        for pts in (dep.cu_xy, dep.d1_xy, dep.d2_xy):
            for x, y in pts:
                assert in_hexagon(x, y, cfg.cell_radius_m)
        dist = np.sqrt(((dep.d1_xy - dep.d2_xy) ** 2).sum(axis=1))
        assert (dist <= cfg.d_max_m + 1e-9).all()

    def test_fixed_distance_law(self):
        cfg = SimConfig(k_users=4, d_pairs=4, d_max_m=80.0, pair_distance_law="fixed", trials=1)
        dep = generate_deployment(cfg, 11)
        dist = np.sqrt(((dep.d1_xy - dep.d2_xy) ** 2).sum(axis=1))
        assert np.allclose(dist, 80.0)

    def test_cu_positions_uniform_over_hexagon(self):
        # chi-squared over 18 equal-area bins (6 sextants x 3 radial bands)
        cfg = SimConfig(k_users=50, d_pairs=1, trials=1)
        xs = []
        for seed in range(200):
            dep = generate_deployment(cfg, seed)
            xs.append(dep.cu_xy)
        pts = np.concatenate(xs)  # 10000 points
        theta = np.arctan2(pts[:, 1], pts[:, 0]) % (2 * math.pi)
        sextant = np.floor(theta / (math.pi / 3)).astype(int) % 6
        edge = edge_radius(theta, cfg.cell_radius_m)
        t_norm = (np.hypot(pts[:, 0], pts[:, 1]) / edge) ** 2  # uniform in [0,1]
        band = np.minimum((t_norm * 3).astype(int), 2)
        bins = sextant * 3 + band
        counts = np.bincount(bins, minlength=18)
        expected = len(pts) / 18
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < stats.chi2.ppf(0.99, df=17)

    @pytest.mark.parametrize(
        "bit_generator", [np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64]
    )
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"d_max_m": 200.0, "pair_distance_law": "fixed"},
            {"d_pairs": 0},
            {"k_users": 64, "d_pairs": 32, "d_max_m": 500.0},
            {"k_users": 64, "d_pairs": 32, "d_max_m": 300.0, "pair_distance_law": "fixed"},
        ],
    )
    def test_equals_scalar_rejection_draws(self, overrides, bit_generator):
        """The vector hexagon test over blocks of doubles gives the
        deployment that one scalar ``uniform`` draw per coordinate, distance
        and angle gives, bit for bit, so campaigns repeat from their seeds,
        and leaves the generator where the scalar draws leave it, on every
        bit generator.  At K = 64, D = 32 some trials' CUs and first devices
        need more doubles than the first block holds."""
        cfg = SimConfig(trials=1, **overrides)
        sizes = []  # of the generator's random() calls in generate_deployment

        class Recording(np.random.Generator):
            def random(self, size=None, *args, **kwargs):
                sizes.append(size)
                return super().random(size, *args, **kwargs)

        class Tally(np.random.Generator):
            doubles = 0  # uniform() calls, one double each

            def uniform(self, *args, **kwargs):
                self.doubles += 1
                return super().uniform(*args, **kwargs)

        overran = 0
        for seed in range(40):
            rng = Tally(bit_generator(seed))
            sizes.clear()
            cu = [scalar_point(rng, cfg.cell_radius_m) for _ in range(cfg.k_users)]
            d1 = [scalar_point(rng, cfg.cell_radius_m) for _ in range(cfg.d_pairs)]
            points_used = rng.doubles
            d2 = [scalar_partner(rng, x, y, cfg) for x, y in d1]
            drawn = Recording(bit_generator(seed))
            dep = generate_deployment(cfg, drawn)
            assert np.array_equal(dep.cu_xy, np.array(cu).reshape(-1, 2))
            assert np.array_equal(dep.d1_xy, np.array(d1).reshape(-1, 2))
            assert np.array_equal(dep.d2_xy, np.array(d2).reshape(-1, 2))
            assert drawn.random().hex() == rng.random().hex()
            overran += points_used > sizes[0]
        if cfg.k_users == 64:
            assert overran > 0

    @pytest.mark.parametrize("overrides", [{}, FAR_PAIRS], ids=["fig4a", "far_pairs"])
    def test_sample_combo_gains_equals_scalar_draws(self, overrides):
        """Each draw is a scalar first device, its partner and a scalar CU,
        then six shadowing draws in `ChannelGains` field order, all from the
        one generator; after 2,000 draws its next double is the scalar
        stream's too."""
        cfg = SimConfig(trials=1, **overrides)
        alpha, std, ref = cfg.path_loss_exponent, cfg.shadowing_std_db, cfg.path_loss_ref_db
        rng, scalar = np.random.default_rng(5), np.random.default_rng(5)
        bs = (0.0, 0.0)
        for _ in range(2000):
            got = sample_combo_gains(rng, cfg)
            d1 = scalar_point(scalar, cfg.cell_radius_m)
            d2 = scalar_partner(scalar, *d1, cfg)
            cu = scalar_point(scalar, cfg.cell_radius_m)
            links = ((d1, d2), (d1, bs), (d2, bs), (cu, d1), (cu, d2), (cu, bs))
            want = [
                math.hypot(a[0] - b[0], a[1] - b[1]) ** -alpha
                * 10.0 ** ((scalar.normal(0.0, std) - ref) / 10.0)
                for a, b in links
            ]
            assert got == ChannelGains(*want)
        assert rng.random().hex() == scalar.random().hex()

    def test_far_uniform_reach_keeps_partner_draws_bounded(self):
        """A partner farther than twice the cell radius can never land in the
        cell, so a uniform pair distance up to 1e9 m must not redraw for
        ever.  The draws are counted, so that a regression fails instead of
        hanging."""

        class Counting(np.random.Generator):
            draws = 0

            def random(self, size=None, *args, **kwargs):
                Counting.draws += 1 if size is None else size
                if Counting.draws > 10_000:
                    raise RuntimeError("more than 10,000 uniform draws")
                return super().random(size, *args, **kwargs)

        cfg = SimConfig(d_max_m=1e9, trials=1, k_users=2, d_pairs=1)
        dep = generate_deployment(cfg, Counting(np.random.PCG64(1)))
        assert in_hexagon(*dep.d2_xy[0], cfg.cell_radius_m)
        sample_combo_gains(Counting(np.random.PCG64(2)), cfg)
        assert run_campaign(cfg).totals_bps[ScenarioKind.FD_SIC].shape == (1,)


class TestGains:
    def test_no_shadowing_unit_distance(self):
        cfg = SimConfig(k_users=1, d_pairs=1, shadowing_std_db=0.0, path_loss_ref_db=0.0, trials=1)
        dep = Deployment(
            cu_xy=np.array([[1.0, 0.0]]),
            d1_xy=np.array([[0.0, 1.0]]),
            d2_xy=np.array([[0.0, 2.0]]),
        )
        h_d, *_, h_b_u = gains_from_deployment(dep, cfg, 0)[:, 0, 0]
        assert h_b_u == pytest.approx(1.0, rel=1e-12)  # 1 m to the BS
        assert h_d == pytest.approx(1.0, rel=1e-12)  # 1 m pair distance

    def test_doubling_distance_ratio(self):
        cfg = SimConfig(k_users=2, d_pairs=1, shadowing_std_db=0.0, trials=1)
        dep = Deployment(
            cu_xy=np.array([[50.0, 0.0], [100.0, 0.0]]),
            d1_xy=np.array([[10.0, 0.0]]),
            d2_xy=np.array([[12.0, 0.0]]),
        )
        h_b_u = gains_from_deployment(dep, cfg, 0)[5, 0]
        assert h_b_u[1] / h_b_u[0] == pytest.approx(
            2.0**-cfg.path_loss_exponent, rel=1e-12
        )

    def test_reference_loss_scales_all_gains(self):
        dep = Deployment(
            cu_xy=np.array([[60.0, 10.0]]),
            d1_xy=np.array([[5.0, 15.0]]),
            d2_xy=np.array([[9.0, 18.0]]),
        )
        bare = SimConfig(k_users=1, d_pairs=1, shadowing_std_db=0.0, path_loss_ref_db=0.0, trials=1)
        offset = SimConfig(k_users=1, d_pairs=1, shadowing_std_db=0.0, path_loss_ref_db=15.3, trials=1)
        g0 = gains_from_deployment(dep, bare, 0)
        g1 = gains_from_deployment(dep, offset, 0)
        factor = 10.0 ** (-15.3 / 10.0)
        assert g1 == pytest.approx(g0 * factor, rel=1e-12)

    def test_shadowing_zero_mean_in_db(self):
        cfg = SimConfig(k_users=50, d_pairs=1, trials=1)
        dep = generate_deployment(cfg, 5)
        samples = []
        for seed in range(200):
            gains = gains_from_deployment(dep, cfg, seed)
            d_b_u = np.sqrt((dep.cu_xy**2).sum(axis=1))
            pure = d_b_u**-cfg.path_loss_exponent * 10.0 ** (-cfg.path_loss_ref_db / 10.0)
            samples.append(10.0 * np.log10(gains[5, 0] / pure))
        x = np.concatenate(samples)  # 10000 draws
        assert abs(x.mean()) < 0.5
        assert abs(x.std() - cfg.shadowing_std_db) < 0.5

    def test_pair_links_shared_across_cu_columns(self):
        cfg = SimConfig(k_users=6, d_pairs=2, trials=1)
        dep = generate_deployment(cfg, 1)
        gains = gains_from_deployment(dep, cfg, 2)
        for n in range(2):
            combos = [combo(gains, n, i) for i in range(6)]
            assert len({c.h_d for c in combos}) == 1
            assert len({c.h_b_d1 for c in combos}) == 1
            assert len({c.h_b_d2 for c in combos}) == 1
        # CU-to-BS gain shared across pair rows
        assert combo(gains, 0, 3).h_b_u == combo(gains, 1, 3).h_b_u


REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

# (kernel in d2dpa.solvers, which half slot of its stacked output, which
# output, PowerTriplet field); the FD kernels have no slot axis.
POWER_OUTPUTS = [
    *[("_hd_nosic_slot_batch", slot, out, field)
      for slot, dev in ((0, "p1_w"), (1, "p2_w")) for out, field in (("p_dev", dev), ("pu", "pu_w"))],
    *[("_hd_sic_slot_batch", slot, out, field)
      for slot, dev in ((0, "p1_w"), (1, "p2_w")) for out, field in (("p_dev", dev), ("pu", "pu_w"))],
    *[(kernel, 0, out, field) for kernel in ("fd_nosic_batch", "fd_sic_batch")
      for out, field in enumerate(("p1_w", "p2_w", "pu_w"))],
]


def seeded_gains(cfg: SimConfig, trial: int) -> np.ndarray:
    dep = generate_deployment(cfg, np.random.SeedSequence((cfg.master_seed, trial, 0)))
    return gains_from_deployment(dep, cfg, np.random.SeedSequence((cfg.master_seed, trial, 1)))


class TestBatchedTables:
    """The tables `solve_all_batch` solves from a trial's whole gain block,
    as `build_rate_tables` wraps them: their entries, the checks on the
    gains and returned powers, and the errors that name a bad value."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"eta_db": -130.0, "d_max_m": 200.0, "pair_distance_law": "fixed"},
            {"r_u_min_bps": 0.0},  # q == 0: the CU stays silent
            {"p_max_dbm": -5.0, "r_u_min_bps": 4e6},  # mostly infeasible
        ],
        ids=["fig4a", "far_pairs", "no_rate_floor", "tight_caps"],
    )
    def test_one_entry_tables_equal_the_trial_table(self, overrides):
        """`solve_all` solves each combination as a one-entry block of
        `solve_all_batch`; each of its entries equals the trial table's, so
        the batched solve does not depend on the block's shape."""
        cfg = SimConfig(trials=1, **overrides)
        params, limits = cfg.system_params(), cfg.power_limits()
        for trial in range(50):
            gains = seeded_gains(cfg, trial)
            tables = build_rate_tables(gains, params, limits)
            for n in range(cfg.d_pairs):
                for i in range(cfg.k_users):
                    for kind, sol in solve_all(combo(gains, n, i), params, limits).items():
                        table = tables[kind]
                        want = sol.r_d2d_bps if sol.feasible else 0.0
                        assert table.rates[n, i] == pytest.approx(want, rel=1e-12, abs=0.0)
                        assert table.sic_applied[n, i] == (sol.sic_applied and sol.feasible)
                        assert table.infeasible[n, i] == (not sol.feasible)

    @pytest.mark.parametrize("overrides", [{}, FAR_PAIRS], ids=["fig4a", "far_pairs"])
    def test_table_rates_are_scenario_rates_of_the_powers(self, overrides):
        """Each feasible entry's rate is `scenario_rates`' r_d1 + r_d2 at
        the entry's returned powers: bit for bit, except where FD-SIC
        applies SIC, whose `sic_sum_rate` sums the logs before scaling."""
        cfg = SimConfig(trials=1, **overrides)
        params, limits = cfg.system_params(), cfg.power_limits()
        hd = (ScenarioKind.HD_NOSIC, ScenarioKind.HD_SIC)
        checked = dict.fromkeys(ScenarioKind, 0)
        for trial in range(20):
            gains = seeded_gains(cfg, trial)
            for kind, t in d2dpa.solvers.solve_all_batch(gains, params, limits).items():
                for n, i in np.argwhere(~t.infeasible):
                    if kind is ScenarioKind.HD_SIC:
                        scenario = Scenario(kind, slot_sic=tuple(bool(u[n, i]) for u in t.slot_sic))
                    elif kind is ScenarioKind.FD_SIC and t.sic_applied[n, i]:
                        scenario = Scenario(kind, order=SIC_ORDERS[int(t.m1_first[n, i])])
                    else:
                        scenario = Scenario(kind)
                    slots = t.powers if kind in hd else (t.powers,)
                    powers = [
                        PowerTriplet(*(float(np.broadcast_to(p, t.rate.shape)[n, i]) for p in slot))
                        for slot in slots
                    ]
                    _, r_d1, r_d2 = scenario_rates(
                        scenario, tuple(powers) if kind in hd else powers[0],
                        combo(gains, n, i), params,
                    )
                    if scenario.order is None:
                        assert t.rate[n, i] == r_d1 + r_d2, (kind, trial, n, i)
                    else:
                        assert t.rate[n, i] == pytest.approx(r_d1 + r_d2, rel=1e-12, abs=0.0)
                    checked[kind] += 1
        assert all(count > 0 for count in checked.values())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-9])
    @pytest.mark.parametrize("name", GAIN_FIELDS)
    def test_rate_tables_reject_bad_gain(self, name, bad):
        cfg = SimConfig(k_users=4, d_pairs=2, trials=1)
        h = seeded_gains(cfg, 0)
        h[GAIN_FIELDS.index(name)].flat[-1] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got {bad!r}$"):
            build_rate_tables(h, cfg.system_params(), cfg.power_limits())

    @pytest.mark.parametrize("name, cu, d1, d2", [
        ("h_d", (60.0, 10.0), (5.0, 15.0), (5.0, 15.0)),
        ("h_b_d1", (60.0, 10.0), (0.0, 0.0), (9.0, 18.0)),
        ("h_b_d2", (60.0, 10.0), (5.0, 15.0), (0.0, 0.0)),
        ("h_d1_u", (5.0, 15.0), (5.0, 15.0), (9.0, 18.0)),
        ("h_d2_u", (9.0, 18.0), (5.0, 15.0), (9.0, 18.0)),
        ("h_b_u", (0.0, 0.0), (5.0, 15.0), (9.0, 18.0)),
    ])
    def test_zero_distance_link_names_the_link(self, name, cu, d1, d2):
        """Two nodes of a link on one spot give it an infinite gain, which the
        table build rejects, naming that link."""
        cfg = SimConfig(k_users=1, d_pairs=1, trials=1)
        dep = Deployment(cu_xy=np.array([cu]), d1_xy=np.array([d1]), d2_xy=np.array([d2]))
        with np.errstate(divide="ignore"):
            h = gains_from_deployment(dep, cfg, 0)
        with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got inf$"):
            build_rate_tables(h, cfg.system_params(), cfg.power_limits())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, -5e-324, 0.0, 1.0])
    @pytest.mark.parametrize("field", ["p1_w", "p2_w", "pu_w"])
    def test_power_check_matches_power_triplet(self, field, value):
        triplet = {"p1_w": 0.5, "p2_w": 0.5, "pu_w": 0.5, field: value}
        try:
            PowerTriplet(**triplet)
            expected = None
        except ValueError as exc:
            expected = str(exc)
        feasible = np.array([[True, False]])
        arrays = {k: np.array([[v, v]]) for k, v in triplet.items()}
        if expected is None:
            d2dpa.solvers._check_powers(feasible, **arrays)
        else:
            with pytest.raises(ValueError) as info:
                d2dpa.solvers._check_powers(feasible, **arrays)
            assert str(info.value) == expected
        # infeasible entries are never checked: solve_all reports zeros there
        arrays = {k: np.array([[0.5, v]]) for k, v in triplet.items()}
        d2dpa.solvers._check_powers(feasible, **arrays)

    @pytest.mark.parametrize("infeasible", [False, True])
    def test_batched_path_checks_returned_powers(self, monkeypatch, infeasible):
        """A non-finite FD no-SIC power fails the table build where a
        PowerTriplet would: on a feasible entry only."""
        kernel = d2dpa.solvers.fd_nosic_batch

        def corrupted(*args):
            p1, p2, pu, rate = (x.copy() for x in kernel(*args))
            p1[0, 0] = math.nan
            if infeasible:
                p1[0, 0], p2[0, 0], pu[0, 0], rate[0, 0] = math.nan, 0.0, 0.0, -np.inf
            return p1, p2, pu, rate

        monkeypatch.setattr(d2dpa.solvers, "fd_nosic_batch", corrupted)
        cfg = SimConfig(k_users=4, d_pairs=2, trials=1)
        gains = seeded_gains(cfg, 0)
        if infeasible:
            tables = build_rate_tables(gains, cfg.system_params(), cfg.power_limits())
            assert tables[ScenarioKind.FD_NOSIC].infeasible[0, 0]
        else:
            with pytest.raises(ValueError, match="p1_w must be finite and >= 0, got nan"):
                build_rate_tables(gains, cfg.system_params(), cfg.power_limits())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("infeasible", [False, True])
    @pytest.mark.parametrize("kernel, slot, out, field", POWER_OUTPUTS)
    def test_every_returned_power_is_checked(
        self, monkeypatch, kernel, slot, out, field, value, infeasible
    ):
        """A bad power from any kernel (each HD half slot with and without
        SIC, FD no-SIC, FD-SIC) fails the table build with `PowerTriplet`'s
        message where the entry is feasible and the power is returned, and
        passes where the kernel reports the entry infeasible."""
        cfg = SimConfig(trials=1)
        gains = seeded_gains(cfg, 0)
        params, limits = cfg.system_params(), cfg.power_limits()
        tables = d2dpa.solvers.solve_all_batch(gains, params, limits)
        hd_used = ~tables[ScenarioKind.HD_NOSIC].infeasible
        if kernel == "_hd_sic_slot_batch":
            hd_used &= tables[ScenarioKind.HD_SIC].slot_sic[slot]
        real = getattr(d2dpa.solvers, kernel)
        calls = []

        def corrupted(*args):
            result = real(*args)
            calls.append(result)
            if kernel.startswith("_hd"):
                at = (slot, *np.argwhere(hd_used)[0])
                fields = {f: getattr(result, f).copy() for f in ("p_dev", "pu", "r_dev", "ok")}
                fields[out][at] = value
                fields["ok"][at] = not infeasible
                return type(result)(**fields)
            arrays = [x.copy() for x in result]
            rate = arrays[3]
            at = tuple(np.argwhere(rate >= 0.0)[0])
            arrays[out][at] = value
            if infeasible:
                rate[at] = -np.inf
            return tuple(arrays)

        monkeypatch.setattr(d2dpa.solvers, kernel, corrupted)
        # The FD no-SIC CU power is capped at Pumax before it is returned.
        shown = min(value, limits.pu_max_w) if (kernel, field) == ("fd_nosic_batch", "pu_w") else value
        try:
            PowerTriplet(**{"p1_w": 0.5, "p2_w": 0.5, "pu_w": 0.5, field: shown})
            expected = None
        except ValueError as exc:
            expected = str(exc)
        if infeasible or expected is None:
            build_rate_tables(gains, params, limits)
        else:
            with pytest.raises(ValueError) as info:
                build_rate_tables(gains, params, limits)
            assert str(info.value) == expected
        assert len(calls) == 1


class TestCampaign:
    def test_trial_reproducibility(self):
        cfg = SimConfig(k_users=5, d_pairs=2, trials=3, master_seed=9)
        t1 = run_trial(cfg, 1)
        t2 = run_trial(cfg, 1)
        assert t1 == t2
        # the campaign's stored value equals the standalone trial value
        res = run_campaign(cfg)
        for kind in ScenarioKind:
            assert res.totals_bps[kind][1] == t1[0][kind]

    @pytest.mark.parametrize("overrides", [{}, FAR_PAIRS], ids=["fig4a", "far_pairs"])
    def test_trial_reads_scipys_first_mapping_of_each_table(self, overrides):
        """Each total is the sum over scipy's first optimal mapping of that
        scheme's table, bit for bit, and also `hungarian_max`'s total; the
        SIC count is read at that mapping."""
        cfg = SimConfig(trials=1, **overrides)
        params, limits = cfg.system_params(), cfg.power_limits()
        for trial in range(25):
            totals, counts = run_trial(cfg, trial)
            solved = d2dpa.solvers.solve_all_batch(seeded_gains(cfg, trial), params, limits)
            for kind, table in solved.items():
                rows, cols = linear_sum_assignment(table.rate, maximize=True)
                total = float(table.rate[rows, cols].sum())
                assert totals[kind].hex() == total.hex()
                assert hungarian_max(table.rate)[1].hex() == total.hex()
                assert counts[kind] == table.sic_applied[rows, cols].sum()

    @pytest.mark.parametrize("workload", ["campaign_fig4a", "campaign_far_pairs"])
    def test_first_benchmark_reference_trials(self, workload):
        """The first 100 single-trial campaigns of each benchmark workload
        match its stored reference outputs at the benchmark's tolerance:
        1e-7 relative on totals, exact selected-SIC counts."""
        ref = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
        cfg = SimConfig(**ref["config"])
        for master_seed, want in enumerate(ref["trials"][:100], start=1):
            result = run_campaign(dataclasses.replace(cfg, master_seed=master_seed))
            for name, (total, sic) in zip(ref["schemes"], want):
                kind = ScenarioKind[name]
                got = float(result.totals_bps[kind][0])
                assert abs(got - total) <= 1e-7 * max(abs(total), 1.0), (master_seed, name)
                assert result.sic_pairs[kind][0] == sic, (master_seed, name)

    def test_campaign_reproducible(self):
        cfg = SimConfig(k_users=5, d_pairs=2, trials=4, master_seed=3)
        a = run_campaign(cfg)
        b = run_campaign(cfg)
        for kind in ScenarioKind:
            assert np.array_equal(a.totals_bps[kind], b.totals_bps[kind])
            assert np.array_equal(a.sic_pairs[kind], b.sic_pairs[kind])

    def test_no_pairs_means_zero_throughput(self):
        cfg = SimConfig(k_users=4, d_pairs=0, trials=2)
        res = run_campaign(cfg)
        for kind in ScenarioKind:
            assert (res.totals_bps[kind] == 0.0).all()
            assert res.mean_per_pair_bps(kind) == 0.0

    def test_sic_dominance_survives_assignment(self):
        cfg = SimConfig(k_users=8, d_pairs=3, trials=6, master_seed=17, eta_db=-110.0)
        res = run_campaign(cfg)
        assert (
            res.totals_bps[ScenarioKind.FD_SIC] >= res.totals_bps[ScenarioKind.FD_NOSIC]
        ).all()
        assert (
            res.totals_bps[ScenarioKind.HD_SIC] >= res.totals_bps[ScenarioKind.HD_NOSIC]
        ).all()

    def test_hd_results_independent_of_si_cancellation(self):
        base = SimConfig(k_users=6, d_pairs=2, trials=4, master_seed=5, eta_db=-80.0)
        other = SimConfig(k_users=6, d_pairs=2, trials=4, master_seed=5, eta_db=-130.0)
        a = run_campaign(base)
        b = run_campaign(other)
        for kind in (ScenarioKind.HD_NOSIC, ScenarioKind.HD_SIC):
            assert np.array_equal(a.totals_bps[kind], b.totals_bps[kind])

    def test_overflowing_rate_names_the_scheme(self):
        """A reference path loss of -3000 dB: trial 0 solves, trial 1 has a
        D2D rate that overflows, and the campaign fails naming its scheme,
        with no overflow warning on the way."""
        cfg = SimConfig(path_loss_ref_db=-3000.0, trials=2)
        schemes = "|".join(kind.value for kind in ScenarioKind)
        with pytest.raises(ValueError, match=rf"^({schemes}): D2D rate inf must be finite"):
            run_campaign(cfg)

    @pytest.mark.parametrize("law", ["uniform", "fixed"])
    def test_zero_pair_distance_rejected_before_first_trial(self, law, monkeypatch):
        cfg = SimConfig(d_max_m=0.0, trials=1, pair_distance_law=law)

        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("d2dpa.sim.run_trial", no_trial)
        with pytest.raises(ValueError, match="d_max_m must be > 0"):
            run_campaign(cfg)

    def test_fixed_distance_beyond_cell_radius_rejected_before_first_trial(self, monkeypatch):
        # the fixed law redraws only the direction: with no in-cell partner
        # spot at this distance the deployment draw would never end
        cfg = SimConfig(d_max_m=700.0, trials=1, pair_distance_law="fixed")

        def no_trial(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("d2dpa.sim.run_trial", no_trial)
        with pytest.raises(ValueError, match="d_max_m must be <= cell_radius_m"):
            run_campaign(cfg)
        with pytest.raises(ValueError, match="d_max_m must be <= cell_radius_m"):
            sample_combo_gains(np.random.default_rng(0), cfg)

    @pytest.mark.parametrize(
        "overrides",
        [{"d_max_m": 300.0, "pair_distance_law": "fixed"}, {"d_max_m": 700.0}],
        ids=["fixed_at_radius", "uniform_beyond_radius"],
    )
    def test_reachable_pair_distances_accepted(self, overrides):
        cfg = SimConfig(k_users=2, d_pairs=2, trials=1, **overrides)
        check_campaign(cfg)
        sample_combo_gains(np.random.default_rng(0), cfg)

    def test_ci_halfwidth_matches_normal_formula(self):
        cfg = SimConfig(k_users=5, d_pairs=2, trials=8, master_seed=2)
        res = run_campaign(cfg)
        x = res.totals_bps[ScenarioKind.FD_NOSIC]
        expected = 1.96 * x.std(ddof=1) / math.sqrt(len(x))
        assert res.ci95_bps(ScenarioKind.FD_NOSIC) == pytest.approx(expected, rel=1e-12)


# name: (SimConfig overrides, trials)
NUMBERING_CONFIGS = {
    "fig4a": ({}, 200),
    "far_pairs": (FAR_PAIRS, 200),
    "dense": ({"d_pairs": 32, "k_users": 64}, 40),
}


FD_SIC_SWAP_XFAIL = pytest.mark.xfail(
    strict=True,
    reason="FD-SIC solves the two decoding orders with different geometry, so an "
    "M1_FIRST pair is not the mirror image of the swapped M2_FIRST pair",
)


def renumbered_trials(name: str, axis: int):
    """Each trial of a `NUMBERING_CONFIGS` entry as its results from its gain
    block and from the block with its pairs (``axis`` 1) or its CUs
    (``axis`` 2) in a seeded random order."""
    overrides, trials = NUMBERING_CONFIGS[name]
    cfg = SimConfig(trials=1, **overrides)
    rng = np.random.default_rng(88)
    for trial in range(trials):
        gains = seeded_gains(cfg, trial)
        order = rng.permutation(gains.shape[axis])
        yield trial_from_gains(cfg, gains), trial_from_gains(cfg, gains.take(order, axis=axis))


@functools.cache
def swapped_trials(name: str) -> list:
    """Each trial of a `NUMBERING_CONFIGS` entry as its results from its gain
    block and from the block with every pair's devices swapped (the swapped
    half of `device_swap_stack`)."""
    overrides, trials = NUMBERING_CONFIGS[name]
    cfg = SimConfig(trials=1, **overrides)
    out = []
    for trial in range(trials):
        gains = seeded_gains(cfg, trial)
        swapped = device_swap_stack(gains)[:, 1]
        out.append((trial_from_gains(cfg, gains), trial_from_gains(cfg, swapped)))
    return out


class TestWholeTrialNumbering:
    """A trial's results do not depend on how its pairs and CUs are
    numbered, nor on which device of each pair is called the first: every
    solve is per combination, and the assignment's optimum is the same under
    any order of its rows and columns."""

    @pytest.mark.parametrize("name", list(NUMBERING_CONFIGS))
    def test_permuting_the_cus_leaves_every_result(self, name):
        """Every pair keeps its row and its entries' values, so each total
        sums the same values in the same order and keeps its bits; every SIC
        count is equal too."""
        for (totals, counts), (got, got_counts) in renumbered_trials(name, axis=2):
            assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in totals.items()}
            assert got_counts == counts

    @pytest.mark.parametrize("name", list(NUMBERING_CONFIGS))
    def test_permuting_the_pairs_moves_totals_by_summation_order_only(self, name):
        """The totals sum the same entries in another order, so they agree
        within 1e-14 relative; every SIC count is equal."""
        for (totals, counts), (got, got_counts) in renumbered_trials(name, axis=1):
            for kind, total in totals.items():
                assert abs(got[kind] - total) <= 1e-14 * total, kind
            assert got_counts == counts

    @pytest.mark.parametrize("name", list(NUMBERING_CONFIGS))
    def test_swapping_every_pairs_devices_leaves_hd_and_fd_nosic(self, name):
        """The HD schemes solve both half slots, which the swap exchanges, so
        their totals keep their bits; FD-NoSIC's are within 1e-14 relative.
        No SIC count moves."""
        for (totals, counts), (got, got_counts) in swapped_trials(name):
            for kind in (ScenarioKind.HD_NOSIC, ScenarioKind.HD_SIC):
                assert got[kind].hex() == totals[kind].hex(), kind
            fd = ScenarioKind.FD_NOSIC
            assert abs(got[fd] - totals[fd]) <= 1e-14 * totals[fd]
            assert got_counts == counts

    @pytest.mark.parametrize(
        "name",
        [
            pytest.param("fig4a", marks=FD_SIC_SWAP_XFAIL),
            "far_pairs",
            pytest.param("dense", marks=FD_SIC_SWAP_XFAIL),
        ],
    )
    def test_swapping_every_pairs_devices_leaves_fd_sic(self, name):
        """FD-SIC totals within 1e-12 relative.  One fig4a trial moves by
        4.4e-6 and three dense trials by up to 3.6e-7, because an M1_FIRST
        pair's geometry is not the mirror image of the swapped M2_FIRST
        pair's; far pairs stay within 1.1e-13."""
        fd = ScenarioKind.FD_SIC
        for (totals, _), (got, _) in swapped_trials(name):
            assert abs(got[fd] - totals[fd]) <= 1e-12 * totals[fd]


class TestConfigValidation:
    def test_ordering_constraint(self):
        with pytest.raises(ValueError):
            SimConfig(k_users=4, d_pairs=5)
        with pytest.raises(ValueError):
            SimConfig(k_users=100, n_channels=64)

    def test_distance_law_values(self):
        with pytest.raises(ValueError):
            SimConfig(pair_distance_law="gauss")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name",
        [
            "cell_radius_m", "path_loss_exponent", "path_loss_ref_db", "shadowing_std_db",
            "p_max_dbm", "total_bandwidth_mhz", "noise_dbm", "d_max_m", "r_u_min_bps", "eta_db",
        ],
    )
    def test_non_finite_values_rejected(self, name, bad):
        with pytest.raises(ValueError, match=name):
            SimConfig(**{name: bad})

    @pytest.mark.parametrize("bad", [2.5, 3.0, True, np.bool_(True), np.float64(4.0), "4", None])
    @pytest.mark.parametrize("name", ["n_channels", "k_users", "d_pairs", "trials", "master_seed"])
    def test_non_integer_counts_rejected(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SimConfig(**{name: bad})

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"n_channels": 0, "k_users": 0, "d_pairs": 0}, "n_channels must be >= 1, got 0"),
            ({"trials": 0}, "trials must be >= 1, got 0"),
            ({"master_seed": -1}, "master_seed must be >= 0, got -1"),
        ],
    )
    def test_out_of_range_counts_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            SimConfig(**overrides)

    def test_numpy_integers_accepted(self):
        counts = {"n_channels": 64, "k_users": 4, "d_pairs": 2, "trials": 2, "master_seed": 7}
        cfg = SimConfig(**{k: np.int64(v) for k, v in counts.items()})
        res = run_campaign(cfg)
        ref = run_campaign(SimConfig(**counts))
        for kind in ScenarioKind:
            assert np.array_equal(res.totals_bps[kind], ref.totals_bps[kind])

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("eta_db", 5.0, "eta1 must lie in"),
            ("noise_dbm", -4000.0, "noise_dbm must be finite and within"),
            ("r_u_min_bps", 1e12, "r_u_min_bps must be >= 0 and below 1024 x bandwidth_hz"),
            ("eta_db", 4000.0, "eta_db must be finite and within"),
            ("p_max_dbm", -4000.0, "p_max_dbm must be finite and within"),
            ("path_loss_ref_db", 4000.0, "path_loss_ref_db must be finite and within"),
            ("total_bandwidth_mhz", 1e300, "total_bandwidth_mhz must be <= 1e6"),
        ],
    )
    def test_invalid_derived_parameters_rejected_at_construction(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            SimConfig(**{field: value})

    def test_derived_parameters_built_once(self):
        cfg = SimConfig(eta_db=-90.0)
        assert cfg.system_params() is cfg.system_params()
        assert cfg.power_limits() is cfg.power_limits()
        assert cfg.system_params().eta1 == cfg.system_params().eta2 == 1e-9
        assert dataclasses.replace(cfg, eta_db=-100.0).system_params().eta1 == 1e-10

    def test_channel_bandwidth(self):
        cfg = SimConfig()
        assert cfg.channel_bandwidth_hz == pytest.approx(312.5e3, rel=1e-12)
        assert cfg.system_params().noise_w == pytest.approx(10**-14.9, rel=1e-12)


def test_sample_combo_gains_deterministic():
    cfg = SimConfig(k_users=1, d_pairs=1, trials=1)
    a = sample_combo_gains(np.random.default_rng(4), cfg)
    b = sample_combo_gains(np.random.default_rng(4), cfg)
    assert a == b
