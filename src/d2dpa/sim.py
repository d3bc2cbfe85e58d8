"""Monte Carlo campaign engine: drop devices in a hexagonal cell, synthesize
large-scale channel gains, solve every D2D-CU combination, assign channels
and aggregate across trials.

A trial's gains are one (6, D, K) block, rows in `model.GAIN_FIELDS` order,
which `solvers.solve_all_batch` checks and solves as it is.  Each of the
four schemes' rate tables is then assigned with `assignment.first_optimum`:
the trial's total is the table's sum over scipy's first optimal mapping,
and its SIC count is read at that mapping.  Where a table has several
optimal mappings, that need not be the lexicographically smallest one that
`assignment.hungarian_max` returns; the totals agree.

Trials are seeded independently from the master seed, so results do not
depend on execution order and repeat bit-exactly.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .assignment import RateTable, first_optimum
from .model import (
    ChannelGains,
    PowerLimits,
    ScenarioKind,
    SystemParams,
    db_to_linear,
    dbm_to_watts,
)
from .solvers import solve_all_batch

SCENARIOS = (
    ScenarioKind.FD_NOSIC,
    ScenarioKind.HD_NOSIC,
    ScenarioKind.HD_SIC,
    ScenarioKind.FD_SIC,
)


# The integer fields of `SimConfig`.
INT_FIELDS = ("n_channels", "k_users", "d_pairs", "trials", "master_seed")


@dataclass(frozen=True)
class SimConfig:
    """Cell, propagation and campaign parameters.

    Defaults follow the evaluation setup: 300 m hexagonal cell, path-loss
    exponent 3.76, 8 dB lognormal shadowing, 24 dBm transmitters, 20 MHz
    split into 64 uplink channels (312.5 kHz each) with -119 dBm noise per
    channel.
    """

    cell_radius_m: float = 300.0
    path_loss_exponent: float = 3.76
    # Reference loss at 1 m. The 3.76 slope is the macro-cell model
    # 128.1 + 37.6*log10(d_km), whose 1 m intercept is 15.3 dB; set to 0 for
    # a bare d^-alpha law.
    path_loss_ref_db: float = 15.3
    shadowing_std_db: float = 8.0
    p_max_dbm: float = 24.0
    total_bandwidth_mhz: float = 20.0
    n_channels: int = 64
    noise_dbm: float = -119.0
    k_users: int = 20
    d_pairs: int = 5
    d_max_m: float = 100.0
    # "uniform": pair distance uniform in [0, d_max_m]; "fixed": exactly
    # d_max_m (distance-controlled sweeps).
    pair_distance_law: str = "uniform"
    r_u_min_bps: float = 1.5e6
    eta_db: float = -110.0
    trials: int = 1000
    master_seed: int = 1

    def __post_init__(self) -> None:
        for name in INT_FIELDS:
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        for name, low in (("n_channels", 1), ("trials", 1), ("master_seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)!r}")
        if not 0 <= self.d_pairs <= self.k_users <= self.n_channels:
            raise ValueError("need d_pairs <= k_users <= n_channels")
        for name in ("cell_radius_m", "path_loss_exponent", "total_bandwidth_mhz"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")
        # A 1 THz ceiling, far above any radio channel: rates stay below 1024
        # bit/s per Hz, so a trial's total and the CI's squares stay finite.
        if self.total_bandwidth_mhz > 1e6:
            raise ValueError(f"total_bandwidth_mhz must be <= 1e6, got {self.total_bandwidth_mhz!r}")
        for name in ("d_max_m", "shadowing_std_db", "r_u_min_bps"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")
        for name in ("path_loss_ref_db", "p_max_dbm", "noise_dbm", "eta_db"):
            v = getattr(self, name)
            if not abs(v) <= 3000.0:  # rejects NaN; 10^(v/10) stays in (0, inf)
                raise ValueError(f"{name} must be finite and within +-3000 dB, got {v!r}")
        if self.pair_distance_law not in ("uniform", "fixed"):
            raise ValueError("pair_distance_law must be 'uniform' or 'fixed'")
        # Built, and so checked, once: a config whose values convert to
        # invalid ones fails here, not at a campaign's first trial.
        eta, p_max = db_to_linear(self.eta_db), dbm_to_watts(self.p_max_dbm)
        params = SystemParams(
            bandwidth_hz=self.channel_bandwidth_hz,
            noise_w=dbm_to_watts(self.noise_dbm),
            eta1=eta,
            eta2=eta,
            r_u_min_bps=self.r_u_min_bps,
        )
        object.__setattr__(self, "_system_params", params)
        object.__setattr__(self, "_power_limits", PowerLimits(p_max, p_max, p_max))

    @property
    def channel_bandwidth_hz(self) -> float:
        return self.total_bandwidth_mhz * 1e6 / self.n_channels

    def system_params(self) -> SystemParams:
        return self._system_params

    def power_limits(self) -> PowerLimits:
        return self._power_limits


# ---------------------------------------------------------------------------
# Hexagonal cell geometry (BS at the origin, corners at cell_radius_m)

_SQRT3_2 = math.sqrt(3.0) / 2.0


def in_hexagon(x, y, radius: float):
    """True where (x, y) lies inside the cell: within the apothem of the
    horizontal edges and of the two slanted edge pairs.  ``x`` and ``y`` may
    be floats, tested without a numpy call, or arrays that broadcast."""
    ax, ay = abs(x), abs(y)
    bound = radius * _SQRT3_2 * (1.0 + 1e-12)
    return (ay <= bound) & (_SQRT3_2 * ax + 0.5 * ay <= bound)


def _partner(
    rng: np.random.Generator, x: float, y: float, config: SimConfig
) -> tuple[float, float]:
    """The second device of a pair whose first device is at (x, y), drawn
    one ``rng.random()`` double at a time.

    It sits along a uniform direction at distance d_max_m (fixed law) or at
    a uniform distance in [0, d_max_m], and is re-drawn until it falls inside
    the cell.  Two points of the hexagon are at most twice its circumradius
    apart, so a uniform distance is drawn from [0, min(d_max_m, 2R)]: longer
    draws would always be rejected, and the accepted distribution is the
    same.
    """
    radius = config.cell_radius_m
    reach = min(config.d_max_m, 2.0 * radius)
    while True:
        r = config.d_max_m if config.pair_distance_law == "fixed" else reach * rng.random()
        phi = 2.0 * math.pi * rng.random()
        px, py = x + r * math.cos(phi), y + r * math.sin(phi)
        if in_hexagon(px, py, radius):
            return px, py


def _uniform_hexagon_points(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """The (n, 2) points, uniform over the hexagon, of ``n`` scalar rejection
    draws: attempt i maps the generator's doubles 2i and 2i + 1 as
    ``Generator.uniform`` maps them, and is kept if it lies in the cell.

    The attempts are drawn and tested in blocks.  The generator's state is
    then restored and only the doubles used are drawn again, so it is left
    where the scalar draws would leave it and a caller may draw on from it.
    """
    state = rng.bit_generator.state
    u = rng.random(2 * n + 64)
    while True:
        xy = -radius + 2.0 * radius * u.reshape(-1, 2)
        hit = np.flatnonzero(in_hexagon(xy[:, 0], xy[:, 1], radius))
        if len(hit) >= n:
            break
        u = np.concatenate((u, rng.random(2 * (n - len(hit)) + 64)))
    rng.bit_generator.state = state
    rng.random(2 * hit[n - 1] + 2 if n else 0)
    return xy[hit[:n]]


@dataclass(frozen=True)
class Deployment:
    """Node positions for one trial: K CUs and D device pairs inside the cell."""

    cu_xy: np.ndarray  # (K, 2)
    d1_xy: np.ndarray  # (D, 2)
    d2_xy: np.ndarray  # (D, 2)


def generate_deployment(config: SimConfig, seed) -> Deployment:
    """Drop CUs and device pairs uniformly in the cell.

    The CUs, then the first device of each pair, are the K + D points of one
    hexagon draw (`_uniform_hexagon_points`), which leaves the trial's
    generator where K + D scalar rejection draws would.  Each partner is
    then drawn by `_partner` from the doubles that follow, so the points are
    those of one scalar rejection draw after another, bit for bit.
    """
    rng = np.random.default_rng(seed)
    k, d = config.k_users, config.d_pairs
    points = _uniform_hexagon_points(rng, k + d, config.cell_radius_m)
    d2 = np.array([_partner(rng, x, y, config) for x, y in points[k:].tolist()])
    return Deployment(cu_xy=points[:k], d1_xy=points[k:], d2_xy=d2.reshape(d, 2))


def gains_from_deployment(deployment: Deployment, config: SimConfig, seed) -> np.ndarray:
    """The trial's (6, D, K) gain block, rows in `model.GAIN_FIELDS` order: path
    loss (reference intercept plus d^-alpha) with independent lognormal
    shadowing per directed link.

    Every link is one entry of one pass, in `GAIN_FIELDS` order except that
    h_b_u comes before the (D, K) links: the order of the shadowing draws.
    The pair-level rows are then broadcast along K and the CU row along D.
    """
    rng = np.random.default_rng(seed)
    d1, d2, cu = deployment.d1_xy, deployment.d2_xy, deployment.cu_xy
    d, k = d1.shape[0], cu.shape[0]
    # Each link's transmitter-to-receiver offset; the BS sits at the origin.
    offset = np.empty((3 * d + k + 2 * d * k, 2))
    offset[:d] = d1 - d2
    offset[d : 2 * d] = d1
    offset[2 * d : 3 * d] = d2
    offset[3 * d : 3 * d + k] = cu
    offset[3 * d + k :].reshape(2, d, k, 2)[:] = np.array([d1, d2])[:, :, None] - cu
    dist = np.sqrt((offset**2).sum(axis=-1))
    shadow_db = rng.normal(0.0, config.shadowing_std_db, len(dist))
    g = dist**-config.path_loss_exponent * 10.0 ** ((shadow_db - config.path_loss_ref_db) / 10.0)
    h = np.empty((6, d, k))
    h[:3] = g[: 3 * d].reshape(3, d, 1)
    h[3:5] = g[3 * d + k :].reshape(2, d, k)
    h[5] = g[3 * d : 3 * d + k]
    return h


def build_rate_tables(
    h: np.ndarray, params: SystemParams, limits: PowerLimits
) -> dict[ScenarioKind, RateTable]:
    """One D x K `RateTable` per scheme from a (6, D, K) gain block: the
    tables of `solve_all_batch`, which checks the gains and the rates.  The
    tables equal those of `solve_all` on each combination's `ChannelGains`.
    """
    return {
        kind: RateTable(t.rate, t.sic_applied, t.infeasible)
        for kind, t in solve_all_batch(h, params, limits).items()
    }


@dataclass
class CampaignResult:
    """Per-scenario totals and SIC-pair counts for every trial of a campaign.

    ``sic_pairs`` counts assigned pairs whose selected entry applied SIC.
    """

    config: SimConfig
    totals_bps: dict[ScenarioKind, np.ndarray]
    sic_pairs: dict[ScenarioKind, np.ndarray]

    def mean_total_bps(self, kind: ScenarioKind) -> float:
        return float(self.totals_bps[kind].mean())

    def mean_per_pair_bps(self, kind: ScenarioKind) -> float:
        if self.config.d_pairs == 0:
            return 0.0
        return self.mean_total_bps(kind) / self.config.d_pairs

    def mean_sic_pairs(self, kind: ScenarioKind) -> float:
        return float(self.sic_pairs[kind].mean())

    def ci95_bps(self, kind: ScenarioKind) -> float:
        """Normal-approximation 95% confidence half-width of the mean total."""
        x = self.totals_bps[kind]
        if x.size < 2:
            return 0.0
        return 1.96 * float(x.std(ddof=1)) / math.sqrt(x.size)


def trial_from_gains(
    config: SimConfig, gains: np.ndarray
) -> tuple[dict[ScenarioKind, float], dict[ScenarioKind, int]]:
    """Totals and selected-SIC counts of a trial's (6, D, K) gain block:
    each scheme's optimal total, and the SIC entries of scipy's first
    optimal mapping of its table."""
    solved = solve_all_batch(gains, config.system_params(), config.power_limits())
    totals, counts = {}, {}
    for kind, table in solved.items():
        totals[kind], cols = first_optimum(table.rate)
        counts[kind] = int(table.sic_applied[np.arange(len(cols)), cols].sum())
    return totals, counts


def run_trial(
    config: SimConfig, trial: int
) -> tuple[dict[ScenarioKind, float], dict[ScenarioKind, int]]:
    """Totals and selected-SIC counts for one seeded trial."""
    dep_seed = np.random.SeedSequence((config.master_seed, trial, 0))
    gain_seed = np.random.SeedSequence((config.master_seed, trial, 1))
    deployment = generate_deployment(config, dep_seed)
    return trial_from_gains(config, gains_from_deployment(deployment, config, gain_seed))


def check_campaign(config: SimConfig) -> None:
    """Reject a config that constructs but whose deployments cannot be drawn.

    With ``d_max_m = 0`` both distance laws put each pair's two devices on
    one spot, where the path-loss gain is infinite.  The fixed law redraws
    only the partner's direction, so a first device with no in-cell spot at
    that distance never gets a partner; up to the cell radius every first
    device has one.
    """
    if config.d_max_m <= 0.0:
        raise ValueError(
            f"d_max_m must be > 0 for a campaign (a pair at distance 0 has an "
            f"infinite gain), got {config.d_max_m!r}"
        )
    if config.pair_distance_law == "fixed" and config.d_max_m > config.cell_radius_m:
        raise ValueError(
            f"d_max_m must be <= cell_radius_m ({config.cell_radius_m!r}) with the fixed "
            f"pair distance law (a device may have no partner spot that far inside "
            f"the cell), got {config.d_max_m!r}"
        )


def run_campaign(config: SimConfig) -> CampaignResult:
    check_campaign(config)
    totals = {s: np.zeros(config.trials) for s in SCENARIOS}
    counts = {s: np.zeros(config.trials) for s in SCENARIOS}
    for trial in range(config.trials):
        t, c = run_trial(config, trial)
        for s in SCENARIOS:
            totals[s][trial] = t[s]
            counts[s][trial] = c[s]
    return CampaignResult(config=config, totals_bps=totals, sic_pairs=counts)


def sample_combo_gains(rng: np.random.Generator, config: SimConfig) -> ChannelGains:
    """One random (pair, CU) gain draw from the deployment distribution.

    Convenience for solver validation: a single pair and a single CU dropped
    in the cell of ``config`` with its propagation model.  The first device
    and the CU are one-point hexagon draws (`_uniform_hexagon_points`), the
    partner a `_partner` draw between them, and the six shadowing draws
    follow on the same generator: the stream of scalar rejection draws.
    """
    check_campaign(config)
    radius = config.cell_radius_m
    d1 = _uniform_hexagon_points(rng, 1, radius)[0].tolist()
    d2 = _partner(rng, *d1, config)
    cu = _uniform_hexagon_points(rng, 1, radius)[0].tolist()
    alpha = config.path_loss_exponent
    std = config.shadowing_std_db

    def gain(ax: float, ay: float, bx: float, by: float) -> float:
        d = math.hypot(ax - bx, ay - by)
        return d**-alpha * 10.0 ** ((rng.normal(0.0, std) - config.path_loss_ref_db) / 10.0)

    return ChannelGains(
        h_d=gain(*d1, *d2),
        h_b_d1=gain(*d1, 0.0, 0.0),
        h_b_d2=gain(*d2, 0.0, 0.0),
        h_d1_u=gain(*cu, *d1),
        h_d2_u=gain(*cu, *d2),
        h_b_u=gain(*cu, 0.0, 0.0),
    )
