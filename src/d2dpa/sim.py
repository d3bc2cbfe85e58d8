"""Monte Carlo campaign engine: drop devices in a hexagonal cell, synthesize
large-scale channel gains, solve every D2D-CU combination, assign channels
and aggregate across trials.

A trial's gains are one (6, D, K) block, rows in `model.GAIN_FIELDS` order,
which `build_rate_tables` checks and solves as it is.

Trials are seeded independently from the master seed, so results do not
depend on execution order and repeat bit-exactly.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .assignment import RateTable, hungarian_max_many
from .model import (
    GAIN_FIELDS,
    ChannelGains,
    PowerLimits,
    ScenarioKind,
    SystemParams,
    check_array,
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
        if not 0 <= self.d_pairs <= self.k_users <= self.n_channels:
            raise ValueError("need d_pairs <= k_users <= n_channels")
        for name in ("cell_radius_m", "path_loss_exponent", "total_bandwidth_mhz"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")
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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
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


def in_hexagon(x: float, y: float, radius: float) -> bool:
    """True where (x, y) lies inside the cell: within the apothem of the
    horizontal edges and of the two slanted edge pairs."""
    ax, ay = abs(x), abs(y)
    return max(ay, _SQRT3_2 * ax + 0.5 * ay) <= radius * _SQRT3_2 * (1.0 + 1e-12)


def _uniform_hexagon_point(draw: Callable[[], float], radius: float) -> tuple[float, float]:
    """A point uniform over the hexagon, from the doubles in [0, 1) that
    ``draw`` returns, mapped as ``Generator.uniform`` maps them."""
    while True:
        x = -radius + 2.0 * radius * draw()
        y = -radius + 2.0 * radius * draw()
        if in_hexagon(x, y, radius):
            return x, y


def _partner(
    draw: Callable[[], float], x: float, y: float, config: SimConfig
) -> tuple[float, float]:
    """The second device of a pair whose first device is at (x, y).

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
        r = config.d_max_m if config.pair_distance_law == "fixed" else reach * draw()
        phi = 2.0 * math.pi * draw()
        px, py = x + r * math.cos(phi), y + r * math.sin(phi)
        if in_hexagon(px, py, radius):
            return px, py


def _block_draws(rng: np.random.Generator) -> Callable[[], float]:
    """The doubles of successive ``rng.random()`` calls, drawn 64 at a time.

    The generator runs ahead of the doubles handed out, so only a caller
    that draws nothing else from it may use this.
    """

    def doubles():
        while True:
            yield from rng.random(64).tolist()

    return doubles().__next__


@dataclass(frozen=True)
class Deployment:
    """Node positions for one trial: K CUs and D device pairs inside the cell."""

    cu_xy: np.ndarray  # (K, 2)
    d1_xy: np.ndarray  # (D, 2)
    d2_xy: np.ndarray  # (D, 2)


def generate_deployment(config: SimConfig, seed) -> Deployment:
    """Drop CUs and device pairs uniformly in the cell.

    The first device of each pair is uniform over the hexagon; its partner
    is drawn by `_partner`.
    """
    draw = _block_draws(np.random.default_rng(seed))
    radius = config.cell_radius_m
    cu = np.array([_uniform_hexagon_point(draw, radius) for _ in range(config.k_users)])
    d1 = np.array([_uniform_hexagon_point(draw, radius) for _ in range(config.d_pairs)])
    d2 = np.array([_partner(draw, x, y, config) for x, y in d1])
    cu = cu.reshape(config.k_users, 2)
    d1 = d1.reshape(config.d_pairs, 2)
    d2 = d2.reshape(config.d_pairs, 2)
    return Deployment(cu_xy=cu, d1_xy=d1, d2_xy=d2)


def gains_from_deployment(deployment: Deployment, config: SimConfig, seed) -> np.ndarray:
    """The trial's (6, D, K) gain block, rows in `GAIN_FIELDS` order: path
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
    """One D x K rate table per scheme from a (6, D, K) gain block, every
    combination solved at once.

    Every gain must be finite and > 0, as in `ChannelGains`; the first bad
    one raises ValueError naming its field.  The tables equal those of
    `solve_all` on each combination's `ChannelGains`.
    """
    # One test over every entry; the per-field check runs only to name the
    # first bad one.
    if not (h.min(initial=np.inf) > 0.0 and h.max(initial=0.0) < np.inf):
        for name, row in zip(GAIN_FIELDS, h):
            check_array(name, row, strict=True)
    return {
        kind: RateTable(t.rate, sic_applied=t.sic_applied, infeasible=t.infeasible)
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


def run_trial(
    config: SimConfig, trial: int
) -> tuple[dict[ScenarioKind, float], dict[ScenarioKind, int]]:
    """Totals and selected-SIC counts for one seeded trial."""
    dep_seed = np.random.SeedSequence((config.master_seed, trial, 0))
    gain_seed = np.random.SeedSequence((config.master_seed, trial, 1))
    deployment = generate_deployment(config, dep_seed)
    gains = gains_from_deployment(deployment, config, gain_seed)
    tables = build_rate_tables(gains, config.system_params(), config.power_limits())
    assigned = hungarian_max_many(list(tables.values()))
    # (scheme, pair, CU) stacks: the SIC flag of each assigned entry at once.
    sic = np.array([t.sic_applied for t in tables.values()])
    cols = np.array([a.pair_to_cu for a, _ in assigned], dtype=np.intp).reshape(sic.shape[:2])
    counts = sic[np.arange(len(sic))[:, None], np.arange(sic.shape[1]), cols].sum(axis=1)
    return (
        {kind: total for kind, (_, total) in zip(tables, assigned)},
        dict(zip(tables, counts.tolist())),
    )


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


def sample_combo_gains(rng: np.random.Generator, config: SimConfig | None = None) -> ChannelGains:
    """One random (pair, CU) gain draw from the deployment distribution.

    Convenience for solver validation: a single pair and a single CU dropped
    in the cell with the campaign propagation model.
    """
    cfg = config if config is not None else SimConfig(k_users=1, d_pairs=1, trials=1)
    check_campaign(cfg)
    radius = cfg.cell_radius_m
    # Scalar draws: the shadowing draws below continue on the same generator.
    d1 = _uniform_hexagon_point(rng.random, radius)
    d2 = _partner(rng.random, *d1, cfg)
    cu = _uniform_hexagon_point(rng.random, radius)
    alpha = cfg.path_loss_exponent
    std = cfg.shadowing_std_db

    def gain(ax: float, ay: float, bx: float, by: float) -> float:
        d = math.hypot(ax - bx, ay - by)
        return d**-alpha * 10.0 ** ((rng.normal(0.0, std) - cfg.path_loss_ref_db) / 10.0)

    return ChannelGains(
        h_d=gain(*d1, *d2),
        h_b_d1=gain(*d1, 0.0, 0.0),
        h_b_d2=gain(*d2, 0.0, 0.0),
        h_d1_u=gain(*cu, *d1),
        h_d2_u=gain(*cu, *d2),
        h_b_u=gain(*cu, 0.0, 0.0),
    )
