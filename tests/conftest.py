import numpy as np
import pytest

from d2dpa.fdsic import (
    Plane,
    SicPlanes,
    _gain_tuple,
    ceiling_planes,
    floor_planes,
    pmc_margins,
    sic_rate_margins,
    sufficient_feasibility,
)
from d2dpa.model import DecodingOrder, PowerLimits, SystemParams, dbm_to_watts, pu_min
from d2dpa.sim import SimConfig, sample_combo_gains

NOISE_W = dbm_to_watts(-119.0)
BW_HZ = 312.5e3
P_MAX_W = dbm_to_watts(24.0)


def make_params(eta_db: float = -110.0, r_u_min_bps: float = 1.5e6) -> SystemParams:
    eta = 10.0 ** (eta_db / 10.0)
    return SystemParams(
        bandwidth_hz=BW_HZ, noise_w=NOISE_W, eta1=eta, eta2=eta, r_u_min_bps=r_u_min_bps
    )


def make_limits(scale: float = 1.0) -> PowerLimits:
    return PowerLimits(P_MAX_W * scale, P_MAX_W * scale, P_MAX_W * scale)


def sample_instances(seed: int, count: int):
    """(gains, params) pairs drawn from the campaign deployment distribution."""
    rng = np.random.default_rng(seed)
    cfg = SimConfig(k_users=1, d_pairs=1, trials=1)
    out = []
    for _ in range(count):
        params = make_params(eta_db=rng.uniform(-130.0, -80.0))
        out.append((sample_combo_gains(rng, cfg), params))
    return out


def sample_fd_sic_feasible(
    seed: int, count: int, limits: PowerLimits | None = None, eta_db: float | None = None
):
    """(gains, params, order) triples passing the mutual-SIC feasibility test,
    with the SI factor drawn in [-130, -80] dB or fixed at ``eta_db``."""
    rng = np.random.default_rng(seed)
    cfg = SimConfig(k_users=1, d_pairs=1, trials=1)
    lim = limits if limits is not None else make_limits()
    out = []
    prefer_second = False
    while len(out) < count:
        eta = rng.uniform(-130.0, -80.0)
        params = make_params(eta_db=eta if eta_db is None else eta_db)
        gains = sample_combo_gains(rng, cfg)
        pu_m = pu_min(params, gains.h_b_u)
        orders = [
            o
            for o in (DecodingOrder.M2_FIRST, DecodingOrder.M1_FIRST)
            if sufficient_feasibility(gains, params, lim, pu_m, o)
        ]
        if not orders:
            continue
        if prefer_second and len(orders) == 2:
            orders = orders[::-1]
        prefer_second = not prefer_second
        out.append((gains, params, orders[0]))
    return out


def order_constraints(gains, params: SystemParams, order: DecodingOrder):
    """The mutual-SIC constraints of one (combination, order) pair as the
    solver states them, from its array forms on one-entry arrays.

    Returns the order's `SicPlanes`, with float coefficients, and a function
    of a point (p1, p2, pu) giving its four power-ordering margins
    (`pmc_margins`) and its four SIC-rate margins (`sic_rate_margins`), as
    two tuples of floats.
    """
    h = tuple(np.array([x]) for x in _gain_tuple(gains))
    m1_first = np.array([order is DecodingOrder.M1_FIRST])
    ceil1, ceil3 = ceiling_planes(h, m1_first)
    floor2, floor4 = floor_planes(h, params.eta1, params.eta2)
    planes = SicPlanes(
        *(Plane(float(p.ax[0]), float(p.ay[0])) for p in (ceil1, floor2, ceil3, floor4))
    )

    def margins(p1, p2, pu):
        sic = sic_rate_margins(h, params.eta1, params.eta2, m1_first, p1, p2, pu)
        return pmc_margins(planes, p1, p2, pu), tuple(float(m[0]) for m in sic)

    return planes, margins


@pytest.fixture
def default_limits() -> PowerLimits:
    return make_limits()
