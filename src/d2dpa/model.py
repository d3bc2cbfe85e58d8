"""Domain types, unit helpers and per-scenario Shannon rates for D2D underlay links.

Everything internal runs in linear SI units (W, Hz, bit/s); dB and dBm only
appear at I/O boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Relative tolerance of the power-limit checks.
REL_POWER_TOL = 1e-9


def check_array(name: str, values, strict: bool, where=True) -> None:
    """The scalar types' "finite and > 0" (``strict``) or "finite and >= 0"
    check over an array, on the entries ``where`` selects.

    Raises the same ValueError as the scalar check would, naming the field
    and the first failing value.
    """
    values = np.asarray(values)
    bad = ~(np.isfinite(values) & (values > 0.0 if strict else values >= 0.0)) & where
    if bad.any():
        bound = ">" if strict else ">="
        first = float(np.broadcast_to(values, bad.shape)[bad][0])
        raise ValueError(f"{name} must be finite and {bound} 0, got {first!r}")


def db_to_linear(x_db: float) -> float:
    """Convert a dB value to a linear power factor."""
    return 10.0 ** (x_db / 10.0)


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


def watts_to_dbm(p_w: float) -> float:
    return 10.0 * math.log10(p_w) + 30.0


@dataclass(frozen=True)
class ChannelGains:
    """Squared link gains (linear) for one D2D pair sharing one CU channel.

    h_d is the inter-device gain, h_b_d1/h_b_d2 the device-to-BS gains,
    h_d1_u/h_d2_u the CU interference gains at the devices, h_b_u the
    CU-to-BS gain.
    """

    h_d: float
    h_b_d1: float
    h_b_d2: float
    h_d1_u: float
    h_d2_u: float
    h_b_u: float

    def __post_init__(self) -> None:
        for name in ("h_d", "h_b_d1", "h_b_d2", "h_d1_u", "h_d2_u", "h_b_u"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")

    def swapped_devices(self) -> "ChannelGains":
        """Gains with the device indices 1 and 2 exchanged."""
        return ChannelGains(
            h_d=self.h_d,
            h_b_d1=self.h_b_d2,
            h_b_d2=self.h_b_d1,
            h_d1_u=self.h_d2_u,
            h_d2_u=self.h_d1_u,
            h_b_u=self.h_b_u,
        )


@dataclass(frozen=True)
class SystemParams:
    """Channel bandwidth, noise power, SI cancellation factors and CU rate floor."""

    bandwidth_hz: float
    noise_w: float
    eta1: float
    eta2: float
    r_u_min_bps: float

    def __post_init__(self) -> None:
        for name in ("bandwidth_hz", "noise_w"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")
        for name in ("eta1", "eta2"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):  # also rejects NaN
                raise ValueError(f"{name} must lie in (0, 1], got {v!r}")
        # From 1024 bandwidths on, the SNR floor 2^(r_u_min_bps / bandwidth_hz) overflows.
        if not 0.0 <= self.r_u_min_bps < 1024.0 * self.bandwidth_hz:
            raise ValueError(f"r_u_min_bps must be >= 0 and below 1024 x bandwidth_hz, "
                             f"got {self.r_u_min_bps!r}")

    def swapped_devices(self) -> "SystemParams":
        return SystemParams(
            bandwidth_hz=self.bandwidth_hz,
            noise_w=self.noise_w,
            eta1=self.eta2,
            eta2=self.eta1,
            r_u_min_bps=self.r_u_min_bps,
        )


@dataclass(frozen=True)
class PowerLimits:
    p1_max_w: float
    p2_max_w: float
    pu_max_w: float

    def __post_init__(self) -> None:
        for name in ("p1_max_w", "p2_max_w", "pu_max_w"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v!r}")

    def swapped_devices(self) -> "PowerLimits":
        return PowerLimits(self.p2_max_w, self.p1_max_w, self.pu_max_w)


@dataclass(frozen=True)
class PowerTriplet:
    """One candidate operating point (device 1, device 2, CU), in watts."""

    p1_w: float
    p2_w: float
    pu_w: float

    def __post_init__(self) -> None:
        for name in ("p1_w", "p2_w", "pu_w"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")

    def within(self, limits: PowerLimits, rel_tol: float = REL_POWER_TOL) -> bool:
        return within_limits(self.p1_w, self.p2_w, self.pu_w, limits, rel_tol)


def within_limits(p1_w, p2_w, pu_w, limits: PowerLimits, rel_tol: float = REL_POWER_TOL):
    """`PowerTriplet.within` on floats or arrays."""
    return (
        (p1_w <= limits.p1_max_w * (1.0 + rel_tol))
        & (p2_w <= limits.p2_max_w * (1.0 + rel_tol))
        & (pu_w <= limits.pu_max_w * (1.0 + rel_tol))
    )


class ScenarioKind(Enum):
    FD_NOSIC = "fd_nosic"
    HD_NOSIC = "hd_nosic"
    HD_SIC = "hd_sic"
    FD_SIC = "fd_sic"


class DecodingOrder(Enum):
    """Order in which the BS strips the two device messages before the CU's."""

    M2_FIRST = 1
    M1_FIRST = 2


@dataclass(frozen=True)
class Scenario:
    """Transmission scheme tag attached to a solved power allocation.

    ``order`` is set only for FD-SIC with SIC actually applied; ``slot_sic``
    records, for HD-SIC, which of the two half slots run with SIC.
    """

    kind: ScenarioKind
    order: DecodingOrder | None = None
    slot_sic: tuple[bool, bool] | None = None

    def __post_init__(self) -> None:
        if self.order is not None and self.kind is not ScenarioKind.FD_SIC:
            raise ValueError("decoding order only applies to FD-SIC")
        if self.slot_sic is not None and self.kind is not ScenarioKind.HD_SIC:
            raise ValueError("slot_sic only applies to HD-SIC")
        if self.kind is ScenarioKind.HD_SIC and self.slot_sic is None:
            raise ValueError("HD-SIC scenario needs per-slot SIC flags")


HalfSlotPowers = tuple[PowerTriplet, PowerTriplet]


@dataclass(frozen=True)
class PaSolution:
    """Solved power allocation for one D2D-CU combination.

    ``powers`` is one triplet for FD scenarios or a (first half, second half)
    pair for HD ones.  Infeasible problems are reported with ``feasible``
    False and zero rates rather than raising.
    """

    scenario: Scenario
    powers: PowerTriplet | HalfSlotPowers
    r_d2d_bps: float
    r_u_bps: float
    sic_applied: bool
    feasible: bool = True


def shannon_rate(bandwidth_hz: float, sinr: float) -> float:
    return bandwidth_hz * math.log2(1.0 + sinr)


def rate_floor_snr(params: SystemParams) -> float:
    """SINR the CU must reach for its minimum rate: 2^(Rmin/B) - 1."""
    return 2.0 ** (params.r_u_min_bps / params.bandwidth_hz) - 1.0


def pu_min(params: SystemParams, h_b_u):
    """Smallest CU power meeting the rate floor on an interference-free
    uplink, for a float or an array of CU-to-BS gains."""
    return rate_floor_snr(params) * params.noise_w / h_b_u


def fd_nosic_rates(
    powers: PowerTriplet, gains: ChannelGains, params: SystemParams
) -> tuple[float, float, float]:
    """(CU, d1, d2) rates when nobody cancels anything: full cross interference
    at the BS, and CU interference plus residual self-interference at the devices."""
    s = params.noise_w
    b = params.bandwidth_hz
    sinr_b = powers.pu_w * gains.h_b_u / (
        powers.p1_w * gains.h_b_d1 + powers.p2_w * gains.h_b_d2 + s
    )
    sinr_d1 = powers.p2_w * gains.h_d / (
        powers.pu_w * gains.h_d1_u + params.eta1 * powers.p1_w + s
    )
    sinr_d2 = powers.p1_w * gains.h_d / (
        powers.pu_w * gains.h_d2_u + params.eta2 * powers.p2_w + s
    )
    return shannon_rate(b, sinr_b), shannon_rate(b, sinr_d1), shannon_rate(b, sinr_d2)


def fd_sic_rates(
    powers: PowerTriplet, gains: ChannelGains, params: SystemParams
) -> tuple[float, float, float]:
    """(CU, d1, d2) rates under full mutual SIC: the BS keeps only noise and the
    devices keep only their residual self-interference."""
    s = params.noise_w
    b = params.bandwidth_hz
    sinr_b = powers.pu_w * gains.h_b_u / s
    sinr_d1 = powers.p2_w * gains.h_d / (params.eta1 * powers.p1_w + s)
    sinr_d2 = powers.p1_w * gains.h_d / (params.eta2 * powers.p2_w + s)
    return shannon_rate(b, sinr_b), shannon_rate(b, sinr_d1), shannon_rate(b, sinr_d2)


def sic_sum_rate(p1_w, p2_w, h_d, params: SystemParams, log2=math.log2):
    """Sum D2D rate under mutual SIC, independent of the CU power; on floats
    or, with an array ``log2``, on arrays."""
    s = params.noise_w
    return params.bandwidth_hz * (
        log2(1.0 + p1_w * h_d / (params.eta2 * p2_w + s))
        + log2(1.0 + p2_w * h_d / (params.eta1 * p1_w + s))
    )


def _hd_slot_rates(
    slot: int,
    powers: PowerTriplet,
    gains: ChannelGains,
    params: SystemParams,
    sic: bool,
) -> tuple[float, float]:
    """(CU rate, receiving-device rate) for one half slot, full-rate values."""
    s = params.noise_w
    b = params.bandwidth_hz
    if slot == 1:
        p_dev, h_b_dev, h_rx_u = powers.p1_w, gains.h_b_d1, gains.h_d2_u
        if powers.p2_w != 0.0:
            raise ValueError("device 2 must stay silent in the first half slot")
    else:
        p_dev, h_b_dev, h_rx_u = powers.p2_w, gains.h_b_d2, gains.h_d1_u
        if powers.p1_w != 0.0:
            raise ValueError("device 1 must stay silent in the second half slot")
    if sic:
        sinr_b = powers.pu_w * gains.h_b_u / s
        sinr_dev = p_dev * gains.h_d / s
    else:
        sinr_b = powers.pu_w * gains.h_b_u / (p_dev * h_b_dev + s)
        sinr_dev = p_dev * gains.h_d / (powers.pu_w * h_rx_u + s)
    return shannon_rate(b, sinr_b), shannon_rate(b, sinr_dev)


def scenario_rates(
    scenario: Scenario,
    powers: PowerTriplet | HalfSlotPowers,
    gains: ChannelGains,
    params: SystemParams,
) -> tuple[float, float, float]:
    """Achieved (CU, d1, d2) rates for any scenario.

    HD scenarios take a pair of half-slot triplets and return half-slot
    averaged rates (each half slot carries weight 1/2).
    """
    if scenario.kind is ScenarioKind.FD_NOSIC:
        assert isinstance(powers, PowerTriplet)
        return fd_nosic_rates(powers, gains, params)
    if scenario.kind is ScenarioKind.FD_SIC:
        assert isinstance(powers, PowerTriplet)
        if scenario.order is not None:
            return fd_sic_rates(powers, gains, params)
        return fd_nosic_rates(powers, gains, params)
    if scenario.kind in (ScenarioKind.HD_NOSIC, ScenarioKind.HD_SIC):
        first, second = powers  # type: ignore[misc]
        if scenario.kind is ScenarioKind.HD_SIC:
            sic1, sic2 = scenario.slot_sic  # type: ignore[misc]
        else:
            sic1 = sic2 = False
        r_u1, r_d2 = _hd_slot_rates(1, first, gains, params, sic1)
        r_u2, r_d1 = _hd_slot_rates(2, second, gains, params, sic2)
        return 0.5 * (r_u1 + r_u2), 0.5 * r_d1, 0.5 * r_d2
    raise ValueError(f"unknown scenario kind: {scenario.kind!r}")
