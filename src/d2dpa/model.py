"""Domain types, unit helpers and the Shannon rates of the D2D underlay links.

Everything internal runs in linear SI units (W, Hz, bit/s); dB and dBm only
appear at I/O boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


def check_fields(obj, names, strict: bool) -> None:
    """The "finite and > 0" (``strict``) or "finite and >= 0" rule of the
    scalar types, on each named float field of ``obj``; `check_array` is
    its array form.

    Raises ValueError naming the first failing field and its value.
    """
    for name in names:
        v = getattr(obj, name)
        if not (math.isfinite(v) and (v > 0.0 if strict else v >= 0.0)):
            raise ValueError(f"{name} must be finite and {'>' if strict else '>='} 0, got {v!r}")


def check_array(name: str, values, strict: bool, where=True) -> None:
    """`check_fields`' "finite and > 0" (``strict``) or "finite and >= 0"
    rule over an array, on the entries ``where`` selects.

    Raises the same ValueError as `check_fields` would, naming the field
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


# The six link gains, in the order of the rows of every (6, ...) gain block.
GAIN_FIELDS = ("h_d", "h_b_d1", "h_b_d2", "h_d1_u", "h_d2_u", "h_b_u")


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
        check_fields(self, GAIN_FIELDS, strict=True)

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


def gain_block(*gains: ChannelGains) -> np.ndarray:
    """The (6, n) gain block of n combinations, rows in `GAIN_FIELDS` order:
    the form every solve takes."""
    return np.array([[getattr(g, name) for g in gains] for name in GAIN_FIELDS])


# Rows of a gain block's device-swap stack: [:, 0] the block itself and
# [:, 1] the block with devices 1 and 2 exchanged.
_SWAP_STACK = np.array([[0, 0], [1, 2], [2, 1], [3, 4], [4, 3], [5, 5]])


def device_swap_stack(h: np.ndarray) -> np.ndarray:
    """The (6, 2, ...) stack of the (6, ...) gain block ``h`` and the block
    with devices 1 and 2 exchanged, as `ChannelGains.swapped_devices`
    exchanges them, from one gather."""
    return h[_SWAP_STACK]


@dataclass(frozen=True)
class SystemParams:
    """Channel bandwidth, noise power, SI cancellation factors and CU rate floor."""

    bandwidth_hz: float
    noise_w: float
    eta1: float
    eta2: float
    r_u_min_bps: float

    def __post_init__(self) -> None:
        check_fields(self, ("bandwidth_hz", "noise_w"), strict=True)
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
        check_fields(self, ("p1_max_w", "p2_max_w", "pu_max_w"), strict=True)

    def swapped_devices(self) -> "PowerLimits":
        return PowerLimits(self.p2_max_w, self.p1_max_w, self.pu_max_w)


@dataclass(frozen=True)
class PowerTriplet:
    """One candidate operating point (device 1, device 2, CU), in watts."""

    p1_w: float
    p2_w: float
    pu_w: float

    def __post_init__(self) -> None:
        check_fields(self, ("p1_w", "p2_w", "pu_w"), strict=False)


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


def rate_floor_snr(params: SystemParams) -> float:
    """SINR the CU must reach for its minimum rate: 2^(Rmin/B) - 1."""
    return 2.0 ** (params.r_u_min_bps / params.bandwidth_hz) - 1.0


def pu_min(params: SystemParams, h_b_u):
    """Smallest CU power meeting the rate floor on an interference-free
    uplink, for a float or an array of CU-to-BS gains."""
    return rate_floor_snr(params) * params.noise_w / h_b_u


def cu_rate(p1_w, p2_w, pu_w, h, params: SystemParams, sic: bool):
    """The CU's rate at the BS, on floats or arrays: under SIC the BS has
    stripped both device messages and keeps only noise, without it both
    devices interfere.  ``h`` is a (6, ...) gain block, rows in
    `GAIN_FIELDS` order."""
    _, h_b_d1, h_b_d2, _, _, h_b_u = h
    s = params.noise_w
    den = s if sic else p1_w * h_b_d1 + p2_w * h_b_d2 + s
    return params.bandwidth_hz * np.log2(1.0 + pu_w * h_b_u / den)


def device_rate(p_tx_w, p_rx_w, pu_w, h_d, h_rx_u, eta_rx, params: SystemParams, sic: bool):
    """The rate of one device's message at its partner, on floats or
    arrays: the receiver keeps its residual self-interference ``eta_rx *
    p_rx_w`` and, unless it cancels it by SIC, the CU's interference through
    ``h_rx_u``.  A half-duplex slot is the call with the receiver silent."""
    s = params.noise_w
    den = eta_rx * p_rx_w + s if sic else pu_w * h_rx_u + eta_rx * p_rx_w + s
    return params.bandwidth_hz * np.log2(1.0 + p_tx_w * h_d / den)


def sic_sum_rate(p1_w, p2_w, h_d, params: SystemParams):
    """Sum D2D rate under mutual SIC, independent of the CU power, on floats
    or arrays of one shape: FD-SIC's objective, with the two logs summed
    before the scaling by the bandwidth.  Both devices' rates come from one
    pass over the (p1, p2) stack."""
    p = np.array([p1_w, p2_w])
    eta = np.array([params.eta2, params.eta1]).reshape((2,) + (1,) * (p.ndim - 1))
    logs = np.log2(1.0 + p * h_d / (eta * p[::-1] + params.noise_w))
    return params.bandwidth_hz * (logs[0] + logs[1])


def scenario_rates(
    scenario: Scenario,
    powers: PowerTriplet | HalfSlotPowers,
    gains: ChannelGains,
    params: SystemParams,
) -> tuple[float, float, float]:
    """Achieved (CU, d1, d2) rates for any scenario, from `cu_rate` and
    `device_rate`.

    HD scenarios take a pair of half-slot triplets and return half-slot
    averaged rates (each half slot carries weight 1/2); slot 1 carries
    device 1 to device 2 with device 2 silent, slot 2 the reverse.
    """
    h = gain_block(gains)[:, 0]
    h_d, _, _, h_d1_u, h_d2_u, _ = h
    e1, e2 = params.eta1, params.eta2
    with np.errstate(all="ignore"):
        if scenario.kind in (ScenarioKind.FD_NOSIC, ScenarioKind.FD_SIC):
            assert isinstance(powers, PowerTriplet)
            sic = scenario.order is not None
            p1, p2, pu = powers.p1_w, powers.p2_w, powers.pu_w
            rates = (
                cu_rate(p1, p2, pu, h, params, sic),
                device_rate(p2, p1, pu, h_d, h_d1_u, e1, params, sic),
                device_rate(p1, p2, pu, h_d, h_d2_u, e2, params, sic),
            )
        elif scenario.kind in (ScenarioKind.HD_NOSIC, ScenarioKind.HD_SIC):
            first, second = powers  # type: ignore[misc]
            if first.p2_w != 0.0:
                raise ValueError("device 2 must stay silent in the first half slot")
            if second.p1_w != 0.0:
                raise ValueError("device 1 must stay silent in the second half slot")
            sic1, sic2 = scenario.slot_sic or (False, False)
            r_u1 = cu_rate(first.p1_w, 0.0, first.pu_w, h, params, sic1)
            r_d2 = device_rate(first.p1_w, 0.0, first.pu_w, h_d, h_d2_u, e2, params, sic1)
            r_u2 = cu_rate(0.0, second.p2_w, second.pu_w, h, params, sic2)
            r_d1 = device_rate(second.p2_w, 0.0, second.pu_w, h_d, h_d1_u, e1, params, sic2)
            rates = (0.5 * (r_u1 + r_u2), 0.5 * r_d1, 0.5 * r_d2)
        else:
            raise ValueError(f"unknown scenario kind: {scenario.kind!r}")
    return tuple(float(r) for r in rates)
