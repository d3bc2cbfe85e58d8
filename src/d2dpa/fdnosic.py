"""Exact closed-form power allocation for full duplex without SIC.

The D2D rate falls as the CU power rises, so the CU rate floor binds with
equality and the problem collapses to two dimensions.  The objective then
improves along rays from the origin, pinning the optimum to the box edges
P1 = P1max or P2 = P2max, or to the line where the required CU power hits its
cap.  With no rate floor (q = 0) the CU stays silent and only the two device
edges remain.

On each of these faces all three powers are affine in one parameter t, and so
are the two interference-plus-noise terms den1 = pu*h_d1_u + eta1*p1 + s and
den2 = pu*h_d2_u + eta2*p2 + s.  The rate is

    B * log2(N(t) / D(t)),  N = (den1 + p2*h_d) * (den2 + p1*h_d),
                            D = den1 * den2,

with N = n2 t^2 + n1 t + n0 and D = d2 t^2 + d1 t + d0 quadratics.  Its
stationary points are the zeros of N'D - ND', where the cubic terms cancel:

    N'D - ND' = A t^2 + B t + C,   A = n2*d1 - n1*d2,
                                   B = 2*(n2*d0 - n0*d2),
                                   C = n1*d0 - n0*d1.

The maximum over a face is therefore at an endpoint or at one of at most two
real roots inside it, and the whole solve is a fixed number of evaluations.

`fd_nosic_batch` solves a whole table of combinations at once with numpy.
"""

from __future__ import annotations

import numpy as np

from .model import PowerLimits, SystemParams, rate_floor_snr


def _stationarity_coeffs(start, step, h_d, h_d1_u, h_d2_u, eta1, eta2, s):
    """(A, B, C) of N'D - ND' on the face start + u * step; the arguments
    may be floats or numpy arrays that broadcast."""
    a1, a2, au = start
    v1, v2, vu = step
    # den1 = e0 + e1 u, den2 = f0 + f1 u, den1 + p2 h_d = g0 + g1 u, den2 + p1 h_d = k0 + k1 u
    e0, e1 = au * h_d1_u + eta1 * a1 + s, vu * h_d1_u + eta1 * v1
    f0, f1 = au * h_d2_u + eta2 * a2 + s, vu * h_d2_u + eta2 * v2
    g0, g1 = e0 + a2 * h_d, e1 + v2 * h_d
    k0, k1 = f0 + a1 * h_d, f1 + v1 * h_d
    n2, n1, n0 = g1 * k1, g0 * k1 + g1 * k0, g0 * k0
    d2, d1, d0 = e1 * f1, e0 * f1 + e1 * f0, e0 * f0
    return n2 * d1 - n1 * d2, 2.0 * (n2 * d0 - n0 * d2), n1 * d0 - n0 * d1


def _roots_inside_batch(a, b, c):
    """Real roots of a u^2 + b u + c strictly inside (0, 1), as (smaller,
    larger) arrays with NaN where a root is absent.

    The two roots come from q = -(b + sign(b) sqrt(disc)) / 2 as q/a and c/q,
    which avoids the cancellation of -b + sqrt(disc) when 4ac << b^2.  Absent
    roots come out of sqrt(-x), x/0 and 0/0, so call it under ``np.errstate``.
    """
    linear = a == 0.0
    q = -0.5 * (b + np.copysign(np.sqrt(b * b - 4.0 * a * c), b))
    r1, r2 = q / a, c / q
    lo = np.where(linear, -c / b, np.minimum(r1, r2))
    hi = np.where(linear, np.nan, np.maximum(r1, r2))
    return tuple(np.where((u > 0.0) & (u < 1.0), u, np.nan) for u in (lo, hi))


def fd_nosic_batch(h, params: SystemParams, limits: PowerLimits) -> tuple:
    """Best (p1, p2, pu, d2d_rate) without SIC, as `fdsic.fd_sic_batch`
    takes and returns them: ``h`` holds the six link gains in `ChannelGains`
    field order, as arrays that broadcast to one shape, and the result is
    four arrays of that shape with (0, 0, 0, -inf) where infeasible.

    The CU power is the exact value meeting the rate floor at the chosen
    device powers.  Candidates are visited face by face (P1max edge, P2max
    edge, CU cap), each face's start, inside roots and end in turn, and of
    equal best rates the first candidate wins.
    """
    h_d, h_b_d1, h_b_d2, h_d1_u, h_d2_u, h_b_u = h
    shape = np.broadcast_shapes(*map(np.shape, h))
    q = rate_floor_snr(params)  # the CU SINR floor
    s, eta1, eta2 = params.noise_w, params.eta1, params.eta2
    p1_max, p2_max, pu_max = limits.p1_max_w, limits.p2_max_w, limits.pu_max_w
    with np.errstate(all="ignore"):
        if q == 0.0:
            on = np.ones(shape, dtype=bool)
            faces = [
                (on, (p1_max, 0.0, 0.0), (p1_max, p2_max, 0.0)),
                (on, (0.0, p2_max, 0.0), (p1_max, p2_max, 0.0)),
            ]
        else:

            def pu_req(p1, p2):
                return q * (p1 * h_b_d1 + p2 * h_b_d2 + s) / h_b_u

            ccut = pu_max * h_b_u / q - s  # p1*h_b_d1 + p2*h_b_d2 <= ccut keeps pu <= pu_max
            # The P1max edge meets the cut (so ccut >= 0); likewise P2max.
            edge1 = p1_max * h_b_d1 <= ccut
            edge2 = p2_max * h_b_d2 <= ccut
            p2_hi = np.minimum(p2_max, (ccut - p1_max * h_b_d1) / h_b_d2)
            p1_hi = np.minimum(p1_max, (ccut - p2_max * h_b_d2) / h_b_d1)
            # The cap face runs from its corner on the P2max edge (or the
            # p1 = 0 axis) to its corner on the P1max edge (or the p2 = 0
            # axis).  The corners are computed directly, not as p2 from p1:
            # that would amplify the rounding of p1*h_b_d1 by 1/h_b_d2 and can
            # push p2 past P2max.  Computed directly, swapping the devices
            # mirrors them exactly.
            cap_start = (
                np.where(edge2, p1_hi, 0.0),
                np.where(edge2, p2_max, np.minimum(ccut / h_b_d2, p2_max)),
                pu_max,
            )
            cap_end = (
                np.where(edge1, p1_max, np.minimum(ccut / h_b_d1, p1_max)),
                np.where(edge1, p2_hi, 0.0),
                pu_max,
            )
            cap_on = (ccut >= 0.0) & (p1_max * h_b_d1 + p2_max * h_b_d2 >= ccut)
            faces = [
                (edge1, (p1_max, 0.0, pu_req(p1_max, 0.0)), (p1_max, p2_hi, pu_req(p1_max, p2_hi))),
                (edge2, (0.0, p2_max, pu_req(0.0, p2_max)), (p1_hi, p2_max, pu_req(p1_hi, p2_max))),
                (cap_on, cap_start, cap_end),
            ]

        # All faces at once on a leading axis; each face's candidates (start,
        # smaller root, larger root, end) then follow it, in visiting order.
        # cand holds (p1, p2, pu, rate) of every candidate.
        n_cand = 4 * len(faces)
        on = np.empty((len(faces), *shape), dtype=bool)
        start, end = np.empty((2, 3, *on.shape))
        for f, (face_on, a, e) in enumerate(faces):
            on[f] = face_on
            for i in range(3):
                start[i, f], end[i, f] = a[i], e[i]
        step = end - start
        lo, hi = _roots_inside_batch(
            *_stationarity_coeffs(start, step, h_d, h_d1_u, h_d2_u, eta1, eta2, s)
        )
        cand = np.empty((4, n_cand, *shape))
        cand[:3] = np.stack([start, start + lo * step, start + hi * step, end], axis=2).reshape(
            3, n_cand, *shape
        )
        p1, p2, pu = cand[:3]
        on = np.repeat(on, 4, axis=0)
        den1 = pu * h_d1_u + eta1 * p1 + s
        den2 = pu * h_d2_u + eta2 * p2 + s
        r = params.bandwidth_hz * np.log2((1.0 + p1 * h_d / den2) * (1.0 + p2 * h_d / den1))
    # A candidate counts only if its rate is a number (every power on a face
    # is >= 0, so it is then >= 0) and beats every earlier one: the first
    # maximum, which argmax returns.
    cand[3] = np.where(on & (r >= 0.0), r, -np.inf)
    flat = cand.reshape(4, n_cand, -1)
    best = flat[:, np.argmax(flat[3], axis=0), np.arange(flat.shape[2])]
    best[:3, best[3] == -np.inf] = 0.0
    return tuple(best.reshape(4, *shape))
