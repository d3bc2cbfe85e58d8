"""Optimal one-to-one pairing of D2D pairs to CU channels on a rate table.

The maximum-weight assignment is delegated to scipy's rectangular
Kuhn-Munkres implementation; on top of it, ties between equally good
assignments are broken toward the lexicographically smallest row-to-column
mapping so outputs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


_EPS = np.finfo(float).eps


def linear_sum_assignment(rates: np.ndarray, maximize: bool = False):
    """scipy's rectangular ``linear_sum_assignment``, imported on first call:
    loading ``scipy.optimize`` costs more than the rest of ``import d2dpa``."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(rates, maximize=maximize)


def _check_shape(rates: np.ndarray) -> None:
    """Reject a rate table that is not 2-D or has more rows than columns."""
    if rates.ndim != 2:
        raise ValueError("rate table must be 2-D")
    d, k = rates.shape
    if d > k:
        raise ValueError(f"more D2D rows ({d}) than CU columns ({k})")


def _raise_first_bad(rates: np.ndarray, ok: np.ndarray, what: str) -> None:
    row, col = np.argwhere(~ok)[0].tolist()
    raise ValueError(
        f"rate table entry ({row}, {col}) must be {what}, got {float(rates[row, col])!r}"
    )


@dataclass
class RateTable:
    """D x K table of achievable D2D rates with per-entry bookkeeping flags.

    Infeasible combinations carry rate zero so they never attract the
    assignment unless nothing better exists.
    """

    rates: np.ndarray
    sic_applied: np.ndarray = field(default=None)  # type: ignore[assignment]
    infeasible: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.rates = np.asarray(self.rates, dtype=float)
        _check_shape(self.rates)
        d, k = self.rates.shape
        if self.sic_applied is None:
            self.sic_applied = np.zeros((d, k), dtype=bool)
        if self.infeasible is None:
            self.infeasible = np.zeros((d, k), dtype=bool)
        self.sic_applied = np.asarray(self.sic_applied, dtype=bool)
        self.infeasible = np.asarray(self.infeasible, dtype=bool)
        if self.sic_applied.shape != (d, k) or self.infeasible.shape != (d, k):
            raise ValueError("flag arrays must match the rate table shape")
        rates = self.rates
        if not (rates.min(initial=0.0) >= 0.0 and rates.max(initial=0.0) < np.inf):
            _raise_first_bad(rates, (rates >= 0.0) & (rates < np.inf), "finite and >= 0")
        if rates[self.infeasible].any():
            raise ValueError("infeasible entries must carry rate 0")

    @property
    def shape(self) -> tuple[int, int]:
        return self.rates.shape


@dataclass(frozen=True)
class Assignment:
    """Injective mapping of table rows (D2D pairs) to columns (CU channels)."""

    pair_to_cu: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.pair_to_cu)) != len(self.pair_to_cu):
            raise ValueError("assignment must map rows to distinct columns")


def _solve(rates: np.ndarray) -> tuple[float, np.ndarray]:
    """Optimal total and the column of each row (positions in ``rates``)."""
    if rates.shape[0] == 0:
        return 0.0, np.zeros(0, dtype=int)
    rows, cols = linear_sum_assignment(rates, maximize=True)
    return float(rates[rows, cols].sum()), cols


def _forcing_loss(rates: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Least total any mapping gives up against the optimal mapping ``cols``
    when it sends row r to column c, for each table of a (B, D, K) stack
    with ``cols`` (B, D): a (B, D, K) array.

    Completing the table with K - D all-zero rows that hold the unused
    columns changes no mapping's total, and makes any mapping differ from
    ``cols`` by disjoint cycles: each moved row r gives up
    ``rates[r, cols[r]] - rates[r, new column]``, and no cycle gives up less
    than zero because ``cols`` is optimal.  So the loss of sending r to c is
    at least the cheapest cycle through that move, and that cycle is itself a
    mapping.  It is found as the move plus a shortest path back (no cycle
    is negative, so shortest paths exist), over the columns of ``cols`` with
    the unused columns merged into one node, whose zero-rate row may move
    onto any column at no cost.  Every step is elementwise or a minimum, so
    each table of a stack gets the same bits as on its own.
    """
    b, d, k = rates.shape
    tab, rows = np.arange(b)[:, None], np.arange(d)
    slack = rates[tab, rows, cols][:, :, None] - rates
    node = np.full((b, k), d)
    node[tab, cols] = rows
    n = d + (d < k)
    dist = np.zeros((b, n, n))
    dist[:, :d, :d] = slack[tab, :, cols].transpose(0, 2, 1)
    if d < k:
        dist[:, :d, d] = np.where((node == d)[:, None, :], slack, np.inf).min(axis=2)
    through = np.empty_like(dist)
    for col, row in zip(dist.transpose(2, 0, 1)[:, :, :, None], dist.transpose(1, 0, 2)[:, :, None]):
        np.minimum(dist, np.add(col, row, out=through), out=dist)
    return slack + dist[tab, node, :d].transpose(0, 2, 1)


def _checked_rates(table: RateTable | np.ndarray) -> np.ndarray:
    """The rates of a `RateTable`, or a raw array checked to be a finite
    table with no more rows than columns."""
    if isinstance(table, RateTable):
        return table.rates
    rates = np.asarray(table, dtype=float)
    _check_shape(rates)
    if not np.isfinite(rates).all():
        _raise_first_bad(rates, np.isfinite(rates), "finite")
    return rates


def hungarian_max(table: RateTable | np.ndarray) -> tuple[Assignment, float]:
    """Maximum-total assignment of rows to columns, lexicographically smallest.

    Requires no more rows than columns.  The total is the exact optimum; among
    all optimal assignments the returned one has the smallest column for row
    0, then for row 1, and so on.  This is `hungarian_max_many` on one table.

    Row by row, the first free column that still admits an optimal
    completion is fixed.  An optimal completion is always at hand (the first
    solve, then the solve that confirmed the last fixed column), and its own
    column for the row qualifies, so only free columns left of it need a
    check.  Before any of them is re-solved, the first solve certifies which
    columns no optimal mapping can use: every mapping that sends row r to
    column c falls short of the optimum by at least the forcing loss of that
    move (see ``_forcing_loss``).  Where the loss exceeds the tie tolerance,
    with room for float error, the full check would reject the column, so
    dropping it leaves the result unchanged.  When no column left in play
    lies left of a row's first-solve column, no row can move and the first
    solve is returned as it is.  Each column left in play is checked, in
    ascending order, with one solve of the remaining rows without it.
    """
    return _hungarian_max_stack(_checked_rates(table)[None])[0]


def hungarian_max_many(tables) -> list[tuple[Assignment, float]]:
    """`hungarian_max` of each of a list of same-shape tables, with the
    forcing losses of all of them from one stacked pass."""
    return _hungarian_max_stack(np.array([_checked_rates(t) for t in tables]))


def _hungarian_max_stack(rates: np.ndarray) -> list[tuple[Assignment, float]]:
    """`hungarian_max` of each table of a checked (B, D, K) stack."""
    b, d, k = rates.shape
    if d == 0:
        return [(Assignment(()), 0.0)] * b
    firsts = [_solve(r) for r in rates]
    tols = [1e-12 * max(1.0, abs(total)) for total, _ in firsts]
    # eps bounds the float error of the losses and of the sums checked in
    # the tie-break, so the cut also holds where tol is small against the
    # entries.
    eps = (8.0 * (d + 1) * _EPS * np.abs(rates).max(axis=(1, 2))).tolist()
    bound = np.array([2.0 * tol + e for tol, e in zip(tols, eps)])
    near = _forcing_loss(rates, np.array([c for _, c in firsts])) <= bound[:, None, None]
    return [
        _tie_break(r, total, c, n, tol)
        for r, (total, c), n, tol in zip(rates, firsts, near, tols)
    ]


def _tie_break(
    rates: np.ndarray, total: float, completion: np.ndarray, near: np.ndarray, tol: float
) -> tuple[Assignment, float]:
    """The lexicographically smallest mapping within ``tol`` of the optimum
    ``total``, from the first solve's columns ``completion`` and the entries
    ``near`` that the forcing loss leaves in play."""
    d, k = rates.shape
    # A row can leave its column only for a near column left of it.
    if not (near & (np.arange(k) < completion[:, None])).any():
        return Assignment(tuple(completion.tolist())), total
    chosen: list[int] = []
    fixed = 0.0
    for r in range(d):
        # completion holds the columns of rows r.. in an optimal completion.
        star = int(completion[0])
        pick, rest_completion = star, completion[1:]
        for col in np.flatnonzero(near[r, :star]).tolist():
            if col in chosen:
                continue
            others = np.delete(np.arange(k), chosen + [col])
            sub_total, sub_cols = _solve(rates[r + 1 :, others])
            if fixed + (rates[r, col] + sub_total) >= total - tol:
                pick, rest_completion = col, others[sub_cols]
                break
        chosen.append(pick)
        fixed += rates[r, pick]
        completion = rest_completion
    return Assignment(tuple(chosen)), total
