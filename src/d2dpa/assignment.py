"""Optimal one-to-one pairing of D2D pairs to CU channels on a rate table.

The maximum-weight assignment is delegated to scipy's rectangular
Kuhn-Munkres implementation.  `first_optimum` is scipy's first optimal
mapping and the sum of the table over it; campaign trials read that.
`hungarian_max` returns the same total with the lexicographically smallest
optimal mapping: a certificate settles most tables from the first mapping,
and any other table takes one Floyd-Warshall pass and the tie-break.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


_EPS = float(np.finfo(float).eps)


_scipy_lsa = None


def linear_sum_assignment(rates: np.ndarray):
    """scipy's rectangular ``linear_sum_assignment``, maximizing, imported on
    the first call and kept: loading ``scipy.optimize`` costs more than the
    rest of ``import d2dpa``."""
    global _scipy_lsa
    if _scipy_lsa is None:
        from scipy.optimize import linear_sum_assignment as _scipy_lsa
    return _scipy_lsa(rates, maximize=True)


def _check_shape(rates: np.ndarray) -> None:
    """Reject a rate table that is not 2-D or has more rows than columns."""
    if rates.ndim != 2:
        raise ValueError("rate table must be 2-D")
    d, k = rates.shape
    if d > k:
        raise ValueError(f"more D2D rows ({d}) than CU columns ({k})")


def _raise_first_bad(rates: np.ndarray, ok: np.ndarray, what: str) -> None:
    """Raise for the first entry of a table where ``ok`` is False, naming
    its place."""
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
        rates = self.rates
        if self.sic_applied.shape != rates.shape or self.infeasible.shape != rates.shape:
            raise ValueError("flag arrays must match the rate table shape")
        if not (rates.min(initial=0.0) >= 0.0 and rates.max(initial=0.0) < np.inf):
            _raise_first_bad(rates, (rates >= 0.0) & (rates < np.inf), "finite and >= 0")
        if rates[self.infeasible].any():
            raise ValueError("infeasible entries must carry rate 0")


@dataclass(frozen=True)
class Assignment:
    """Injective mapping of table rows (D2D pairs) to columns (CU channels)."""

    pair_to_cu: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.pair_to_cu)) != len(self.pair_to_cu):
            raise ValueError("assignment must map rows to distinct columns")


def first_optimum(rates: np.ndarray) -> tuple[float, np.ndarray]:
    """The sum of ``rates`` over scipy's first optimal mapping, and the
    column of each row there (positions in ``rates``)."""
    rows, cols = linear_sum_assignment(rates)
    return float(rates[rows, cols].sum()), cols


@np.errstate(over="ignore")
def _forcing_loss(rates: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Least total any mapping gives up against the optimal mapping ``cols``
    of the (D, K) table ``rates`` when it sends row r to column c: a (D, K)
    array.

    Completing the table with K - D all-zero rows that hold the unused
    columns changes no mapping's total, and makes any mapping differ from
    ``cols`` by disjoint cycles: each moved row r gives up its slack at the
    new column (``slack[r, c]``, its own entry minus ``rates[r, c]``), and
    no cycle gives up less than zero because ``cols`` is optimal.  The
    graph of moves has the columns of ``cols`` as nodes (node r holds row
    r's column) with the unused columns merged into node D, whose zero-rate
    row may move onto any column at no cost; ``dist[i, j]`` is what row i
    gives up by moving onto node j, so ``dist[:D, :D]`` is the slack at the
    mapping's columns and ``dist[:D, D]`` each row's least slack over the
    unused columns.

    The loss of sending r to c is at least the cheapest cycle through that
    move, and that cycle is itself a mapping.  It is found as the move plus
    a shortest path back (no cycle is negative, so shortest paths exist),
    from one Floyd-Warshall pass over the graph.

    Overflow is allowed: every estimate and sum is the weight of a walk,
    which closes into a cycle (weight >= 0) with one more edge (weight at
    most the table's range), so each is at least -range.  A sum can
    overflow only to +inf, which exceeds every bound: no entry turns near.
    """
    d, k = rates.shape
    slack = rates[np.arange(d), cols][:, None] - rates
    free = np.ones(k, dtype=bool)
    free[cols] = False
    node = np.full(k, d)
    node[cols] = np.arange(d)
    n = d + (d < k)
    dist = np.zeros((n, n))
    dist[:d, :d] = slack[:, cols]
    if d < k:
        dist[:d, d] = slack[:, free].min(axis=1)
    through = np.empty_like(dist)
    for col, row in zip(dist.T[:, :, None], dist[:, None]):
        np.minimum(dist, np.add(col, row, out=through), out=dist)
    return slack + dist[node, :d].T


def _left_certified(
    rates: np.ndarray, cols: np.ndarray, total: float, bound: float, peak: float, eps: float
) -> bool:
    """Whether `_tie_break` returns the optimal mapping ``cols``, of total
    ``total``, of the (D, K) table ``rates``, told without the pass: with
    tie bound ``bound``, largest |entry| ``peak`` and error bound ``eps``.

    `_tie_break` is the greedy lexicographic search: it returns the smallest
    mapping within tol of the optimum.  A mapping smaller than ``cols``
    first differs from it at a row r0, where it takes a column c < cols[r0];
    the rows before r0 are unchanged, so no earlier row holds c.  It thus
    uses a useful entry: (r, c) with c < cols[r] and ``holder[c] > r``,
    where holder[c] is the row holding column c, or D if c is free.  Only
    the mapping of each row r to column r has none (row 0 must hold column
    0, then row 1 column 1, ...); no mapping is smaller, so it is certified.

    Any other table is solved again with a set of entries raised by delta =
    bound + 4 eps: first every entry left of its row's column, which needs
    no holder and settles most tables, and where that finds a higher total,
    the useful entries only.  Each set holds every useful entry and none of
    ``cols``, so a smaller mapping gains L delta for some L >= 1 and
    ``cols`` keeps its total bit for bit.  If the re-solve's total is at
    most the total + eps, each smaller mapping falls short of ``cols`` in
    ``rates`` by at least L delta less float error: the eps of that margin,
    eps for the re-solve's error against the raised optimum (the module
    takes eps to bound LSA's error wherever it compares solves), and the
    rounding of the raised entries and of the total, far below eps.  So the
    true loss of a useful entry is at least delta - 2 eps - (rounding) >
    bound + eps, and the pass, whose losses err by at most eps, would
    compute it above ``bound``.  The near entries left of a row's column are
    then all held by earlier rows, which `_tie_break` skips (``col in
    chosen``), so it returns ``cols`` too.

    Totals are compared, not mappings, so the exact ties to the right that
    HD-SIC and FD-SIC rows make in bulk leave the certificate standing.
    Where 2 D (peak + delta) overflows, a raised entry or total might, and
    no re-solve is tried.
    """
    d, k = rates.shape
    if cols[0] == 0 and cols.tolist() == list(range(d)):
        return True
    delta = bound + 4.0 * eps
    if 2.0 * d * (peak + delta) == math.inf:
        return False
    left = np.arange(k) < cols[:, None]
    if first_optimum(rates + delta * left)[0] <= total + eps:
        return True
    rows = np.arange(d)
    holder = np.full(k, d)
    holder[cols] = rows
    return first_optimum(rates + delta * (left & (holder > rows[:, None])))[0] <= total + eps


def _checked_rates(table) -> np.ndarray:
    """A table as a float array, checked to be finite with no more rows than
    columns."""
    rates = np.asarray(table, dtype=float)
    _check_shape(rates)
    if not np.isfinite(rates).all():
        _raise_first_bad(rates, np.isfinite(rates), "finite")
    return rates


def hungarian_max(table: RateTable | np.ndarray) -> tuple[Assignment, float]:
    """Maximum-total assignment of rows to columns, lexicographically smallest.

    Requires no more rows than columns.  The total is the exact optimum; among
    all optimal assignments the returned one has the smallest column for row
    0, then for row 1, and so on.  (A campaign trial reads scipy's first
    optimal mapping instead; see `first_optimum`.)

    Row by row, the first free column that still admits an optimal
    completion is fixed.  An optimal completion is always at hand (the first
    solve, then the solve that confirmed the last fixed column), and its own
    column for the row qualifies, so only free columns left of it need a
    check.  Before any of them is re-solved, the first solve certifies which
    columns no optimal mapping can use: every mapping that sends row r to
    column c falls short of the optimum by at least the forcing loss of that
    move (see ``_forcing_loss``).  Where the loss exceeds the tie tolerance,
    with room for float error, the full check would reject the column, so
    dropping it leaves the result unchanged.  Each column left in play is
    checked, in ascending order, with one solve of the remaining rows
    without it.

    The first mapping is certified before the Floyd-Warshall pass: only a
    useful entry, left of its row's first-solve column on a column no
    earlier row holds, can start a smaller mapping.  A second solve, with
    each entry left of the first mapping raised by a margin above the tie
    bound, and if that fails a third, with only the useful entries raised,
    must find no total above the first (see ``_left_certified``); the first
    solve is then returned with no pass.  Ties right of the first mapping,
    and left of it on columns that earlier rows hold, do not fail it.

    A table whose mapping totals or slack can overflow is rejected: the
    rows' largest |entries| must have a finite sum, and the table's range
    (largest entry minus smallest), which bounds every slack, must be
    finite.
    """
    rates = table.rates if isinstance(table, RateTable) else _checked_rates(table)
    d = rates.shape[0]
    if d == 0:
        return Assignment(()), 0.0
    peak = float(np.abs(rates).max())
    # A mapping total is at most the sum of the rows' largest |entries|,
    # and the range at most twice the largest |entry|.  Both stay under 2 D
    # times it, so only where this overflows can either overflow and do
    # they need to be taken.
    if 2.0 * d * peak == math.inf:
        with np.errstate(over="ignore"):
            if np.abs(rates).max(axis=1).sum() == np.inf:
                raise ValueError(
                    "rate table entries too large: the rows' largest |entries| sum to inf,"
                    " so a mapping total can overflow"
                )
            if rates.max() - rates.min() == np.inf:
                raise ValueError(
                    "rate table entries too large: the range (largest entry minus smallest)"
                    " is inf, so the slack between two mappings can overflow"
                )
    # eps bounds the float error of the losses and of the sums checked in
    # the tie-break, so the cut also holds where tol is small against the
    # entries.
    eps = 8.0 * (d + 1) * _EPS * peak
    total, cols = first_optimum(rates)
    tol = 1e-12 * max(1.0, abs(total))
    bound = 2.0 * tol + eps
    if _left_certified(rates, cols, total, bound, peak, eps):
        return Assignment(tuple(cols.tolist())), total
    return _tie_break(rates, total, cols, _forcing_loss(rates, cols) <= bound, tol)


def _tie_break(
    rates: np.ndarray, total: float, completion: np.ndarray, near: np.ndarray, tol: float
) -> tuple[Assignment, float]:
    """The lexicographically smallest mapping within ``tol`` of the optimum
    ``total``, from the first solve's columns ``completion`` and the entries
    ``near`` that the forcing loss leaves in play.  Only a near column left
    of a row's column can move that row, so where there is none the first
    mapping is returned with no re-solve."""
    d, k = rates.shape
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
            sub_total, sub_cols = first_optimum(rates[r + 1 :, others])
            if fixed + (rates[r, col] + sub_total) >= total - tol:
                pick, rest_completion = col, others[sub_cols]
                break
        chosen.append(pick)
        fixed += rates[r, pick]
        completion = rest_completion
    return Assignment(tuple(chosen)), total
