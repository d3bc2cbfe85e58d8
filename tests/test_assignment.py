import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import d2dpa.assignment
from d2dpa.assignment import Assignment, RateTable, hungarian_max, hungarian_max_many


def enumerate_best(table: np.ndarray) -> float:
    d, k = table.shape
    best = -np.inf
    for perm in itertools.permutations(range(k), d):
        total = sum(table[r, c] for r, c in enumerate(perm))
        best = max(best, total)
    return best


def test_two_by_two_diagonal():
    assignment, total = hungarian_max(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert assignment.pair_to_cu == (0, 1)
    assert total == 4.0


def test_all_equal_table_lexicographic():
    assignment, total = hungarian_max(np.full((3, 5), 7.0))
    assert assignment.pair_to_cu == (0, 1, 2)
    assert total == 21.0


def test_seeded_rectangular_vs_enumeration():
    rng = np.random.default_rng(71)
    table = rng.uniform(0.0, 1.0, (5, 20))
    assignment, total = hungarian_max(table)
    # vectorized enumeration over all 20*19*18*17*16 injections
    perms = np.array(list(itertools.permutations(range(20), 5)))
    totals = table[np.arange(5)[None, :], perms].sum(axis=1)
    assert total == pytest.approx(float(totals.max()), rel=1e-12)


def test_random_small_tables_vs_enumeration():
    rng = np.random.default_rng(72)
    for _ in range(60):
        d = rng.integers(1, 7)
        k = rng.integers(d, 11)
        table = rng.uniform(0.0, 5.0, (d, k))
        _, total = hungarian_max(table)
        assert total == pytest.approx(enumerate_best(table), rel=1e-12)


def test_row_constant_shift_keeps_argmax():
    rng = np.random.default_rng(73)
    for _ in range(30):
        table = rng.uniform(0.0, 1.0, (4, 7))
        base, _ = hungarian_max(table)
        shifted = table.copy()
        shifted[2] += 3.5
        after, _ = hungarian_max(shifted)
        assert base.pair_to_cu == after.pair_to_cu


def test_dimension_error():
    with pytest.raises(ValueError):
        hungarian_max(np.zeros((3, 2)))


def test_empty_table():
    assignment, total = hungarian_max(np.zeros((0, 4)))
    assert assignment.pair_to_cu == ()
    assert total == 0.0


def test_tie_break_is_lexicographically_smallest():
    # two optimal assignments: (0->0, 1->1) and (0->1, 1->0)
    table = np.array([[1.0, 1.0], [1.0, 1.0]])
    assignment, _ = hungarian_max(table)
    assert assignment.pair_to_cu == (0, 1)
    table = np.array([[5.0, 5.0, 0.0], [5.0, 5.0, 0.0]])
    assignment, _ = hungarian_max(table)
    assert assignment.pair_to_cu == (0, 1)


def lexicographic_best(table: np.ndarray) -> tuple[int, ...]:
    """First injection, in lexicographic order, within the tie tolerance of
    the best total."""
    d, k = table.shape
    perms = list(itertools.permutations(range(k), d))
    totals = [sum(table[r, c] for r, c in enumerate(perm)) for perm in perms]
    best = max(totals)
    tol = 1e-12 * max(1.0, abs(best))
    return next(p for p, t in zip(perms, totals) if t >= best - tol)


@pytest.mark.parametrize("scale", [1.0, 1e6])
def test_tie_heavy_tables_vs_lexicographic_enumeration(scale):
    rng = np.random.default_rng(74)
    for _ in range(250):
        d = int(rng.integers(1, 6))
        k = int(rng.integers(d, 8))
        table = rng.integers(0, 4, (d, k)).astype(float) * scale
        assignment, _ = hungarian_max(table)
        assert assignment.pair_to_cu == lexicographic_best(table)


@pytest.fixture
def lsa_calls(monkeypatch):
    """List that gains one entry per linear_sum_assignment call."""
    calls = []
    real = d2dpa.assignment.linear_sum_assignment

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(d2dpa.assignment, "linear_sum_assignment", counting)
    return calls


def test_known_completion_needs_no_extra_solves(lsa_calls):
    """Each row's best column is the smallest free one, so the first solve's
    completion settles every row."""
    table = np.random.default_rng(75).uniform(0.0, 1.0, (5, 20))
    table[np.arange(5), np.arange(5)] += 10.0
    assignment, _ = hungarian_max(table)
    assert assignment.pair_to_cu == (0, 1, 2, 3, 4)
    assert len(lsa_calls) == 1


def test_tie_free_table_needs_only_the_first_solve(lsa_calls):
    """With one optimal mapping, every column left of a row's optimal one
    loses more than the tolerance, so the first solve settles every row."""
    table = np.random.default_rng(76).uniform(0.0, 1.0, (32, 64))
    assignment, _ = hungarian_max(table)
    _, cols = linear_sum_assignment(table, maximize=True)
    assert assignment.pair_to_cu == tuple(cols.tolist())
    assert any(c > r for r, c in enumerate(cols))  # rows do have columns to their left
    assert len(lsa_calls) == 1


def test_ties_right_of_the_first_solve_need_no_extra_solves(lsa_calls):
    """Each row ties its optimal column with one further right, so other
    optimal mappings exist, but none moves a row left: the first solve's
    mapping is the answer, with no other solve."""
    table = np.random.default_rng(78).uniform(0.0, 1.0, (4, 10))
    table[np.arange(4), np.arange(4)] += 10.0
    table[np.arange(4), np.arange(6, 10)] = table[np.arange(4), np.arange(4)]
    _, cols = linear_sum_assignment(table, maximize=True)
    assert cols.tolist() == [0, 1, 2, 3]
    assignment, total = hungarian_max(table)
    assert assignment.pair_to_cu == (0, 1, 2, 3)
    assert total == enumerate_best(table)
    assert len(lsa_calls) == 1


def test_each_checked_column_costs_one_solve(lsa_calls):
    """Three equal rows [0, 1, 0]: every mapping that gives column 1 to a
    row is optimal, and the first solve gives row 0 a column right of 0.
    Checking column 0 for row 0 is one solve of rows 1 and 2 without it,
    and that solve's completion settles rows 1 and 2."""
    assignment, total = hungarian_max(np.array([[0.0, 1.0, 0.0]] * 3))
    assert assignment.pair_to_cu == (0, 1, 2)
    assert total == 1.0
    assert len(lsa_calls) == 2


@pytest.mark.parametrize("scale", [1.0, 3e7])
@pytest.mark.parametrize("gap", [0.5, 3.0, 100.0])
def test_near_tie_tables_vs_lexicographic_enumeration(scale, gap):
    """Lower one row off an optimal mapping by ``gap`` tie tolerances: at 0.5
    the other mappings still tie and the tie-break must consider them, at 3
    and 100 they no longer do.  Either way the result is the enumerated
    lexicographic optimum."""
    rng = np.random.default_rng(77)
    for _ in range(120):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(d, 7))
        table = rng.integers(1, 4, (d, k)).astype(float) * scale
        rows, cols = linear_sum_assignment(table, maximize=True)
        tol = 1e-12 * float(table[rows, cols].sum())
        r = int(rng.integers(d))
        off = np.arange(k) != cols[r]
        table[r, off] -= gap * tol
        assignment, _ = hungarian_max(table)
        assert assignment.pair_to_cu == lexicographic_best(table)


def test_forcing_loss_is_the_best_mapping_through_each_entry():
    """The loss of sending row r to column c is the optimum minus the best
    total of any mapping that does so."""
    rng = np.random.default_rng(78)
    for _ in range(60):
        d = int(rng.integers(1, 5))
        k = int(rng.integers(d, 7))
        table = rng.integers(0, 4, (d, k)) + rng.uniform(0.0, 0.1, (d, k))
        _, cols = linear_sum_assignment(table, maximize=True)
        perms = np.array(list(itertools.permutations(range(k), d)))
        totals = table[np.arange(d), perms].sum(axis=1)
        best_through = np.full((d, k), -np.inf)
        for r in range(d):
            np.maximum.at(best_through[r], perms[:, r], totals)
        loss = d2dpa.assignment._forcing_loss(table[None], cols[None])[0]
        np.testing.assert_allclose(loss, totals.max() - best_through, atol=1e-9)


def _tie_heavy_stack(rng, b, d, k):
    """B integer-valued D x K tables (many exact ties), one row of the first
    all zero."""
    stack = rng.integers(0, 3, (b, d, k)).astype(float)
    stack[0, int(rng.integers(d))] = 0.0
    return stack


@pytest.mark.parametrize("square", [False, True])
def test_stacked_forcing_loss_equals_each_tables_own(square):
    """One pass over a (B, D, K) stack gives every table the bits of its own
    pass, with exact ties, all-zero rows and D = K."""
    rng = np.random.default_rng(79)
    for _ in range(150):
        d = int(rng.integers(1, 6))
        k = d if square else int(rng.integers(d + 1, 9))
        stack = _tie_heavy_stack(rng, int(rng.integers(1, 5)), d, k)
        cols = np.array([linear_sum_assignment(t, maximize=True)[1] for t in stack])
        stacked = d2dpa.assignment._forcing_loss(stack, cols)
        assert stacked.shape == stack.shape
        for table, c, loss in zip(stack, cols, stacked):
            own = d2dpa.assignment._forcing_loss(table[None], c[None])[0]
            assert own.tobytes() == loss.tobytes()


def test_many_equals_one_table_at_a_time():
    rng = np.random.default_rng(80)
    for _ in range(150):
        d = int(rng.integers(0, 5))
        k = int(rng.integers(max(d, 1), 8))
        stack = _tie_heavy_stack(rng, 4, d, k) * rng.choice([1.0, 1e6, 3e7]) if d else np.zeros(
            (4, 0, k)
        )
        assert hungarian_max_many(list(stack)) == [hungarian_max(t) for t in stack]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rates_rejected_naming_the_entry(bad):
    """NaN and inf fail at the boundary, not inside scipy's solver."""
    rates = np.array([[1.0, 2.0, 0.5], [2.0, 0.5, 1.0]])
    rates[1, 2] = bad
    message = rf"rate table entry \(1, 2\) must be finite.*got {bad!r}"
    with pytest.raises(ValueError, match=message):
        RateTable(rates)
    with pytest.raises(ValueError, match=message):
        hungarian_max(rates)


def test_assignment_validation():
    with pytest.raises(ValueError):
        Assignment((1, 1))


class TestRateTable:
    def test_infeasible_entries_must_be_zero(self):
        rates = np.array([[1.0, 2.0]])
        bad = np.array([[True, False]])
        with pytest.raises(ValueError):
            RateTable(rates, infeasible=bad)
        RateTable(np.array([[0.0, 2.0]]), infeasible=bad)

    def test_shape_and_sign_checks(self):
        with pytest.raises(ValueError):
            RateTable(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            RateTable(np.array([[-1.0, 0.0]]))
        with pytest.raises(ValueError):
            RateTable(np.zeros((2, 3)), sic_applied=np.zeros((1, 3), dtype=bool))

    def test_hungarian_accepts_rate_table(self):
        table = RateTable(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assignment, total = hungarian_max(table)
        assert assignment.pair_to_cu == (0, 1)
        assert total == 4.0
