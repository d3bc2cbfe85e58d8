import itertools
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import d2dpa.assignment
from d2dpa import sim
from d2dpa.assignment import Assignment, RateTable, first_optimum, hungarian_max


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
    """An empty table maps nothing and sums to 0.0, in `hungarian_max` and in
    `first_optimum`, where scipy's empty mapping serves it (checked with
    scipy 1.17.1)."""
    assignment, total = hungarian_max(np.zeros((0, 4)))
    assert assignment.pair_to_cu == ()
    assert total == 0.0
    total, cols = first_optimum(np.zeros((0, 4)))
    assert total.hex() == (0.0).hex()
    assert cols.size == 0


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


def _count_calls(monkeypatch, name):
    """List that gains one entry per call of ``d2dpa.assignment.<name>``."""
    calls = []
    real = getattr(d2dpa.assignment, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(d2dpa.assignment, name, counting)
    return calls


@pytest.fixture
def lsa_calls(monkeypatch):
    """List that gains one entry per linear_sum_assignment call."""
    return _count_calls(monkeypatch, "linear_sum_assignment")


@pytest.fixture
def passes(monkeypatch):
    """List that gains one entry per Floyd-Warshall pass (_forcing_loss call)."""
    return _count_calls(monkeypatch, "_forcing_loss")


@pytest.fixture
def tie_breaks(monkeypatch):
    """List that gains one entry per _tie_break call."""
    return _count_calls(monkeypatch, "_tie_break")


def test_known_completion_needs_no_extra_solves(lsa_calls, passes):
    """Each row's best column is the smallest free one, so every column left
    of a row's column is held by an earlier row: no entry is useful, no
    smaller mapping exists, and the first solve settles every row with no
    certifying re-solve and no pass."""
    table = np.random.default_rng(75).uniform(0.0, 1.0, (5, 20))
    table[np.arange(5), np.arange(5)] += 10.0
    assignment, _ = hungarian_max(table)
    assert assignment.pair_to_cu == (0, 1, 2, 3, 4)
    assert len(lsa_calls) == 1
    assert not passes


def test_tie_free_table_needs_only_the_first_solve(lsa_calls, passes):
    """With one optimal mapping, the re-solve with every entry left of that
    mapping raised past the tie bound finds no higher total, so the first
    solve settles every row: the first solve and the certifying one, and no
    pass."""
    table = np.random.default_rng(76).uniform(0.0, 1.0, (32, 64))
    assignment, _ = hungarian_max(table)
    _, cols = linear_sum_assignment(table, maximize=True)
    assert assignment.pair_to_cu == tuple(cols.tolist())
    assert any(c > r for r, c in enumerate(cols))  # rows do have columns to their left
    assert len(lsa_calls) == 2
    assert not passes


def test_each_table_is_certified_on_its_own(lsa_calls, passes, tie_breaks):
    """Each of two tie-free tables makes its first solve and one certifying
    solve, and no pass or tie-break runs.  An all-equal table needs no
    re-solve: the first solve gives rows 0, 1, 2 columns 0, 1, 2, so no
    entry is useful.  A table of rows [0, 1, 0] fails the certificate (the
    first solve gives row 0 a column right of 0), so it takes a pass of its
    own and runs the tie-break."""
    for table in np.random.default_rng(76).uniform(0.0, 1.0, (2, 8, 16)):
        hungarian_max(table)
    assert len(lsa_calls) == 4
    assert not passes
    assert not tie_breaks
    assert hungarian_max(np.full((3, 5), 7.0)) == (Assignment((0, 1, 2)), 21.0)
    assert len(lsa_calls) == 5
    assert not passes
    assert not tie_breaks
    assert hungarian_max(np.array([[0.0, 1.0, 0.0]] * 3)) == (Assignment((0, 1, 2)), 1.0)
    assert len(passes) == 1
    assert len(tie_breaks) == 1


def first_solve_total(table: np.ndarray) -> float:
    """The sum over scipy's first optimal mapping of ``table``, as a
    campaign trial reads it (see `sim.trial_from_gains`)."""
    rows, cols = linear_sum_assignment(table, maximize=True)
    return float(table[rows, cols].sum())


@pytest.mark.parametrize("d", [1, 5, 9, 32])
def test_total_is_the_first_solves_sum(d):
    """`hungarian_max`'s total is the first solve's sum bit for bit, also at
    D >= 8, where numpy sums pairwise, and where the tie-break moves the
    mapping; its mapping reaches that total within the tie tolerance.
    Tie-free, tie-heavy and HD-SIC-like tables, at rate-sized scales."""
    rng = np.random.default_rng(83)
    k = 64 if d == 32 else 20
    for _ in range(12 if d == 32 else 40):
        scale = rng.choice([1.0, 3e7])
        for table in (
            rng.uniform(0.0, 1.0, (d, k)) * scale,
            _tie_heavy_table(rng, d, k) * scale,
            _hd_sic_like(rng, d, k) * scale,
        ):
            assignment, total = hungarian_max(table)
            assert total.hex() == first_solve_total(table).hex()
            assert first_optimum(table)[0].hex() == first_solve_total(table).hex()
            own = float(table[np.arange(d), list(assignment.pair_to_cu)].sum())
            assert abs(own - total) <= 2e-12 * max(1.0, abs(total))


def test_total_is_the_first_solves_sum_on_near_ties():
    """The same bits on planted three-cycle near-ties, which no swap of two
    rows reveals, and on the D = 32, K = 64 tables of all four schemes as
    built and under a row and column permutation."""
    rng = np.random.default_rng(80)
    for gap in (0.0, 0.5, 1.1, 2.5):
        for _ in range(60):
            d = int(rng.integers(3, 9))
            table = _planted_three_cycles(rng, d, int(rng.integers(d, 13)), (gap,))
            table = table * rng.choice([1.0, 3e7])
            assert hungarian_max(table)[1].hex() == first_solve_total(table).hex()
            assert first_optimum(table)[0].hex() == first_solve_total(table).hex()
    for built in _scheme_tables(rng):
        rows, cols = rng.permutation(32), rng.permutation(64)
        for table in built + [t[rows][:, cols] for t in built]:
            assert hungarian_max(table)[1].hex() == first_solve_total(table).hex()
            assert first_optimum(table)[0].hex() == first_solve_total(table).hex()


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_three_cycle_tie_reaches_the_pass(order, passes):
    """The only other optimum is a three-cycle.  The pass runs exactly when
    that optimum uses a useful entry of the first solve's mapping (a column
    left of a row's own that no earlier row holds), and so always when the
    first solve returns the larger optimum, whose smaller rival first
    differs from it on such an entry.  In column order (0, 2, 1) the first
    solve returns the smaller optimum and the larger still uses a useful
    entry, so the pass runs there too.  The answer is the smaller of the two
    optima in every column order."""
    table = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])[:, order]
    _, first = linear_sum_assignment(table, maximize=True)
    first = first.tolist()
    optima = [p for p in itertools.permutations(range(3)) if sum(table[range(3), p]) == 3.0]
    (other,) = [p for p in optima if list(p) != first]
    uses_useful = any(c < first[r] and c not in first[:r] for r, c in enumerate(other))
    assignment, total = hungarian_max(table)
    assert assignment.pair_to_cu == lexicographic_best(table)
    assert total == 3.0
    assert len(passes) == uses_useful
    assert uses_useful or first == list(lexicographic_best(table))


def test_ties_right_of_the_first_solve_need_no_extra_solves(lsa_calls, passes):
    """Each row ties its optimal column with one further right, so other
    optimal mappings exist, but none moves a row left.  The first solve
    gives rows 0..3 columns 0..3, so every column left of a row's column is
    held by an earlier row: no entry is useful, and the first solve's
    mapping is the answer with no certifying re-solve and no pass."""
    table = np.random.default_rng(78).uniform(0.0, 1.0, (4, 10))
    table[np.arange(4), np.arange(4)] += 10.0
    table[np.arange(4), np.arange(6, 10)] = table[np.arange(4), np.arange(4)]
    _, cols = linear_sum_assignment(table, maximize=True)
    assert cols.tolist() == [0, 1, 2, 3]
    assignment, total = hungarian_max(table)
    assert assignment.pair_to_cu == (0, 1, 2, 3)
    assert total == enumerate_best(table)
    assert len(lsa_calls) == 1
    assert not passes


def test_each_checked_column_costs_one_solve(lsa_calls, passes):
    """Three equal rows [0, 1, 0]: every mapping that gives column 1 to a
    row is optimal, and the first solve gives row 0 a column right of 0, so
    both certifying re-solves (left entries, then useful ones) fail.
    Checking column 0 for row 0 is then one solve of rows 1 and 2 without
    it, and that solve's completion settles rows 1 and 2: four solves in
    all, after one pass."""
    assignment, total = hungarian_max(np.array([[0.0, 1.0, 0.0]] * 3))
    assert assignment.pair_to_cu == (0, 1, 2)
    assert total == 1.0
    assert len(lsa_calls) == 4
    assert len(passes) == 1


def _planted_three_cycles(rng, d, k, gaps):
    """D x K uniform table with one clear optimal mapping and, for each of
    ``gaps``, a mapping that moves three other rows of it in a cycle and
    falls short of it by that many tie tolerances (3 x len(gaps) <= D).
    No two-cycle comes near the optimal mapping."""
    table = rng.uniform(0.0, 1.0, (d, k))
    cols = rng.permutation(k)[:d]
    table[np.arange(d), cols] += 10.0
    tol = 1e-12 * float(table[np.arange(d), cols].sum())
    triples = rng.permutation(d)[: 3 * len(gaps)].reshape(-1, 3)
    for (r0, r1, r2), gap in zip(np.sort(triples, axis=1), gaps):
        table[r0, cols[r1]] = table[r1, cols[r1]]
        table[r1, cols[r2]] = table[r2, cols[r2]]
        table[r2, cols[r0]] = table[r0, cols[r0]] - gap * tol
    return table


def _near_tie_table(rng, scale, gap):
    """Small tie-heavy integer table with one row lowered off an optimal
    mapping by ``gap`` tie tolerances."""
    d = int(rng.integers(2, 5))
    k = int(rng.integers(d, 7))
    table = rng.integers(1, 4, (d, k)).astype(float) * scale
    rows, cols = linear_sum_assignment(table, maximize=True)
    tol = 1e-12 * float(table[rows, cols].sum())
    r = int(rng.integers(d))
    table[r, np.arange(k) != cols[r]] -= gap * tol
    return table


@pytest.mark.parametrize("scale", [1.0, 3e7])
@pytest.mark.parametrize("gap", [0.5, 0.9, 1.1, 2.5, 3.0, 100.0])
def test_near_tie_tables_vs_lexicographic_enumeration(scale, gap):
    """Lower one row off an optimal mapping by ``gap`` tie tolerances: at 0.5
    and 0.9 the other mappings still tie and the tie-break must consider
    them; at 1.1 they no longer tie but stay within the bound of twice the
    tolerance; from 2.5 on they are past the bound.  Either way the result
    is the enumerated lexicographic optimum.  Then the same with a
    three-cycle ``gap`` tolerances short next to an exact three-cycle tie:
    no two rows swapping columns comes near, so only the certifying re-solve
    or the pass can tell that the first solve is not the only optimum."""
    rng = np.random.default_rng(77)
    for _ in range(120):
        table = _near_tie_table(rng, scale, gap)
        assignment, _ = hungarian_max(table)
        assert assignment.pair_to_cu == lexicographic_best(table)
    for _ in range(20):
        d = int(rng.integers(6, 8))
        table = _planted_three_cycles(rng, d, int(rng.integers(d, 8)), (0.0, gap)) * scale
        assignment, _ = hungarian_max(table)
        assert assignment.pair_to_cu == lexicographic_best(table)


def assert_forcing_loss_enumerated(table: np.ndarray) -> None:
    """The forcing loss of ``table`` at scipy's mapping is the optimum minus
    the best total of any mapping through each entry, by enumeration."""
    d, k = table.shape
    _, cols = linear_sum_assignment(table, maximize=True)
    perms = np.array(list(itertools.permutations(range(k), d)))
    totals = table[np.arange(d), perms].sum(axis=1)
    best_through = np.full((d, k), -np.inf)
    for r in range(d):
        np.maximum.at(best_through[r], perms[:, r], totals)
    loss = d2dpa.assignment._forcing_loss(table, cols)
    np.testing.assert_allclose(loss, totals.max() - best_through, atol=1e-9)


def test_forcing_loss_is_the_best_mapping_through_each_entry():
    """The loss of sending row r to column c is the optimum minus the best
    total of any mapping that does so."""
    rng = np.random.default_rng(78)
    for _ in range(60):
        d = int(rng.integers(1, 5))
        k = int(rng.integers(d, 7))
        assert_forcing_loss_enumerated(rng.integers(0, 4, (d, k)) + rng.uniform(0.0, 0.1, (d, k)))


def _tie_heavy_table(rng, d, k):
    """Integer-valued D x K table (many exact ties) with one row all zero."""
    table = rng.integers(0, 3, (d, k)).astype(float)
    table[int(rng.integers(d))] = 0.0
    return table


@pytest.mark.parametrize("square", [False, True])
def test_forcing_loss_with_exact_ties(square):
    """The same on integer tables full of exact ties, with an all-zero row,
    and at D = K, where no unused column makes a node D."""
    rng = np.random.default_rng(79)
    for _ in range(150):
        d = int(rng.integers(1, 6))
        assert_forcing_loss_enumerated(
            _tie_heavy_table(rng, d, d if square else int(rng.integers(d + 1, 8)))
        )


def _scheme_tables(rng):
    """The four schemes' D = 32, K = 64 rate tables of two deployments at
    the paper's default configuration and at far pairs (eta -130 dB, pairs
    200 m apart), as `sim.build_rate_tables` builds them."""
    for overrides in ({}, {"eta_db": -130.0, "d_max_m": 200.0, "pair_distance_law": "fixed"}):
        config = sim.SimConfig(k_users=64, d_pairs=32, trials=1, **overrides)
        for _ in range(2):
            seeds = np.random.SeedSequence(int(rng.integers(2**32))).spawn(2)
            deployment = sim.generate_deployment(config, seeds[0])
            gains = sim.gains_from_deployment(deployment, config, seeds[1])
            tables = sim.build_rate_tables(gains, config.system_params(), config.power_limits())
            yield [t.rates for t in tables.values()]


def _hd_sic_like(rng, d, k):
    """D x K uniform table in which about half the rows are one rate on
    every column, as HD-SIC rows are, so those rows tie across CUs."""
    table = rng.uniform(0.0, 1.0, (d, k))
    flat = rng.random(d) < 0.5
    table[flat] = rng.integers(1, 4, (int(flat.sum()), 1))
    return table


def _certificate_tables(rng):
    """Seeded random, tie-heavy, HD-SIC-like, square (D = K) and one-row
    tables."""
    for _ in range(40):
        d = int(rng.integers(1, 9))
        k = int(rng.integers(d, 13))
        yield rng.uniform(0.0, 1.0, (d, k))
        yield _tie_heavy_table(rng, d, k)
        yield _hd_sic_like(rng, d, k)
        yield rng.uniform(0.0, 1.0, (d, d))
        yield _tie_heavy_table(rng, d, d)
        yield rng.uniform(0.0, 1.0, (1, k))


def _soundness_tables(rng):
    """`_certificate_tables`, near-tie tables 0.9, 1.1 and 2.5 tie
    tolerances short of a tie, and planted three-cycles that far short, next
    to an exact three-cycle tie or alone, at rate-sized scales too."""
    yield from _certificate_tables(rng)
    for gap in (0.9, 1.1, 2.5):
        for scale in (1.0, 3e7):
            for _ in range(40):
                yield _near_tie_table(rng, scale, gap)
            for gaps in ((gap,), (0.0, gap)):
                for _ in range(10):
                    d = int(rng.integers(6, 9))
                    yield _planted_three_cycles(rng, d, int(rng.integers(d, 10)), gaps) * scale


def _no_certificate(*args):
    """`_left_certified` that certifies no table, so every table takes the
    full route: the pass and the tie-break."""
    return False


def test_uncertified_table_without_near_left_columns_keeps_the_first_solve(
    monkeypatch, lsa_calls, passes, tie_breaks
):
    """A table that fails the certificate goes to the tie-break after one
    pass.  Where no near column lies left of a row's first-solve column, as
    on tie-free tables, the tie-break re-solves nothing and returns the
    first mapping: one LSA call, one pass and one tie-break per table."""
    monkeypatch.setattr(d2dpa.assignment, "_left_certified", _no_certificate)
    rng = np.random.default_rng(86)
    for d, k in ((1, 4), (5, 20), (8, 8), (32, 64)):
        table = rng.uniform(0.0, 1.0, (d, k))
        _, cols = linear_sum_assignment(table, maximize=True)
        lsa_calls.clear()
        passes.clear()
        tie_breaks.clear()
        assignment, total = hungarian_max(table)
        assert assignment.pair_to_cu == tuple(cols.tolist())
        assert total.hex() == first_solve_total(table).hex()
        assert any(c > r for r, c in enumerate(cols))  # rows do have columns to their left
        assert len(lsa_calls) == 1
        assert len(passes) == 1
        assert len(tie_breaks) == 1


def test_left_certificate_is_sound(monkeypatch):
    """Wherever the certificate holds, the full route (the pass and the
    tie-break, taken by making the certificate fail) returns
    the same mapping and total bits.  The tables make the certificate hold
    and fail many times each."""
    real = d2dpa.assignment._left_certified
    seen = []

    def capture(*args):
        seen.append(real(*args))
        return seen[-1]

    outcomes = []
    for table in _soundness_tables(np.random.default_rng(81)):
        monkeypatch.setattr(d2dpa.assignment, "_left_certified", capture)
        seen.clear()
        assignment, total = hungarian_max(table)
        (certified,) = seen
        outcomes.append(certified)
        if certified:
            monkeypatch.setattr(d2dpa.assignment, "_left_certified", _no_certificate)
            full, full_total = hungarian_max(table)
            assert full == assignment
            assert full_total.hex() == total.hex()
    assert 100 < sum(outcomes) < len(outcomes) - 100


def test_fresh_scheme_tables_equal_the_full_route(monkeypatch):
    """On the D = 32, K = 64 tables of all four schemes, from deployments of
    fresh seeds at the paper's default configuration and at far pairs, as
    built and under a row and column permutation, `hungarian_max` gives the
    mapping and total bits of the full route."""
    rng = np.random.default_rng(85)
    for built in _scheme_tables(rng):
        rows, cols = rng.permutation(32), rng.permutation(64)
        for tables in (built, [t[rows][:, cols] for t in built]):
            certified = [hungarian_max(t) for t in tables]
            with monkeypatch.context() as patched:
                patched.setattr(d2dpa.assignment, "_left_certified", _no_certificate)
                full = [hungarian_max(t) for t in tables]
            for (a, a_total), (f, f_total) in zip(certified, full):
                assert a == f
                assert a_total.hex() == f_total.hex()


def _planted_swap(rng, d, k):
    """D x K uniform table (K > D) with one clear optimal mapping that
    leaves column 0 free, and an exact tie with the swap that moves a row
    r0 right onto the column of a later row r1 and r1 left onto r0's; the
    smaller mapping and the swap."""
    table = rng.uniform(0.0, 1.0, (d, k))
    cols = rng.permutation(np.arange(1, k))[:d]
    r0, r1 = np.sort(rng.choice(d, 2, replace=False))
    if cols[r0] > cols[r1]:
        cols[[r0, r1]] = cols[[r1, r0]]
    table[np.arange(d), cols] += 10.0
    table[r0, cols[r1]] = table[r0, cols[r0]]
    table[r1, cols[r0]] = table[r1, cols[r1]]
    swap = cols.copy()
    swap[[r0, r1]] = cols[[r1, r0]]
    return table, cols.tolist(), swap.tolist()


def test_swaps_that_move_the_first_row_right_are_certified(lsa_calls, passes):
    """The only other optimum moves its first differing row right and a
    later row left, onto a column an earlier row holds.  Its left move fails
    the re-solve that raises every entry left of the first mapping; it is
    no useful entry, so the first solve, which returns the smaller mapping,
    is certified by the re-solve that raises the useful entries only
    (column 0 is free, so some exist): three solves and no pass."""
    rng = np.random.default_rng(84)
    for _ in range(60):
        d = int(rng.integers(2, 9))
        table, smaller, swap = _planted_swap(rng, d, int(rng.integers(d + 1, 13)))
        assert linear_sum_assignment(table, maximize=True)[1].tolist() == smaller
        assert any(c < smaller[r] for r, c in enumerate(swap))
        lsa_calls.clear()
        assignment, total = hungarian_max(table)
        assert assignment.pair_to_cu == tuple(smaller)
        assert total >= float(table[range(d), swap].sum())
        assert len(lsa_calls) == 3
        assert not passes


def test_overflowing_totals_rejected():
    """A finite table whose rows' largest entries sum past the float range
    fails at the boundary instead of returning an infinite total; one whose
    sum stays finite is assigned, also at the float maximum, where raising
    an entry for the certificate would overflow (its two entries tie within
    the tolerance, so the smaller column wins)."""
    with pytest.raises(ValueError, match="sum to inf"):
        hungarian_max(np.full((2, 2), 1e308))
    with pytest.raises(ValueError, match="sum to inf"):
        hungarian_max(np.array([[1e308, 0.0], [-1e308, 0.0]]))
    assignment, total = hungarian_max(np.array([[1e308, 0.0], [0.0, 1.0]]))
    assert assignment.pair_to_cu == (0, 1)
    assert total == 1e308
    big = np.finfo(float).max
    assert hungarian_max(np.array([[big * (1 - 1e-15), big]])) == (Assignment((0,)), big)


def test_overflowing_range_rejected():
    """A table that mixes signs near the float limit has a slack past the
    float range: it fails at the boundary, with no overflow warning first.
    One whose range stays finite is assigned."""
    wide = np.array([[1e308, -1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"the range \(largest entry minus smallest\) is inf"):
            hungarian_max(wide)
        assignment, total = hungarian_max(np.array([[1e308, -7e307]]))
    assert assignment.pair_to_cu == (0,)
    assert total == 1e308


def test_overflowing_shortest_paths_leave_the_result(passes):
    """Entries this close to the float limit skip the certificate's
    re-solve (which would fail anyway: the two optima differ in column 0),
    so the table
    reaches the pass.  Sums of two slacks there overflow to +inf, which is
    no near move, with no warning, and the smaller optimum is returned."""
    table = np.array([[0.6e308, 0.0, -0.6e308], [0.6e308, -0.6e308, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assignment, total = hungarian_max(table)
    assert assignment.pair_to_cu == (0, 2) == lexicographic_best(table)
    assert total == 0.6e308
    assert len(passes) == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rates_rejected_naming_the_entry(bad):
    """NaN and inf fail at the boundary, not inside scipy's solver, naming
    the entry by its place in the table."""
    for place in ((1, 2), (0, 0), (0, 2)):
        rates = np.array([[1.0, 2.0, 0.5], [2.0, 0.5, 1.0]])
        rates[place] = bad
        message = rf"rate table entry \({place[0]}, {place[1]}\) must be finite.*got {bad!r}"
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
