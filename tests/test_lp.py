import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from matchgames import core
from matchgames.errors import MatchGamesError
from matchgames.lp import EQ, GE, LE, LinearProgram, game_value, solve_lp
from matchgames.gen import random_matrix


def test_bounded_max():
    lp = LinearProgram(objective=[F(1)])
    lp.add([F(1)], LE, F(3))
    result = solve_lp(lp)
    assert result.status == "optimal"
    assert result.value == 3
    assert result.solution == (F(3),)


def test_infeasible():
    lp = LinearProgram(objective=[F(1)])
    lp.add([F(1)], LE, F(-1))
    assert solve_lp(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram(objective=[F(1)])
    assert solve_lp(lp).status == "unbounded"


def test_solution_satisfies_constraints_exactly():
    lp = LinearProgram(objective=[F(3), F(2)], sense="max")
    lp.add([F(1), F(1)], LE, F(4))
    lp.add([F(1), F(3)], LE, F(6))
    result = solve_lp(lp)
    x, y = result.solution
    assert x + y <= 4 and x + 3 * y <= 6
    assert 3 * x + 2 * y == result.value == 12


def test_equality_and_free_variables():
    lp = LinearProgram(objective=[F(2), F(-1)], sense="min", free=frozenset([0]))
    lp.add([F(0), F(1)], LE, F(5))
    lp.add([F(1), F(1)], EQ, F(4))
    lp.add([F(1), F(0)], GE, F(-10))
    result = solve_lp(lp)
    assert result.value == -7
    assert result.solution == (F(-1), F(5))


def test_free_index_outside_the_variables_raises():
    with pytest.raises(MatchGamesError):
        solve_lp(LinearProgram(objective=[F(1)], free=frozenset([1])))


def test_game_value_matching_pennies():
    w, x, y = game_value(((F(1), F(-1)), (F(-1), F(1))))
    assert w == 0
    assert x == (F(1, 2), F(1, 2))
    assert y == (F(1, 2), F(1, 2))


def test_game_value_diagonal():
    w, x, y = game_value(((F(2), F(0)), (F(0), F(1))))
    assert w == F(2, 3)
    assert x == (F(1, 3), F(2, 3))
    # row payoffs against y* are exactly the value
    a = ((F(2), F(0)), (F(0), F(1)))
    for i in range(2):
        assert sum(a[i][j] * y[j] for j in range(2)) == F(2, 3)


def test_game_value_single_entry():
    w, x, y = game_value(((F(7),),))
    assert w == 7 and x == (F(1),) and y == (F(1),)


def test_saddle_inequalities_random():
    rng = random.Random(7)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, rows, cols, max_denominator=2)
        w, x, y = game_value(a)
        for j in range(cols):  # min_t x*.A.t == w
            assert sum(x[i] * a[i][j] for i in range(rows)) >= w
        for i in range(rows):  # max_s s.A.y* == w
            assert sum(a[i][j] * y[j] for j in range(cols)) <= w


# ---------------------------------------------------------------------------
# Strict saddle points in closed form, against the two-LP reference


def _two_lp_game_value(a):
    """The value and optimal strategies from the row LP and the column LP,
    built here on ``solve_lp`` alone."""
    n_rows, n_cols = len(a), len(a[0])
    row_lp = LinearProgram(objective=[F(0)] * n_rows + [F(1)], sense="max",
                           free=frozenset([n_rows]))
    for j in range(n_cols):
        row_lp.add([a[i][j] for i in range(n_rows)] + [F(-1)], GE, F(0))
    row_lp.add([F(1)] * n_rows + [F(0)], EQ, F(1))
    col_lp = LinearProgram(objective=[F(0)] * n_cols + [F(1)], sense="min",
                           free=frozenset([n_cols]))
    for i in range(n_rows):
        col_lp.add([a[i][j] for j in range(n_cols)] + [F(-1)], LE, F(0))
    col_lp.add([F(1)] * n_cols + [F(0)], EQ, F(1))
    row, col = solve_lp(row_lp), solve_lp(col_lp)
    assert row.value == col.value
    return row.value, tuple(row.solution[:n_rows]), tuple(col.solution[:n_cols])


def _reference_strict_saddle(a):
    cells = [(i, j) for i in range(len(a)) for j in range(len(a[0]))]
    for i, j in cells:
        if (all(a[i][t] > a[i][j] for t in range(len(a[0])) if t != j)
                and all(a[s][j] < a[i][j] for s in range(len(a)) if s != i)):
            return i, j
    return None


def _reference_kernel(a):
    """(value, x, y) from a 1 x 1 or 2 x 2 kernel that certifies the game's
    unique optimum, in Fraction arithmetic, or None."""
    rows, cols = len(a), len(a[0])
    saddle = _reference_strict_saddle(a)
    if saddle is not None:
        i, j = saddle
        return a[i][j], core.pure(i, rows), core.pure(j, cols)
    for i1, i2 in combinations(range(rows), 2):
        for j1, j2 in combinations(range(cols), 2):
            p, q, r, s = a[i1][j1], a[i1][j2], a[i2][j1], a[i2][j2]
            d = p + s - q - r
            if d == 0:
                continue
            x, y = [F(0)] * rows, [F(0)] * cols
            x[i1], x[i2] = (s - r) / d, (p - q) / d
            y[j1], y[j2] = (s - q) / d, (p - r) / d
            v = (p * s - q * r) / d
            if min(x[i1], x[i2], y[j1], y[j2]) <= 0:
                continue
            rows_below = all(sum(a[t][j] * y[j] for j in range(cols)) < v
                             for t in range(rows) if t not in (i1, i2))
            cols_above = all(sum(x[i] * a[i][t] for i in range(rows)) > v
                             for t in range(cols) if t not in (j1, j2))
            if rows_below and cols_above:
                return v, tuple(x), tuple(y)
    return None


def _random_game_matrix(rng):
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    kind = rng.choice(("small_ints", "thirds", "constant", "tied_saddle", "ints"))
    if kind == "constant":
        value = F(rng.randint(-6, 6), rng.choice((1, 3)))
        return tuple(tuple(value for _ in range(cols)) for _ in range(rows))
    if kind == "small_ints":  # many tied rows and columns
        return tuple(tuple(F(rng.randint(-1, 1)) for _ in range(cols)) for _ in range(rows))
    if kind == "thirds":
        return tuple(tuple(F(rng.randint(-6, 6), 3) for _ in range(cols)) for _ in range(rows))
    a = [[F(rng.randint(-9, 9)) for _ in range(cols)] for _ in range(rows)]
    if kind == "tied_saddle":
        # A pure saddle at (i, j) that ties with another entry of its row or column.
        i, j = rng.randrange(rows), rng.randrange(cols)
        v = F(rng.randint(-3, 3), rng.choice((1, 3)))
        for t in range(cols):
            a[i][t] = v + rng.randint(0, 3)
        for s in range(rows):
            a[s][j] = v - rng.randint(0, 3)
        a[i][j] = v
        if cols > 1 and rng.random() < 0.5:
            a[i][rng.choice([t for t in range(cols) if t != j])] = v
        elif rows > 1:
            a[rng.choice([s for s in range(rows) if s != i])][j] = v
    return tuple(map(tuple, a))


def _count_lp_solves(monkeypatch):
    import matchgames.lp as lp_module
    calls = []
    solve = lp_module.solve_lp

    def counting(program):
        calls.append(program)
        return solve(program)

    monkeypatch.setattr(lp_module, "solve_lp", counting)
    return calls


def test_game_value_equals_the_two_lp_reference(monkeypatch):
    rng = random.Random(20261018)
    strict = kernel = simplex = 0
    for _ in range(600):
        a = _random_game_matrix(rng)
        expected = _two_lp_game_value(a)
        calls = _count_lp_solves(monkeypatch)
        assert game_value(a) == expected, a
        monkeypatch.undo()
        certified = _reference_kernel(a)
        if certified is None:
            assert len(calls) == 2, a
            simplex += 1
        else:
            assert len(calls) == 0, a
            assert expected == certified
            if _reference_strict_saddle(a) is None:
                kernel += 1
            else:
                strict += 1
    assert strict >= 150 and kernel >= 50 and simplex >= 150


@pytest.mark.parametrize("a, lp_solves", [
    (((F(1), F(2)), (F(0), F(3))), 0),             # strict saddle at (0, 0)
    (((F(5, 3), F(1, 3), F(2)),), 0),               # 1 x n with a unique minimum
    (((F(7),),), 0),                                # 1 x 1
    (((F(1), F(1)), (F(0), F(0))), 2),              # saddle value 1, tied in its row
    (((F(2), F(2), F(3)),), 2),                     # 1 x n with a tied minimum
    (((F(4),), (F(4),), (F(1),)), 2),               # n x 1 with a tied maximum
    (((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))), 2),  # constant
    (((F(1), F(-1)), (F(-1), F(1))), 0),            # no pure saddle: a 2 x 2 kernel
    (((F(3), F(1)), (F(3), F(1))), 2),              # d = 0, equal rows
    (((F(3), F(1)), (F(2), F(0))), 0),              # d = 0, a strict saddle at (0, 1)
    (((F(1), F(-1)), (F(-1), F(1)), (F(2), F(-2))), 2),  # an outside row ties v
    (((F(0), F(-1), F(1)), (F(1), F(0), F(-1)), (F(-1), F(1), F(0))), 2),  # completely mixed
])
def test_strict_saddles_solve_no_lp(monkeypatch, a, lp_solves):
    expected = _two_lp_game_value(a)
    calls = _count_lp_solves(monkeypatch)
    assert game_value(a) == expected
    assert len(calls) == lp_solves == (0 if _reference_kernel(a) else 2)


@pytest.mark.parametrize("a, answer", [
    # Matching pennies: the 2 x 2 kernel is the whole game.
    (((F(1), F(-1)), (F(-1), F(1))), (F(0), (F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))),
    # Fractional entries, and a dominated third column outside the kernel.
    (((F(2, 3), F(0), F(1)), (F(0), F(1, 3), F(1))),
     (F(2, 9), (F(1, 3), F(2, 3)), (F(1, 3), F(2, 3), F(0)))),
    # A third row strictly below v against y, and a kernel on rows 1 and 2.
    (((F(-1), F(-1)), (F(3), F(0)), (F(0), F(2))),
     (F(6, 5), (F(0), F(2, 5), F(3, 5)), (F(2, 5), F(3, 5)))),
])
def test_two_by_two_kernels_are_closed_forms(monkeypatch, a, answer):
    assert _two_lp_game_value(a) == answer
    calls = _count_lp_solves(monkeypatch)
    assert game_value(a) == answer
    assert calls == []
