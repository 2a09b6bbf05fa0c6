import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from matchgames import core
from matchgames.errors import GameValueCertificateError, MatchGamesError
from matchgames.lp import _certify_saddle, solve_lp

from fixtures import game_value_of, random_matrix
from oracles import EQ, GE, LE, LinearProgram, fraction_game_tableau, fraction_simplex_lp, two_lp_game_value

# ---------------------------------------------------------------------------
# The reference LP (``oracles.fraction_simplex_lp``) on textbook programs


def test_bounded_max():
    lp = LinearProgram(objective=[F(1)])
    lp.add([F(1)], LE, F(3))
    result = fraction_simplex_lp(lp)
    assert result.status == "optimal"
    assert result.value == 3
    assert result.solution == (F(3),)


def test_infeasible():
    lp = LinearProgram(objective=[F(1)])
    lp.add([F(1)], LE, F(-1))
    assert fraction_simplex_lp(lp).status == "infeasible"


def test_unbounded():
    lp = LinearProgram(objective=[F(1)])
    assert fraction_simplex_lp(lp).status == "unbounded"


def test_solution_satisfies_constraints_exactly():
    lp = LinearProgram(objective=[F(3), F(2)], sense="max")
    lp.add([F(1), F(1)], LE, F(4))
    lp.add([F(1), F(3)], LE, F(6))
    result = fraction_simplex_lp(lp)
    x, y = result.solution
    assert x + y <= 4 and x + 3 * y <= 6
    assert 3 * x + 2 * y == result.value == 12


def test_equality_and_free_variables():
    lp = LinearProgram(objective=[F(2), F(-1)], sense="min", free=frozenset([0]))
    lp.add([F(0), F(1)], LE, F(5))
    lp.add([F(1), F(1)], EQ, F(4))
    lp.add([F(1), F(0)], GE, F(-10))
    result = fraction_simplex_lp(lp)
    assert result.value == -7
    assert result.solution == (F(-1), F(5))


def test_free_index_outside_the_variables_raises():
    with pytest.raises(MatchGamesError):
        fraction_simplex_lp(LinearProgram(objective=[F(1)], free=frozenset([1])))


def test_unknown_sense_raises():
    lp = LinearProgram(objective=[F(1)], sense="maximize")
    lp.add([F(1)], LE, F(5))
    with pytest.raises(MatchGamesError, match="'maximize'"):
        fraction_simplex_lp(lp)


# ---------------------------------------------------------------------------
# The integer game tableau against the Fraction one


def _same_answer(a):
    """``solve_lp`` on the game ``a`` equals the Fraction game tableau and
    passes the saddle certificate."""
    k, scale = core._scaled_matrix(a)
    got = solve_lp(k, scale)
    assert got == fraction_game_tableau(a), a
    _certify_saddle(k, scale, *got)
    return got


def test_integer_tableau_equals_the_fraction_tableau():
    """1,500 random games of up to 5 x 5, a kernel or not: all the
    ``_random_game_matrix`` kinds, and random matrices whose entries have
    denominators up to 6."""
    rng = random.Random(2025)
    for _ in range(1000):
        _same_answer(_random_game_matrix(rng))
    for _ in range(500):
        _same_answer(random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), max_denominator=6))


def test_degenerate_programs_with_ratio_ties():
    # Beale's example, which cycles under the largest-coefficient rule:
    # every ratio test at the degenerate origin ties at 0.
    beale = LinearProgram(objective=[F(3, 4), F(-20), F(1, 2), F(-6)])
    beale.add([F(1, 4), F(-8), F(-1), F(9)], LE, F(0))
    beale.add([F(1, 2), F(-12), F(-1, 2), F(3)], LE, F(0))
    beale.add([F(0), F(0), F(1), F(0)], LE, F(1))
    assert fraction_simplex_lp(beale).value == F(5, 4)
    # Three rows through the vertex (1, 1): when y enters, the slacks of
    # y <= 1 and x + y <= 2 tie at ratio 1, and the lower basis index leaves.
    square = LinearProgram(objective=[F(1), F(1)])
    for row, rhs in (([F(1), F(0)], 1), ([F(0), F(1)], 1), ([F(1), F(1)], 2)):
        square.add(row, LE, F(rhs))
    assert fraction_simplex_lp(square).solution == (F(1), F(1))
    # A tied minimum of a 1 x 3 game: q0 enters first and q1 replaces it;
    # q2, tied with q1, is then left at reduced cost 0, so y* is the first
    # tied column.
    assert game_value_of(((F(-1), F(-10), F(-10)),)) == (F(-10), (F(1),), (F(0), F(1), F(0)))
    # Game tableaus whose ratio tests tie: equal rows, a constant game, a
    # tied maximum of an n x 1 game and two copies of rock-paper-scissors.
    rps = ((F(0), F(-1), F(1)), (F(1), F(0), F(-1)), (F(-1), F(1), F(0)))
    for a in (((F(3), F(1)), (F(3), F(1))), ((F(2, 3),) * 3,) * 2, ((F(4),), (F(4),), (F(1),)),
              rps + rps):
        _same_answer(a)


def _benchmark_lp_games(monkeypatch, tmp_path, workload, units, gen_args):
    """The game of every LP one seed-1 pass of a market workload solves:
    ``units`` generated markets, each through solve-dac, verify, renegotiate
    and verify again at eps 1/2, with the generator seeds the benchmark
    draws for seed 1, as Fraction matrices."""
    import matchgames.lp as lp_module
    from matchgames.cli import main

    games = []
    solve = lp_module.solve_lp
    monkeypatch.setattr(lp_module, "solve_lp", lambda k, scale: games.append(
        tuple(tuple(F(v, scale) for v in row) for row in k)) or solve(k, scale))
    seeds = random.Random(f"{workload}:1")
    inst, dac, reneg, report = (str(tmp_path / name) for name in ("i.json", "d.json", "r.json", "v.json"))
    for _ in range(units):
        assert main(["gen", "--seed", str(seeds.randrange(1 << 31)), *gen_args, "--output", inst]) == 0
        common = ["--input", inst, "--epsilon", "1/2"]
        assert main(["solve-dac", *common, "--output", dac]) == 0
        assert main(["verify", *common, "--allocation", dac, "--coalitions", "4", "--output", report]) in (0, 2)
        assert main(["renegotiate", *common, "--allocation", dac, "--output", reneg]) == 0
        assert main(["verify", *common, "--allocation", reneg, "--renegotiation", "--output", report]) == 0
    monkeypatch.undo()
    return games


def test_integer_tableau_on_the_mixed_market_games(monkeypatch, tmp_path):
    """All 32 LP games of a seed-1 mixed-market pass: 52 20 x 6 markets of
    zero-sum and strictly competitive pairs."""
    games = _benchmark_lp_games(monkeypatch, tmp_path, "mixed-market", 52, [
        "--doctors", "20", "--hospitals", "6", "--classes", "zero_sum,strictly_competitive"])
    assert len(games) == 32
    for a in games:
        assert _same_answer(a)[0] == two_lp_game_value(a)[0], a


def test_integer_tableau_on_the_zs_market_games(monkeypatch, tmp_path):
    """All 7 LP games of a seed-1 zs-market pass: 24 zero-sum 40 x 10
    markets."""
    games = _benchmark_lp_games(monkeypatch, tmp_path, "zs-market", 24, ["--doctors", "40", "--hospitals", "10"])
    assert len(games) == 7
    for a in games:
        assert _same_answer(a)[0] == two_lp_game_value(a)[0], a


def test_game_value_certifies_the_kernel_and_the_lp(monkeypatch):
    import matchgames.lp as lp_module

    pennies = ((F(1), F(-1)), (F(-1), F(1)))
    tied = ((F(2), F(2), F(3)),)  # a tied minimum: the LP
    kernel = lp_module._kernel_solution
    monkeypatch.setattr(lp_module, "_kernel_solution",
                        lambda k, scale: kernel(k, scale) and (F(1, 3), *kernel(k, scale)[1:]))
    with pytest.raises(GameValueCertificateError, match="game value 1/3"):
        game_value_of(pennies)
    monkeypatch.undo()

    solve = lp_module.solve_lp

    def off_simplex(k, scale):  # y* leaves the simplex
        w, x, y = solve(k, scale)
        return w, x, (F(3, 2), F(-1, 2)) + y[2:]

    monkeypatch.setattr(lp_module, "solve_lp", off_simplex)
    with pytest.raises(GameValueCertificateError, match="y\\* is not a probability vector"):
        game_value_of(tied)
    monkeypatch.undo()

    def worse_row(k, scale):  # x* is feasible but not optimal
        w, _, y = solve(k, scale)
        return w, (F(1), F(0)), y

    monkeypatch.setattr(lp_module, "solve_lp", worse_row)
    with pytest.raises(GameValueCertificateError, match="best column against x\\*"):
        game_value_of(((F(0), F(1)), (F(1), F(1))))


def test_game_value_matching_pennies():
    w, x, y = game_value_of(((F(1), F(-1)), (F(-1), F(1))))
    assert w == 0
    assert x == (F(1, 2), F(1, 2))
    assert y == (F(1, 2), F(1, 2))


def test_game_value_diagonal():
    w, x, y = game_value_of(((F(2), F(0)), (F(0), F(1))))
    assert w == F(2, 3)
    assert x == (F(1, 3), F(2, 3))
    # row payoffs against y* are exactly the value
    a = ((F(2), F(0)), (F(0), F(1)))
    for i in range(2):
        assert sum(a[i][j] * y[j] for j in range(2)) == F(2, 3)


def test_game_value_single_entry():
    w, x, y = game_value_of(((F(7),),))
    assert w == 7 and x == (F(1),) and y == (F(1),)


def test_saddle_inequalities_random():
    rng = random.Random(7)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, rows, cols, max_denominator=2)
        w, x, y = game_value_of(a)
        for j in range(cols):  # min_t x*.A.t == w
            assert sum(x[i] * a[i][j] for i in range(rows)) >= w
        for i in range(rows):  # max_s s.A.y* == w
            assert sum(a[i][j] * y[j] for j in range(cols)) <= w


# ---------------------------------------------------------------------------
# Strict saddle points in closed form, against the two-LP reference


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

    def counting(k, scale):
        calls.append(k)
        return solve(k, scale)

    monkeypatch.setattr(lp_module, "solve_lp", counting)
    return calls


def test_game_value_equals_the_two_lp_reference(monkeypatch):
    rng = random.Random(20261018)
    strict = kernel = simplex = 0
    for _ in range(600):
        a = _random_game_matrix(rng)
        expected = two_lp_game_value(a)
        calls = _count_lp_solves(monkeypatch)
        got = game_value_of(a)
        monkeypatch.undo()
        certified = _reference_kernel(a)
        if certified is None:
            # Where optima are not unique, the one tableau may stop at
            # another optimal pair than the two LPs: the values agree.
            assert got[0] == expected[0] and len(calls) == 1, a
            simplex += 1
        else:
            assert got == expected == certified and len(calls) == 0, a
            if _reference_strict_saddle(a) is None:
                kernel += 1
            else:
                strict += 1
    assert strict >= 150 and kernel >= 50 and simplex >= 300


@pytest.mark.parametrize("a, lp_solves", [
    (((F(1), F(2)), (F(0), F(3))), 0),             # strict saddle at (0, 0)
    (((F(5, 3), F(1, 3), F(2)),), 0),               # 1 x n with a unique minimum
    (((F(7),),), 0),                                # 1 x 1
    (((F(1), F(1)), (F(0), F(0))), 1),              # saddle value 1, tied in its row
    (((F(2), F(2), F(3)),), 1),                     # 1 x n with a tied minimum
    (((F(4),), (F(4),), (F(1),)), 1),               # n x 1 with a tied maximum
    (((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))), 1),  # constant
    (((F(1), F(-1)), (F(-1), F(1))), 0),            # no pure saddle: a 2 x 2 kernel
    (((F(3), F(1)), (F(3), F(1))), 1),              # d = 0, equal rows
    (((F(3), F(1)), (F(2), F(0))), 0),              # d = 0, a strict saddle at (0, 1)
    (((F(1), F(-1)), (F(-1), F(1)), (F(2), F(-2))), 1),  # an outside row ties v
    (((F(0), F(-1), F(1)), (F(1), F(0), F(-1)), (F(-1), F(1), F(0))), 1),  # completely mixed
])
def test_strict_saddles_solve_no_lp(monkeypatch, a, lp_solves):
    expected = two_lp_game_value(a)
    calls = _count_lp_solves(monkeypatch)
    got = game_value_of(a)
    assert got == expected if lp_solves == 0 else got[0] == expected[0]
    assert len(calls) == lp_solves == (0 if _reference_kernel(a) else 1)


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
    assert two_lp_game_value(a) == answer
    calls = _count_lp_solves(monkeypatch)
    assert game_value_of(a) == answer
    assert calls == []
