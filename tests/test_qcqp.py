import random
from fractions import Fraction as F

import pytest

from matchgames.core import BimatrixGame, bilinear
from matchgames.errors import InfeasibleError, NotStrictlyCompetitiveError
from matchgames.qcqp import (
    affine_transform,
    distribution_to_cycle,
    max_f_given_g_floor,
    max_g_given_f_floor,
    solve_qcqp_repeated,
)

from bridge_reference import Bridge, reference_bridge
from fixtures import PD_A, PD_M, matrix_bounds, negate, random_matrix
from oracles import solve_qcqp_grid_oracle


def _max_f_below(a, c):
    """max{xAy | xAy <= c}: the frontier query on the zero-sum pair (A, -A)
    with the partner's floor -c."""
    return max_f_given_g_floor(BimatrixGame(a, negate(a), "zero_sum"), -c)


class TestZeroSum:
    def test_singleton_clips_to_max(self):
        sol = _max_f_below(((F(2),),), F(5))
        assert sol.f == 2
        assert sol.x == (F(1),) and sol.y == (F(1),)

    def test_matching_pennies_mix(self):
        a = ((F(1), F(-1)), (F(-1), F(1)))
        sol = _max_f_below(a, F(0))
        assert sol.x == (F(1), F(0))
        assert sol.y == (F(1, 2), F(1, 2))
        assert sol.f == 0

    def test_two_point_mix_weights(self):
        a = ((F(0), F(4)), (F(2), F(2)))
        sol = _max_f_below(a, F(3))
        assert sol.x == (F(1), F(0))
        assert sol.y == (F(1, 4), F(3, 4))
        assert bilinear(sol.x, a, sol.y) == 3

    def test_infeasible_below_min(self):
        assert _max_f_below(((F(0), F(4)), (F(2), F(2))), F(-5)) is None

    def test_random_value_support_property(self):
        rng = random.Random(99)
        for _ in range(200):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            a = random_matrix(rng, rows, cols, max_denominator=2)
            lo, hi = matrix_bounds(a)
            c = lo + (hi - lo) * F(rng.randint(0, 16), 16)
            sol = _max_f_below(a, c)
            assert sol.f == min(c, hi)
            assert bilinear(sol.x, a, sol.y) == sol.f
            x_support = sum(1 for w in sol.x if w)
            y_support = sum(1 for w in sol.y if w)
            assert min(x_support, y_support) == 1
            assert max(x_support, y_support) <= 2


class TestRepeated:
    def test_pd_constrained_optimum(self):
        lam, (f, g) = solve_qcqp_repeated(PD_A, PD_M, F(1))
        assert (f, g) == (F(7, 3), F(1))
        assert lam == {(0, 0): F(2, 3), (1, 0): F(1, 3)}

    def test_slack_constraint_hits_unconstrained_max(self):
        _, (f, g) = solve_qcqp_repeated(PD_A, PD_M, F(-1))
        assert f == 3 and g == -1

    def test_infeasible_above_max(self):
        with pytest.raises(InfeasibleError):
            solve_qcqp_repeated(PD_A, PD_M, F(4))

    def test_enumeration_oracle_agreement(self):
        # Independent oracle: scan coarse joint distributions for the best
        # feasible A-average; the LP value must dominate every grid point and
        # meet the best vertex mixture on the binding face.
        rng = random.Random(5)
        for _ in range(20):
            a = random_matrix(rng, 2, 2)
            m = random_matrix(rng, 2, 2)
            c = matrix_bounds(m)[0]
            lam, (f, g) = solve_qcqp_repeated(a, m, c)
            cells = [(s, t) for s in range(2) for t in range(2)]
            best = None
            steps = 6
            for i in range(steps + 1):
                for j in range(steps + 1 - i):
                    for k in range(steps + 1 - i - j):
                        l = steps - i - j - k
                        weights = [F(i, steps), F(j, steps), F(k, steps), F(l, steps)]
                        gv = sum(w * m[s][t] for w, (s, t) in zip(weights, cells))
                        if gv < c:
                            continue
                        fv = sum(w * a[s][t] for w, (s, t) in zip(weights, cells))
                        if best is None or fv > best:
                            best = fv
            assert best is not None and f >= best


class TestCycles:
    def test_quarter_mix_cycle(self):
        lam = {(s, t): F(1, 4) for s in range(2) for t in range(2)}
        cycle = distribution_to_cycle(lam, PD_A, PD_M)
        assert len(cycle.cycle) == 4
        assert cycle.average_payoffs(PD_A, PD_M) == (F(1), F(1))

    def test_lcm_three(self):
        lam = {(0, 0): F(1, 3), (1, 1): F(2, 3)}
        cycle = distribution_to_cycle(lam, PD_A, PD_M)
        assert cycle.cycle == ((0, 0), (1, 1), (1, 1))

    def test_pure_profile_cycle(self):
        cycle = distribution_to_cycle({(1, 0): F(1)}, PD_A, PD_M)
        assert cycle.cycle == ((1, 0),)

    def test_average_matches_lp_value(self):
        rng = random.Random(11)
        for _ in range(25):
            a = random_matrix(rng, 3, 2, max_denominator=3)
            m = random_matrix(rng, 3, 2, max_denominator=3)
            lo, hi = matrix_bounds(m)
            c = lo + (hi - lo) / 2
            lam, (f, g) = solve_qcqp_repeated(a, m, c)
            cycle = distribution_to_cycle(lam, a, m)
            assert cycle.average_payoffs(a, m) == (f, g)


class TestAffine:
    def test_ratio_below_one_direction(self):
        a = ((F(5), F(1)), (F(1), F(3)))
        m = negate(((F(2), F(0)), (F(0), F(1))))
        tr = affine_transform(a, m)
        assert tr.direction == "hospital"
        assert tr.ratio == F(1, 2) and tr.shift == F(-1, 2)
        # B == ratio*A + shift entrywise
        b = negate(m)
        for i in range(2):
            for j in range(2):
                assert b[i][j] == tr.ratio * a[i][j] + tr.shift

    def test_constant_matrices(self):
        tr = affine_transform(((F(3), F(3)),), ((F(-7), F(-7)),))
        assert tr.ratio == 1 and tr.shift == F(3) - F(7)

    def test_not_strictly_competitive_witness(self):
        with pytest.raises(NotStrictlyCompetitiveError) as err:
            affine_transform(
                ((F(1), F(0)), (F(0), F(1))),
                negate(((F(1), F(0)), (F(0), F(2)))),
            )
        assert err.value.entry is not None

    def test_round_trip_values(self):
        rng = random.Random(21)
        for _ in range(50):
            core = random_matrix(rng, 3, 3, max_denominator=2)
            ratio = F(rng.randint(1, 4), 4)
            shift = F(rng.randint(-5, 5))
            scaled = tuple(tuple(ratio * v + shift for v in row) for row in core)
            m = negate(core)
            tr = affine_transform(scaled, m)
            assert tuple(tr) == (*reference_bridge(scaled, m), tr.image)
            br = Bridge(*tr)
            for row in scaled:
                for v in row:
                    assert br.original_doctor_value(br.image_doctor_value(v)) == v


class TestGridOracle:
    def test_grid_close_to_exact_zero_sum(self):
        a = ((F(1), F(-1)), (F(-1), F(1)))
        value, _, _ = solve_qcqp_grid_oracle(a, negate(a), F(0), 8)
        assert abs(value - 0) <= F(1, 8)

    def test_one_by_one_exact(self):
        value, _, _ = solve_qcqp_grid_oracle(((F(3),),), ((F(2),),), F(1), 4)
        assert value == 3

    def test_infeasible(self):
        with pytest.raises(InfeasibleError):
            solve_qcqp_grid_oracle(((F(3),),), ((F(2),),), F(5), 4)

    def test_never_beats_exact(self):
        rng = random.Random(31)
        for _ in range(10):
            a = random_matrix(rng, 2, 3)
            lo, hi = matrix_bounds(a)
            c = lo + (hi - lo) / 3
            exact = _max_f_below(a, c)
            grid_value, _, _ = solve_qcqp_grid_oracle(a, negate(a), -c, 6)
            assert grid_value <= exact.f


class TestFrontier:
    def test_infeasible_floor_returns_none(self):
        game = BimatrixGame(((F(0), F(4)), (F(2), F(2))), negate(((F(0), F(4)), (F(2), F(2)))), "zero_sum")
        assert max_f_given_g_floor(game, F(1, 2)) is None

    def test_bid_interval(self):
        a = ((F(1), F(-1)), (F(-1), F(1)))
        game = BimatrixGame(a, negate(a), "zero_sum")
        out = max_g_given_f_floor(game, F(-2))
        assert out.f == -1 and out.g == 1

    def test_strict_excludes_boundary(self):
        a = ((F(0), F(4)), (F(2), F(2)))
        game = BimatrixGame(a, negate(a), "zero_sum")
        # floor equal to the best deliverable value: closed feasible, open not
        assert max_f_given_g_floor(game, F(0)) is not None
        assert max_f_given_g_floor(game, F(0), strict=True) is None
        assert max_g_given_f_floor(game, F(4)) is not None
        assert max_g_given_f_floor(game, F(4), strict=True) is None
