"""Cached frontiers, witness-free value queries and the incremental indexes
built on them (DAC seat book, renegotiation payoff ledger); the zero-sum class
as the identity bridge of the one-shot frontier path; the integer segment and
the profiles built on A against the affine bridge's zero-sum image."""

import random
from fractions import Fraction as F

import pytest

from matchgames import core, qcqp, renegotiation, stability
from matchgames.core import (
    Allocation,
    BimatrixGame,
    Doctor,
    Hospital,
    MatchingGameInstance,
    bilinear,
    evaluate_payoffs,
    negate,
    parse_rational,
)
from matchgames.dac import FREE_SEAT, DacState, run_dac
from matchgames.errors import (
    InfeasibleError,
    InfeasibleReservationsError,
    MalformedRationalError,
    UnsupportedClassError,
)
from matchgames.gen import generate_instance, random_game
from matchgames.qcqp import (
    exact_point,
    frontier_witness,
    max_f_given_g_floor,
    max_f_point,
    max_f_value,
    max_g_given_f_floor,
    max_g_point,
    max_g_value,
)
from matchgames.renegotiation import (
    ReservationPair,
    compute_cne_for_pair,
    reservation_payoffs,
    run_renegotiation,
    select_process_cne,
)
from matchgames.roommates import (
    demand_set,
    partnership_value,
    realize_aspiration,
    solve_aspiration_zero_sum,
)
from matchgames.stability import (
    _pair_block_profile,
    find_blocking_pair,
    verify_renegotiation_proof,
)

from oracles import hull_lp
from bridge_reference import (
    bridge,
    reference_bridge,
    ref_exact,
    ref_max_f,
    ref_max_g,
    ref_pair_block_profile,
    ref_pays_above,
    ref_value_grid,
)

CLASSES = ("zero_sum", "strictly_competitive", "repeated")


def _floors(rng, lo, hi):
    """Thresholds around and exactly at the attainable bounds [lo, hi]."""
    inner = [lo + (hi - lo) * F(rng.randint(0, 8), 8) for _ in range(3)]
    return [lo - 1, lo, hi, hi + 1] + inner


def _seat_sup(game, f_floor):
    """sup of the partner's payoff over profiles paying the doctor strictly
    above ``f_floor``, or None when she cannot beat it."""
    point = max_g_point(game, f_floor, strict=True)
    return None if point is None else point.g


class TestValueQueries:
    @pytest.mark.parametrize("game_class", CLASSES)
    def test_values_match_witness_queries(self, game_class):
        rng = random.Random(f"frontier-{game_class}")
        for _ in range(40 if game_class != "repeated" else 12):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            game = random_game(rng, rows, cols, game_class, max_denominator=2)
            fr = game.frontier
            for strict in (False, True):
                for theta in _floors(rng, fr.m_min, fr.m_max):
                    point = max_f_point(game, theta, strict)
                    outcome = max_f_given_g_floor(game, theta, strict)
                    assert (point is None) == (outcome is None)
                    if point is not None:
                        assert (point.f, point.g) == (outcome.f, outcome.g)
                for beta in _floors(rng, fr.a_min, fr.a_max):
                    point = max_g_point(game, beta, strict)
                    outcome = max_g_given_f_floor(game, beta, strict)
                    assert (point is None) == (outcome is None)
                    if point is not None:
                        assert (point.f, point.g) == (outcome.f, outcome.g)

    @pytest.mark.parametrize("game_class", ("one_shot", "repeated"))
    def test_integer_values_equal_the_points(self, game_class):
        rng = random.Random(f"integer-values-{game_class}")
        if game_class == "repeated":
            games = [random_game(rng, rng.randint(1, 4), rng.randint(1, 4), "repeated",
                                 max_denominator=2) for _ in range(12)]
        else:
            games = _one_shot_games(rng)

        def same(value, point, coordinate):
            assert (value is None) == (point is None)
            if value is not None:
                n, d = value
                assert type(n) is int and type(d) is int and d > 0
                assert F(n, d) == coordinate(point)

        for game in games:
            fr = game.frontier
            for strict in (False, True):
                for theta in _floors(rng, fr.m_min, fr.m_max):
                    same(max_f_value(game, theta, strict), max_f_point(game, theta, strict),
                         lambda point: point.f)
                for beta in _floors(rng, fr.a_min, fr.a_max):
                    same(max_g_value(game, beta, strict), max_g_point(game, beta, strict),
                         lambda point: point.g)

    def test_repeated_queries_solve_each_hull_lp_once(self, monkeypatch):
        # The hull questions are answered from one polygon per game: value,
        # point and exact queries and CNEs all read the polygon the game
        # built on first use, and the answers are the reference LP's.
        builds = []
        payoff_hull = core.payoff_hull
        monkeypatch.setattr(core, "payoff_hull",
                            lambda a, m: builds.append((a, m)) or payoff_hull(a, m))
        rng = random.Random("hull-once")
        for _ in range(6):
            game = random_game(rng, rng.randint(2, 3), rng.randint(2, 3), "repeated",
                               max_denominator=2)
            a, m, fr = game.doctor_matrix, game.hospital_matrix, game.frontier
            theta, beta = (fr.m_min + fr.m_max) / 2, (fr.a_min + fr.a_max) / 2
            for strict in (False, True):
                assert F(*max_f_value(game, theta, strict)) == max_f_point(game, theta, strict).f
                assert F(*max_g_value(game, beta, strict)) == max_g_point(game, beta, strict).g
            point = max_f_point(game, theta)
            assert (point.f, point.g) == hull_lp(a, m, ("max_f", "max_g"), g_floor=theta)[1]
            point = max_g_point(game, beta)
            assert (point.f, point.g) == hull_lp(a, m, ("max_g", "max_f"), f_floor=beta)[1]
            assert exact_point(game, fr.hull[0][0], fr.hull[0][1]) is not None
            compute_cne_for_pair(game, ReservationPair(fr.a_min, fr.m_min), F(1, 2))
        assert len(builds) == 6

    @pytest.mark.parametrize("game_class", CLASSES)
    def test_exact_point_matches_a_reference(self, game_class):
        # Repeated: hull membership by the LP.  One-shot: the payoff pairs lie
        # on one segment, so (f, g) is attainable iff the best f at partner
        # floor g pays exactly (f, g).
        rng = random.Random(f"exact-{game_class}")
        found = missed = 0
        for _ in range(30 if game_class != "repeated" else 10):
            game = random_game(rng, rng.randint(1, 3), rng.randint(1, 3), game_class,
                               max_denominator=2)
            a, m, fr = game.doctor_matrix, game.hospital_matrix, game.frontier
            cells = [(a[s][t], m[s][t]) for s in range(game.n_rows) for t in range(game.n_cols)]
            candidates = cells + [((f0 + f1) / 2, (g0 + g1) / 2)
                                  for (f0, g0), (f1, g1) in zip(cells, reversed(cells))]
            candidates += [(f, g) for f in _floors(rng, fr.a_min, fr.a_max)[:3]
                           for g in _floors(rng, fr.m_min, fr.m_max)[:3]]
            for f, g in candidates:
                if game_class == "repeated":
                    try:
                        hull_lp(a, m, ("max_f",), f_exact=f, g_exact=g)
                        expected = True
                    except InfeasibleError:
                        expected = False
                else:
                    best = max_f_point(game, g)
                    expected = best is not None and (best.f, best.g) == (f, g)
                point = exact_point(game, f, g)
                assert (point is not None) == expected, (game, f, g)
                if point is None:
                    missed += 1
                    continue
                found += 1
                outcome = frontier_witness(game, point)
                if outcome.cycle is not None:
                    assert outcome.cycle.average_payoffs(a, m) == (f, g)
                else:
                    assert bilinear(outcome.x, a, outcome.y) == f
                    assert bilinear(outcome.x, m, outcome.y) == g
        assert found and missed

    @pytest.mark.parametrize("game_class", ("zero_sum", "strictly_competitive"))
    def test_witness_pays_the_value(self, game_class):
        rng = random.Random(f"witness-{game_class}")
        for _ in range(40):
            game = random_game(rng, rng.randint(1, 4), rng.randint(1, 4), game_class,
                               max_denominator=3)
            fr = game.frontier
            for theta in _floors(rng, fr.m_min, fr.m_max):
                outcome = max_f_given_g_floor(game, theta)
                if outcome is not None:
                    assert bilinear(outcome.x, game.doctor_matrix, outcome.y) == outcome.f
                    assert bilinear(outcome.x, game.hospital_matrix, outcome.y) == outcome.g
                    assert outcome.g >= theta
            for beta in _floors(rng, fr.a_min, fr.a_max):
                outcome = max_g_given_f_floor(game, beta)
                if outcome is not None:
                    assert bilinear(outcome.x, game.doctor_matrix, outcome.y) == outcome.f
                    assert bilinear(outcome.x, game.hospital_matrix, outcome.y) == outcome.g
                    assert outcome.f >= beta

    @pytest.mark.parametrize("game_class", CLASSES)
    def test_frontier_bounds_are_the_matrix_bounds(self, game_class):
        # Zero-sum bounds of M are read off A (M == -A); all must be exact.
        rng = random.Random(f"bounds-{game_class}")
        for _ in range(30):
            game = random_game(rng, rng.randint(1, 4), rng.randint(1, 4), game_class,
                               max_denominator=3)
            a, m = game.doctor_matrix, game.hospital_matrix
            fr = game.frontier
            assert (fr.a_min, fr.a_max) == core.matrix_bounds(a)
            assert (fr.m_min, fr.m_max) == core.matrix_bounds(m)

    def test_frontier_is_computed_once_per_game(self):
        game = random_game(random.Random(1), 3, 3, "strictly_competitive")
        assert game.frontier is game.frontier

    def test_general_class_has_no_frontier(self):
        a = ((F(1), F(0)), (F(0), F(1)))
        game = BimatrixGame(a, a, "general")
        with pytest.raises(UnsupportedClassError, match="no exact frontier solver"):
            max_f_point(game, F(0))


# ---------------------------------------------------------------------------
# The repeated class's polygon against the reference LP (``oracles.hull_lp``).


def _hull_games(rng):
    """Repeated games of every shape the polygon meets: 1 x 1, single rows
    and columns, cells drawn from two points (duplicates), cells on one
    line (collinear), and free ones; entries have denominators 1-3."""
    def value():
        return F(rng.randint(-6, 6), rng.randint(1, 3))

    games = []
    for k in range(72):
        rows, cols = rng.choice(((1, 1), (1, rng.randint(2, 4)), (rng.randint(2, 4), 1),
                                 (rng.randint(2, 4), rng.randint(2, 4))))
        if k % 3 == 0:
            draw = lambda: (value(), value())
        elif k % 3 == 1:
            pool = [(value(), value()) for _ in range(2)]
            draw = lambda: rng.choice(pool)
        else:
            (f0, g0), (df, dg) = (value(), value()), rng.choice(((1, 0), (0, 1), (1, -2), (2, 1)))
            draw = lambda: (f0 + df * F(rng.randint(-4, 4), 2), g0 + dg * F(rng.randint(-4, 4), 2))
        cells = [[draw() for _ in range(cols)] for _ in range(rows)]
        games.append(BimatrixGame(tuple(tuple(f for f, _ in row) for row in cells),
                                  tuple(tuple(g for _, g in row) for row in cells), "repeated"))
    return games


def _reference(a, m, passes, **sides):
    """The reference LP's (f, g) after its lexicographic passes, or None."""
    try:
        return hull_lp(a, m, passes, **sides)[1]
    except InfeasibleError:
        return None


class TestHullPolygon:
    """Every hull answer is the reference LP's lexicographic optimum, and its
    distribution (at most three cells) pays it exactly."""

    @staticmethod
    def _check(game, point, expected):
        assert (None if point is None else (point.f, point.g)) == expected
        if point is not None:
            a, m = game.doctor_matrix, game.hospital_matrix
            assert 0 < len(point.lam) <= 3 and all(w > 0 for w in point.lam.values())
            assert sum(point.lam.values()) == 1
            assert sum(a[s][t] * w for (s, t), w in point.lam.items()) == point.f
            assert sum(m[s][t] * w for (s, t), w in point.lam.items()) == point.g

    def test_answers_equal_the_reference_lp(self):
        rng = random.Random("hull-polygon")
        shapes = set()
        for game in _hull_games(rng):
            a, m, fr = game.doctor_matrix, game.hospital_matrix, game.frontier
            shapes.add(min(len(fr.hull), 3))
            assert len({(f, g) for f, g, _ in fr.hull}) == len(fr.hull)
            f_floors, g_floors = _floors(rng, fr.a_min, fr.a_max), _floors(rng, fr.m_min, fr.m_max)
            for theta in g_floors:
                expected = _reference(a, m, ("max_f", "max_g"), g_floor=theta)
                self._check(game, max_f_point(game, theta), expected)
                self._check(game, max_f_point(game, theta, strict=True),
                            None if theta >= fr.m_max else expected)
            for beta in f_floors:
                expected = _reference(a, m, ("max_g", "max_f"), f_floor=beta)
                self._check(game, max_g_point(game, beta), expected)
                self._check(game, max_g_point(game, beta, strict=True),
                            None if beta >= fr.a_max else expected)
            for beta, theta in zip(f_floors[2:], g_floors[3:] + g_floors[:1]):
                floors = {"f_floor": beta, "g_floor": theta}
                for key, passes in ((qcqp.by_f, ("max_f", "max_g")),
                                    (qcqp.by_g, ("max_g", "max_f")),
                                    (qcqp.by_sum, ("max_sum", "max_f"))):
                    self._check(game, qcqp.hull_point(fr, key, **floors),
                                _reference(a, m, passes, **floors))
            cells = [(a[s][t], m[s][t]) for s in range(game.n_rows) for t in range(game.n_cols)]
            probes = cells[:2] + [((f0 + f1) / 2, (g0 + g1) / 2)
                                  for (f0, g0), (f1, g1) in zip(cells, cells[1:] + cells[:1])]
            probes += list(zip(f_floors[:4], g_floors[4:]))
            for f, g in probes:
                expected = _reference(a, m, ("max_f",), f_exact=f, g_exact=g)
                self._check(game, exact_point(game, f, g), expected and (f, g))
        assert shapes == {1, 2, 3}


# ---------------------------------------------------------------------------
# The one-shot queries and profile builders against the affine bridge, in
# Fraction arithmetic on the zero-sum image (``bridge_reference``).


def _one_shot_games(rng):
    """Random zero-sum and strictly competitive games of both bridge
    directions, and constant games of both classes."""
    games = []
    for game_class in ("zero_sum", "strictly_competitive"):
        for _ in range(60):
            games.append(random_game(rng, rng.randint(1, 4), rng.randint(1, 4), game_class,
                                     max_denominator=rng.choice((1, 3))))
        for _ in range(6):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            a_value = F(rng.randint(-6, 6), rng.randint(1, 3))
            m_value = -a_value if game_class == "zero_sum" else F(rng.randint(-6, 6), 2)
            games.append(BimatrixGame(((a_value,) * cols,) * rows, ((m_value,) * cols,) * rows,
                                      game_class))
    return games


def _segment_is_integer(seg):
    return all(type(v) is int for v in (*seg.a_min, *seg.a_max, *seg.m_min, *seg.m_max,
                                         seg.p, seg.q, seg.r))


class TestIntegerSegment:
    """The integer segment answers each one-shot question as the bridge does."""

    def _assert_same_point(self, game, point, expected):
        assert (point is None) == (expected is None), (game, expected)
        if point is None:
            return
        f, g, z = expected
        assert (point.f, point.g) == (f, g)
        # The witness hits the reference's image value, so it is the same profile.
        outcome = frontier_witness(game, point)
        x, y, _ = qcqp.achieve_value_zero_sum(bridge(game).image, z)
        assert (outcome.x, outcome.y) == (x, y)

    def test_queries_equal_the_bridge_reference(self, monkeypatch):
        rng = random.Random("integer-segment")
        seen = set()
        for game in _one_shot_games(rng):
            fr = game.frontier
            br = bridge(game)
            seen.add("constant" if fr.a_min == fr.a_max else game.class_tag
                     if game.class_tag == "zero_sum" else "ratio 1" if br.ratio == 1
                     else br.direction)
            f_floors = _floors(rng, fr.a_min, fr.a_max)
            g_floors = _floors(rng, fr.m_min, fr.m_max)
            for strict in (False, True):
                for theta in g_floors:
                    self._assert_same_point(game, max_f_point(game, theta, strict),
                                            ref_max_f(br, theta, strict))
                for beta in f_floors:
                    self._assert_same_point(game, max_g_point(game, beta, strict),
                                            ref_max_g(br, beta, strict))
            # Points on the line, inside and outside the segment, and off it.
            on_line = [(f, br.original_hospital_value(-br.image_doctor_value(f))) for f in f_floors]
            off_line = [(f, g + F(1, 7)) for f, g in on_line] + [(f, g) for f in f_floors[:4]
                                                                 for g in g_floors[:4]]
            for f, g in on_line + off_line:
                self._assert_same_point(game, exact_point(game, f, g), ref_exact(br, f, g))
            for f_floor in f_floors:
                for g_floor in g_floors:
                    assert (qcqp.pays_above(game, f_floor, g_floor)
                            == ref_pays_above(br, f_floor, g_floor)), (game, f_floor, g_floor)
                    assert (_pair_block_profile(game, f_floor, g_floor)
                            == ref_pair_block_profile(game, f_floor, g_floor)), (game, f_floor)
            assert stability._value_grid(game, 4) == ref_value_grid(game, 4)
        assert seen == {"constant", "zero_sum", "ratio 1", "doctor", "hospital"}
        # The grid search over whole roommates markets, and the same search
        # on the image references.
        hits = 0
        for seed in range(8):
            inst = generate_instance(seed=seed, model="roommates", n_doctors=4 + seed % 2,
                                     classes=["zero_sum", "strictly_competitive"])
            for tolerance in (F(0), F(1, 4)):
                hit = stability.grid_stable_roommates_search(inst, mesh=4, tolerance=tolerance)
                with monkeypatch.context() as patch:
                    patch.setattr(stability, "_value_grid", ref_value_grid)
                    patch.setattr(stability, "_pair_block_profile", ref_pair_block_profile)
                    assert stability.grid_stable_roommates_search(
                        inst, mesh=4, tolerance=tolerance) == hit, (seed, tolerance)
                hits += hit is not None
        assert 0 < hits < 16

    def test_block_profiles_pay_above_both_floors(self):
        rng = random.Random("segment-blocks")
        blocked = 0
        for game in _one_shot_games(rng):
            fr = game.frontier
            br = bridge(game)
            for f_floor in _floors(rng, fr.a_min, fr.a_max):
                for g_floor in _floors(rng, fr.m_min, fr.m_max):
                    found = _pair_block_profile(game, f_floor, g_floor)
                    assert (found is not None) == ref_pays_above(br, f_floor, g_floor)
                    if found is not None:
                        blocked += 1
                        x, y, _, _ = found
                        assert bilinear(x, game.doctor_matrix, y) > f_floor
                        assert bilinear(x, game.hospital_matrix, y) > g_floor
        assert blocked

    def test_one_shot_frontiers_are_set_on_construction(self):
        rng = random.Random("frontier-on-construction")
        for game_class in ("zero_sum", "strictly_competitive"):
            game = random_game(rng, 2, 3, game_class)
            assert "frontier" in vars(game)
            assert _segment_is_integer(vars(game)["frontier"].segment)
            assert "frontier" in vars(game.flipped)
        repeated = random_game(rng, 2, 3, "repeated")
        assert "frontier" not in vars(repeated)
        assert repeated.frontier.segment is None and "frontier" in vars(repeated)
        general = BimatrixGame(((F(1), F(0)),), ((F(0), F(1)),), "general")
        assert "frontier" not in vars(general)
        with pytest.raises(UnsupportedClassError, match="no exact frontier solver"):
            general.frontier


class TestParseRational:
    def test_memoised_literals_parse_exactly(self):
        assert parse_rational("3/6") == F(1, 2)
        assert parse_rational(" 3/6 ") == F(1, 2)
        assert parse_rational("-4") == F(-4)

    @pytest.mark.parametrize("literal", ["1.5", "1/0", "abc", "1e3"])
    def test_malformed_raises_on_every_call(self, literal):
        for _ in range(3):
            with pytest.raises(MalformedRationalError):
                parse_rational(literal)


def test_dac_seat_index_agrees_with_seats(monkeypatch):
    inst = generate_instance(seed=7, n_doctors=20, n_hospitals=6, max_strategies=3,
                             max_quota=3, classes=["zero_sum", "strictly_competitive"])
    eps = F(1, 2)
    state_box = {}
    original_init = DacState.__post_init__

    def capture(self):
        original_init(self)
        state_box["state"] = self

    monkeypatch.setattr(DacState, "__post_init__", capture)
    allocation, trace = run_dac(inst, eps)
    state = state_box["state"]
    assert trace.competitions > 0 and any(state.is_full(h) for h in inst.hospitals)
    for h, hosp in inst.hospitals.items():
        members = [d for (hh, d) in sorted(state.seats) if hh == h]
        assert state.seats.members(h) == members
        assert members == allocation.hospital_members(h)
        if len(members) >= hosp.quota:
            weakest = min((state.seats[(h, d)].g, d) for d in members)
            assert state.bar(h) == (weakest[0] + eps, weakest[1])
        else:
            assert state.bar(h) == (hosp.irp + eps, FREE_SEAT)


@pytest.mark.parametrize("classes", [["zero_sum", "strictly_competitive"], ["repeated"]])
def test_sweep_reservations_match_fresh_computation(monkeypatch, classes):
    eps = F(1, 2)
    inst = generate_instance(seed=11, n_doctors=6, n_hospitals=3, max_strategies=3,
                             max_quota=2, classes=classes)
    allocation, _ = run_dac(inst, eps)
    seen, copies = [], []
    copy, reservations = renegotiation._copy_allocation, renegotiation._PayoffLedger.reservations

    def audited(ledger, d, partner):
        # Every reservation the sweep reads, checked or not, against a fresh
        # ledger (``reservation_payoffs``); the sweep's allocation is its
        # first copy.
        answer = reservations(ledger, d, partner)
        fresh = renegotiation._PayoffLedger(inst, copies[0], eps)
        assert answer == reservations(fresh, d, partner)
        seen.append((d, partner))
        return answer

    monkeypatch.setattr(renegotiation, "_copy_allocation",
                        lambda a: copies.append(copy(a)) or copies[-1])
    monkeypatch.setattr(renegotiation._PayoffLedger, "reservations", audited)
    result = run_renegotiation(inst, allocation, eps)
    # The last sweep changes nothing, so its reads saw the final allocation.
    assert seen[-len(result.allocation.matched_pairs()):] == sorted(
        result.allocation.matched_pairs(), key=lambda dp: (dp[1], dp[0]))


def _renegotiation_inputs(kind):
    eps = F(1, 2)
    if kind == "roommates":
        for seed in range(1, 4):
            inst = generate_instance(seed=seed, model="roommates", n_doctors=8)
            realized = realize_aspiration(inst, solve_aspiration_zero_sum(inst))
            if isinstance(realized, Allocation):
                yield inst, realized, eps
        return
    size, classes = {"zero_sum": ((40, 10), ["zero_sum"]),
                     "mixed": ((20, 6), ["zero_sum", "strictly_competitive"])}[kind]
    for seed in range(3):
        inst = generate_instance(seed=seed, n_doctors=size[0], n_hospitals=size[1],
                                 classes=classes)
        yield inst, run_dac(inst, eps)[0], eps


@pytest.mark.parametrize("kind", ["zero_sum", "mixed", "roommates"])
def test_ledger_reservations_equal_fresh_ones_in_every_sweep(monkeypatch, kind):
    check = renegotiation.check_couple_is_cne
    seen, moved = [], []

    def audited(instance, current, d, partner, reservations, epsilon):
        assert reservations == reservation_payoffs(instance, current, d, partner, epsilon)
        seen.append((d, partner))
        return check(instance, current, d, partner, reservations, epsilon)

    monkeypatch.setattr(renegotiation, "check_couple_is_cne", audited)
    for inst, allocation, eps in _renegotiation_inputs(kind):
        moved.append(run_renegotiation(inst, allocation, eps).sweeps)
    assert seen and moved and all(moved)


@pytest.mark.parametrize("n", [10, 12])
def test_roommates_generation_past_nine_doctors(n):
    inst = generate_instance(seed=3, model="roommates", n_doctors=n,
                             classes=["zero_sum", "strictly_competitive"])
    assert len(inst.games) == n * (n - 1) // 2
    assert all(a < b for a, b in inst.games)
    assert ("d10", "d2") in inst.games
    profile = solve_aspiration_zero_sum(inst)
    assert set(profile) == set(inst.doctors)


# ---------------------------------------------------------------------------
# Zero-sum is the identity bridge: a zero-sum game and the same matrices
# tagged strictly competitive take the same one-shot path and must agree.


def _cne_or_infeasible(solve, game, reservations, eps):
    try:
        return solve(game, reservations, eps)
    except InfeasibleReservationsError:
        return "infeasible"


@pytest.mark.parametrize("seed", range(6))
def test_zero_sum_matches_its_strictly_competitive_twin(seed):
    rng = random.Random(f"identity-bridge-{seed}")
    for _ in range(8):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        zs = random_game(rng, rows, cols, "zero_sum", max_denominator=2)
        twin = BimatrixGame(zs.doctor_matrix, zs.hospital_matrix, "strictly_competitive")
        fr = zs.frontier
        values = _floors(rng, fr.a_min, fr.a_max)
        for f_floor in values:
            assert _seat_sup(zs, f_floor) == _seat_sup(twin, f_floor)
            for g_floor in _floors(rng, fr.m_min, fr.m_max):
                assert (_pair_block_profile(zs, f_floor, g_floor)
                        == _pair_block_profile(twin, f_floor, g_floor))
        # Roommates lookups: stored orientation and the flipped view.
        sized = {"a": Doctor("a", F(0), ("s",) * rows), "b": Doctor("b", F(0), ("s",) * cols)}
        pair = {}
        for label, game in (("zs", zs), ("twin", twin)):
            pair[label] = MatchingGameInstance(model="roommates", doctors=sized, hospitals={},
                                               games={("a", "b"): game})
        for d, other in (("a", "b"), ("b", "a")):
            for value in values + [-v for v in values]:
                assert (partnership_value(pair["zs"], d, other, value)
                        == partnership_value(pair["twin"], d, other, value))
                profile = {d: value, other: -value}
                assert demand_set(pair["zs"], profile, d) == demand_set(pair["twin"], profile, d)
        for _ in range(6):
            reservations = ReservationPair(rng.choice(values), rng.choice(values) * -1)
            eps = F(1, rng.choice((10, 4, 2)))
            for solve in (compute_cne_for_pair, select_process_cne):
                assert (_cne_or_infeasible(solve, zs, reservations, eps)
                        == _cne_or_infeasible(solve, twin, reservations, eps))


def test_roommates_flipped_view_is_built_once():
    inst = generate_instance(seed=5, model="roommates", n_doctors=5,
                             classes=["zero_sum", "strictly_competitive"])
    key = sorted(inst.games)[0]
    flipped = inst.game_for(key[1], key[0])
    assert inst.game_for(key[1], key[0]) is flipped
    assert flipped.frontier is inst.game_for(key[1], key[0]).frontier
    assert flipped.doctor_matrix == tuple(zip(*inst.games[key].hospital_matrix))
    assert inst.game_for(*key) is inst.games[key]


def test_roommates_solve_and_realize_build_one_view_per_game(monkeypatch):
    inst = generate_instance(seed=2, model="roommates", n_doctors=9,
                             classes=["zero_sum", "strictly_competitive"])
    built, flipped = [], []
    original_init = core.BimatrixGame.__post_init__
    original_flip = core._flipped_frontier

    def counting(self):
        built.append(self)
        original_init(self)

    def flipping(fr):
        flipped.append(fr)
        return original_flip(fr)

    monkeypatch.setattr(core.BimatrixGame, "__post_init__", counting)
    monkeypatch.setattr(core, "_flipped_frontier", flipping)
    profile = solve_aspiration_zero_sum(inst)
    realize_aspiration(inst, profile)
    # Views are read off the stored frontiers, never validated again.
    assert built == []
    assert 0 < len(flipped) <= len(inst.games)


def test_flipped_views_equal_the_validated_constructor():
    rng = random.Random("flipped-views")
    seen = set()
    games = [game for _ in range(4) for game in _one_shot_games(rng)]
    assert len(games) >= 400
    for game in games:
        a, m = game.doctor_matrix, game.hospital_matrix
        view = game.flipped
        validated = BimatrixGame(core.transpose(m), core.transpose(a), game.class_tag)
        assert (view.doctor_matrix, view.hospital_matrix) == (
            validated.doctor_matrix, validated.hospital_matrix)
        assert view.frontier == validated.frontier, game
        assert view.flipped.frontier == game.frontier
        # The bridge the CNE derives from the view is the view's own.
        view_a, view_m = view.doctor_matrix, view.hospital_matrix
        view_tr = core.frontier_bridge(view.frontier, view_a, view_m)
        assert view_tr == core.affine_transform(view_a, view_m)
        assert view_tr[:3] == reference_bridge(view_a, view_m)
        _, _, _, _, _, q, r = game.frontier.segment
        seen.add("constant" if game.frontier.a_min == game.frontier.a_max
                 else "ratio 1" if q == r and game.class_tag != "zero_sum"
                 else f"{game.class_tag}/{'doctor' if r <= q else 'hospital'}")
    assert seen == {"constant", "ratio 1", "zero_sum/doctor", "strictly_competitive/doctor",
                    "strictly_competitive/hospital"}


def test_flipped_views_verify_no_bridge_again(monkeypatch):
    # Loading checks each strictly competitive pair against its line once;
    # the solve's flipped views add no second pass.
    passes = []
    verify = core._strictly_competitive_frontier

    def counting(*args, **kwargs):
        passes.append(args)
        return verify(*args, **kwargs)

    monkeypatch.setattr(core, "_strictly_competitive_frontier", counting)
    inst = generate_instance(seed=2, model="roommates", n_doctors=9,
                             classes=["zero_sum", "strictly_competitive"])
    bridges = sum(game.class_tag == "strictly_competitive"
                  and game.frontier.a_min != game.frontier.a_max
                  for game in inst.games.values())
    assert bridges == 21
    checked = sum(game.class_tag == "strictly_competitive" for game in inst.games.values())
    assert len(passes) == checked
    solve_aspiration_zero_sum(inst)
    assert len(passes) == checked


def _count_couple_reads(monkeypatch):
    """Count read_couple calls under every module name bound to it."""
    calls = []
    read_couple = core.read_couple

    def counting(instance, allocation, d, h):
        calls.append((d, h))
        return read_couple(instance, allocation, d, h)

    for module in (core, renegotiation, stability):
        if getattr(module, "read_couple", None) is read_couple:
            monkeypatch.setattr(module, "read_couple", counting)
    return calls


def _seeded_market(eps):
    inst = generate_instance(seed=7, n_doctors=12, n_hospitals=4, max_strategies=3,
                             max_quota=3, classes=["zero_sum", "strictly_competitive"])
    allocation, _ = run_dac(inst, eps)
    return inst, allocation


def test_renegotiation_proof_check_reads_each_couple_once(monkeypatch):
    eps = F(1, 2)
    inst, allocation = _seeded_market(eps)
    final = run_renegotiation(inst, allocation, eps).allocation
    couples = final.matched_pairs()
    calls = _count_couple_reads(monkeypatch)
    assert verify_renegotiation_proof(inst, final, eps) == (True, None)
    assert len(couples) > 4
    assert sorted(calls) == sorted(couples)


def test_blocking_pair_search_reads_each_seat_once(monkeypatch):
    eps = F(1, 2)
    inst, allocation = _seeded_market(eps)
    seats = allocation.matched_pairs()
    calls = _count_couple_reads(monkeypatch)
    assert find_blocking_pair(inst, allocation, eps) is None
    assert len(seats) > 4
    assert sorted(calls) == sorted(seats)


def test_ledger_reprices_only_options_of_moved_agents(monkeypatch):
    # Doctor "a" and hospital "a" share an id string; writing hospital a's
    # seat must not reprice the options that depend on doctor a's payoff.
    eps = F(1, 2)

    def zero_sum(*rows):
        a = tuple(tuple(F(v) for v in row) for row in rows)
        return BimatrixGame(a, negate(a), "zero_sum")

    inst = MatchingGameInstance(
        model="additive_separable",
        doctors={d: Doctor(d, F(-6), ("s1", "s2")) for d in "abc"},
        hospitals={h: Hospital(h, F(-4), 1, ("t1", "t2")) for h in ("a", "h")},
        games={
            ("a", "a"): zero_sum((-3, 3), (1, -1)), ("a", "h"): zero_sum((-2, 4), (0, -2)),
            ("b", "a"): zero_sum((-4, 2), (2, 0)), ("b", "h"): zero_sum((-1, 3), (1, -3)),
            ("c", "a"): zero_sum((-2, 2), (3, -1)), ("c", "h"): zero_sum((-3, 1), (2, -2)),
        },
    )
    half = (F(1, 2), F(1, 2))
    alloc = Allocation(matching={"a": "h", "b": "a", "c": None},
                       doctor_strategies={"a": (F(1), F(0)), "b": (F(1), F(0))},
                       hospital_strategies={("h", "a"): half, ("a", "b"): half})
    shared = evaluate_payoffs(inst, alloc)
    before = (dict(shared.doctor_payoffs), dict(shared.seat_values))
    ledger = renegotiation._PayoffLedger(inst, alloc, eps, shared)
    couples = (("a", "h"), ("b", "a"))
    for d, p in couples:
        assert ledger.reservations(d, p) == reservation_payoffs(inst, alloc, d, p, eps)

    alloc.doctor_strategies["b"] = (F(0), F(1))
    ledger.record(alloc, "b", "a")
    assert (shared.doctor_payoffs, shared.seat_values) == before
    # Couple (b, hospital a): b's option at h and h's outside doctors a and c
    # depend on nothing that moved.
    calls = _count_ledger_queries(monkeypatch)
    got = ledger.reservations("b", "a")
    assert calls == []
    monkeypatch.undo()
    assert got == reservation_payoffs(inst, alloc, "b", "a", eps)
    # Couple (a, h): a's option at hospital a (its seat moved) and h's option
    # with doctor b (her payoff moved) are priced again; c's is reused.
    calls = _count_ledger_queries(monkeypatch)
    got = ledger.reservations("a", "h")
    assert sorted(calls) == ["max_f_value", "max_g_value"]
    monkeypatch.undo()
    assert got == reservation_payoffs(inst, alloc, "a", "h", eps)


def test_ledger_record_refreshes_the_floors_it_moves():
    # Doctor b moves from the bottom to the top of her game with k.  Her
    # floor and k's bar are refreshed, so hospital h's option with outside
    # doctor b and doctor a's option at k both read the new values.
    eps = F(1, 2)

    def zero_sum(*row):
        a = (tuple(F(v) for v in row),)
        return BimatrixGame(a, negate(a), "zero_sum")

    inst = MatchingGameInstance(
        model="additive_separable",
        doctors={d: Doctor(d, F(-9), ("s",)) for d in "ab"},
        hospitals={h: Hospital(h, F(-10), 1, ("t1", "t2")) for h in "hk"},
        games={("a", "h"): zero_sum(-3, 3), ("a", "k"): zero_sum(-4, 4),
               ("b", "h"): zero_sum(-2, 5), ("b", "k"): zero_sum(-1, 6)},
    )
    alloc = Allocation(matching={"a": "h", "b": "k"},
                       doctor_strategies={"a": (F(1),), "b": (F(1),)},
                       hospital_strategies={("h", "a"): (F(1), F(0)),
                                            ("k", "b"): (F(1), F(0))})
    ledger = renegotiation._PayoffLedger(inst, alloc, eps)
    assert ledger.reservations("a", "h") == ReservationPair(F(-3, 2), F(1, 2))

    alloc.hospital_strategies[("k", "b")] = (F(0), F(1))  # b: -1 -> 6, k's seat: 1 -> -6
    ledger.record(alloc, "b", "k")
    assert (ledger.doctor_floors["b"], ledger.hospital_bars["k"]) == (F(13, 2), F(-11, 2))
    # a reaches her best payoff 4 at k; no profile of (b, h) grants b above 13/2.
    assert ledger.reservations("a", "h") == ReservationPair(F(4), F(-10))
    assert ledger.reservations("a", "h") == reservation_payoffs(inst, alloc, "a", "h", eps)

    # Roommates: a record moves both partners' floors, and doctor c's option
    # with a reads a's new floor.
    game = zero_sum(-3, 3)
    column = ((F(-1),), (F(1),))
    rm = MatchingGameInstance(
        model="roommates", hospitals={},
        doctors={"a": Doctor("a", F(-9), ("s",)), "b": Doctor("b", F(-9), ("t1", "t2")),
                 "c": Doctor("c", F(-9), ("t1", "t2")), "e": Doctor("e", F(-9), ("u",))},
        games={("a", "b"): game, ("a", "c"): game,
               ("c", "e"): BimatrixGame(column, negate(column), "zero_sum")},
    )
    pairs = Allocation(matching={"a": "b", "b": "a", "c": "e", "e": "c"},
                       doctor_strategies={"a": (F(1),), "b": (F(1), F(0)),
                                          "c": (F(1), F(0)), "e": (F(1),)})
    ledger = renegotiation._PayoffLedger(rm, pairs, eps)
    assert ledger.reservations("c", "e").doctor_reservation == F(5, 2)
    pairs.doctor_strategies["b"] = (F(0), F(1))  # a: -3 -> 3, b: 3 -> -3
    ledger.record(pairs, "a", "b")
    assert (ledger.doctor_floors["a"], ledger.doctor_floors["b"]) == (F(7, 2), F(-5, 2))
    assert ledger.reservations("c", "e").doctor_reservation == F(-9)
    assert ledger.reservations("c", "e") == reservation_payoffs(rm, pairs, "c", "e", eps)


def _count_ledger_queries(monkeypatch):
    """Record the name of every frontier query the ledger makes."""
    calls = []

    def counting(name, query):
        def wrapped(game, value, strict):
            calls.append(name)
            return query(game, value, strict)
        return wrapped

    for name in ("max_f_value", "max_g_value"):
        monkeypatch.setattr(renegotiation, name, counting(name, getattr(renegotiation, name)))
    return calls
