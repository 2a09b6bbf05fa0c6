"""Cached frontiers, witness-free value queries and the incremental indexes
built on them (DAC seat book, renegotiation payoff ledger)."""

import random
from fractions import Fraction as F

import pytest

from matchgames import renegotiation
from matchgames.core import BimatrixGame, bilinear, parse_rational
from matchgames.dac import DacState, run_dac
from matchgames.errors import MalformedRationalError, UnsupportedClassError
from matchgames.gen import generate_instance, random_game
from matchgames.qcqp import (
    max_f_given_g_floor,
    max_f_point,
    max_g_given_f_floor,
    max_g_point,
)
from matchgames.renegotiation import reservation_payoffs, run_renegotiation
from matchgames.roommates import solve_aspiration_zero_sum

CLASSES = ("zero_sum", "strictly_competitive", "repeated")


def _floors(rng, lo, hi):
    """Thresholds around and exactly at the attainable bounds [lo, hi]."""
    inner = [lo + (hi - lo) * F(rng.randint(0, 8), 8) for _ in range(3)]
    return [lo - 1, lo, hi, hi + 1] + inner


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

    def test_frontier_is_computed_once_per_game(self):
        game = random_game(random.Random(1), 3, 3, "strictly_competitive")
        assert game.frontier is game.frontier

    def test_general_class_has_no_frontier(self):
        a = ((F(1), F(0)), (F(0), F(1)))
        game = BimatrixGame(a, a, "general")
        with pytest.raises(UnsupportedClassError, match="no exact frontier solver"):
            max_f_point(game, F(0))


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
        assert state.members(h) == members
        assert members == allocation.hospital_members(h)
        if len(members) >= hosp.quota:
            weakest = min((state.seats[(h, d)].g, d) for d in members)
            assert state.seat_threshold(h) == weakest[0]
            assert state.weakest_incumbent(h) == weakest[1]
        else:
            assert state.seat_threshold(h) == hosp.irp


@pytest.mark.parametrize("classes", [["zero_sum", "strictly_competitive"], ["repeated"]])
def test_sweep_reservations_match_fresh_computation(monkeypatch, classes):
    eps = F(1, 2)
    inst = generate_instance(seed=11, n_doctors=6, n_hospitals=3, max_strategies=3,
                             max_quota=2, classes=classes)
    allocation, _ = run_dac(inst, eps)
    seen = []
    check = renegotiation.check_couple_is_cne

    def audited(instance, current, d, partner, reservations, epsilon):
        assert reservations == reservation_payoffs(instance, current, d, partner, epsilon)
        seen.append((d, partner))
        return check(instance, current, d, partner, reservations, epsilon)

    monkeypatch.setattr(renegotiation, "check_couple_is_cne", audited)
    result = run_renegotiation(inst, allocation, eps)
    # The last sweep changes nothing, so its audits ran on the final allocation.
    assert seen[-len(result.allocation.matched_pairs()):] == sorted(
        result.allocation.matched_pairs(), key=lambda dp: (dp[1], dp[0]))


@pytest.mark.parametrize("n", [10, 12])
def test_roommates_generation_past_nine_doctors(n):
    inst = generate_instance(seed=3, model="roommates", n_doctors=n,
                             classes=["zero_sum", "strictly_competitive"])
    assert len(inst.games) == n * (n - 1) // 2
    assert all(a < b for a, b in inst.games)
    assert ("d10", "d2") in inst.games
    profile = solve_aspiration_zero_sum(inst)
    assert set(profile) == set(inst.doctors)
