"""Builders for the worked-example instances shared across the test suite."""

from __future__ import annotations

from fractions import Fraction

from matchgames.core import (
    ADDITIVE_SEPARABLE,
    GENERAL_ENUMERATED,
    REPEATED,
    STRICTLY_COMPETITIVE,
    BimatrixGame,
    Doctor,
    Hospital,
    MatchingGameInstance,
    _scaled_matrix,
    parse_matrix,
)
from matchgames.gen import _draw_rows
from matchgames.lp import game_value

F = Fraction


def matrix_bounds(m):
    """(min, max) of a matrix's entries, each the first extreme entry in
    row-major order, as the builtin ``min`` and ``max`` keep them."""
    values = [v for row in m for v in row]
    return min(values), max(values)


def transpose(m):
    return tuple(zip(*m))


def negate(m):
    return tuple(tuple(-v for v in row) for row in m)


def game_value_of(a):
    """``lp.game_value`` of a Fraction matrix, solved on its integer form."""
    return game_value(*_scaled_matrix(a))


def random_matrix(rng, rows, cols, lo=-10, hi=10, max_denominator=1):
    """A matrix of Fractions drawn as the generator draws its matrices."""
    return parse_matrix(_draw_rows(rng, rows, cols, lo, hi, max_denominator))


def segregation_instance(n: int) -> MatchingGameInstance:
    """2n ranked doctors, two hospitals of prestige 10 > 5, quotas n each.

    Doctor payoff: hospital prestige plus the summed rankings of the group
    (herself included).  Hospital payoff: summed rankings, within quota.
    """
    doctors = {}
    ranks = {}
    for i in range(2 * n):
        did = f"d{i + 1}"
        ranks[did] = F(2 * n - i)
        doctors[did] = Doctor(id=did, irp=F(-1000), strategies=())
    prestige = {"h1": F(10), "h2": F(5)}
    hospitals = {
        h: Hospital(id=h, irp=F(0), quota=n, strategies=()) for h in ("h1", "h2")
    }
    doctor_payoffs = {}
    hospital_payoffs = {}
    ids = list(doctors)
    from itertools import combinations

    for size in range(1, n + 1):
        for combo in combinations(ids, size):
            members = frozenset(combo)
            total_rank = sum(ranks[d] for d in members)
            for h in hospitals:
                hospital_payoffs[(members, h)] = total_rank
                for d in members:
                    doctor_payoffs[(d, members, h)] = prestige[h] + total_rank
    return MatchingGameInstance(
        model=GENERAL_ENUMERATED,
        doctors=doctors,
        hospitals=hospitals,
        games={},
        coalition_doctor_payoffs=doctor_payoffs,
        coalition_hospital_payoffs=hospital_payoffs,
    )


def roommates_as_general_instance(v: dict, n_hospitals: int) -> MatchingGameInstance:
    """Doctors pair up inside hospitals; groups above two pay a huge penalty.

    ``v[(d, e)]`` is d's value for partner e.  Hospitals are interchangeable
    rooms with null payoffs.
    """
    doctors_ids = sorted({d for d, _ in v} | {e for _, e in v})
    doctors = {d: Doctor(id=d, irp=F(0), strategies=()) for d in doctors_ids}
    hospitals = {
        f"h{j + 1}": Hospital(id=f"h{j + 1}", irp=F(0), quota=len(doctors_ids), strategies=())
        for j in range(n_hospitals)
    }
    doctor_payoffs = {}
    hospital_payoffs = {}
    from itertools import combinations

    penalty = F(-1000)
    for size in range(1, len(doctors_ids) + 1):
        for combo in combinations(doctors_ids, size):
            members = frozenset(combo)
            for h in hospitals:
                hospital_payoffs[(members, h)] = F(0)
                for d in members:
                    if size == 1:
                        doctor_payoffs[(d, members, h)] = F(0)
                    elif size == 2:
                        other = next(e for e in members if e != d)
                        doctor_payoffs[(d, members, h)] = v[(d, other)]
                    else:
                        doctor_payoffs[(d, members, h)] = penalty
    return MatchingGameInstance(
        model=GENERAL_ENUMERATED,
        doctors=doctors,
        hospitals=hospitals,
        games={},
        coalition_doctor_payoffs=doctor_payoffs,
        coalition_hospital_payoffs=hospital_payoffs,
    )


HEDONIC_TABLE = {
    # coalition -> {doctor: payoff}; singletons are worth 0 to their member
    frozenset({"1"}): {"1": F(0)},
    frozenset({"2"}): {"2": F(0)},
    frozenset({"3"}): {"3": F(0)},
    frozenset({"1", "2"}): {"1": F(1), "2": F(1)},
    frozenset({"1", "3"}): {"1": F(-2), "3": F(1)},
    frozenset({"2", "3"}): {"2": F(-2), "3": F(2)},
    frozenset({"1", "2", "3"}): {"1": F(-1), "2": F(-1), "3": F(3)},
}


def hedonic_instance() -> MatchingGameInstance:
    """Three doctors, two interchangeable null-payoff hospitals."""
    doctors = {d: Doctor(id=d, irp=F(0), strategies=()) for d in ("1", "2", "3")}
    hospitals = {h: Hospital(id=h, irp=F(0), quota=3, strategies=()) for h in ("a", "b")}
    doctor_payoffs = {}
    hospital_payoffs = {}
    for members, table in HEDONIC_TABLE.items():
        for h in hospitals:
            hospital_payoffs[(members, h)] = F(0)
            for d, value in table.items():
                doctor_payoffs[(d, members, h)] = value
    return MatchingGameInstance(
        model=GENERAL_ENUMERATED,
        doctors=doctors,
        hospitals=hospitals,
        games={},
        coalition_doctor_payoffs=doctor_payoffs,
        coalition_hospital_payoffs=hospital_payoffs,
    )


def multi_auction_instance() -> MatchingGameInstance:
    """Two buyers bid over a 0..10 price grid for four single-item sellers.

    Sellers value their item at 1; buyer valuations are (10,10,2,2) and
    (2,2,10,10).  At price p the seller earns p - 1 and the buyer u - p:
    strictly competitive 1 x 11 games.
    """
    sellers = ("a", "b", "c", "d")
    doctors = {s: Doctor(id=s, irp=F(0), strategies=("sell",)) for s in sellers}
    prices = tuple(f"p{k}" for k in range(11))
    hospitals = {
        "alpha": Hospital(id="alpha", irp=F(0), quota=4, strategies=prices),
        "beta": Hospital(id="beta", irp=F(0), quota=4, strategies=prices),
    }
    values = {
        ("a", "alpha"): F(10), ("b", "alpha"): F(10), ("c", "alpha"): F(2), ("d", "alpha"): F(2),
        ("a", "beta"): F(2), ("b", "beta"): F(2), ("c", "beta"): F(10), ("d", "beta"): F(10),
    }
    seller_value = F(1)
    games = {}
    for (s, h), u in values.items():
        a_row = tuple(F(p) - seller_value for p in range(11))
        m_row = tuple(u - F(p) for p in range(11))
        games[(s, h)] = BimatrixGame(
            doctor_matrix=(a_row,), hospital_matrix=(m_row,), class_tag=STRICTLY_COMPETITIVE
        )
    return MatchingGameInstance(
        model=ADDITIVE_SEPARABLE, doctors=doctors, hospitals=hospitals, games=games
    )


PD_A = ((F(2), F(-1)), (F(3), F(0)))
PD_M = ((F(2), F(3)), (F(-1), F(0)))


def prisoners_dilemma_game() -> BimatrixGame:
    return BimatrixGame(doctor_matrix=PD_A, hospital_matrix=PD_M, class_tag=REPEATED)
