"""Seeded random instance generation for property suites and the CLI.

Every drawn rational is read, with its negation, from the literal table
(:func:`core.rational_pair`), so equal draws share one Fraction and a
zero-sum game's M is the table's negations of its A, checked as the loader
checks a document's.  The random calls and their order are fixed: a seed's
instance, and so its document, never changes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional, Tuple

from .core import (
    ADDITIVE_SEPARABLE,
    REPEATED,
    ROOMMATES,
    STRICTLY_COMPETITIVE,
    ZERO_SUM,
    BimatrixGame,
    Doctor,
    Hospital,
    Matrix,
    MatchingGameInstance,
    build_game,
    gc_paused,
    negate,
    rational_pair,
    transpose,
)


def random_pair(rng: random.Random, lo: int = -10, hi: int = 10,
                max_denominator: int = 1) -> Tuple[Fraction, Fraction]:
    """A drawn rational in [lo, hi] and its negation.

    Both draws are ``randint``'s, made as ``randrange`` makes them for a
    unit step on Python 3.10-3.13, ``a + rng._randbelow(b - a + 1)``, so
    the stream is the same without their frames; an empty range raises
    here, as ``randint`` would, since ``_randbelow`` would never return.
    """
    if max_denominator < 1 or hi < lo:
        raise ValueError(f"empty draw range: [{lo}, {hi}], denominators up to {max_denominator}")
    den = 1 + rng._randbelow(max_denominator)
    return rational_pair(lo * den + rng._randbelow((hi - lo) * den + 1), den)


def random_rational(rng: random.Random, lo: int = -10, hi: int = 10,
                    max_denominator: int = 1) -> Fraction:
    return random_pair(rng, lo, hi, max_denominator)[0]


def random_matrices(rng, rows, cols, lo=-10, hi=10,
                    max_denominator=1) -> Tuple[Matrix, Matrix]:
    """A drawn matrix and its negation.  Entries are drawn row by row as
    (value, negation) pairs, and each row is split in two, as the loader
    splits a document row."""
    rows_of_pairs = [
        tuple(zip(*[random_pair(rng, lo, hi, max_denominator) for _ in range(cols)]))
        for _ in range(rows)
    ]
    return tuple(zip(*rows_of_pairs))


def random_matrix(rng, rows, cols, lo=-10, hi=10, max_denominator=1) -> Matrix:
    return random_matrices(rng, rows, cols, lo, hi, max_denominator)[0]


def random_game(rng: random.Random, rows: int, cols: int, game_class: str,
                max_denominator: int = 1) -> BimatrixGame:
    """A random game of the requested class.

    Strictly competitive games are built from a zero-sum core, a positive
    ratio at most 1, and a shift, applied to a randomly chosen side, so the
    load-time affine check holds by construction.
    """
    core, negated = random_matrices(rng, rows, cols, max_denominator=max_denominator)
    if game_class == ZERO_SUM:
        return build_game(core, negated, ZERO_SUM, negated)
    if game_class == REPEATED:
        other = random_matrix(rng, rows, cols, max_denominator=max_denominator)
        return BimatrixGame(core, other, REPEATED)
    if game_class == STRICTLY_COMPETITIVE:
        ratio = Fraction(rng.randint(1, 4), 4)
        shift = random_rational(rng, -5, 5, max_denominator)
        scaled = tuple(tuple(ratio * v + shift for v in row) for row in core)
        if rng.random() < 0.5:
            # doctor side rescaled: A = ratio * core + shift, M = -core
            return BimatrixGame(scaled, negated, STRICTLY_COMPETITIVE)
        # hospital side rescaled: A = core, -M = ratio * core + shift
        return BimatrixGame(core, negate(scaled), STRICTLY_COMPETITIVE)
    raise ValueError(f"unsupported class {game_class!r}")


@gc_paused
def generate_instance(seed: int, model: str = ADDITIVE_SEPARABLE,
                      n_doctors: int = 4, n_hospitals: int = 2,
                      max_strategies: int = 3, max_quota: int = 2,
                      classes: Optional[List[str]] = None,
                      max_denominator: int = 1,
                      irp_lo: int = -10, irp_hi: int = 0,
                      hospital_irp_lo: Optional[int] = None,
                      hospital_irp_hi: int = 2) -> MatchingGameInstance:
    """Reproducible random instance; identical seeds give identical instances."""
    rng = random.Random(seed)
    classes = classes or [ZERO_SUM]
    doctors = {}
    for i in range(n_doctors):
        did = f"d{i + 1}"
        doctors[did] = Doctor(
            id=did,
            irp=random_rational(rng, irp_lo, irp_hi, max_denominator),
            strategies=tuple(f"s{k + 1}" for k in range(rng.randint(1, max_strategies))),
        )
    hospitals = {}
    games = {}
    if model == ROOMMATES:
        ids = list(doctors)
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                game = random_game(
                    rng, len(doctors[a].strategies), len(doctors[b].strategies),
                    rng.choice(classes), max_denominator,
                )
                if a < b:
                    games[(a, b)] = game
                else:
                    # Ids compare as strings ("d10" < "d2"): store the pair
                    # under its sorted key, rows owned by the smaller id.
                    games[(b, a)] = BimatrixGame(
                        transpose(game.hospital_matrix), transpose(game.doctor_matrix),
                        game.class_tag,
                    )
        return MatchingGameInstance(model=ROOMMATES, doctors=doctors, hospitals={}, games=games)

    h_lo = irp_lo if hospital_irp_lo is None else hospital_irp_lo
    for j in range(n_hospitals):
        hid = f"h{j + 1}"
        hospitals[hid] = Hospital(
            id=hid,
            irp=random_rational(rng, h_lo, hospital_irp_hi, max_denominator),
            quota=rng.randint(1, max_quota),
            strategies=tuple(f"t{k + 1}" for k in range(rng.randint(1, max_strategies))),
        )
    for did, doc in doctors.items():
        for hid, hosp in hospitals.items():
            games[(did, hid)] = random_game(
                rng, len(doc.strategies), len(hosp.strategies),
                rng.choice(classes), max_denominator,
            )
    return MatchingGameInstance(
        model=ADDITIVE_SEPARABLE, doctors=doctors, hospitals=hospitals, games=games
    )
