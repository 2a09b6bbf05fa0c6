"""Seeded random instance generation for property suites and the CLI.

Every drawn rational is drawn as its text "num/den" and read as a document
literal, so a drawn matrix goes straight into its integer form through the
loader's reader; a game's other matrix is that form negated, or is drawn or
rescaled and read the same way.  The random calls and their order are fixed:
a seed's instance, and so its document, never changes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional

from .core import (
    ADDITIVE_SEPARABLE,
    REPEATED,
    ROOMMATES,
    STRICTLY_COMPETITIVE,
    ZERO_SUM,
    BimatrixGame,
    Doctor,
    Hospital,
    MatchingGameInstance,
    _negated,
    _read_matrix,
    _read_ratios,
    build_game,
    gc_paused,
    parse_rational,
)


def _draw(rng: random.Random, lo: int, hi: int, max_denominator: int) -> str:
    """A drawn rational in [lo, hi], as its text "num/den".

    Both draws are ``randint``'s, made as ``randrange`` makes them for a
    unit step on Python 3.10-3.13, ``a + rng._randbelow(b - a + 1)``, so
    the stream is the same without their frames; an empty range raises
    here, as ``randint`` would, since ``_randbelow`` would never return.
    """
    if max_denominator < 1 or hi < lo:
        raise ValueError(f"empty draw range: [{lo}, {hi}], denominators up to {max_denominator}")
    den = 1 + rng._randbelow(max_denominator)
    return f"{lo * den + rng._randbelow((hi - lo) * den + 1)}/{den}"


def _draw_rows(rng, rows, cols, lo=-10, hi=10, max_denominator=1) -> List[List[str]]:
    """A drawn matrix as document rows of texts, drawn row by row."""
    return [[_draw(rng, lo, hi, max_denominator) for _ in range(cols)] for _ in range(rows)]


def random_rational(rng: random.Random, lo: int = -10, hi: int = 10,
                    max_denominator: int = 1) -> Fraction:
    return parse_rational(_draw(rng, lo, hi, max_denominator))


def random_game(rng: random.Random, rows: int, cols: int, game_class: str,
                max_denominator: int = 1) -> BimatrixGame:
    """A random game of the requested class.

    Strictly competitive games are built from a zero-sum core, a positive
    ratio at most 1, and a shift, applied to a randomly chosen side, so the
    load-time affine check holds by construction.
    """
    core = _read_matrix(_draw_rows(rng, rows, cols, max_denominator=max_denominator))
    if game_class == ZERO_SUM:
        return build_game(core, _negated(core), ZERO_SUM)
    if game_class == REPEATED:
        other = _read_matrix(_draw_rows(rng, rows, cols, max_denominator=max_denominator))
        return build_game(core, other, REPEATED)
    if game_class == STRICTLY_COMPETITIVE:
        rn, rd = Fraction(rng.randint(1, 4), 4).as_integer_ratio()
        sn, sd = random_rational(rng, -5, 5, max_denominator).as_integer_ratio()
        nums, den = core
        # ratio * core + shift, each entry read as its literal "num/den"
        scaled = _read_ratios([[f"{rn * sd * n + sn * rd * den}/{rd * sd * den}" for n in row]
                               for row in nums])
        if rng.random() < 0.5:
            # doctor side rescaled: A = ratio * core + shift, M = -core
            return build_game(scaled, _negated(core), STRICTLY_COMPETITIVE)
        # hospital side rescaled: A = core, -M = ratio * core + shift
        return build_game(core, _negated(scaled), STRICTLY_COMPETITIVE)
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
                    games[(b, a)] = game.flipped
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
