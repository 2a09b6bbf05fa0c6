"""Domain model: exact rationals, bimatrix games, matching-game instances.

Everything numerical in this module is exact; floating point never enters
authoritative computations.  A game stores each of its matrices once, in its
integer form (:data:`Scaled`): integer numerators over one positive
denominator, the lcm of the entries' denominators.  Row index = doctor pure
strategy, column index = hospital pure strategy.  Hospital matrices hold the
hospital's *own* payoff (one sign convention everywhere: a zero-sum pair has
``M == -A`` entrywise).  The Fraction matrices of the public API are views of
the integer form, built on first read.

A matched couple's witness (a profile, or a repeated pair's cycle) lives by
one rule of keys and orientation (:func:`_witness_slots`): :func:`store_witness`
writes by it, and :func:`read_couple`, its one reader, checks the witness and
the matching, orients it to the doctor's game and pays both sides at once.
"""

from __future__ import annotations

import gc
import json
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, wraps
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote
from math import gcd, lcm
from operator import add, neg
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import (
    ClassTagViolationError,
    DimensionMismatchError,
    MalformedCycleError,
    MalformedMatchingError,
    MalformedRationalError,
    MatchGamesError,
    NotStrictlyCompetitiveError,
    QuotaOutOfRangeError,
    UnsupportedClassError,
)

# Game class tags.
ZERO_SUM = "zero_sum"
STRICTLY_COMPETITIVE = "strictly_competitive"
REPEATED = "repeated"
GENERAL = "general"
# The classes with an exact frontier (a segment or a hull polygon): DAC and
# the coalition check accept these only.
FRONTIER_CLASSES = (ZERO_SUM, STRICTLY_COMPETITIVE, REPEATED)
GAME_CLASSES = FRONTIER_CLASSES + (GENERAL,)

# Model kinds.
ADDITIVE_SEPARABLE = "additive_separable"
ROOMMATES = "roommates"
GENERAL_ENUMERATED = "general"
MODEL_KINDS = (ADDITIVE_SEPARABLE, ROOMMATES, GENERAL_ENUMERATED)


class NegInfinity:
    """Singleton sentinel for the hospital's over-quota payoff."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "-inf"


NEG_INF = NegInfinity()

Matrix = Tuple[Tuple[Fraction, ...], ...]
# A matrix's integer form: (rows of numerators, den), each entry its
# numerator over den, the lcm of the entries' denominators.  The form is
# unique, so two matrices are equal exactly when their forms are.
Scaled = Tuple[Tuple[Tuple[int, ...], ...], int]


def parse_rational(value: Union[int, str, Fraction]) -> Fraction:
    """Parse an exact rational from an int, a Fraction, or a "p/q" string."""
    if isinstance(value, str):  # documents hold strings: the literal table first
        frac = _VALUES.get(value)
        return _read_literal(value) if frac is None else frac
    if isinstance(value, bool):
        raise MalformedRationalError(f"not a rational literal: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise MalformedRationalError(f"not a rational literal: {value!r}")


# The literal table.  Instances repeat a few distinct literals thousands of
# times, so each text is parsed once: ``_VALUES`` maps it to its value, which
# a text shares with its canonical form ("2/4" and " 1/2 " read "1/2"'s
# Fraction), ``_RATIOS`` to the value's (numerator, denominator), and
# ``_INTEGERS`` an integer literal to its int, so that a matrix row maps to
# its integer form in C (:func:`_read_matrix`).  Str keys alone keep lookups
# on the dict's fast path for str keys, and keep True and 1.0 out, which
# hash as 1 does.  The table is emptied when it fills, which bounds it, and
# with it the zero-sum frontier table (:func:`_set_up_game`);
# malformed literals are never entered, so they raise on every read.
_LITERAL_CAP = 4096
_VALUES: Dict[str, Fraction] = {}
_RATIOS: Dict[str, Tuple[int, int]] = {}
_INTEGERS: Dict[str, int] = {}
_FRONTIERS: Dict[Tuple[int, int, int, int], "Frontier"] = {}
# Their lookups, for ``map`` to call in C: the tables are emptied in place,
# never rebound, so these stay bound to them.
_ratio, _integer = _RATIOS.__getitem__, _INTEGERS.__getitem__


def _empty_tables():
    for table in (_VALUES, _RATIOS, _INTEGERS, _FRONTIERS):
        table.clear()


def _read_literal(value: str) -> Fraction:
    """Parse a str literal, enter it in the table, and return its value."""
    text = value.strip()
    try:
        frac = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedRationalError(f"malformed rational literal: {value!r}") from exc
    if "." in text or "e" in text.lower():
        raise MalformedRationalError(
            f"rational literals must be integers or p/q strings, got {value!r}"
        )
    if len(_VALUES) >= _LITERAL_CAP - 1:  # room for the text and its canonical form
        _empty_tables()
    canonical = format_rational(frac)
    frac = _VALUES[value] = _VALUES.setdefault(canonical, frac)
    _RATIOS[value] = _RATIOS[canonical] = frac.numerator, frac.denominator
    if frac.denominator == 1:
        _INTEGERS[value] = _INTEGERS[canonical] = frac.numerator
    return frac


def format_rational(value: Fraction) -> str:
    """Canonical "p/q" (or plain integer) rendering of an exact rational."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _fraction(n: int, d: int) -> Fraction:
    """n/d, for d > 0, read from the literal table as the text "n/d", so
    that no Fraction is built for a value the table holds."""
    return parse_rational(f"{n}/{d}")


def parse_matrix(rows: Sequence[Sequence[object]]) -> Matrix:
    """A document matrix, read and checked as :func:`load_instance` reads it."""
    return _fractions(_read_matrix(rows))


def _scaled(ratios) -> Scaled:
    """The integer form of a matrix given as rows of (numerator,
    denominator) pairs with positive denominators."""
    den = lcm(*[d for row in ratios for _, d in row])
    return tuple([tuple([n * (den // d) for n, d in row]) for row in ratios]), den


def _scaled_matrix(matrix) -> Scaled:
    """The integer form of a matrix of Fractions or ints."""
    return _scaled([[(v.numerator, v.denominator) for v in row] for row in matrix])


def _fractions(scaled: Scaled) -> Matrix:
    """The Fraction matrix of an integer form."""
    rows, den = scaled
    return tuple([tuple([_fraction(n, den) for n in row]) for row in rows])


def _negated(scaled: Scaled) -> Scaled:
    """The integer form of -matrix, negated in C."""
    rows, den = scaled
    return tuple([tuple(map(neg, row)) for row in rows]), den


def _bounds(flat: Tuple[int, ...], den: int) -> Tuple[int, int, int, int]:
    """(min numerator, min denominator, max numerator, max denominator):
    the bounds of an integer form with flattened numerators ``flat``, their
    ``min`` and ``max``, each reduced by one ``gcd``."""
    lo, hi = min(flat), max(flat)
    k, l = gcd(lo, den), gcd(hi, den)
    return lo // k, den // k, hi // l, den // l


def _reject_one_sided_constant(a: Scaled, m: Scaled):
    """Raise for a pair where one of A and B = -M is constant and the other
    is not; the error's entry holds B's value, negated from M's."""
    (ka, la), (km, lm) = a, m
    for i, row in enumerate(ka):
        for j, value in enumerate(row):
            if value != ka[0][0] or km[i][j] != km[0][0]:
                raise NotStrictlyCompetitiveError(
                    "one matrix is constant and the other is not",
                    entry=(i, j, Fraction(value, la), Fraction(-km[i][j], lm)),
                )


class Segment(NamedTuple):
    """A one-shot pair's payoff set in integers: the segment from
    (a_min, m_max) to (a_max, m_min) on the line r * g == p - q * f.

    Each bound is a (numerator, denominator) pair with a positive
    denominator, and q, r > 0, so every question about the segment is a
    comparison of integer cross products.  A zero-sum pair's line is
    (p, q, r) == (0, 1, 1); a constant pair's segment is one point.
    """

    a_min: Tuple[int, int]
    a_max: Tuple[int, int]
    m_min: Tuple[int, int]
    m_max: Tuple[int, int]
    p: int
    q: int
    r: int


class Frontier(NamedTuple):
    """Per-game data of the frontier queries, computed once per game object.

    ``segment`` is a one-shot pair's payoff set in integers.  Every frontier
    question reads it, and witnesses are built on A itself; only the CNE
    construction works on a zero-sum image, through a bridge it derives from
    the segment (:func:`frontier_bridge`).  Repeated games have no segment;
    their payoff set is the polygon ``hull`` (:func:`payoff_hull`).
    """

    a_min: Fraction
    a_max: Fraction
    m_min: Fraction
    m_max: Fraction
    segment: Optional[Segment] = None
    hull: Optional[tuple] = None  # vertices (f, g, cell), by payoff_hull


def _cross(o, a, b):
    """Twice the signed area of the payoff triangle o, a, b (> 0: a left turn)."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def payoff_hull(a: Matrix, m: Matrix) -> tuple:
    """The vertices (f, g, cell) of conv{(A[s,t], M[s,t])} by Andrew's
    monotone chain (1979): counter-clockwise from the least point, none
    collinear, each with the first cell in row-major order that pays it.
    A degenerate hull is one point or a segment's two ends."""
    first = {}
    for s, (row_a, row_m) in enumerate(zip(a, m)):
        for t, point in enumerate(zip(row_a, row_m)):
            first.setdefault(point, (s, t))
    points = sorted(first)

    def chain(seq):  # one half of the hull, without its last point
        out = []
        for p in seq:
            while len(out) > 1 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    if len(points) > 1:
        points = chain(points) + chain(points[::-1])
    return tuple((f, g, first[f, g]) for f, g in points)


class AffineTransform(NamedTuple):
    """The affine bridge between a one-shot pair and its zero-sum image.

    With B := -M, exactly one orientation has ratio <= 1:

    * direction "doctor":   A == ratio * B + shift; the image is B (or A,
      equal to it, for a pair with M == -A) and the doctor's payoffs are the
      rescaled ones.
    * direction "hospital": B == ratio * A + shift; the image is A and the
      hospital's payoffs are the rescaled ones.

    :func:`frontier_bridge` gives the image in its integer form, for the
    package's witness builders; the public :func:`affine_transform` gives
    it as Fractions.
    """

    ratio: Fraction
    shift: Fraction
    direction: str
    image: Union[Scaled, Matrix]


def frontier_bridge(fr: Frontier, a: Scaled, m: Scaled) -> AffineTransform:
    """The ratio-<=-1 bridge of the one-shot pair whose matrices have the
    integer forms a and m, read off its validated frontier ``fr``.

    The segment's line r * g == p - q * f passes through (a_min, m_max), so
    it reads A == (r/q) * B + a_min + (r/q) * m_max and, the other way
    round, B == (q/r) * A - m_max - (q/r) * a_min; the direction "doctor"
    is the one with r <= q.  The image is a itself, or m negated in C.
    """
    *_, p, q, r = fr.segment
    if r > q:
        ratio = Fraction(q, r)
        return AffineTransform(ratio, -fr.m_max - ratio * fr.a_min, "hospital", a)
    ratio = Fraction(r, q)
    return AffineTransform(ratio, fr.a_min + ratio * fr.m_max, "doctor",
                           a if (p, q, r) == (0, 1, 1) else _negated(m))


def affine_transform(a: Matrix, m: Matrix) -> AffineTransform:
    """Check that (a, m) is strictly competitive, as the constructor does,
    and compute its ratio-<=-1 affine bridge, with the image as Fractions
    (A, or -M)."""
    game = BimatrixGame(a, m, STRICTLY_COMPETITIVE)
    tr = frontier_bridge(game.frontier, *game.scaled)
    return tr._replace(image=_fractions(tr.image))


def _flipped_frontier(fr: Frontier) -> Frontier:
    """The frontier that the validated constructor builds for the flipped
    game (the stored M transposed as doctor matrix, the stored A transposed
    as hospital matrix), read off the stored frontier ``fr``: the bounds of
    A and M swap places and the line r * g == p - q * f becomes
    q * g == p - r * f, already divided by its gcd.
    """
    seg = fr.segment
    return Frontier(fr.m_min, fr.m_max, fr.a_min, fr.a_max,
                    Segment(seg.m_min, seg.m_max, seg.a_min, seg.a_max, seg.p, seg.r, seg.q))


@dataclass(frozen=True, init=False)
class BimatrixGame:
    """A two-player game: doctor matrix A, hospital matrix M, class tag.

    ``scaled`` holds (A, M), each in its integer form, which every integer
    consumer reads; ``doctor_matrix`` and ``hospital_matrix`` are A and M as
    Fractions, built from it on first read (or kept as given to the
    constructor).  For ``repeated`` games A and M are the stage matrices and
    payoffs are long-run averages of the uniform game.  Every game is set up
    by :func:`_set_up_game`.
    """

    scaled: Tuple[Scaled, Scaled]
    class_tag: str

    def __init__(self, doctor_matrix: Matrix, hospital_matrix: Matrix, class_tag: str):
        self.__dict__.update(doctor_matrix=doctor_matrix, hospital_matrix=hospital_matrix)
        _set_up_game(self, _scaled_matrix(doctor_matrix), _scaled_matrix(hospital_matrix), class_tag)

    @cached_property
    def doctor_matrix(self) -> Matrix:
        return _fractions(self.scaled[0])

    @cached_property
    def hospital_matrix(self) -> Matrix:
        return _fractions(self.scaled[1])

    @cached_property
    def frontier(self) -> Frontier:
        """Matrix bounds and the payoff set (a one-shot integer segment or a
        repeated hull polygon), computed once and kept: on setup for the
        one-shot classes, whose check it is, and on first use for the
        repeated class, whose hull is found on the integer forms."""
        if self.class_tag != REPEATED:
            raise UnsupportedClassError(f"no exact frontier solver for class {self.class_tag}")
        (ka, la), (km, lm) = self.scaled
        a1, a2, a3, a4 = _bounds(tuple(chain.from_iterable(ka)), la)
        m1, m2, m3, m4 = _bounds(tuple(chain.from_iterable(km)), lm)
        return Frontier(_fraction(a1, a2), _fraction(a3, a4), _fraction(m1, m2), _fraction(m3, m4),
                        hull=tuple((Fraction(f, la), Fraction(g, lm), cell)
                                   for f, g, cell in payoff_hull(ka, km)))

    @cached_property
    def punishment(self):
        """The stage game's minimax levels (alpha, beta) and minimaxing
        strategies: alpha = min_y max_x x.A.y with the hospital's punishing
        y, beta the mirror image on the doctor's side against M.  Two game
        values of the integer forms, solved on first read and kept, as games
        are immutable."""
        from .lp import game_value  # lp imports core

        a, m = self.scaled
        alpha, _, y_alpha = game_value(*a)
        neg_beta, x_beta, _ = game_value(*_negated(m))
        return alpha, -neg_beta, y_alpha, x_beta

    @cached_property
    def flipped(self) -> "BimatrixGame":
        """The game seen from the column player: both matrices transposed and
        their roles swapped.  Built once per game, so the view keeps its own
        cached frontier.  The view is not set up again: a one-shot view's
        frontier is the stored one seen from the other side
        (:func:`_flipped_frontier`)."""
        view = object.__new__(BimatrixGame)
        (a, la), (m, lm) = self.scaled
        view.__dict__.update(scaled=((tuple(zip(*m)), lm), (tuple(zip(*a)), la)),
                             class_tag=self.class_tag)
        if self.class_tag in (ZERO_SUM, STRICTLY_COMPETITIVE):
            view.__dict__["frontier"] = _flipped_frontier(self.frontier)
        return view

    @property
    def n_rows(self) -> int:
        return len(self.scaled[0][0])

    @property
    def n_cols(self) -> int:
        return len(self.scaled[0][0][0])


def _set_up_game(game: BimatrixGame, a: Scaled, m: Scaled, class_tag: str) -> BimatrixGame:
    """Set up ``game`` from the integer forms a and m of its matrices and
    return it: the one setup of every game (constructor, :func:`build_game`,
    generator and loader).  It checks the class tag, the shape and the
    class; a one-shot class's check builds its frontier, which goes straight
    into the instance dict, read before the ``frontier`` descriptor.

    Each check runs in C over the flattened numerators; only a mismatch is
    scanned entry by entry, to name its entry.  The forms are unique, so
    M == -A exactly when both have one denominator and every entry of A + M
    is 0.  A zero-sum frontier depends on A's bounds alone, so one
    ``Frontier`` per bounds is kept in the bounded ``_FRONTIERS`` and shared.

    A strictly competitive pair's line r * g == p - q * f is worked out on
    the reduced bounds (positive denominators, so cross products order
    them); entry (ka / la, km / lm) is on it exactly when
    r * la * km + q * lm * ka == p * la * lm.  The error for the first entry
    off it names the affine relation's two sides (:func:`frontier_bridge`):
    A's entry against ratio * B + shift when r <= q, else B's against
    ratio * A + shift.
    """
    (ka, la), (km, lm) = a, m
    fields = game.__dict__
    fields["scaled"], fields["class_tag"] = (a, m), class_tag
    if class_tag not in GAME_CLASSES:
        raise ClassTagViolationError(f"unknown game class {class_tag!r}")
    if len(ka) != len(km) or len({*map(len, ka), *map(len, km)}) != 1:
        raise DimensionMismatchError("A and M must have identical shape")
    if class_tag == ZERO_SUM:
        flat = tuple(chain.from_iterable(ka))
        if la != lm or any(map(add, flat, chain.from_iterable(km))):
            for i, (row_a, row_m) in enumerate(zip(ka, km)):
                for j, (value, other) in enumerate(zip(row_a, row_m)):
                    if other * la != -value * lm:
                        raise ClassTagViolationError(
                            f"zero_sum game has M != -A at entry ({i},{j})",
                            entry=(i, j, Fraction(other, lm), Fraction(-value, la)))
        key = _bounds(flat, la)
        fr = _FRONTIERS.get(key)
        if fr is None:
            if len(_FRONTIERS) >= _LITERAL_CAP:
                _empty_tables()
            lo_n, lo_d, hi_n, hi_d = key
            a_min, a_max = _fraction(lo_n, lo_d), _fraction(hi_n, hi_d)
            seg = Segment((lo_n, lo_d), (hi_n, hi_d), (-hi_n, hi_d), (-lo_n, lo_d), 0, 1, 1)
            fr = _FRONTIERS[key] = Frontier(a_min, a_max, -a_max, -a_min, seg)
        fields["frontier"] = fr
    elif class_tag == STRICTLY_COMPETITIVE:
        flat_a, flat_m = tuple(chain.from_iterable(ka)), tuple(chain.from_iterable(km))
        p1, q1, p2, q2 = _bounds(flat_a, la)
        p3, q3, p4, q4 = _bounds(flat_m, lm)
        an, ad = p2 * q1 - p1 * q2, q1 * q2  # range of A
        bn, bd = p4 * q3 - p3 * q4, q3 * q4  # range of B, which is the range of M
        if an == 0 and bn == 0:
            # One point (a, m) on the line g == a + m - f.
            line = (p1 * q4 + p4 * q1, q1 * q4, q1 * q4)
        else:
            if an == 0 or bn == 0:
                _reject_one_sided_constant(a, m)
            # The line through (a_min, m_max) with slope -(M range) / (A range).
            line = (p4 * q3 * an + p1 * q2 * bn, bn * ad, an * bd)
        k = gcd(*line)
        p, q, r = line[0] // k, line[1] // k, line[2] // k
        rg, qf, pc = r * la, q * lm, p * la * lm
        if any(map(pc.__ne__, map(add, map(rg.__mul__, flat_m), map(qf.__mul__, flat_a)))):
            for i, (row_a, row_m) in enumerate(zip(ka, km)):
                for j, (f, g) in enumerate(zip(row_a, row_m)):
                    if rg * g + qf * f != pc:
                        if r <= q:  # A == ratio * B + shift, with B's entry -g
                            found, expected = Fraction(f, la), Fraction(p * lm - r * g, q * lm)
                        else:  # B == ratio * A + shift
                            found, expected = Fraction(-g, lm), Fraction(q * f - p * la, r * la)
                        raise NotStrictlyCompetitiveError(
                            f"no affine variant: entry ({i},{j}) is {found}, expected {expected}",
                            entry=(i, j, found, expected))
        fields["frontier"] = Frontier(
            _fraction(p1, q1), _fraction(p2, q2), _fraction(p3, q3), _fraction(p4, q4),
            Segment((p1, q1), (p2, q2), (p3, q3), (p4, q4), p, q, r))
    return game


def build_game(a: Scaled, m: Scaled, class_tag: str) -> BimatrixGame:
    """A game from the integer forms of its matrices, set up as the
    constructor sets one up (:func:`_set_up_game`), built without converting
    Fractions; its Fraction matrices are built on first read."""
    return _set_up_game(object.__new__(BimatrixGame), a, m, class_tag)


@dataclass(frozen=True)
class Doctor:
    id: str
    irp: Fraction
    strategies: Tuple[str, ...]


@dataclass(frozen=True)
class Hospital:
    id: str
    irp: Fraction
    quota: int
    strategies: Tuple[str, ...]


# A matched coalition in the enumerated model is a frozenset of doctor ids.
Coalition = FrozenSet[str]


@dataclass
class MatchingGameInstance:
    """A validated matching-game problem statement.

    ``games`` is keyed by ``(doctor_id, hospital_id)`` for two-sided models
    and by ``(doctor_id, doctor2_id)`` with ids in sorted order for the
    roommates model.  The enumerated model carries explicit coalition payoff
    tables instead of strategic games.
    """

    model: str
    doctors: Dict[str, Doctor]
    hospitals: Dict[str, Hospital]
    games: Dict[Tuple[str, str], BimatrixGame]
    coalition_doctor_payoffs: Dict[Tuple[str, Coalition, str], Fraction] = field(default_factory=dict)
    coalition_hospital_payoffs: Dict[Tuple[Coalition, str], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        validate_instance(self)

    @property
    def doctor_ids(self) -> List[str]:
        return list(self.doctors)

    @property
    def hospital_ids(self) -> List[str]:
        return list(self.hospitals)

    def pair_key(self, d: str, other: str) -> Tuple[str, str]:
        if self.model == ROOMMATES:
            return (d, other) if d < other else (other, d)
        return (d, other)

    def has_game(self, d: str, other: str) -> bool:
        return self.pair_key(d, other) in self.games

    def game_for(self, d: str, other: str) -> BimatrixGame:
        """The game of pair (d, other) oriented so rows belong to ``d``.

        In the roommates model the stored orientation has rows owned by the
        lexicographically smaller doctor; the flipped view transposes both
        matrices and swaps their roles (:attr:`BimatrixGame.flipped`).
        """
        key = self.pair_key(d, other)
        game = self.games[key]
        if self.model == ROOMMATES and key[0] != d:
            return game.flipped
        return game

    def pairs_of(self, d: str) -> List[Tuple[str, BimatrixGame]]:
        """(partner, ``game_for(d, partner)``) for every agent on the other side
        that d has a game with, in partner order, read from ``games`` on each call."""
        get = self.games.get
        if self.model != ROOMMATES:
            return [(h, game) for h in self.hospitals if (game := get((d, h))) is not None]
        return [(k, game if d < k else game.flipped) for k in self.doctors
                if k != d and (game := get((d, k) if d < k else (k, d))) is not None]

    def pairs_at(self, h: str) -> List[Tuple[str, BimatrixGame]]:
        """(doctor, game) for every doctor with a game at hospital h, in doctor order."""
        get = self.games.get
        return [(d, game) for d in self.doctors if (game := get((d, h))) is not None]


# The most coalition tables an enumerated instance may list.
_COALITION_TABLE_CAP = 4096


def validate_instance(instance: MatchingGameInstance):
    if instance.model not in MODEL_KINDS:
        raise MatchGamesError(f"unknown model kind {instance.model!r}")
    for h in instance.hospitals.values():
        check_quota(h.quota, h.id)
    if instance.model == ROOMMATES and instance.hospitals:
        raise MatchGamesError("roommates instances carry no hospital list")
    for key, game in instance.games.items():
        d, other = key
        if d not in instance.doctors:
            raise MatchGamesError(f"game references unknown doctor {d!r}")
        if instance.model == ROOMMATES:
            if other not in instance.doctors:
                raise MatchGamesError(f"game references unknown doctor {other!r}")
            if not d < other:
                raise MatchGamesError("roommates games must be keyed by sorted doctor pair")
            cols = len(instance.doctors[other].strategies)
        else:
            if other not in instance.hospitals:
                raise MatchGamesError(f"game references unknown hospital {other!r}")
            cols = len(instance.hospitals[other].strategies)
        rows = len(instance.doctors[d].strategies)
        if game.n_rows != rows or game.n_cols != cols:
            raise DimensionMismatchError(
                f"game {key} is {game.n_rows}x{game.n_cols}, expected {rows}x{cols}"
            )
    if instance.model == GENERAL_ENUMERATED:
        n_tables = len(instance.coalition_hospital_payoffs)
        cap = (2 ** len(instance.doctors)) * max(1, len(instance.hospitals))
        if n_tables > min(cap, _COALITION_TABLE_CAP):
            raise MatchGamesError("coalition table exceeds the configured cap")


# ---------------------------------------------------------------------------
# Strategies and allocations


def validate_mixed(weights: Sequence[Fraction], size: int, label: str = "strategy") -> Tuple[List[int], int]:
    """A probability vector of ``size`` weights, checked and scaled (:func:`_integer_weights`)."""
    if len(weights) != size:
        raise DimensionMismatchError(f"{label} has {len(weights)} weights, expected {size}")
    nums, den = _integer_weights(weights)
    total = sum(nums)
    if total != den:
        raise MatchGamesError(f"{label} weights sum to {format_rational(Fraction(total, den))}, not 1")
    for w, n in zip(weights, nums):
        if n < 0 or n > den:
            raise MatchGamesError(f"{label} weight {format_rational(w)} outside [0, 1]")
    return nums, den


def pure(index: int, size: int) -> Tuple[Fraction, ...]:
    return tuple(Fraction(1) if i == index else Fraction(0) for i in range(size))


# The integer kernel.  A Fraction is stored normalised, so a sum of terms
# c * p/q is computed exactly as one integer numerator over a common
# multiple of the denominators read, and the single Fraction built at the
# end (which reduces it) equals the Fraction-by-Fraction sum.  Matrices come
# in their integer form, so a matrix term is an int over the form's
# denominator.


def _integer_weights(weights: Sequence[Fraction]) -> Tuple[List[int], int]:
    """(numerators, den): the weights as integers over the lcm of their
    denominators."""
    ratios = [w.as_integer_ratio() for w in weights]
    den = lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def row_payoffs(scaled: Scaled, y: Sequence[Fraction]) -> List[Fraction]:
    """Each pure row's exact payoff against the column mix y, on a matrix's
    integer form."""
    rows, den = scaled
    ys, yd = _integer_weights(y)
    support = [(j, w) for j, w in enumerate(ys) if w]
    return [Fraction(sum(row[j] * w for j, w in support), den * yd) for row in rows]


def bilinear(x: Sequence[Fraction], matrix: Matrix, y: Sequence[Fraction]) -> Fraction:
    """Exact x.A.y for mixed strategies x, y, on the integer kernel."""
    return _bilinears(_integer_weights(x), (_scaled_matrix(matrix),), _integer_weights(y))[0]


def _bilinears(x, matrices: Sequence[Scaled], y) -> List[Fraction]:
    """x.A.y for each matrix A, given in its integer form, with x and y
    given scaled to integers (:func:`_integer_weights`)."""
    (xs, xd), (ys, yd) = x, y
    support = [(j, w) for j, w in enumerate(ys) if w]
    rows = [(i, w) for i, w in enumerate(xs) if w]
    return [Fraction(sum(xi * sum(k[i][j] * w for j, w in support) for i, xi in rows), den * xd * yd)
            for k, den in matrices]


def witness_payoffs(a: Scaled, m: Scaled, x=None, y=None, cells=None,
                    length: int = 1) -> Tuple[Fraction, Fraction]:
    """(f, g), the row and the column side's payoffs on the integer forms a
    and m of the profile (x, y), or of ``cells``' weights by cell (s, t)
    over ``length`` (a hull distribution over 1, a cycle's step counts over
    its length), each scaled to integers once."""
    if cells is None:
        return tuple(_bilinears(_integer_weights(x), (a, m), _integer_weights(y)))
    ws, wd = _integer_weights(list(cells.values()))
    return tuple(Fraction(sum(k[s][t] * w for (s, t), w in zip(cells, ws)), den * wd * length)
                 for k, den in (a, m))


@dataclass
class CyclePunishment:
    """Grim-trigger directive attached to a cycle strategy.

    ``punisher`` is "doctor", "hospital", or "both"; strategies are the
    minimaxing mixed strategies played forever after the first observed
    off-cycle action of the other side.
    """

    punisher: str
    doctor_strategy: Optional[Tuple[Fraction, ...]] = None
    hospital_strategy: Optional[Tuple[Fraction, ...]] = None
    trigger: str = "first_off_cycle_action"


@dataclass
class CycleStrategy:
    """A finite sequence of pure profiles repeated forever."""

    cycle: Tuple[Tuple[int, int], ...]
    punishment: Optional[CyclePunishment] = None

    def average_payoffs(self, a: Matrix, m: Matrix) -> Tuple[Fraction, Fraction]:
        """The long-run average payoffs, one weighted term per distinct step."""
        return witness_payoffs(_scaled_matrix(a), _scaled_matrix(m), cells=Counter(self.cycle),
                               length=len(self.cycle))


@dataclass
class Allocation:
    """A matching plus per-couple strategy profiles.

    ``matching`` maps doctor -> hospital id (two-sided), doctor -> partner id
    (roommates) or doctor -> None for unmatched.  Repeated-class pairs store a
    :class:`CycleStrategy` in ``cycles`` instead of one-shot profiles.
    """

    matching: Dict[str, Optional[str]]
    doctor_strategies: Dict[str, Tuple[Fraction, ...]] = field(default_factory=dict)
    hospital_strategies: Dict[Tuple[str, str], Tuple[Fraction, ...]] = field(default_factory=dict)
    cycles: Dict[Tuple[str, str], CycleStrategy] = field(default_factory=dict)

    def matched_pairs(self) -> List[Tuple[str, str]]:
        return [(d, p) for d, p in sorted(self.matching.items()) if p is not None]

    def hospital_members(self, h: str) -> List[str]:
        return [d for d, p in sorted(self.matching.items()) if p == h]


@dataclass
class PayoffReport:
    """Exact payoffs of an allocation.

    For the game-based hospital models, ``seat_values`` maps (hospital,
    doctor) to the value of every matched seat, seats at an over-quota
    hospital included, and ``members`` lists each hospital's doctors in id
    order.  Both stay empty for the roommates and enumerated models.
    ``couples`` holds each matched couple as :func:`read_couple` read it, in
    doctor id order, keyed (doctor, hospital) or by the sorted roommates pair.
    """

    doctor_payoffs: Dict[str, Fraction]
    hospital_payoffs: Dict[str, object]  # Fraction or NEG_INF
    seat_values: Dict[Tuple[str, str], Fraction] = field(default_factory=dict)
    members: Dict[str, List[str]] = field(default_factory=dict)
    couples: Dict[Tuple[str, str], "Couple"] = field(default_factory=dict)


def seat_floor(hospital: Hospital, members: Sequence[str],
               seat_values: Dict[Tuple[str, str], Fraction]) -> Fraction:
    """The seat value a newcomer must beat at ``hospital``: its baseline
    while a seat is free, else its weakest seat's value."""
    if len(members) < hospital.quota:
        return hospital.irp
    return min(seat_values[(hospital.id, d)] for d in members)


def evaluate_payoffs(instance: MatchingGameInstance, allocation: Allocation) -> PayoffReport:
    """Exact per-agent payoffs of an allocation: each matched couple read once
    (:func:`read_couple`, a roommates pair in stored order) for both its
    payoffs, unmatched agents at their IRP, and each additive separable
    hospital the sum of its seats, or the -inf sentinel when over quota."""
    if instance.model == GENERAL_ENUMERATED:
        return _evaluate_enumerated(instance, allocation)

    report = PayoffReport({d: doc.irp for d, doc in instance.doctors.items()}, {})
    roommates = instance.model == ROOMMATES
    for d, partner in allocation.matched_pairs():
        key = instance.pair_key(d, partner)
        if key in report.couples:  # a roommate read with her partner
            continue
        couple = report.couples[key] = read_couple(instance, allocation, *key)
        report.doctor_payoffs[key[0]] = couple.f
        if roommates:
            report.doctor_payoffs[key[1]] = couple.g
        else:
            report.members.setdefault(partner, []).append(d)
            report.seat_values[(partner, d)] = couple.g
    if roommates:
        return report
    for h, hosp in instance.hospitals.items():
        members = report.members.get(h)
        if not members:
            report.hospital_payoffs[h] = hosp.irp
        elif len(members) > hosp.quota:
            report.hospital_payoffs[h] = NEG_INF
        else:
            report.hospital_payoffs[h] = sum(
                (report.seat_values[(h, d)] for d in members), Fraction(0))
    return report


class Couple(NamedTuple):
    """A matched couple's witness, a profile (x, y) or a cycle over ``game``,
    which is ``game_for(d, partner)``, its payoffs, f to d and g to the partner,
    and a profile's mixes scaled to integers (:func:`_integer_weights`)."""

    game: BimatrixGame
    x: Optional[Tuple[Fraction, ...]]
    y: Optional[Tuple[Fraction, ...]]
    cycle: Optional[CycleStrategy]
    f: Fraction
    g: Fraction
    scaled_x: Optional[Tuple[List[int], int]] = None
    scaled_y: Optional[Tuple[List[int], int]] = None


def _witness_slots(instance, allocation, d, partner):
    """Where couple (d, partner)'s witness lives: (its cycle's key, whether
    the cycle runs over the partner's rows, the dict and key of the partner's
    strategy; d's is ``doctor_strategies[d]``).  Two-sided keys are (h, d); a
    roommates cycle is keyed by the sorted pair, over the smaller id's rows."""
    if instance.model == ROOMMATES:
        key = instance.pair_key(d, partner)
        return key, key[0] != d, allocation.doctor_strategies, partner
    return (partner, d), False, allocation.hospital_strategies, (partner, d)


def _transposed(cycle: CycleStrategy) -> CycleStrategy:
    """The cycle over the transposed game: steps (t, s), punishing sides swapped."""
    pun = cycle.punishment
    if pun is not None:
        side = {"doctor": "hospital", "hospital": "doctor"}.get(pun.punisher, pun.punisher)
        pun = CyclePunishment(side, pun.hospital_strategy, pun.doctor_strategy, pun.trigger)
    return CycleStrategy(tuple((t, s) for s, t in cycle.cycle), pun)


def store_witness(instance, allocation, d, partner, witness):
    """Store a couple's witness (a ``PairOutcome`` or ``CneResult`` over ``game_for(d,
    partner)``) where :func:`read_couple` reads it, dropping entries of the other kind."""
    key, flipped, partners, partner_key = _witness_slots(instance, allocation, d, partner)
    if witness.cycle is None:
        allocation.doctor_strategies[d] = witness.x
        partners[partner_key] = witness.y
        allocation.cycles.pop(key, None)
        return
    allocation.cycles[key] = _transposed(witness.cycle) if flipped else witness.cycle
    allocation.doctor_strategies.pop(d, None)
    partners.pop(partner_key, None)


def read_couple(instance, allocation, d, partner) -> Couple:
    """Couple (d, partner)'s witness, checked, oriented to ``game_for(d,
    partner)`` and paid.  ``MalformedMatchingError`` if the pair has no game
    or two roommates are matched one way only; a profile must hold probability
    vectors of the game's sizes, a cycle steps inside it (``MalformedCycleError``)."""
    game = instance.games.get(instance.pair_key(d, partner))
    if game is None:
        raise MalformedMatchingError(f"doctor {d} is matched to {partner}, but the pair has no game")
    if instance.model == ROOMMATES:
        there, back = allocation.matching.get(d), allocation.matching.get(partner)
        if (there, back) != (partner, d):
            raise MalformedMatchingError(
                f"roommates {d} and {partner} are matched one way only: "
                f"{d} -> {there or 'unmatched'}, {partner} -> {back or 'unmatched'}")
    key, flipped, partners, partner_key = _witness_slots(instance, allocation, d, partner)
    view = game.flipped if flipped else game
    if game.class_tag != REPEATED:
        x, y = allocation.doctor_strategies.get(d), partners.get(partner_key)
        if x is None or y is None:
            raise MatchGamesError(f"pair ({d},{partner}) has no strategy profile")
        xs = validate_mixed(x, view.n_rows, f"doctor {d} strategy")
        ys = validate_mixed(y, view.n_cols, f"partner {partner} strategy vs {d}")
        f, g = _bilinears(xs, view.scaled, ys)
        return Couple(view, x, y, None, f, g, xs, ys)
    cycle = allocation.cycles.get(key)
    if cycle is None:
        pair = key if instance.model == ROOMMATES else f"({d},{partner})"
        raise MatchGamesError(f"repeated pair {pair} has no cycle strategy")
    if not cycle.cycle:
        raise MalformedCycleError(f"repeated pair ({d},{partner}) has an empty cycle")
    rows, cols = game.n_rows, game.n_cols
    for s, t in dict.fromkeys(cycle.cycle):  # each distinct step, first ones first
        if not (0 <= s < rows and 0 <= t < cols):
            raise MalformedCycleError(
                f"repeated pair ({d},{partner}) cycle step [{s}, {t}] is outside "
                f"its {rows}x{cols} game")
    f, g = witness_payoffs(*game.scaled, cells=Counter(cycle.cycle), length=len(cycle.cycle))
    if flipped:
        cycle, f, g = _transposed(cycle), g, f
    return Couple(view, None, None, cycle, f, g)


def _evaluate_enumerated(instance, allocation):
    doctor_payoffs = {}
    hospital_payoffs = {}
    for d, doc in instance.doctors.items():
        partner = allocation.matching.get(d)
        if partner is None:
            doctor_payoffs[d] = doc.irp
        else:
            coalition = frozenset(allocation.hospital_members(partner))
            key = (d, coalition, partner)
            if key not in instance.coalition_doctor_payoffs:
                raise MatchGamesError(f"no table entry for doctor {d} in coalition {sorted(coalition)} at {partner}")
            doctor_payoffs[d] = instance.coalition_doctor_payoffs[key]
    for h, hosp in instance.hospitals.items():
        members = frozenset(allocation.hospital_members(h))
        if not members:
            hospital_payoffs[h] = hosp.irp
        elif len(members) > hosp.quota:
            hospital_payoffs[h] = NEG_INF
        else:
            key = (members, h)
            if key not in instance.coalition_hospital_payoffs:
                raise MatchGamesError(f"no table entry for coalition {sorted(members)} at {h}")
            hospital_payoffs[h] = instance.coalition_hospital_payoffs[key]
    return PayoffReport(doctor_payoffs, hospital_payoffs)


# ---------------------------------------------------------------------------
# Serialisation


def gc_paused(build):
    """``build`` with the cyclic garbage collector paused for each call and
    left as it was found, error or not.  For the builders of instances and
    documents, and for ``cli.main`` around a whole command: what they build
    holds no reference cycles, so a collection during the call could free
    nothing; it would only traverse the objects built so far again and again
    as they grow.  Garbage is freed by reference counts meanwhile, and the
    tests hold every command to leaving no cycle behind."""
    @wraps(build)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


def _read_matrix(rows) -> Scaled:
    """A document matrix's integer form, its shape checked.  A matrix whose
    first entry is an integer literal is read row by row through
    ``_INTEGERS`` in C; any other matrix, or one with a miss or a bad shape,
    is read by :func:`_read_ratios`, with no integer attempt first."""
    try:
        if rows[0][0] in _INTEGERS:
            nums = tuple([tuple(map(_integer, row)) for row in rows])
            if len(set(map(len, nums))) == 1:
                return nums, 1
    except (KeyError, TypeError, IndexError):
        pass
    return _read_ratios(rows)


def _read_ratios(rows) -> Scaled:
    """A document matrix's integer form, its shape checked: its rows map
    through ``_RATIOS`` in C to (numerator, denominator) pairs, a row with a
    miss or a non-str entry entry by entry (:func:`parse_rational`, which
    raises for a malformed entry), and are then scaled (:func:`_scaled`)."""
    if not rows or not all(rows):
        raise DimensionMismatchError("matrices must have at least one row and column")
    width = len(rows[0])
    ratios = []
    for row in rows:
        if len(row) != width:
            raise DimensionMismatchError("ragged matrix rows")
        try:
            ratios.append(tuple(map(_ratio, row)))
        except (KeyError, TypeError):
            ratios.append([(v.numerator, v.denominator) for v in map(parse_rational, row)])
    return _scaled(ratios)


def check_quota(quota, hospital, floor: int = 1) -> int:
    """``quota`` if it is an int, not a bool, of at least ``floor``; else
    raise.  Documents and instances built in code are held to one rule."""
    if type(quota) is not int or quota < floor:
        raise QuotaOutOfRangeError(f"hospital {hospital} has quota {quota!r}")
    return quota


def read_quota(entry: dict, hospital, default: int, floor: int) -> int:
    """A document hospital's quota (:func:`check_quota`), or ``default``
    when the entry gives none."""
    return check_quota(entry.get("quota", default), hospital, floor)


@gc_paused
def load_instance(source: Union[str, dict]) -> MatchingGameInstance:
    """Load and validate an instance from a JSON document (path or dict).

    Each matrix is read straight into its integer form by
    :func:`_read_matrix`, a matrix of integer literals row by row through
    the literal table (see :func:`_read_literal`) in C, and each game is set
    up from the two forms as the constructor sets one up
    (:func:`build_game`, :func:`_set_up_game`).  No Fraction matrix is
    built; a game builds its own on first read.  The collector stays paused
    for the load.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = source
    model = doc.get("model")
    if model not in MODEL_KINDS:
        raise MatchGamesError(f"unknown model {model!r}")

    doctors: Dict[str, Doctor] = {}
    for entry in doc.get("doctors", []):
        doctors[str(entry["id"])] = Doctor(
            id=str(entry["id"]),
            irp=parse_rational(entry.get("irp", 0)),
            strategies=tuple(str(s) for s in entry.get("strategies", [])),
        )
    hospitals: Dict[str, Hospital] = {}
    for entry in doc.get("hospitals", []) if model != ROOMMATES else []:
        quota = read_quota(entry, entry.get("id"), default=1, floor=1)
        hospitals[str(entry["id"])] = Hospital(
            id=str(entry["id"]),
            irp=parse_rational(entry.get("irp", 0)),
            quota=quota,
            strategies=tuple(str(s) for s in entry.get("strategies", [])),
        )

    games: Dict[Tuple[str, str], BimatrixGame] = {}
    for entry in doc.get("games", []):
        d = str(entry["doctor"])
        if model == ROOMMATES:
            other = str(entry["doctor2"])
            key = (d, other) if d < other else (other, d)
            if key != (d, other):
                raise MatchGamesError(f"roommates game ({d},{other}) must list the smaller id first")
        else:
            other = str(entry["hospital"])
            key = (d, other)
        games[key] = build_game(_read_matrix(entry["A"]), _read_matrix(entry["M"]),
                                str(entry["class"]))

    coalition_doctor_payoffs = {}
    coalition_hospital_payoffs = {}
    for entry in doc.get("coalitions", []):
        members = frozenset(str(x) for x in entry["doctors"])
        h = str(entry["hospital"])
        coalition_hospital_payoffs[(members, h)] = parse_rational(entry["hospital_payoff"])
        for did, value in entry["doctor_payoffs"].items():
            coalition_doctor_payoffs[(str(did), members, h)] = parse_rational(value)

    return MatchingGameInstance(
        model=model,
        doctors=doctors,
        hospitals=hospitals,
        games=games,
        coalition_doctor_payoffs=coalition_doctor_payoffs,
        coalition_hospital_payoffs=coalition_hospital_payoffs,
    )


@gc_paused
def serialize_instance(instance: MatchingGameInstance) -> dict:
    doc = {
        "model": instance.model,
        "doctors": [
            {"id": d.id, "irp": format_rational(d.irp), "strategies": list(d.strategies)}
            for d in instance.doctors.values()
        ],
    }
    if instance.model != ROOMMATES:
        doc["hospitals"] = [
            {
                "id": h.id,
                "irp": format_rational(h.irp),
                "quota": h.quota,
                "strategies": list(h.strategies),
            }
            for h in instance.hospitals.values()
        ]
    games = []
    for (d, other), game in sorted(instance.games.items()):
        entry = {
            "doctor": d,
            "doctor2" if instance.model == ROOMMATES else "hospital": other,
            "class": game.class_tag,
            "A": _matrix_texts(game.scaled[0]),
            "M": _matrix_texts(game.scaled[1]),
        }
        games.append(entry)
    doc["games"] = games
    if instance.model == GENERAL_ENUMERATED:
        coalitions = []
        for (members, h), gval in sorted(
            instance.coalition_hospital_payoffs.items(), key=lambda kv: (sorted(kv[0][0]), kv[0][1])
        ):
            coalitions.append(
                {
                    "doctors": sorted(members),
                    "hospital": h,
                    "hospital_payoff": format_rational(gval),
                    "doctor_payoffs": {
                        d: format_rational(instance.coalition_doctor_payoffs[(d, members, h)])
                        for d in sorted(members)
                    },
                }
            )
        doc["coalitions"] = coalitions
    return doc


# An integer's text, one object per value, shared by a document's equal entries.
_integer_text = lru_cache(maxsize=_LITERAL_CAP)(str)


def _matrix_texts(scaled: Scaled) -> List[List[str]]:
    """A matrix's document rows of canonical literals, from its integer form."""
    rows, den = scaled
    if den == 1:
        return [list(map(_integer_text, row)) for row in rows]
    return [[format_rational(Fraction(n, den)) for n in row] for row in rows]


def serialize_allocation(allocation: Allocation) -> dict:
    doc = {
        "matching": {d: p for d, p in sorted(allocation.matching.items())},
        "doctor_strategies": {
            d: [format_rational(w) for w in ws]
            for d, ws in sorted(allocation.doctor_strategies.items())
        },
        "hospital_strategies": {
            f"{h}|{d}": [format_rational(w) for w in ws]
            for (h, d), ws in sorted(allocation.hospital_strategies.items())
        },
    }
    if allocation.cycles:
        cycles = {}
        for (h, d), cyc in sorted(allocation.cycles.items()):
            entry = {"cycle": [[s, t] for s, t in cyc.cycle]}
            if cyc.punishment is not None:
                pun = {"punisher": cyc.punishment.punisher, "trigger": cyc.punishment.trigger}
                if cyc.punishment.doctor_strategy is not None:
                    pun["doctor_strategy"] = [format_rational(w) for w in cyc.punishment.doctor_strategy]
                if cyc.punishment.hospital_strategy is not None:
                    pun["hospital_strategy"] = [format_rational(w) for w in cyc.punishment.hospital_strategy]
                entry["punishment"] = pun
            cycles[f"{h}|{d}"] = entry
        doc["cycles"] = cycles
    return doc


def load_allocation(source: Union[str, dict]) -> Allocation:
    """An allocation document's matching, strategies and cycles.  A field of
    the wrong shape raises ``MalformedMatchingError`` (``MalformedCycleError``
    inside ``cycles``), naming the field or key."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    else:
        doc = source
    doc = _object(doc, "the allocation document", MalformedMatchingError)
    if "matching" not in doc:
        raise MalformedMatchingError("the allocation document has no matching")
    matching = {str(d): (str(p) if p is not None else None)
                for d, p in _object(doc["matching"], "matching", MalformedMatchingError).items()}
    doctor_strategies = {
        str(d): _strategy(ws, f"doctor_strategies {d}", MalformedMatchingError)
        for d, ws in _object(doc.get("doctor_strategies", {}), "doctor_strategies",
                             MalformedMatchingError).items()
    }
    hospital_strategies = {}
    for key, ws in _object(doc.get("hospital_strategies", {}), "hospital_strategies",
                           MalformedMatchingError).items():
        where = f"hospital_strategies {key}"
        hospital_strategies[_pair_key(key, where, MalformedMatchingError)] = _strategy(
            ws, where, MalformedMatchingError)
    cycles = {}
    for key, entry in _object(doc.get("cycles", {}), "cycles", MalformedCycleError).items():
        where = f"cycle {key}"
        entry = _object(entry, where, MalformedCycleError)
        punishment = None
        if "punishment" in entry:
            punishment = _punishment(entry["punishment"], f"{where} punishment")
        cycles[_pair_key(key, where, MalformedCycleError)] = CycleStrategy(
            cycle=_parse_cycle(entry.get("cycle"), key), punishment=punishment)
    return Allocation(
        matching=matching,
        doctor_strategies=doctor_strategies,
        hospital_strategies=hospital_strategies,
        cycles=cycles,
    )


def _object(value, where: str, error) -> dict:
    if not isinstance(value, dict):
        raise error(f"{where} is not a JSON object")
    return value


def _strategy(weights, where: str, error) -> Tuple[Fraction, ...]:
    if not isinstance(weights, list):
        raise error(f"{where} is not a list of rational literals")
    return tuple(parse_rational(w) for w in weights)


def _punishment(doc, where: str) -> CyclePunishment:
    doc = _object(doc, where, MalformedCycleError)
    if "punisher" not in doc:
        raise MalformedCycleError(f"{where} has no punisher")
    strategies = {side: _strategy(doc[side], f"{where} {side}", MalformedCycleError)
                  for side in ("doctor_strategy", "hospital_strategy") if side in doc}
    return CyclePunishment(punisher=doc["punisher"],
                           trigger=doc.get("trigger", "first_off_cycle_action"), **strategies)


def _pair_key(key: str, where: str, error) -> Tuple[str, str]:
    first, bar, second = key.partition("|")
    if not bar:
        raise error(f"{where}: the key has no '|' between its two ids")
    return first, second


def _parse_cycle(steps, key: str) -> Tuple[Tuple[int, int], ...]:
    """A document's cycle; its range is checked when the cycle is read."""
    if isinstance(steps, list) and all(
            isinstance(step, list) and len(step) == 2 and type(step[0]) is int
            and type(step[1]) is int for step in steps):
        return tuple(map(tuple, steps))
    raise MalformedCycleError(f"cycle {key} is not a list of [row, column] integer pairs")


# The document writer.  Every document is written as exactly the bytes of
# ``json.dumps(doc, indent=2, sort_keys=True) + "\n"``, without the stdlib's
# pure-Python indenting encoder and its one write per token: strings are
# escaped by the C ``encode_basestring_ascii``, a row of strings is one join,
# and the document goes out one piece per item of the top-level container,
# or of a top-level list, so no more than one such item is held as text.


class _Unwritable(Exception):
    """A value the writer leaves to the stdlib: a float, a non-str key, a
    type JSON has no form for, and so on."""


_CONTAINERS = (dict, list, tuple)


def _sorted_keys(doc: dict, nl: str) -> Tuple[list, list]:
    """(sorted keys, each key's text up to its value); non-str keys, which
    the stdlib converts or rejects, are left to it."""
    try:
        keys = sorted(doc)
        return keys, [f"{nl}{_quote(k)}: " for k in keys]
    except TypeError:
        raise _Unwritable from None


def _encode(value, nl: str) -> str:
    """``value``'s text at the nesting whose line break and indent is ``nl``."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = nl + "  "
        sep = "," + inner
        try:  # a row of strings, or a matrix of them, quoted in C
            if type(value[0]) is str:
                body = sep.join(map(_quote, value))
            else:
                body = sep.join([_str_row(row, inner) for row in value])
        except TypeError:
            body = sep.join([_encode(v, inner) for v in value])
        return f"[{inner}{body}{nl}]"
    if kind is dict:
        if not value:
            return "{}"
        inner = nl + "  "
        keys, heads = _sorted_keys(value, inner)
        body = ",".join([head + (_quote(v) if type(v) is str else _encode(v, inner))
                         for head, v in zip(heads, map(value.__getitem__, keys))])
        return f"{{{body}{nl}}}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is int:
        return int.__repr__(value)
    raise _Unwritable


def _str_row(row, nl: str) -> str:
    """A non-empty row of strings' text at ``nl``; TypeError for any other
    value."""
    if (type(row) is not list and type(row) is not tuple) or not row:
        raise TypeError
    inner = nl + "  "
    return f"[{inner}{f',{inner}'.join(map(_quote, row))}{nl}]"


def _pieces(value, nl: str, depth: int):
    """``value``'s text in pieces: a non-empty container less than ``depth``
    levels down one item at a time, anything deeper whole."""
    kind = type(value)
    if not depth or kind not in _CONTAINERS or not value:
        yield _encode(value, nl)
        return
    inner = nl + "  "
    if kind is dict:
        keys, heads = _sorted_keys(value, inner)
        items = zip(heads, map(value.__getitem__, keys))
        opener, closer = "{", nl + "}"
    else:
        items = ((inner, v) for v in value)
        opener, closer = "[", nl + "]"
    sep = opener
    for head, item in items:
        if depth > 1 and type(item) in _CONTAINERS and item:
            yield sep + head
            yield from _pieces(item, inner, depth - 1)
        else:
            yield sep + head + _encode(item, inner)
        sep = ","
    yield closer


def write_json(doc, fh):
    """Write ``doc`` to the text stream ``fh`` as exactly the bytes of
    ``json.dumps(doc, indent=2, sort_keys=True) + "\n"``.

    A value the writer does not know, or a nesting too deep for it, sends
    the whole document to the stdlib encoder, whose output then continues
    after the text already written: that text is the same prefix of it.
    So the stdlib also raises as it would for the document.
    """
    written = 0
    try:
        for piece in _pieces(doc, "\n", 2):
            fh.write(piece)
            written += len(piece)
    except (_Unwritable, RecursionError):
        for chunk in json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc):
            if written >= len(chunk):
                written -= len(chunk)
            else:
                fh.write(chunk[written:])
                written = 0
    fh.write("\n")


def dump_json(doc: dict, path: str):
    """Write a canonical JSON document (:func:`write_json`) to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        write_json(doc, fh)
