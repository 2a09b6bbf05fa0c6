"""Structured solvers for max{xAy | xMy >= c} over simplex pairs.

The general problem is NP-hard, but each supported game class reduces it:

* zero-sum: value is min(c', max A) for the sign-normalised bound c', and a
  solution always exists with one side pure and the other of support <= 2,
  built from a straddling row or column by a one-line convex combination;
* repeated (uniform) games: a linear program over joint distributions on
  S x T, realised exactly as a finite cycle of pure profiles via the lcm of
  the distribution's denominators;
* strictly competitive: -M is a positive affine image of A, so the payoffs
  lie on one line, as a zero-sum pair's do; values are read off that
  segment, and a witness is built on A as for a zero-sum pair, since its
  construction only compares entries with the target and mixes two of them,
  which a positive affine change of units leaves unchanged.

The grid oracle that cross-checks all of them (an exact scan over a rational
grid, approximate by construction and never authoritative) lives in
``tests/oracles.py``; ``simplex_grid`` here enumerates its grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, NamedTuple, Optional, Tuple

from .core import (  # affine_transform is re-exported
    BimatrixGame,
    CycleStrategy,
    Matrix,
    affine_transform,
    matrix_max,
    pure,
)
from .errors import InfeasibleError, MatchGamesError
from .lp import EQ, GE, OPTIMAL, LinearProgram, solve_lp


def _two_point_mix(lo_idx, hi_idx, lo_val, hi_val, target, size):
    """Mixed strategy on {lo_idx, hi_idx} hitting ``target`` between the values."""
    if lo_val == hi_val:
        return pure(lo_idx, size)
    lam = (target - lo_val) / (hi_val - lo_val)  # weight on the high entry
    weights = [Fraction(0)] * size
    weights[lo_idx] += 1 - lam
    weights[hi_idx] += lam
    return tuple(weights)


def achieve_value_zero_sum(a: Matrix, target: Fraction) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...], str]:
    """Profile with x.A.y == target, one side pure, other support <= 2.

    Requires min A <= target <= max A.  Prefers the pure-row construction and
    scans indices in order, so the output is deterministic.
    """
    n_rows, n_cols = len(a), len(a[0])
    for s in range(n_rows):
        row = a[s]
        lo = next((t for t in range(n_cols) if row[t] <= target), None)
        hi = next((t for t in range(n_cols) if row[t] >= target), None)
        if lo is not None and hi is not None:
            y = _two_point_mix(lo, hi, row[lo], row[hi], target, n_cols)
            return pure(s, n_rows), y, "pure_row"
    for t in range(n_cols):
        col = [a[s][t] for s in range(n_rows)]
        lo = next((s for s in range(n_rows) if col[s] <= target), None)
        hi = next((s for s in range(n_rows) if col[s] >= target), None)
        if lo is not None and hi is not None:
            x = _two_point_mix(lo, hi, col[lo], col[hi], target, n_rows)
            return x, pure(t, n_cols), "pure_column"
    raise MatchGamesError("target outside the attainable payoff interval")


LambdaDistribution = Dict[Tuple[int, int], Fraction]


def solve_qcqp_repeated(a: Matrix, m: Matrix, c: Fraction):
    """max over joint distributions of the A-average subject to M-average >= c.

    Returns ``(lambda, (f, g))`` where ``lambda`` maps pure profiles to
    weights.  Infeasible when c > max M.
    """
    m_max = matrix_max(m)
    if c > m_max:
        raise InfeasibleError(f"M-average >= {c} unattainable (max M = {m_max})")
    lam, values = _hull_lp(a, m, objective=("max_f",), f_floor=None, g_floor=c)
    return lam, values


def _hull_lp(a: Matrix, m: Matrix, objective, f_floor=None, g_floor=None,
             f_exact=None, g_exact=None):
    """LP over joint distributions with the given side constraints.

    ``objective`` is a tuple of passes applied lexicographically, each one of
    "max_f", "max_g", "max_sum".  Returns (lambda, (f, g)) or raises
    InfeasibleError.
    """
    n_rows, n_cols = len(a), len(a[0])
    cells = [(s, t) for s in range(n_rows) for t in range(n_cols)]
    n = len(cells)
    a_coeffs = [a[s][t] for s, t in cells]
    m_coeffs = [m[s][t] for s, t in cells]

    constraints = [( [Fraction(1)] * n, EQ, Fraction(1) )]
    if f_floor is not None:
        constraints.append((a_coeffs, GE, f_floor))
    if g_floor is not None:
        constraints.append((m_coeffs, GE, g_floor))
    if f_exact is not None:
        constraints.append((a_coeffs, EQ, f_exact))
    if g_exact is not None:
        constraints.append((m_coeffs, EQ, g_exact))

    extra: list = []
    for pass_name in objective:
        if pass_name == "max_f":
            obj = a_coeffs
        elif pass_name == "max_g":
            obj = m_coeffs
        elif pass_name == "max_sum":
            obj = [fa + fm for fa, fm in zip(a_coeffs, m_coeffs)]
        else:
            raise MatchGamesError(f"unknown objective pass {pass_name!r}")
        lp = LinearProgram(objective=obj, sense="max")
        for row in constraints + extra:
            lp.add(*row)
        result = solve_lp(lp)
        if result.status != OPTIMAL:
            raise InfeasibleError("empty feasible payoff region")
        extra.append((obj, EQ, result.value))
    lam_list = result.solution
    lam = {cell: w for cell, w in zip(cells, lam_list) if w != 0}
    f_val = sum(a[s][t] * w for (s, t), w in lam.items())
    g_val = sum(m[s][t] * w for (s, t), w in lam.items())
    return lam, (Fraction(f_val), Fraction(g_val))


def distribution_to_cycle(lam: LambdaDistribution, a: Matrix, m: Matrix) -> CycleStrategy:
    """Finite cycle whose long-run average equals the distribution's payoffs.

    Cycle length is the lcm of the weights' denominators; profile (s, t) is
    visited exactly ``N * lambda[s,t]`` times, in row-major order.
    """
    total = sum(lam.values(), Fraction(0))
    if total != 1:
        raise MatchGamesError("distribution weights must sum to 1")
    n = 1
    for w in lam.values():
        n = n * w.denominator // math.gcd(n, w.denominator)
    steps = []
    for (s, t) in sorted(lam):
        count = lam[(s, t)] * n
        steps.extend([(s, t)] * int(count))
    return CycleStrategy(cycle=tuple(steps))


# ---------------------------------------------------------------------------
# Frontier queries (original payoff units throughout)
#
# Every question about a couple's frontier, from DAC, the renegotiation
# ledger and CNE audits, the stability oracles and roommates, is asked here.
# Each query first prices the option by value alone from the game's cached
# frontier (``BimatrixGame.frontier``), then, only when the caller asks for
# it, builds a witness profile realising that value.  A one-shot pair's
# payoff set is one segment, from (a_min, m_max) to (a_max, m_min) on the
# line r * g == p - q * f (``core.Segment``), kept in integers: its queries
# compare integer cross products against the endpoints, and a floor that
# binds is paid exactly.  The value queries ``max_f_value`` and
# ``max_g_value`` return the answer as an integer (numerator, denominator)
# pair and build no Fraction, so callers that rank many options compare
# them as integer ratios; the point queries build on them and make at most
# one Fraction per answer.  Repeated pairs query the payoff hull by LP; each
# answer is kept on the game, so a value query and the point query that
# follows it share one LP.  A one-shot witness hits the doctor's payoff f
# on A, by ``achieve_value_zero_sum``.


@dataclass
class PairOutcome:
    """One feasible point of a couple's constrained frontier."""

    f: Fraction
    g: Fraction
    x: Optional[Tuple[Fraction, ...]] = None
    y: Optional[Tuple[Fraction, ...]] = None
    cycle: Optional[CycleStrategy] = None


class FrontierPoint(NamedTuple):
    """A frontier query's exact payoffs, before any witness is built.

    ``lam`` is the hull distribution that a repeated-pair cycle realises.
    """

    f: Fraction
    g: Fraction
    lam: Optional[LambdaDistribution] = None


def max_f_value(game: BimatrixGame, theta: Fraction,
                strict: bool = False) -> Optional[Tuple[int, int]]:
    """The doctor payoff of :func:`max_f_point` as a (numerator,
    denominator) pair with a positive denominator, not always in lowest
    terms, or None when the floor is out of reach.

    A one-shot game answers on its integer segment and builds no Fraction;
    a slack floor's answer is the segment's own ``a_max`` pair.
    """
    seg = game.frontier.segment
    if seg is None:
        point = _hull_point(game, "max_f", theta, strict)
        return None if point is None else point.f.as_integer_ratio()
    tn, td = theta.as_integer_ratio()
    _, a_max, (lo_n, lo_d), (hi_n, hi_d), p, q, r = seg
    over = tn * hi_d - hi_n * td  # the sign of theta - m_max
    if over > 0 or (strict and over == 0):
        return None
    if tn * lo_d <= lo_n * td:  # a slack floor: the doctor's best payoff
        return a_max
    return p * td - r * tn, q * td


def max_g_value(game: BimatrixGame, beta: Fraction,
                strict: bool = False) -> Optional[Tuple[int, int]]:
    """The partner payoff of :func:`max_g_point` as :func:`max_f_value`
    gives the doctor's; a slack floor's answer is the segment's ``m_max``."""
    seg = game.frontier.segment
    if seg is None:
        point = _hull_point(game, "max_g", beta, strict)
        return None if point is None else point.g.as_integer_ratio()
    bn, bd = beta.as_integer_ratio()
    (lo_n, lo_d), (hi_n, hi_d), _, m_max, p, q, r = seg
    over = bn * hi_d - hi_n * bd  # the sign of beta - a_max
    if over > 0 or (strict and over == 0):
        return None
    if bn * lo_d <= lo_n * bd:  # a slack floor: the partner's best payoff
        return m_max
    return p * bd - q * bn, r * bd


def max_f_point(game: BimatrixGame, theta: Fraction,
                strict: bool = False) -> Optional[FrontierPoint]:
    """Value of :func:`max_f_given_g_floor` without a witness profile."""
    fr = game.frontier
    if fr.segment is None:
        return _hull_point(game, "max_f", theta, strict)
    value = max_f_value(game, theta, strict)
    if value is None:
        return None
    if value is fr.segment.a_max:  # a slack floor, answered by the stored pair
        return FrontierPoint(fr.a_max, fr.m_min)
    return FrontierPoint(Fraction(*value), theta)


def max_g_point(game: BimatrixGame, beta: Fraction,
                strict: bool = False) -> Optional[FrontierPoint]:
    """Value of :func:`max_g_given_f_floor` without a witness profile."""
    fr = game.frontier
    if fr.segment is None:
        return _hull_point(game, "max_g", beta, strict)
    value = max_g_value(game, beta, strict)
    if value is None:
        return None
    if value is fr.segment.m_max:  # a slack floor, answered by the stored pair
        return FrontierPoint(fr.a_min, fr.m_max)
    return FrontierPoint(beta, Fraction(*value))


def _hull_point(game: BimatrixGame, objective: str, floor: Fraction,
                strict: bool) -> Optional[FrontierPoint]:
    """:func:`max_f_point` ("max_f", a floor on g) or :func:`max_g_point`
    ("max_g", a floor on f) of a repeated game, on its payoff hull.

    Each LP answer is kept on the game by (objective, floor)
    (``BimatrixGame.hull_answers``), so a value query and the point query
    that follows it, such as a DAC proposal's, share one LP.  Callers only
    read the point's distribution.
    """
    fr = game.frontier
    top = fr.m_max if objective == "max_f" else fr.a_max
    if floor > top or (strict and floor == top):
        return None
    answers = game.hull_answers
    point = answers.get((objective, floor))
    if point is None:
        side = {"g_floor": floor} if objective == "max_f" else {"f_floor": floor}
        lam, (f, g) = _hull_lp(game.doctor_matrix, game.hospital_matrix,
                               objective=(objective,), **side)
        point = answers[(objective, floor)] = FrontierPoint(f, g, lam)
    return point


def exact_point(game: BimatrixGame, f: Fraction, g: Fraction) -> Optional[FrontierPoint]:
    """The point paying the doctor exactly ``f`` and the partner exactly
    ``g``, or None when no profile of ``game`` does."""
    seg = game.frontier.segment
    if seg is None:
        try:
            lam, _ = _hull_lp(game.doctor_matrix, game.hospital_matrix,
                              objective=("max_f",), f_exact=f, g_exact=g)
        except InfeasibleError:
            return None
        return FrontierPoint(f, g, lam)
    fn, fd = f.as_integer_ratio()
    gn, gd = g.as_integer_ratio()
    (lo_n, lo_d), (hi_n, hi_d), _, _, p, q, r = seg
    if lo_n * fd <= fn * lo_d and fn * hi_d <= hi_n * fd and r * gn * fd == (p * fd - q * fn) * gd:
        return FrontierPoint(f, g)
    return None


def pays_above(game: BimatrixGame, f_floor: Fraction, g_floor: Fraction) -> bool:
    """Whether some profile of a one-shot ``game`` pays the doctor more than
    ``f_floor`` and the partner more than ``g_floor``.

    Such a profile pays f in (f_floor, f_cap), where the line pays exactly
    g_floor at f_cap; that interval meets [a_min, a_max] iff f_floor < a_max,
    g_floor < m_max (so f_cap > a_min) and f_floor < f_cap.
    """
    fn, fd = f_floor.as_integer_ratio()
    gn, gd = g_floor.as_integer_ratio()
    _, (af_n, af_d), _, (mg_n, mg_d), p, q, r = game.frontier.segment
    return (fn * af_d < af_n * fd and gn * mg_d < mg_n * gd
            and q * fn * gd + r * gn * fd < p * fd * gd)


def frontier_witness(game: BimatrixGame, point: FrontierPoint) -> PairOutcome:
    """A profile of ``game`` paying exactly the point's payoffs."""
    if point.lam is not None:
        cycle = distribution_to_cycle(point.lam, game.doctor_matrix, game.hospital_matrix)
        return PairOutcome(f=point.f, g=point.g, cycle=cycle)
    x, y, _ = achieve_value_zero_sum(game.doctor_matrix, point.f)
    return PairOutcome(f=point.f, g=point.g, x=x, y=y)


def max_f_given_g_floor(game: BimatrixGame, theta: Fraction,
                        strict: bool = False) -> Optional[PairOutcome]:
    """Best doctor payoff while giving the partner at least ``theta``.

    Returns None when the floor is unattainable in the pair's game.  With
    ``strict`` the partner must be strictly above the floor: the supremum
    value is unchanged where the open set is non-empty, but boundary-only
    options (partner floor equal to her best attainable payoff) disappear.
    """
    point = max_f_point(game, theta, strict)
    return None if point is None else frontier_witness(game, point)


def max_g_given_f_floor(game: BimatrixGame, beta: Fraction,
                        strict: bool = False) -> Optional[PairOutcome]:
    """Best partner payoff while granting the doctor at least ``beta``.

    ``strict`` demands the doctor strictly above the floor; the supremum is
    reported (for the one-shot classes the witness profile then sits at the
    closed boundary, arbitrarily approachable from the strict side).
    """
    point = max_g_point(game, beta, strict)
    return None if point is None else frontier_witness(game, point)


# ---------------------------------------------------------------------------
# Rational grids (approximate scans, never authoritative)


def simplex_grid(size: int, resolution: int):
    """All rational grid points of the simplex with denominators ``resolution``."""
    if size == 1:
        yield (Fraction(1),)
        return
    for split in _compositions(resolution, size):
        yield tuple(Fraction(k, resolution) for k in split)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail
