"""Structured solvers for max{xAy | xMy >= c} over simplex pairs.

The general problem is NP-hard, but each supported game class reduces it:

* zero-sum: value is min(c', max A) for the sign-normalised bound c', and a
  solution always exists with one side pure and the other of support <= 2,
  built from a straddling row or column by a one-line convex combination;
* repeated (uniform) games: joint distributions on S x T pay the convex
  polygon of the stage payoff pairs; each answer is a lexicographic maximum
  over the polygon clipped by floors or exact values, realised on at most
  three cells and played as a cycle via the lcm of their denominators;
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
from operator import itemgetter
from typing import Dict, NamedTuple, Optional, Tuple

from .core import (  # affine_transform is re-exported
    REPEATED,
    BimatrixGame,
    CycleStrategy,
    Frontier,
    Matrix,
    _cross,
    affine_transform,
    pure,
)
from .errors import InfeasibleError, MatchGamesError


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
    weights; among the maximisers of f it takes the one with the largest g.
    Infeasible when c > max M.
    """
    fr = BimatrixGame(a, m, REPEATED).frontier
    point = hull_point(fr, by_f, g_floor=c)
    if point is None:
        raise InfeasibleError(f"M-average >= {c} unattainable (max M = {fr.m_max})")
    return point.lam, (point.f, point.g)


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
# one Fraction per answer.  A repeated pair's questions are each one
# clip-and-pick on its polygon ``Frontier.hull`` (:func:`hull_point`).  A
# one-shot witness hits the doctor's payoff f on A, by
# ``achieve_value_zero_sum``; a repeated one cycles through the answer's cells.


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

    ``lam`` is the hull distribution, on at most three cells, that a
    repeated-pair cycle realises.
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
        point = max_f_point(game, theta, strict)
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
        point = max_g_point(game, beta, strict)
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
    if fr.segment is None:  # a strict floor at the top admits no point
        return None if strict and theta == fr.m_max else hull_point(fr, by_f, g_floor=theta)
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
        return None if strict and beta == fr.a_max else hull_point(fr, by_g, f_floor=beta)
    value = max_g_value(game, beta, strict)
    if value is None:
        return None
    if value is fr.segment.m_max:  # a slack floor, answered by the stored pair
        return FrontierPoint(fr.a_min, fr.m_max)
    return FrontierPoint(beta, Fraction(*value))


# Lexicographic keys of a payoff point (f, g) for :func:`hull_point`.
by_f = itemgetter(0, 1)  # f, then g
by_g = itemgetter(1, 0)  # g, then f


def by_sum(point):
    """f + g, then f."""
    return point[0] + point[1], point[0]


def hull_point(fr: Frontier, key, f_floor=None, g_floor=None, f_exact=None,
               g_exact=None) -> Optional[FrontierPoint]:
    """The lexicographic maximum of ``key``, linear in each place and so
    taken at a vertex, over a repeated game's payoff polygon clipped by the
    floors and exact values given; None when the clipped polygon is empty.
    Only the answer gets a distribution (:func:`_hull_distribution`)."""
    poly = [v[:2] for v in fr.hull]
    for axis, floor, exact in ((0, f_floor, f_exact), (1, g_floor, g_exact)):
        if floor is not None:
            poly = _clip(poly, axis, 1, floor)
        if exact is not None:
            poly = _clip(_clip(poly, axis, 1, exact), axis, -1, -exact)
    if not poly:
        return None
    f, g = max(poly, key=key)
    return FrontierPoint(f, g, _hull_distribution(fr.hull, (f, g)))


def _clip(poly, axis, sign, bound):
    """The part of a convex polygon (a vertex cycle, or a segment's two ends
    or one point) where ``sign * point[axis] >= bound``, by Sutherland and
    Hodgman: keep each vertex on that side and each edge's crossing."""
    out = []
    for prev, cur in zip(poly[-1:] + poly[:-1], poly):
        dp, dc = sign * prev[axis] - bound, sign * cur[axis] - bound
        if dp * dc < 0:
            t = dp / (dp - dc)
            out.append((prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1])))
        if dc >= 0:
            out.append(cur)
    return out


def _hull_distribution(hull, p) -> LambdaDistribution:
    """Weights on at most three vertices' cells that pay ``p``, a point of
    the hull (Carathéodory in the plane): on the triangle of the fan from
    vertex 0 that holds it, or on a degenerate hull's segment or point."""
    v0, *rest = hull
    if not rest:
        return {v0[2]: Fraction(1)}
    if len(rest) == 1:  # v0 + t * (v1 - v0), read on an axis where the ends differ
        v1, axis = rest[0], int(rest[0][0] == v0[0])
        t = (p[axis] - v0[axis]) / (v1[axis] - v0[axis])
        weights = ((v0, 1 - t), (v1, t))
    else:
        for v1, v2 in zip(rest, rest[1:]):
            if _cross(v0, v2, p) <= 0:  # p lies in the wedge from v0 between v1 and v2
                break
        area = _cross(v0, v1, v2)
        weights = ((v0, _cross(v1, v2, p) / area), (v1, _cross(v2, v0, p) / area),
                   (v2, _cross(v0, v1, p) / area))
    return dict(sorted((v[2], w) for v, w in weights if w))  # cells in row-major order


def exact_point(game: BimatrixGame, f: Fraction, g: Fraction) -> Optional[FrontierPoint]:
    """The point paying the doctor exactly ``f`` and the partner exactly
    ``g``, or None when no profile of ``game`` does."""
    fr = game.frontier
    if fr.segment is None:
        return hull_point(fr, by_f, f_exact=f, g_exact=g)
    fn, fd = f.as_integer_ratio()
    gn, gd = g.as_integer_ratio()
    (lo_n, lo_d), (hi_n, hi_d), _, _, p, q, r = fr.segment
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
