"""Zero-sum game values: closed forms where a kernel certifies them, and
one exact simplex tableau otherwise.

A game value is a closed form when a 1 x 1 or 2 x 2 kernel certifies the
game's unique optimum.  Every other game is one LP (Dantzig, 1951): with
the game as integers K over a scale, shifted to K' = K + (1 - min K) >= 1,
max sum(q) s.t. K'q <= 1, q >= 0 starts feasible at the slack basis, y* is
q / sum(q), x* is the dual (the slacks' reduced costs) over its sum, and
the value is 1 / sum(q), shifted back.  The tableau is pivoted
fraction-free (Edmonds 1967; Bareiss 1968): its entries are integers over
one positive common denominator, the basis determinant, and every pivot
divides exactly.  Only the answer is built in :class:`fractions.Fraction`.
Bland's rule makes the pivot sequence deterministic and cycle-free, and it
is the sequence a Fraction tableau takes.  Every answer, kernel or LP, is
then checked against the saddle property on integers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import List, Optional, Tuple

from .core import _integer_weights, pure
from .errors import GameValueCertificateError, MatchGamesError


def game_value(k: List[List[int]], scale: int) -> Tuple[Fraction, Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """Value and optimal strategies of the zero-sum game on the matrix
    ``k`` / ``scale``, a matrix's integer form as a game stores it
    (``BimatrixGame.scaled``).

    The row player maximises x.A.y, the column player minimises.  Returns
    (w, x*, y*) satisfying the saddle property min_t x*.A.t = w = max_s s.A.y*.
    A game whose unique optimum a 1 x 1 or 2 x 2 kernel certifies
    (:func:`_kernel_solution`) is answered in closed form; every other game
    solves one LP (:func:`solve_lp`).  Either answer must pass
    :func:`_certify_saddle`.
    """
    solved = _kernel_solution(k, scale) or solve_lp(k, scale)
    _certify_saddle(k, scale, *solved)
    return solved


def solve_lp(k: List[List[int]], scale: int) -> tuple:
    """(value, x*, y*) of the zero-sum game ``k`` / ``scale`` from one
    tableau: max sum(q) s.t. K'q <= 1, q >= 0, for K' = k + shift >= 1.

    Columns 0..n-1 are q and n..n+m-1 the slacks, whose basis starts
    feasible with d = 1.  At the optimum the cost row holds -d times the
    duals p on the slack columns and -d sum(q) = -d sum(p) at its end; so
    y* = q / sum(q) and x* = p / sum(p) are entries over ``total`` =
    d sum(q), and the value 1 / sum(q) - shift of k is (d - shift total) /
    total.
    """
    n_rows, n_cols = len(k), len(k[0])
    shift = 1 - min(map(min, k))
    width = n_cols + n_rows
    table = []
    for i, row in enumerate(k):
        line = [v + shift for v in row] + [0] * (n_rows + 1)
        line[n_cols + i] = line[-1] = 1
        table.append(line)
    basis = list(range(n_cols, width))
    cost = [1] * n_cols + [0] * (n_rows + 1)
    d = _pivot_until_optimal(table, cost, basis)

    total = -cost[-1]
    y = [Fraction(0)] * n_cols
    for i, b in enumerate(basis):
        if b < n_cols:
            y[b] = Fraction(table[i][-1], total)
    x = tuple(Fraction(-c, total) for c in cost[n_cols:width])
    return Fraction(d - shift * total, total * scale), x, tuple(y)


def _pivot_until_optimal(table, cost, basis):
    """Pivot by Bland's rule from determinant 1 until no reduced cost is
    positive; the final determinant.  The cost row is kept fraction-free
    with the table."""
    width, d = len(cost) - 1, 1
    while True:
        pivot_col = next((j for j in range(width) if cost[j] > 0), None)
        if pivot_col is None:
            return d
        pivot_row = None
        for i, line in enumerate(table):
            v = line[pivot_col]
            if v > 0:
                if pivot_row is None:
                    pivot_row, num, den = i, line[-1], v
                    continue
                # line[-1] / v against num / den, both denominators positive.
                left, right = line[-1] * den, num * v
                if left < right or (left == right and basis[i] < basis[pivot_row]):
                    pivot_row, num, den = i, line[-1], v
        if pivot_row is None:
            # Unreachable: K' > 0 bounds every q_j by 1, so the LP is bounded.
            raise MatchGamesError("the game LP is unbounded, although every entry of K' is positive")
        line = table[pivot_row]
        p, f = line[pivot_col], cost[pivot_col]
        cost[:] = [(p * a - f * b) // d for a, b in zip(cost, line)]
        d = _pivot(table, basis, pivot_row, pivot_col, d)


def _pivot(table, basis, row, col, d):
    """Pivot the fraction-free tableau on (row, col), whose entry p is
    positive: each other row becomes (p * row - row[col] * pivot row) / d,
    an exact division.  Returns the new determinant p."""
    line = table[row]
    p = line[col]
    for i, other in enumerate(table):
        if i == row:
            continue
        f = other[col]
        if f:
            table[i] = [(p * a - f * b) // d for a, b in zip(other, line)]
        elif p != d:
            table[i] = [p * a // d for a in other]
    basis[row] = col
    return p


def _certify_saddle(k, scale, w, x, y):
    """Raise :class:`GameValueCertificateError` unless x and y are
    probability vectors and max_s A_s.y = w = min_t x.A^t, for A the integer
    matrix ``k`` over ``scale``.  Decided on integers, with no simplex or
    kernel code: each side's payoffs are integer dot products over one
    common denominator, compared with w by cross products."""
    (xs, xd), (ys, yd) = _integer_weights(x), _integer_weights(y)
    for name, nums, den, size in (("x*", xs, xd, len(k)), ("y*", ys, yd, len(k[0]))):
        if len(nums) != size or min(nums) < 0 or sum(nums) != den:
            raise GameValueCertificateError(f"game value strategy {name} is not a probability vector")
    wn, wd = w.as_integer_ratio()
    best_row = max(sum(v * q for v, q in zip(row, ys)) for row in k)
    if best_row * wd != wn * scale * yd:
        raise GameValueCertificateError(f"the best row against y* does not pay the game value {w}")
    worst_col = min(sum(p * v for p, v in zip(xs, col)) for col in zip(*k))
    if worst_col * wd != wn * scale * xd:
        raise GameValueCertificateError(f"the best column against x* does not hold the game value {w}")


def _kernel_solution(k, scale: int) -> Optional[tuple]:
    """(value, x*, y*) when a square kernel of size 1 or 2 certifies the
    game's unique optimum, else None (Shapley and Snow, 1950).

    ``k`` is the matrix as integers over the lcm ``scale`` of its
    denominators.  Kernels are tried by size, then rows i1 < i2 and columns
    j1 < j2 in lexicographic order.  A kernel (rows I, columns J) certifies when its
    equalising strategies x on I and y on J are strictly positive and every
    row outside I pays strictly less than the kernel value v against y, and
    every column outside J strictly more against x:

    * size 1, entry p: p is strictly below the rest of its row and strictly
      above the rest of its column (a strict saddle point);
    * size 2, entries p q / r s with d = p + s - q - r != 0:
      x = (s - r, p - q) / d, y = (s - q, p - r) / d and v = (ps - qr) / d.

    Then (x, y) is a saddle point, and it is the only one: by complementary
    slackness any optimal y' lives on J and equalises the rows of I (and
    likewise any x'), and that bordered system is nonsingular (for size 2 its
    determinant is d).  So the answer is exactly the simplex's, and the test
    is its own certificate.  The search costs O(m^2 n^2 (m + n)).
    """
    n_rows, n_cols = len(k), len(k[0])
    for i, row in enumerate(k):
        lo = min(row)
        if row.count(lo) != 1:
            continue
        j = row.index(lo)
        if all(other[j] < lo for s, other in enumerate(k) if s != i):
            return Fraction(lo, scale), pure(i, n_rows), pure(j, n_cols)

    for i1, i2 in combinations(range(n_rows), 2):
        row1, row2 = k[i1], k[i2]
        for j1, j2 in combinations(range(n_cols), 2):
            p, q, r, s = row1[j1], row1[j2], row2[j1], row2[j2]
            d = p + s - q - r
            if d == 0:
                continue
            sign = 1 if d > 0 else -1
            # x, y and v over the common positive denominator |d|.
            x1, x2, y1, y2 = sign * (s - r), sign * (p - q), sign * (s - q), sign * (p - r)
            if x1 <= 0 or x2 <= 0 or y1 <= 0 or y2 <= 0:
                continue
            v = sign * (p * s - q * r)
            if any(other[j1] * y1 + other[j2] * y2 >= v
                   for t, other in enumerate(k) if t != i1 and t != i2):
                continue
            if any(row1[t] * x1 + row2[t] * x2 <= v
                   for t in range(n_cols) if t != j1 and t != j2):
                continue
            den = sign * d
            x = [Fraction(0)] * n_rows
            x[i1], x[i2] = Fraction(x1, den), Fraction(x2, den)
            y = [Fraction(0)] * n_cols
            y[j1], y[j2] = Fraction(y1, den), Fraction(y2, den)
            return Fraction(v, den * scale), tuple(x), tuple(y)
    return None
