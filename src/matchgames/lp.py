"""Exact rational linear programming via a two-phase simplex, and zero-sum
game values.

Desk-scale problems only (tens of variables).  Each constraint row is scaled
to integers, and the tableau is pivoted fraction-free (Edmonds 1967;
Bareiss 1968): its entries are integers over one positive common
denominator, the basis determinant, and every pivot divides exactly.  Only
the answer is built in :class:`fractions.Fraction`.  Bland's rule makes the
pivot sequence deterministic and cycle-free, and it is the sequence a
Fraction tableau takes.

A game value is a closed form when a 1 x 1 or 2 x 2 kernel certifies the
game's unique optimum, and two LPs otherwise; every answer is then checked
against the saddle property on integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import FrozenSet, List, Optional, Sequence, Tuple

from .core import Matrix, _integer_matrix, _integer_weights, pure
from .errors import GameValueCertificateError, MatchGamesError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

LE, EQ, GE = "<=", "==", ">="


@dataclass
class LinearProgram:
    """max/min c.x subject to rows (coeffs, relation, rhs) and x >= 0,
    except for the variables indexed in ``free``, which are unbounded
    (internally split into a difference of two nonnegatives).
    """

    objective: Sequence[Fraction]
    sense: str = "max"
    constraints: List[Tuple[Sequence[Fraction], str, Fraction]] = field(default_factory=list)
    free: FrozenSet[int] = frozenset()

    def add(self, coeffs: Sequence[Fraction], relation: str, rhs: Fraction):
        if len(coeffs) != len(self.objective):
            raise MatchGamesError("constraint row length does not match variable count")
        if relation not in (LE, EQ, GE):
            raise MatchGamesError(f"unknown relation {relation!r}")
        self.constraints.append((tuple(coeffs), relation, Fraction(rhs)))


@dataclass
class LpResult:
    status: str
    value: Optional[Fraction] = None
    solution: Optional[Tuple[Fraction, ...]] = None


def solve_lp(program: LinearProgram) -> LpResult:
    """Solve exactly; deterministic for a fixed instance."""
    n, free = len(program.objective), program.free
    if not all(0 <= i < n for i in free):
        raise MatchGamesError("free variable index outside the variable count")

    # Original variable i is internal column base[i], less base[i] + 1 if free.
    base: List[int] = []
    n_internal = 0
    for i in range(n):
        base.append(n_internal)
        n_internal += 2 if i in free else 1

    def expand(coeffs: Sequence[Fraction], rhs=0) -> Tuple[List[int], int]:
        """The row over internal variables followed by ``rhs``, as integer
        numerators over the lcm of their denominators, and that lcm."""
        ratios = [c.as_integer_ratio() for c in coeffs]
        rn, rd = rhs.as_integer_ratio()
        scale = lcm(rd, *(d for _, d in ratios))
        row = [0] * (n_internal + 1)
        for i, (p, q) in enumerate(ratios):
            if p:
                p *= scale // q
                row[base[i]] += p
                if i in free:
                    row[base[i] + 1] -= p
        row[-1] = rn * (scale // rd)
        return row, scale

    sign = {"max": 1, "min": -1}.get(program.sense)
    if sign is None:
        raise MatchGamesError(f"unknown sense {program.sense!r}: expected 'max' or 'min'")
    objective, scale = expand([sign * c for c in program.objective])
    rows = [(*expand(coeffs, rhs), relation) for coeffs, relation, rhs in program.constraints]

    status, internal_solution, value = _simplex_standard(objective[:-1], scale, rows)
    if status != OPTIMAL:
        return LpResult(status=status)

    solution = tuple(
        internal_solution[b] - internal_solution[b + 1] if i in free else internal_solution[b]
        for i, b in enumerate(base))
    return LpResult(status=OPTIMAL, value=sign * value, solution=solution)


def _simplex_standard(objective: List[int], scale: int, rows):
    """max (objective / scale).z s.t. rows, z >= 0, by a two-phase tableau
    simplex on integers.

    Each row is (integer coefficients followed by the rhs, the positive
    integer they were scaled by, relation): the rational row times it.  The
    tableau is kept fraction-free (Edmonds; Bareiss): every stored entry is
    d times the rational tableau's, with d > 0 the basis determinant's
    absolute value, so a pivot on (r, c) with entry p > 0 sets each other
    row to (p * row - row[c] * pivot row) / d, which divides exactly, and d
    to p.  The cost row is kept the same way, over d times a fixed scale.

    The pivots are those of the rational tableau: its reduced costs, ratios
    and nonzero entries have the signs and order of these.  A row may be
    scaled by a positive integer, and a slack or artificial column too, as
    neither changes which column enters (Bland: the lowest one whose reduced
    cost is positive), which row leaves (the least ratio, ties to the lower
    basis index), or any original variable's value.
    """
    n = len(objective)
    # Normalise to equalities with slack/surplus columns and nonnegative rhs.
    slack_count = sum(1 for _, _, rel in rows if rel != EQ)
    m = len(rows)
    total = n + slack_count
    art_base = total
    width = total + m
    table: List[List[int]] = []
    slack_idx = 0
    for i, (row, _, rel) in enumerate(rows):
        line = row[:-1] + [0] * (slack_count + m) + row[-1:]
        if rel != EQ:
            line[n + slack_idx] = 1 if rel == LE else -1
            slack_idx += 1
        if line[-1] < 0:
            line = [-v for v in line]
        line[art_base + i] = 1
        table.append(line)
    basis = list(range(art_base, width))

    # Phase 1: max -(sum of artificials).  Row i, scaled by L_i, keeps a unit
    # artificial, which is L_i times the rational one, so the objective
    # weighs it 1/L_i.  The reduced costs on the artificial basis are then
    # the rational column sums, stored over the lcm of the row scales.
    common = lcm(*(row_scale for _, row_scale, _ in rows))
    cost = [0] * (width + 1)
    for line, (_, row_scale, _) in zip(table, rows):
        weight = common // row_scale
        cost = [c + weight * v for c, v in zip(cost, line)]
    for j in range(art_base, width):
        cost[j] = 0

    d = _pivot_until_optimal(table, cost, basis, width, 1)
    if cost[-1] != 0:
        return INFEASIBLE, None, None

    # Drive any artificial variables out of the basis.
    for i in range(m):
        if basis[i] >= art_base:
            pivot_col = next((j for j in range(total) if table[i][j] != 0), None)
            if pivot_col is None:
                continue  # redundant row
            d = _pivot(table, basis, i, pivot_col, d)

    # Phase 2 on the original columns; the artificial ones are dropped.
    table[:] = [line[:total] + line[-1:] for line in table]
    cost = [d * c for c in objective] + [0] * (total - n + 1)
    # Price out basic columns.
    for i, b in enumerate(basis):
        if b < n and objective[b] != 0:
            coef = objective[b]
            cost = [c - coef * v for c, v in zip(cost, table[i])]
    d = _pivot_until_optimal(table, cost, basis, total, d)
    if d is None:
        return UNBOUNDED, None, None

    solution = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            solution[b] = Fraction(table[i][-1], d)
    return OPTIMAL, solution, Fraction(-cost[-1], d * scale)


def _pivot_until_optimal(table, cost, basis, width, d):
    """Pivot by Bland's rule until no reduced cost is positive; the final
    determinant, or None when the entering column is unbounded."""
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
            return None
        line = table[pivot_row]
        p, f = line[pivot_col], cost[pivot_col]
        cost[:] = [(p * a - f * b) // d for a, b in zip(cost, line)]
        d = _pivot(table, basis, pivot_row, pivot_col, d)


def _pivot(table, basis, row, col, d):
    """Pivot the fraction-free tableau on (row, col); returns the new d.  A
    negative pivot entry negates its row first, which keeps d positive."""
    line = table[row]
    p = line[col]
    if p < 0:
        table[row] = line = [-v for v in line]
        p = -p
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


# ---------------------------------------------------------------------------
# Zero-sum game values


def game_value(a: Matrix) -> Tuple[Fraction, Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """Value and optimal strategies of the zero-sum game on matrix ``a``.

    The row player maximises x.A.y, the column player minimises.  Returns
    (w, x*, y*) satisfying the saddle property min_t x*.A.t = w = max_s s.A.y*.
    A game whose unique optimum a 1 x 1 or 2 x 2 kernel certifies
    (:func:`_kernel_solution`) is answered in closed form; every other game
    solves two LPs.  Either answer must pass :func:`_certify_saddle`.
    """
    k, scale = _integer_matrix(a)
    solved = _kernel_solution(a, k, scale) or _lp_solution(a)
    _certify_saddle(k, scale, *solved)
    return solved


def _lp_solution(a: Matrix) -> tuple:
    """(value, x*, y*) from the row player's LP and the column player's."""
    n_rows, n_cols = len(a), len(a[0])

    # Row side: max v s.t. sum_i x_i a[i][j] >= v for all j, x in simplex.
    lp = LinearProgram(
        objective=[Fraction(0)] * n_rows + [Fraction(1)],
        sense="max",
        free=frozenset([n_rows]),
    )
    for j in range(n_cols):
        lp.add([a[i][j] for i in range(n_rows)] + [Fraction(-1)], GE, Fraction(0))
    lp.add([Fraction(1)] * n_rows + [Fraction(0)], EQ, Fraction(1))
    row_result = solve_lp(lp)
    if row_result.status != OPTIMAL:
        raise MatchGamesError("game value LP must be solvable")
    x_star = tuple(row_result.solution[:n_rows])
    value = row_result.value

    # Column side: min u s.t. sum_j y_j a[i][j] <= u for all i.
    lp2 = LinearProgram(
        objective=[Fraction(0)] * n_cols + [Fraction(1)],
        sense="min",
        free=frozenset([n_cols]),
    )
    for i in range(n_rows):
        lp2.add([a[i][j] for j in range(n_cols)] + [Fraction(-1)], LE, Fraction(0))
    lp2.add([Fraction(1)] * n_cols + [Fraction(0)], EQ, Fraction(1))
    col_result = solve_lp(lp2)
    if col_result.status != OPTIMAL or col_result.value != value:
        raise MatchGamesError("primal and dual game values disagree")
    y_star = tuple(col_result.solution[:n_cols])
    return value, x_star, y_star


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


def _kernel_solution(a: Matrix, k, scale: int) -> Optional[tuple]:
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
    n_rows, n_cols = len(a), len(a[0])
    for i, row in enumerate(k):
        lo = min(row)
        if row.count(lo) != 1:
            continue
        j = row.index(lo)
        if all(other[j] < lo for s, other in enumerate(k) if s != i):
            return a[i][j], pure(i, n_rows), pure(j, n_cols)

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
